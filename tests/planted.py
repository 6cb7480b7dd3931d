"""Faults planted in the pooled Burnside fold through its pickled task data.

The pool path pickles the term function with every task.  A ``Planted``
term function unpickles as a call of ``_plant``, which installs a stand-in
for one global of ``formulas`` in the process that unpickles it.  So every
worker folds with the fault, whatever the start method, while the parent,
which only pickles, keeps the real global.  The stand-ins are module-level,
so they pickle by reference.

``raise_in_pool`` repeats the raising pooled fold; CI runs it under
``timeout``, so a teardown that hangs fails the job:

    PYTHONPATH=src:tests python -c "import planted; planted.raise_in_pool(300)"
"""

from __future__ import annotations

import functools
import random

from aglcount import formulas

REAL_ENUMERATE = formulas.enumerate_classes
REAL_ROWS = formulas._unipotent_rows
NO_ROW = "class index without a unipotent row"


def with_a_stray(n, q, w):
    """The indices of spectra weight w and, at w = 3, one of weight 1: it
    has no row in the task's table."""
    yield from REAL_ENUMERATE(n, q, w)
    if w == 3:
        yield next(REAL_ENUMERATE(n, q, 1))


def without_a_marker(which, m, q, top):
    """The row table with its middle or last translation-marked row left out."""
    rows = dict(REAL_ROWS(m, q, top))
    marked = [key for key in rows if key[1] is not None]
    if marked:
        del rows[marked[len(marked) // 2] if which == "middle" else marked[-1]]
    return rows


def shuffled(n, q, w):
    """The indices of spectra weight w in a fixed shuffled order, the same
    in every process."""
    indices = list(REAL_ENUMERATE(n, q, w))
    random.Random(1717 + 31 * n + w).shuffle(indices)
    return iter(indices)


class Planted:
    """terms, carrying the stand-in for formulas.<name> into each worker."""

    def __init__(self, name, stand_in, terms=formulas._orbit_terms):
        self.name, self.stand_in, self.terms = name, stand_in, terms

    def __call__(self, idx, multiplicity, orbits):
        return self.terms(idx, multiplicity, orbits)

    def __reduce__(self):
        return _plant, (self.name, self.stand_in, self.terms)


def _plant(name, stand_in, terms):
    setattr(formulas, name, stand_in)
    return Planted(name, stand_in, terms)


FAULTS = {
    "stray": Planted("enumerate_classes", with_a_stray),
    "middle": Planted("_unipotent_rows", functools.partial(without_a_marker, "middle")),
    "last": Planted("_unipotent_rows", functools.partial(without_a_marker, "last")),
}


def raise_in_pool(loops: int, jobs: int = 2) -> None:
    """Fold N(3, 5) loops times with each planted fault on the pool path;
    every run must raise the row-lookup error."""
    for _ in range(loops):
        for name, terms in FAULTS.items():
            try:
                formulas.burnside_total(5, 3, terms, jobs=jobs)
            except AssertionError as err:
                if NO_ROW not in str(err):
                    raise
            else:
                raise AssertionError(f"planted fault {name} did not raise")
