"""Faults planted in the Burnside fold, wherever its tasks run.

With jobs > 1 the parent folds the tasks that no worker has started, and
the workers fold the rest.  The pool path pickles the term function with
every task.  A ``Planted`` term function unpickles as a call of
``_plant``, which installs its workers' stand-in for one global of
``formulas`` in the process that unpickles it.  So every worker folds with
the fault, whatever the start method.  The parent only pickles; the caller
plants the parent's stand-in there for the duration of a call
(``in_the_parent``, or pytest's monkeypatch) and restores the real global
after it.  The stand-ins are module-level, so they pickle by reference.

Most faults fire in the parent and the workers alike.  ``worker`` fires in
a worker only, on the first task (w = n), which the parent never claims;
``parent`` fires in the parent only, while the workers fold slowly.

``raise_in_pool`` repeats the raising pooled fold; CI runs it under
``timeout``, so a teardown that hangs fails the job:

    PYTHONPATH=src:tests python -c "import planted; planted.raise_in_pool(300)"
    PYTHONPATH=src:tests python -c "import planted; planted.raise_in_pool(150, method='forkserver')"
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import random
import time

from aglcount import formulas

REAL_ENUMERATE = formulas.enumerate_classes
REAL_ROWS = formulas._unipotent_rows
NO_ROW = "class index without a unipotent row"

# Each task of a fold keys its unipotent rows by the spectra-free indices
# enumerate_classes(m, q, 0) of its unipotent weight m = n - w (none at
# w = n); the faults fold N(3, 5), where the task at w = 3 draws m = 2.


def with_a_stray(m, q, w):
    """The spectra-free indices of dimension m and, at m = 2 (the task at
    w = 3), one of dimension 3: it has no row in the task's table."""
    yield from REAL_ENUMERATE(m, q, w)
    if m == 2:
        yield next(REAL_ENUMERATE(m + 1, q, 0))


def with_a_stray_everywhere(m, q, w):
    """The spectra-free indices of dimension m and one of dimension m + 1,
    in every task that draws rows."""
    yield from REAL_ENUMERATE(m, q, w)
    yield next(REAL_ENUMERATE(m + 1, q, 0))


def slowed(m, q, w):
    """The spectra-free indices of dimension m, after a pause: a worker
    still folds when the parent has finished its first task."""
    time.sleep(0.01)
    yield from REAL_ENUMERATE(m, q, w)


def without_the_empty_row(m, q, top):
    """The row table with ((), None), the one row of weight 0, left out:
    only the task at w = n looks it up."""
    rows = dict(REAL_ROWS(m, q, top))
    rows.pop(((), None), None)
    return rows


def without_a_marker(which, m, q, top):
    """The row table with its middle or last translation-marked row left out."""
    rows = dict(REAL_ROWS(m, q, top))
    marked = [key for key in rows if key[1] is not None]
    if marked:
        del rows[marked[len(marked) // 2] if which == "middle" else marked[-1]]
    return rows


def shuffled(m, q, w):
    """The spectra-free indices of dimension m, which key a task's rows, in
    a fixed shuffled order, the same in every process."""
    indices = list(REAL_ENUMERATE(m, q, w))
    random.Random(1717 + 31 * m + w).shuffle(indices)
    return iter(indices)


class Planted:
    """terms, carrying the workers' stand-in for formulas.<name> into each
    worker; in_parent is the stand-in for the parent."""

    def __init__(self, name, stand_in, in_parent, terms=formulas._orbit_terms):
        self.name, self.stand_in, self.in_parent, self.terms = name, stand_in, in_parent, terms

    def __call__(self, spectra, unipotent, marker, multiplicity, orbits):
        return self.terms(spectra, unipotent, marker, multiplicity, orbits)

    def __reduce__(self):
        return _plant, (self.name, self.stand_in, self.in_parent, self.terms)


def _plant(name, stand_in, in_parent, terms):
    setattr(formulas, name, stand_in)
    return Planted(name, stand_in, in_parent, terms)


@contextlib.contextmanager
def in_the_parent(fault):
    """fault's parent stand-in in place of the real global of this process
    for the duration of the block."""
    real = getattr(formulas, fault.name)
    setattr(formulas, fault.name, fault.in_parent)
    try:
        yield fault
    finally:
        setattr(formulas, fault.name, real)


@contextlib.contextmanager
def start_method(method):
    """method as the default multiprocessing start method for the block."""
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(before, force=True)


def _everywhere(name, stand_in):
    return Planted(name, stand_in, stand_in)


FAULTS = {
    "stray": _everywhere("enumerate_classes", with_a_stray),
    "middle": _everywhere("_unipotent_rows", functools.partial(without_a_marker, "middle")),
    "last": _everywhere("_unipotent_rows", functools.partial(without_a_marker, "last")),
    "worker": Planted("_unipotent_rows", without_the_empty_row, REAL_ROWS),
    "parent": Planted("enumerate_classes", slowed, with_a_stray_everywhere),
}


def raise_in_pool(loops: int, jobs: int = 2, method: str | None = None) -> None:
    """Fold N(3, 5) loops times with each planted fault on the pool path,
    under the given start method or the default one; every run must raise
    the row-lookup error."""
    with start_method(method) if method else contextlib.nullcontext():
        for _ in range(loops):
            for name, fault in FAULTS.items():
                try:
                    with in_the_parent(fault):
                        formulas.burnside_total(5, 3, fault, jobs=jobs)
                except AssertionError as err:
                    if NO_ROW not in str(err):
                        raise
                else:
                    raise AssertionError(f"planted fault {name} did not raise")
