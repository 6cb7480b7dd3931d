"""Conjugacy-class indices for AGL(n, F_q) and their enumeration.

A class index holds a unipotent partition, one partition tuple per
polynomial order d (only orders with a nonempty tuple are stored), and an
optional translation marker t.  Indices without a marker parametrize the
purely linear-conjugate classes; an index with marker t names the class
whose representative carries a translation on one size-t Jordan block.

Tuples that differ only by permuting their entries across the psi(d)
irreducibles of order d are folded into one index; the fold multiplicity
is the multinomial ``ClassIndex.multiplicity`` and weights every Burnside
sum.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache
from typing import Iterator, NamedTuple

from .numtheory import divisors, multiplicative_order, prime_power, psi
from .partitions import (
    Partition,
    canon,
    enumerate_partitions,
    order_key,
    support,
    weight,
)

__all__ = [
    "ClassIndex",
    "PartitionTuple",
    "compute_D",
    "enumerate_classes",
]


def _sorted_entries(entries) -> tuple[Partition, ...]:
    """The nonempty entries, canonical and in partition order, as stored."""
    return tuple(sorted(filter(None, map(canon, entries)), key=order_key))


class PartitionTuple(NamedTuple):
    """Nondecreasing tuple of partitions attached to one polynomial order d.

    ``entries`` stores only the nonempty partitions; the remaining
    psi - len(entries) slots are implicitly the empty partition (which
    sorts first, so the stored entries are the tail of the full tuple).
    """

    d: int
    psi: int
    entries: tuple[Partition, ...]

    def total_weight(self) -> int:
        return sum(weight(e) for e in self.entries)


@lru_cache(maxsize=None)
def _permutation_count(psi_d: int, entries: tuple[Partition, ...]) -> int:
    # distinct arrangements of the psi slots: a multinomial over slot
    # contents, the psi - k empty slots being one group
    k = len(entries)
    out = math.comb(psi_d, k) * math.factorial(k)
    for _, group in itertools.groupby(entries):
        out //= math.factorial(sum(1 for _ in group))
    return out


class ClassIndex(NamedTuple):
    """One folded conjugacy-class index of AGL(n, F_q)."""

    n: int
    q: int
    unipotent: Partition
    spectra: tuple[PartitionTuple, ...]
    marker: int | None = None

    def multiplicity(self) -> int:
        out = 1
        for t in self.spectra:
            out *= _permutation_count(t.psi, t.entries)
        return out

    def validate(self) -> None:
        prime_power(self.q)
        if self.unipotent != canon(self.unipotent):
            raise ValueError(f"unipotent partition {self.unipotent} not canonical")
        total = weight(self.unipotent) + _spectra_weight(self.q, self.spectra)
        if total != self.n:
            raise ValueError(f"weights sum to {total}, expected n = {self.n}")
        if self.marker is not None:
            if weight(self.unipotent) == 0:
                raise ValueError("translation marker requires a unipotent part")
            if self.marker not in support(self.unipotent):
                raise ValueError(f"marker {self.marker} not a part size of {self.unipotent}")


@lru_cache(maxsize=None)
def _spectra_weight(q: int, spectra: tuple[PartitionTuple, ...]) -> int:
    """The dimension the spectra take, sum of o_d(q) times their weights,
    once each tuple is checked; indices of one run share their spectra, so
    each tuple is checked once.  A refused tuple raises and is not cached."""
    p = prime_power(q).p
    total = 0
    seen = set()
    for t in spectra:
        if t.d in seen:
            raise ValueError(f"duplicate order d = {t.d}")
        seen.add(t.d)
        o = multiplicative_order(q, t.d)
        if t.d <= 1 or t.d % p == 0:
            raise ValueError(f"d = {t.d} not coprime to q or too small")
        if t.psi != psi(t.d, q):
            raise ValueError(f"psi mismatch for d = {t.d}")
        if not t.entries:
            raise ValueError(f"empty tuple stored for d = {t.d}")
        if len(t.entries) > t.psi:
            raise ValueError(f"too many entries for d = {t.d}")
        if t.entries != _sorted_entries(t.entries):
            raise ValueError(f"entries for d = {t.d} not canonical and in partition order")
        total += o * t.total_weight()
    return total


@lru_cache(maxsize=None)
def compute_D(n: int, q: int) -> tuple[int, ...]:
    """All d > 1 dividing q**i - 1 for some 1 <= i <= n, sorted ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prime_power(q)
    out: set[int] = set()
    for i in range(1, n + 1):
        out.update(d for d in divisors(q**i - 1) if d > 1)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _d_info(n: int, q: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((d, multiplicative_order(q, d), psi(d, q)) for d in compute_D(n, q))


@lru_cache(maxsize=None)
def _fitting(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Per budget b = 0..n, the ascending positions in ``_d_info(n, q)`` of
    the orders d with o_d <= b, the only ones that fit in weight b."""
    orders = [o for _, o, _ in _d_info(n, q)]
    return tuple(tuple([j for j, o in enumerate(orders) if o <= b]) for b in range(n + 1))


def _shapes_from(m: int, cap: int, min_key) -> Iterator[tuple[Partition, ...]]:
    if m == 0:
        yield ()
        return
    if cap == 0:
        return
    for w in range(1, m + 1):
        for mu in enumerate_partitions(w):
            key = order_key(mu)
            if min_key is not None and key < min_key:
                continue
            for rest in _shapes_from(m - w, cap - 1, key):
                yield (mu, *rest)


@lru_cache(maxsize=None)
def _tuple_shapes(m: int, cap: int) -> tuple[tuple[Partition, ...], ...]:
    """Nondecreasing tuples of nonempty partitions, total weight m, length <= cap."""
    return tuple(_shapes_from(m, cap, None))


def _append(prefix: tuple[PartitionTuple, ...], head: PartitionTuple) -> tuple[PartitionTuple, ...]:
    return (*prefix, head)


def _iter_spectra(dinfo, fitting, start: int, budget: int, carry=_append, acc=()) -> Iterator:
    """The spectra tuples of weight budget from the orders at positions >=
    start, as carry builds them: acc = carry(acc, head) per head on the way
    down, so a shared prefix is carried once (by default acc is the tuple).
    Bisects to start among the orders that fit, so it never sees one that
    cannot, and carries no head whose rest no later order fits."""
    if budget == 0:
        yield acc
        return
    positions = fitting[budget]
    for j in positions[bisect_left(positions, start) :]:
        d, o, psi_d = dinfo[j]
        for m in range(1, budget // o + 1):
            rest = budget - o * m
            if rest and fitting[rest][-1:] <= (j,):
                continue
            for entries in _tuple_shapes(m, min(psi_d, m)):
                head = carry(acc, PartitionTuple(d, psi_d, entries))
                yield from _iter_spectra(dinfo, fitting, j + 1, rest, carry, head) if rest else (head,)


def enumerate_classes(n: int, q: int, w: int | None = None) -> Iterator[ClassIndex]:
    """All class indices with total weight n, or only those of spectra
    weight w (0 <= w <= n).

    Deterministic order: spectra weight w ascending (so unipotent weight
    descending), then spectra by ascending d and tuple shape, then the
    unipotent partition in partition order, each unmarked first and then
    translation-marked by ascending part size.  The (partition, marker)
    pairs of weight n - w are listed once per w, and each spectra tuple is
    built once and shared by all its indices.  The fold in ``formulas``
    walks the spectra itself and draws from here only the spectra-free
    indices, enumerate_classes(n - w, q, 0), as the keys of its rows.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if w is not None and not 0 <= w <= n:
        raise ValueError(f"spectra weight w = {w} outside 0..{n}")
    prime_power(q)
    for w in range(n + 1) if w is None else (w,):
        rows = [(lam, t) for lam in enumerate_partitions(n - w) for t in (None, *support(lam))]
        # weight 0 holds the empty tuple alone and needs no table of orders
        for spectra in _iter_spectra(_d_info(n, q), _fitting(n, q), 0, w) if w else ((),):
            for lam, t in rows:
                yield ClassIndex(n, q, lam, spectra, t)
