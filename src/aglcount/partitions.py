"""Integer partitions in multiplicity encoding, with a fixed total order.

A partition is a tuple ``lam`` with ``lam[i-1]`` = number of parts equal
to i, trailing zeros stripped.  The empty partition is ``()``.  The total
order sorts first by weight, then by the multiplicity at the largest index
where two partitions differ (equivalently: lexicographically on the
descending part lists).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "canon",
    "enumerate_partitions",
    "largest_part",
    "order_key",
    "parts_descending",
    "support",
    "weight",
]


def canon(mults: Iterable[int]) -> Partition:
    """Canonical multiplicity tuple: nonnegative entries, no trailing zeros."""
    lam = tuple(mults)
    if any(m < 0 for m in lam):
        raise ValueError(f"negative multiplicity in {lam}")
    end = len(lam)
    while end > 0 and lam[end - 1] == 0:
        end -= 1
    return lam[:end]


def weight(lam: Partition) -> int:
    return sum(i * m for i, m in enumerate(lam, start=1))


def support(lam: Partition) -> tuple[int, ...]:
    """Part sizes that occur: the set T(lam), ascending."""
    return tuple(i for i, m in enumerate(lam, start=1) if m > 0)


def largest_part(lam: Partition) -> int:
    """Largest part size, 0 for the empty partition."""
    return len(lam)


def parts_descending(lam: Partition) -> tuple[int, ...]:
    out = []
    for i in range(len(lam), 0, -1):
        out.extend([i] * lam[i - 1])
    return tuple(out)


def order_key(lam: Partition):
    """Sort key realizing the package-wide partition order.

    Within one weight, comparing descending part lists lexicographically is
    the same as comparing multiplicities at the largest differing index:
    both partitions agree on parts above that index, and the one with the
    smaller multiplicity there continues with a strictly smaller part (or
    runs out).  An exhaustive cross-check against the direct rule lives in
    the test suite.
    """
    return (weight(lam), parts_descending(lam))


def _descending_part_lists(w: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if w == 0:
        yield ()
        return
    for first in range(min(w, max_part), 0, -1):
        for rest in _descending_part_lists(w - first, first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def enumerate_partitions(w: int) -> tuple[Partition, ...]:
    """All partitions of weight w, sorted by the partition order."""
    if w < 0:
        raise ValueError(f"weight must be >= 0, got {w}")
    found = []
    for parts in _descending_part_lists(w, w):
        mults = [0] * (parts[0] if parts else 0)
        for part in parts:
            mults[part - 1] += 1
        found.append(canon(mults))
    found.sort(key=order_key)
    return tuple(found)
