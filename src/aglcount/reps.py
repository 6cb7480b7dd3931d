"""Explicit class representatives as affine maps, and the formula-vs-matrix
cross checks.

A representative is one block-diagonal matrix, laid out in one pass: one
unipotent bidiagonal block per unipotent part (the translation-marked class
puts the vector (1, 0, ..., 0) on the first block of the marked size), then
one companion block per power f**j of each irreducible f receiving a
nonzero partition.  The canonical representative puts the k nonempty
partitions of one order on the first k irreducibles of that order, the
first slot assignment `_distinct_assignments` yields; the other
assignments are the other classes folded into the index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .conjugacy import ClassIndex
from .fields import field, irreducibles, poly_order, poly_pow
from .formulas import element_order, fix_exponent_at, orbit_exponent
from .linalg import (
    AffineMap,
    GFMatrix,
    block_diagonal,
    companion_matrix,
    cycle_lengths,
    jordan_block,
    point_permutation,
)
from .numtheory import divisors, multiplicative_order, power_exceeds, psi

__all__ = [
    "ClassCheckReport",
    "build_representative",
    "irreducibles_of_order",
    "iter_class_representatives",
    "verify_class",
]


@lru_cache(maxsize=None)
def irreducibles_of_order(d: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The psi(d) monic irreducibles of degree o_d(q) whose roots have
    multiplicative order exactly d, in the order of `fields.irreducibles`."""
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    degree = multiplicative_order(q, d)  # also validates gcd(d, q) = 1
    f = field(q)
    polys = tuple(g for g in irreducibles(q, degree) if g[0] and poly_order(f, g) == d)
    if len(polys) != psi(d, q):
        raise AssertionError(f"found {len(polys)} irreducibles of order {d}, expected psi")
    return polys


def _invertible_block(block: GFMatrix) -> GFMatrix:
    if not block.is_invertible():
        raise ValueError(f"singular representative block {block}")
    return block


# GFMatrix is immutable, so representatives share these blocks: one entry
# per (irreducible, power) and one per unipotent block size.  Each is
# ranked once here, and a block-diagonal of them is then known invertible.
@lru_cache(maxsize=None)
def _companion_power(q: int, poly: tuple[int, ...], j: int) -> GFMatrix:
    f = field(q)
    return _invertible_block(companion_matrix(f, poly_pow(f, poly, j)))


@lru_cache(maxsize=None)
def _unipotent_block(q: int, size: int) -> GFMatrix:
    return _invertible_block(jordan_block(field(q), size))


def _spectral_blocks(q: int, spectrum, assignment: tuple[int, ...]) -> Iterator[GFMatrix]:
    polys = irreducibles_of_order(spectrum.d, q)
    for slot, entry in zip(assignment, spectrum.entries):
        for j, mj in enumerate(entry, start=1):
            if mj:
                yield from itertools.repeat(_companion_power(q, polys[slot], j), mj)


def _assemble(idx: ClassIndex, assignments: tuple[tuple[int, ...], ...]) -> AffineMap:
    blocks = [
        _unipotent_block(idx.q, size)
        for size, count in enumerate(idx.unipotent, start=1)
        for _ in range(count)
    ]
    for spectrum, assignment in zip(idx.spectra, assignments):
        blocks.extend(_spectral_blocks(idx.q, spectrum, assignment))
    matrix = block_diagonal(blocks)
    if matrix.rows != idx.n:
        raise AssertionError(f"assembled dimension {matrix.rows}, expected {idx.n}")
    translation = [0] * idx.n
    if idx.marker is not None:
        # (1, 0, ..., 0) on the first unipotent block of the marked size
        sizes = enumerate(idx.unipotent[: idx.marker - 1], start=1)
        translation[sum(size * count for size, count in sizes)] = 1
    return AffineMap(matrix, tuple(translation))


def build_representative(idx: ClassIndex) -> AffineMap:
    """The canonical representative of the class index on F_q**n: the first
    assignment of every spectrum, as `iter_class_representatives` yields first."""
    idx.validate()
    return _assemble(idx, tuple(next(_distinct_assignments(s)) for s in idx.spectra))


def _distinct_assignments(spectrum) -> Iterator[tuple[int, ...]]:
    """Slot choices producing pairwise distinct representatives.

    The entries are sorted, so equal entries sit side by side; they take
    increasing slots, and the number of yields is the fold multiplicity
    of the tuple.
    """
    entries = spectrum.entries
    ties = [i for i in range(len(entries) - 1) if entries[i] == entries[i + 1]]
    for slots in itertools.permutations(range(spectrum.psi), len(entries)):
        if all(slots[i] < slots[i + 1] for i in ties):
            yield slots


def iter_class_representatives(idx: ClassIndex) -> Iterator[tuple[AffineMap, int]]:
    """(representative, weight) pairs covering all idx.multiplicity() classes
    folded into this index.

    When the index has a single active order d with a single nonempty
    partition entry, all psi(d) assignments are powers sigma**j of one
    another with gcd(j, order(sigma)) = 1 (choose j by CRT: the slot twist
    mod d, 1 mod the p-part), and a power with exponent coprime to the
    order has the same fixed space on any invariant subquotient; one
    representative with weight psi(d) suffices.  Otherwise every distinct
    assignment is yielded with weight 1.
    """
    idx.validate()
    mult = idx.multiplicity()
    assignments = itertools.product(*(_distinct_assignments(s) for s in idx.spectra))
    if mult == 1 or (len(idx.spectra) == 1 and len(idx.spectra[0].entries) == 1):
        # the first assignment is the one build_representative takes
        yield _assemble(idx, next(assignments)), mult
        return
    for assignment in assignments:
        yield _assemble(idx, assignment), 1


# verify_class walks every point of F_q**n to count orbits
_POINT_LIMIT = 1 << 20


@dataclass(frozen=True)
class ClassCheckReport:
    """Outcome of checking one class index against its explicit matrix."""

    index: ClassIndex
    order_formula: int
    order_matrix: int
    orbit_formula: int
    orbit_matrix: int
    fix_mismatches: tuple[tuple[int, int, int], ...]  # (k, formula, matrix)

    @property
    def ok(self) -> bool:
        return (
            self.order_formula == self.order_matrix
            and self.orbit_formula == self.orbit_matrix
            and not self.fix_mismatches
        )

    def describe(self) -> str:
        if self.ok:
            return f"ok: {self.index}"
        lines = [f"MISMATCH for {self.index}"]
        if self.order_formula != self.order_matrix:
            lines.append(f"  order: formula {self.order_formula}, matrix {self.order_matrix}")
        if self.orbit_formula != self.orbit_matrix:
            lines.append(f"  orbits: formula {self.orbit_formula}, matrix {self.orbit_matrix}")
        for k, want, got in self.fix_mismatches:
            lines.append(f"  fix at power {k}: formula {want}, matrix {got}")
        return "\n".join(lines)


def verify_class(idx: ClassIndex) -> ClassCheckReport:
    """Compare order, per-power fixed points, and orbit count of the built
    representative against the closed formulas.

    All three matrix-side numbers come from the cycle lengths of the
    representative's point permutation: the order is their lcm, sigma**k
    fixes the points on cycles whose length divides k, and the orbits of
    the cyclic group are the cycles."""
    if power_exceeds(idx.q, idx.n, _POINT_LIMIT):
        raise ValueError(f"point space {idx.q}**{idx.n} exceeds the check limit")
    lengths = cycle_lengths(point_permutation(build_representative(idx)))
    order_f = element_order(idx)
    order_m = math.lcm(*lengths)
    mismatches = []
    bound = min(order_f, order_m)
    for k in divisors(bound):
        exp = fix_exponent_at(idx, k)
        want = 0 if exp is None else idx.q**exp
        got = sum(length for length in lengths if k % length == 0)
        if want != got:
            mismatches.append((k, want, got))
    return ClassCheckReport(
        index=idx,
        order_formula=order_f,
        order_matrix=order_m,
        orbit_formula=orbit_exponent(idx),
        orbit_matrix=len(lengths),
        fix_mismatches=tuple(mismatches),
    )
