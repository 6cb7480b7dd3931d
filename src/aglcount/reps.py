"""Explicit class representatives as affine maps, and the formula-vs-matrix
cross checks.

A representative is one block-diagonal matrix, laid out in one pass: one
unipotent bidiagonal block per unipotent part (the translation-marked class
puts the vector (1, 0, ..., 0) on the first block of the marked size), then
one companion block per power f**j of each irreducible f receiving a
nonzero partition.  The canonical representative puts the k nonempty
partitions of one order on the first k irreducibles of that order, the
first slot assignment `_distinct_assignments` yields; the other
assignments are the other classes folded into the index.  One block list
serves two layouts: `_assemble` lays it out densely as an AffineMap, and
`packed_representative`, for the binary quotient counts, shifts each
shared block's cached packed columns into place, with no dense matrix.

Those classes fall into orbits of the unit group: for j a unit mod the
lcm of the orders, the classes of sigma and sigma**j differ only in where
the slots sit, and share every fixed count (the Jordan decomposition
argument is in `iter_class_representatives`).  The quotient counts build
one representative per orbit, weighted by its size.  The irreducibles of
each order and the slot moves are read off the root exponents of one
primitive element per degree (`fields._root_exponents`), and the orbits
are worked out once per shape of the spectra with more than one slot.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .conjugacy import ClassIndex
from .fields import _root_exponents, field, poly_pow
from .formulas import element_order, fix_exponent_at, orbit_exponent
from .linalg import (
    AffineMap,
    GFMatrix,
    PackedMap,
    block_diagonal,
    companion_matrix,
    cycles,
    jordan_block,
    pack,
    point_permutation,
)
from .numtheory import divisors, factorize, multiplicative_order, power_exceeds, psi

__all__ = [
    "ClassCheckReport",
    "build_representative",
    "irreducibles_of_order",
    "iter_class_representatives",
    "packed_representative",
    "verify_class",
]


@lru_cache(maxsize=None)
def irreducibles_of_order(d: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The psi(d) monic irreducibles of degree o_d(q) whose roots have
    multiplicative order exactly d, in the order of `fields.irreducibles`:
    the minimal polynomials of the alpha**c of `fields._root_exponents` of
    order (q**o - 1)/gcd(c, q**o - 1) = d."""
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")
    degree = multiplicative_order(q, d)  # also validates gcd(d, q) = 1
    size = q**degree - 1
    polys = tuple(sorted(g for g, c in _root_exponents(q, degree).items() if size // math.gcd(c, size) == d))
    if len(polys) != psi(d, q):
        raise AssertionError(f"found {len(polys)} irreducibles of order {d}, expected psi")
    return polys


def _invertible_block(block: GFMatrix) -> GFMatrix:
    if not block.is_invertible():
        raise ValueError(f"singular representative block {block}")
    return block


# GFMatrix is immutable, so representatives share these blocks: one entry
# per (irreducible, power) and one per unipotent block size.  Each is
# ranked once here, the one invertibility check of the packed layout.
@lru_cache(maxsize=None)
def _companion_power(q: int, poly: tuple[int, ...], j: int) -> GFMatrix:
    f = field(q)
    return _invertible_block(companion_matrix(f, poly_pow(f, poly, j)))


@lru_cache(maxsize=None)
def _unipotent_block(q: int, size: int) -> GFMatrix:
    return _invertible_block(jordan_block(field(q), size))


@lru_cache(maxsize=None)
def _packed_block(block: GFMatrix) -> tuple[int, ...]:
    # the packed columns of a shared block, for the packed layout
    return pack(block.entries).columns


def _blocks(idx: ClassIndex, assignments: tuple[tuple[int, ...], ...]) -> list[GFMatrix]:
    """The diagonal blocks of the representative, in layout order: the
    unipotent blocks by size, then the companion powers of each spectrum."""
    q = idx.q
    blocks = [_unipotent_block(q, size) for size, count in enumerate(idx.unipotent, start=1) for _ in range(count)]
    for spectrum, assignment in zip(idx.spectra, assignments):
        polys = irreducibles_of_order(spectrum.d, q)
        for slot, entry in zip(assignment, spectrum.entries):
            for j, mj in enumerate(entry, start=1):
                blocks += [_companion_power(q, polys[slot], j)] * mj
    return blocks


def _marked_coordinate(idx: ClassIndex) -> int:
    # the first coordinate of the first unipotent block of the marked size
    return sum(size * count for size, count in enumerate(idx.unipotent[: idx.marker - 1], start=1))


def _assemble(idx: ClassIndex, assignments: tuple[tuple[int, ...], ...]) -> AffineMap:
    matrix = block_diagonal(_blocks(idx, assignments))
    if matrix.rows != idx.n:
        raise AssertionError(f"assembled dimension {matrix.rows}, expected {idx.n}")
    translation = [0] * idx.n
    if idx.marker is not None:
        translation[_marked_coordinate(idx)] = 1
    return AffineMap(matrix, tuple(translation))


def packed_representative(idx: ClassIndex, assignments: tuple[tuple[int, ...], ...]) -> PackedMap:
    """The binary representative `_assemble` builds, laid out packed from
    the blocks' cached columns, with no dense matrix."""
    if idx.q != 2:
        raise ValueError(f"packed representatives are binary, got q = {idx.q}")
    columns: list[int] = []
    for block in _blocks(idx, assignments):
        shift = len(columns)
        columns += [c << shift for c in _packed_block(block)]
    if len(columns) != idx.n:
        raise AssertionError(f"assembled dimension {len(columns)}, expected {idx.n}")
    translation = 0 if idx.marker is None else 1 << _marked_coordinate(idx)
    return PackedMap(tuple(columns), translation)


def build_representative(idx: ClassIndex) -> AffineMap:
    """The canonical representative of the class index on F_q**n: the first
    assignment of every spectrum, as `iter_class_representatives` yields first."""
    idx.validate()
    return _assemble(idx, tuple(tuple(range(len(s.entries))) for s in idx.spectra))


def _shape(spectrum) -> tuple[int, int, tuple[int, ...]]:
    """(d, psi, runs): the entries are sorted, so equal ones sit side by
    side, in a run labelled by its first position."""
    entries = spectrum.entries
    return spectrum.d, spectrum.psi, tuple(map(entries.index, entries))


def _distinct_assignments(shape) -> Iterator[tuple[int, ...]]:
    """Slot choices producing pairwise distinct representatives, for a
    spectrum of this `_shape`: the entries of one run take increasing slots,
    and the number of yields is the fold multiplicity of the tuple."""
    _, psi, runs = shape
    ties = [i for i in range(len(runs) - 1) if runs[i] == runs[i + 1]]
    for slots in itertools.permutations(range(psi), len(runs)):
        if all(slots[i] < slots[i + 1] for i in ties):
            yield slots


@lru_cache(maxsize=None)
def _unit_generators(m: int) -> tuple[int, ...]:
    """Generators of (Z/m)*: one of each cyclic factor of each prime-power
    part p**k (a primitive root for odd p; -1 and 5 for p = 2), lifted by
    CRT to 1 modulo the rest of m."""
    gens = []
    for p, k in factorize(m):
        pk = p**k
        if p == 2:
            local = [-1, 5][: min(k - 1, 2)]
        else:
            unit_count = pk // p * (p - 1)
            local = [next(g for g in range(2, pk) if g % p and multiplicative_order(g, pk) == unit_count)]
        rest = m // pk
        gens.extend((g + pk * ((1 - g) * pow(pk, -1, rest))) % m for g in local)
    return tuple(gens)


def _slot_moves(q: int, d: int, units: Sequence[int]) -> list[tuple[int, ...]]:
    """For each unit j mod d, the slot that j sends each order-d slot to.
    Slot k holds the minimal polynomial of alpha**e_k, e_k its exponent in
    `fields._root_exponents`, so the j-th powers of its roots, conjugates of
    alpha**(e_k j), lie in the slot whose cyclotomic coset {e q**i} mod
    q**o - 1 holds e_k j: an order-d slot again, as j is a unit mod d."""
    polys = irreducibles_of_order(d, q)
    degree = len(polys[0]) - 1
    size, exponents = q**degree - 1, _root_exponents(q, degree)
    slot = {exponents[g] * q**i % size: k for k, g in enumerate(polys) for i in range(degree)}
    moves = [tuple(slot.get(exponents[g] * j % size) for g in polys) for j in units]
    for j, move in zip(units, moves):
        if set(move) != set(range(len(polys))):
            raise AssertionError(f"the unit {j} does not permute the order-{d} slots")
    return moves


@lru_cache(maxsize=None)
def _moving_orbits(q: int, shapes: tuple) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
    """The orbits of (Z/L)* on the slot assignments of every spectrum at
    once, for spectra of these `_shape`s, each with psi(d) > 1: j moves each
    slot as `_slot_moves` does, and the equal entries of a moved assignment
    take their slots in increasing order again.  L is the lcm of the orders
    d; an order with one slot never moves, and every unit mod L lifts to a
    unit mod the lcm of all orders, so the spectra with psi(d) = 1 are left
    out.  Each orbit is closed under the generators of the unit group and
    starts with its first assignment in the order `_distinct_assignments`
    yields them.

    An orbit holds slot indices alone, and everything that makes it reads
    only the shapes: the assignments come from psi and the runs, the moves
    from the root exponents of (d, q) and the unit generators of the lcm of
    the d, and the reordering from the runs.  So spectra of one shape,
    whatever their partitions and their orders with one slot, share their
    orbits (21 keys for the 72 spectra tuples at n = 9, 30 for 129 at
    n = 10), and the cache holds one entry per key."""
    units = _unit_generators(math.lcm(*(d for d, _, _ in shapes)))
    moves = list(zip(*(_slot_moves(q, d, units) for d, _, _ in shapes)))
    seen = set()
    orbits = []
    for start in itertools.product(*map(_distinct_assignments, shapes)):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for assignment in orbit:
            for perms in moves:
                # runs are the sort key that puts a moved assignment back in canonical order
                image = tuple(
                    tuple(s for _, s in sorted(zip(runs, map(perm.__getitem__, slots))))
                    for perm, (_, _, runs), slots in zip(perms, shapes, assignment)
                )
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append(tuple(orbit))
    return tuple(orbits)


def iter_class_representatives(idx: ClassIndex) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """(slot assignments, weight) pairs covering all idx.multiplicity()
    classes folded into this index: the assignments of one representative
    per orbit of `_moving_orbits`, weighted by the orbit size.
    `_assemble` lays a representative out densely, `packed_representative`
    packed.

    Every class of one orbit has the same fixed count on every invariant
    subquotient (the Jordan decomposition argument).  Let sigma = (A, t) be
    a representative, F_q**n = U + W with U the generalized 1-eigenspace of
    A, which holds t, and A = s u on W with s semisimple, u unipotent and
    s u = u s.  Take j a unit mod L, the lcm of the orders d, and by CRT
    j = 1 modulo the p-part of the order of sigma; then gcd(j,
    order(sigma)) = 1, so sigma**j generates the same cyclic group as sigma
    and fixes the same vectors.
    - On U, sigma is an affine map of p-power order, so sigma**j is sigma
      there: the unipotent partition, the marker and the translation stay.
    - On W, A**j = s**j u, since u has p-power order.  On the primary part
      of a slot's irreducible f, s**j has the minimal polynomial of the
      j-th powers of f's roots, of the same order d and degree, and
      F_q[s**j] = F_q[s], so u keeps its partition over that field.
    sigma**j is therefore AGL-conjugate to the representative whose slots
    are moved by j, and the fixed count is a class function.
    """
    shapes = tuple(map(_shape, idx.spectra))
    orbits = _moving_orbits(idx.q, tuple(shape for shape in shapes if shape[1] > 1))
    if sum(map(len, orbits)) != idx.multiplicity():
        raise AssertionError(f"orbit sizes do not sum to the multiplicity of {idx}")
    for orbit in orbits:
        # the one assignment (0,) of each spectrum with psi(d) = 1 goes back in its place
        moving = iter(orbit[0])
        yield tuple(next(moving) if psi > 1 else (0,) for _, psi, _ in shapes), len(orbit)


# verify_class walks every point of F_q**n to count orbits
_POINT_LIMIT = 1 << 20


class ClassCheckReport(NamedTuple):
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
    lengths = [len(cycle) for cycle in cycles(point_permutation(build_representative(idx)))]
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
