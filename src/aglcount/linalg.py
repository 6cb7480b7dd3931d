"""Dense matrices and affine maps over F_q, and their rank: the one F_q
forward elimination `extend`, or at q = 2 its packed-int form `gf2_extend`.
A matrix keeps no state but its entries, so each invertibility check ranks.

Row-vector convention throughout: a matrix acts on points by x |-> x A,
an affine map by x |-> x A + a.  A point x of F_q**n has the code
x_0 + x_1 q + ... + x_{n-1} q**(n-1); `point_permutation` is the one place
that turns points into codes, and everything that walks points (cycles,
the brute-force oracle, orbit sums) works on codes alone.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:  # fields takes its GF(2) eliminations from here
    from .fields import FieldTable

__all__ = [
    "AffineMap",
    "GFMatrix",
    "PackedMap",
    "block_diagonal",
    "companion_matrix",
    "cycles",
    "extend",
    "gf2_extend",
    "gf2_rank",
    "jordan_block",
    "pack",
    "point_permutation",
    "rank",
]


class GFMatrix:
    """Immutable dense matrix over a FieldTable."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, f: FieldTable, entries):
        rows = tuple(map(tuple, entries))
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("matrix entries must be ints")
        if rows and rows[0] and not (0 <= min(map(min, rows)) and max(map(max, rows)) < f.q):
            raise ValueError("entry out of field range")
        self.field = f
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.entries = rows

    @classmethod
    def identity(cls, f: FieldTable, n: int) -> "GFMatrix":
        return cls(f, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFMatrix)
            and self.field.q == other.field.q
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field.q, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"GFMatrix(q={self.field.q}, [{body}])"

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rank(self) == self.rows


def gf2_extend(pivots: dict[int, int], rows: Iterable[int]) -> int:
    """Top-bit elimination over GF(2) of rows packed as ints (bit j =
    column j): each row is reduced against the pivots, one pivot row per
    leading bit, and kept as a new pivot under its leading bit unless it
    vanishes.  Returns the number of new pivots, the rank the rows add to
    the pivots' span; so feeding rows a group at a time gives the rank of
    every prefix.  Only the pivots are kept, so the rows may come from a
    generator."""
    added = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                added += 1
                break
            row ^= pivot
    return added


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows packed as ints, by `gf2_extend`."""
    return gf2_extend({}, rows)


def extend(f: FieldTable, pivots: dict[int, list[int]], rows: Iterable) -> int:
    """Forward elimination over F_q, the F_q form of `gf2_extend`: each row
    is reduced against the pivots, one pivot row per leading column, scaled
    to 1 there, and a row that does not vanish is scaled and kept as a new
    pivot under its leading column.  Returns the number of new pivots, the
    rank the rows add to the pivots' span."""
    added = 0
    for row in rows:
        for lead in range(len(row)):
            if c := row[lead]:
                pivot = pivots.get(lead)
                if pivot is None:
                    inv = f.inv(c)
                    pivots[lead] = [f.mul(inv, a) for a in row]
                    added += 1
                    break
                row = [f.sub(a, f.mul(c, b)) for a, b in zip(row, pivot)]
    return added


def rank(mat: GFMatrix) -> int:
    """Rank over F_q: the packed GF(2) rank at q = 2, else `extend`."""
    if mat.field.q == 2:
        return gf2_rank([sum(b << j for j, b in enumerate(row)) for row in mat.entries])
    return extend(mat.field, {}, mat.entries)


def companion_matrix(f: FieldTable, poly: tuple[int, ...]) -> GFMatrix:
    """Companion matrix of a monic polynomial: superdiagonal ones, last row
    the negated coefficients."""
    if len(poly) < 2:
        raise ValueError("companion matrix needs degree >= 1")
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    n = len(poly) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    for j in range(n):
        rows[n - 1][j] = f.neg(poly[j])
    return GFMatrix(f, rows)


def jordan_block(f: FieldTable, m: int) -> GFMatrix:
    """Unipotent upper bidiagonal block: identity plus superdiagonal ones."""
    if m < 1:
        raise ValueError("jordan block needs m >= 1")
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = 1
        if i + 1 < m:
            rows[i][i + 1] = 1
    return GFMatrix(f, rows)


class AffineMap(namedtuple("AffineMap", "matrix translation")):
    """Invertible affine map x |-> x A + a on F_q**n, a named tuple checked
    wherever one is built: by a call, by unpickling and by `_replace`."""

    __slots__ = ()

    def __new__(cls, matrix: GFMatrix, translation: tuple[int, ...]):
        if matrix.rows != matrix.cols:
            raise ValueError("affine map needs a square matrix")
        if len(translation) != matrix.rows:
            raise ValueError("translation length mismatch")
        if not all(isinstance(t, int) and 0 <= t < matrix.field.q for t in translation):
            raise ValueError("translation entry out of field range")
        if not matrix.is_invertible():
            raise ValueError("affine map matrix must be invertible")
        return super().__new__(cls, matrix, translation)

    @classmethod
    def _make(cls, fields) -> "AffineMap":
        return cls(*fields)

    @classmethod
    def linear(cls, matrix: GFMatrix) -> "AffineMap":
        return cls(matrix, (0,) * matrix.rows)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def field(self) -> FieldTable:
        return self.matrix.field


class PackedMap(NamedTuple):
    """A binary affine map x |-> x A + a, packed: bit j of columns[i] is
    A[j][i] and bit i of translation is a_i, so coordinate i of the image is
    the parity of x & columns[i], plus a_i.  A need not be invertible."""

    columns: tuple[int, ...]
    translation: int


def pack(entries, translation=()) -> PackedMap:
    """The packed form of x |-> x A + a, from the 0/1 rows of A and the
    bits of a (none for a linear map)."""
    columns = [0] * (len(entries[0]) if entries else 0)
    for j, row in enumerate(entries):
        for i, x in enumerate(row):
            if x:
                columns[i] |= 1 << j
    return PackedMap(tuple(columns), sum(a << i for i, a in enumerate(translation)))


def block_diagonal(blocks: list[GFMatrix]) -> GFMatrix:
    """The matrix with the given blocks down its diagonal, zeros elsewhere."""
    if not blocks:
        raise ValueError("block-diagonal matrix needs at least one block")
    f = blocks[0].field
    if any(b.field.q != f.q for b in blocks):
        raise ValueError("block-diagonal matrix across different fields")
    width = sum(b.cols for b in blocks)
    rows = []
    left = 0
    for b in blocks:
        before, after = (0,) * left, (0,) * (width - left - b.cols)
        rows.extend(before + row + after for row in b.entries)
        left += b.cols
    return GFMatrix(f, rows)


def point_permutation(sigma: AffineMap | PackedMap) -> list[int]:
    """The map as a permutation of the point codes 0 .. q**n - 1.

    Coordinate j of the image is affine in the point, so it is built one
    input coordinate at a time: on the codes below q**(i+1) its values are
    those on the codes below q**i, followed by the same values plus
    x * A[i][j] for x = 1 .. q - 1.  The image code is the sum of
    value_j * q**j.  A `PackedMap` is binary, where a point's code is its
    own bits: the images of the codes below 2**(i+1) are those below 2**i,
    followed by the same codes XOR row i of A, 2**n XORs in all."""
    if isinstance(sigma, PackedMap):
        rows = [0] * len(sigma.columns)
        for j, column in enumerate(sigma.columns):
            while column:
                low = column & -column
                rows[low.bit_length() - 1] |= 1 << j
                column ^= low
        codes = [sigma.translation]
        for row in rows:
            codes += [c ^ row for c in codes]
        return codes
    f = sigma.field
    q = f.q
    codes = [0] * q**sigma.dim
    weight = 1
    for j, t in enumerate(sigma.translation):
        values = [t]
        for row in sigma.matrix.entries:
            a = row[j]
            if a:
                steps = [f.mul(x, a) for x in range(1, q)]
                values += [f.add(v, c) for c in steps for v in values]
            else:
                values *= q
        codes = [c + weight * v for c, v in zip(codes, values)]
        weight *= q
    return codes


def cycles(perm) -> list[list[int]]:
    """The cycles of a permutation of 0 .. len(perm) - 1, each as its points
    in walk order, in the order of their smallest points; the one cycle
    walker, for cycle lengths and for orbit sums.  Each point is visited
    once, and a table that is not a permutation is refused: it has a point
    on no cycle, and the walk from the smallest one never returns to it."""
    seen = bytearray(len(perm))
    out = []
    for start, cur in enumerate(perm):
        if seen[start]:
            continue
        seen[start] = 1
        cycle = [start]
        while not seen[cur]:
            seen[cur] = 1
            cycle.append(cur)
            cur = perm[cur]
        if cur != start:
            raise ValueError(f"not a permutation: {start} does not return to itself")
        out.append(cycle)
    return out
