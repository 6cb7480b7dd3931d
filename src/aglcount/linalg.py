"""Dense matrices and affine maps over F_q, with a packed-int GF(2) rank.

Row-vector convention throughout: a matrix acts on points by x |-> x A,
an affine map by x |-> x A + a.  Composition `s.then(t)` applies s first
and equals the block-matrix product of the usual (n+1)-dim embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldTable
from .numtheory import agl_group_order

__all__ = [
    "AffineMap",
    "GFMatrix",
    "affine_order",
    "block_diagonal",
    "companion_matrix",
    "cycle_count",
    "cyclic_orbit_count",
    "fixed_point_count",
    "gf2_rank",
    "jordan_block",
    "nullity",
    "rank",
]


class GFMatrix:
    """Immutable dense matrix over a FieldTable."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, f: FieldTable, entries):
        rows = tuple(tuple(map(int, row)) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        if rows and rows[0] and not (0 <= min(map(min, rows)) and max(map(max, rows)) < f.q):
            raise ValueError("entry out of field range")
        self.field = f
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.entries = rows

    @classmethod
    def identity(cls, f: FieldTable, n: int) -> "GFMatrix":
        return cls(f, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, f: FieldTable, rows: int, cols: int) -> "GFMatrix":
        return cls(f, [[0] * cols for _ in range(rows)])

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

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        f = self.field
        if f.q != other.field.q or self.cols != other.rows:
            raise ValueError("matrix shape/field mismatch")
        add, mul = f.add, f.mul
        bt = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            new = []
            for col in bt:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add(acc, mul(a, b))
                new.append(acc)
            out.append(new)
        return GFMatrix(f, out)

    def add_matrix(self, other: "GFMatrix") -> "GFMatrix":
        f = self.field
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return GFMatrix(
            f,
            [
                [f.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def sub_matrix(self, other: "GFMatrix") -> "GFMatrix":
        f = self.field
        return GFMatrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.field, list(zip(*self.entries)) if self.entries else [])

    def power(self, e: int) -> "GFMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = GFMatrix.identity(self.field, self.rows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rank(self) == self.rows

    def inverse(self) -> "GFMatrix":
        f = self.field
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = f.inv(aug[col][col])
            aug[col] = [f.mul(inv, x) for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(aug[r], aug[col])]
        return GFMatrix(f, [row[n:] for row in aug])

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.field, [list(r) for r in self.entries])


def _det(f: FieldTable, rows: list[list[int]]) -> int:
    n = len(rows)
    sign_flips = 0
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign_flips += 1
        pv = rows[col][col]
        det = f.mul(det, pv)
        inv = f.inv(pv)
        for r in range(col + 1, n):
            factor = rows[r][col]
            if factor:
                c = f.mul(factor, inv)
                row_r, row_c = rows[r], rows[col]
                for k in range(col, n):
                    row_r[k] = f.sub(row_r[k], f.mul(c, row_c[k]))
    if sign_flips % 2:
        det = f.neg(det)
    return det


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows packed as ints (bit j = column j), by
    reduction against one pivot row per leading bit."""
    pivots: dict[int, int] = {}
    rank_ = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                rank_ += 1
                break
            row ^= pivot
    return rank_


def rank(mat: GFMatrix) -> int:
    """Row-echelon rank; pivots at the first nonzero entry scanning down."""
    if mat.field.q == 2:
        return gf2_rank([sum(b << j for j, b in enumerate(row)) for row in mat.entries])
    f = mat.field
    rows = [list(r) for r in mat.entries]
    nrows, ncols = mat.rows, mat.cols
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = f.inv(rows[rk][col])
        for r in range(rk + 1, nrows):
            factor = rows[r][col]
            if factor:
                c = f.mul(factor, inv)
                row_r, row_p = rows[r], rows[rk]
                for k in range(col, ncols):
                    row_r[k] = f.sub(row_r[k], f.mul(c, row_p[k]))
        rk += 1
        if rk == nrows:
            break
    return rk


def nullity(mat: GFMatrix) -> int:
    return mat.cols - rank(mat)


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


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map x |-> x A + a on F_q**n."""

    matrix: GFMatrix
    translation: tuple[int, ...]

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("affine map needs a square matrix")
        if len(self.translation) != self.matrix.rows:
            raise ValueError("translation length mismatch")
        if not self.matrix.is_invertible():
            raise ValueError("affine map matrix must be invertible")

    @classmethod
    def identity(cls, f: FieldTable, n: int) -> "AffineMap":
        return cls(GFMatrix.identity(f, n), (0,) * n)

    @classmethod
    def linear(cls, matrix: GFMatrix) -> "AffineMap":
        return cls(matrix, (0,) * matrix.rows)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def field(self) -> FieldTable:
        return self.matrix.field

    def is_identity(self) -> bool:
        return self == AffineMap.identity(self.field, self.dim)

    def apply(self, point: tuple[int, ...]) -> tuple[int, ...]:
        f = self.field
        out = list(self.translation)
        for i, x in enumerate(point):
            if x:
                row = self.matrix.entries[i]
                for j, a in enumerate(row):
                    if a:
                        out[j] = f.add(out[j], f.mul(x, a))
        return tuple(out)

    def then(self, other: "AffineMap") -> "AffineMap":
        """Apply self first, then other; the block-matrix product self*other."""
        if self.field.q != other.field.q or self.dim != other.dim:
            raise ValueError("composition shape/field mismatch")
        return AffineMap(self.matrix @ other.matrix, other.apply(self.translation))

    def inverse(self) -> "AffineMap":
        f = self.field
        inv = self.matrix.inverse()
        moved = AffineMap.linear(inv).apply(tuple(f.neg(x) for x in self.translation))
        return AffineMap(inv, moved)


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


def affine_order(sigma: AffineMap) -> int:
    """Least k >= 1 with sigma**k the identity, by repeated composition."""
    bound = agl_group_order(sigma.dim, sigma.field.q)
    ident = AffineMap.identity(sigma.field, sigma.dim)
    power = sigma
    k = 1
    while power != ident:
        power = power.then(sigma)
        k += 1
        if k > bound:
            raise AssertionError("order exceeded the group order")
    return k


def fixed_point_count(sigma: AffineMap) -> int:
    """Number of points with x A + a = x: q**nullity(A - I) if the system
    x (A - I) = -a is consistent, else 0."""
    f = sigma.field
    n = sigma.dim
    a_minus_i = sigma.matrix.sub_matrix(GFMatrix.identity(f, n))
    rhs = tuple(f.neg(x) for x in sigma.translation)
    base_rank = rank(a_minus_i)
    stacked = GFMatrix(f, a_minus_i.entries + (rhs,))
    if rank(stacked) != base_rank:
        return 0
    return f.q ** (n - base_rank)


def _encode(point: tuple[int, ...], q: int) -> int:
    out = 0
    for x in reversed(point):
        out = out * q + x
    return out


def _decode(code: int, q: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(code % q)
        code //= q
    return tuple(out)


def point_permutation(sigma: AffineMap) -> list[int]:
    """The map as a permutation of 0 .. q**n - 1 (base-q point encoding)."""
    q = sigma.field.q
    n = sigma.dim
    return [_encode(sigma.apply(_decode(c, q, n)), q) for c in range(q**n)]


def cycle_count(perm) -> int:
    """Number of cycles of a permutation of 0 .. len(perm) - 1."""
    seen = bytearray(len(perm))
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            cur = perm[cur]
    return cycles


def cyclic_orbit_count(sigma: AffineMap) -> int:
    """Number of orbits of the cyclic group generated by sigma on F_q**n,
    by walking the cycles of its point permutation."""
    return cycle_count(point_permutation(sigma))
