"""Independent brute-force ground truth at tiny sizes.

Everything here works element by element (or by explicit orbit closure)
with no reference to the per-class formulas, so agreement with the
class-based counts is a meaningful test rather than a tautology.

Group elements act on point codes alone: translations and scalings come
from `linalg.point_permutation`, and the point image of every invertible
matrix is grown from them one row at a time, so no code here computes a
base-q digit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .fields import FieldTable, field
from .linalg import AffineMap, GFMatrix, cycle_lengths, point_permutation
from .numtheory import agl_group_order

__all__ = [
    "GroupElementTable",
    "brute_centralizer",
    "brute_conjugacy_classes",
    "burnside_full",
    "burnside_full_theta",
    "conjugacy_class_indices",
    "generators",
    "group_table",
    "orbit_enumeration",
    "orbit_enumeration_code",
]

_BURNSIDE_GROUP_LIMIT = 10**7
_BURNSIDE_POINT_LIMIT = 1 << 16
_TABLE_GROUP_LIMIT = 20000
_TABLE_POINT_LIMIT = 512


def _point_actions(f: FieldTable, n: int):
    """(points, shifts, scales) on F_q**n, all indexed by point code:
    points[c] is the point with code c, shifts[c] the permutation
    "translate by points[c]", and scales[x - 1] the permutation "multiply
    by x" for x = 1 .. q - 1.  Each comes from `point_permutation`, and the
    code of a translation vector is the image of 0 under its shift."""
    q = f.q
    ident = GFMatrix.identity(f, n)
    points: list[tuple[int, ...]] = [()] * q**n
    shifts: list[list[int]] = [[]] * q**n
    for t in itertools.product(range(q), repeat=n):
        shift = point_permutation(AffineMap(ident, t))
        points[shift[0]] = t
        shifts[shift[0]] = shift
    scales = []
    for x in range(1, q):
        diagonal = GFMatrix(f, [[x if i == j else 0 for j in range(n)] for i in range(n)])
        scales.append(point_permutation(AffineMap.linear(diagonal)))
    return points, shifts, scales


def _iter_linear_images(f: FieldTable, n: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every invertible n x n matrix as (row codes, linear point image),
    rejection-free.  The image of the first k rows, on the codes below
    q**k, is built from that of k - 1 rows with the shift and scale
    permutations; as a set it is the span of those rows, which the next
    row must avoid."""
    _, shifts, scales = _point_actions(f, n)

    def rec(rows, image):
        if len(rows) == n:
            yield tuple(rows), image
            return
        span = set(image)
        for r in range(len(shifts)):
            if r in span:
                continue
            steps = [shifts[scale[r]] for scale in scales]
            rows.append(r)
            yield from rec(rows, image + [step[v] for step in steps for v in image])
            rows.pop()

    yield from rec([], [0])


def burnside_full(n: int, q: int) -> int:
    """Orbit count of the full function space by summing q**(cycle count of
    every single group element) and dividing exactly by |AGL(n, F_q)|.

    Element x |-> x A + t is the linear point image of A followed by the
    shift by t, so the sum needs no point arithmetic beyond the helpers."""
    group = agl_group_order(n, q)
    points = q**n
    if group > _BURNSIDE_GROUP_LIMIT or points > _BURNSIDE_POINT_LIMIT:
        raise ValueError(f"burnside_full guard exceeded for n={n}, q={q}")
    f = field(q)
    _, shifts, _ = _point_actions(f, n)
    total = 0
    for _, image in _iter_linear_images(f, n):
        for shift in shifts:
            total += q ** len(cycle_lengths([shift[v] for v in image]))
    count, rem = divmod(total, group)
    if rem:
        raise AssertionError("full Burnside sum not divisible by the group order")
    return count


def generators(n: int, q: int) -> list[AffineMap]:
    """A small generating set of AGL(n, F_q): unit translation, coordinate
    permutations, a transvection, and a dilation for q > 2."""
    f = field(q)
    ident = GFMatrix.identity(f, n)
    gens = [AffineMap(ident, (1,) + (0,) * (n - 1))]
    if n >= 2:
        cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        gens.append(AffineMap.linear(GFMatrix(f, cycle)))
        swap = [[1 if (j == i and i > 1) or {i, j} == {0, 1} else 0 for j in range(n)] for i in range(n)]
        gens.append(AffineMap.linear(GFMatrix(f, swap)))
        trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        trans[1][0] = 1  # adds x2 to x1
        gens.append(AffineMap.linear(GFMatrix(f, trans)))
    if q > 2:
        dil = [[0] * n for _ in range(n)]
        dil[0][0] = f.generator
        for i in range(1, n):
            dil[i][i] = 1
        gens.append(AffineMap.linear(GFMatrix(f, dil)))
    return gens


def _count_orbits(universe, perms) -> int:
    """Number of orbits of the functions in universe (value tuples indexed
    by point code, a set closed under the group) under the group the point
    permutations generate, by explicit closure: f goes to f(g(x))."""
    seen: set[tuple[int, ...]] = set()
    orbits = 0
    for func in universe:
        if func in seen:
            continue
        orbits += 1
        stack = [func]
        seen.add(func)
        while stack:
            cur = stack.pop()
            for perm in perms:
                nxt = tuple(cur[p] for p in perm)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return orbits


def orbit_enumeration(n: int, q: int) -> int:
    """Number of orbits of the full function space, by explicit closure of
    every function under a generating set of the group."""
    points = q**n
    if q**points > 70000:
        raise ValueError(f"function space too large for n={n}, q={q}")
    perms = [point_permutation(g) for g in generators(n, q)]
    return _count_orbits(itertools.product(range(q), repeat=points), perms)


@dataclass
class GroupElementTable:
    """Every element of a tiny AGL(n, F_q), as point permutations."""

    n: int
    q: int
    perms: list[tuple[int, ...]]
    maps: list[AffineMap]
    index: dict[tuple[int, ...], int]

    def __len__(self) -> int:
        return len(self.perms)

    def compose(self, i: int, j: int) -> int:
        """Index of 'element i then element j'."""
        pi, pj = self.perms[i], self.perms[j]
        return self.index[tuple(pj[x] for x in pi)]

    def inverse(self, i: int) -> int:
        p = self.perms[i]
        inv = [0] * len(p)
        for a, b in enumerate(p):
            inv[b] = a
        return self.index[tuple(inv)]


@lru_cache(maxsize=None)
def group_table(n: int, q: int) -> GroupElementTable:
    group = agl_group_order(n, q)
    points = q**n
    if group > _TABLE_GROUP_LIMIT or points > _TABLE_POINT_LIMIT:
        raise ValueError(f"group table guard exceeded for n={n}, q={q}")
    f = field(q)
    points, shifts, _ = _point_actions(f, n)
    perms: list[tuple[int, ...]] = []
    maps: list[AffineMap] = []
    for rows, image in _iter_linear_images(f, n):
        mat = GFMatrix(f, [points[r] for r in rows])
        for t, shift in zip(points, shifts):
            maps.append(AffineMap(mat, t))
            perms.append(tuple(shift[v] for v in image))
    if len(perms) != group:
        raise AssertionError("group enumeration produced the wrong order")
    index = {p: i for i, p in enumerate(perms)}
    if len(index) != group:
        raise AssertionError("duplicate group elements")
    return GroupElementTable(n=n, q=q, perms=perms, maps=maps, index=index)


def brute_centralizer(sigma: AffineMap) -> int:
    """|{g : g sigma = sigma g}| by scanning the whole group."""
    table = group_table(sigma.dim, sigma.field.q)
    target = table.index[tuple(point_permutation(sigma))]
    return sum(
        1
        for g in range(len(table))
        if table.compose(g, target) == table.compose(target, g)
    )


def brute_conjugacy_classes(n: int, q: int) -> int:
    """Number of conjugacy classes by orbit closure under conjugation."""
    table = group_table(n, q)
    size = len(table)
    seen = bytearray(size)
    classes = 0
    for g in range(size):
        if seen[g]:
            continue
        classes += 1
        for h in range(size):
            conj = table.compose(table.compose(table.inverse(h), g), h)
            seen[conj] = 1
    return classes


def conjugacy_class_indices(table: GroupElementTable, sigma: AffineMap) -> set[int]:
    """All element indices conjugate to sigma."""
    g = table.index[tuple(point_permutation(sigma))]
    return {
        table.compose(table.compose(table.inverse(h), g), h) for h in range(len(table))
    }


def burnside_full_theta(n: int, s: int, r: int) -> int:
    """Orbit count of R(r, n)/R(s-1, n) by summing the quotient fixed-point
    count of every single element of AGL(n, F_2)."""
    from .rm import RMQuotientBasis, fix_on_quotient

    group = agl_group_order(n, 2)
    if group > _BURNSIDE_GROUP_LIMIT:
        raise ValueError(f"burnside_full_theta guard exceeded for n={n}")
    basis = RMQuotientBasis(n, s - 1, r)
    f = field(2)
    points, _, _ = _point_actions(f, n)
    total = 0
    for rows, _ in _iter_linear_images(f, n):
        mat = GFMatrix(f, [points[r] for r in rows])
        for t in points:
            total += fix_on_quotient(AffineMap(mat, t), basis)
    count, rem = divmod(total, group)
    if rem:
        raise AssertionError("quotient Burnside sum not divisible by the group order")
    return count


def orbit_enumeration_code(n: int, r: int) -> int:
    """Number of AGL(n, F_2) orbits of R(r, n) by explicit closure of its
    truth tables, for the tiny cases where the whole code fits in memory.
    A codeword's table is a sum of tables of monomials of degree <= r, so
    no polynomial is ever substituted."""
    monomials = [m for m in range(1 << n) if m.bit_count() <= r]
    if 2 ** len(monomials) > 70000:
        raise ValueError(f"code too large for n={n}, r={r}")
    points, _, _ = _point_actions(field(2), n)
    words = [(0,) * len(points)]
    for m in monomials:
        table = [int(all(x[i] for i in range(n) if m >> i & 1)) for x in points]
        words += [tuple(a ^ b for a, b in zip(word, table)) for word in words]
    perms = [point_permutation(g) for g in generators(n, 2)]
    return _count_orbits(words, perms)
