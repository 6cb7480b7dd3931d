"""Independent brute-force ground truth at tiny sizes.

Everything here works element by element (or by explicit orbit closure)
with no reference to the per-class formulas, so agreement with the
class-based counts is a meaningful test rather than a tautology.
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


def _iter_invertible_rows(f: FieldTable, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All invertible n x n matrices, one row at a time, rejection-free:
    each new row must avoid the span of the previous rows."""
    q = f.q
    vectors = list(itertools.product(range(q), repeat=n))

    def vec_add_scaled(u, v, c):
        return tuple(f.add(a, f.mul(c, b)) for a, b in zip(u, v))

    def rec(rows, span):
        if len(rows) == n:
            yield tuple(rows)
            return
        for v in vectors:
            if v in span:
                continue
            new_span = set(span)
            for s in span:
                for c in range(1, q):
                    new_span.add(vec_add_scaled(s, v, c))
            rows.append(v)
            yield from rec(rows, new_span)
            rows.pop()

    zero = (0,) * n
    yield from rec([], {zero})


def burnside_full(n: int, q: int) -> int:
    """Orbit count of the full function space by summing q**(cycle count of
    every single group element) and dividing exactly by |AGL(n, F_q)|."""
    group = agl_group_order(n, q)
    points = q**n
    if group > _BURNSIDE_GROUP_LIMIT or points > _BURNSIDE_POINT_LIMIT:
        raise ValueError(f"burnside_full guard exceeded for n={n}, q={q}")
    if q == 2:
        total = _burnside_full_gf2(n)
    else:
        total = _burnside_full_generic(n, q)
    count, rem = divmod(total, group)
    if rem:
        raise AssertionError("full Burnside sum not divisible by the group order")
    return count


def _burnside_full_gf2(n: int) -> int:
    points = 1 << n
    total = 0
    for rows in _iter_invertible_rows(field(2), n):
        row_bits = [sum(b << j for j, b in enumerate(r)) for r in rows]
        # image of every point under the linear part, by subset XOR
        img = [0] * points
        for x in range(1, points):
            low = x & -x
            img[x] = img[x ^ low] ^ row_bits[low.bit_length() - 1]
        for a in range(points):
            perm = [v ^ a for v in img]
            total += 1 << len(cycle_lengths(perm))
    return total


def _burnside_full_generic(n: int, q: int) -> int:
    f = field(q)
    points = list(itertools.product(range(q), repeat=n))
    code = {p: i for i, p in enumerate(points)}
    # composing with a translation is itself a permutation of point codes
    shift = [
        [code[tuple(f.add(x, a) for x, a in zip(p, t))] for p in points] for t in points
    ]
    total = 0
    for rows in _iter_invertible_rows(f, n):
        img = []
        for p in points:
            out = [0] * n
            for i, x in enumerate(p):
                if x:
                    for j, a in enumerate(rows[i]):
                        if a:
                            out[j] = f.add(out[j], f.mul(x, a))
            img.append(code[tuple(out)])
        for t_index in range(len(points)):
            sh = shift[t_index]
            perm = [sh[v] for v in img]
            total += q ** len(cycle_lengths(perm))
    return total


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


def orbit_enumeration(n: int, q: int) -> int:
    """Number of orbits of the full function space, by explicit closure of
    every function under a generating set of the group."""
    points = q**n
    if q**points > 70000:
        raise ValueError(f"function space too large for n={n}, q={q}")
    perms = [point_permutation(g) for g in generators(n, q)]
    universe = list(itertools.product(range(q), repeat=points))
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
    translations = list(itertools.product(range(q), repeat=n))
    perms: list[tuple[int, ...]] = []
    maps: list[AffineMap] = []
    for rows in _iter_invertible_rows(f, n):
        mat = GFMatrix(f, rows)
        for t in translations:
            m = AffineMap(mat, t)
            maps.append(m)
            perms.append(tuple(point_permutation(m)))
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
    translations = list(itertools.product(range(2), repeat=n))
    total = 0
    for rows in _iter_invertible_rows(f, n):
        mat = GFMatrix(f, rows)
        for t in translations:
            total += fix_on_quotient(AffineMap(mat, t), basis)
    count, rem = divmod(total, group)
    if rem:
        raise AssertionError("quotient Burnside sum not divisible by the group order")
    return count


def orbit_enumeration_code(n: int, r: int) -> int:
    """Number of AGL(n, F_2) orbits of R(r, n) by explicit closure, for the
    tiny cases where the whole code fits in memory."""
    from .rm import AnfPoly, anf_substitute

    monomials = [
        m for m in range(1 << n) if bin(m).count("1") <= r
    ]
    if 2 ** len(monomials) > 70000:
        raise ValueError(f"code too large for n={n}, r={r}")
    gens = generators(n, 2)
    seen: set[frozenset[int]] = set()
    orbits = 0
    for bits in itertools.product((0, 1), repeat=len(monomials)):
        start = frozenset(m for m, b in zip(monomials, bits) if b)
        if start in seen:
            continue
        orbits += 1
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            poly = AnfPoly(n, cur)
            for g in gens:
                nxt = anf_substitute(poly, g).monomials
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return orbits
