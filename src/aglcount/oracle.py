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
from typing import Iterator

from .fields import FieldTable, field
from .linalg import AffineMap, GFMatrix, cycles, point_permutation
from .numtheory import agl_group_order, power_exceeds, prime_power

__all__ = ["burnside_full", "generators", "orbit_enumeration"]

_BURNSIDE_GROUP_LIMIT = 10**7
_BURNSIDE_POINT_LIMIT = 1 << 16


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
    prime_power(q)
    # the point space bounds n first, so the group order is built small
    if power_exceeds(q, n, _BURNSIDE_POINT_LIMIT) or agl_group_order(n, q) > _BURNSIDE_GROUP_LIMIT:
        raise ValueError(f"burnside_full guard exceeded for n={n}, q={q}")
    group = agl_group_order(n, q)
    f = field(q)
    _, shifts, _ = _point_actions(f, n)
    total = 0
    for _, image in _iter_linear_images(f, n):
        for shift in shifts:
            total += q ** len(cycles([shift[v] for v in image]))
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
    # q**(q**n) > 70000 once q**n > 16, so n is checked before q**n is built
    if power_exceeds(q, n, 16) or power_exceeds(q, q**n, 70000):
        raise ValueError(f"function space too large for n={n}, q={q}")
    perms = [point_permutation(g) for g in generators(n, q)]
    return _count_orbits(itertools.product(range(q), repeat=q**n), perms)
