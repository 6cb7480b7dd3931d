"""Brute-force group references for the tests, at tiny sizes: every element
of AGL(n, F_q) as a tuple of point codes, centralizers and conjugacy
classes by scanning those tuples, the two quotient-code oracles, and the
full expansion of a class index into one representative per folded class.

This is a helper, not a test module: pytest does not rewrite its asserts
and `python -O` strips them, so every check here raises explicitly.
"""

import itertools
from functools import lru_cache

from aglcount.fields import field
from aglcount.linalg import pack, point_permutation
from aglcount.numtheory import agl_group_order
from aglcount.oracle import _count_orbits, _iter_linear_images, _point_actions, generators
from aglcount.reps import _assemble, _distinct_assignments, _shape
from aglcount.rm import RMQuotientBasis, fix_on_quotient

_GROUP_LIMIT = 20000
_POINT_LIMIT = 512


@lru_cache(maxsize=None)
def group_perms(n, q):
    """Every element x |-> x A + t of AGL(n, F_q) as a point permutation:
    the linear image of A followed by the shift by t."""
    group = agl_group_order(n, q)
    if group > _GROUP_LIMIT or q**n > _POINT_LIMIT:
        raise ValueError(f"group table guard exceeded for n={n}, q={q}")
    f = field(q)
    _, shifts, _ = _point_actions(f, n)
    perms = tuple(
        tuple(shift[v] for v in image) for _, image in _iter_linear_images(f, n) for shift in shifts
    )
    if len(perms) != group:
        raise AssertionError("group enumeration produced the wrong order")
    if len(set(perms)) != group:
        raise AssertionError("duplicate group elements")
    return perms


def _conjugates(g, group):
    """{h g h^-1 : h in group}, each as the permutation h[x] |-> h[g[x]]."""
    out = set()
    for h in group:
        c = [0] * len(g)
        for x, y in enumerate(g):
            c[h[x]] = h[y]
        out.add(tuple(c))
    return out


def conjugacy_class(sigma):
    """Every element conjugate to sigma, as point permutations."""
    return _conjugates(tuple(point_permutation(sigma)), group_perms(sigma.dim, sigma.field.q))


def brute_centralizer(sigma):
    """|{h : h sigma = sigma h}| by scanning the whole group."""
    g = point_permutation(sigma)
    group = group_perms(sigma.dim, sigma.field.q)
    return sum(1 for h in group if all(h[y] == g[hx] for y, hx in zip(g, h)))


def brute_conjugacy_classes(n, q):
    """Number of conjugacy classes by orbit closure under conjugation."""
    group = group_perms(n, q)
    seen = set()
    classes = 0
    for g in group:
        if g not in seen:
            classes += 1
            seen |= _conjugates(g, group)
    return classes


def burnside_full_theta(n, s, r):
    """Orbit count of R(r, n)/R(s-1, n) by summing the quotient fixed-point
    count of every single element of AGL(n, F_2)."""
    group = agl_group_order(n, 2)
    basis = RMQuotientBasis(n, s - 1, r)
    f = field(2)
    points, _, _ = _point_actions(f, n)
    total = 0
    for rows, _ in _iter_linear_images(f, n):
        entries = [points[c] for c in rows]
        total += sum(fix_on_quotient(pack(entries, t), basis) for t in points)
    count, rem = divmod(total, group)
    if rem:
        raise AssertionError("quotient Burnside sum not divisible by the group order")
    return count


def orbit_enumeration_code(n, r):
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


def full_expansion(idx):
    """(representative, 1) for every distinct slot assignment of the index:
    one map per class folded into it, with no orbit grouping."""
    idx.validate()
    for assignment in itertools.product(*(_distinct_assignments(_shape(t)) for t in idx.spectra)):
        yield _assemble(idx, assignment), 1
