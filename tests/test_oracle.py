import math

import pytest

from aglcount.fields import field
from aglcount.linalg import AffineMap, GFMatrix, point_permutation
from aglcount.numtheory import agl_group_order
from aglcount.oracle import _iter_linear_images, _point_actions, burnside_full, generators, orbit_enumeration
from aglcount.rm import theta
from brute import (
    brute_centralizer,
    brute_conjugacy_classes,
    burnside_full_theta,
    group_perms,
    orbit_enumeration_code,
)
from test_linalg import identity_map, point_code


def test_burnside_full_examples():
    assert burnside_full(1, 2) == 3  # (4 + 2) / 2
    assert burnside_full(2, 2) == 5
    assert burnside_full(1, 3) == 10  # (27+3+3+9+9+9)/6


def test_burnside_full_guard():
    with pytest.raises(ValueError):
        burnside_full(5, 2)  # group order 319979520 > 1e7


def test_orbit_enumeration_examples():
    assert orbit_enumeration(1, 2) == 3
    assert orbit_enumeration(2, 2) == 5
    assert orbit_enumeration(2, 3) == burnside_full(2, 3)
    with pytest.raises(ValueError):
        orbit_enumeration(3, 3)


def test_cross_oracle_agreement():
    for n, q in [(1, 2), (2, 2), (3, 2), (1, 3), (1, 4), (1, 5)]:
        assert burnside_full(n, q) == orbit_enumeration(n, q), (n, q)


def test_oracles_match_formula_on_wider_fields():
    from aglcount.formulas import count_function_classes

    for q in (7, 8, 9):
        value = count_function_classes(1, q)
        assert value == burnside_full(1, q), q


def test_generators_generate_whole_group():
    for n, q in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
        perms = {tuple(point_permutation(g)) for g in generators(n, q)}
        frontier = set(perms)
        seen = set(perms)
        ident = tuple(range(q**n))
        seen.add(ident)
        while frontier:
            nxt = set()
            for a in frontier:
                for b in perms:
                    c = tuple(b[x] for x in a)
                    if c not in seen:
                        seen.add(c)
                        nxt.add(c)
            frontier = nxt
        assert len(seen) == agl_group_order(n, q), (n, q)


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_point_actions_are_indexed_by_code(q, n):
    f = field(q)
    points, shifts, scales = _point_actions(f, n)
    assert [point_code(t, q) for t in points] == list(range(q**n))
    for t, shift in zip(points, shifts):
        assert shift == point_permutation(AffineMap(GFMatrix.identity(f, n), t))
    assert len(scales) == q - 1
    for x, scale in enumerate(scales, start=1):
        diagonal = [[x if i == j else 0 for j in range(n)] for i in range(n)]
        assert scale == point_permutation(AffineMap.linear(GFMatrix(f, diagonal)))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2)])
def test_linear_images_cover_gl_once(q, n):
    f = field(q)
    points, _, _ = _point_actions(f, n)
    mats = []
    for rows, image in _iter_linear_images(f, n):
        mats.append(GFMatrix(f, [points[r] for r in rows]))
        assert image == point_permutation(AffineMap.linear(mats[-1])), mats[-1]
    assert len(mats) == len(set(mats)) == math.prod(q**n - q**i for i in range(n))


def group_maps(n, q):
    """The elements of `group_perms(n, q)` as affine maps, in its order."""
    f = field(q)
    points, _, _ = _point_actions(f, n)
    return [
        AffineMap(GFMatrix(f, [points[c] for c in rows]), t)
        for rows, _ in _iter_linear_images(f, n)
        for t in points
    ]


def test_group_table_perms_are_point_permutations():
    for n, q in [(2, 2), (1, 3), (2, 3)]:
        perms = group_perms(n, q)
        maps = group_maps(n, q)
        assert len(set(maps)) == len(perms) == agl_group_order(n, q)
        for sigma, perm in zip(maps, perms):
            assert perm == tuple(point_permutation(sigma)), sigma


def test_group_table_structure():
    # AGL(2, F_2): the identity, every inverse and every product are members
    perms = group_perms(2, 2)
    group = set(perms)
    assert len(perms) == 24
    assert tuple(range(2**2)) in group
    for p in perms:
        assert tuple(sorted(range(len(p)), key=p.__getitem__)) in group
        assert all(tuple(p[x] for x in g) in group for g in perms)
    with pytest.raises(ValueError):
        group_perms(4, 2)  # 322560 elements is beyond table scale


def test_brute_centralizer_examples():
    f2 = field(2)
    ident = identity_map(f2, 2)
    assert brute_centralizer(ident) == 24
    translation = AffineMap(GFMatrix.identity(f2, 2), (1, 0))
    assert brute_centralizer(translation) == 8
    for sigma in group_maps(2, 2)[:8]:
        assert 24 % brute_centralizer(sigma) == 0


def test_brute_conjugacy_classes_examples():
    assert brute_conjugacy_classes(1, 2) == 2
    assert brute_conjugacy_classes(2, 2) == 5
    assert brute_conjugacy_classes(1, 3) == 3


def test_quotient_oracles_small():
    assert orbit_enumeration_code(2, 0) == 2  # two constants
    assert orbit_enumeration_code(3, 1) == 3  # zero, one, the non-constant affines
    assert burnside_full_theta(2, 0, 0) == 2
    assert burnside_full_theta(3, 0, 1) == 3


def test_code_orbits_match_quotient_counts():
    # R(r, n) is the quotient R(r, n)/R(-1, n): the truth-table closure
    # against the class-based count, at every (n, r) the guard admits for n <= 4
    for n in range(1, 5):
        for r in range(n + 1):
            assert orbit_enumeration_code(n, r) == theta(n, 0, r), (n, r)
    with pytest.raises(ValueError, match="code too large"):
        orbit_enumeration_code(5, 3)
