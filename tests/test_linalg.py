import itertools
import random

import pytest

from aglcount.fields import field, poly_divmod
from aglcount.linalg import (
    AffineMap,
    GFMatrix,
    affine_order,
    block_diagonal,
    companion_matrix,
    cyclic_orbit_count,
    eliminate,
    fixed_point_count,
    gf2_rank,
    jordan_block,
    rank,
)

f2 = field(2)
f3 = field(3)


def rand_matrix(rng, f, rows, cols):
    return GFMatrix(f, [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng, f, n):
    while True:
        m = rand_matrix(rng, f, n, n)
        if m.is_invertible():
            return m


def transpose(m):
    return GFMatrix(m.field, list(zip(*m.entries)) if m.entries else [])


def leibniz_det(m):
    """Determinant as the signed sum over permutations (test reference)."""
    f = m.field
    total = 0
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, m.entries[i][j])
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


def det(m):
    return eliminate(m.field, [list(r) for r in m.entries])[1]


def test_rank_examples():
    assert rank(GFMatrix.identity(f2, 4)) == 4
    j2_minus_i = jordan_block(f2, 2).sub_matrix(GFMatrix.identity(f2, 2))
    assert rank(j2_minus_i) == 1
    comp = companion_matrix(f2, (1, 1, 1))  # x^2 + x + 1
    assert rank(comp.sub_matrix(GFMatrix.identity(f2, 2))) == 2


def test_rank_of_transpose_and_shuffle_invariance():
    rng = random.Random(5)
    for f in (f2, f3):
        for _ in range(20):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = rand_matrix(rng, f, rows, cols)
            r = rank(m)
            assert r == rank(transpose(m)) <= min(rows, cols)
            shuffled = list(m.entries)
            rng.shuffle(shuffled)
            assert rank(GFMatrix(f, shuffled)) == r


def largest_nonzero_minor(m):
    """Rank as the size of the largest nonsingular square submatrix, each
    minor by Leibniz expansion (test reference)."""
    for r in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), r):
            for cols in itertools.combinations(range(m.cols), r):
                sub = GFMatrix(m.field, [[m.entries[i][j] for j in cols] for i in rows])
                if leibniz_det(sub):
                    return r
    return 0


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_det_matches_leibniz_expansion(q):
    rng = random.Random(40 + q)
    f = field(q)
    singular = 0
    for n in range(5):
        for _ in range(12):
            m = rand_matrix(rng, f, n, n)
            if n >= 2 and rng.random() < 0.4:
                # last row := c * row 0 + row 1, so m is singular
                c = rng.randrange(q)
                last = [f.add(f.mul(c, a), b) for a, b in zip(m.entries[0], m.entries[1])]
                m = GFMatrix(f, m.entries[:-1] + (tuple(last),))
            d = det(m)
            assert d == leibniz_det(m), m
            assert m.is_invertible() == (d != 0), m
            singular += d == 0
    assert singular >= 10


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_rank_matches_minors_and_transpose(q):
    rng = random.Random(50 + q)
    f = field(q)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            k = rng.randint(1, min(rows, cols))
            m = rand_matrix(rng, f, rows, k) @ rand_matrix(rng, f, k, cols)
        else:
            m = rand_matrix(rng, f, rows, cols)
        r = rank(m)
        assert r == rank(transpose(m)) == largest_nonzero_minor(m), m


def test_eliminate_on_non_square_rows():
    assert eliminate(f3, [[1, 0, 2], [0, 2, 1]]) == (2, 0)
    assert eliminate(f3, [[1, 2], [2, 1], [0, 1]]) == (2, 0)
    assert eliminate(f3, []) == (0, 1)


def test_sub_matrix_rejects_mismatch():
    a = GFMatrix.identity(f3, 2)
    assert jordan_block(f3, 2).sub_matrix(a) == GFMatrix(f3, [[0, 1], [0, 0]])
    assert GFMatrix(f3, [[0, 1]]).sub_matrix(GFMatrix(f3, [[1, 2]])) == GFMatrix(f3, [[2, 2]])
    for other in (
        GFMatrix.identity(f3, 3),
        GFMatrix(f3, [[1, 0, 0], [0, 1, 0]]),
        GFMatrix(f3, [[1, 0]]),
        GFMatrix.identity(f2, 2),
    ):
        with pytest.raises(ValueError):
            a.sub_matrix(other)


def naive_gf2_rank(bits):
    rows = [list(r) for r in bits]
    cols = len(rows[0]) if rows else 0
    rk = 0
    for col in range(cols):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def test_gf2_rank_matches_naive_elimination():
    rng = random.Random(6)
    for _ in range(30):
        rows, cols = rng.randint(1, 12), rng.randint(1, 90)
        bits = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        want = naive_gf2_rank(bits)
        assert gf2_rank([sum(b << j for j, b in enumerate(row)) for row in bits]) == want
        m = GFMatrix(f2, bits)  # rows packed into ints at every width
        assert rank(m) == want
        assert rank(m) == rank(transpose(m))


def test_companion_matrix_shapes():
    assert companion_matrix(f2, (1, 1)).entries == ((1,),)  # x + 1 over F2
    c = companion_matrix(f2, (1, 1, 0, 1))  # x^3 + x + 1
    assert c.entries == ((0, 1, 0), (0, 0, 1), (1, 1, 0))
    with pytest.raises(ValueError):
        companion_matrix(f3, (1, 2))  # not monic


def test_companion_of_square_is_conjugate_to_jordan():
    # (x - 1)^2 = x^2 + 1 over F2; its companion must be similar to the
    # unipotent bidiagonal block: brute-force the conjugator in GL(2, F2)
    comp = companion_matrix(f2, (1, 0, 1))
    j2 = jordan_block(f2, 2)
    rng = random.Random(0)
    found = False
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    g = GFMatrix(f2, [[a, b], [c, d]])
                    if not g.is_invertible():
                        continue
                    lhs = g @ comp
                    rhs = j2 @ g
                    if lhs == rhs:
                        found = True
    assert found


def zero_matrix(f, rows, cols):
    return GFMatrix(f, [[0] * cols for _ in range(rows)])


def poly_eval_at_matrix(f, poly, m):
    acc = [[0] * m.cols for _ in range(m.rows)]
    power = GFMatrix.identity(f, m.rows)
    for coeff in poly:
        if coeff:
            for acc_row, row in zip(acc, power.entries):
                for j, x in enumerate(row):
                    acc_row[j] = f.add(acc_row[j], f.mul(coeff, x))
        power = power @ m
    return GFMatrix(f, acc)


def poly_factor_candidates(f, poly):
    """All monic proper divisors, by trial division (test helper)."""
    import itertools as it

    deg = len(poly) - 1
    out = []
    for d in range(1, deg):
        for tail in it.product(f.elements(), repeat=d):
            g = tuple(tail) + (1,)
            _, rem = poly_divmod(f, poly, g)
            if not rem:
                out.append(g)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_companion_minimal_polynomial(q):
    rng = random.Random(q)
    f = field(q)
    for trial in range(14):
        deg = rng.randint(1, 8)
        poly = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
        m = companion_matrix(f, poly)
        assert poly_eval_at_matrix(f, poly, m) == zero_matrix(f, m.rows, m.cols)
        for g in poly_factor_candidates(f, poly):
            assert poly_eval_at_matrix(f, g, m) != zero_matrix(f, m.rows, m.cols)


def test_jordan_block_orders():
    assert jordan_block(f2, 1) == GFMatrix.identity(f2, 1)
    assert affine_order(AffineMap.linear(jordan_block(f2, 2))) == 2
    assert affine_order(AffineMap.linear(jordan_block(f2, 3))) == 4
    assert affine_order(AffineMap.linear(jordan_block(f3, 3))) == 3
    with pytest.raises(ValueError):
        jordan_block(f2, 0)


def boxplus(a: AffineMap, b: AffineMap) -> AffineMap:
    # direct sum of two affine maps: block-diagonal matrix, joined translations
    return AffineMap(block_diagonal([a.matrix, b.matrix]), a.translation + b.translation)


def test_boxplus():
    id1 = AffineMap.identity(f2, 1)
    assert boxplus(id1, id1) == AffineMap.identity(f2, 2)
    trans = AffineMap(jordan_block(f2, 1), (1,))
    combo = boxplus(trans, id1)
    assert combo.matrix == GFMatrix.identity(f2, 2)
    assert combo.translation == (1, 0)
    with pytest.raises(ValueError):
        boxplus(id1, AffineMap.identity(f3, 1))


def test_block_diagonal_layout():
    blocks = [jordan_block(f3, 2), GFMatrix(f3, [[2]]), companion_matrix(f3, (1, 0, 1))]
    assert block_diagonal(blocks).entries == (
        (1, 1, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 2, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 2, 0),
    )
    with pytest.raises(ValueError):
        block_diagonal([])


def test_boxplus_order_is_lcm():
    import math

    rng = random.Random(3)
    for f in (f2, f3):
        for _ in range(10):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            a = AffineMap(rand_invertible(rng, f, n1), tuple(rng.randrange(f.q) for _ in range(n1)))
            b = AffineMap(rand_invertible(rng, f, n2), tuple(rng.randrange(f.q) for _ in range(n2)))
            assert affine_order(boxplus(a, b)) == math.lcm(affine_order(a), affine_order(b))


def test_affine_order_examples():
    assert affine_order(AffineMap.identity(f2, 3)) == 1
    assert affine_order(AffineMap(GFMatrix.identity(f2, 2), (1, 0))) == 2
    # order 2**(1 + floor(log2 3)) = 4: sigma^2 = x J^2 + eps N != id, sigma^4 = id
    j3_translated = AffineMap(jordan_block(f2, 3), (1, 0, 0))
    assert affine_order(j3_translated) == 4


def test_fixed_point_count_examples():
    assert fixed_point_count(AffineMap.identity(f3, 2)) == 9
    assert fixed_point_count(AffineMap(GFMatrix.identity(f2, 2), (1, 1))) == 0
    comp = AffineMap.linear(companion_matrix(f2, (1, 1, 1)))
    assert fixed_point_count(comp) == 1  # only the origin


def test_cyclic_orbit_count_examples():
    assert cyclic_orbit_count(AffineMap.identity(f2, 2)) == 4
    assert cyclic_orbit_count(AffineMap(GFMatrix.identity(f2, 1), (1,))) == 1
    four_cycle = AffineMap(jordan_block(f2, 2), (1, 0))
    assert cyclic_orbit_count(four_cycle) == 1


def test_composition_is_block_matrix_product():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = AffineMap(rand_invertible(rng, f2, n), tuple(rng.randrange(2) for _ in range(n)))
        b = AffineMap(rand_invertible(rng, f2, n), tuple(rng.randrange(2) for _ in range(n)))
        combo = a.then(b)
        for point_code in range(2**n):
            point = tuple((point_code >> i) & 1 for i in range(n))
            assert combo.apply(point) == b.apply(a.apply(point))


def test_affine_map_requires_invertible_matrix():
    with pytest.raises(ValueError):
        AffineMap(GFMatrix(f2, [[1, 1], [1, 1]]), (0, 0))


def test_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        GFMatrix(f3, [[0, 3]])
    with pytest.raises(ValueError):
        GFMatrix(f3, [[1, -1]])
    with pytest.raises(ValueError):
        GFMatrix(f3, [[1], [2, 0]])
    assert GFMatrix(f3, [[], []]).cols == 0
