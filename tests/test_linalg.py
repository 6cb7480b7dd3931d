import itertools
import math
import pickle
import random

import pytest

from aglcount.fields import field, poly_divmod
from aglcount.linalg import (
    AffineMap,
    GFMatrix,
    block_diagonal,
    companion_matrix,
    cycles,
    extend,
    gf2_extend,
    gf2_rank,
    jordan_block,
    pack,
    point_permutation,
    rank,
)
from aglcount.numtheory import agl_group_order

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


# Test-local matrix and affine-map tools: the package itself reads every
# matrix-side class number from one point permutation, so these slower,
# independent walks are kept here as references.


def matmul(a, b):
    """Matrix product over F_q, entry by entry."""
    f = a.field
    assert f.q == b.field.q and a.cols == b.rows
    out = [[0] * b.cols for _ in range(a.rows)]
    for i, row in enumerate(a.entries):
        for j in range(b.cols):
            for k, x in enumerate(row):
                out[i][j] = f.add(out[i][j], f.mul(x, b.entries[k][j]))
    return GFMatrix(f, out)


def sub_matrix(a, b):
    """Entrywise difference a - b over F_q."""
    f = a.field
    assert f.q == b.field.q and (a.rows, a.cols) == (b.rows, b.cols)
    return GFMatrix(f, [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)])


def apply(sigma, point):
    """x A + a at one point, entry by entry."""
    f = sigma.field
    out = list(sigma.translation)
    for x, row in zip(point, sigma.matrix.entries):
        for j, a in enumerate(row):
            out[j] = f.add(out[j], f.mul(x, a))
    return tuple(out)


def point_code(point, q):
    """x_0 + x_1 q + ... + x_{n-1} q**(n-1)."""
    return sum(x * q**i for i, x in enumerate(point))


def identity_map(f, n):
    return AffineMap(GFMatrix.identity(f, n), (0,) * n)


def packed(sigma):
    """The packed form of a binary AffineMap."""
    return pack(sigma.matrix.entries, sigma.translation)


def then(s, t):
    """Apply s first, then t: the block-matrix product of the usual
    (n+1)-dim embeddings."""
    return AffineMap(matmul(s.matrix, t.matrix), apply(t, s.translation))


def affine_powers(sigma):
    """[sigma, sigma**2, ..., identity], by repeated composition."""
    ident = identity_map(sigma.field, sigma.dim)
    bound = agl_group_order(sigma.dim, sigma.field.q)
    powers = [sigma]
    while powers[-1] != ident:
        powers.append(then(powers[-1], sigma))
        assert len(powers) <= bound, "order exceeded the group order"
    return powers


def affine_order(sigma):
    return len(affine_powers(sigma))


def fixed_point_count(sigma):
    """Points with x A + a = x: q**nullity(A - I) if x (A - I) = -a is
    consistent, else 0, by two F_q ranks."""
    f, n = sigma.field, sigma.dim
    a_minus_i = sub_matrix(sigma.matrix, GFMatrix.identity(f, n))
    rhs = tuple(f.neg(x) for x in sigma.translation)
    base_rank = rank(a_minus_i)
    if rank(GFMatrix(f, a_minus_i.entries + (rhs,))) != base_rank:
        return 0
    return f.q ** (n - base_rank)


def cyclic_orbit_count(sigma):
    """Orbits of the cyclic group of sigma on F_q**n, by following each
    unseen point under apply."""
    seen = set()
    orbits = 0
    for point in itertools.product(range(sigma.field.q), repeat=sigma.dim):
        if point in seen:
            continue
        orbits += 1
        while point not in seen:
            seen.add(point)
            point = apply(sigma, point)
    return orbits


def test_rank_examples():
    assert rank(GFMatrix.identity(f2, 4)) == 4
    j2_minus_i = sub_matrix(jordan_block(f2, 2), GFMatrix.identity(f2, 2))
    assert rank(j2_minus_i) == 1
    comp = companion_matrix(f2, (1, 1, 1))  # x^2 + x + 1
    assert rank(sub_matrix(comp, GFMatrix.identity(f2, 2))) == 2


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
            d = leibniz_det(m)
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
            m = matmul(rand_matrix(rng, f, rows, k), rand_matrix(rng, f, k, cols))
        else:
            m = rand_matrix(rng, f, rows, cols)
        r = rank(m)
        assert r == rank(transpose(m)) == largest_nonzero_minor(m), m


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


def test_gf2_extend_ranks_every_prefix():
    # rows fed a group at a time onto one pivot set: each call adds the rank
    # its group adds, so the running total is the rank of every prefix
    rng = random.Random(7)
    for _ in range(40):
        width = rng.randint(1, 40)
        rows = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(0, 30))]
        cuts = sorted(rng.sample(range(len(rows) + 1), min(4, len(rows) + 1)))
        pivots, total, start = {}, 0, 0
        for cut in cuts + [len(rows)]:
            total += gf2_extend(pivots, iter(rows[start:cut]))
            start = cut
            assert total == len(pivots) == gf2_rank(rows[:cut]), (rows, cut)
        assert all(lead == row.bit_length() - 1 for lead, row in pivots.items())


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_extend_ranks_every_prefix(q):
    # as for gf2_extend: rows fed a group at a time onto one pivot set add
    # the rank of every prefix, here against the minors
    rng = random.Random(70 + q)
    f = field(q)
    for _ in range(15):
        count, cols = rng.randint(0, 6), rng.randint(1, 4)
        if count and rng.random() < 0.5:
            k = rng.randint(1, min(count, cols))
            m = matmul(rand_matrix(rng, f, count, k), rand_matrix(rng, f, k, cols))
        else:
            m = rand_matrix(rng, f, count, cols)
        rows = m.entries
        cuts = sorted(rng.sample(range(count + 1), min(3, count + 1)))
        pivots, total, start = {}, 0, 0
        for cut in cuts + [count]:
            total += extend(f, pivots, iter(rows[start:cut]))
            start = cut
            assert total == len(pivots) == largest_nonzero_minor(GFMatrix(f, rows[:cut])), (rows, cut)
        # each pivot is scaled to 1 at its leading column
        assert all(row[lead] == 1 and not any(row[:lead]) for lead, row in pivots.items())


def test_pivots_leading_in_a_top_segment_give_its_rank():
    # lemma (b) of rm.fix_on_quotient: after one top-bit elimination, the
    # rank of the rows cut to their top columns is the number of pivots that
    # lead inside those columns, for every cut at once
    rng = random.Random(8)
    for _ in range(60):
        width = rng.randint(1, 60)
        rows = [rng.getrandbits(width) >> rng.randrange(width) for _ in range(rng.randint(0, 40))]
        rows += [rows[i] ^ rows[j] for i, j in zip(range(0, len(rows), 3), range(1, len(rows), 4))]
        pivots = {}
        gf2_extend(pivots, rows)
        for boundary in range(width + 1):
            want = gf2_rank([row >> boundary for row in rows])
            assert sum(lead >= boundary for lead in pivots) == want, (rows, boundary)


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
                    lhs = matmul(g, comp)
                    rhs = matmul(j2, g)
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
        power = matmul(power, m)
    return GFMatrix(f, acc)


def poly_factor_candidates(f, poly):
    """All monic proper divisors, by trial division (test helper)."""
    import itertools as it

    deg = len(poly) - 1
    out = []
    for d in range(1, deg):
        for tail in it.product(range(f.q), repeat=d):
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
    id1 = identity_map(f2, 1)
    assert boxplus(id1, id1) == identity_map(f2, 2)
    trans = AffineMap(jordan_block(f2, 1), (1,))
    combo = boxplus(trans, id1)
    assert combo.matrix == GFMatrix.identity(f2, 2)
    assert combo.translation == (1, 0)
    with pytest.raises(ValueError):
        boxplus(id1, identity_map(f3, 1))


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
    # invertible exactly when every block is
    rng = random.Random(23)
    for f in (f2, f3):
        for _ in range(40):
            blocks = [rand_matrix(rng, f, size, size) for size in rng.choices(range(1, 5), k=rng.randint(1, 4))]
            assert block_diagonal(blocks).is_invertible() == all(b.is_invertible() for b in blocks), blocks


def test_pack_reads_columns_and_translation_bits():
    # bit j of column i is A[j][i]: x A has coordinate i = x . column i
    shear = pack([[1, 1, 0], [0, 1, 0], [0, 1, 1]], (0, 1, 1))
    assert shear.columns == (0b001, 0b111, 0b100) and shear.translation == 0b110
    assert pack(((0, 1), (1, 1))) == ((0b10, 0b11), 0)
    assert pack(()) == ((), 0)
    rng = random.Random(24)
    for n in range(1, 7):
        for _ in range(10):
            a = rand_matrix(rng, f2, n, n)
            t = tuple(rng.randrange(2) for _ in range(n))
            sigma = pack(a.entries, t)
            for code in range(1 << n):
                x = tuple(code >> j & 1 for j in range(n))
                image = [(sum(x[j] * a.entries[j][i] for j in range(n)) + t[i]) & 1 for i in range(n)]
                want = [((code & c).bit_count() + (sigma.translation >> i)) & 1 for i, c in enumerate(sigma.columns)]
                assert image == want, (a, t, x)


def test_boxplus_order_is_lcm():
    rng = random.Random(3)
    for f in (f2, f3):
        for _ in range(10):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            a = AffineMap(rand_invertible(rng, f, n1), tuple(rng.randrange(f.q) for _ in range(n1)))
            b = AffineMap(rand_invertible(rng, f, n2), tuple(rng.randrange(f.q) for _ in range(n2)))
            assert affine_order(boxplus(a, b)) == math.lcm(affine_order(a), affine_order(b))


def test_affine_order_examples():
    assert affine_order(identity_map(f2, 3)) == 1
    assert affine_order(AffineMap(GFMatrix.identity(f2, 2), (1, 0))) == 2
    # order 2**(1 + floor(log2 3)) = 4: sigma^2 = x J^2 + eps N != id, sigma^4 = id
    j3_translated = AffineMap(jordan_block(f2, 3), (1, 0, 0))
    assert affine_order(j3_translated) == 4


def test_fixed_point_count_examples():
    assert fixed_point_count(identity_map(f3, 2)) == 9
    assert fixed_point_count(AffineMap(GFMatrix.identity(f2, 2), (1, 1))) == 0
    comp = AffineMap.linear(companion_matrix(f2, (1, 1, 1)))
    assert fixed_point_count(comp) == 1  # only the origin


def test_cyclic_orbit_count_examples():
    assert cyclic_orbit_count(identity_map(f2, 2)) == 4
    assert cyclic_orbit_count(AffineMap(GFMatrix.identity(f2, 1), (1,))) == 1
    four_cycle = AffineMap(jordan_block(f2, 2), (1, 0))
    assert cyclic_orbit_count(four_cycle) == 1


def test_cycle_lengths_match_brute_force():
    rng = random.Random(41)
    perms = [[], [0], list(range(7)), [1, 2, 3, 0], [1, 0, 3, 4, 2]]
    for _ in range(40):
        perm = list(range(rng.randint(0, 40)))
        rng.shuffle(perm)
        perms.append(perm)
    for perm in perms:
        size = len(perm)
        lengths = [len(cycle) for cycle in cycles(perm)]
        assert sum(lengths) == size
        assert all(length >= 1 for length in lengths)
        # one cycle per point that is the smallest on its cycle
        leaders = 0
        for start in range(size):
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            leaders += min(cycle) == start
        assert len(lengths) == leaders, perm
        # the least k with perm**k the identity, by composing one step at a time
        ident = list(range(size))
        power, k = list(perm), 1
        while power != ident:
            power = [perm[x] for x in power]
            k += 1
        assert math.lcm(*lengths) == k, perm
    assert [len(cycle) for cycle in cycles([1, 0, 3, 4, 2])] == [2, 3]


def test_cycles_walk_each_cycle_once():
    # each cycle starts at its smallest point and follows the permutation
    # around; together they cover every point once
    rng = random.Random(42)
    for _ in range(40):
        perm = list(range(rng.randint(0, 40)))
        rng.shuffle(perm)
        walked = list(cycles(perm))
        assert sorted(x for cycle in walked for x in cycle) == list(range(len(perm)))
        assert [cycle[0] for cycle in walked] == sorted(min(cycle) for cycle in walked)
        for cycle in walked:
            assert [perm[x] for x in cycle] == cycle[1:] + cycle[:1], perm
    # a table that is not a permutation is refused, not walked forever
    for table in ([1, 1], [0, 0], [1, 2, 1], [2, 0, 0], [0, 2, 3, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            cycles(table)


def test_orbit_sums_match_brute_per_orbit_sums():
    # the XOR of per-point values over each cycle the walker yields equals
    # the sum over the orbit found by brute closure of its smallest point
    rng = random.Random(43)
    for n in range(0, 7):
        for _ in range(5):
            sigma = AffineMap(rand_invertible(rng, f2, n), tuple(rng.randrange(2) for _ in range(n)))
            perm = point_permutation(packed(sigma))
            values = [rng.getrandbits(20) for _ in perm]
            got = {cycle[0]: 0 for cycle in cycles(perm)}
            for cycle in cycles(perm):
                for x in cycle:
                    got[cycle[0]] ^= values[x]
            want = {}
            for code in range(1 << n):
                point = tuple(code >> i & 1 for i in range(n))
                orbit = {point}
                while (point := apply(sigma, point)) not in orbit:
                    orbit.add(point)
                codes = [point_code(x, 2) for x in orbit]
                total = 0
                for c in codes:
                    total ^= values[c]
                want[min(codes)] = total
            assert got == want, sigma


def test_packed_point_permutation_matches_pointwise_apply():
    # any 0/1 matrix, singular or not, with any translation: the table is
    # the image code of every point
    rng = random.Random(44)
    for n in range(0, 7):
        for _ in range(6):
            entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            translation = tuple(rng.randrange(2) for _ in range(n))
            table = point_permutation(pack(entries, translation))
            assert len(table) == 1 << n
            for code, image in enumerate(table):
                point = [code >> j & 1 for j in range(n)]
                want = [(a + sum(x * row[i] for x, row in zip(point, entries))) & 1 for i, a in enumerate(translation)]
                assert image == point_code(want, 2), (entries, translation, code)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_point_permutation_matches_pointwise_apply(q):
    rng = random.Random(60 + q)
    f = field(q)
    for n in range(4):
        for _ in range(3):
            sigma = AffineMap(rand_invertible(rng, f, n), tuple(rng.randrange(q) for _ in range(n)))
            perm = point_permutation(sigma)
            assert sorted(perm) == list(range(q**n))
            for point in itertools.product(range(q), repeat=n):
                assert perm[point_code(point, q)] == point_code(apply(sigma, point), q), sigma


def test_composition_is_block_matrix_product():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = AffineMap(rand_invertible(rng, f2, n), tuple(rng.randrange(2) for _ in range(n)))
        b = AffineMap(rand_invertible(rng, f2, n), tuple(rng.randrange(2) for _ in range(n)))
        combo = then(a, b)
        for code in range(2**n):
            point = tuple((code >> i) & 1 for i in range(n))
            assert apply(combo, point) == apply(b, apply(a, point))


def test_affine_map_requires_invertible_matrix():
    with pytest.raises(ValueError):
        AffineMap(GFMatrix(f2, [[1, 1], [1, 1]]), (0, 0))


def test_affine_map_refuses_translation_entries_outside_the_field():
    # a translation entry outside 0 .. q - 1 is not a field element; its
    # point table would index past the table or hold negative codes
    for f, t in ((f2, (5, -1)), (f2, (0, 2)), (f3, (-1,)), (f3, (3,)), (f3, (1.5,))):
        ident = GFMatrix.identity(f, len(t))
        with pytest.raises(ValueError, match="field range"):
            AffineMap(ident, t)
        with pytest.raises(ValueError, match="field range"):
            AffineMap.linear(ident)._replace(translation=t)
        with pytest.raises(ValueError, match="field range"):
            pickle.loads(pickle.dumps(tuple.__new__(AffineMap, (ident, t))))
    assert point_permutation(AffineMap(GFMatrix.identity(f3, 1), (2,))) == [2, 0, 1]


def test_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        GFMatrix(f3, [[0, 3]])
    with pytest.raises(ValueError):
        GFMatrix(f3, [[1, -1]])
    with pytest.raises(ValueError):
        GFMatrix(f3, [[1], [2, 0]])
    assert GFMatrix(f3, [[], []]).cols == 0


def test_matrix_refuses_entries_that_are_not_ints():
    # int() would truncate 1.7 and 2.2 to the in-range (1, 2) unnoticed
    for entries in ([[1.7, 2.2]], [[1, 0], [0, 1.0]], [[True, 0]], [["1"]]):
        with pytest.raises(ValueError, match="must be ints"):
            GFMatrix(f3, entries)
    assert GFMatrix(f3, ([1, 2], (0, 1))).entries == ((1, 2), (0, 1))
