import contextlib
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from aglcount import compound, rm
from aglcount.compound import (
    asymptotic_report,
    check_kronecker_embedding,
    format_significant,
    jordan_structure_sweep,
    unit_product_constant,
)
from aglcount.fields import field
from aglcount.linalg import GFMatrix, jordan_block, pack, rank
from aglcount.rm import RMQuotientBasis, monomial_images
from test_linalg import leibniz_det, matmul
from test_rm import action_matrix

f2 = field(2)
f3 = field(3)


def rand_matrix(rng, f, n):
    return GFMatrix(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, f, n):
    while True:
        m = rand_matrix(rng, f, n)
        if m.is_invertible():
            return m


def compound_matrix(mat, r):
    """The matrix of r x r minors, each by Leibniz expansion (test
    reference): entry (S, T) is the minor on rows S and columns T, and C_0
    is the 1 x 1 identity."""
    if mat.cols != mat.rows:
        raise ValueError("compound of a non-square matrix")
    if not 0 <= r <= mat.rows:
        raise ValueError(f"need 0 <= r <= n, got r={r}")
    index = list(itertools.combinations(range(mat.rows), r))

    def minor(s, t):
        return leibniz_det(GFMatrix(mat.field, [[mat.entries[i][j] for j in t] for i in s]))

    return GFMatrix(mat.field, [[minor(s, t) for t in index] for s in index])


def compound_from_images(mat, r):
    """C_r of a square binary matrix read off the packed substitution
    images: entry (S, T) is the coefficient of X_S in the image of X_T, with
    S and T over the degree-r slots in lexicographic order."""
    n = mat.rows
    images = monomial_images(pack(mat.entries), r)
    slots = RMQuotientBasis(n, r - 1, r).monomials
    return GFMatrix(f2, [[images[t] >> s & 1 for t in slots] for s in slots])


def test_subset_index():
    # C_2 of diag(1, 2, 3, 4) over F_7 is diag(d_i d_j) with {i, j} in
    # lexicographic order; the six products are distinct mod 7
    diag = GFMatrix(field(7), [[(i + 1) * (i == j) for j in range(4)] for i in range(4)])
    c2 = compound_matrix(diag, 2)
    assert [c2.entries[i][i] for i in range(6)] == [2, 3, 4, 6, 1, 5]
    assert c2.rows == c2.cols == 6
    for r in (-1, 5):
        with pytest.raises(ValueError):
            compound_matrix(diag, r)


def test_compound_of_non_square_matrix():
    wide = [[1, 0, 1], [0, 1, 1]]
    for entries in (wide, [list(col) for col in zip(*wide)]):
        for f in (f2, f3):
            m = GFMatrix(f, entries)
            for r in (0, 1, 2):
                with pytest.raises(ValueError, match="non-square"):
                    compound_matrix(m, r)


def test_compound_edge_cases():
    rng = random.Random(1)
    a = rand_matrix(rng, f3, 4)
    assert compound_matrix(a, 1) == a
    assert compound_matrix(a, 4).entries == ((leibniz_det(a),),)
    assert compound_matrix(a, 0) == GFMatrix.identity(f3, 1)
    assert compound_matrix(GFMatrix.identity(f3, 3), 2) == GFMatrix.identity(f3, 3)


def test_compound_multiplicative():
    rng = random.Random(2)
    for f in (f2, f3):
        for n in (2, 3, 4, 5):
            a, b = rand_matrix(rng, f, n), rand_matrix(rng, f, n)
            for r in range(n + 1):
                assert compound_matrix(matmul(a, b), r) == matmul(compound_matrix(a, r), compound_matrix(b, r))


def test_compound_from_images_matches_minors():
    # the compound that every check in compound.py reads off the images
    rng = random.Random(3)
    singular = 0
    for n in range(1, 7):
        for _ in range(2):
            m = rand_matrix(rng, f2, n)
            singular += not m.is_invertible()
            for r in range(n + 1):
                assert compound_from_images(m, r) == compound_matrix(m, r)
    assert singular >= 3


def test_action_matrix_diagonal_blocks_are_compounds():
    rng = random.Random(4)
    for n in (2, 3, 4, 5, 6):
        a = rand_invertible(rng, f2, n)
        sigma_basis = RMQuotientBasis(n, -1, n)
        from aglcount.linalg import AffineMap

        mat = action_matrix(AffineMap.linear(a), sigma_basis)
        offset = 0
        for r in range(n, -1, -1):
            block_dim = math.comb(n, r)
            block = [
                [mat.entries[offset + i][offset + j] for j in range(block_dim)]
                for i in range(block_dim)
            ]
            assert GFMatrix(f2, block) == compound_matrix(a, r), (n, r)
            offset += block_dim


def test_kronecker_embedding_examples():
    rng = random.Random(5)
    a, b = rand_matrix(rng, f2, 3), rand_matrix(rng, f2, 2)
    assert check_kronecker_embedding(a, b, 0, 0)
    assert check_kronecker_embedding(a, b, 3, 2)
    for k in range(4):
        for l in range(3):
            assert check_kronecker_embedding(a, b, k, l)


def test_kronecker_embedding_random_sweep():
    rng = random.Random(6)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, f2, m), rand_matrix(rng, f2, n)
        for k in range(m + 1):
            for l in range(n + 1):
                assert check_kronecker_embedding(a, b, k, l), (m, n, k, l)
    # compounds are binary only
    a = rand_matrix(rng, f3, 2)
    with pytest.raises(ValueError, match="over F_2"):
        check_kronecker_embedding(a, a, 1, 1)
    with pytest.raises(ValueError, match="different fields"):
        check_kronecker_embedding(a, rand_matrix(rng, f2, 2), 1, 1)
    wide = GFMatrix(f2, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="non-square"):
        check_kronecker_embedding(wide, rand_matrix(rng, f2, 2), 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        check_kronecker_embedding(rand_matrix(rng, f2, 2), rand_matrix(rng, f2, 2), 3, 0)


def corrupt_image(monkeypatch, size, t, slot):
    """Flip the coefficient of X_slot in the image of X_t under the
    substitution in size variables, where that image is computed; record the
    size of every substitution."""
    real = compound.monomial_images
    sizes = []

    def corrupted(sigma, max_degree):
        sizes.append(len(sigma.columns))
        images = real(sigma, max_degree)
        if len(sigma.columns) == size and images[t] is not None:
            images[t] ^= 1 << slot
        return images

    monkeypatch.setattr(compound, "monomial_images", corrupted)
    return sizes


def test_kronecker_embedding_detects_a_corrupted_image(monkeypatch):
    # A, B, k, l = 3, 2, 2, 1: the labels are S + {3 or 4} with S a pair of
    # {0, 1, 2}, so X_{0,1,3} = bit 11 and X_{1,2,4} = bit 22 are label
    # slots and X_{0,1,2} = bit 7 is not
    rng = random.Random(7)
    a, b = rand_invertible(rng, f2, 3), rand_invertible(rng, f2, 2)
    assert check_kronecker_embedding(a, b, 2, 1)
    for t, slot, detected in ((0b01011, 0b10110, True), (0b10110, 0b10110, True), (0b01011, 0b00111, False)):
        with monkeypatch.context() as patch:
            sizes = corrupt_image(patch, 5, t, slot)
            assert check_kronecker_embedding(a, b, 2, 1) is not detected, (t, slot)
        assert sorted(sizes) == [2, 3, 5]  # A, B and A + B substituted once each
    # a corrupted image of A alone breaks the product on every label it feeds
    with monkeypatch.context() as patch:
        corrupt_image(patch, 3, 0b011, 0b101)
        assert not check_kronecker_embedding(a, b, 2, 1)
        assert check_kronecker_embedding(a, b, 1, 1)  # degree 2 unused at k = 1


def fresh_jordan_structure(n, r):
    # the split check of one (n, r) from three compounds built for it alone
    big = compound_from_images(jordan_block(f2, n), r).entries
    subsets = list(itertools.combinations(range(n), r))
    without = [i for i, s in enumerate(subsets) if (n - 1) not in s]
    with_n = [i for i, s in enumerate(subsets) if (n - 1) in s]
    if any(big[i][j] for i in with_n for j in without):
        return False
    if n == 1:
        return big[0][0] == 1
    top = compound_from_images(jordan_block(f2, n - 1), r).entries if r < n else ()
    bottom = compound_from_images(jordan_block(f2, n - 1), r - 1).entries
    return tuple(tuple(big[i][j] for j in without) for i in without) == top and tuple(
        tuple(big[i][j] for j in with_n) for i in with_n
    ) == bottom


def fresh_rank_bound(n, r):
    # rank(C_r(J_n) - I) >= binom(n - 1, r) from a compound built for (n, r)
    big = compound_from_images(jordan_block(f2, n), r).entries
    shifted = [[entry ^ (i == j) for j, entry in enumerate(row)] for i, row in enumerate(big)]
    return rank(GFMatrix(f2, shifted)) >= math.comb(n - 1, r)


def test_jordan_structure_sweep():
    swept = list(jordan_structure_sweep(10))
    assert swept == [
        (n, r, fresh_jordan_structure(n, r), fresh_rank_bound(n, r)) for n in range(1, 11) for r in range(1, n + 1)
    ]
    assert all(structure_ok and rank_ok for _, _, structure_ok, rank_ok in swept)
    assert list(jordan_structure_sweep(0)) == []


def test_jordan_sweep_compares_the_previous_images(monkeypatch):
    # J_4 with the identity's degree-2 images fails its own check and both
    # checks of n = 5 that read them as the images under J_{n-1}, and no
    # other; of the rank bounds only its own fails (rank 0 < binom(3, 2))
    real = compound.monomial_images
    sizes = []

    def wrong_at_4_2(sigma, max_degree):
        sizes.append(len(sigma.columns))
        images = real(sigma, max_degree)
        if len(sigma.columns) == 4:
            for t in range(16):
                if t.bit_count() == 2:
                    images[t] = 1 << t
        return images

    def no_quotient_action(*args):
        raise AssertionError("the sweep reads the rank off its own images")

    monkeypatch.setattr(compound, "monomial_images", wrong_at_4_2)
    monkeypatch.setattr(rm, "fix_on_quotient", no_quotient_action)
    swept = list(jordan_structure_sweep(6))
    assert [(n, r) for n, r, structure_ok, _ in swept if not structure_ok] == [(4, 2), (5, 2), (5, 3)]
    assert [(n, r) for n, r, _, rank_ok in swept if not rank_ok] == [(4, 2)]
    assert sizes == [1, 2, 3, 4, 5, 6]  # one substitution per n
    assert not hasattr(compound, "fix_on_quotient")


def test_jordan_lower_left_block_is_zero():
    for n in range(2, 9):
        for r in range(1, n + 1):
            big = compound_from_images(jordan_block(f2, n), r).entries
            subsets = list(itertools.combinations(range(n), r))
            without = [i for i, s in enumerate(subsets) if (n - 1) not in s]
            with_n = [i for i, s in enumerate(subsets) if (n - 1) in s]
            assert not any(big[i][j] for i in with_n for j in without)


def test_rank_bound_sweep(monkeypatch):
    assert all(rank_ok for *_, rank_ok in jordan_structure_sweep(10))
    # the bound is tight at r = 1 and r = n (rank n - 1 and 0): raised by
    # one, the check must fail exactly there, and the structure check not
    monkeypatch.setattr(compound, "comb", lambda a, b: math.comb(a, b) + 1)
    swept = list(jordan_structure_sweep(8))
    assert [(n, r) for n, r, _, rank_ok in swept if not rank_ok] == [
        (n, r) for n in range(1, 9) for r in range(1, n + 1) if r in (1, n)
    ]
    assert all(structure_ok for _, _, structure_ok, _ in swept)


def test_constant_value_and_certification():
    (low_num, low_den), (high_num, high_den) = unit_product_constant()
    for den in (low_den, high_den):
        assert den & (den - 1) == 0  # a power of two
    low, high = Fraction(low_num, low_den), Fraction(high_num, high_den)
    assert low < high
    assert high - low < Fraction(1, 10**39)
    text = format_significant(low_num, low_den, 32)
    # truncated digits; the common 12-digit rounded display is ...095087
    assert text.startswith("0.28878809508660")
    rounded = (low * 10**12 + Fraction(1, 2)).__floor__()
    assert rounded == 288788095087


def test_format_significant():
    assert format_significant(1, 3, 6) == "0.333333"
    assert format_significant(4, 3, 4) == "1.333"
    assert format_significant(1330, 1000, 5) == "1.3300"
    assert format_significant(1, 400, 3) == "0.00250"
    assert format_significant(221789, 1, 4) == "221700"
    assert format_significant(10, 1, 3) == "10.0"
    # unreduced pairs read as their value
    assert format_significant(8, 6, 4) == "1.333"
    for num, den in ((0, 1), (-1, 3), (1, 0), (1, -3), (-1, -3)):
        with pytest.raises(ValueError):
            format_significant(num, den, 3)
    for digits in (0, -2):
        with pytest.raises(ValueError, match="digits must be >= 1"):
            format_significant(1, 3, digits)


@contextlib.contextmanager
def int_str_digits(limit):
    """Python's int-str conversion limit set to limit (0: none), then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def format_significant_by_str(value, digits):
    """Reference: the exponent guessed from decimal lengths, with no limit
    on the int-str conversions it makes."""
    with int_str_digits(0):
        return _by_str(value.numerator, value.denominator, digits)


def _by_str(num, den, digits):

    def below_pow10(e):
        return num < den * 10**e if e >= 0 else num * 10**-e < den

    e = len(str(num)) - len(str(den)) + 1
    while not below_pow10(e):
        e += 1
    while below_pow10(e - 1):
        e -= 1
    mantissa = num * 10 ** (digits - e) // den if digits >= e else num // (den * 10 ** (e - digits))
    text = str(mantissa)
    if e <= 0:
        return "0." + "0" * (-e) + text
    if e >= digits:
        return text + "0" * (e - digits)
    return text[:e] + "." + text[e:]


def test_format_significant_matches_decimal_length_guess():
    # one fraction of about 300k bits (the reference's str() takes 0.3 s),
    # values at and next to powers of ten, and the small cases above
    rng = random.Random(53)
    big = Fraction(rng.getrandbits(300_000) | 1 << 299_999, rng.getrandbits(299_000) | 1)
    cases = [(big, 12)]
    values = [
        Fraction(10**5000), Fraction(10**5000 - 1), Fraction(10**5000 + 1, 10**2500),
        Fraction(1, 10**5000 + 1), Fraction(1, 3), Fraction(4, 3), Fraction(1330, 1000),
        Fraction(1, 400), Fraction(221789, 1), Fraction(10, 1), Fraction(999, 1000),
    ]
    cases += [(v, d) for v in values for d in (1, 12, 32)]
    with int_str_digits(4300):
        # the bit-length guess never turns the huge parts into decimal
        got = [format_significant(v.numerator, v.denominator, d) for v, d in cases]
    want = [format_significant_by_str(v, d) for v, d in cases]
    assert got == want


def limit_ratio_bounds(row):
    """The row's class count over 2**power_exponent times the bounds of the
    constant, as Fractions."""
    scale = row.class_count * Fraction(2) ** -row.power_exponent
    return tuple(scale * Fraction(*bound) for bound in unit_product_constant())


def test_asymptotic_report_small():
    report = asymptotic_report(6)
    assert report.constant.startswith("0.28878809508660")
    assert [row.n for row in report.rows] == [2, 3, 4, 5, 6]
    by_n = {row.n: row for row in report.rows}
    assert by_n[2].class_count == 2
    assert by_n[3].class_count == 3
    assert by_n[4].class_count == 8
    assert by_n[2].power_exponent == -5
    assert by_n[6].power_exponent == 15
    for row in report.rows:
        assert Fraction(*row.ratio) > 1
    # both readings of the n = 6 ratio land near 1.33
    low, high = limit_ratio_bounds(by_n[6])
    assert Fraction(13, 10) < low < high < Fraction(14, 10)
    assert Fraction(13, 10) < Fraction(*by_n[6].ratio) < Fraction(14, 10)
    # partial-product ratio is exactly 1 + nonidentity mass / code size
    from aglcount.numtheory import agl_group_order

    n = 6
    group = agl_group_order(n, 2)
    code = 2 ** (2**n - n - 1)
    mass = by_n[6].class_count * group - code
    assert Fraction(*by_n[6].ratio) == 1 + Fraction(mass, code)
    with pytest.raises(ValueError):
        asymptotic_report(1)


def test_ratio_tail_decreases():
    report = asymptotic_report(7)
    tail = [row for row in report.rows if row.n >= 5]
    for a, b in zip(tail, tail[1:]):
        assert Fraction(*a.ratio) > Fraction(*b.ratio)
    # the excess over 1 at least halves per step from n = 6 on
    by_n = {row.n: row for row in report.rows}
    assert (Fraction(*by_n[6].ratio) - 1) > 2 * (Fraction(*by_n[7].ratio) - 1)
    # the limit-normalized ratio has crossed below 1 by n = 7
    assert limit_ratio_bounds(by_n[7])[1] < 1 < limit_ratio_bounds(by_n[6])[0]


def test_ratio_excess_bit_length_pattern():
    # result (ii): from n = 7 on, the excess of the ratio over 1 is
    # num/den with num.bit_length() - den.bit_length() == 2n - 2**(n-2),
    # so it lies within a factor of 2 of 2**(2n - 2**(n-2)); the gap is the
    # same on the unreduced pair, as reducing by 2**k drops both lengths by k
    report = asymptotic_report(14)
    assert [row.n for row in report.rows] == list(range(2, 15))
    for row in report.rows:
        if row.n >= 7:
            num, den = row.ratio
            gap = (num - den).bit_length() - den.bit_length()
            assert gap == 2 * row.n - 2 ** (row.n - 2), row.n


def fraction_constant():
    """The bounds of prod (1 - 2**-i) by Fraction partial products, with
    the report's stop rule: the first increment below 10**-40."""
    product = Fraction(1)
    i = 0
    while True:
        i += 1
        increment = product / 2**i
        product -= increment
        if increment < Fraction(1, 10**40):
            return product * (1 - Fraction(1, 2**i)), product


def test_asymptotic_report_matches_fraction_reference():
    # the report's values recomputed with Fractions from its class counts;
    # its texts are those of the str()-based reference formatter
    report = asymptotic_report(14)
    low, high = fraction_constant()
    assert report.constant == format_significant_by_str(low, 32) == format_significant_by_str(high, 32)
    for n, row in enumerate(report.rows, start=2):
        assert row.n == n
        partial = math.prod(1 - Fraction(1, 2**i) for i in range(1, n + 1))
        scale = row.class_count * Fraction(2) ** -(2**n - n * n - 2 * n - 1)
        ratio = scale * partial
        assert Fraction(*row.ratio) == ratio, n
        assert row.ratio_text == format_significant_by_str(ratio, 32), n
        assert row.excess_text == format_significant_by_str(ratio - 1, 12), n
        assert row.limit_ratio_text == format_significant_by_str(scale * low, 32), n
        assert row.limit_ratio_text == format_significant_by_str(scale * high, 32), n
