import itertools
import operator
import random
from functools import lru_cache, partial

import pytest

from aglcount.conjugacy import ClassIndex, enumerate_classes
from aglcount.fields import field
from aglcount.formulas import burnside_count, count_function_classes, orbit_exponent
from aglcount.linalg import AffineMap, GFMatrix, PackedMap, companion_matrix, gf2_rank, pack, point_permutation
from aglcount.numtheory import multiplicative_order, psi
from aglcount.partitions import enumerate_partitions
from aglcount.reps import build_representative, iter_class_representatives, packed_representative
from aglcount.rm import (
    RMQuotientBasis,
    _basis_monomials,
    _convolve,
    _dual_degree,
    _eigenvalue_grades,
    _fix_profile,
    _fixed_terms,
    _grades,
    _orbit_sum_rank,
    _semisimple_split,
    _var_masks,
    fix_on_quotient,
    monomial_images,
    theta,
)
from brute import burnside_full_theta, full_expansion, orbit_enumeration_code
from planted import start_method
from test_conjugacy import partition_tuple
from test_linalg import affine_order, apply, identity_map, matmul, packed, then
from test_reps import assignment_orbits

f2 = field(2)
BITS = bytes.maketrans(b"\x00\x01", b"01")  # a 0/1 row as binary digits


def require(ok, *context):
    """An assert that still fires under python -O."""
    if not ok:
        raise AssertionError(context)


def rand_affine(rng, n):
    while True:
        entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        mat = GFMatrix(f2, entries)
        if mat.is_invertible():
            return AffineMap(mat, tuple(rng.randrange(2) for _ in range(n)))


def images_of(sigma, max_degree):
    return monomial_images(packed(sigma), max_degree)


def evaluate(packed, point):
    """A packed polynomial at a point of F_2**n: the parity of its
    monomials whose variables are all 1 there."""
    mask = sum(1 << i for i, x in enumerate(point) if x)
    return sum(1 for m in range(mask + 1) if packed >> m & 1 and m & mask == m) & 1


def raw_apply(entries, translation, point):
    """x A + a at one point, for any 0/1 matrix A."""
    return tuple(
        (a + sum(x * row[i] for x, row in zip(point, entries))) & 1
        for i, a in enumerate(translation)
    )


def points_of(n):
    return [tuple(code >> i & 1 for i in range(n)) for code in range(1 << n)]


def anf_of_table(table):
    """Packed ANF of a truth table indexed by point code (bit i of the code
    is x_i), by the binary Moebius transform."""
    coeffs = list(table)
    step = 1
    while step < len(coeffs):
        for c in range(len(coeffs)):
            if c & step:
                coeffs[c] ^= coeffs[c ^ step]
        step <<= 1
    return sum(bit << m for m, bit in enumerate(coeffs))


def substitute(packed, sigma):
    """f |-> f(sigma(x)) on a whole packed polynomial, monomial by monomial."""
    images = images_of(sigma, sigma.dim)
    out = 0
    for m, image in enumerate(images):
        if packed >> m & 1:
            out ^= image
    return out


def degree(packed):
    """Largest monomial size; -1 for the zero polynomial."""
    return max((m.bit_count() for m in range(packed.bit_length()) if packed >> m & 1), default=-1)


def dense_fixes(sigma, bases):
    """2 ** nullity of the action matrix minus the identity on each basis
    (test reference).  One action matrix covers every degree the bases
    span; substitution never raises degree, so the matrix of R(r, n)/R(s, n)
    is its block on the degrees s + 1 .. r, a run of rows and columns."""
    whole = RMQuotientBasis(bases[0].n, min(b.s for b in bases), max(b.r for b in bases))
    entries = action_entries(sigma, whole)
    rows = [int(bytes(row[::-1]).translate(BITS), 2) ^ 1 << i for i, row in enumerate(entries)]
    out = []
    for basis in bases:
        start = sum(1 for m in whole.monomials if m.bit_count() > basis.r)
        block = [x >> start & (1 << basis.dim) - 1 for x in rows[start : start + basis.dim]]
        out.append(2 ** (basis.dim - gf2_rank(block)))
    return out


def dense_fix(sigma, basis):
    return dense_fixes(sigma, [basis])[0]


def action_entries(sigma, basis):
    """The 0/1 rows of `action_matrix`, unchecked."""
    images = images_of(sigma, basis.r)
    columns = [images[mono] for mono in basis.monomials]
    return [[column >> pos & 1 for column in columns] for pos in basis.monomials]


def action_matrix(sigma, basis):
    """Matrix of f |-> f(sigma(x)) on the quotient, columns the images of
    the basis monomials.  Multiplicative over composition: the matrix of
    "a, then b" is the matrix of a times the matrix of b, in that order."""
    return GFMatrix(f2, action_entries(sigma, basis))


def inverse(sigma):
    """sigma ** (order - 1), by repeated composition (test reference)."""
    out = identity_map(sigma.field, sigma.dim)
    for _ in range(affine_order(sigma) - 1):
        out = then(out, sigma)
    return out


def test_substitute_examples():
    translation = AffineMap(GFMatrix.identity(f2, 2), (1, 0))
    assert images_of(translation, 2)[0b01] == 1 << 0 | 1 << 0b01  # X1 + 1

    swap = AffineMap.linear(GFMatrix(f2, [[0, 1], [1, 0]]))
    assert images_of(swap, 2)[0b11] == 1 << 0b11  # X1 X2 stays

    shear = AffineMap.linear(GFMatrix(f2, [[1, 0], [1, 1]]))  # X1 -> X1 + X2
    assert images_of(shear, 2)[0b11] == 1 << 0b10 | 1 << 0b11
    assert images_of(shear, 1)[0b11] is None  # above max_degree
    assert monomial_images(pack(()), 0) == [1]


def test_substitute_pointwise_oracle():
    # (f o sigma)(x) = f(sigma(x)) at every point, for every monomial of
    # degree <= r; any 0/1 matrix, singular or not, with any translation
    rng = random.Random(31)
    for n in range(1, 6):
        points = points_of(n)
        for trial in range(8):
            if trial % 2:
                sigma = rand_affine(rng, n)
                entries, translation = sigma.matrix.entries, sigma.translation
            else:
                entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
                translation = tuple(rng.randrange(2) for _ in range(n))
            r = n - trial // 2 % (n + 1)  # both kinds of map at r = n and below
            images = monomial_images(pack(entries, translation), r)
            assert len(images) == 1 << n
            for m, image in enumerate(images):
                if m.bit_count() > r:
                    assert image is None, (n, m, r)
                    continue
                for point in points:
                    moved = raw_apply(entries, translation, point)
                    assert evaluate(image, point) == all(moved[i] for i in range(n) if m >> i & 1)


def test_substitute_degree_behavior():
    rng = random.Random(32)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            # no image slot above its monomial's degree, for any matrix: the
            # masking in fix_on_quotient is the reduction modulo R(s, n)
            entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            translation = tuple(rng.randrange(2) for _ in range(n))
            for m, image in enumerate(monomial_images(pack(entries, translation), n)):
                assert degree(image) <= m.bit_count(), (n, m)
            # invertible: degree preserved, and the inverse substitutes back
            sigma = rand_affine(rng, n)
            for m, image in enumerate(images_of(sigma, n)):
                assert degree(image) == m.bit_count(), (n, m)
            poly = sum(1 << m for m in range(1 << n) if rng.random() < 0.35)
            image = substitute(poly, sigma)
            assert degree(image) == degree(poly)
            assert substitute(image, inverse(sigma)) == poly


def full_walk_images(entries, translation, max_degree):
    """Reference: the earlier substitution loop, over all 2**n monomial
    slots in increasing bitmask order, skipping those of degree >
    max_degree."""
    n = len(translation)
    masks = _var_masks(n)
    forms = [
        (sum(1 << j for j in range(n) if entries[j][i]), translation[i]) for i in range(n)
    ]
    images = [None] * (1 << n)
    images[0] = 1
    for m in range(1, 1 << n):
        if m.bit_count() > max_degree:
            continue
        low = m & -m
        base = images[m ^ low]
        varmask, const = forms[low.bit_length() - 1]
        acc = base if const else 0
        v = varmask
        while v:
            vlow = v & -v
            v ^= vlow
            absent, present = masks[vlow.bit_length() - 1]
            acc ^= ((base & absent) << vlow) ^ (base & present)
        images[m] = acc
    return images


def test_degree_bounded_walk_matches_full_walk():
    # 400 maps, half of them singular 0/1 matrices (compounds pass those),
    # each at every max_degree from 0 to n
    rng = random.Random(41)
    for n in range(1, 9):
        for trial in range(50):
            if trial % 2:
                sigma = rand_affine(rng, n)
                entries, translation = sigma.matrix.entries, sigma.translation
            else:
                entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
                translation = tuple(rng.randrange(2) for _ in range(n))
            for r in range(n + 1):
                want = full_walk_images(entries, translation, r)
                assert monomial_images(pack(entries, translation), r) == want, (n, trial, r)


def test_basis_layout():
    b = RMQuotientBasis(3, 0, 2)
    # degree descending, lexicographic subsets within a degree
    assert b.monomials == (0b011, 0b101, 0b110, 0b001, 0b010, 0b100)
    assert b.dim == 6
    assert RMQuotientBasis(4, -1, 4).dim == 16
    with pytest.raises(ValueError):
        RMQuotientBasis(3, 2, 2)


def test_basis_monomials_match_the_generator_sums():
    # the masks as sums of combinations of single bits, against one
    # generator sum per combination, for every (n, s, r) with n <= 12
    for n in range(13):
        for r in range(-1, n + 1):
            for s in range(-1, r + 1):
                old = tuple(sum(1 << i for i in combo) for k in range(r, s, -1) for combo in itertools.combinations(range(n), k))
                require(_basis_monomials.__wrapped__(n, s, r) == old, n, s, r)


def test_action_matrix_examples():
    basis = RMQuotientBasis(3, 0, 2)
    ident = identity_map(f2, 3)
    assert action_matrix(ident, basis) == GFMatrix.identity(f2, 6)

    swap = AffineMap.linear(GFMatrix(f2, [[0, 1], [1, 0]]))
    top = RMQuotientBasis(2, 1, 2)
    assert action_matrix(swap, top).entries == ((1,),)


def test_action_matrix_multiplicative():
    rng = random.Random(33)
    basis = RMQuotientBasis(3, -1, 3)
    for _ in range(10):
        a, b = rand_affine(rng, 3), rand_affine(rng, 3)
        left = action_matrix(then(a, b), basis)
        right = matmul(action_matrix(a, basis), action_matrix(b, basis))
        assert left == right


def test_action_matrix_consistent_with_substitution():
    # column j is the pointwise composite X_j(sigma(x)), read off its ANF on
    # the basis slots
    rng = random.Random(34)
    basis = RMQuotientBasis(4, 1, 3)
    monomials = basis.monomials
    points = points_of(4)
    for _ in range(5):
        sigma = rand_affine(rng, 4)
        mat = action_matrix(sigma, basis)
        for j, mono in enumerate(monomials):
            image = anf_of_table([evaluate(1 << mono, apply(sigma, x)) for x in points])
            for i, pos in enumerate(monomials):
                assert mat.entries[i][j] == image >> pos & 1


def test_fix_on_quotient_examples():
    for n in (2, 3, 4, 5):
        basis = RMQuotientBasis(n, -1, n - 2)
        ident = identity_map(f2, n)
        assert fix_on_quotient(packed(ident), basis) == 2 ** (2**n - n - 1)
        shift = AffineMap(GFMatrix.identity(f2, n), (0,) * (n - 1) + (1,))
        assert fix_on_quotient(packed(shift), basis) == 2 ** (2 ** (n - 1) - 1)
    # constants are fixed by everything
    rng = random.Random(35)
    basis = RMQuotientBasis(2, -1, 0)
    for _ in range(5):
        assert fix_on_quotient(packed(rand_affine(rng, 2)), basis) == 2


def test_fix_is_a_class_function():
    rng = random.Random(36)
    for n in (2, 3, 4, 5):
        basis = RMQuotientBasis(n, -1, max(0, n - 2))
        for _ in range(6):
            sigma = rand_affine(rng, n)
            g = rand_affine(rng, n)
            conjugate = then(then(inverse(g), sigma), g)
            assert fix_on_quotient(packed(sigma), basis) == fix_on_quotient(packed(conjugate), basis)


def test_fix_matches_nullity_of_action_matrix():
    from aglcount.conjugacy import enumerate_classes
    from aglcount.reps import build_representative

    rng = random.Random(37)
    cases = []
    for n in (2, 3, 4):
        for s in range(-1, n):
            cases.append((rand_affine(rng, n), RMQuotientBasis(n, s, n)))
    # packed slot-space rows against the reference matrix, on middle
    # quotients (s >= 0, r < n) up to 2**9 slots, for random maps and for
    # class representatives with large fixed spaces
    for n in range(5, 10):
        reps = [build_representative(idx) for idx in itertools.islice(enumerate_classes(n, 2), 0, 40, 13)]
        for sigma in [rand_affine(rng, n), rand_affine(rng, n)] + reps:
            s = rng.randrange(0, n - 1)
            r = rng.randrange(s + 1, n)
            cases.append((sigma, RMQuotientBasis(n, s, r)))
    for n, s, r in ((8, 0, 4), (8, 2, 6), (9, 1, 3), (9, -1, 9)):
        cases.append((rand_affine(rng, n), RMQuotientBasis(n, s, r)))
    for sigma, basis in cases:
        assert fix_on_quotient(packed(sigma), basis) == dense_fix(sigma, basis), (basis, sigma)


def test_split_fix_matches_dense_on_every_representative():
    # fix_on_quotient of every representative a theta call builds at
    # n <= 7, on every quotient R(r, n)/R(s-1, n), over 100 of them with
    # unmarked 1 x 1 Jordan blocks, which _fixed_terms splits off
    from aglcount.reps import _assemble

    split = 0
    for n in range(1, 8):
        bases = [RMQuotientBasis(n, s - 1, r) for r in range(n + 1) for s in range(r + 1)]
        for idx in enumerate_classes(n, 2):
            for assignments, _ in iter_class_representatives(idx):
                sigma = _assemble(idx, assignments)
                split += idx.unipotent[:1] > (idx.marker == 1,)
                got = [fix_on_quotient(packed(sigma), basis) for basis in bases]
                assert got == dense_fixes(sigma, bases), idx
    assert split > 100


def planted(rng, n, k, translated):
    """A random map of AGL(n, 2) that fixes k coordinates at scattered
    positions: the block map diag(I_k, B) conjugated by a random coordinate
    permutation, with a translation on one moved coordinate if asked."""
    m = n - k
    while True:
        block = [[rng.randrange(2) for _ in range(m)] for _ in range(m)]
        if m == 0 or GFMatrix(f2, block).is_invertible():
            break
    order = rng.sample(range(n), n)
    entries = [[0] * n for _ in range(n)]
    for i in range(k):
        entries[order[i]][order[i]] = 1
    for i in range(m):
        for j in range(m):
            entries[order[k + i]][order[k + j]] = block[i][j]
    translation = [0] * n
    if translated:
        translation[order[k + rng.randrange(m)]] = 1
    return AffineMap(GFMatrix(f2, entries), tuple(translation))


def test_split_fix_matches_dense_on_planted_fixed_coordinates(monkeypatch):
    # random maps with k planted fixed coordinates for n <= 9, with and
    # without a translation on a moved coordinate, counted whole; and the
    # maps theta profiles at n <= 8 never hold a fixed coordinate (column
    # e_i, row e_i, a_i = 0), since _fixed_terms moves those into the
    # odd-order factor
    from aglcount import rm

    rng = random.Random(38)
    for n in range(1, 10):
        for trial in range(6):
            k = rng.randint(1, n - 1) if n > 1 else 0
            sigma = planted(rng, n, k, translated=trial % 2 == 1 and k < n)
            if n <= 6:
                bases = [RMQuotientBasis(n, s - 1, r) for r in range(n + 1) for s in range(r + 1)]
            else:
                bases = []
                for _ in range(3):
                    r = rng.randrange(n + 1)
                    bases.append(RMQuotientBasis(n, rng.randrange(r + 1) - 1, r))
            for basis in bases:
                assert fix_on_quotient(packed(sigma), basis) == dense_fix(sigma, basis), (k, basis, sigma)

    profiled = []
    real = rm._fix_profile
    monkeypatch.setattr(rm, "_fix_profile", lambda sigma, *args: profiled.append(sigma) or real(sigma, *args))
    for n, s, r in ((5, 1, 2), (6, 1, 3), (7, 2, 4), (8, 0, 4), (8, 1, 4), (8, 3, 5)):
        del profiled[:]
        theta(n, s, r)
        assert len(profiled) > 20, (n, s, r)
        for columns, translation in profiled:
            for i, column in enumerate(columns):
                row = sum(1 << j for j, c in enumerate(columns) if c >> i & 1)
                assert (column, row, translation >> i & 1) != (1 << i, 1 << i, 0), (n, s, r, columns)


def test_split_fix_of_the_identity_and_a_translation():
    # the identity fixes every coset, and a pure translation, which fixes
    # every coordinate but its own, matches the dense action matrix
    for n in range(1, 8):
        bases = [RMQuotientBasis(n, s - 1, r) for r in range(n + 1) for s in range(r + 1)]
        ident = identity_map(f2, n)
        assert [fix_on_quotient(packed(ident), basis) for basis in bases] == [2**b.dim for b in bases]
        for i in range(n):
            shift = AffineMap(GFMatrix.identity(f2, n), tuple(int(j == i) for j in range(n)))
            got = [fix_on_quotient(packed(shift), basis) for basis in bases]
            assert got == dense_fixes(shift, bases), (n, i)


def record_sides(monkeypatch):
    """The list fix_on_quotient appends the name of each side to as it runs."""
    from aglcount import rm

    ran = []
    for name in ("_orbit_nullity", "_substituted_nullity"):
        real = getattr(rm, name)
        monkeypatch.setattr(rm, name, lambda *args, real=real, name=name: ran.append(name) or real(*args))
    return ran


@pytest.fixture
def fix_by_side(monkeypatch):
    """fix(sigma, basis, dual): fix_on_quotient with every map sent to the
    dual side (dual true) or to the substitution side, checking that the
    forced side, and only it, ran."""
    from aglcount import rm

    ran, choice = record_sides(monkeypatch), [False]
    monkeypatch.setattr(rm, "_dual_is_smaller", lambda m, r: choice[0])

    def fix(sigma, basis, dual):
        choice[0] = dual
        del ran[:]
        out = fix_on_quotient(sigma, basis)
        assert ran == ["_orbit_nullity" if dual else "_substituted_nullity"], (basis, ran)
        return out

    return fix


def test_both_sides_match_dense_on_every_representative(fix_by_side):
    # the orbit sums of the dual code and the substitution, each forced, on
    # every representative a theta call builds at n <= 8 and every s = 0
    # basis R(r, n), against the dense action matrix
    from aglcount.reps import _assemble, packed_representative

    checked = 0
    for n in range(1, 9):
        bases = [RMQuotientBasis(n, -1, r) for r in range(n + 1)]
        for idx in enumerate_classes(n, 2):
            for assignments, _ in iter_class_representatives(idx):
                sigma = packed_representative(idx, assignments)
                want = dense_fixes(_assemble(idx, assignments), bases)
                for dual in (False, True):
                    assert [fix_by_side(sigma, basis, dual) for basis in bases] == want, (idx, dual)
                checked += 1
    assert checked == 559


def test_both_sides_match_dense_on_planted_maps(fix_by_side):
    # random maps with k planted fixed coordinates for n <= 9, with and
    # without a translation on a moved coordinate, each side forced
    rng = random.Random(39)
    for n in range(1, 10):
        bases = [RMQuotientBasis(n, -1, r) for r in range(n + 1)]
        for trial in range(6):
            k = rng.randint(0, n - 1)
            sigma = planted(rng, n, k, translated=trial % 2 == 1)
            want = dense_fixes(sigma, bases)
            for dual in (False, True):
                assert [fix_by_side(packed(sigma), basis, dual) for basis in bases] == want, (k, dual, sigma)


def test_dual_side_refuses_a_singular_map():
    # fixed points are counted for group elements: the point walk of a
    # singular map is no permutation, and the dual side refuses it
    singular = pack([[1, 1, 0], [1, 1, 0], [0, 0, 1]], (1, 0, 0))
    with pytest.raises(ValueError, match="not a permutation"):
        fix_on_quotient(singular, RMQuotientBasis(3, -1, 3))


def test_each_map_takes_the_side_with_fewer_columns(monkeypatch):
    # theta profiles each factor of its representatives once per call, and
    # a representative with neither an odd-order factor nor a fixed
    # coordinate whole; the grades of a component of sigma_s whose orders
    # share one degree are counted, not profiled: theta(8; 0, 4) reads all
    # 103 profiles off the orbit sums, theta(9; 0, 3) splits 38 to 125, a
    # middle quotient substitutes its sigma_2 profiles and reads only the
    # grades of the 5 components that span several degrees (floor -1) off
    # orbit sums, and theta(7; 0, 7), of dual degree -1, profiles nothing
    from aglcount import rm

    ran = record_sides(monkeypatch)
    monkeypatch.setattr(rm, "_evaluations", lambda m, degree, real=rm._evaluations: ran.append("columns") or real(m, degree))
    for args, dual, substituted in (((8, 0, 4), 103, 0), ((9, 0, 3), 38, 125), ((8, 1, 4), 5, 98), ((7, 0, 7), 0, 0)):
        del ran[:]
        theta(*args)
        assert (ran.count("_orbit_nullity"), ran.count("_substituted_nullity")) == (dual, substituted), args
    # forced onto its 140 representatives, R(7, 7) takes the dual side for
    # the 21 whole maps, the grades of the one component that spans
    # several degrees (orders 3 and 15) and the 37 profiles of sigma_2; a
    # whole map or sigma_2, with an empty dual, only counts orbits, and
    # only that component, a = 6 variables, builds columns, those of
    # degree <= a - 1
    del ran[:]
    burnside_count(7, 2, partial(_fixed_terms, RMQuotientBasis(7, -1, 7), caches=({}, {})))
    assert (ran.count("_orbit_nullity"), ran.count("_substituted_nullity"), ran.count("columns")) == (59, 0, 1)


def test_evaluations_are_graded_with_degree_zero_on_top():
    # bit j of point x is X_t(x), t the j-th monomial of degree <= K in the
    # basis order, degree descending: the monomials of degree <= K' < K are
    # the top columns
    from aglcount.rm import _basis_monomials, _evaluations

    for m in range(0, 7):
        for degree in range(0, m + 1):
            monomials = _basis_monomials(m, -1, degree)
            values = _evaluations(m, degree)
            assert len(values) == 1 << m
            for x, value in enumerate(values):
                assert value == sum(1 << j for j, t in enumerate(monomials) if t & x == t), (m, degree, x)
                assert value >> len(monomials) - 1 == 1  # the constant, on top
            for low in range(degree):
                top = len(_basis_monomials(m, -1, low))
                assert _evaluations(m, low) == tuple(v >> len(monomials) - top for v in values)


def test_theta_examples():
    # theta(n; 0, n) folds the per-class orbit counts, as N(2, n) does, so
    # N(2, n) is checked against the representatives' split fixed counts
    assert theta(2, 0, 0) == 2
    for n in range(1, 6):
        assert representative_count(n, 0, n) == count_function_classes(n, 2), n
    with pytest.raises(ValueError):
        theta(4, 5, 3)


def test_theta_linear_and_top_quotients(monkeypatch):
    # R(1,n)/R(0,n): the zero functional and everything else
    # R(n,n)/R(n-1,n) and R(0,n)/R(-1,n): one-dimensional trivial modules,
    # counted with no fold, as the brute oracle confirms at n <= 3
    from aglcount import rm

    for n in (2, 3, 4, 5):
        assert theta(n, 1, 1) == 2
    for n in (1, 2, 3):
        assert burnside_full_theta(n, 0, 0) == burnside_full_theta(n, n, n) == 2, n
    monkeypatch.setattr(rm, "burnside_count", None)
    for n in range(1, 13):
        assert theta(n, 0, 0) == theta(n, n, n) == 2, n


@lru_cache(maxsize=None)
def representative_count(n, s, r):
    """theta(n; s, r) by the representatives' fixed counts, forced where
    theta would take the per-class formulas."""
    return burnside_count(n, 2, partial(_fixed_terms, RMQuotientBasis(n, s - 1, r), caches=({}, {})))


def per_class_families(n):
    """The (s, r) of dual degree <= 1: (0, n), (0, n - 1), (0, n - 2),
    (1, n) and (2, n), where they exist."""
    pairs = {(0, n), (0, n - 1), (0, n - 2), (1, n), (2, n)}
    return sorted((s, r) for s, r in pairs if 0 <= s <= r <= n)


def test_theta_matches_function_count_with_expansion():
    # n = 7 and n = 9 force the assignment expansion (several irreducibles
    # of one order carrying distinct partitions); the grand totals of the
    # representatives must still match the fold-proven function-class count
    for n in (7, 9):
        assert representative_count(n, 0, n) == count_function_classes(n, 2), n


def test_collapsed_assignments_share_the_fix_count():
    # a single entry of one order is one orbit of psi(d) slots: one
    # representative weighted by psi(d), and every slot has its fix count
    from aglcount.numtheory import psi as psi_of
    from aglcount.reps import _assemble

    cases = [
        (5, 31, (0, 3)),   # five variables, order-31 companions, R(3,5)/R(-1,5)
        (6, 63, (1, 4)),   # six variables, order-63 companions, R(4,6)/R(0,6)
        (6, 9, (0, 4)),
    ]
    for n, d, (s, r) in cases:
        psi_d = psi_of(d, 2)
        idx = ClassIndex(
            n=n, q=2, unipotent=(),
            spectra=(partition_tuple(d, psi_d, [(1,)]),), marker=None,
        )
        idx.validate()
        reps = list(iter_class_representatives(idx))
        assert len(reps) == 1 and reps[0][1] == psi_d  # collapsed
        basis = RMQuotientBasis(n, s, r)
        values = {
            fix_on_quotient(packed(_assemble(idx, ((slot,),))), basis)
            for slot in range(psi_d)
        }
        assert len(values) == 1, (n, d, values)
        assert values == {fix_on_quotient(packed(_assemble(idx, reps[0][0])), basis)}
    # several entries of one order, beyond the sweep below: x**3 + x + 1 and
    # x**3 + x**2 + 1 swap under j = 3, the 15 pairs of the six order-31
    # slots fall into orbits of 3, 6 and 6, and the two order-7 slots of a
    # marked index of orders 3 and 7 swap their entries
    several = [
        (9, (), (partition_tuple(7, 2, [(1,), (2,)]),), [2], (1, 3)),
        (10, (), (partition_tuple(31, 6, [(1,), (1,)]),), [3, 6, 6], (2, 3)),
        (12, (1,), (partition_tuple(3, 1, [(1,)]), partition_tuple(7, 2, [(1,), (0, 1)])), [2], (1, 2)),
    ]
    for n, lam, spectra, sizes, (s, r) in several:
        idx = ClassIndex(n=n, q=2, unipotent=lam, spectra=spectra, marker=1 if lam else None)
        orbits = assignment_orbits(2, idx.spectra)
        assert [len(orbit) for orbit in orbits] == sizes, idx
        assert [w for _, w in iter_class_representatives(idx)] == sizes
        basis = RMQuotientBasis(n, s, r)
        for orbit in orbits:
            values = {fix_on_quotient(packed(_assemble(idx, assignment)), basis) for assignment in orbit}
            assert len(values) == 1, (idx, orbit)


def test_every_assignment_of_an_orbit_has_its_fix_count():
    # the power-orbit argument in iter_class_representatives, on every
    # quotient R(r, n)/R(s-1, n) with n <= 7; orbits of several orders
    # merge assignments the single-entry collapse kept apart from n = 5 on
    from aglcount.reps import _assemble

    merged = several_orders = 0
    for n in range(1, 8):
        bases = [RMQuotientBasis(n, s - 1, r) for r in range(n + 1) for s in range(r + 1)]
        for idx in enumerate_classes(n, 2):
            for orbit in assignment_orbits(2, idx.spectra):
                if len(orbit) == 1:
                    continue
                merged += 1
                several_orders += len(idx.spectra) > 1
                maps = [packed(_assemble(idx, assignment)) for assignment in orbit]
                for basis in bases:
                    values = {fix_on_quotient(sigma, basis) for sigma in maps}
                    assert len(values) == 1, (idx, orbit, basis)
    assert merged > several_orders > 0


def split_terms(basis, idx, caches):
    """_fixed_terms of idx against fix_on_quotient of each whole
    representative: (split, whole) log2 fixed counts."""
    from aglcount.reps import packed_representative

    split = [e for _, e in _fixed_terms(basis, idx.spectra, idx.unipotent, idx.marker, idx.multiplicity(), 0, caches)]
    whole = [
        fix_on_quotient(packed_representative(idx, assignments), basis).bit_length() - 1
        for assignments, _ in iter_class_representatives(idx)
    ]
    return split, whole


def test_factor_split_matches_whole_representatives():
    # every representative at n <= 7 on every quotient R(r, n)/R(s-1, n),
    # the factors' profiles shared across the indices of one quotient as
    # in a theta call
    pairs = split = 0
    for n in range(1, 8):
        caches = {}
        for idx in enumerate_classes(n, 2):
            split += _semisimple_split(idx.spectra)[3] > 0
            for r in range(n + 1):
                for s in range(r + 1):
                    basis = RMQuotientBasis(n, s - 1, r)
                    got, whole = split_terms(basis, idx, caches.setdefault(basis, ({}, {})))
                    assert got == whole, (idx, basis)
                    pairs += len(whole)
    assert pairs == 8586 and split == 157


def test_factor_split_sends_orders_sharing_a_factor_to_sigma_2():
    # at n = 8, C(f**2) of order 3 and C(f) of order 15: the 15 shares the
    # factor 3 with the mixed order, and keeping it in sigma_s, as an order
    # that is not itself mixed, fails 33 pairs of the n = 8 sweep; at n = 12
    # an order 5 shares a factor only with the 15, and goes to sigma_2 too,
    # though it is prime to every mixed order
    cases = [
        (8, (partition_tuple(3, 1, [(0, 1)]), partition_tuple(15, 2, [(1,)]))),
        (12, (partition_tuple(3, 1, [(0, 1)]), partition_tuple(5, 1, [(1,)]), partition_tuple(15, 2, [(1,)]))),
    ]
    for n, spectra in cases:
        idx = ClassIndex(n=n, q=2, unipotent=(), spectra=spectra)
        idx.validate()
        assert _semisimple_split(spectra)[2:4] == ((False,) * len(spectra), 0)
        bases = [RMQuotientBasis(n, s - 1, r) for r in range(n + 1) for s in range(r + 1)]
        for basis in bases if n == 8 else bases[::7]:
            split, whole = split_terms(basis, idx, ({}, {}))
            assert split == whole, (idx, basis)
    # in the chain 3 - 15 - 35 - 7, the 7 meets the lcm only once the 35 joins it
    chain = [partition_tuple(3, 1, [(0, 1)])] + [partition_tuple(d, 2, [(1,)]) for d in (7, 15, 35)]
    assert _semisimple_split(tuple(chain))[2:4] == ((False,) * 4, 0)
    # with a mixed order 3 and unrelated orders 5 and 7, sigma_s keeps both
    spectra = (partition_tuple(3, 1, [(0, 1)]), partition_tuple(5, 1, [(1,)]), partition_tuple(7, 2, [(1,)]))
    assert _semisimple_split(spectra)[2:4] == ((False, True, True), 7)
    idx = ClassIndex(n=11, q=2, unipotent=(), spectra=spectra)
    idx.validate()
    for s, r in ((1, 3), (0, 4), (2, 5), (3, 7)):
        split, whole = split_terms(RMQuotientBasis(11, s - 1, r), idx, ({}, {}))
        assert split == whole, (s, r)


def direct_sum(*maps):
    """The block-diagonal packed map of the given packed maps, in order."""
    columns, translation = [], 0
    for sigma in maps:
        translation |= sigma.translation << len(columns)
        columns += [c << len(columns) for c in sigma.columns]
    return PackedMap(tuple(columns), translation)


def conjugated(sigma, order):
    """sigma with coordinate i renamed order[i]: the same map up to a
    coordinate permutation, so the same fixed counts."""
    n = len(sigma.columns)
    columns = [0] * n
    for i, c in enumerate(sigma.columns):
        columns[order[i]] = sum(1 << order[j] for j in range(n) if c >> j & 1)
    return PackedMap(tuple(columns), sum(1 << order[i] for i in range(n) if sigma.translation >> i & 1))


def test_factor_split_lemma_on_random_maps():
    # the lemma of _fixed_terms beyond representatives: sigma_s a random sum
    # of one or two companion blocks of irreducibles of degree 2..4 (odd
    # orders, a block may repeat),
    # sigma_2 a random unitriangular affine map with a random translation
    # (2-power order), the sum conjugated by a random coordinate permutation
    from aglcount.fields import irreducibles

    rng = random.Random(40)
    blocks = [pack(companion_matrix(f2, g).entries) for degree in (2, 3, 4) for g in irreducibles(2, degree)]
    checked = 0
    for trial in range(40):
        semisimple = direct_sum(*rng.choices(blocks, k=rng.randint(1, 2)))
        b = rng.randint(0, 9 - len(semisimple.columns))
        entries = [[int(i == j) if i >= j else rng.randrange(2) for j in range(b)] for i in range(b)]
        unipotent = pack(entries, [rng.randrange(2) for _ in range(b)])
        sigma = direct_sum(semisimple, unipotent)
        n, a = len(sigma.columns), len(semisimple.columns)
        whole = conjugated(sigma, rng.sample(range(n), n))
        for r in range(n + 1):
            for s in range(r + 1):
                top = min(a, r)
                g, y = _grades(semisimple, top), _fix_profile(unipotent, s - 1, r, top)
                want = fix_on_quotient(whole, RMQuotientBasis(n, s - 1, r)).bit_length() - 1
                assert sum(map(operator.mul, g, y)) == want, (trial, s, r)
                checked += 1
    assert checked > 1000


def test_theta_profiles_each_factor_once_per_call(monkeypatch):
    # the profile caches live for one theta call: the whole maps and
    # profiles a call takes do not depend on an earlier call in the
    # process, so a traced count cannot depend on the order of a run's cases
    from aglcount import rm

    calls = []
    for name in ("fix_on_quotient", "_fix_profile"):
        real = getattr(rm, name)
        monkeypatch.setattr(rm, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))

    def counts(*args):
        del calls[:]
        theta(*args)
        return calls.count("fix_on_quotient"), len(calls)

    first = counts(8, 2, 4)
    assert 0 < first[0] < first[1], first
    for other in ((8, 2, 4), (8, 1, 3), (7, 2, 4)):
        counts(*other)
        assert counts(8, 2, 4) == first, other


def dimension(spectra):
    return sum(multiplicative_order(2, t.d) * t.total_weight() for t in spectra)


def profiled_grades(spectra, assignments, top):
    """_grades of the companion blocks of the spectra on their packed
    representative: the profile path."""
    return _grades(packed_representative(ClassIndex(dimension(spectra), 2, (), spectra), assignments), top)


def kept_factors(max_n):
    """Every kept factor sigma_s, as (kept spectra, their slots), of every
    class index and every slot assignment a theta call walks at n <= max_n,
    each with its coprime components, as (spectra, slots) pairs."""
    out = {}
    for n in range(1, max_n + 1):
        for idx in enumerate_classes(n, 2):
            spectra_s, _, keep, a, masks = _semisimple_split(idx.spectra)
            if a:
                for assignments, _ in iter_class_representatives(idx):
                    out[spectra_s, tuple(itertools.compress(assignments, keep))] = [
                        (tuple(itertools.compress(idx.spectra, mask)), tuple(itertools.compress(assignments, mask)))
                        for mask in masks
                    ]
    return out


def test_counted_grades_match_profiles_on_every_single_degree_component():
    # at n <= 10, every component of a kept factor whose orders share one
    # degree o: the i-sets of its eigenvalues with product 1 against the
    # profile, at every top; the full grades start 1, 0 (no eigenvalue is
    # 1), are symmetric (the product of all is det = 1) and sum to the
    # point orbits of the component's own class index, with no profile
    factors = kept_factors(10)
    components = {part for parts in factors.values() for part in parts}
    counted = repeated = 0
    for spectra, assignments in components:
        degrees = {multiplicative_order(2, t.d) for t in spectra}
        if len(degrees) > 1:
            continue
        a = dimension(spectra)
        full = _eigenvalue_grades(*degrees, spectra, assignments, a)
        require(full == profiled_grades(spectra, assignments, a), spectra, assignments)
        for top in range(a):
            require(_eigenvalue_grades(*degrees, spectra, assignments, top) == full[: top + 1], spectra, top)
        require(full[:2] == [1, 0] and full == full[::-1], spectra, full)
        require(sum(full) == orbit_exponent(ClassIndex(a, 2, (), spectra)), spectra, full)
        counted += 1
        repeated += any(copies > 1 for t in spectra for copies, in t.entries)
    require((len(factors), len(components), counted) == (90, 57, 36), len(factors), len(components), counted)
    require(repeated > 0, repeated)


def test_grades_of_the_components_convolve_to_the_whole_factor():
    # the split alone, on the profile path: every kept factor at n <= 10
    # has the grades of its coprime components convolved
    for (spectra_s, assignments), parts in kept_factors(10).items():
        a = dimension(spectra_s)
        g = [1] + [0] * a
        for spectra, slots in parts:
            g = _convolve(g, profiled_grades(spectra, slots, dimension(spectra)))
        require(g == profiled_grades(spectra_s, assignments, a), spectra_s, assignments)
    # orders linked by a chain of shared primes form one component: 3 and
    # 5 through 15; with no 15, each order is a component of its own
    spectra = tuple(partition_tuple(d, psi(d, 2), [(1,)]) for d in (3, 5, 7, 15))
    require(_semisimple_split(spectra)[4] == ((True, True, False, True), (False, False, True, False)))
    require(_semisimple_split(spectra[:3])[4] == tuple(tuple(i == j for j in range(3)) for i in range(3)))


def test_theta_counts_grades_without_changing_a_count(monkeypatch):
    # with the count switched off, every component is profiled, and
    # theta is unchanged; on, only the components that span several
    # degrees are profiled: 9 of 35 at theta(9; 2, 3), 21 of 57 at
    # theta(10; 1, 2)
    from aglcount import rm

    calls = []
    for name in ("_grades", "_eigenvalue_grades"):
        real = getattr(rm, name)
        monkeypatch.setattr(rm, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    counted = {}
    for args, profiled, components in (((9, 2, 3), 9, 35), ((10, 1, 2), 21, 57)):
        del calls[:]
        counted[args] = theta(*args)
        require((calls.count("_grades"), len(calls)) == (profiled, components), args, calls.count("_grades"), len(calls))
    monkeypatch.setattr(rm, "_eigenvalue_grades", lambda degree, spectra, assignments, top: profiled_grades(spectra, assignments, top))
    for args, value in counted.items():
        require(theta(*args) == value, args)


def test_a_pooled_task_pickles_a_copy_of_the_caches():
    # the parent fills theta's caches while the executor's feeder thread
    # pickles the tasks; a key whose pickling adds an entry stands for the
    # parent's fold between two bytecodes of that thread, which a plain
    # dict refuses in mid-iteration
    import pickle

    from aglcount.rm import _CallCaches

    class Intruder(tuple):
        def __reduce__(self):
            target[object()] = 0
            return tuple, (tuple(self),)

    target = {Intruder((1,)): 1, Intruder((2,)): 2}
    with pytest.raises(RuntimeError, match="changed size"):
        pickle.dumps(target)
    target = {Intruder((1,)): 1, Intruder((2,)): 2}
    copy = pickle.loads(pickle.dumps(_CallCaches((target, {3: 4}))))
    assert type(copy) is _CallCaches and copy == ({(1,): 1, (2,): 2}, {3: 4})
    assert len(target) == 4


def test_theta_duality():
    for n in range(1, 5):
        for s in range(n + 1):
            for r in range(s, n + 1):
                assert theta(n, s, r) == theta(n, n - r, n - s), (n, s, r)


def test_coset_class_count_values():
    # M(n) = theta(n; 2, n)
    assert theta(2, 2, 2) == 2
    assert theta(3, 2, 3) == 3
    assert theta(3, 2, 3) == orbit_enumeration_code(3, 1)
    assert theta(2, 2, 2) == orbit_enumeration_code(2, 0)
    with pytest.raises(ValueError):
        theta(1, 2, 1)


def test_coset_count_matches_full_group_oracle():
    # every per-class quotient, M(n) among them, against the sum over every
    # element of the group
    for n in (1, 2, 3):
        for s, r in per_class_families(n):
            assert theta(n, s, r) == burnside_full_theta(n, s, r), (n, s, r)


def orbit_rows(sigma):
    """The orbit sums over the monomials of degree <= 1 from the point walk:
    (|O| mod 2, sum of O), one row per cycle O of the point permutation; on
    F_2**n the point sum is the XOR of the codes."""
    perm = point_permutation(sigma)
    seen = bytearray(len(perm))
    rows = []
    for start in range(len(perm)):
        length = acc = 0
        cur = start
        while not seen[cur]:
            seen[cur] = 1
            acc ^= cur
            cur = perm[cur]
            length += 1
        if length:
            rows.append(length & 1 | acc << 1)
    return rows


def test_affine_rank_closed_form_matches_walk():
    # every unipotent partition of weight <= 11 with every marker: 617 pairs
    pairs = 0
    for k in range(1, 12):
        for lam in enumerate_partitions(k):
            for t in [None] + [j for j, m in enumerate(lam, start=1) if m]:
                rep = build_representative(ClassIndex(n=k, q=2, unipotent=lam, spectra=(), marker=t))
                assert gf2_rank(orbit_rows(rep)) == _orbit_sum_rank(1, lam, t), (lam, t)
                pairs += 1
    assert pairs == 617


def test_affine_rank_depends_on_the_unipotent_part_alone():
    # the lemma: every folded class at n <= 8, spectra and all: 911 maps,
    # of which the old single-entry collapse walked 635; and rho_0, whether
    # some orbit has odd length, is 1 exactly for the unmarked indices
    reps = 0
    for n in range(1, 9):
        for idx in enumerate_classes(n, 2):
            for rep, _ in full_expansion(idx):
                rows = orbit_rows(rep)
                assert gf2_rank(rows) == _orbit_sum_rank(1, idx.unipotent, idx.marker), idx
                assert any(row & 1 for row in rows) == _orbit_sum_rank(0, idx.unipotent, idx.marker), idx
                assert _orbit_sum_rank(-1, idx.unipotent, idx.marker) == 0
                reps += 1
    assert reps == 911


def test_per_class_quotients_match_representatives():
    # the quotients of dual degree <= 1 are exactly the five families, and
    # their per-class terms give the representatives' count, serial at
    # n <= 9 and pooled at n = 8, with one worker and the parent, and with
    # two workers and the parent under either start method
    for n in range(1, 10):
        pairs = [(s, r) for r in range(n + 1) for s in range(r + 1)]
        assert {pair for pair in pairs if _dual_degree(n, *pair) is not None} == set(per_class_families(n)), n
        for s, r in per_class_families(n):
            assert theta(n, s, r) == representative_count(n, s, r), (n, s, r)
    counts = {(s, r): representative_count(8, s, r) for s, r in per_class_families(8)}
    for (s, r), count in counts.items():
        assert theta(8, s, r, jobs=2) == count, (s, r)
    for method in ("fork", "forkserver"):
        with start_method(method):
            for (s, r), count in counts.items():
                assert theta(8, s, r, jobs=3) == count, (method, s, r)


def test_both_quotient_readings_agree():
    # orbits of R(n-2, n) and orbits of functions modulo affine functions
    for n in range(2, 6):
        assert theta(n, 0, n - 2) == theta(n, 2, n)


def test_theta_parallel_identical():
    serial = {args: theta(*args) for args in ((5, 0, 3), (6, 1, 4))}
    for method in ("fork", "forkserver"):
        with start_method(method):
            for jobs in (2, 3):
                for args, count in serial.items():
                    assert theta(*args, jobs=jobs) == count, (method, jobs, args)


def test_theta_progress_on_both_paths():
    from aglcount.conjugacy import enumerate_classes

    indices = sum(1 for _ in enumerate_classes(6, 2))
    for jobs in (1, 2, 3):
        seen = []
        theta(6, 1, 4, jobs=jobs, progress=seen.append)
        assert len(seen) > 1, jobs
        assert all(a < b for a, b in zip(seen, seen[1:])), (jobs, seen)
        assert seen[-1] == indices, (jobs, seen)


def test_theta_matches_reference_sum():
    # the plain sum over every folded class, one map each with weight 1 and
    # no orbit grouping, on every quotient with n <= 7, and on theta(9; 2, 3),
    # where orders 7 and 21 (or 63) share a factor, so the unit group acts
    # on their slots together and not independently
    from aglcount.formulas import centralizer_order
    from aglcount.numtheory import agl_group_order

    pairs = [(n, s, r) for n in range(1, 8) for r in range(n + 1) for s in range(r + 1)]
    for n, cases in itertools.groupby(pairs + [(9, 2, 3)], key=lambda case: case[0]):
        order = agl_group_order(n, 2)
        expanded = [
            (order // centralizer_order(idx), [rep for rep, _ in full_expansion(idx)])
            for idx in enumerate_classes(n, 2)
        ]
        for _, s, r in cases:
            basis = RMQuotientBasis(n, s - 1, r)
            reference = sum(size * fix_on_quotient(packed(rep), basis) for size, maps in expanded for rep in maps)
            assert reference % order == 0, (n, s, r)
            assert theta(n, s, r) == reference // order, (n, s, r)


def test_representatives_per_theta_call():
    # one representative per power orbit: 260 of the 315 maps the old
    # single-entry collapse built at n = 8, 790 of 1,252 at n = 10
    for n, want in ((8, 260), (10, 790)):
        got = sum(1 for idx in enumerate_classes(n, 2) for _ in iter_class_representatives(idx))
        assert got == want, n
