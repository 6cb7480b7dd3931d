import itertools
import math
from functools import lru_cache

import pytest

from aglcount import fields, linalg, reps
from aglcount.conjugacy import ClassIndex, PartitionTuple, enumerate_classes
from aglcount.fields import field, poly_pow
from aglcount.numtheory import divisors, multiplicative_order, psi
from aglcount.reps import (
    build_representative,
    irreducibles_of_order,
    iter_class_representatives,
    verify_class,
)
from aglcount.linalg import GFMatrix, companion_matrix, jordan_block, point_permutation
from brute import conjugacy_class, group_perms
from test_conjugacy import partition_tuple, permutation_count
from test_fields import root_order, table_irreducibles, table_order
from test_linalg import affine_powers, cyclic_orbit_count, fixed_point_count, identity_map


def shapes(idx):
    """The key of the index's slot orbits in `reps._moving_orbits`: the
    shapes of its spectra with psi(d) > 1."""
    return tuple(shape for shape in map(reps._shape, idx.spectra) if shape[1] > 1)


def assignment_orbits(q, spectra):
    """The orbits of `reps._moving_orbits` for these spectra, each assignment
    with the one slot (0,) of every spectrum with psi(d) = 1 put back in its
    place."""

    def full(moving):
        rest = iter(moving)
        return tuple(next(rest) if t.psi > 1 else (0,) for t in spectra)

    moving = tuple(reps._shape(t) for t in spectra if t.psi > 1)
    return [[full(a) for a in orbit] for orbit in reps._moving_orbits(q, moving)]


def assemble_all(idx):
    """(map, weight) for each yielded slot assignment, laid out densely."""
    return [(reps._assemble(idx, a), weight) for a, weight in iter_class_representatives(idx)]


def test_irreducibles_of_order_examples():
    polys = irreducibles_of_order(7, 2)
    assert set(polys) == {(1, 1, 0, 1), (1, 0, 1, 1)}  # x^3+x+1, x^3+x^2+1
    assert irreducibles_of_order(1, 2) == ((1, 1),)  # x + 1
    assert irreducibles_of_order(1, 3) == ((2, 1),)  # x - 1
    assert irreducibles_of_order(3, 2) == ((1, 1, 1),)


def test_irreducible_counts_match_psi():
    # full sweep guarded by scan size q**degree
    from aglcount.conjugacy import compute_D

    for q, n in ((2, 10), (3, 7), (4, 5), (5, 5)):
        for d in compute_D(n, q):
            degree = multiplicative_order(q, d)
            if q**degree > 4096:
                continue
            polys = irreducibles_of_order(d, q)
            assert len(polys) == psi(d, q), (q, d)
            for poly in polys:
                assert len(poly) - 1 == degree
                assert root_order(field(q), poly) == d


def test_binary_irreducibles_of_order_match_the_table_filter():
    # every d with o_d(2) <= 10: the odd divisors of 2**m - 1, m <= 10
    f = field(2)
    orders = {g: table_order(f, g) for k in range(1, 11) for g in table_irreducibles(k) if g[0]}
    for d in sorted({d for m in range(1, 11) for d in divisors(2**m - 1)}):
        degree = multiplicative_order(2, d)
        want = tuple(g for g in table_irreducibles(degree) if orders.get(g) == d)
        assert irreducibles_of_order(d, 2) == want, d


def test_missing_irreducible_fails_the_psi_count(monkeypatch):
    # the cubics without x^3 + x^2 + 1 leave one of the psi(7) = 2
    def dropped(q, degree):
        return {g: c for g, c in fields._root_exponents(q, degree).items() if g != (1, 0, 1, 1)}

    monkeypatch.setattr(reps, "_root_exponents", dropped)
    reps.irreducibles_of_order.cache_clear()
    try:
        with pytest.raises(AssertionError, match="found 1 irreducibles of order 7"):
            irreducibles_of_order(7, 2)
    finally:
        monkeypatch.undo()
        reps.irreducibles_of_order.cache_clear()
    assert len(irreducibles_of_order(7, 2)) == psi(7, 2)


def test_irreducible_records_sorted_and_valid():
    f = field(2)
    polys = irreducibles_of_order(15, 2)
    assert list(polys) == sorted(polys)
    for poly in polys:
        assert root_order(f, poly) == 15
        # divisor ladder double-check: x^15 = 1 mod f, x^5 != 1, x^3 != 1
        assert poly_pow(f, (0, 1), 15, poly) == (1,)
        assert poly_pow(f, (0, 1), 5, poly) != (1,)
        assert poly_pow(f, (0, 1), 3, poly) != (1,)


def test_build_representative_trivial_cases():
    ident = build_representative(ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=None))
    assert ident == identity_map(field(2), 1)
    shift = build_representative(ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=1))
    assert shift.matrix == GFMatrix.identity(field(2), 1)
    assert shift.translation == (1,)


def test_build_representative_worked_example_dimension():
    spec = partition_tuple(7, psi(7, 2), [(1, 2), (2, 0, 1)])
    for marker in (None, 3):
        idx = ClassIndex(n=36, q=2, unipotent=(3, 0, 1), spectra=(spec,), marker=marker)
        rep = build_representative(idx)
        assert rep.dim == 36
        translated = sum(rep.translation)
        assert translated == (1 if marker else 0)


def test_dimension_always_matches():
    for q, nmax in ((2, 5), (3, 4)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                assert build_representative(idx).dim == n


def test_rejects_inconsistent_index():
    # the representative walk trusts the indices `enumerate_classes` builds;
    # an index from outside goes through build_representative, which checks it
    bad = ClassIndex(n=3, q=2, unipotent=(1,), spectra=(), marker=None)
    with pytest.raises(ValueError):
        build_representative(bad)
    with pytest.raises(ValueError):
        verify_class(bad)


def test_shared_blocks_match_a_fresh_build(monkeypatch):
    # every block rebuilt afresh must give the same maps as the cached,
    # shared blocks; x^2 + x + 1 is irreducible over F_2 and F_5, and the
    # unipotent blocks have the same entries over every field
    def fresh_companion(q, poly, j):
        f = field(q)
        return companion_matrix(f, poly_pow(f, poly, j))

    def fresh_unipotent(q, size):
        return jordan_block(field(q), size)

    def sweep():
        return [
            (build_representative(idx), assemble_all(idx), packed_all(idx) if q == 2 else None)
            for q, n in ((2, 6), (3, 3), (5, 2))
            for idx in enumerate_classes(n, q)
        ]

    def packed_all(idx):
        return [reps.packed_representative(idx, a) for a, _ in iter_class_representatives(idx)]

    cached = sweep()
    monkeypatch.setattr(reps, "_companion_power", fresh_companion)
    monkeypatch.setattr(reps, "_unipotent_block", fresh_unipotent)
    assert cached == sweep()


def test_representative_blocks_ranked_once_and_singular_refused(monkeypatch):
    # x^2 + x and x have constant term 0: their companions are singular,
    # and the cached block builder refuses them
    with pytest.raises(ValueError, match="singular"):
        reps._companion_power(2, (0, 1, 1), 1)
    with pytest.raises(ValueError, match="singular"):
        reps._companion_power(3, (0, 1), 2)
    # representatives built again from the cached blocks are the same
    indices = list(enumerate_classes(6, 2))
    first = [build_representative(idx) for idx in indices]
    again = [build_representative(idx) for idx in indices]
    assert again == first
    assert all(linalg.rank(GFMatrix(field(2), rep.matrix.entries)) == 6 for rep in again)
    # a singular block that slipped past the builder is still refused
    def singular_companion(q, poly, j):
        return companion_matrix(field(q), (0,) * ((len(poly) - 1) * j) + (1,))

    monkeypatch.setattr(reps, "_companion_power", singular_companion)
    assert indices[-1].spectra
    with pytest.raises(ValueError, match="invertible"):
        build_representative(indices[-1])


def test_verify_class_examples():
    report = verify_class(ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=1))
    assert report.ok
    assert report.order_matrix == 2
    assert report.orbit_matrix == 1

    order3 = ClassIndex(
        n=2, q=2, unipotent=(), spectra=(partition_tuple(3, 1, [(1,)]),), marker=None
    )
    report = verify_class(order3)
    assert report.ok
    assert report.order_matrix == 3
    assert report.orbit_matrix == 2


def test_verify_class_exhaustive_small():
    for q, nmax in ((2, 3), (3, 2), (4, 2), (5, 1)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                report = verify_class(idx)
                assert report.ok, report.describe()


def test_verify_class_matches_power_walk(monkeypatch):
    # verify_class reads the order, the fixed points of every divisor power
    # and the orbit count from one point permutation; the references compose
    # sigma with itself, count fixed points by two F_q ranks and follow each
    # point under the test-local apply
    cases = [
        (idx, verify_class(idx))
        for q, nmax in ((2, 5), (3, 4))
        for n in range(1, nmax + 1)
        for idx in enumerate_classes(n, q)
    ]
    # a formula no count can meet (q**(n+1) fixed points) makes every
    # compared power a mismatch, which exposes the matrix-side count
    monkeypatch.setattr(reps, "fix_exponent_at", lambda idx, k: idx.n + 1)
    for idx, report in cases:
        assert report.ok, report.describe()
        rep = build_representative(idx)
        powers = affine_powers(rep)
        assert report.order_matrix == len(powers), idx
        assert report.orbit_matrix == cyclic_orbit_count(rep), idx
        exposed = [(k, got) for k, _, got in verify_class(idx).fix_mismatches]
        want = [(k, fixed_point_count(powers[k - 1])) for k in divisors(len(powers))]
        assert exposed == want, idx


def test_verify_class_guard():
    idx = ClassIndex(n=36, q=2, unipotent=(36,), spectra=(), marker=None)
    with pytest.raises(ValueError):
        verify_class(idx)


def test_representatives_pairwise_non_conjugate():
    for n in range(1, 4):
        reps = []
        for idx in enumerate_classes(n, 2):
            for rep, _ in assemble_all(idx):
                reps.append(rep)
        classes = [conjugacy_class(rep) for rep in reps]
        perms = [tuple(point_permutation(rep)) for rep in reps]
        assert set(perms) <= set(group_perms(n, 2))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert perms[j] not in classes[i], (i, j)


def test_expansion_weights_sum_to_multiplicity(monkeypatch):
    for q, nmax in ((2, 8), (3, 4)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                weights = [w for _, w in iter_class_representatives(idx)]
                assert sum(weights) == idx.multiplicity()
    # an orbit lost from the cache is refused with an exception, which
    # stripping asserts does not remove
    idx = ClassIndex(n=10, q=2, unipotent=(), spectra=(partition_tuple(31, 6, [(1,), (1,)]),))
    orbits = reps._moving_orbits(2, shapes(idx))
    assert len(orbits) == 3
    monkeypatch.setattr(reps, "_moving_orbits", lambda q, shapes: orbits[1:])
    with pytest.raises(AssertionError, match="multiplicity"):
        list(iter_class_representatives(idx))


def minimal_polynomial(f, powers, exponents):
    """prod (X - alpha**e) over one cyclotomic coset of exponents, with
    coefficients in F_q[alpha] held as the powers are: packed ints at q = 2,
    coordinate tuples otherwise (test reference)."""
    binary = f.q == 2
    zero = 0 if binary else (0,) * len(powers[0])
    coeffs = [powers[0]]
    for e in exponents:
        out = []
        for a, y in zip([zero, *coeffs], [*coeffs, zero]):
            if binary:
                while y:
                    low = y & -y
                    a ^= powers[e + low.bit_length() - 1]
                    y ^= low
            else:
                for i, c in enumerate(y):
                    if c:
                        a = tuple(f.sub(u, f.mul(c, v)) for u, v in zip(a, powers[e + i]))
            out.append(a)
        coeffs = out
    assert not any(c >> 1 if binary else any(c[1:]) for c in coeffs)
    return tuple(c if binary else c[0] for c in coeffs)


@lru_cache(maxsize=None)
def coset_product_slot_table(d, q):
    """(slot, first): slot[c] is the index in irreducibles_of_order(d, q)
    of the minimal polynomial of alpha**c, alpha = x modulo the first of
    them, for each unit c mod d (-1 at the other residues), and first[k] is
    the least c of slot k.  Each unit coset of c mod d multiplies out
    prod (X - alpha**e) and looks the product up (test reference)."""
    polys = irreducibles_of_order(d, q)
    f, g0 = field(q), polys[0]
    degree = len(g0) - 1
    powers = []
    y = 1 if q == 2 else (1,) + (0,) * (degree - 1)
    packed = sum(c << i for i, c in enumerate(g0))
    for _ in range(d + degree):
        powers.append(y)
        if q == 2:
            y = y << 1 ^ (packed if y >> degree - 1 else 0)
        else:
            y = tuple(f.sub(low, f.mul(y[-1], c)) for low, c in zip((0, *y[:-1]), g0))
    lookup = {g: k for k, g in enumerate(polys)}
    slot, first = [-1] * d, [0] * len(polys)
    for c in range(d):
        if slot[c] < 0 and math.gcd(c, d) == 1:
            coset = [c * q**i % d for i in range(degree)]
            k = lookup[minimal_polynomial(f, powers, coset)]
            assert not first[k]
            first[k] = c
            for e in coset:
                slot[e] = k
    return tuple(slot), tuple(first)


def test_slot_moves_match_the_coset_products():
    # every unit j mod d, for every d with o_d(2) <= 12, and with
    # o_d(q) <= 3 at q = 3, 4, 5 and 9: j sends slot k to the slot of
    # alpha**(c j), alpha**c the least root of slot k in the reference
    checked = 0
    for q, top in ((2, 12), (3, 3), (4, 3), (5, 3), (9, 3)):
        for d in sorted({d for m in range(1, top + 1) for d in divisors(q**m - 1)}):
            slot, first = coset_product_slot_table(d, q)
            units = [j for j in range(1, d + 1) if math.gcd(j, d) == 1]
            want = [tuple(slot[c * j % d] for c in first) for j in units]
            assert reps._slot_moves(q, d, units) == want, (q, d)
            checked += len(units)
    # one unit per root of every irreducible but x of degree <= 12 over F_2,
    # and per element of F_(q**3)* and F_(q**2)* over F_q
    binary = 2 + 2 + 6 + 12 + 30 + 54 + 126 + 240 + 504 + 990 + 2046 + 4020 - 1
    assert checked == binary + sum(q**3 + q**2 - q - 1 for q in (3, 4, 5, 9))


def test_a_move_that_is_not_a_permutation_is_refused(monkeypatch):
    # x^3 + x^2 + 1 given an exponent in the coset of x^3 + x + 1: both
    # irreducibles still have order 7, but even the unit 1 sends both to
    # one slot, and the move is refused with an exception, which stripping
    # asserts does not remove
    polys = irreducibles_of_order(7, 2)
    exponents = dict(fields._root_exponents(2, 3))
    exponents[(1, 0, 1, 1)] = exponents[(1, 1, 0, 1)] * 2 % 7
    monkeypatch.setattr(reps, "_root_exponents", lambda q, degree: exponents)
    with pytest.raises(AssertionError, match="the unit 1 does not permute the order-7 slots"):
        reps._slot_moves(2, 7, (1, 3))
    monkeypatch.undo()
    assert polys == ((1, 0, 1, 1), (1, 1, 0, 1))
    assert reps._slot_moves(2, 7, (1, 3)) == [(0, 1), (1, 0)]


def spectra_orbits(q, spectra):
    """(first assignment, orbit) for each orbit of the slot assignments of
    these spectra under every unit mod the lcm of the orders with more than
    one slot, computed from the spectra themselves and the coset-product
    slot tables: their entries tie slots and sort the moved assignments
    (test reference)."""

    def assignments(t):
        ties = [i for i in range(len(t.entries) - 1) if t.entries[i] == t.entries[i + 1]]
        for slots in itertools.permutations(range(t.psi), len(t.entries)):
            if all(slots[i] < slots[i + 1] for i in ties):
                yield slots

    def moved(t, j):
        slot, first = coset_product_slot_table(t.d, q)
        return tuple(slot[c * j % t.d] for c in first)

    level = math.lcm(*(t.d for t in spectra if t.psi > 1))
    units = [j for j in range(1, level + 1) if math.gcd(j, level) == 1]
    moves = [tuple(moved(t, j) if t.psi > 1 else (0,) for t in spectra) for j in units]
    # entry positions numbered by run of equal entries
    runs = [tuple(itertools.accumulate((a != b for a, b in zip(t.entries, t.entries[1:])), initial=0)) for t in spectra]
    seen, orbits = set(), []
    for start in itertools.product(*map(assignments, spectra)):
        if start in seen:
            continue
        orbit = {
            tuple(
                tuple(s for _, s in sorted(zip(run, map(perm.__getitem__, slots))))
                for perm, run, slots in zip(perms, runs, start)
            )
            for perms in moves
        }
        seen |= orbit
        orbits.append((start, orbit))
    return orbits


def test_assignment_orbits_match_the_per_spectra_orbits():
    # every spectra tuple at n <= 10 over F_2 and n <= 5 over F_3 and F_4
    tuples = 0
    for q, nmax in ((2, 10), (3, 5), (4, 5)):
        for spectra in {idx.spectra for n in range(1, nmax + 1) for idx in enumerate_classes(n, q)}:
            got = [(orbit[0], set(orbit)) for orbit in assignment_orbits(q, spectra)]
            assert got == spectra_orbits(q, spectra), spectra
            tuples += 1
    assert tuples == 317


def test_one_shape_computes_its_orbits_once():
    # the order-7 slots of x^3 + x + 1 and x^3 + x^2 + 1 take two distinct
    # entries the same way, whatever the partitions: one shape, one orbit
    # computation, and the second index reads the cached orbits
    first = ClassIndex(n=9, q=2, unipotent=(), spectra=(partition_tuple(7, 2, [(1,), (2,)]),))
    second = ClassIndex(n=12, q=2, unipotent=(), spectra=(partition_tuple(7, 2, [(1,), (0, 0, 1)]),))
    assert first.spectra != second.spectra and shapes(first) == shapes(second)
    reps._moving_orbits.cache_clear()
    assert list(iter_class_representatives(first)) == list(iter_class_representatives(second))
    info = reps._moving_orbits.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_orders_with_one_slot_share_the_orbits():
    # beside the two order-7 slots, an order with one slot (psi = 1: d = 3,
    # 5 or 9 over F_2), before or after them, never moves: one orbit
    # computation, and the same orbits with (0,) in its place
    seven = partition_tuple(7, 2, [(1,), (2,)])
    indices = [
        ClassIndex(n=11, q=2, unipotent=(), spectra=(partition_tuple(3, 1, [(1,)]), seven)),
        ClassIndex(n=13, q=2, unipotent=(), spectra=(partition_tuple(5, 1, [(1,)]), seven)),
        ClassIndex(n=15, q=2, unipotent=(), spectra=(seven, partition_tuple(9, 1, [(1,)]))),
    ]
    reps._moving_orbits.cache_clear()
    for idx in indices:
        idx.validate()
    walks = [list(iter_class_representatives(idx)) for idx in indices]
    info = reps._moving_orbits.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    moving = reps._moving_orbits(2, (reps._shape(seven),))
    assert [len(orbit) for orbit in moving] == [2]
    assert walks[0] == walks[1] == [(((0,), orbit[0][0]), len(orbit)) for orbit in moving]
    assert walks[2] == [((orbit[0][0], (0,)), len(orbit)) for orbit in moving]
    assert assignment_orbits(2, indices[2].spectra) == [[(a, (0,)) for (a,) in orbit] for orbit in moving]


def test_expansion_covers_distinct_classes():
    # every expanded representative for one index is non-conjugate to the
    # others, and together they exhaust the fold multiplicity
    for idx in enumerate_classes(3, 2):
        reps = assemble_all(idx)
        if len(reps) == 1:
            continue
        sets = [conjugacy_class(rep) for rep, _ in reps]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])


def test_distinct_assignments_enumerate_exactly_the_fold():
    # distinct slot -> partition maps <-> distinct elementary-divisor
    # multisets, so pairwise-distinct maps whose count equals the fold size
    # enumerate exactly the classes folded into one index
    from aglcount.reps import _distinct_assignments

    cases = [
        (7, 2, [(1,), (2,)]),
        (31, 6, [(1,), (1,)]),
        (31, 6, [(1,), (2,)]),
        (31, 6, [(1,), (1,), (2,)]),
        (15, 4, [(3,)]),
        (5, 3, [(1,), (1,), (1,)]),
    ]
    for d, psi_d, entries in cases:
        tup = PartitionTuple(d=d, psi=psi_d, entries=tuple(sorted(entries)))
        assignments = list(_distinct_assignments(reps._shape(tup)))
        assert len(assignments) == permutation_count(tup), (d, entries)
        maps = set()
        for assignment in assignments:
            assert len(set(assignment)) == len(assignment)  # distinct slots
            assert all(0 <= slot < psi_d for slot in assignment)
            # the induced slot -> partition map must reproduce the multiset
            placed = tuple(sorted(zip(assignment, tup.entries)))
            assert sorted(e for _, e in placed) == sorted(tup.entries)
            maps.add(placed)
        assert len(maps) == len(assignments), (d, entries)
    # the canonical representative is the first one the fold enumerates
    for q, nmax in ((2, 7), (3, 4), (4, 3), (5, 3), (7, 2), (9, 2)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                first, _ = next(iter_class_representatives(idx))
                assert build_representative(idx) == reps._assemble(idx, first), idx


def test_packed_layout_matches_the_dense_layout():
    # every assignment of every orbit at q = 2, n <= 8: the packed layout
    # from the blocks' cached columns is the packed dense layout
    from test_linalg import packed

    checked = 0
    for n in range(1, 9):
        for idx in enumerate_classes(n, 2):
            for orbit in assignment_orbits(2, idx.spectra):
                for assignments in orbit:
                    want = packed(reps._assemble(idx, assignments))
                    assert reps.packed_representative(idx, assignments) == want, (idx, assignments)
                    checked += 1
    assert checked == sum(1 for n in range(1, 9) for idx in enumerate_classes(n, 2) for _ in range(idx.multiplicity()))
    with pytest.raises(ValueError, match="binary"):
        reps.packed_representative(next(enumerate_classes(2, 3)), ())


def test_packed_point_walk_matches_the_dense_walk():
    # every binary representative a theta call builds at n <= 8: the point
    # table of the packed map, by linearity in XORs, is the dense walk's
    walked = 0
    for n in range(1, 9):
        for idx in enumerate_classes(n, 2):
            for assignments, _ in iter_class_representatives(idx):
                want = point_permutation(reps._assemble(idx, assignments))
                assert point_permutation(reps.packed_representative(idx, assignments)) == want, idx
                walked += 1
    assert walked == 2 + 5 + 10 + 22 + 40 + 80 + 140 + 260


def test_theta_builds_no_dense_map(monkeypatch):
    # with the shared blocks cached, theta lays every representative out
    # packed: no dense layout, block-diagonal, matrix or affine map, on the
    # substitution side and on the point walk of the dual side
    from aglcount.rm import theta

    want = theta(6, 1, 3), theta(6, 0, 3), theta(6, 0, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("dense representative built")

    monkeypatch.setattr(reps, "_assemble", refuse)
    monkeypatch.setattr(reps, "block_diagonal", refuse)
    monkeypatch.setattr(linalg, "block_diagonal", refuse)
    monkeypatch.setattr(reps, "AffineMap", refuse)
    monkeypatch.setattr(GFMatrix, "__init__", refuse)
    assert (theta(6, 1, 3), theta(6, 0, 3), theta(6, 0, 6)) == want
