import contextlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from aglcount import conjugacy, formulas
from aglcount.conjugacy import ClassIndex, enumerate_classes
from aglcount.formulas import (
    burnside_count,
    burnside_total,
    centralizer_order,
    class_equation_total,
    count_function_classes,
    element_order,
    fix_exponent_at,
    orbit_exponent,
)
from aglcount.numtheory import (
    agl_group_order,
    divisors,
    euler_phi,
    factorize,
    multiplicative_order,
    p_adic_valuation,
    prime_power,
    psi,
)
from aglcount.oracle import burnside_full, orbit_enumeration
from aglcount.partitions import enumerate_partitions
from aglcount.reps import build_representative
from aglcount.rm import _rank_terms, theta
import planted
from brute import brute_centralizer
from test_conjugacy import partition_tuple, permutation_count
from test_linalg import affine_order, cyclic_orbit_count, fixed_point_count, then


def worked_example(marker):
    spec = partition_tuple(7, psi(7, 2), [(1, 2), (2, 0, 1)])
    return ClassIndex(n=36, q=2, unipotent=(3, 0, 1), spectra=(spec,), marker=marker)


def test_centralizer_worked_example_exact():
    assert centralizer_order(worked_example(None)) == 2**63 * 3**5 * 7**7
    assert centralizer_order(worked_example(3)) == 2**60 * 3**5 * 7**7


def test_centralizer_of_identity_is_group_order():
    ident = ClassIndex(n=2, q=2, unipotent=(2,), spectra=(), marker=None)
    assert centralizer_order(ident) == agl_group_order(2, 2) == 24


def test_centralizer_matches_brute_force():
    for q, nmax in ((2, 3), (3, 2)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                rep = build_representative(idx)
                assert brute_centralizer(rep) == centralizer_order(idx), idx


def per_index_centralizer(idx):
    # the per-index loop: q-exponent and unit product over every partition
    q, lam, t = idx.q, idx.unipotent, idx.marker

    def pairwise(mu):
        return sum(min(j, k) * mj * mk for j, mj in enumerate(mu, 1) for k, mk in enumerate(mu, 1))

    exponent = (sum(lam) if t is None else sum(lam[t - 1 :])) + pairwise(lam)
    denom_exp, units = 0, 1
    for mj in lam:
        for l in range(1, mj + 1):
            units *= q**l - 1
            denom_exp += l
    for spectrum in idx.spectra:
        o = multiplicative_order(q, spectrum.d)
        for entry in spectrum.entries:
            exponent += o * pairwise(entry)
            for mj in entry:
                for u in range(1, mj + 1):
                    units *= q ** (o * u) - 1
                    denom_exp += o * u
    if t is not None:
        head = q ** lam[t - 1] - 1
        assert units % head == 0, idx
        units //= head
    assert exponent >= denom_exp, idx
    return q ** (exponent - denom_exp) * units


def per_index_element_order(idx):
    # lcm of the orders d times the p-power covering the largest part
    p = prime_power(idx.q).p
    m_uni = len(idx.unipotent)
    m_spectra = max((len(e) for s in idx.spectra for e in s.entries), default=0)
    lift = 0
    while p**lift < max(m_uni, m_spectra):
        lift += 1
    order = math.lcm(*(s.d for s in idx.spectra)) * p**lift
    t = idx.marker
    if t is not None and t == m_uni and t >= m_spectra and t == p ** p_adic_valuation(t, p):
        order *= p
    return order


def test_centralizer_and_order_match_per_index_formulas():
    for q, n in ((2, 10), (3, 6), (4, 5), (5, 5), (7, 4), (8, 4), (9, 3)):
        marked = 0
        for idx in enumerate_classes(n, q):
            marked += idx.marker is not None
            assert centralizer_order(idx) == per_index_centralizer(idx), idx
            assert element_order(idx) == per_index_element_order(idx), idx
        assert marked, (q, n)


def test_element_order_examples():
    ident = ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=None)
    assert element_order(ident) == 1
    translation = ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=1)
    assert element_order(translation) == 2
    # the 36-dim example: verified by powering the explicit matrix
    for marker in (None, 3):
        idx = worked_example(marker)
        assert element_order(idx) == affine_order(build_representative(idx)) == 28


def test_fix_exponent_examples():
    idx = worked_example(None)
    assert fix_exponent_at(idx, 1) == 4
    rep = build_representative(idx)
    assert fixed_point_count(rep) == 2**4
    assert fix_exponent_at(idx, element_order(idx)) == 36

    translation = ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=1)
    assert fix_exponent_at(translation, 1) is None
    assert fix_exponent_at(translation, 2) == 1
    with pytest.raises(ValueError):
        fix_exponent_at(idx, 0)


def test_orbit_exponent_examples():
    ident = ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=None)
    assert orbit_exponent(ident) == 2
    translation = ClassIndex(n=1, q=2, unipotent=(1,), spectra=(), marker=1)
    assert orbit_exponent(translation) == 1
    order3 = ClassIndex(
        n=2, q=2, unipotent=(), spectra=(partition_tuple(3, 1, [(1,)]),), marker=None
    )
    assert orbit_exponent(order3) == 2
    assert cyclic_orbit_count(build_representative(order3)) == 2


def test_count_function_classes_against_oracles():
    for q, n in [(2, 1), (2, 2), (3, 1)]:
        value = count_function_classes(n, q)
        assert value == burnside_full(n, q)
        assert value == orbit_enumeration(n, q)
    assert count_function_classes(1, 2) == 3
    assert count_function_classes(2, 2) == 5
    assert count_function_classes(1, 3) == 10


def test_count_function_classes_n0_convention():
    assert count_function_classes(0, 2) == 2
    assert count_function_classes(0, 5) == 5
    with pytest.raises(ValueError):
        count_function_classes(2, 6)


def test_class_equation_small():
    for q in (2, 3, 4, 5):
        for n in range(1, 6):
            assert class_equation_total(n, q) == agl_group_order(n, q), (q, n)


def test_burnside_count_checks_the_division():
    # the orbit terms give the count, the class terms one orbit (the group
    # acting on one point), and the identity alone 1 / |AGL(1, F_2)|
    assert burnside_count(4, 3, formulas._orbit_terms) == count_function_classes(4, 3)
    assert burnside_count(4, 3, formulas._class_terms) == 1

    def identity_terms(spectra, unipotent, marker, multiplicity, orbits):
        # at n = 1, q = 2 only the identity has q**n = 2 point orbits
        return ((multiplicity, 0),) if orbits == 2 else ()

    with pytest.raises(AssertionError, match="Burnside sum not divisible by the group order"):
        burnside_count(1, 2, identity_terms)


def test_monotone_growth():
    values = [count_function_classes(n, 2) for n in range(9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_parallel_fold_is_identical():
    # one worker and the parent, and two workers and the parent, under
    # either start method
    serial = count_function_classes(8, 2)
    # odd q, whose spectra weights are all nonempty
    odd = {terms: burnside_total(5, 3, terms) for terms in (formulas._orbit_terms, formulas._class_terms)}
    for method in ("fork", "forkserver"):
        with planted.start_method(method):
            for jobs in (2, 3):
                assert count_function_classes(8, 2, jobs=jobs) == serial, (method, jobs)
                for terms, total in odd.items():
                    assert burnside_total(5, 3, terms, jobs=jobs) == total, (method, jobs, terms)


def test_fold_progress_on_both_paths():
    indices = sum(1 for _ in enumerate_classes(8, 2))
    runs = [(None, 1)] + [(method, jobs) for method in ("fork", "forkserver") for jobs in (2, 3)]
    for method, jobs in runs:
        seen = []
        with planted.start_method(method) if method else contextlib.nullcontext():
            count_function_classes(8, 2, jobs=jobs, progress=seen.append)
        assert seen, jobs
        assert all(a < b for a, b in zip(seen, seen[1:])), (method, jobs, seen)
        assert seen[-1] == indices, (method, jobs, seen)


def test_fold_matches_reference_sum():
    # the plain per-class sum, one big power per class, with no grouping
    for q, n in ((2, 10), (3, 5), (5, 4), (7, 3)):
        group = agl_group_order(n, q)
        reference = 0
        for idx in enumerate_classes(n, q):
            size = group // centralizer_order(idx)
            reference += idx.multiplicity() * size * q ** orbit_exponent(idx)
        assert reference % group == 0, (q, n)
        assert count_function_classes(n, q) == reference // group, (q, n)


def fold_totals(n, q):
    """The undivided Burnside total of each term function, from the counts."""
    group = agl_group_order(n, q)
    expected = {
        formulas._orbit_terms: count_function_classes(n, q) * group,
        formulas._class_terms: group,
    }
    if q == 2:
        # the per-class quotient terms of dual degree 0 and 1: theta(n; 1, n), M(n)
        for degree in (0, 1):
            expected[partial(_rank_terms, degree)] = theta(n, degree + 1, n) * group
    return expected


@pytest.mark.parametrize("q, n", [(2, 8), (3, 5), (5, 4)])
def test_fold_is_independent_of_the_index_order(monkeypatch, q, n):
    # each task pairs every spectra tuple with every row, so a shuffle of
    # the spectra-free indices that key each task's rows changes no total,
    # serial or pooled (the workers get the stand-in with the terms); every
    # table of more than two rows comes out in another order
    expected = fold_totals(n, q)
    moved = [m for m in range(1, n + 1) if list(planted.shuffled(m, q, 0)) != list(enumerate_classes(m, q, 0))]
    assert moved == list(range(2, n + 1)), moved
    monkeypatch.setattr(formulas, "enumerate_classes", planted.shuffled)
    for terms, total in expected.items():
        assert burnside_total(n, q, terms) == total, (q, n, terms)
        pooled = planted.Planted("enumerate_classes", planted.shuffled, planted.shuffled, terms)
        assert burnside_total(n, q, pooled, jobs=2) == total, (q, n, terms)


def test_index_of_another_weight_raises(monkeypatch):
    # a task keys its rows by the spectra-free indices of its own unipotent
    # weight; one of another dimension has no row in the task's table, in a
    # worker or in the parent
    monkeypatch.setattr(formulas, "enumerate_classes", planted.with_a_stray)
    for jobs in (2, 3):
        with pytest.raises(AssertionError, match=planted.NO_ROW):
            burnside_total(5, 3, planted.FAULTS["stray"], jobs=jobs)
    with pytest.raises(AssertionError, match=planted.NO_ROW):
        burnside_total(5, 3, formulas._orbit_terms)


def test_pooled_parent_folds_only_weights_below_n(monkeypatch):
    # the parent folds the tasks it cancels before a worker starts them, at
    # most once each, and never the first one (w = n); each task starts one
    # spectra walk, at budget w, and forked workers count on their own copy
    # of the counter
    full = formulas._iter_spectra
    calls = []

    def counted(dinfo, fitting, start, budget, *carried):
        calls.append((len(dinfo), start, budget))
        return full(dinfo, fitting, start, budget, *carried)

    monkeypatch.setattr(formulas, "_iter_spectra", counted)
    orders = len(conjugacy._d_info(6, 2))
    for jobs in (2, 3):
        calls.clear()
        assert burnside_total(6, 2, formulas._class_terms, jobs=jobs) == agl_group_order(6, 2)
        assert len(calls) == len(set(calls)), (jobs, calls)
        assert set(calls) <= {(orders, 0, w) for w in range(6)}, (jobs, calls)
    calls.clear()
    assert burnside_total(6, 2, formulas._class_terms) == agl_group_order(6, 2)
    assert calls == [(orders, 0, w) for w in range(6, -1, -1)]


def test_a_worker_error_reaches_the_caller():
    # the fault fires only in a worker, on the first task (w = n), whose
    # one row, ((), None), its table lacks; the parent never claims that
    # task, and its own fold is right
    fault = planted.FAULTS["worker"]
    assert burnside_total(5, 3, fault) == burnside_total(5, 3, formulas._orbit_terms)
    for jobs in (2, 3):
        with pytest.raises(AssertionError, match=planted.NO_ROW):
            burnside_total(5, 3, fault, jobs=jobs)


def test_the_parents_error_ends_the_pool(monkeypatch):
    # the fault fires only in the parent, in the first task it folds, while
    # the workers still fold theirs; the pool ends and the error comes back
    fault = planted.FAULTS["parent"]
    monkeypatch.setattr(formulas, "enumerate_classes", fault.in_parent)
    for jobs in (2, 3):
        with pytest.raises(AssertionError, match=planted.NO_ROW):
            burnside_total(5, 3, fault, jobs=jobs)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_row_table_keys_are_the_unipotent_indices(q):
    # the (partition, marker) pairs of the indices with empty spectra (the
    # enumeration's first run, spectra weight 0) are the table's keys, each once
    for m in range(1, 13):
        unipotent = itertools.takewhile(lambda idx: not idx.spectra, enumerate_classes(m, q))
        keys = [(idx.unipotent, idx.marker) for idx in unipotent]
        assert len(keys) == len(set(keys)), (q, m)
        top = formulas._ceil_log(prime_power(q).p, m) + 1
        assert set(formulas._unipotent_rows(m, q, top)) == set(keys), (q, m)


def test_a_weight_with_no_spectra_tuple_builds_no_row_table(monkeypatch):
    # at q = 2 no order d has o_d = 1, so spectra weight 1 has no tuple: at
    # n = 16 its task draws no rows and builds no table, and the 684 rows
    # of unipotent weight 15 are never built
    top = formulas._ceil_log(2, 16) + 1
    assert len(formulas._unipotent_rows(15, 2, top)) == 684
    tables, drawn = [], []
    rows, enumerate_rows = formulas._unipotent_rows, formulas.enumerate_classes

    def recorded_table(m, q, top):
        tables.append(m)
        return rows(m, q, top)

    def recorded_rows(m, q, w):
        drawn.append(m)
        return enumerate_rows(m, q, w)

    monkeypatch.setattr(formulas, "_unipotent_rows", recorded_table)
    monkeypatch.setattr(formulas, "enumerate_classes", recorded_rows)
    assert formulas._fold_weight((16, 2, 1, agl_group_order(16, 2), formulas._class_terms)) == (0, Counter())
    assert tables == drawn == []
    assert class_equation_total(16, 2) == agl_group_order(16, 2)
    assert tables == [16 - w for w in range(16, -1, -1) if w != 1]
    assert drawn == tables[1:]


def conjugate_square_sum(lam):
    """The sum of the squared parts of the conjugate of lam (lam_j parts of
    size j): the parts of size >= i, squared, summed over i."""
    return sum(sum(lam[i:]) ** 2 for i in range(len(lam)))


def carried_from_scratch(idx, weights):
    """The spectra side of idx with no carried or cached part: the
    centralizer factor one unit at a time, the multiplicity per slot, the
    largest part (the length of a canonical entry), and the pattern sums
    P(nu), nu = 0..ceil(log_p n) + 1, from the pattern weights of the
    divisor walk."""
    q, p = idx.q, prime_power(idx.q).p
    centralizer, largest, orders = 1, 0, []
    for t in idx.spectra:
        o = multiplicative_order(q, t.d)
        orders.append(o)
        for entry in t.entries:
            centralizer *= centralizer_factor_per_unit(q, o * conjugate_square_sum(entry), [(o, entry)])
            largest = max(largest, len(entry))
    multiplicity = math.prod(permutation_count(t) for t in idx.spectra)
    sums = []
    for nu in range(formulas._ceil_log(p, idx.n) + 2):
        fixed = [o * level_sums_per_cap(t.entries, p, nu)[nu] for o, t in zip(orders, idx.spectra)]
        sums.append(sum(g * q ** sum(fixed[i] for i in pattern) for pattern, g in weights.items()))
    return centralizer, multiplicity, largest, tuple(sums)


@pytest.mark.parametrize("q, n_max", [(2, 12), (3, 7), (4, 5), (5, 5), (7, 4), (8, 4), (9, 4)])
def test_the_carried_walk_matches_the_indices(q, n_max):
    # the fold's walk gives enumerate_classes's spectra tuples in the same
    # order at every spectra weight, and what it carries to each one gives
    # the pieces that the index's formulas build from scratch
    walks = 0
    weights = {}
    for n in range(1, n_max + 1):
        dinfo, fitting = conjugacy._d_info(n, q), conjugacy._fitting(n, q)
        carry = partial(formulas._carry, q)
        for w in range(n + 1):
            carried = list(conjugacy._iter_spectra(dinfo, fitting, 0, w, carry, formulas._NO_SPECTRA))
            runs = itertools.groupby(enumerate_classes(n, q, w), key=lambda idx: idx.spectra)
            indices = [next(run) for _, run in runs]
            assert [acc.spectra for acc in carried] == [idx.spectra for idx in indices], (q, n, w)
            for acc, idx in zip(carried, indices):
                ds = tuple(t.d for t in idx.spectra)
                if ds not in weights:
                    weights[ds] = divisor_walk_weights(ds)[1]
                centralizer, multiplicity, largest, sums = carried_from_scratch(idx, weights[ds])
                pieces = formulas._pieces(q, n, acc)
                assert (acc.centralizer, acc.multiplicity, acc.largest) == (centralizer, multiplicity, largest), idx
                assert pieces.sums == sums, idx
                assert pieces == formulas._spectra_pieces(idx), idx
                walks += 1
    assert walks > 50, walks


@pytest.mark.parametrize("which", ["middle", "last"])
def test_row_table_missing_a_marker_row_raises(monkeypatch, which):
    # the pool re-raises the error of a worker or of the parent in the caller
    monkeypatch.setattr(formulas, "_unipotent_rows", planted.FAULTS[which].in_parent)
    for jobs in (2, 3):
        with pytest.raises(AssertionError, match=planted.NO_ROW):
            burnside_total(5, 3, planted.FAULTS[which], jobs=jobs)
    with pytest.raises(AssertionError, match=planted.NO_ROW):
        burnside_total(5, 3, formulas._orbit_terms)


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_worker_error_comes_back_in_time(method):
    # an error in a worker or in the parent ends the pool instead of
    # hanging its teardown, with one worker or two; the subprocess's
    # timeout is the bound
    script = (
        f"import planted; planted.raise_in_pool(5, method={method!r}); "
        f"planted.raise_in_pool(5, jobs=3, method={method!r})"
    )
    paths = [Path(formulas.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def horner_sum(table, q):
    # the fold's earlier evaluation: Horner from the top exponent down
    total = 0
    prev = max((e for e, _ in table), default=0)
    for e, c in sorted(table, reverse=True):
        total = total * q ** (prev - e) + c
        prev = e
    return total * q**prev


def test_split_sum_matches_horner():
    rng = random.Random(1616)
    for q in (2, 3, 509):
        assert formulas._power_sum([], q) == 0
        assert formulas._power_sum([(0, 5)], q) == 5
        assert formulas._power_sum([(9, 4)], q) == 4 * q**9
        for size in (2, 3, 4, 5, 16, 33, 200):
            exponents = rng.sample(range(3000), size)
            if size % 2:
                exponents[rng.randrange(size)] = 0
            table = [(e, rng.randrange(1, 1 << rng.randrange(1, 400))) for e in set(exponents)]
            want = sum(c * q**e for e, c in table)
            assert horner_sum(table, q) == want
            assert formulas._power_sum(table, q) == want, (q, size)


def test_evaluate_class_consistency():
    for idx in enumerate_classes(3, 2):
        assert agl_group_order(3, 2) % centralizer_order(idx) == 0
        assert element_order(idx) >= 1
        assert orbit_exponent(idx) >= 1
        assert idx.multiplicity() == math.prod(permutation_count(t) for t in idx.spectra)


def divisor_walk_weights(ds):
    """The former pattern weights: factor the lcm L of the d's, walk every
    divisor k of L with phi(L / k), and add it to the pattern of the d
    dividing k."""
    lcm = math.lcm(*ds)
    walk = [(1, 1)]  # (L / k, phi(L / k))
    for prime, e in factorize(lcm):
        walk = [(c * prime**j, ph * euler_phi(prime**j)) for c, ph in walk for j in range(e + 1)]
    weights = Counter()
    for cofactor, phi in walk:
        k = lcm // cofactor
        weights[tuple(i for i, d in enumerate(ds) if k % d == 0)] += phi
    return lcm, dict(weights)


def test_pattern_weights_match_the_divisor_walk():
    # every tuple of orders d folded by N(2, 16), N(3, 9), N(5, 7) and N(7, 5)
    for q, n in ((2, 16), (3, 9), (5, 7), (7, 5)):
        orders = {tuple(s.d for s in idx.spectra) for idx in enumerate_classes(n, q)}
        assert max(map(len, orders)) >= 3, (q, n)
        for ds in orders:
            lcm, patterns, weights = formulas._divisibility_weights(ds)
            assert (lcm, dict(zip(patterns, weights))) == divisor_walk_weights(ds), (q, n, ds)
            assert sum(weights) == lcm and all(weights), ds


def centralizer_factor_per_unit(q, exponent, blocks):
    """The former centralizer factor: one factor and one power per u."""
    denom_exp = 0
    units = 1
    for o, lam in blocks:
        for mj in lam:
            for u in range(1, mj + 1):
                units *= q ** (o * u) - 1
                denom_exp += o * u
    if exponent < denom_exp:
        raise AssertionError("centralizer q-power exponent went negative")
    return q ** (exponent - denom_exp) * units


def level_sums_per_cap(parts, p, a):
    """The former level sums: min(p**nu, j) * m_j added up afresh per nu."""
    return tuple(
        sum(min(p**nu, j) * mj for lam in parts for j, mj in enumerate(lam, start=1)) for nu in range(a + 1)
    )


def divisibility_weights_per_mask(ds):
    """The former pattern weights: each mask's lcm from the mask without its
    lowest bit, and the closure checked per position of each kept pattern."""
    size = 1 << len(ds)
    lcms = [1] * size
    for mask in range(1, size):
        low = mask & -mask
        lcms[mask] = math.lcm(lcms[mask ^ low], ds[low.bit_length() - 1])
    lcm = lcms[-1]
    g = []
    for sub in lcms:
        h, rem = divmod(lcm, sub)
        if rem:
            raise AssertionError("lcm of some orders d does not divide the lcm of all")
        g.append(h)
    for i in range(len(ds)):
        bit = 1 << i
        for mask in range(size):
            if not mask & bit:
                g[mask] -= g[mask | bit]
    dividing = [sum(1 << j for j, dj in enumerate(ds) if d % dj == 0) for d in ds]
    kept = []
    for mask, g_s in enumerate(g):
        if g_s < 0:
            raise AssertionError("divisibility pattern weight went negative")
        if g_s:
            if any(dividing[i] & ~mask for i in formulas._positions(mask)):
                raise AssertionError("divisibility pattern not closed under division of the orders d")
            kept.append(mask)
    return lcm, tuple(map(formulas._positions, kept)), tuple([g[mask] for mask in kept])


@pytest.mark.parametrize("q, n", [(2, 16), (3, 9), (4, 6), (5, 7), (7, 5), (8, 5), (9, 4)])
def test_class_tables_match_their_former_builds(q, n):
    # every partition tuple, unipotent partition and tuple of orders d that
    # N(q, n) folds, at the bench's sizes and the F_4, F_8, F_9 ones
    p = prime_power(q).p
    dinfo, fitting = conjugacy._d_info(n, q), conjugacy._fitting(n, q)
    spectra = [s for w in range(n + 1) for s in conjugacy._iter_spectra(dinfo, fitting, 0, w)]
    unipotent = [lam for m in range(n + 1) for lam in enumerate_partitions(m)]
    cases = [(sum(lam) + formulas._pairwise_min_sum(lam), ((1, lam),)) for lam in unipotent]
    for t in {t for tuples in spectra for t in tuples}:
        o = multiplicative_order(q, t.d)
        cases.append((o * sum(map(formulas._pairwise_min_sum, t.entries)), tuple((o, e) for e in t.entries)))
    for exponent, blocks in cases:
        assert formulas._centralizer_factor(q, exponent, blocks) == centralizer_factor_per_unit(q, exponent, blocks)
        for factor in (formulas._centralizer_factor, centralizer_factor_per_unit):
            with pytest.raises(AssertionError, match="exponent went negative"):
                factor(q, -1, blocks)
        parts = tuple(lam for _, lam in blocks)
        for a in range(formulas._ceil_log(p, n) + 2):
            assert formulas._level_sums(parts, p, a) == level_sums_per_cap(parts, p, a), (parts, a)
    for ds in {tuple(t.d for t in tuples) for tuples in spectra}:
        assert formulas._divisibility_weights(ds) == divisibility_weights_per_mask(ds), ds


@pytest.mark.parametrize("corrupt", [False, True])
def test_pattern_weight_check_survives_optimize(corrupt):
    # a product in place of the lcm, for the orders 2 and 4 at q = 3, n = 3,
    # keeps every weight >= 0 and their sum at L, but gives weight to the
    # pattern {4} without 2: the division check must catch it under -O
    script = textwrap.dedent(
        f"""
        import math
        import sys
        import aglcount.formulas as formulas
        from aglcount.conjugacy import enumerate_classes

        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        idx = next(i for i in enumerate_classes(3, 3) if [s.d for s in i.spectra] == [2, 4])
        if {corrupt}:
            math.lcm = lambda *ds: math.prod(ds)
        print(formulas.orbit_exponent(idx))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    if not corrupt:
        assert proc.returncode == 0, proc.stderr
        return
    assert proc.returncode != 0
    assert "AssertionError: divisibility pattern not closed under division" in proc.stderr, proc.stderr


@pytest.mark.parametrize("w", [5, 0])
def test_fold_checks_each_centralizer_division(monkeypatch, w):
    # a factor 1009 (a prime beyond every order at n = 5) on the spectra
    # side at w = n, whose one row has factor 1, or on the row side at
    # w = 0, whose spectra are empty: each division check alone sees it
    if w:
        block = formulas._block.__wrapped__
        monkeypatch.setattr(formulas, "_block", lambda q, s: block(q, s)._replace(centralizer=1009))
    else:
        full = formulas._unipotent_rows.__wrapped__

        def with_wrong_rows(m, q, top):
            return {key: row._replace(centralizer=1009 * row.centralizer) for key, row in full(m, q, top).items()}

        monkeypatch.setattr(formulas, "_unipotent_rows", with_wrong_rows)
    task = (5, 3, w, agl_group_order(5, 3), formulas._class_terms)
    with pytest.raises(AssertionError, match="centralizer does not divide the group order"):
        formulas._fold_weight(task)


def test_formula_matches_matrix_per_power():
    # every divisor power of every class at small sizes
    for q, nmax in ((2, 3), (3, 2)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                rep = build_representative(idx)
                order = element_order(idx)
                power = rep
                for k in range(1, order + 1):
                    if order % k == 0:
                        exp = fix_exponent_at(idx, k)
                        want = 0 if exp is None else q**exp
                        assert fixed_point_count(power) == want, (idx, k)
                    power = then(power, rep)
                assert cyclic_orbit_count(rep) == orbit_exponent(idx), idx


def reference_orbit_exponent(idx):
    # the plain divisor sum: (1/b) sum over every k | b of phi(b/k) q**e(k)
    q, b = idx.q, element_order(idx)
    total = 0
    for k in divisors(b):
        exp = fix_exponent_at(idx, k)
        if exp is not None:
            total += euler_phi(b // k) * q**exp
    assert total % b == 0, idx
    return total // b


def test_orbit_exponent_matches_divisor_sum():
    for q, n in ((2, 10), (3, 6), (4, 5), (5, 5), (7, 4), (8, 4), (9, 3)):
        marked = 0
        for idx in enumerate_classes(n, q):
            marked += idx.marker is not None
            assert orbit_exponent(idx) == reference_orbit_exponent(idx), idx
        assert marked, (q, n)


def test_fix_exponent_depends_on_level_and_pattern():
    # e(k) is a function of v_p(k) and of the set of d dividing k
    for q, n in ((2, 8), (3, 5), (4, 4)):
        p = prime_power(q).p
        for idx in enumerate_classes(n, q):
            seen = {}
            for k in divisors(element_order(idx)):
                key = (p_adic_valuation(k, p), tuple(k % s.d == 0 for s in idx.spectra))
                exp = fix_exponent_at(idx, k)
                assert seen.setdefault(key, exp) == exp, (idx, k)


def test_orbit_exponent_matches_orbit_count_of_representative():
    # orbits of the built representative's cyclic group, counted point by point
    for q, nmax in ((2, 7), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)):
        for n in range(1, nmax + 1):
            for idx in enumerate_classes(n, q):
                assert cyclic_orbit_count(build_representative(idx)) == orbit_exponent(idx), idx


def test_orbit_exponent_checks_the_order():
    # an order off by a factor of 5 must be caught, also under -O: the
    # divisor sum is then not divisible by it
    script = textwrap.dedent(
        """
        import sys
        import aglcount.formulas as formulas
        from aglcount.conjugacy import enumerate_classes

        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        pieces = formulas._spectra_pieces
        formulas._spectra_pieces = lambda idx: pieces(idx)._replace(lcm=5 * pieces(idx).lcm)
        idx = max(enumerate_classes(3, 2), key=formulas.element_order)
        formulas.orbit_exponent(idx)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "AssertionError: orbit-count divisor sum not divisible by the order" in proc.stderr, proc.stderr
