"""Acceptance gate: every criterion as one test, exact tolerances, one
printed pass/fail line each (run with -s to see them)."""

import contextlib
import math
import sys
import time
from fractions import Fraction
from functools import partial

sys.set_int_max_str_digits(4_000_000)

from aglcount.compound import (
    asymptotic_report,
    check_kronecker_embedding,
    format_significant,
    jordan_structure_sweep,
)
from aglcount.conjugacy import ClassIndex, enumerate_classes
from aglcount.fields import field
from aglcount.formulas import (
    burnside_count,
    centralizer_order,
    class_equation_total,
    count_function_classes,
)
from aglcount.linalg import AffineMap, GFMatrix
from aglcount.numtheory import agl_group_order, psi
from aglcount.oracle import burnside_full, orbit_enumeration
from aglcount.reps import _assemble, iter_class_representatives, verify_class
from aglcount.rm import RMQuotientBasis, _fixed_terms, fix_on_quotient, theta
from brute import burnside_full_theta
from test_conjugacy import partition_tuple
from test_linalg import identity_map, matmul, packed, sub_matrix


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS", flush=True)


def test_criterion_01_worked_example_exact():
    with criterion(1, "worked-example centralizers"):
        spec = partition_tuple(7, psi(7, 2), [(1, 2), (2, 0, 1)])
        plain = ClassIndex(n=36, q=2, unipotent=(3, 0, 1), spectra=(spec,), marker=None)
        marked = ClassIndex(n=36, q=2, unipotent=(3, 0, 1), spectra=(spec,), marker=3)
        assert centralizer_order(plain) == 2**63 * 3**5 * 7**7
        assert centralizer_order(marked) == 2**60 * 3**5 * 7**7


def test_criterion_02_oracle_equivalence_function_classes():
    with criterion(2, "function-class oracle equivalence"):
        anchors = {(2, 1): 3, (2, 2): 5, (3, 1): 10}
        for q, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]:
            value = count_function_classes(n, q)
            assert value == burnside_full(n, q), (q, n)
            try:
                orbits = orbit_enumeration(n, q)
            except ValueError:
                orbits = None  # function space beyond the closure guard
            if orbits is not None:
                assert orbits == value, (q, n)
            if (q, n) in anchors:
                assert value == anchors[q, n]


def test_criterion_03_class_equation():
    with criterion(3, "class equation"):
        for q in (2, 3, 4, 5):
            for n in range(1, 9):
                assert class_equation_total(n, q) == agl_group_order(n, q), (q, n)
        # Burnside divisibility is asserted inside every count; exercise both paths
        assert count_function_classes(8, 2) > 0
        assert theta(6, 0, 4) > 0


def test_criterion_04_formula_vs_matrix():
    with criterion(4, "formula vs explicit matrices"):
        for q, n_max in ((2, 5), (3, 5)):
            for n in range(1, n_max + 1):
                for idx in enumerate_classes(n, q):
                    report = verify_class(idx)
                    assert report.ok, report.describe()


def test_criterion_05_quotient_oracle_equivalence():
    with criterion(5, "quotient-code oracle equivalence"):
        # M(n) = theta(n; 2, n)
        assert theta(2, 2, 2) == 2
        assert theta(3, 2, 3) == 3
        for n in (2, 3, 4):
            assert theta(n, 2, n) == burnside_full_theta(n, 0, n - 2), n
        # N(2, n) against the representatives' fixed counts; theta(n; 0, n)
        # folds the same per-class orbit counts as N(2, n) does
        for n in range(1, 6):
            terms = partial(_fixed_terms, RMQuotientBasis(n, -1, n), caches=({}, {}))
            assert burnside_count(n, 2, terms) == count_function_classes(n, 2), n
        for n in range(1, 7):
            for s in range(n + 1):
                for r in range(s, n + 1):
                    assert theta(n, s, r) == theta(n, n - r, n - s), (n, s, r)


def test_criterion_06_compound_lemma_sweeps():
    with criterion(6, "compound structure sweeps"):
        import random

        rng = random.Random(20240809)
        f2 = field(2)
        for _ in range(50):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = GFMatrix(f2, [[rng.randrange(2) for _ in range(m)] for _ in range(m)])
            b = GFMatrix(f2, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
            for k in range(m + 1):
                for l in range(n + 1):
                    assert check_kronecker_embedding(a, b, k, l), (m, n, k, l)
        pairs = [(n, r) for n in range(1, 13) for r in range(1, n + 1)]
        swept = list(jordan_structure_sweep(12))
        assert [(n, r) for n, r, _, _ in swept] == pairs
        for n, r, structure_ok, rank_ok in swept:
            assert structure_ok, (n, r)
            assert rank_ok, (n, r)


def test_criterion_07_translation_fix_identity():
    with criterion(7, "translation fix on the quotient code"):
        f2 = field(2)
        for n in range(2, 9):
            basis = RMQuotientBasis(n, -1, n - 2)
            shift = AffineMap(GFMatrix.identity(f2, n), (0,) * (n - 1) + (1,))
            assert fix_on_quotient(packed(shift), basis) == 2 ** (2 ** (n - 1) - 1), n


def independent_constant(digits):
    """Test-local partial products with an explicit tail bound."""
    product = Fraction(1)
    i = 0
    while True:
        i += 1
        product *= 1 - Fraction(1, 2**i)
        if Fraction(1, 2**i) < Fraction(1, 10 ** (digits + 5)):
            break
    low = product * (1 - Fraction(1, 2**i))
    return low, product


def test_criterion_08_asymptotic_behavior():
    with criterion(8, "asymptotic ratio behavior"):
        report = asymptotic_report(10)
        rows = {row.n: row for row in report.rows}
        assert sorted(rows) == list(range(2, 11))
        ratios = {n: Fraction(*row.ratio) for n, row in rows.items()}
        for n, ratio in ratios.items():
            assert ratio > 1, n
        for n in range(5, 10):
            assert ratios[n] > ratios[n + 1], n
        assert (ratios[6] - 1) > 8 * (ratios[10] - 1)
        # constant certified to 30 digits against an independent computation
        low, high = independent_constant(35)
        ours = report.constant
        theirs = format_significant(low.numerator, low.denominator, 30)
        assert format_significant(high.numerator, high.denominator, 30) == theirs
        assert ours[: len("0.") + 30] == theirs[: len("0.") + 30]
        assert ours.startswith("0.28878809508660")
        rounded = math.floor(low * 10**12 + Fraction(1, 2))
        assert rounded == 288788095087


def test_criterion_09_case_bound_consistency():
    with criterion(9, "fix bounds per class on the quotient code"):
        f2 = field(2)
        for n in range(2, 9):
            basis = RMQuotientBasis(n, -1, n - 2)
            identity = identity_map(f2, n)
            eigen_bound = 2 ** (2 ** (n - 1))
            unipotent_bound = 2 ** (2**n - math.comb(n // 2, 3))
            for idx in enumerate_classes(n, 2):
                for assignments, _ in iter_class_representatives(idx):
                    rep = _assemble(idx, assignments)
                    if rep == identity:
                        continue
                    fix = fix_on_quotient(packed(rep), basis)
                    a_minus_i = sub_matrix(rep.matrix, GFMatrix.identity(f2, n))
                    nth_power = GFMatrix.identity(f2, n)
                    for _ in range(n):
                        nth_power = matmul(nth_power, a_minus_i)
                    nilpotent = all(x == 0 for row in nth_power.entries for x in row)
                    assert nilpotent == (not idx.spectra)
                    if nilpotent:
                        assert fix <= unipotent_bound, (n, idx)
                    else:
                        assert fix < eigen_bound, (n, idx)


def test_criterion_10_performance_and_determinism():
    with criterion(10, "performance and parallel determinism"):
        start = time.perf_counter()
        single = count_function_classes(12, 2, jobs=1)
        elapsed_12 = time.perf_counter() - start
        assert elapsed_12 < 60, f"n=12 took {elapsed_12:.1f}s"
        assert count_function_classes(12, 2, jobs=2) == single

        start = time.perf_counter()
        wide = count_function_classes(16, 2, jobs=2)
        elapsed_16 = time.perf_counter() - start
        assert elapsed_16 < 600, f"n=16 took {elapsed_16:.1f}s"
        assert count_function_classes(16, 2, jobs=1) == wide
