import math
from fractions import Fraction

import pytest

from aglcount.numtheory import (
    PrimePower,
    agl_group_order,
    divisors,
    euler_phi,
    factorize,
    is_prime_power,
    multiplicative_order,
    p_adic_valuation,
    power_exceeds,
    prime_power,
    psi,
)


def naive_order(q, d):
    power = q % d if d > 1 else 0
    e = 1
    while power != 1 % d:
        power = power * q % d
        e += 1
    return e


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(5, 1) == 1
    assert multiplicative_order(2, 3) == 2


def test_multiplicative_order_rejects_common_factor():
    with pytest.raises(ValueError):
        multiplicative_order(2, 8)
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_multiplicative_order_matches_naive_scan():
    for q in (2, 3, 4, 5):
        for d in range(1, 400):
            if math.gcd(q, d) == 1:
                assert multiplicative_order(q, d) == naive_order(q, d), (q, d)


def test_order_divides_phi_up_to_1e4():
    for d in range(1, 10_001):
        if d % 2:
            assert euler_phi(d) % multiplicative_order(2, d) == 0


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(12) == len([k for k in range(1, 13) if math.gcd(k, 12) == 1]) == 4


def test_euler_phi_direct_count():
    for d in range(1, 250):
        assert euler_phi(d) == sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
    with pytest.raises(ValueError):
        euler_phi(0)


def test_psi_examples():
    assert psi(7, 2) == 2
    assert psi(3, 2) == 1
    assert psi(1, 2) == 1


def test_psi_is_exact_on_relevant_orders():
    for q in (2, 3):
        for d in range(1, 2000):
            if math.gcd(d, q) == 1:
                psi(d, q)  # raises if the division were inexact


def test_p_adic_valuation():
    assert p_adic_valuation(8, 2) == 3
    assert p_adic_valuation(12, 2) == 2
    assert p_adic_valuation(7, 2) == 0
    with pytest.raises(ValueError):
        p_adic_valuation(0, 2)


def test_agl_group_order_examples():
    assert agl_group_order(1, 2) == 2
    assert agl_group_order(2, 2) == 24
    assert agl_group_order(3, 2) == (8 - 1) * (8 - 2) * (8 - 4) * 8 == 1344
    assert agl_group_order(0, 5) == 1


def test_agl_group_order_divisibility():
    for q in (2, 3, 4, 5):
        for n in range(1, 9):
            order = agl_group_order(n, q)
            assert order % q**n == 0
            assert order % agl_group_order(n - 1, q) == 0


def test_power_exceeds_is_the_plain_comparison():
    for limit in (0, 1, 2, 15, 16, 17, 70000, 2**16, 2**20 - 1, 2**20, 2**20 + 1):
        for q in range(-3, 10):
            for n in range(45):
                assert power_exceeds(q, n, limit) == (q**n > limit), (q, n, limit)
    # decided by n alone, so q**n is never built
    assert power_exceeds(2, 10**18, 2**20)
    assert power_exceeds(509, 10**18, 70000)


def test_prime_power_decomposition():
    assert prime_power(8) == PrimePower(8, 2, 3)
    assert prime_power(7) == PrimePower(7, 7, 1)
    assert prime_power(9) == PrimePower(9, 3, 2)
    assert not is_prime_power(6)
    assert not is_prime_power(12)
    assert not is_prime_power(1)
    with pytest.raises(ValueError):
        prime_power(100)  # 2^2 * 5^2


def test_divisors_and_factorize():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    for n in range(1, 500):
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_exact_arithmetic_round_trips():
    # counts routinely exceed machine width; int and Fraction stay exact
    big = agl_group_order(16, 2)
    assert int(str(big)) == big
    a = big**3 + 12345
    b = big - 1
    assert (a + b) - b == a
    assert (a * b) // b == a
    ratio = Fraction(a, b)
    assert ratio.denominator > 0
    assert math.gcd(ratio.numerator, ratio.denominator) == 1
