"""Exact elementary number theory shared by every counting formula.

All counts are plain Python ints (arbitrary precision, exact); the
asymptotic report's ratios are pairs of ints over powers of two.
Factorization is trial division with memoization.  It takes at least
sqrt(p) steps for a number whose largest prime factor is p: quick for the
q**i - 1 met at q = 2 up to n around 31, but not for every q <= 512, as
`compute_D(10, 509)` runs past 45 s.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "PrimePower",
    "agl_group_order",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "is_prime_power",
    "multiplicative_order",
    "p_adic_valuation",
    "power_exceeds",
    "prime_power",
    "psi",
]


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    fact = factorize(n)
    return len(fact) == 1 and fact[0][1] == 1


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


class PrimePower(NamedTuple):
    """A field size q = p**m with p prime and m >= 1."""

    q: int
    p: int
    m: int


@lru_cache(maxsize=None)
def prime_power(q: int) -> PrimePower:
    """Decompose q as p**m, rejecting anything that is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fact = factorize(q)
    if len(fact) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, m = fact[0]
    return PrimePower(q=q, p=p, m=m)


def is_prime_power(q: int) -> bool:
    try:
        prime_power(q)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    """Number of residues 1 <= k <= d coprime to d."""
    if d < 1:
        raise ValueError(f"euler_phi needs d >= 1, got {d}")
    out = 1
    for p, e in factorize(d):
        out *= p ** (e - 1) * (p - 1)
    return out


@lru_cache(maxsize=None)
def multiplicative_order(q: int, d: int) -> int:
    """Smallest e >= 1 with q**e = 1 mod d; the order of q in (Z/dZ)*.

    Computed by shrinking phi(d) along its prime factors, which agrees
    with the minimal-exponent definition because the order divides phi(d).
    """
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if math.gcd(q, d) != 1:
        raise ValueError(f"gcd({q}, {d}) != 1, multiplicative order undefined")
    if d == 1:
        return 1
    e = euler_phi(d)
    for p, _ in factorize(e):
        while e % p == 0 and pow(q, e // p, d) == 1:
            e //= p
    return e


def psi(d: int, q: int) -> int:
    """phi(d) / o_d(q): the number of monic irreducibles over F_q of order d."""
    o = multiplicative_order(q, d)
    ph = euler_phi(d)
    if ph % o != 0:
        raise AssertionError(f"order {o} does not divide phi({d}) = {ph}")
    return ph // o


def p_adic_valuation(k: int, p: int) -> int:
    """Largest e with p**e dividing k; rejects k = 0 (never needed here)."""
    if k < 1:
        raise ValueError(f"p-adic valuation needs k >= 1, got {k}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def power_exceeds(q: int, n: int, limit: int) -> bool:
    """q**n > limit, without building q**n when n alone decides it: for
    q >= 2, q**n >= 2**n > limit from n = limit.bit_length() on."""
    return (q >= 2 and n >= limit.bit_length()) or q**n > limit


@lru_cache(maxsize=None)
def agl_group_order(n: int, q: int) -> int:
    """|AGL(n, F_q)| = q**n * prod_{i=0}^{n-1} (q**n - q**i); 1 for n = 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prime_power(q)
    order = q**n
    qn = q**n
    for i in range(n):
        order *= qn - q**i
    return order
