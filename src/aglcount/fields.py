"""Finite-field arithmetic tables for q = p**m <= 512, plus polynomial helpers.

Elements of F_q are the integers 0 .. q-1.  For prime q they are residues;
for a proper prime power, the base-p digits of an element are its
coordinates in the polynomial basis modulo a fixed irreducible.  The
modulus is pinned deterministically (lowest weight, then lexicographically
least coefficient vector read from the leading coefficient down), so all
results are reproducible bit for bit:

    F4: x^2 + x + 1      F8: x^3 + x + 1      F9: x^2 + 1
    F16: x^4 + x + 1     F27: x^3 + 2x + 1    ...

Addition works digitwise mod p; products and inverses come from discrete
logs to the least element of order q - 1, whose powers are walked once.

Polynomials over F_q are tuples of coefficients, ascending degree, with no
trailing zeros; () is the zero polynomial.

`irreducibles(q, degree)` is the one enumerator of monic irreducibles: the
pinned modulus is the least of `irreducibles(p, m)` under the key above,
and the class representatives take their irreducibles of each root order
from it.  It trial-divides each monic candidate by the irreducibles of
degree <= deg/2.  At q = 2 this scan, and the powers of x in `poly_order`,
run on packed ints (bit i the coefficient of x**i) with shift-xor
remainders; larger q use the tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .numtheory import factorize, prime_power

__all__ = [
    "FieldTable",
    "field",
    "irreducibles",
    "poly_divmod",
    "poly_is_irreducible",
    "poly_mod",
    "poly_mul",
    "poly_order",
    "poly_pow",
    "poly_trim",
]

_MAX_Q = 512


class FieldTable:
    """Addition/multiplication tables for one finite field, q <= 512.

    Construction validates every pair: both tables are symmetric, 0 and 1
    act as identities, every element has a negative, every nonzero element
    an inverse.  (Associativity and distributivity involve triples and are
    exercised in the test suite.)
    """

    __slots__ = ("q", "p", "m", "modulus", "_add", "_mul", "_neg", "_inv", "generator")

    def __init__(self, q: int):
        # the size first: prime_power trial-divides, about sqrt(q) steps for a prime q
        if q > _MAX_Q:
            raise ValueError(f"fields larger than {_MAX_Q} are unsupported, got {q}")
        pp = prime_power(q)
        self.q = q
        self.p = p = pp.p
        self.m = pp.m
        self.modulus = None if pp.m == 1 else _pinned_modulus(p, pp.m)
        # addition is digitwise mod p: the low digit directly, the higher
        # digits from the row of a // p, which is already built
        add = [list(range(q))]
        for a in range(1, q):
            high = add[a // p]
            add.append([(a + b) % p + p * high[b // p] for b in range(q)])
        self.generator, powers = self._generator_powers()
        # discrete logs to the generator: a * b = g**(log a + log b)
        log = {x: k for k, x in enumerate(powers)}
        mul = [[0] * q]
        for a in range(1, q):
            row = powers[log[a] :] + powers[: log[a]]
            mul.append([0] + [row[log[b]] for b in range(1, q)])
        self._add = add
        self._mul = mul
        self._neg = [add[a].index(0) for a in range(q)]
        self._inv = [0] + [powers[-log[a] % (q - 1)] for a in range(1, q)]
        self._check_pairs()

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)

    def _generator_powers(self) -> tuple[int, list[int]]:
        """The least g of order q - 1 and its powers 1, g, ..., g**(q-2), each
        power one product by g: a * b mod q, or the base-p digits
        multiplied as polynomials over F_p and reduced by the modulus."""
        q, p, mod = self.q, self.p, self.modulus
        weights = [p**k for k in range(self.m)]

        def times(a: int, b: int) -> int:
            if mod is None:
                return a * b % q
            fp = field(p)
            digits = ([x // w % p for w in weights] for x in (a, b))
            rem = poly_mod(fp, poly_mul(fp, *digits), mod)
            return sum(c * w for c, w in zip(rem, weights))

        for g in range(1, q):
            powers, x = [1], g
            while x != 1 and len(powers) < q - 1:
                powers.append(x)
                x = times(x, g)
            if x == 1 and len(powers) == q - 1:
                return g, powers
        raise AssertionError(f"no multiplicative generator found in F{q}")

    def _check_pairs(self) -> None:
        q = self.q
        for a in range(q):
            if self._add[a][0] != a or self._mul[a][1] != a or self._mul[a][0] != 0:
                raise AssertionError(f"identity laws fail at {a} in F{q}")
            if self._add[a][self._neg[a]] != 0:
                raise AssertionError(f"negation fails at {a} in F{q}")
            if a and self._mul[a][self._inv[a]] != 1:
                raise AssertionError(f"inversion fails at {a} in F{q}")
            for b in range(a, q):
                if self._add[a][b] != self._add[b][a]:
                    raise AssertionError(f"addition not commutative at ({a},{b}) in F{q}")
                if self._mul[a][b] != self._mul[b][a]:
                    raise AssertionError(f"multiplication not commutative at ({a},{b}) in F{q}")

    def __repr__(self) -> str:
        return f"FieldTable(q={self.q})"


@lru_cache(maxsize=None)
def _pinned_modulus(p: int, m: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree m over F_p.

    Minimal number of nonzero coefficients first, then lexicographically
    least (a_{m-1}, ..., a_0).
    """
    return min(irreducibles(p, m), key=lambda f: (sum(1 for c in f if c), f[-2::-1]))


@lru_cache(maxsize=None)
def field(q: int) -> FieldTable:
    """Shared immutable table for F_q."""
    return FieldTable(q)


# ---------------------------------------------------------------------------
# polynomials over a FieldTable: tuples of coefficients, ascending degree


def poly_trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(f: FieldTable, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    add, mul = f._add, f._mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        row = mul[ca]
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = add[out[i + j]][row[cb]]
    return poly_trim(out)


def poly_divmod(f: FieldTable, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, neg = f._add, f._mul, f._neg
    ra = list(a)
    db = len(b) - 1
    inv_lead = f.inv(b[-1])
    quot = [0] * max(0, len(ra) - db)
    while len(ra) - 1 >= db and ra:
        lead = ra[-1]
        if lead:
            c = mul[lead][inv_lead]
            off = len(ra) - 1 - db
            quot[off] = c
            # ra - c*b as ra + (-c)*b, one table row for the products
            row = mul[neg[c]]
            for i, bc in enumerate(b):
                ra[off + i] = add[ra[off + i]][row[bc]]
        ra.pop()
    return poly_trim(quot), poly_trim(ra)


def poly_mod(f: FieldTable, a, b) -> tuple[int, ...]:
    return poly_divmod(f, a, b)[1]


def poly_pow(f: FieldTable, a, e: int, mod=None) -> tuple[int, ...]:
    """a**e, with every product reduced modulo mod when one is given."""

    def times(x, y) -> tuple[int, ...]:
        prod = poly_mul(f, x, y)
        return prod if mod is None else poly_mod(f, prod, mod)

    out: tuple[int, ...] = (1,)
    base = poly_trim(a) if mod is None else poly_mod(f, a, mod)
    while e:
        if e & 1:
            out = times(out, base)
        base = times(base, base)
        e >>= 1
    return out


@lru_cache(maxsize=None)
def irreducibles(q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of one degree over F_q (x included at degree
    1), sorted by their ascending coefficient vectors."""
    if q == 2:
        small = [sum(c << i for i, c in enumerate(h)) for h in _trial_divisors(2, degree)]
        # no candidate below x: the constant 1 is not irreducible
        monic = range(max(2, 1 << degree), 2 << degree)
        packed = (g for g in monic if all(_gf2_mod(g, h) for h in small))
        return tuple(sorted(tuple(g >> i & 1 for i in range(degree + 1)) for g in packed))
    f = field(q)
    monic = (tail + (1,) for tail in itertools.product(f.elements(), repeat=degree))
    return tuple(poly for poly in monic if poly_is_irreducible(f, poly))


def _gf2_mod(a: int, b: int) -> int:
    """a mod b for packed binary polynomials, one shifted b per leading bit."""
    top = b.bit_length()
    while (length := a.bit_length()) >= top:
        a ^= b << (length - top)
    return a


def _trial_divisors(q: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Every monic irreducible over F_q of degree <= degree/2."""
    return itertools.chain.from_iterable(irreducibles(q, d) for d in range(1, degree // 2 + 1))


def poly_is_irreducible(f: FieldTable, poly: tuple[int, ...]) -> bool:
    """Trial division by every monic irreducible of degree <= deg/2."""
    deg = len(poly) - 1
    return deg >= 1 and all(poly_mod(f, poly, g) for g in _trial_divisors(f.q, deg))


@lru_cache(maxsize=None)
def poly_order(f: FieldTable, poly: tuple[int, ...]) -> int:
    """Multiplicative order of the roots: least e with poly | x**e - 1.

    Requires poly irreducible with nonzero constant term, so that e divides
    q**deg - 1; strips each prime factor of q**deg - 1 while x**(e/p) is
    still 1 modulo poly.
    """
    deg = len(poly) - 1
    if poly[0] == 0:
        raise ValueError("order undefined: x divides the polynomial")

    def is_one(k: int) -> bool:
        """Whether x**k is 1 modulo poly; at q = 2 by square-and-multiply on
        packed ints, where reading the bits of r in base 4 squares r."""
        if f.q != 2:
            return poly_pow(f, (0, 1), k, poly) == (1,)
        r, packed = 1, sum(c << i for i, c in enumerate(poly))
        for bit in bin(k)[2:]:
            r = _gf2_mod(int(bin(r)[2:], 4) << (bit == "1"), packed)
        return r == 1

    e = f.q**deg - 1
    if not is_one(e):
        raise AssertionError("x**(q**deg - 1) is not 1: the polynomial is reducible")
    for p, _ in factorize(e):
        while e % p == 0 and is_one(e // p):
            e //= p
    return e
