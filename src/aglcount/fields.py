"""Finite-field arithmetic tables for q = p**m <= 512, plus polynomial helpers.

Elements of F_q are the integers 0 .. q-1.  For prime q they are residues;
for a proper prime power, the base-p digits of an element are its
coordinates in the polynomial basis modulo a fixed irreducible.  The
modulus is pinned deterministically (lowest weight, then lexicographically
least coefficient vector read from the leading coefficient down), so all
results are reproducible bit for bit:

    F4: x^2 + x + 1      F8: x^3 + x + 1      F9: x^2 + 1
    F16: x^4 + x + 1     F27: x^3 + 2x + 1    ...

Polynomials over F_q are tuples of coefficients, ascending degree, with no
trailing zeros; () is the zero polynomial.

`irreducibles(q, degree)` is the one enumerator of monic irreducibles: the
pinned modulus is the least of `irreducibles(p, m)` under the key above,
`poly_is_irreducible` trial-divides by the irreducibles of degree <= deg/2,
and the class representatives take their irreducibles of each root order
from it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

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
    "poly_pow_mod",
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
        pp = prime_power(q)
        if q > _MAX_Q:
            raise ValueError(f"fields larger than {_MAX_Q} are unsupported, got {q}")
        self.q = q
        self.p = pp.p
        self.m = pp.m
        if pp.m == 1:
            self.modulus = None
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            self.modulus = _pinned_modulus(pp.p, pp.m)
            add = [[_digit_add(a, b, pp.p) for b in range(q)] for a in range(q)]
            # an element's base-p digits are its coefficients in the
            # polynomial basis: multiply as polynomials over F_p, then reduce
            fp = field(pp.p)
            polys = [_digits(a, pp.p) for a in range(q)]
            powers = [pp.p**k for k in range(pp.m)]
            mul = [[0] * q for _ in range(q)]
            for a in range(q):
                for b in range(a, q):
                    rem = poly_mod(fp, poly_mul(fp, polys[a], polys[b]), self.modulus)
                    mul[a][b] = mul[b][a] = sum(c * w for c, w in zip(rem, powers))
        self._add = add
        self._mul = mul
        self._neg = [add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = mul[a].index(1)
        self._inv = inv
        self.generator = self._find_generator()
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

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        target = self.q - 1
        primes = [p for p, _ in factorize(target)]
        for g in range(1, self.q):
            if all(self.pow(g, target // p) != 1 for p in primes):
                return g
        raise AssertionError("no multiplicative generator found")

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


def _digit_add(a: int, b: int, p: int) -> int:
    out = 0
    shift = 1
    while a or b:
        out += ((a + b) % p) * shift
        a //= p
        b //= p
        shift *= p
    return out


def _digits(a: int, p: int) -> list[int]:
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


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


def poly_pow(f: FieldTable, a, e: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    base = poly_trim(a)
    while e:
        if e & 1:
            out = poly_mul(f, out, base)
        base = poly_mul(f, base, base)
        e >>= 1
    return out


def poly_pow_mod(f: FieldTable, a, e: int, mod) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    base = poly_mod(f, a, mod)
    while e:
        if e & 1:
            out = poly_mod(f, poly_mul(f, out, base), mod)
        base = poly_mod(f, poly_mul(f, base, base), mod)
        e >>= 1
    return out


@lru_cache(maxsize=None)
def irreducibles(q: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles of one degree over F_q (x included at degree
    1), sorted by their ascending coefficient vectors."""
    f = field(q)
    monic = (tail + (1,) for tail in itertools.product(f.elements(), repeat=degree))
    return tuple(poly for poly in monic if poly_is_irreducible(f, poly))


def poly_is_irreducible(f: FieldTable, poly: tuple[int, ...]) -> bool:
    """Trial division by every monic irreducible of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in irreducibles(f.q, d):
            if not poly_mod(f, poly, g):
                return False
    return True


def poly_order(f: FieldTable, poly: tuple[int, ...]) -> int:
    """Multiplicative order of the roots: least e with poly | x**e - 1.

    Requires poly irreducible with nonzero constant term, so that e divides
    q**deg - 1; strips each prime factor of q**deg - 1 while x**(e/p) is
    still 1 modulo poly.
    """
    deg = len(poly) - 1
    if poly[0] == 0:
        raise ValueError("order undefined: x divides the polynomial")
    e = f.q**deg - 1
    if poly_pow_mod(f, (0, 1), e, poly) != (1,):
        raise AssertionError("x**(q**deg - 1) is not 1: the polynomial is reducible")
    for p, _ in factorize(e):
        while e % p == 0 and poly_pow_mod(f, (0, 1), e // p, poly) == (1,):
            e //= p
    return e
