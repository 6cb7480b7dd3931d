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
from it.  It scans no candidate for irreducibility: from one primitive
element alpha of F_(q**deg), x modulo the first h modulo which x has order
q**deg - 1, every irreducible but x is the minimal polynomial of alpha**c
over one cyclotomic coset of c, and the least c of each coset, kept in
`_root_exponents`, gives its root order (Lidl & Niederreiter, Finite
Fields, ch. 2-3).  At q = 2 the powers of alpha and the eliminations run on
packed ints (bit i the coefficient of x**i); larger q use the tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

from .linalg import extend, gf2_extend
from .numtheory import factorize, prime_power

__all__ = [
    "FieldTable",
    "field",
    "irreducibles",
    "poly_divmod",
    "poly_mod",
    "poly_mul",
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
    """All monic irreducibles of one degree over F_q (x, which sorts first,
    included at degree 1), sorted by their ascending coefficient vectors."""
    return tuple([(0, 1)] * (degree == 1) + sorted(_root_exponents(q, degree)))


@lru_cache(maxsize=None)
def _root_exponents(q: int, degree: int) -> MappingProxyType[tuple[int, ...], int]:
    """Each monic irreducible of the degree but x, with the least c such that
    alpha**c is a root, alpha = x modulo h and h the first monic polynomial
    of the degree, in the order of `irreducibles`, modulo which x has order
    q**degree - 1: its roots have order (q**degree - 1)/gcd(c, q**degree - 1).

    That order also proves h irreducible: the units of F_q[x]/(h) number
    q**degree - 1, so the ring is the field F_(q**degree), and alpha
    generates its units.  A root alpha**c of an irreducible of the degree
    has the conjugates alpha**(c q**i), so each of them but x is the minimal
    polynomial of alpha**c over one cyclotomic coset {c q**i} of `degree`
    elements (smaller cosets lie in subfields); its coefficients are the
    one F_q-linear dependency of alpha**(c degree) on the independent
    alpha**(c j), j < degree, read off the powers of alpha, walked once."""
    if degree < 1:
        return MappingProxyType({})
    f, size = field(q), q**degree - 1
    primes, units = ([p for p, _ in factorize(k)] for k in (size, q - 1))
    # h(0), the most significant in the sort order, is (-1)**degree times the
    # norm alpha**(size/(q - 1)) of alpha, which generates F_q*: x - norm
    # passes the same order test
    sign = 1 if degree % 2 else f.neg(1)
    lows = [a for a in range(1, q) if _generates(f, (f.mul(sign, a), 1), q - 1, units)]
    tails = itertools.product(lows, *[range(q)] * (degree - 1))
    h = next(tail + (1,) for tail in tails if _generates(f, tail + (1,), size, primes))
    # alpha**k for k < size, as coordinates over 1, x, ..., x**(degree - 1):
    # packed ints at q = 2 (bit i the coefficient of x**i), tuples otherwise;
    # each step multiplies by x and folds x**degree back through the monic h
    powers = [1 if q == 2 else (1,) + (0,) * (degree - 1)]
    packed = sum(c << i for i, c in enumerate(h))
    for _ in range(size - 1):
        y = powers[-1]
        if q == 2:
            powers.append(y << 1 ^ (packed if y >> degree - 1 else 0))
        else:
            powers.append(tuple(f.sub(low, f.mul(y[-1], c)) for low, c in zip((0, *y[:-1]), h)))
    out, seen = {}, bytearray(size)
    for c in range(size):
        if not seen[c]:
            coset = [c * q**i % size for i in range(degree)]
            for e in coset:
                seen[e] = 1
            if len(set(coset)) == degree:
                out[_relation(f, [powers[c * j % size] for j in range(degree + 1)])] = c
    return MappingProxyType(out)


def _generates(f: FieldTable, h: tuple[int, ...], size: int, primes) -> bool:
    """Whether x has order size modulo h: x**size is 1 and no x**(size/p)
    is, for the primes p of size; at q = 2 by square-and-multiply on packed
    ints, where reading the bits of r in base 4 squares r."""

    def power(k: int):
        if f.q != 2:
            return poly_pow(f, (0, 1), k, h)
        r = 1
        for bit in bin(k)[2:]:
            r = _gf2_mod(int(bin(r)[2:], 4) << (bit == "1"), packed)
        return r

    one = 1 if f.q == 2 else (1,)
    packed = sum(c << i for i, c in enumerate(h))
    return power(size) == one and all(power(size // p) != one for p in primes)


def _relation(f: FieldTable, vectors: list) -> tuple[int, ...]:
    """(m_0, ..., m_(k-1), 1) with sum of m_j vectors[j] = 0, the vectors
    but the last, k of them, independent: one forward elimination of the
    vectors, each tagged with a unit vector that records the combination;
    the last one, reduced to its tags, leads at the first tag column.  At
    q = 2 the vectors are packed ints, shifted above their tag bits for
    `linalg.gf2_extend`; larger q put the tags after them, reversed, for
    `linalg.extend`."""
    k = len(vectors) - 1
    pivots: dict = {}
    if f.q == 2:
        gf2_extend(pivots, (v << k + 1 | 1 << j for j, v in enumerate(vectors)))
        lead = k
    else:
        lead = len(vectors[-1])
        extend(f, pivots, ([*v, *(int(i == j) for i in range(k, -1, -1))] for j, v in enumerate(vectors)))
    if lead not in pivots:
        raise AssertionError("the last vector is independent of the others")
    row = pivots[lead]
    return tuple(row >> j & 1 for j in range(k + 1)) if f.q == 2 else tuple(reversed(row[lead:]))


def _gf2_mod(a: int, b: int) -> int:
    """a mod b for packed binary polynomials, one shifted b per leading bit."""
    top = b.bit_length()
    while (length := a.bit_length()) >= top:
        a ^= b << (length - top)
    return a
