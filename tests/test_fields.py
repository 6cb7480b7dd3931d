import functools
import itertools
import math
import random
import subprocess
import sys

import pytest

from aglcount.fields import (
    _relation,
    _root_exponents,
    field,
    irreducibles,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_pow,
    poly_trim,
)
from aglcount.linalg import GFMatrix, rank
from aglcount.numtheory import divisors, factorize


def test_rejects_non_prime_powers_and_oversize():
    for q in (1, 6, 10, 12, 100):
        with pytest.raises(ValueError):
            field(q)
    with pytest.raises(ValueError):
        field(1024)
    # the size is checked before prime_power trial-divides q, which would not
    # finish here; a subprocess, so that a regression fails instead of hanging
    script = "from aglcount.fields import field\ntry:\n    field(10**18 + 3)\nexcept ValueError as exc:\n    print(exc)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10)
    assert proc.stdout == "fields larger than 512 are unsupported, got 1000000000000000003\n", proc.stderr


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_axioms_exhaustive(q):
    f = field(q)
    elems = list(range(q))
    for a in elems:
        assert f.add(a, 0) == a and f.mul(a, 1) == a and f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [25, 27, 32, 49, 64, 81, 121, 128, 243, 256, 343, 512])
def test_field_axioms_sampled_for_larger_fields(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(500):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# the pinned modulus of every proper prime power q <= 512, ascending coefficients
PINNED_MODULI = {
    4: (1, 1, 1),  # x^2 + x + 1
    8: (1, 1, 0, 1),  # x^3 + x + 1
    9: (1, 0, 1),  # x^2 + 1
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 0, 1),
    27: (1, 2, 0, 1),  # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1),
    121: (1, 0, 1),
    125: (1, 1, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1),
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
    289: (3, 0, 1),
    343: (2, 0, 0, 1),
    361: (1, 0, 1),
    512: (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_pinned_moduli_are_reproducible():
    for q, modulus in PINNED_MODULI.items():
        assert field(q).modulus == modulus, q
    assert field(5).modulus is None


def schoolbook_product(a, b, p, modulus):
    """a * b in F_p[x]/(modulus) on base-p digit vectors, with integer
    arithmetic mod p and top-down reduction (test reference)."""
    m = len(modulus) - 1
    da = [a // p**k % p for k in range(m)]
    db = [b // p**k % p for k in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * m - 2, m - 1, -1):
        lead = prod[top]
        for i, c in enumerate(modulus):
            prod[top - m + i] = (prod[top - m + i] - lead * c) % p
    return sum(c * p**k for k, c in enumerate(prod[:m]))


# every proper prime power q <= 512, plus small and large primes
TABLE_FIELDS = sorted(PINNED_MODULI) + [2, 3, 251, 509]


@pytest.mark.parametrize("q", TABLE_FIELDS)
def test_multiplication_table_is_the_schoolbook_product(q):
    # every pair up to q = 49, then 2,000 seeded pairs
    f = field(q)
    if q <= 49:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        want = a * b % q if f.m == 1 else schoolbook_product(a, b, f.p, PINNED_MODULI[q])
        assert f.mul(a, b) == want, (q, a, b)


def root_orders(q, k):
    """The root order of each irreducible of degree k but x, from its
    exponent in the enumerator's table."""
    size = q**k - 1
    return {g: size // math.gcd(c, size) for g, c in _root_exponents(q, k).items()}


# reference copies of the former enumerator, which scanned every monic
# candidate: trial division by the irreducibles of degree <= deg/2 (packed
# at q = 2), and the order of x modulo each result by prime stripping


def gf2_mod(a, b):
    """a mod b for packed binary polynomials (test reference)."""
    top = b.bit_length()
    while (length := a.bit_length()) >= top:
        a ^= b << (length - top)
    return a


@functools.lru_cache(maxsize=None)
def scan_irreducibles(q, degree):
    """Monic irreducibles of the degree over F_q, in product order, that no
    irreducible of degree <= degree/2 divides (test reference)."""
    small = [h for d in range(1, degree // 2 + 1) for h in scan_irreducibles(q, d)]
    if q == 2:
        small = [sum(c << i for i, c in enumerate(h)) for h in small]
        packed = (g for g in range(max(2, 1 << degree), 2 << degree) if all(gf2_mod(g, h) for h in small))
        return tuple(sorted(tuple(g >> i & 1 for i in range(degree + 1)) for g in packed))
    f = field(q)
    monic = (tail + (1,) for tail in itertools.product(range(q), repeat=degree))
    return tuple(g for g in monic if all(poly_mod(f, g, h) for h in small))


def root_order(f, poly):
    """Least e with x**e = 1 modulo the irreducible poly: strip each prime
    of q**deg - 1 while x**(e/p) is 1 (test reference, packed at q = 2)."""

    def is_one(k):
        if f.q != 2:
            return poly_pow(f, (0, 1), k, poly) == (1,)
        r, packed = 1, sum(c << i for i, c in enumerate(poly))
        for bit in bin(k)[2:]:
            r = gf2_mod(int(bin(r)[2:], 4) << (bit == "1"), packed)
        return r == 1

    e = f.q ** (len(poly) - 1) - 1
    assert is_one(e)
    for p, _ in factorize(e):
        while e % p == 0 and is_one(e // p):
            e //= p
    return e


# q**k <= 2**12, proper prime powers included, and q = 2 to k = 14
SCANNED = [(q, k) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27) for k in range(1, 13) if q**k <= 4096]
SCANNED += [(2, 13), (2, 14)]


@pytest.mark.parametrize("q,k", SCANNED)
def test_enumerator_matches_the_trial_division_scan(q, k):
    assert irreducibles(q, k) == scan_irreducibles(q, k)
    orders = root_orders(q, k)
    assert set(orders) == set(irreducibles(q, k)) - {(0, 1)}
    f = field(q)
    for g, order in orders.items():
        assert order == root_order(f, g), (q, g)


@pytest.mark.parametrize("q,kmax", [(2, 6), (2, 8), (3, 4), (4, 3), (5, 2), (7, 2)])
def test_poly_order_matches_power_walk(q, kmax):
    # the least e with x**e = 1 modulo the polynomial, one multiplication by
    # x at a time, is the root order of the enumerator's table and of the
    # reference
    f = field(q)
    for k in range(1, kmax + 1):
        for poly, order in root_orders(q, k).items():
            power, e = poly_mod(f, (0, 1), poly), 1
            while power != (1,):
                power, e = poly_mod(f, poly_mul(f, power, (0, 1)), poly), e + 1
            assert order == root_order(f, poly) == e, (q, poly)


@functools.lru_cache(maxsize=None)
def table_irreducibles(k):
    """Monic binary polynomials of degree k, in product order, that no
    irreducible of degree <= k/2 divides, by the table poly_mod (test
    reference for the packed scan)."""
    f = field(2)
    small = [h for d in range(1, k // 2 + 1) for h in table_irreducibles(d)]
    monic = (tail + (1,) for tail in itertools.product((0, 1), repeat=k))
    return tuple(g for g in monic if all(poly_mod(f, g, h) for h in small))


def table_order(f, g):
    """Order of x modulo g through the table poly_pow: from q**deg - 1, drop
    a prime p of d while x**(d/p) = 1, until x**(d/p) != 1 for every prime
    p | d (test reference for the packed powers)."""
    def one(k):
        return poly_pow(f, (0, 1), k, g) == (1,)

    d = f.q ** (len(g) - 1) - 1
    assert one(d)
    while (p := next((p for p, _ in factorize(d) if one(d // p)), None)) is not None:
        d //= p
    return d


def test_binary_irreducibles_and_orders_match_the_tables():
    f = field(2)
    assert irreducibles(2, 0) == ()  # the constant 1 is no irreducible
    for k in range(1, 11):
        assert irreducibles(2, k) == table_irreducibles(k), k
        for g, order in root_orders(2, k).items():
            assert order == table_order(f, g), g


def _mobius(n: int) -> int:
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


@pytest.mark.parametrize(
    "q,kmax", [(2, 10), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)]
)
def test_irreducibles_match_gauss_count(q, kmax):
    for k in range(1, kmax + 1):
        polys = irreducibles(q, k)
        gauss = sum(_mobius(d) * q ** (k // d) for d in divisors(k))
        assert gauss % k == 0 and len(polys) == gauss // k, (q, k)
        assert all(len(p) == k + 1 and p[-1] == 1 for p in polys)
        assert list(polys) == sorted(set(polys))


def power(f, a, e):
    """a**e by repeated squaring through FieldTable.mul (test reference)."""
    out = 1
    while e:
        if e & 1:
            out = f.mul(out, a)
        a = f.mul(a, a)
        e >>= 1
    return out


def test_generator_has_full_order():
    for q in TABLE_FIELDS + [5, 7]:
        f = field(q)
        g = f.generator
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = f.mul(x, g)
            seen.add(x)
        assert len(seen) == q - 1, q
        # the least g with g**((q-1)/r) != 1 for every prime r dividing q - 1
        primes = [r for r, _ in factorize(q - 1)]
        least = next(
            a for a in range(1, q) if all(power(f, a, (q - 1) // r) != 1 for r in primes)
        )
        assert g == least, q


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    for q in (2, 3, 4, 5):
        f = field(q)
        for _ in range(50):
            a = poly_trim([rng.randrange(q) for _ in range(rng.randint(0, 6))])
            b = poly_trim([rng.randrange(q) for _ in range(rng.randint(1, 4))])
            if not b:
                continue
            quot, rem = poly_divmod(f, a, b)
            recombined = poly_trim(
                [
                    f.add(x, y)
                    for x, y in itertools.zip_longest(poly_mul(f, quot, b), rem, fillvalue=0)
                ]
            )
            assert recombined == a
            assert len(rem) < len(b)


def schoolbook_mul(f, a, b):
    """Reference product, one coefficient pair at a time through the
    FieldTable methods."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ca, cb))
    return poly_trim(out)


def schoolbook_divmod(f, a, b):
    """Reference long division through FieldTable.mul/sub/inv."""
    rem = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    for off in range(len(quot) - 1, -1, -1):
        c = f.mul(rem[off + len(b) - 1], f.inv(b[-1]))
        quot[off] = c
        for i, bc in enumerate(b):
            rem[off + i] = f.sub(rem[off + i], f.mul(c, bc))
    return poly_trim(quot), poly_trim(rem)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_poly_kernels_match_schoolbook_reference(q):
    # zero and constant operands, and divisors with any leading coefficient
    rng = random.Random(q)
    f = field(q)
    polys = [(), (1,), (q - 1,)] + [
        poly_trim([rng.randrange(q) for _ in range(rng.randint(1, 9))]) for _ in range(60)
    ]
    for a in polys:
        for b in polys[:3] + rng.sample(polys[3:], 12):
            assert poly_mul(f, a, b) == schoolbook_mul(f, a, b), (a, b)
            if not b:
                with pytest.raises(ZeroDivisionError):
                    poly_divmod(f, a, b)
                continue
            quot, rem = poly_divmod(f, a, b)
            assert (quot, rem) == schoolbook_divmod(f, a, b), (a, b)
            assert len(rem) < len(b)
            recombined = itertools.zip_longest(schoolbook_mul(f, quot, b), rem, fillvalue=0)
            assert poly_trim([f.add(x, y) for x, y in recombined]) == a
    # a power reduced product by product equals the reduced full power
    moduli = [m for m in rng.sample(polys[3:], 10) if m]
    for a, mod in zip(rng.sample(polys, len(moduli)), moduli):
        for e in range(1, 12):
            assert poly_pow(f, a, e, mod) == poly_mod(f, poly_pow(f, a, e), mod), (a, e, mod)


def test_poly_irreducibility_and_order():
    f2 = field(2)
    assert (1, 1, 0, 1) in irreducibles(2, 3)  # x^3 + x + 1
    assert (1, 0, 0, 1) not in irreducibles(2, 3)  # x^3 + 1 = (x+1)(x^2+x+1)
    assert root_orders(2, 3)[1, 1, 0, 1] == 7
    assert root_orders(2, 2)[1, 1, 1] == 3
    assert root_orders(2, 1) == {(1, 1): 1}  # x + 1, root 1; x has no root order
    # alpha = x modulo x^4 + x^3 + 1, the first primitive quartic in the
    # order of irreducibles: x^4 + x + 1 has the root alpha**7 = alpha**-1,
    # x^4 + x^3 + x^2 + x + 1 the root alpha**3 of order 5
    assert _root_exponents(2, 4) == {(1, 0, 0, 1, 1): 1, (1, 1, 0, 0, 1): 7, (1, 1, 1, 1, 1): 3}
    assert root_order(f2, (1, 1, 1, 1, 1)) == 5
    f3 = field(3)
    assert (1, 2, 0, 1) in irreducibles(3, 3)
    assert poly_pow(f3, (1, 1), 2) == (1, 2, 1)
    assert poly_mod(f3, (1, 2, 1), (1, 1)) == ()


def combine(f, coefficients, vectors):
    """sum of c_j vectors[j] over F_q, entry by entry (test reference)."""
    out = [0] * len(vectors[0])
    for c, v in zip(coefficients, vectors):
        out = [f.add(a, f.mul(c, b)) for a, b in zip(out, v)]
    return out


@pytest.mark.parametrize("q", [3, 4, 9])
def test_relation_of_a_dependent_last_vector(q):
    # k independent vectors and a random combination of them: the relation
    # ends in 1 and combines all k + 1 to zero
    rng = random.Random(80 + q)
    f = field(q)
    for _ in range(30):
        width = rng.randint(1, 5)
        k = rng.randint(0, width)
        vectors = [[rng.randrange(q) for _ in range(width)] for _ in range(k)]
        if k and rank(GFMatrix(f, vectors)) < k:
            continue
        vectors.append(combine(f, [rng.randrange(q) for _ in range(k)], vectors) if k else [0] * width)
        relation = _relation(f, vectors)
        assert len(relation) == k + 1 and relation[-1] == 1, vectors
        assert combine(f, relation, vectors) == [0] * width, (vectors, relation)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_relation_refuses_an_independent_last_vector(q):
    # at q = 2 the vectors are packed ints
    f = field(q)
    for k in range(4):
        units = [[int(i == j) for i in range(k + 1)] for j in range(k + 1)]
        vectors = [sum(b << i for i, b in enumerate(v)) for v in units] if q == 2 else units
        with pytest.raises(AssertionError, match="independent"):
            _relation(f, vectors)
