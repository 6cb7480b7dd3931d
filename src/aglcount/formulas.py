"""Closed formulas per conjugacy class and the exact Burnside summation.

For a class index this module evaluates, with exact integer arithmetic:

* the centralizer order in AGL(n, F_q),
* the order of the class representative,
* the exponent e with fix(rep**k) = q**e on points (or None when zero),
* the number of orbits of the cyclic group generated by the representative
  on F_q**n, which is the exponent e with Fix(rep) = q**e on functions,

and folds them into the total number of AGL(n, F_q) orbits of the space of
functions F_q**n -> F_q.

``burnside_total`` is the package's one Burnside fold and one process-pool
path: every count (function classes, the class equation, the quotient codes
of ``rm``) sums weight * |class| * q**e over the classes.  Every division
asserts exactness; a failed assertion means an enumeration or formula bug,
never a rounding issue.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Sequence

from .conjugacy import ClassIndex, PartitionTuple, enumerate_classes
from .numtheory import (
    agl_group_order,
    euler_phi,
    factorize,
    multiplicative_order,
    p_adic_valuation,
    prime_power,
)
from .partitions import Partition, largest_part

__all__ = [
    "burnside_total",
    "centralizer_order",
    "class_equation_total",
    "count_function_classes",
    "element_order",
    "fix_exponent_at",
    "orbit_exponent",
]


def _pairwise_min_sum(lam: Sequence[int]) -> int:
    """sum over part sizes j, k of min(j, k) * lam_j * lam_k, which is the
    sum of the squared parts of the conjugate partition."""
    total = 0
    at_least = 0
    for mj in reversed(lam):
        at_least += mj
        total += at_least * at_least
    return total


def _centralizer_factor(q: int, exponent: int, blocks, head: int = 1) -> int:
    """q**(exponent - L) / head times the product of q**(o*u) - 1 over the
    (o, lam) in blocks, the parts j of lam and u = 1..lam_j; L sums the o*u
    (the denominators of the units 1 - q**-(o*u)).  Checked to be exact."""
    denom_exp = 0
    units = 1
    for o, lam in blocks:
        for mj in lam:
            for u in range(1, mj + 1):
                units *= q ** (o * u) - 1
                denom_exp += o * u
    if units % head != 0:
        raise AssertionError("translation-marked centralizer not integral")
    if exponent < denom_exp:
        raise AssertionError("centralizer q-power exponent went negative")
    return q ** (exponent - denom_exp) * (units // head)


@lru_cache(maxsize=None)
def _unipotent_factor(lam: Partition, marker: int | None, q: int) -> int:
    """Centralizer factor of the unipotent part: a marker t counts only the
    parts of size >= t in the exponent and divides out q**lam_t - 1."""
    if marker is None:
        exponent, head = sum(lam), 1
    else:
        exponent, head = sum(lam[marker - 1 :]), q ** lam[marker - 1] - 1
    return _centralizer_factor(q, exponent + _pairwise_min_sum(lam), ((1, lam),), head)


def _ceil_log(p: int, m: int) -> int:
    """Smallest e with p**e >= m (m >= 1)."""
    e = 0
    power = 1
    while power < m:
        power *= p
        e += 1
    return e


def _floor_log(p: int, m: int) -> int:
    """Largest e with p**e <= m (m >= 1)."""
    e = 0
    power = p
    while power <= m:
        power *= p
        e += 1
    return e


def _divisors_with_phi(fact: dict[int, int]) -> list[tuple[int, int]]:
    out = [(1, 1)]
    for prime, e in fact.items():
        nxt = []
        for d, ph in out:
            nxt.append((d, ph))
            pk = 1
            for k in range(1, e + 1):
                pk *= prime
                nxt.append((d * pk, ph * (pk - pk // prime)))
        out = nxt
    return out


@lru_cache(maxsize=None)
def _positions(mask: int) -> tuple[int, ...]:
    """Bit positions of mask: one shared tuple per mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _divisibility_weights(ds: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """L = lcm(ds), the patterns S (sets of positions in ds) for which some
    divisor k of L is divisible by exactly the ds[i], i in S, and per
    pattern the sum g_S of phi(L / k) over those k.  The g_S add up to L."""
    lcm = math.lcm(*ds)
    fact: dict[int, int] = {}
    for d in ds:
        for prime, e in factorize(d):
            fact[prime] = max(fact.get(prime, 0), e)
    if math.prod(prime**e for prime, e in fact.items()) != lcm:
        raise AssertionError("order factorization does not multiply back to the lcm of the orders d")
    weights: Counter = Counter()
    for cofactor, phi in _divisors_with_phi(fact):
        k = lcm // cofactor
        weights[sum(1 << i for i, d in enumerate(ds) if k % d == 0)] += phi
    return lcm, tuple(map(_positions, weights)), tuple(weights.values())


@lru_cache(maxsize=None)
def _level_sums(parts: tuple[Partition, ...], p: int, a: int) -> tuple[int, ...]:
    """For nu = 0..a, the sum over the partitions of sum_j min(p**nu, j) * m_j:
    the fixed dimension of a unipotent power of p-adic valuation nu on
    Jordan blocks of these shapes."""
    out = []
    cap = 1
    for _ in range(a + 1):
        out.append(sum(min(cap, j) * mj for lam in parts for j, mj in enumerate(lam, start=1)))
        cap *= p
    return tuple(out)


@lru_cache(maxsize=256)
def _spectra_pieces(spectra: tuple[PartitionTuple, ...], q: int) -> tuple[int, int, int, tuple[int, ...]]:
    """What the class formulas take from one spectra tuple: its centralizer
    factor, L = lcm of its orders d, its largest part m, and for
    nu = 0..ceil(log_p m) the pattern sums

        P(nu) = sum_S g_S q**(sum_{i in S} o_i S_i(nu))

    of ``orbit_exponent``, which stay constant once p**nu >= m.  The cache
    is bounded: the enumeration yields all indices of one spectra tuple in
    one run.
    """
    p = prime_power(q).p
    orders = [multiplicative_order(q, spectrum.d) for spectrum in spectra]
    blocks = [(o, entry) for o, spectrum in zip(orders, spectra) for entry in spectrum.entries]
    centralizer = _centralizer_factor(q, sum(o * _pairwise_min_sum(entry) for o, entry in blocks), blocks)
    largest = max((spectrum.largest_part() for spectrum in spectra), default=0)
    top = _ceil_log(p, largest)
    lcm, patterns, weights = _divisibility_weights(tuple(spectrum.d for spectrum in spectra))
    levels = [_level_sums(spectrum.entries, p, top) for spectrum in spectra]
    pattern_sums = tuple(
        sum(g * q ** sum(orders[i] * levels[i][nu] for i in dividing) for dividing, g in zip(patterns, weights))
        for nu in range(top + 1)
    )
    return centralizer, lcm, largest, pattern_sums


def centralizer_order(idx: ClassIndex) -> int:
    """Order of the centralizer of the class representative in AGL(n, F_q):
    the unipotent part's factor times the spectra's, each cached."""
    return _unipotent_factor(idx.unipotent, idx.marker, idx.q) * _spectra_pieces(idx.spectra, idx.q)[0]


def element_order(idx: ClassIndex) -> int:
    """Order of the class representative as a group element."""
    p = prime_power(idx.q).p
    _, lcm, m_spectra, _ = _spectra_pieces(idx.spectra, idx.q)
    m_uni = largest_part(idx.unipotent)
    m_max = max(m_uni, m_spectra)
    if m_max == 0:
        raise AssertionError("index has no parts at all")
    order = lcm * p ** _ceil_log(p, m_max)
    t = idx.marker
    if t is not None and t == m_uni and t >= m_spectra and p ** _floor_log(p, t) == t:
        order *= p
    return order


def fix_exponent_at(idx: ClassIndex, k: int) -> int | None:
    """Exponent e with q**e points of F_q**n fixed by the k-th power.

    Returns None when the power fixes no point, which happens exactly for
    translation-marked classes whose k-th power still moves the marked block.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = prime_power(idx.q).p
    nu = p_adic_valuation(k, p)
    if idx.marker is not None and nu < 1 + _floor_log(p, idx.marker):
        return None
    total = _level_sums((idx.unipotent,), p, nu)[nu]
    for spectrum in idx.spectra:
        if k % spectrum.d == 0:
            total += multiplicative_order(idx.q, spectrum.d) * _level_sums(spectrum.entries, p, nu)[nu]
    return total


def orbit_exponent(idx: ClassIndex) -> int:
    """Number of orbits of the cyclic group of the representative on F_q**n.

    This is the exponent e with Fix(rep) = q**e fixed functions: a function
    is fixed iff it is constant on every orbit.  By Burnside it is
    (1/b) sum_{k | b} phi(b/k) q**e(k), where b = L * p**a is the order, L
    the lcm of the class's orders d, and q**e(k) counts the points fixed by
    the k-th power.  e(k) depends only on nu = v_p(k), through U(nu) on the
    unipotent part and S_d(nu) on the blocks of order d (each o_d wide), and
    on the pattern S of the d dividing k.  So the sum runs over the levels
    nu (from the translation threshold up; below it no point is fixed) and
    the patterns S, not over the divisors:

        (1/b) sum_nu phi(p**(a - nu)) q**U(nu) P(nu),
        P(nu) = sum_S g_S q**(sum_{d in S} o_d S_d(nu)),

    where g_S sums phi(L / k') over the divisors k' of L with pattern S.
    P depends on the spectra alone and comes with their cached pieces.
    """
    q = idx.q
    p = prime_power(q).p
    b = element_order(idx)
    _, lcm, _, sums = _spectra_pieces(idx.spectra, q)
    a = _floor_log(p, b // lcm)
    if b != lcm * p**a:
        raise AssertionError("element order is not the lcm of the orders d times a power of p")
    threshold = 0 if idx.marker is None else 1 + _floor_log(p, idx.marker)
    if threshold > a:
        raise AssertionError("translation threshold exceeds the p-adic valuation of the order")
    unipotent = _level_sums((idx.unipotent,), p, a)
    top = len(sums) - 1
    total = 0
    for nu in range(threshold, a + 1):
        total += euler_phi(p ** (a - nu)) * q ** unipotent[nu] * sums[min(nu, top)]
    if total % b != 0:
        raise AssertionError("orbit-count divisor sum not divisible by the order")
    return total // b


def _fold_batch(args) -> tuple[int, Counter]:
    """Fold one batch of class indices: its length, and per exponent e the
    sum of weight * class size over the (weight, e) terms of its classes."""
    batch, group, terms = args
    coeffs: Counter = Counter()
    for done, idx in enumerate(batch, start=1):
        size, rem = divmod(group, centralizer_order(idx))
        if rem:
            raise AssertionError("centralizer does not divide the group order")
        for weight, exponent in terms(idx):
            coeffs[exponent] += weight * size
    return done, coeffs


def _merge(results, q: int, progress) -> int:
    coeffs: Counter = Counter()
    done = 0
    for count, part in results:
        coeffs.update(part)
        done += count
        if progress is not None:
            progress(done)
    # Horner from the top exponent down: one pass for the sum of c * q**e
    total = 0
    prev = max(coeffs, default=0)
    for exponent in sorted(coeffs, reverse=True):
        total = total * q ** (prev - exponent) + coeffs[exponent]
        prev = exponent
    return total * q**prev


def burnside_total(n: int, q: int, terms, jobs: int = 1, progress=None, chunk: int = 2048) -> int:
    """Undivided Burnside sum over the conjugacy classes of AGL(n, F_q).

    terms(idx) yields (weight, e) pairs: weight counts the classes or
    representatives the pair stands for and q**e is their fixed count.  The
    result is the sum of weight * |class| * q**e, collected per exponent.
    Class indices go in batches of chunk, through a process pool when
    jobs > 1 (terms must then pickle); progress, if given, gets the running
    class-index count after every batch on either path.  The result is
    identical for any jobs.
    """
    group = agl_group_order(n, q)
    position = itertools.count()
    batches = (b for _, b in itertools.groupby(enumerate_classes(n, q), lambda _: next(position) // chunk))
    if jobs <= 1:
        # lazy batches: the serial path holds one class index at a time
        return _merge(map(_fold_batch, ((b, group, terms) for b in batches)), q, progress)
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        work = ((list(b), group, terms) for b in batches)
        return _merge(pool.imap_unordered(_fold_batch, work), q, progress)


def _orbit_terms(idx: ClassIndex):
    return ((idx.multiplicity(), orbit_exponent(idx)),)


def _class_terms(idx: ClassIndex):
    return ((idx.multiplicity(), 0),)


def count_function_classes(n: int, q: int, jobs: int = 1, progress=None) -> int:
    """Number of AGL(n, F_q) orbits of the q**(q**n) functions F_q**n -> F_q.

    n = 0 returns q by convention (q constant functions, trivial group).
    jobs and progress go to ``burnside_total``, as for every count.
    """
    prime_power(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return q
    total = burnside_total(n, q, _orbit_terms, jobs=jobs, progress=progress)
    count, rem = divmod(total, agl_group_order(n, q))
    if rem:
        raise AssertionError("Burnside sum not divisible by the group order")
    return count


def class_equation_total(n: int, q: int) -> int:
    """Sum of all conjugacy-class sizes; equals |AGL(n, F_q)| iff the class
    data (enumeration completeness and centralizer orders) is consistent."""
    return burnside_total(n, q, _class_terms)
