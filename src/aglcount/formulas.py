"""Closed formulas per conjugacy class and the exact Burnside summation.

For a class index this module evaluates, with exact integer arithmetic:

* the centralizer order in AGL(n, F_q),
* the order of the class representative,
* the exponent e with fix(rep**k) = q**e on points (or None when zero),
* the number of orbits of the cyclic group generated by the representative
  on F_q**n, which is the exponent e with Fix(rep) = q**e on functions,

and folds them into the total number of AGL(n, F_q) orbits of the space of
functions F_q**n -> F_q.

``burnside_total`` is the package's one Burnside fold and one path to
worker processes: every count (function classes, the class equation, the
quotient codes of ``rm``) sums weight * |class| * q**e over the classes.
Most of a class's work depends on its spectra tuple alone.  The fold
walks the spectra tuples of one weight itself, carrying down the walk
the products and max of parts cached once per partition tuple, so a full
tuple only adds its pattern sums, from divisibility-pattern weights found
by inclusion-exclusion over the orders d, with no factoring.  The
unipotent rows of the remaining weight are looked up once per task, and
one orbit-count step per (tuple, row) pair combines the two; no class
index is built per pair.  One spectra weight, which owns one row table,
is the unit of work in process and in the workers alike; with a pool,
the parent folds the tasks no worker has started.  The sum of
c_e * q**e goes by halves, not by Horner.  Every division asserts
exactness; a failed assertion means an enumeration or formula bug.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache, partial, reduce
from itertools import accumulate, zip_longest
from typing import Sequence

from .conjugacy import (
    ClassIndex,
    PartitionTuple,
    _d_info,
    _fitting,
    _iter_spectra,
    _permutation_count,
    enumerate_classes,
)
from .numtheory import agl_group_order, multiplicative_order, p_adic_valuation, prime_power
from .partitions import Partition, enumerate_partitions, largest_part, support, weight

__all__ = [
    "burnside_count",
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


@lru_cache(maxsize=None)
def _unit_product(q: int, o: int, k: int) -> int:
    """The product of q**(o*u) - 1 over u = 1..k."""
    return math.prod([q ** (o * u) - 1 for u in range(1, k + 1)])


def _centralizer_factor(q: int, exponent: int, blocks) -> int:
    """q**(exponent - L) times the product of q**(o*u) - 1 over the (o, lam)
    in blocks, the parts j of lam and u = 1..lam_j; L sums the o*u (the
    denominators of the units 1 - q**-(o*u)).  Checked to be exact."""
    denom_exp = 0
    units = 1
    for o, lam in blocks:
        for mj in lam:
            if mj:
                units *= _unit_product(q, o, mj)
                denom_exp += o * mj * (mj + 1) // 2
    if exponent < denom_exp:
        raise AssertionError("centralizer q-power exponent went negative")
    return q ** (exponent - denom_exp) * units


def _ceil_log(p: int, m: int) -> int:
    """Smallest e with p**e >= m (m >= 1)."""
    e = 0
    power = 1
    while power < m:
        power *= p
        e += 1
    return e


@lru_cache(maxsize=None)
def _positions(mask: int) -> tuple[int, ...]:
    """Bit positions of mask: one shared tuple per mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _divisibility_weights(ds: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """L = lcm(ds), the patterns S (sets of positions in ds) for which some
    divisor k of L is divisible by exactly the ds[i], i in S, and per
    pattern the sum g_S of phi(L / k) over those k.

    By inclusion-exclusion, with no factorization: the divisors k of L
    divisible by every ds[i], i in T, are the multiples of l_T = lcm(ds[i] :
    i in T), and phi(L / k) summed over them is h(T) = L / l_T (the phi(j)
    over the divisors j of m add up to m).  So h(T) is the sum of g_S over
    the S that contain T, and g_S is the Moebius transform of h over the
    supersets of S.  The g_S always add up to h({}) = L, so the checks are
    others: every g_S >= 0, and every kept S (g_S > 0) is closed under
    division, since a k divisible by ds[i] is divisible by each ds[j] that
    divides ds[i].
    """
    # position by position: closure[mask] holds the j with ds[j] dividing a
    # ds[i], i in mask
    lcms, closure = [1], [0]
    for d in ds:
        dividing = sum([1 << j for j, dj in enumerate(ds) if d % dj == 0])
        lcms += [math.lcm(sub, d) for sub in lcms]
        closure += [need | dividing for need in closure]
    lcm = lcms[-1]
    g = []
    for sub in lcms:
        h, rem = divmod(lcm, sub)
        if rem:
            raise AssertionError("lcm of some orders d does not divide the lcm of all")
        g.append(h)
    size = len(g)
    for i in range(len(ds)):
        bit = 1 << i
        for mask in range(size):
            if not mask & bit:
                g[mask] -= g[mask | bit]
    kept = []
    for mask, g_s in enumerate(g):
        if g_s < 0:
            raise AssertionError("divisibility pattern weight went negative")
        if g_s:
            if closure[mask] & ~mask:
                raise AssertionError("divisibility pattern not closed under division of the orders d")
            kept.append(mask)
    return lcm, tuple(map(_positions, kept)), tuple([g[mask] for mask in kept])


def _level_sums(parts: tuple[Partition, ...], p: int, a: int) -> tuple[int, ...]:
    """For nu = 0..a, the sum over the partitions of sum_j min(p**nu, j) * m_j:
    the fixed dimension of a unipotent power of p-adic valuation nu on
    Jordan blocks of these shapes, as the sum over i <= p**nu of the number
    of parts of size >= i."""
    counts = [sum(column) for column in zip_longest(*parts, fillvalue=0)]
    at_least = list(accumulate(counts[::-1]))[::-1]
    totals = [0, *accumulate(at_least)]
    return tuple([totals[min(p**nu, len(at_least))] for nu in range(a + 1)])


# What the class formulas take from one partition tuple of the spectra: the
# centralizer factor of its blocks, its largest part m_d, its fold
# multiplicity, and o_d * S_d(nu) for nu = 0..ceil(log_p m_d), after which
# it stays at its last value.
_Block = namedtuple("_Block", "centralizer largest multiplicity fixed")


@lru_cache(maxsize=None)
def _block(q: int, spectrum: PartitionTuple) -> _Block:
    """The parts of one partition tuple, each worked out once per tuple."""
    o = multiplicative_order(q, spectrum.d)
    entries = spectrum.entries
    exponent = o * sum([_pairwise_min_sum(entry) for entry in entries])
    centralizer = _centralizer_factor(q, exponent, [(o, entry) for entry in entries])
    largest = max([largest_part(entry) for entry in entries], default=0)
    p = prime_power(q).p
    fixed = tuple([o * s for s in _level_sums(entries, p, _ceil_log(p, largest))])
    return _Block(centralizer, largest, _permutation_count(spectrum.psi, entries), fixed)


# What the class formulas take from one spectra tuple: the centralizer factor
# of its blocks, L = the lcm of its orders d, its largest part m, ceil(log_p m),
# the pattern sums P(nu) of ``orbit_exponent`` for nu = 0..ceil(log_p n) + 1,
# and the fold multiplicity of its indices.
_Pieces = namedtuple("_Pieces", "centralizer lcm largest level sums multiplicity")

# What the spectra walk carries down to each prefix of a spectra tuple: the
# prefix, the products of its blocks' centralizer factors and
# multiplicities, the max of their largest parts, its orders d and its blocks.
_Carried = namedtuple("_Carried", "spectra centralizer multiplicity largest orders blocks")
_NO_SPECTRA = _Carried((), 1, 1, 0, (), ())


def _carry(q: int, acc: _Carried, spectrum: PartitionTuple) -> _Carried:
    """acc extended by one partition tuple, through its cached parts."""
    block = _block(q, spectrum)
    spectra, centralizer, multiplicity, largest, orders, blocks = acc
    return _Carried(
        (*spectra, spectrum),
        centralizer * block.centralizer,
        multiplicity * block.multiplicity,
        max(largest, block.largest),
        (*orders, spectrum.d),
        (*blocks, block),
    )


def _pieces(q: int, n: int, acc: _Carried) -> _Pieces:
    """The pieces of the spectra tuple that acc carries, at dimension n,
    with the pattern sums

        P(nu) = sum_S g_S q**(sum_{i in S} o_i S_i(nu))

    of ``orbit_exponent``, which stay constant once p**nu >= m, up to the
    largest p-adic valuation of an element order at dimension n.  The
    centralizer factor, the multiplicity and the largest part come carried;
    o_i S_i(nu) is a lookup in the cached parts of each partition tuple.
    """
    p = prime_power(q).p
    top = _ceil_log(p, acc.largest)
    lcm, patterns, weights = _divisibility_weights(acc.orders)
    pattern_sums = []
    for nu in range(top + 1):
        exponents = [block.fixed[min(nu, len(block.fixed) - 1)] for block in acc.blocks]
        total = 0
        for dividing, g in zip(patterns, weights):
            e = 0
            for i in dividing:
                e += exponents[i]
            total += g * q**e
        pattern_sums.append(total)
    pattern_sums += pattern_sums[-1:] * (_ceil_log(p, n) + 1 - top)
    return _Pieces(acc.centralizer, lcm, acc.largest, top, tuple(pattern_sums), acc.multiplicity)


def _spectra_pieces(idx: ClassIndex) -> _Pieces:
    """The pieces of the spectra tuple of idx, carried through its partition
    tuples as the fold's spectra walk carries them."""
    return _pieces(idx.q, idx.n, reduce(partial(_carry, idx.q), idx.spectra, _NO_SPECTRA))


# What the class formulas take from one unipotent partition and marker: the
# centralizer factor of the unipotent part, its largest part m_uni,
# ceil(log_p m_uni), the translation threshold (the least nu at which a power
# fixes a point), whether the order gains a p (the marker is m_uni and a power
# of p), and q**U(nu) for nu = 0..ceil(log_p n) + 1.
_Row = namedtuple("_Row", "centralizer largest level threshold bump powers")


@lru_cache(maxsize=None)
def _unipotent_rows(m: int, q: int, top: int) -> dict[tuple[Partition, int | None], _Row]:
    """The rows of weight m, keyed by (partition, marker), the marker None
    for the unmarked row.  The powers reach nu = top, the largest p-adic
    valuation of an element order at dimension n when top = ceil(log_p n) + 1,
    so every n with the same top shares the table."""
    p = prime_power(q).p
    rows = {}
    for lam in enumerate_partitions(m):
        largest = largest_part(lam)
        level = _ceil_log(p, largest)
        # U(nu) is the weight m once p**nu covers the largest part
        powers = tuple(q**u for u in _level_sums((lam,), p, level)) + (q**m,) * (top - level)
        unmarked = _centralizer_factor(q, sum(lam) + _pairwise_min_sum(lam), ((1, lam),))
        rows[lam, None] = _Row(unmarked, largest, level, 0, False, powers)
        for t in support(lam):
            # a marker t counts only the parts of size >= t in the q-exponent
            # and divides out q**lam_t - 1
            factor, rem = divmod(unmarked, q ** sum(lam[: t - 1]) * (q ** lam[t - 1] - 1))
            if rem:
                raise AssertionError("translation-marked centralizer not integral")
            threshold = _ceil_log(p, t + 1)
            bump = t == largest and p ** (threshold - 1) == t
            rows[lam, t] = _Row(factor, largest, level, threshold, bump, powers)
    return rows


def _rows_of(n: int, q: int, m: int, keys) -> list[_Row]:
    """The rows of the (partition, marker) keys of weight m, from the table
    at dimension n and q."""
    rows = _unipotent_rows(m, q, _ceil_log(prime_power(q).p, n) + 1)
    try:
        return [rows[key] for key in keys]
    except KeyError:
        raise AssertionError("class index without a unipotent row") from None


def _unipotent_row(idx: ClassIndex) -> _Row:
    """The row of idx's (partition, marker)."""
    return _rows_of(idx.n, idx.q, weight(idx.unipotent), [(idx.unipotent, idx.marker)])[0]


def _orbit_count(row: _Row, pieces: _Pieces, p: int) -> tuple[int, int]:
    """a with element order L * p**a (the p-power that covers the largest
    part, times p when the marked block is a largest one of p-power size),
    and the divisor sum of ``orbit_exponent`` for that order."""
    _, largest, level, threshold, bump, powers = row
    _, lcm, spectra_largest, spectra_level, sums, _ = pieces
    if not (largest or spectra_largest):
        raise AssertionError("index has no parts at all")
    a = max(level, spectra_level)
    if bump and largest >= spectra_largest:
        a += 1
    if threshold > a:
        raise AssertionError("translation threshold exceeds the p-adic valuation of the order")
    if a >= len(powers):
        raise AssertionError("p-adic valuation of the order beyond the levels at dimension n")
    total = 0
    pk = p ** (a - threshold)
    for nu in range(threshold, a + 1):
        # phi(p**k) = p**k - p**(k - 1), and 1 at k = 0
        lower = pk // p
        total += (pk - lower) * powers[nu] * sums[nu]
        pk = lower
    orbits, rem = divmod(total, lcm * p**a)
    if rem:
        raise AssertionError("orbit-count divisor sum not divisible by the order")
    return a, orbits


def centralizer_order(idx: ClassIndex) -> int:
    """Order of the centralizer of the class representative in AGL(n, F_q):
    the unipotent part's factor times the spectra's."""
    return _unipotent_row(idx).centralizer * _spectra_pieces(idx).centralizer


def element_order(idx: ClassIndex) -> int:
    """Order of the class representative as a group element."""
    pieces = _spectra_pieces(idx)
    p = prime_power(idx.q).p
    return pieces.lcm * p ** _orbit_count(_unipotent_row(idx), pieces, p)[0]


def fix_exponent_at(idx: ClassIndex, k: int) -> int | None:
    """Exponent e with q**e points of F_q**n fixed by the k-th power.

    Returns None when the power fixes no point, which happens exactly for
    translation-marked classes whose k-th power still moves the marked block.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = prime_power(idx.q).p
    nu = p_adic_valuation(k, p)
    if idx.marker is not None and nu < _ceil_log(p, idx.marker + 1):
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
    P depends on the spectra alone and q**U(nu) on the unipotent row alone.
    """
    return _orbit_count(_unipotent_row(idx), _spectra_pieces(idx), prime_power(idx.q).p)[1]


def _fold_weight(args) -> tuple[int, Counter]:
    """Fold the indices of spectra weight w: their number, and per exponent
    e the sum of weight * class size over their (weight, e) terms.  Each
    spectra tuple of weight w, as the walk carries it, meets each unipotent
    row of weight n - w.  The rows are drawn once, at the first tuple (none
    for an empty weight), keyed by the spectra-free indices of dimension
    n - w, or ((), None) alone at w = n."""
    n, q, w, group, terms = args
    p = prime_power(q).p
    coeffs: Counter = Counter()
    count = 0
    rows = None
    for acc in _iter_spectra(_d_info(n, q), _fitting(n, q), 0, w, partial(_carry, q), _NO_SPECTRA):
        if rows is None:
            keys = [(idx.unipotent, idx.marker) for idx in enumerate_classes(n - w, q, 0)] if w < n else [((), None)]
            rows = list(zip(keys, _rows_of(n, q, n - w, keys)))
        pieces = _pieces(q, n, acc)
        quotient, rem = divmod(group, pieces.centralizer)
        if rem:
            raise AssertionError("centralizer does not divide the group order")
        spectra, multiplicity = acc.spectra, pieces.multiplicity
        for (unipotent, marker), row in rows:
            # together with the check above: the product divides the group order
            size, rem = divmod(quotient, row.centralizer)
            if rem:
                raise AssertionError("centralizer does not divide the group order")
            orbits = _orbit_count(row, pieces, p)[1]
            for times, exponent in terms(spectra, unipotent, marker, multiplicity, orbits):
                coeffs[exponent] += times * size
        count += len(rows)
    return count, coeffs


def _power_sum(table, q: int) -> int:
    """Sum of c * q**e over the (e, c) pairs, by halves: neighbours in the
    sorted table pair up as lo + hi * q**(e_hi - e_lo), level by level, so
    the few products of large numbers come last."""
    level = sorted(table)
    if not level:
        return 0
    while len(level) > 1:
        paired = [(e, c + c_hi * q ** (e_hi - e)) for (e, c), (e_hi, c_hi) in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    exponent, total = level[0]
    return total * q**exponent


def _merge(results, q: int, progress) -> int:
    coeffs: Counter = Counter()
    done = 0
    for count, part in results:
        coeffs.update(part)
        done += count
        if progress is not None and count:
            progress(done)
    return _power_sum(coeffs.items(), q)


def _fold_beside(futures, tasks):
    """Results of the pooled tasks: each one the parent can still cancel,
    which no worker has started, folded in process from w = 0 up (never
    w = n), then the workers' as they complete."""
    from concurrent.futures import as_completed

    for future, task in zip(futures[:0:-1], tasks[:0:-1]):
        if future.cancel():
            yield _fold_weight(task)
    yield from (future.result() for future in as_completed(f for f in futures if not f.cancelled()))


def burnside_total(n: int, q: int, terms, jobs: int = 1, progress=None) -> int:
    """Undivided Burnside sum over the conjugacy classes of AGL(n, F_q).

    terms(spectra, unipotent, marker, multiplicity, orbits) yields
    (weight, e) pairs for the class index of that spectra tuple, unipotent
    partition and marker, given its fold multiplicity and its orbit count
    on points (the exponent of its fixed functions): weight counts the
    classes or representatives the pair stands for and q**e is their fixed
    count.  The result is the sum of weight * |class| * q**e, collected per
    exponent.  One task per spectra weight w = n down to 0 folds each
    spectra tuple of weight w with each unipotent row of weight n - w,
    in process or, when jobs > 1, in jobs processes: jobs - 1
    workers of a ``concurrent.futures`` executor and the parent.  Every task
    goes to the executor (terms must then pickle); the parent walks the
    tasks from w = 0 up, short of w = n, and folds in process each one it
    can cancel, which no worker has started, so the two ends meet in the
    middle.  The workers' results then merge as they complete; if a task
    raises, in a worker or in the parent, the pending tasks are cancelled,
    the running ones finish, and the error reaches the caller.  The largest
    weight caps useful parallelism at 1 / its share of the work (at
    N(2, 16..20) 10.7-11.8% of the indices, about 17% of the time).
    progress, if given, gets the running class-index count after each
    nonempty spectra weight on either path.  The result is identical for
    any jobs.
    """
    group = agl_group_order(n, q)
    tasks = [(n, q, w, group, terms) for w in range(n, -1, -1)]
    if jobs <= 1:
        return _merge(map(_fold_weight, tasks), q, progress)
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(jobs - 1)
    try:
        futures = [pool.submit(_fold_weight, task) for task in tasks]
        return _merge(_fold_beside(futures, tasks), q, progress)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def burnside_count(n: int, q: int, terms, jobs: int = 1, progress=None) -> int:
    """Number of orbits: ``burnside_total`` divided exactly by |AGL(n, F_q)|."""
    count, rem = divmod(burnside_total(n, q, terms, jobs=jobs, progress=progress), agl_group_order(n, q))
    if rem:
        raise AssertionError("Burnside sum not divisible by the group order")
    return count


def _orbit_terms(spectra, unipotent, marker, multiplicity: int, orbits: int):
    return ((multiplicity, orbits),)


def _class_terms(spectra, unipotent, marker, multiplicity: int, orbits: int):
    return ((multiplicity, 0),)


def count_function_classes(n: int, q: int, jobs: int = 1, progress=None) -> int:
    """Number of AGL(n, F_q) orbits of the q**(q**n) functions F_q**n -> F_q.

    n = 0 returns q by convention (q constant functions, trivial group).
    jobs and progress go to ``burnside_count``, as for every orbit count.
    """
    prime_power(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return q
    return burnside_count(n, q, _orbit_terms, jobs=jobs, progress=progress)


def class_equation_total(n: int, q: int) -> int:
    """Sum of all conjugacy-class sizes; equals |AGL(n, F_q)| iff the class
    data (enumeration completeness and centralizer orders) is consistent."""
    return burnside_total(n, q, _class_terms)
