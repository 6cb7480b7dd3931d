"""Boolean algebraic normal form, the affine action on Reed-Muller
quotients, and the Burnside counts of quotient-code orbits.

Binary only: the quotient machinery relies on F_2 coefficient arithmetic
(XOR) throughout.  A monomial is a bitmask over the n variables, and a
polynomial is packed into one Python int with 2**n indicator bits, one
per monomial slot, so multiplying by an affine linear form is a handful
of mask/shift/xor operations on that int.  ``monomial_images`` is the one
substitution engine.

A class representative splits into its odd-order factor tau, its
unmarked 1 x 1 Jordan blocks (the coordinates it fixes) and the companion
blocks C(f) of orders prime to the rest, and the rest sigma_2:
log2 fix(sigma) = sum over i of g_i y_i, with g_i the graded fixed
dimensions of tau and y_i those of sigma_2 on R(r-i, b)/R(s-1-i, b)
(``_fixed_terms``, which proves it, and counts the grades of companion
blocks whose orders share one degree from their eigenvalues).  A factor
recurs across representatives, so a theta call counts or profiles each
once (``_fix_profile``), every i from one substitution, or at s = 0 from
one point walk whose orbit sums span the dual code when that has fewer
monomials, and a representative is a dot product; one with an empty tau
is counted whole (``fix_on_quotient``).

The quotient counts have no fold of their own: ``theta`` hands (weight,
log2 of the fixed count) terms to the shared Burnside fold
``formulas.burnside_count``.  A quotient of dual degree K <= 1
(``_dual_degree``), M(n) = theta(n; 2, n) among them, takes them from the
per-class formulas alone (``_orbit_sum_rank``), with no representative,
one of dimension 1 has 2 orbits with no fold, and every other one takes
them from its class representatives' factors (``_fixed_terms``).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache, partial, reduce
from itertools import compress
from operator import mul, not_, xor

from .conjugacy import ClassIndex
from .fields import _root_exponents
from .formulas import burnside_count
from .linalg import PackedMap, cycles, gf2_extend, point_permutation
from .numtheory import multiplicative_order
from .partitions import Partition, canon
from .reps import irreducibles_of_order, iter_class_representatives, packed_representative

__all__ = [
    "RMQuotientBasis",
    "fix_on_quotient",
    "monomial_images",
    "theta",
]

_MAX_VARS = 24


@lru_cache(maxsize=None)
def _var_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Per variable: (positions with the variable absent, positions with it
    present) over the 2**n monomial slots of a packed polynomial."""
    size = 1 << n
    full = (1 << size) - 1
    out = []
    for i in range(n):
        chunk = (1 << (1 << i)) - 1
        width = 1 << (i + 1)
        while width < size:
            chunk |= chunk << width
            width <<= 1
        out.append((chunk, full ^ chunk))
    return tuple(out)


def monomial_images(sigma: PackedMap, max_degree: int) -> list[int | None]:
    """Packed image of every monomial of degree <= max_degree under the
    substitution x |-> x A + a, from the packed map.

    Variable i becomes (column i of A) . X + a_i.  Entry m (a variable
    bitmask) holds the coefficient vector of the image of X_m, one
    indicator bit per monomial slot; other entries are None.  A need not be
    invertible: compounds of singular matrices use this path too.
    """
    columns, translation = sigma
    n = len(columns)
    masks = _var_masks(n)
    images: list[int | None] = [None] * (1 << n)
    images[0] = 1
    # ascending degree: m ^ low is one degree lower, so its image is built
    for m in reversed(_basis_monomials(n, 0, max_degree)):
        low = m & -m
        base = images[m ^ low]
        i = low.bit_length() - 1
        acc = base if translation >> i & 1 else 0
        v = columns[i]
        while v:
            vlow = v & -v
            v ^= vlow
            absent, present = masks[vlow.bit_length() - 1]
            acc ^= ((base & absent) << vlow) ^ (base & present)
        images[m] = acc
    return images


class RMQuotientBasis(namedtuple("RMQuotientBasis", "n s r")):
    """Monomial basis of R(r, n)/R(s, n): the X_S with s < |S| <= r,
    grouped by degree descending, subsets lexicographic within a degree;
    checked wherever one is built, as `linalg.AffineMap` is."""

    __slots__ = ()

    def __new__(cls, n: int, s: int, r: int):
        if not (0 <= n <= _MAX_VARS and -1 <= s < r <= n):
            raise ValueError(f"invalid quotient basis ({n}, {s}, {r})")
        return super().__new__(cls, n, s, r)

    @classmethod
    def _make(cls, fields) -> "RMQuotientBasis":
        return cls(*fields)

    @property
    def monomials(self) -> tuple[int, ...]:
        return _basis_monomials(self.n, self.s, self.r)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    @property
    def slot_mask(self) -> int:
        """Packed-polynomial mask with one bit per basis monomial slot."""
        return _slot_mask(self.n, self.s, self.r)


@lru_cache(maxsize=None)
def _basis_monomials(n: int, s: int, r: int) -> tuple[int, ...]:
    bits = [1 << i for i in range(n)]
    return tuple(itertools.chain.from_iterable(map(sum, itertools.combinations(bits, k)) for k in range(r, s, -1)))


@lru_cache(maxsize=None)
def _slot_mask(n: int, s: int, r: int) -> int:
    mask = 0
    for m in _basis_monomials(n, s, r):
        mask |= 1 << m
    return mask


def fix_on_quotient(sigma: PackedMap, basis: RMQuotientBasis) -> int:
    """2 ** nullity(action matrix - identity): the number of fixed vectors
    of the induced linear action of sigma, an element of AGL(n, 2), on the
    quotient R(r, n)/R(s, n), from ``_fix_profile``.  The point walk of its
    dual side refuses a sigma that is not invertible.

    Row m of the transposed action matrix minus the identity is the packed
    image of monomial m plus m itself, kept on the basis slots.  The rank is
    taken over the packed slots as they stand: substitution never raises
    degree, so masking off the slots of degree <= s is exactly the reduction
    modulo R(s, n).
    """
    if len(sigma.columns) != basis.n:
        raise ValueError("dimension mismatch")
    return 1 << _fix_profile(sigma, basis.s, basis.r, 0)[0]


def _fix_profile(sigma: PackedMap, s: int, r: int, depth: int) -> list[int]:
    """log2 fix(sigma on R(r - i, m)/R(s - i, m)) for i = 0..depth, sigma on
    m variables, the degrees clipped to -1 <= s - i and r - i <= m, 0 for an
    empty quotient; one substitution or one point walk serves every i, so
    the profile at depth d is a prefix of the one at any deeper depth.

    The substitution side substitutes sigma once, up to degree min(r, m).
    The quotients that share a floor s - i take one elimination, its rows
    in ascending degree: a row of degree <= h reaches only slots of degree
    <= h, so the rank after the rows of degree <= h is the rank of the
    quotient of top h.  With s = -1 every quotient has floor -1.

    The dual side, for s = -1 only, where every quotient is R(h, m) with
    h = r - i, walks the 2**m points of sigma once:
    (a) log2 fix(sigma on R(h, m)) = orbits - the rank of the orbit sums
        over the monomials of degree <= K = m - h - 1, where the orbit sum
        of O holds, per monomial t, the sum of X_t(x) over x in O.  Proof:
        f is fixed iff f(sigma x) = f(x) for every x, iff f is constant on
        the orbits of <sigma> on F_2**m, and those f = sum of c_O 1_O form
        a space of dimension orbits.  R(h, m) is the dual of R(K, m) under
        the form sum_x f(x) g(x) (MacWilliams & Sloane), so f lies in
        R(h, m) iff sum_O c_O (orbit sum of O)_t = 0 for every t of degree
        <= K; the fixed space is the kernel of c |-> sum c_O (orbit sum of
        O).  K < 0 (h >= m) leaves no condition.
    (b) With the columns graded, degree 0 as the top bit, the monomials of
        degree <= K are the top columns for every K, and the rank of the
        orbit sums on them is the number of pivots of one top-bit
        elimination that lead inside them.  Proof: the pivots span the row
        space and have distinct leads; cut to the top columns, those that
        lead there stay independent, the others vanish, and cutting
        commutes with the span.
    So one elimination over the largest K gives every quotient's rank, and
    it stops once a pivot leads in every column.  Each map takes the dual
    side when its columns for i = 0 are fewer than the rows the
    substitution side ranks, C(m, <= m - r - 1) < C(m, <= min(r, m)); an
    empty dual, r >= m, only counts orbits.
    """
    m = len(sigma.columns)
    quotients = []  # (shift, floor, top) per nonempty quotient, tops descending
    for shift in range(depth + 1):
        low, high = max(s - shift, -1), min(r - shift, m)
        if low < high:
            quotients.append((shift, low, high))
    profile = [0] * (depth + 1)
    if quotients:
        side = _orbit_nullity if s == -1 and _dual_is_smaller(m, r) else _substituted_nullity
        for (shift, _, _), nullity in zip(quotients, side(sigma, m, quotients)):
            profile[shift] = nullity
    return profile


def _dual_is_smaller(m: int, r: int) -> bool:
    """C(m, <= m - r - 1) < C(m, <= min(r, m)): the orbit sums of a map
    on R(r, m) have fewer columns than its substitution has rows."""
    return len(_basis_monomials(m, -1, m - r - 1)) < len(_basis_monomials(m, -1, min(r, m)))


def _substituted_nullity(sigma: PackedMap, m: int, quotients) -> list[int]:
    # the nullity of each quotient, in the order given
    images = monomial_images(sigma, quotients[0][2])
    out = []
    floor = None
    for _, low, high in reversed(quotients):  # tops ascending within a floor
        if low != floor:
            floor = below = low
            pivots: dict[int, int] = {}
            rank = dim = 0
        keep = _slot_mask(m, low, high)
        rows = [(images[t] ^ 1 << t) & keep for t in _basis_monomials(m, below, high)]
        rank += gf2_extend(pivots, rows)
        dim += len(rows)
        below = high
        out.append(dim - rank)
    return out[::-1]


def _orbit_nullity(sigma: PackedMap, m: int, quotients) -> list[int]:
    # the nullity of each quotient, in the order given
    orbits = cycles(point_permutation(sigma))
    degree = m - quotients[-1][2] - 1
    if degree < 0:
        return [len(orbits)] * len(quotients)
    values = _evaluations(m, degree)
    width = len(_basis_monomials(m, -1, degree))
    pivots: dict[int, int] = {}
    # once a pivot leads in every column, the other orbit sums depend on them
    gf2_extend(pivots, (reduce(xor, map(values.__getitem__, orbit)) for orbit in orbits if len(pivots) < width))
    out = []
    for _, _, high in quotients:
        boundary = width - len(_basis_monomials(m, -1, m - high - 1))
        out.append(len(orbits) - sum(map(boundary.__le__, pivots)))
    return out


@lru_cache(maxsize=None)
def _evaluations(m: int, degree: int) -> tuple[int, ...]:
    """Per point x of F_2**m, the values X_t(x) of the monomials of degree
    <= degree, bit j for monomial j of ``_basis_monomials(m, -1, degree)``:
    graded, degree 0 the top bit.  X_t(x) = 1 iff t is a subset of x, so
    these are the sums over the subsets of x of one bit per monomial."""
    values = [0] * (1 << m)
    for j, t in enumerate(_basis_monomials(m, -1, degree)):
        values[t] = 1 << j
    for i in range(m):
        bit = 1 << i
        for x in range(1 << m):
            if x & bit:
                values[x] |= values[x ^ bit]
    return tuple(values)


def _fixed_terms(basis: RMQuotientBasis, spectra, unipotent: Partition, marker, multiplicity: int, orbits: int, caches):
    """(weight, log2 fix) per representative of the class index (unipotent,
    spectra, marker) on R(r, n)/R(s, n), from its odd-order factor tau and
    the rest sigma_2.

    tau, on a + k coordinates, is the k = lam_1 - [marker = 1] unmarked
    1 x 1 unipotent blocks and sigma_s, the companion blocks C(f) of the
    orders ``_semisimple_split`` keeps, on a coordinates; sigma_2, on the
    other b = n - a - k, is the other unipotent blocks, with the marked
    one, and the blocks of the other orders, those with a companion power
    C(f**j), j >= 2, and those that share a factor with them.  Then
        log2 fix(sigma) = sum over i of g_i y_i,
        g_i = f_i - f_(i-1),  f_h = log2 fix(tau on R(h, a + k)),  f_-1 = 0,
        y_i = log2 fix(sigma_2 on R(r - i, b)/R(s - i, b)),
    y_i from ``_fix_profile``, clipped as there.  Lemma: this holds
    whenever sigma acts as tau on U = F_2**(a + k) and as sigma_2 on
    W = F_2**b, tau of odd order prime to the order of sigma_2.
    Proof: Fun(U + W) = Fun(U) (x) Fun(W), and the degree filtration is
    F_d = sum over i of F_i(U) (x) F_(d-i)(W), F_h(U) = R(h, a + k) stable
    under tau.
    1. By Maschke's theorem (odd order), F_i(U) = G_0 + ... + G_i with
       every G_i tau-stable, so F_d = sum of G_i (x) F_(d-i)(W) and
       R(r, n)/R(s, n) = sum of G_i (x) Q_i, Q_i = F_(r-i)(W)/F_(s-i)(W).
    2. The orders are coprime, so <sigma> holds tau (x) 1 and
       1 (x) sigma_2 (CRT on the exponent), and Fix(sigma) is the
       intersection of their fixed spaces: Fix(G_i) (x) Fix(Q_i) on
       G_i (x) Q_i, of dimension dim Fix(G_i) y_i.
    3. F_h(U) is the sum of the stable G_i, i <= h, so f_h is the sum of
       their dim Fix(G_i), and dim Fix(G_i) = f_i - f_(i-1).
    g_i = 0 for i > a + k and y_i = 0 for i > r, so i runs to
    min(a + k, r).  tau = sigma_s + id_k is itself such a sum, the
    identity of order 1 fixing all C(k, <= h) functions of degree <= h, so
    f_h = sum over j of g'_j C(k, <= h - j) and g_i = sum over j of
    g'_j C(k, i - j), with g' the grades of sigma_s.

    Lemma: g'_i is the number of i-sets of eigenvalues of sigma_s, on
    V = F_2**a, with product 1, and the grades of a sum of factors of
    coprime orders are the convolution of theirs.  Proof: the product
    l_1 ... l_i of linear forms, mod R(i - 1, a), is multilinear and
    alternating in them (l l = l has degree 1), so sending the wedge of
    the x_j, j in S, to X_S is an isomorphism Lambda^i(V*) =
    R(i, a)/R(i - 1, a); it commutes with sigma_s, which sends a linear
    form to an affine one whose constant adds lower terms only.  sigma_s
    has odd order, so it is diagonal over some F_(2**O), with eigenvalues
    lam_1..lam_a on V* (those of A, up to a transpose); the wedges over
    the i-sets S are an eigenbasis of Lambda^i(V*), each with the product
    over S, and dim Fix does not change with the field.  A factor of
    order m has its eigenvalues in mu_m, and mu_m meets mu_m' in {1} for
    coprime m, m', so a set has product 1 iff its part in each factor
    does.  So sigma_s splits into coprime components, its orders linked
    by chains of shared primes (``_semisimple_split``), and g is their grades
    convolved with C(k, .), the identity's.  In a component whose orders
    share one degree o every eigenvalue lies in F_(2**o)* = <alpha>, and
    the sets are counted from exponents (``_eigenvalue_grades``); a
    component spanning several degrees is profiled (``_grades``).

    g' depends only on the kept orders' slot assignments and y only on
    sigma_2, which fixes b and so the depth min(n - b, r).  The caches, a
    pair of dicts that live for one theta call, hold each component's g'
    under (its spectra, its slots), g under (kept spectra, their slots, k)
    and y under sigma_2, so each factor is profiled or counted once per
    call and a representative is a dot product; one with neither an
    odd-order factor nor a fixed coordinate, a = k = 0, is counted whole.
    """
    n, s, r = basis
    idx = ClassIndex(n, 2, unipotent, spectra, marker)
    spectra_s, spectra_2, keep, a, masks = _semisimple_split(spectra)
    k = sum(unipotent[:1]) - (marker == 1)
    if not a + k:
        for assignments, weight in iter_class_representatives(idx):
            yield weight, fix_on_quotient(packed_representative(idx, assignments), basis).bit_length() - 1
        return
    grades, profiles = caches
    top = min(a + k, r)
    rest_unipotent = canon((int(marker == 1), *unipotent[1:]))
    for assignments, weight in iter_class_representatives(idx):
        key = (spectra_s, tuple(compress(assignments, keep)), k)
        g = grades.get(key)
        if g is None:
            g = [math.comb(k, i) for i in range(top + 1)]
            for mask in masks:
                part = (tuple(compress(spectra, mask)), tuple(compress(assignments, mask)))
                primed = grades.get(part)
                if primed is None:
                    primed = grades[part] = _component_grades(*part, r)
                g = _convolve(g, primed)
            grades[key] = g
        rest = (rest_unipotent, marker, spectra_2, tuple(compress(assignments, map(not_, keep))))
        y = profiles.get(rest)
        if y is None:
            sigma = packed_representative(ClassIndex(n - a - k, 2, rest_unipotent, spectra_2, marker), rest[3])
            y = profiles[rest] = _fix_profile(sigma, s, r, top)
        yield weight, sum(map(mul, y, g))


def _convolve(f: list[int], g: list[int]) -> list[int]:
    """The coefficients of f(x) g(x) up to the degree of f."""
    return [sum(g[j] * f[i - j] for j in range(min(i + 1, len(g)))) for i in range(len(f))]


def _component_grades(spectra, assignments, r: int) -> list[int]:
    """g'_0..g'_min(a, r) of one coprime component, its companion blocks
    C(f) on a coordinates: counted when its orders share one degree, else
    profiled on its packed representative."""
    degrees = {multiplicative_order(2, t.d) for t in spectra}
    a = sum(multiplicative_order(2, t.d) * t.total_weight() for t in spectra)
    if len(degrees) == 1:
        return _eigenvalue_grades(*degrees, spectra, assignments, min(a, r))
    return _grades(packed_representative(ClassIndex(a, 2, (), spectra), assignments), min(a, r))


def _eigenvalue_grades(degree: int, spectra, assignments, top: int) -> list[int]:
    """g'_0..g'_top of companion blocks C(f) of orders of one degree o: per
    i, the i-sets of their eigenvalues with product 1 (``_fixed_terms``).
    Each copy of a block C(f) has the roots alpha**(c 2**j), j < o, c the
    exponent of f in ``fields._root_exponents(2, o)``, and a set has
    product 1 iff its exponents sum to 0 mod 2**o - 1."""
    size = (1 << degree) - 1
    exponents = _root_exponents(2, degree)
    sums = [{0: 1}] + [{} for _ in range(top)]  # per set size: exponent sum -> sets
    for t, assignment in zip(spectra, assignments):
        polys = irreducibles_of_order(t.d, 2)
        for slot, (copies,) in zip(assignment, t.entries):
            c = exponents[polys[slot]]
            for e in [(c << j) % size for j in range(degree)] * copies:
                for i in range(top, 0, -1):
                    high = sums[i]
                    for x, count in sums[i - 1].items():
                        x = (x + e) % size
                        high[x] = high.get(x, 0) + count
    return [counts.get(0, 0) for counts in sums]


def _grades(sigma: PackedMap, top: int) -> list[int]:
    """g_i = f_i - f_(i-1) for i = 0..top, f_h = log2 fix(sigma on R(h, a)),
    f_-1 = 0: the profile of R(top - i, a)/R(-1, a), read backwards."""
    f = [0, *reversed(_fix_profile(sigma, -1, top, top))]
    return [high - low for low, high in zip(f, f[1:])]


@lru_cache(maxsize=4)
def _semisimple_split(spectra) -> tuple[tuple, tuple, tuple[bool, ...], int, tuple]:
    """(kept spectra, the others, keep mask, a, component masks): the
    orders whose blocks C(f) form sigma_s, of dimension a, and one mask
    over the spectra per coprime component of sigma_s, its orders linked
    by chains of shared prime factors.  An order with a companion power
    C(f**j), j >= 2, goes to sigma_2, and so does every order that shares a
    factor with the lcm of those there, until none does, so sigma_s has odd
    order prime to that of sigma_2, a power of 2 times that lcm.  An order
    prime to the mixed ones alone is not enough: beside C(f**2) of order 3,
    C(f) of order 15 goes to sigma_2, and then so does C(f) of order 5."""
    mixed = _linked(math.lcm(*(t.d for t in spectra if any(len(e) > 1 for e in t.entries))), [t.d for t in spectra])
    keep = tuple(math.gcd(t.d, mixed) == 1 for t in spectra)
    kept = tuple(compress(spectra, keep))
    a = sum(multiplicative_order(2, t.d) * t.total_weight() for t in kept)
    # per kept order the lcm of its component, so one mask per lcm
    links = [_linked(t.d, [u.d for u in kept]) if held else 0 for t, held in zip(spectra, keep)]
    masks = tuple(dict.fromkeys(tuple(map(link.__eq__, links)) for link in links if link))
    return kept, tuple(compress(spectra, map(not_, keep))), keep, a, masks


def _linked(lcm: int, orders) -> int:
    """The lcm of lcm and every order linked to it by a chain of shared
    prime factors."""
    grown = None
    while grown != lcm:
        grown, lcm = lcm, math.lcm(lcm, *(d for d in orders if math.gcd(d, lcm) > 1))
    return lcm


def theta(n: int, s: int, r: int, jobs: int = 1, progress=None) -> int:
    """Number of AGL(n, F_2) orbits of R(r, n)/R(s-1, n), by the per-class
    Burnside sum with fixed points from the per-class formulas at dual degree
    <= 1 (M(n) is theta(n, 2, n)), else from the quotient action matrices.

    jobs and progress go to ``formulas.burnside_count``, one task per spectra
    weight.  A quotient of dimension 1, s = r = 0 or s = r = n, has 2
    orbits with no fold: every map fixes its one nonzero word, the constant
    1, and x_1 ... x_n mod R(n - 1, n), whose image is det A x_1 ... x_n
    plus lower terms, det A = 1."""
    if not 0 <= s <= r <= n:
        raise ValueError(f"need 0 <= s <= r <= n, got ({n}, {s}, {r})")
    if n < 1:
        raise ValueError("n must be >= 1")
    if s == r and r in (0, n):
        return 2
    degree = _dual_degree(n, s, r)
    if degree is None:
        terms = partial(_fixed_terms, RMQuotientBasis(n, s - 1, r), caches=_CallCaches(({}, {})))
    else:
        terms = partial(_rank_terms, degree)
    return burnside_count(n, 2, terms, jobs=jobs, progress=progress)


class _CallCaches(tuple):
    """The two caches of ``_fixed_terms`` for one theta call.  A pooled
    task pickles copies taken at once by ``dict``, so the parent, which
    folds beside its workers, may fill the caches while the executor's
    feeder thread pickles a task."""

    def __reduce__(self):
        return _CallCaches, (tuple(map(dict, self)),)


def _dual_degree(n: int, s: int, r: int) -> int | None:
    """K when R(r, n)/R(s-1, n) or its dual is R(n, n)/R(K, n), K <= 1, else
    None: R(r, n) is dual to R(n, n)/R(n - r - 1, n) (MacWilliams & Sloane),
    and a module and its dual have equally many fixed points."""
    degree = n - r - 1 if s == 0 else s - 1 if r == n else 2
    return degree if degree <= 1 else None


def _rank_terms(degree: int, spectra, unipotent: Partition, marker, multiplicity: int, orbits: int):
    return ((multiplicity, orbits - _orbit_sum_rank(degree, unipotent, marker)),)


def _orbit_sum_rank(degree: int, lam: Partition, marker: int | None) -> int:
    """rho_K(sigma), K = degree <= 1: the GF(2) rank of the orbit sums of
    <sigma> on F_2**n over the monomials of degree <= K, which depends only
    on the unipotent partition lam and the marker t; sigma fixes
    2**(orbits - rho_K) words of R(n - K - 1, n) (lemma (a) of
    ``_fix_profile``).  rho_-1 = 0, with no monomial, and rho_1 ranks
    the rows (|O| mod 2, sum of the points of O), one per orbit O.

    rho_0 = [t is None].  Proof: the one column, of X_0 = 1, holds |O| mod 2,
    so rho_0 = 1 iff some orbit has odd length.  An orbit length divides the
    order of sigma, so it is odd iff it divides L, the odd part of the order,
    iff sigma**L fixes the orbit's points.  ``formulas.fix_exponent_at(idx,
    L)`` is None, no point fixed, iff the index is marked and v_2(L) = 0 is
    below ceil(log2(t + 1)), which is >= 1 for every marker t >= 1.

    Lemma: split F_2**n = U + W, U the generalized 1-eigenspace of A, with
    the translation moved into U.  On W, A - I is invertible, so the point
    sum S of a W-orbit has S (A - I) = 0, hence S = 0; the orbit of (u, w)
    has length lcm(l_u, l_w), and an affine form sums over it to
    (lcm / l_u) (c l_u + sum of u.v_U over the u-orbit).  The point w = 0
    gives every U-condition with factor 1 and any other w repeats one or
    gives nothing, so rho_1(sigma) = rho_1(sigma_U).

    Closed form, with L = t.bit_length(): rho_1(lam, none) = 1 + (number of
    parts); rho_1(lam, t) = [t + 1 == 2**L] + (number of parts of size
    >= 2**L).  Found by fitting, not proved: it equals the rank from the
    point walk of the unipotent representative on all 1,770 pairs
    (lam, t) with |lam| <= 14, and the lemma equals the walk on all 2,506
    class representatives at n <= 10.
    """
    if degree < 1:
        return int(degree == 0 and marker is None)
    if marker is None:
        return 1 + sum(lam)
    level = 1 << marker.bit_length()
    return (marker + 1 == level) + sum(lam[level - 1 :])
