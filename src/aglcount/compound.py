"""Compound-matrix checks and the asymptotic ratio report for the
quotient-code class counts.

Compounds are binary only and are read off the packed monomial-substitution
engine, with no dense compound built: the coefficient of X_S in the image
of X_T under a linear substitution is the permanent of A(S, T), which over
F_2 is det A(S, T), so column T of C_r(A) is the image of X_T on the
degree-r slots.  Each check substitutes each matrix once, and the Jordan
sweep reads every r off that one substitution; the tests check the images
against a compound built from minors.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple

from .fields import field
from .linalg import GFMatrix, block_diagonal, gf2_rank, jordan_block, pack
from .rm import RMQuotientBasis, monomial_images, theta

__all__ = [
    "AsymptoticReport",
    "AsymptoticRow",
    "asymptotic_report",
    "check_kronecker_embedding",
    "format_significant",
    "jordan_structure_sweep",
    "unit_product_constant",
]


def check_kronecker_embedding(a: GFMatrix, b: GFMatrix, k: int, l: int) -> bool:
    """Does the Kronecker product C_k(A) x C_l(B) sit inside C_{k+l} of the
    block-diagonal sum, on the row/column labels S union (shifted T)?
    Binary square matrices only.

    A, B and their sum are substituted once each.  The label S union
    (T + m) is slot S + 2**m T of the sum's images, so on the labels, column
    ta union (tb + m) must be the A-image of X_ta times the B-image of X_tb
    spread to stride 2**m: an integer product with no carries, as each
    A-image is below 2**(2**m)."""
    m, n = a.rows, b.rows
    if not (0 <= k <= m and 0 <= l <= n):
        raise ValueError("minor sizes out of range")
    big = block_diagonal([a, b])
    if big.field.q != 2:
        raise ValueError("compounds need matrices over F_2")
    if a.cols != m or b.cols != n:
        raise ValueError("compound of a non-square matrix")
    degree_k, degree_l = RMQuotientBasis(m, k - 1, k), RMQuotientBasis(n, l - 1, l)
    images_a = monomial_images(pack(a.entries), k)
    images_b = monomial_images(pack(b.entries), l)
    images = monomial_images(pack(big.entries), k + l)

    def spread(packed: int) -> int:
        # the degree-l slots T of packed, moved to slot 2**m T
        return sum(1 << (t << m) for t in degree_l.monomials if packed >> t & 1)

    slots_a = degree_k.slot_mask
    labels = slots_a * spread(degree_l.slot_mask)
    for tb in degree_l.monomials:
        column_b = spread(images_b[tb])
        for ta in degree_k.monomials:
            if images[ta | tb << m] & labels != (images_a[ta] & slots_a) * column_b:
                return False
    return True


def jordan_structure_sweep(n_max: int) -> Iterator[tuple[int, int, bool, bool]]:
    """(n, r, structure_ok, rank_ok) for 1 <= r <= n <= n_max, on C_r(J_n),
    the compound of the unipotent bidiagonal block.

    structure_ok: split C_r(J_n) by 'subset contains n'; the cross block
    below the diagonal vanishes and the diagonal blocks are C_r(J_{n-1})
    and C_{r-1}(J_{n-1}).  rank_ok: rank(C_r(J_n) - I) >= binom(n-1, r)
    over F_2.

    Column T of C_r(J_n) is the packed image of X_T read on the degree-r
    slots, so J_n is substituted once per n, for every r at once, and only
    the images under J_{n-1} are kept.  Slots that contain x_{n-1} sit at
    bit 2**(n-1) and above; shifted down by that much they are the
    degree-(r-1) slots of n - 1 variables.  Column T of C_r(J_n) - I is the
    image with bit T flipped."""
    smaller = [1]  # the images under J_0: X_{} |-> 1
    for n in range(1, n_max + 1):
        images = monomial_images(pack(jordan_block(field(2), n).entries), n)
        half = 1 << (n - 1)
        for r in range(1, n + 1):
            degree_r = RMQuotientBasis(n, r - 1, r)
            slots = degree_r.slot_mask
            low = slots & ((1 << half) - 1)
            high = slots >> half
            # for T without x_{n-1}: the cross block is zero and the block
            # is C_r(J_{n-1}); for T + x_{n-1}: the block is C_{r-1}(J_{n-1}),
            # the 1 x 1 identity at r = 1
            structure_ok = all(
                not (images[t] >> half) & high and images[t] & low == smaller[t] & low
                if t < half
                else (images[t] >> half) & high == smaller[t - half] & high
                for t in degree_r.monomials
            )
            rank = gf2_rank((images[t] ^ 1 << t) & slots for t in degree_r.monomials)
            yield n, r, structure_ok, rank >= comb(n - 1, r)
        smaller = images


# ---------------------------------------------------------------------------
# asymptotic ratio report


# the partial products of the constant run until their increment drops
# below 10**-_INCREMENT_DIGITS; the report prints _REPORT_DIGITS digits
_INCREMENT_DIGITS = 40
_REPORT_DIGITS = 32


@lru_cache(maxsize=None)
def unit_product_constant() -> tuple[tuple[int, int], tuple[int, int]]:
    """Bounds for prod_{i>=1} (1 - 2**-i) as (numerator, denominator) pairs
    over powers of two, by partial products run until the increment drops
    below 10**-_INCREMENT_DIGITS.

    The tail satisfies prod_{i>N} (1 - 2**-i) >= 1 - 2**-N, so the true
    value lies in [P_N * (1 - 2**-N), P_N].
    """
    num, den = 1, 1
    i = 0
    while True:
        i += 1
        # the increment P_{i-1} - P_i is P_{i-1} * 2**-i
        small = num * 10**_INCREMENT_DIGITS < den << i
        num, den = num * ((1 << i) - 1), den << i
        if small:
            break
    return (num * ((1 << i) - 1), den << i), (num, den)


def format_significant(num: int, den: int, digits: int) -> str:
    """Decimal string of num/den with the given count of significant digits,
    truncated toward zero.  Exact integer arithmetic only."""
    if num <= 0 or den <= 0:
        raise ValueError("positive values only")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")

    def below_pow10(e: int) -> bool:
        return num < den * 10**e if e >= 0 else num * 10**-e < den

    # exponent e with 10**(e-1) <= value < 10**e: a guess from the bit
    # lengths (log10 2 ~ 0.30103) that the loops correct; len(str(num))
    # would be quadratic in the digit count
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000 + 1
    while not below_pow10(e):
        e += 1
    while below_pow10(e - 1):
        e -= 1
    mantissa = num * 10 ** (digits - e) // den if digits >= e else num // (den * 10 ** (e - digits))
    text = str(mantissa)
    if len(text) != digits:
        raise AssertionError("significant-digit extraction is inconsistent")
    if e <= 0:
        return "0." + "0" * (-e) + text
    if e >= digits:
        return text + "0" * (e - digits)
    return text[:e] + "." + text[e:]


def _certified(lower: tuple[int, int], upper: tuple[int, int], digits: int) -> str:
    lo = format_significant(*lower, digits)
    hi = format_significant(*upper, digits)
    if lo != hi:
        raise AssertionError(f"bounds too loose to certify {digits} digits: {lo} vs {hi}")
    return lo


def _scaled(num: int, den: int, exponent: int) -> tuple[int, int]:
    """num/den times 2**-exponent, as a pair of ints."""
    return (num, den << exponent) if exponent >= 0 else (num << -exponent, den)


class AsymptoticRow(NamedTuple):
    n: int
    class_count: int
    power_exponent: int
    ratio: tuple[int, int]  # (numerator, denominator), unreduced
    ratio_text: str
    excess_text: str
    limit_ratio_text: str


class AsymptoticReport(NamedTuple):
    constant: str
    rows: tuple[AsymptoticRow, ...]


def asymptotic_report(n_max: int, jobs: int = 1) -> AsymptoticReport:
    """Quotient-code class counts for 2 <= n <= n_max with their growth
    ratios against 2**(2**n - n*n - 2n - 1).

    The headline ``ratio`` scales by the exact partial product
    prod_{i<=n}(1 - 2**-i): it equals 1 plus the non-identity Burnside mass
    divided by the code size, so it exceeds 1 for every n and its excess
    over 1 decays monotonically.  ``limit_ratio`` scales by the certified
    infinite product instead; it tends to 1 but crosses below it once the
    non-identity mass drops under the product tail (measured at n = 7), so
    no one-sided bound is asserted for it.  Every value is a pair of ints
    whose denominator is a power of two, kept unreduced.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    low, high = unit_product_constant()
    # prod_{i<=n} (2**i - 1) over 2**shift, shift = n(n+1)/2; here n = 1
    units, shift = 1, 1
    rows = []
    for n in range(2, n_max + 1):
        units *= (1 << n) - 1
        shift += n
        m_n = theta(n, 2, n, jobs=jobs)
        exponent = 2**n - n * n - 2 * n - 1
        num, den = _scaled(m_n * units, 1 << shift, exponent)
        if num <= den:
            raise AssertionError(f"ratio at n={n} does not exceed 1: counting bug")
        limit = [_scaled(m_n * bound_num, bound_den, exponent) for bound_num, bound_den in (low, high)]
        rows.append(
            AsymptoticRow(
                n=n,
                class_count=m_n,
                power_exponent=exponent,
                ratio=(num, den),
                ratio_text=format_significant(num, den, _REPORT_DIGITS),
                excess_text=format_significant(num - den, den, 12),
                limit_ratio_text=_certified(*limit, _REPORT_DIGITS),
            )
        )
    return AsymptoticReport(constant=_certified(low, high, _REPORT_DIGITS), rows=tuple(rows))
