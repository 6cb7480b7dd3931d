"""Command-line interface: exact counts and verification suites with
machine-readable reports.

All integers are serialized as decimal strings (results exceed 64 bits),
and apart from the ``elapsed_seconds`` field a report is byte-identical
across runs and parallelism levels.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time

from .compound import asymptotic_report, check_kronecker_embedding, jordan_structure_sweep
from .conjugacy import enumerate_classes
from .fields import _MAX_Q, field
from .formulas import class_equation_total, count_function_classes
from .linalg import GFMatrix
from .numtheory import agl_group_order, is_prime_power, power_exceeds
from .oracle import burnside_full, orbit_enumeration
from .reps import _POINT_LIMIT, verify_class
from .rm import _dual_degree, theta

__all__ = ["RunReport", "main"]

_STR_DIGITS_LIMIT = 4_000_000
# _decimal keeps str() up to 2**16 bits where the int-str limit admits the
# value (the default limit, 4,300 digits, admits about 14,000 bits): in a
# fresh interpreter, where its first call also imports decimal (about 2 ms
# and 0.5 MiB), the two break even at 50,000 to 65,000 bits (Python 3.11)
_DECIMAL_MIN_BITS = 1 << 16
_DECIMAL_LEAF_BITS = 1024
# verify --suite reps walks about q**n points per class index at the largest n
_REPS_STEP_LIMIT = 1 << 24
# the theta paths of count-cosets and the duality and compound suites run one
# engine, rm.monomial_images and the GF(2) elimination, and are admitted by
# one estimate of its work; theta profiles each representative's odd-order
# factor, which holds the coordinates it fixes, and the rest once per call,
# at s = 0 off orbit sums where the dual code is smaller, which only makes
# an admitted input faster, and count-cosets admits a quotient of dual degree
# <= 1 (rm._dual_degree), which builds no representative, by the digit
# bound.  The slowest admitted inputs, each in a fresh interpreter (2 cores,
# Python 3.11.7, medians of 3 runs): theta at n = 11..14 0.3-1.1 s, the
# slowest theta(11; 3, 5) and theta(11; 4, 5) (theta(14; 1, 1) 0.6 s, its
# irreducibles of degree 13 and 14 from cyclotomic cosets); duality --n 9
# 2.7 s; compound --n 15 0.8 s and 123 MiB (one run)
_SUBSTITUTION_BUDGET = 6 * 10**10


class RunReport:
    """One command invocation: parameters, results, and check outcomes."""

    def __init__(self, command: str, parameters: dict) -> None:
        self.command, self.parameters = command, parameters
        self.results, self.checks, self.status, self.elapsed_seconds = {}, [], "ok", 0.0

    def add_check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "status": "pass" if passed else "fail", "detail": detail})
        if not passed:
            self.status = "fail"

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "checks": self.checks,
            "status": self.status,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["command", "key", "value"])
        for key in sorted(self.parameters):
            writer.writerow([self.command, f"param:{key}", self.parameters[key]])
        for key in sorted(self.results):
            writer.writerow([self.command, f"result:{key}", self.results[key]])
        for check in self.checks:
            writer.writerow([self.command, f"check:{check['name']}", check["status"]])
        writer.writerow([self.command, "status", self.status])
        writer.writerow([self.command, "elapsed_seconds", round(self.elapsed_seconds, 6)])
        return buf.getvalue()


def _emit(report: RunReport, args) -> None:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    sys.stdout.write(text)
    if args.out:
        args.out.write(text)


def _fail(report: RunReport, args, message: str) -> int:
    report.status = "error"
    report.results["error"] = message
    _emit(report, args)
    return 2


def _progress(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr, flush=True)


class _FoldProgress:
    """Progress callback for the Burnside fold: keeps the running
    class-index count and, with --verbose, prints it on stderr with the
    rate since start."""

    def __init__(self, args) -> None:
        self.args = args
        self.start = time.perf_counter()
        self.done = 0

    def __call__(self, done: int) -> None:
        self.done = done
        if self.args.verbose:
            rate = done / max(time.perf_counter() - self.start, 1e-9)
            _progress(self.args, f"  {done} class indices folded, {rate:.0f} indices/s")


def _text(value) -> str:
    return "" if value is None else str(value)


def _decimal(value: int) -> str:
    """str(value), without Python's int-str conversion limit and, above
    _DECIMAL_MIN_BITS, in subquadratic time.

    str() of an int is quadratic on Python 3.11: at 2**20 bits it takes
    1.7 s, and this 0.15 s (2 cores).  After CPython 3.12's
    ``_pylong.int_to_decimal_string``: split the bits in halves down to
    leaves of at most _DECIMAL_LEAF_BITS bits, and join the halves as
    lo + hi * 2**w in ``decimal`` with an exact context (the Inexact trap
    set), whose str() is linear.  Below the crossover str() stays, unless
    the int-str limit refuses the value.
    """
    if value.bit_length() <= _DECIMAL_MIN_BITS:
        try:
            return str(value)
        except ValueError:
            pass  # above the int-str limit, which decimal does not have
    import decimal

    powers = {}

    def power_of_two(w):
        # 2**w, built from smaller cached powers; the halves of one level
        # need only w and w + 1
        if w not in powers:
            if w <= _DECIMAL_LEAF_BITS:
                powers[w] = decimal.Decimal(2) ** w
            elif w - 1 in powers:
                powers[w] = powers[w - 1] * 2
            else:
                half = w >> 1
                powers[w] = power_of_two(half) * power_of_two(w - half)
        return powers[w]

    def convert(n, w):
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power_of_two(half)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.Emin = decimal.MIN_EMIN
        context.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))


def _field_refusal(q: int) -> str | None:
    """Why q is refused, or None: checked before any power of q or factoring."""
    if not 2 <= q <= _MAX_Q or not is_prime_power(q):
        return f"q = {q} is not a prime power in 2..{_MAX_Q}"
    return None


def _count_refusal(q: int, n: int, dual: int = -1) -> str | None:
    """Why a count of the AGL(n, F_q) orbits on the q**dim functions
    F_q**n -> F_q (dim = q**n) or, at q = 2, on their quotient by R(dual, n)
    (dim = 2**n - C(n, <= dual)) is refused before any work, or None.

    q is a prime power up to 512 and n >= 0, and the count is printed with
    at most _STR_DIGITS_LIMIT digits.  No orbit has more elements than
    |AGL(n, F_q)| < q**(n*n + n), so the count has more than
    (dim - n*n - n) * log10(q) digits.  That grows with n from n = 4 on and
    is over the limit from n = 24 on for every q, so it is taken at
    min(n, 64): O(1) for any n, and still a lower bound."""
    if error := _field_refusal(q):
        return error
    if n < 0:
        return f"n = {n} must be >= 0"
    m = min(n, 64)
    digits = (q**m - sum(math.comb(m, k) for k in range(dual + 1)) - m * m - m) * math.log10(q)
    if digits > _STR_DIGITS_LIMIT:
        return f"the count has more than {digits:.4g} digits, above the limit {_STR_DIGITS_LIMIT}"
    return None


def _theta_work(n: int, r: int) -> int:
    """Substitution steps of theta(n; s, r), taken as 2**n representatives
    (theta builds fewer, 3,724 at n = 13), each substituting C(n, <= r)
    monomials into ints of 2**n bits, one shift per variable; theta splits
    a representative into its odd-order factor, which holds the coordinates
    it fixes, and the rest, and profiles each factor once per call on fewer
    variables, at s = 0 by a point walk where the dual code is smaller, so
    the slowest admitted theta, theta(11; 4, 5), takes about 1.1 s, and
    theta(14; 1, 1) 0.6 s.  As in _count_refusal, n is taken at
    min(n, 64): O(1) for any n."""
    m = min(n, 64)
    return m * 4**m * sum(math.comb(m, k) for k in range(min(r, m) + 1))


def _duality_work(n: int) -> int:
    """theta(n; s, r) for every 0 <= s <= r <= n: r + 1 values of s per r."""
    return sum((r + 1) * _theta_work(n, r) for r in range(min(n, 64) + 1))


def _compound_work(n: int) -> int:
    """One substitution of the 2**m monomials of J_m for each m <= n."""
    return sum(m * 4**m for m in range(1, min(n, 64) + 1))


def _substitution_refusal(what: str, work: int) -> str | None:
    if work > _SUBSTITUTION_BUDGET:
        return f"{what}: an estimated {work:.3g} substitution steps or more, over the budget {_SUBSTITUTION_BUDGET:.0e}"
    return None


def _cmd_count_functions(args, report: RunReport) -> str | None:
    report.parameters = {"q": str(args.q), "n": str(args.n)}
    if error := _count_refusal(args.q, args.n):
        return error
    _progress(args, f"counting function classes for q={args.q}, n={args.n}")
    folded = _FoldProgress(args)
    value = count_function_classes(args.n, args.q, jobs=args.parallelism, progress=folded)
    report.results["function_classes"] = _decimal(value)
    if args.n >= 1:
        report.results["group_order"] = _decimal(agl_group_order(args.n, args.q))
        if args.verbose_classes:
            report.results["class_indices"] = str(folded.done)


def _cmd_count_cosets(args, report: RunReport) -> str | None:
    report.parameters = {"n": str(args.n), "s": _text(args.s), "r": _text(args.r)}
    report.parameters["coset_classes"] = str(bool(args.coset_classes))
    if args.coset_classes:
        if args.s is not None or args.r is not None:
            return "--coset-classes counts the quotient by affine functions and takes no --s or --r"
        if args.n < 2:
            return "coset classes need n >= 2"
        s, r = 2, args.n
    else:
        s = 0 if args.s is None else args.s
        r = args.n if args.r is None else args.r
        if not 0 <= s <= r <= args.n:
            return f"need 0 <= s <= r <= n, got s={s}, r={r}, n={args.n}"
    # theta itself refuses n = 0, before any work, and counts a quotient of
    # dimension 1, s = r in (0, n), with none
    if s == r and r in (0, args.n):
        error = None
    elif (dual := _dual_degree(args.n, s, r)) is None:
        error = _substitution_refusal(f"theta({args.n}; {s}, {r})", _theta_work(args.n, r))
    else:
        error = _count_refusal(2, args.n, dual)
    if error:
        return error
    value = theta(args.n, s, r, jobs=args.parallelism, progress=_FoldProgress(args))
    report.results["coset_classes" if args.coset_classes else "quotient_classes"] = _decimal(value)


def _suite_reps(args, report: RunReport) -> str | None:
    q = args.q
    if power_exceeds(q, args.n, _POINT_LIMIT):
        # the limit binds at the largest n: refuse before verifying any smaller n
        return f"point space {q}**{args.n} exceeds the check limit {_POINT_LIMIT}"
    indices = sum(1 for _ in enumerate_classes(args.n, q))
    if q**args.n * indices > _REPS_STEP_LIMIT:
        return (
            f"{indices} class indices at {q}**{args.n} points each exceed "
            f"the check limit of {_REPS_STEP_LIMIT} point steps"
        )
    checked = 0
    for n in range(1, args.n + 1):
        for idx in enumerate_classes(n, q):
            outcome = verify_class(idx)
            checked += 1
            if not outcome.ok:
                report.add_check(f"reps q={q} n={n}", False, outcome.describe())
                return
        _progress(args, f"verified classes at q={q}, n={n}")
    report.add_check(f"reps q={q} n<={args.n}", True, f"{checked} classes")


def _suite_class_equation(args, report: RunReport) -> str | None:
    q = args.q
    # the class equation folds the class indices of N(q, n) and factors the
    # same q**i - 1, so it refuses what count-functions refuses
    if error := _count_refusal(q, args.n):
        return error
    for n in range(1, args.n + 1):
        total = class_equation_total(n, q)
        group = agl_group_order(n, q)
        report.add_check(f"class-equation q={q} n={n}", total == group, f"sum {total} vs group order {group}")


def _suite_oracle(args, report: RunReport) -> None:
    q, n = args.q, args.n
    brute = burnside_full(n, q)  # its guards refuse before the fold runs
    value = count_function_classes(n, q)
    report.results["function_classes"] = _decimal(value)
    report.add_check(f"oracle burnside q={q} n={n}", brute == value, f"{brute} vs {value}")
    with contextlib.suppress(ValueError):  # the closure has its own, lower limits
        orbits = orbit_enumeration(n, q)
        report.add_check(f"oracle orbits q={q} n={n}", orbits == value, f"{orbits} vs {value}")


def _suite_duality(args, report: RunReport) -> str | None:
    n = args.n
    if error := _substitution_refusal(f"the duality sweep at n = {n}", _duality_work(n)):
        return error
    pairs = [(s, r) for s in range(n + 1) for r in range(s, n + 1)]
    values = {pair: theta(n, *pair, jobs=args.parallelism) for pair in pairs}
    broken = [
        f"theta({n};{s},{r}) = {values[s, r]} but dual gives {values[n - r, n - s]}"
        for s, r in pairs
        if values[s, r] != values[n - r, n - s]
    ]
    report.add_check(f"duality n={n}", not broken, broken[0] if broken else "all pairs")


def _suite_compound(args, report: RunReport) -> str | None:
    n_max = args.n
    if error := _substitution_refusal(f"the compound sweep at n = {n_max}", _compound_work(n_max)):
        return error
    swept = list(jordan_structure_sweep(n_max))
    report.add_check(f"jordan-structure n<={n_max}", all(ok for _, _, ok, _ in swept))
    report.add_check(f"rank-bound n<={n_max}", all(ok for *_, ok in swept))
    import random

    rng = random.Random(2024)
    f2 = field(2)
    ok = True
    for _ in range(10):
        m, k2 = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (GFMatrix(f2, [[rng.randrange(2) for _ in range(d)] for _ in range(d)]) for d in (m, k2))
        ok &= all(check_kronecker_embedding(a, b, k, l) for k in range(m + 1) for l in range(k2 + 1))
    report.add_check("kronecker-embedding", ok)


def _suite_asymptotic(args, report: RunReport) -> str | None:
    # M(n) = theta(n; 2, n), of dual degree 1, for n = 2 .. --n-max, each
    # step of n about twice the last (--n-max 20 takes 3.2 s; 2 cores, Python
    # 3.11): refused when M(n_max) is; the report refuses n_max < 2
    if error := _count_refusal(2, max(args.n_max, 0), 1):
        return f"n_max = {args.n_max}: {error}"
    outcome = asymptotic_report(args.n_max, jobs=args.parallelism)
    report.results["constant"] = outcome.constant
    for row in outcome.rows:
        report.results[f"classes_n{row.n}"] = _decimal(row.class_count)
        report.results[f"ratio_n{row.n}"] = row.ratio_text
        report.results[f"ratio_excess_n{row.n}"] = row.excess_text
        report.results[f"limit_ratio_n{row.n}"] = row.limit_ratio_text
    report.add_check("ratios-exceed-one", all(row.ratio[0] > row.ratio[1] for row in outcome.rows))
    ratios = [row.ratio for row in outcome.rows if row.n >= 5]
    if len(ratios) >= 2:  # with fewer rows there is nothing to compare
        decreasing = all(a_num * b_den > b_num * a_den for (a_num, a_den), (b_num, b_den) in zip(ratios, ratios[1:]))
        report.add_check(f"ratios-decreasing n>=5 (n_max={args.n_max})", decreasing)


_SUITES = {
    "reps": (_suite_reps, {"q": 2, "n": 3}),
    "class-equation": (_suite_class_equation, {"q": 2, "n": 8}),
    "oracle": (_suite_oracle, {"q": 2, "n": 2}),
    "duality": (_suite_duality, {"n": 4}),
    "compound": (_suite_compound, {"n": 12}),
    "asymptotic": (_suite_asymptotic, {"n_max": 8}),
}


def _cmd_verify(args, report: RunReport) -> str | None:
    handler, defaults = _SUITES[args.suite]
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    report.parameters = {"suite": args.suite}
    report.parameters.update((key, _text(getattr(args, key))) for key in ("q", "n", "n_max"))
    # a suite reads exactly the flags it has defaults for, and --parallelism
    # only if it folds through theta or M(n)
    for key in ("q", "n", "n_max"):
        if key not in defaults and getattr(args, key) is not None:
            return f"suite {args.suite} takes no --{key.replace('_', '-')}"
    if args.parallelism != 1 and args.suite not in ("duality", "asymptotic"):
        return f"suite {args.suite} takes no --parallelism"
    if "q" in defaults and (error := _field_refusal(args.q)):
        return error
    # every suite but oracle runs over n = 1 .. --n, and would pass n = 0 with no check
    if "n" in defaults and args.suite != "oracle" and args.n < 1:
        return f"n = {args.n} must be >= 1 for suite {args.suite}"
    return handler(args, report)


def _build_parser() -> argparse.ArgumentParser:
    description = "Exact affine-equivalence class counts and verification suites."
    parser = argparse.ArgumentParser(prog="aglcount", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="also write the report to this path")
        p.add_argument("--parallelism", type=int, default=1, metavar="K",
                       help="processes that fold: the parent and K - 1 workers, 1..cpu count (1 = in-process)")
        p.add_argument("--verbose", action="store_true", help="progress on stderr")

    p = sub.add_parser("count-functions", help="number of function classes under affine equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verbose-classes", action="store_true", dest="verbose_classes",
                   help="include the class-index count in the report")
    common(p)
    p.set_defaults(handler=_cmd_count_functions)

    p = sub.add_parser("count-cosets", help="orbit counts of Reed-Muller quotient codes (binary)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--coset-classes", action="store_true", dest="coset_classes",
                   help="count classes of the quotient by affine functions")
    common(p)
    p.set_defaults(handler=_cmd_count_cosets)

    p = sub.add_parser("verify", help="run a cross-validation suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # --out is opened before any work, so an unwritable path is refused at
    # once rather than after the count
    path, args.out = args.out, None
    try:
        args.out = open(path, "w") if path else None
    except OSError as exc:
        return _fail(RunReport(command=args.command, parameters={}), args, f"cannot write --out: {exc}")
    with args.out or contextlib.nullcontext():
        cpus = os.cpu_count() or 1
        if not 1 <= args.parallelism <= cpus:
            report = RunReport(command=args.command, parameters={"parallelism": str(args.parallelism)})
            return _fail(report, args, f"parallelism = {args.parallelism} outside 1..{cpus}")
        # a handler refuses by returning a message or raising; either way the
        # report carries it, with exit 2
        report = RunReport(command=args.command, parameters={})
        start = time.perf_counter()
        try:
            error = args.handler(args, report)
        except (ValueError, AssertionError) as exc:
            return _fail(report, args, str(exc))
        if error:
            return _fail(report, args, error)
        report.elapsed_seconds = time.perf_counter() - start
        _emit(report, args)
        return 0 if report.status == "ok" else 1


if __name__ == "__main__":
    raise SystemExit(main())
