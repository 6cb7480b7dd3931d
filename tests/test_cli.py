import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from aglcount import cli
from aglcount.cli import main
from aglcount.conjugacy import enumerate_classes
from aglcount.numtheory import agl_group_order, is_prime_power
from aglcount.rm import theta
from test_compound import int_str_digits


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timing(text):
    return re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": X', text)


def test_count_functions_basic(capsys):
    code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "2")
    assert code == 0
    body = json.loads(out)
    assert body["results"]["function_classes"] == "5"
    assert body["status"] == "ok"


def test_count_functions_n0_convention(capsys):
    code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "0")
    assert code == 0
    assert json.loads(out)["results"]["function_classes"] == "2"


def test_count_functions_rejects_non_prime_power(capsys):
    code, out = run_cli(capsys, "count-functions", "--q", "6", "--n", "2")
    assert code != 0
    assert "not a prime power" in json.loads(out)["results"]["error"]


def test_count_functions_guard(capsys):
    code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "24")
    assert code == 2
    assert json.loads(out)["results"]["error"] == "the count has more than 5.05e+06 digits, above the limit 4000000"
    # the digit bound is the only guard, so no flag raises it
    with pytest.raises(SystemExit) as exc:
        main(["count-functions", "--q", "2", "--n", "12", "--max-n", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-n" in capsys.readouterr().err


def test_results_are_decimal_strings(capsys):
    code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "8")
    body = json.loads(out)
    value = body["results"]["function_classes"]
    assert isinstance(value, str) and value.isdigit()
    assert int(value) > 2**64  # needs the string encoding


def test_count_cosets(capsys):
    code, out = run_cli(capsys, "count-cosets", "--n", "3", "--coset-classes")
    assert code == 0
    assert json.loads(out)["results"]["coset_classes"] == "3"
    code, out = run_cli(capsys, "count-cosets", "--n", "2", "--s", "0", "--r", "0")
    assert code == 0
    assert json.loads(out)["results"]["quotient_classes"] == "2"


def test_dimension_one_quotients_are_admitted(capsys):
    # the constants and the top degree have 2 orbits with no work, so no
    # estimate refuses them, at any n; n = 0 is still refused, by theta
    for n in ("16", "40"):
        for s in ("0", n):
            code, out = run_cli(capsys, "count-cosets", "--n", n, "--s", s, "--r", s)
            assert code == 0 and json.loads(out)["results"] == {"quotient_classes": "2"}, (n, s)
    code, out = run_cli(capsys, "count-cosets", "--n", "0", "--s", "0", "--r", "0")
    assert code == 2 and json.loads(out)["results"] == {"error": "n must be >= 1"}


def test_count_cosets_range_errors(capsys):
    code, _ = run_cli(capsys, "count-cosets", "--n", "4", "--s", "5", "--r", "3")
    assert code != 0
    # theta(12; 0, 9), of dual degree 2, is over the substitution budget
    code, out = run_cli(capsys, "count-cosets", "--n", "12", "--s", "0", "--r", "9")
    assert code == 2
    assert json.loads(out)["results"]["error"] == (
        "theta(12; 0, 9): an estimated 8.09e+11 substitution steps or more, over the budget 6e+10"
    )
    # quotients of dual degree <= 1, M(n) among them, come from the per-class
    # formulas alone, bounded by their digits as N(2, n) is: M(23) is
    # admitted, and M(24) and theta(24; 0, 24) refused
    code, out = run_cli(capsys, "count-cosets", "--n", "11", "--coset-classes")
    assert code == 0 and json.loads(out)["status"] == "ok"
    for extra in (("--coset-classes",), ()):
        code, out = run_cli(capsys, "count-cosets", "--n", "24", *extra)
        assert code == 2
        assert json.loads(out)["results"]["error"] == "the count has more than 5.05e+06 digits, above the limit 4000000"
    # no flag raises either bound
    for extra in ((), ("--coset-classes",)):
        with pytest.raises(SystemExit) as exc:
            main(["count-cosets", "--n", "5", "--max-n", "10", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n" in capsys.readouterr().err


def test_coset_classes_refuse_s_and_r(capsys):
    # M(n) is one quotient; naming another one in the report is refused
    for extra in (("--s", "1"), ("--r", "3"), ("--s", "1", "--r", "3"), ("--s", "0")):
        code, out = run_cli(capsys, "count-cosets", "--n", "5", "--coset-classes", *extra)
        body = json.loads(out)
        assert code == 2 and body["status"] == "error", extra
        assert body["results"] == {"error": "--coset-classes counts the quotient by affine functions and takes no --s or --r"}


def test_parallelism_yields_identical_report(capsys):
    _, first = run_cli(capsys, "count-functions", "--q", "2", "--n", "6", "--parallelism", "1")
    _, second = run_cli(capsys, "count-functions", "--q", "2", "--n", "6", "--parallelism", "2")
    assert strip_timing(first) == strip_timing(second)


def test_verbose_classes_counts_indices(capsys):
    # 2239 indices at q = 2, n = 12, folded in 13 spectra-weight tasks
    for q, n in ((2, 12), (3, 4), (7, 2)):
        want = str(sum(1 for _ in enumerate_classes(n, q)))
        for jobs in ("1", "2"):
            code, out = run_cli(
                capsys, "count-functions", "--q", str(q), "--n", str(n), "--verbose-classes", "--parallelism", jobs
            )
            assert code == 0
            assert json.loads(out)["results"]["class_indices"] == want, (q, n, jobs)
    _, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "0", "--verbose-classes")
    assert "class_indices" not in json.loads(out)["results"]


def test_verbose_progress_shows_rate(capsys):
    rate_line = re.compile(r"^  (\d+) class indices folded, \d+ indices/s$")
    indices = sum(1 for _ in enumerate_classes(12, 2))
    for argv in (("count-functions", "--q", "2", "--n", "12"), ("count-cosets", "--n", "5", "--coset-classes")):
        for jobs in ("1", "2"):
            assert main([*argv, "--verbose", "--parallelism", jobs]) == 0
            err = capsys.readouterr().err.splitlines()
            done = [int(m.group(1)) for m in map(rate_line.match, err) if m]
            assert done and done == sorted(done), (argv, jobs, err)
            if argv[0] == "count-functions":
                assert done[-1] == indices, (jobs, err)


def test_parallelism_out_of_range(capsys):
    cpus = os.cpu_count() or 1
    for value in ("0", "-1", str(cpus + 1)):
        code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "3", "--parallelism", value)
        assert code == 2, value
        body = json.loads(out)
        assert body["status"] == "error"
        assert "parallelism" in body["results"]["error"]


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    _, out = run_cli(capsys, "count-functions", "--q", "3", "--n", "2", "--out", str(path))
    assert path.read_text() == out


def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "3", "--out", str(path))
    body = json.loads(out)
    assert code == 2
    assert body["status"] == "error"
    assert "--out" in body["results"]["error"]
    assert "function_classes" not in body["results"]
    assert not path.exists()


def test_csv_format(capsys):
    code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "command,key,value"
    assert "count-functions,result:function_classes,10" in lines


def test_verify_suites_pass(capsys, monkeypatch):
    # the duality suite computes each theta(3; s, r) once, its dual included
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return theta(*args, **kwargs)

    monkeypatch.setattr(cli, "theta", counted)
    for argv in (
        ("verify", "--suite", "class-equation", "--q", "2", "--n", "5"),
        ("verify", "--suite", "oracle", "--q", "2", "--n", "2"),
        ("verify", "--suite", "oracle", "--q", "3", "--n", "2"),
        ("verify", "--suite", "reps", "--q", "2", "--n", "2"),
        ("verify", "--suite", "duality", "--n", "3"),
        ("verify", "--suite", "compound", "--n", "6"),
        ("verify", "--suite", "asymptotic", "--n-max", "4"),
    ):
        code, out = run_cli(capsys, *argv)
        body = json.loads(out)
        assert code == 0, body
        assert body["status"] == "ok"
        assert all(c["status"] == "pass" for c in body["checks"])
    assert sorted(calls) == [(3, s, r) for s in range(4) for r in range(s, 4)]


def test_verify_refuses_an_empty_range(capsys):
    # every suite but oracle runs over n = 1 .. --n, so n < 1 would pass
    # vacuously; oracle at n = 0 checks N(q, 0) = q
    for suite in ("reps", "class-equation", "duality", "compound"):
        for n in ("0", "-1"):
            code, out = run_cli(capsys, "verify", "--suite", suite, "--n", n)
            body = json.loads(out)
            assert code == 2, (suite, n)
            assert body["status"] == "error" and body["checks"] == []
            assert body["parameters"]["n"] == n
            assert "must be >= 1" in body["results"]["error"]
    code, out = run_cli(capsys, "verify", "--suite", "oracle", "--n", "0")
    body = json.loads(out)
    assert code == 0 and body["status"] == "ok"
    assert body["parameters"]["n"] == "0"
    assert body["results"]["function_classes"] == "2"


@pytest.mark.parametrize(
    "suite,flag",
    [
        ("reps", "n_max"),
        ("class-equation", "n_max"),
        ("oracle", "n_max"),
        ("duality", "q"),
        ("duality", "n_max"),
        ("compound", "q"),
        ("compound", "n_max"),
        ("asymptotic", "q"),
        ("asymptotic", "n"),
    ],
)
def test_verify_refuses_a_flag_the_suite_never_reads(capsys, suite, flag):
    option = "--" + flag.replace("_", "-")
    code, out = run_cli(capsys, "verify", "--suite", suite, option, "3")
    body = json.loads(out)
    assert code == 2 and body["status"] == "error" and body["checks"] == []
    assert body["results"] == {"error": f"suite {suite} takes no {option}"}
    assert body["parameters"][flag] == "3"


@pytest.mark.parametrize("suite", ["class-equation", "reps", "oracle", "compound"])
def test_verify_refuses_parallelism_the_suite_never_reads(capsys, suite):
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n", "2", "--parallelism", "2")
    body = json.loads(out)
    assert code == 2 and body["status"] == "error" and body["checks"] == []
    assert body["results"] == {"error": f"suite {suite} takes no --parallelism"}
    # the in-process default is accepted
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n", "2", "--parallelism", "1")
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_raised_refusal_gets_a_report(tmp_path, capsys):
    # a ValueError from inside a handler ends as the same error report,
    # on stdout and in --out, as a refusal the handler returns
    path = tmp_path / "report.json"
    for argv, message in (
        (("verify", "--suite", "oracle", "--q", "6", "--n", "2"), "not a prime power"),
        (("verify", "--suite", "asymptotic", "--n-max", "1"), "n_max must be >= 2"),
        (("count-cosets", "--n", "0"), "n must be >= 1"),
    ):
        code = main([*argv, "--out", str(path)])
        captured = capsys.readouterr()
        assert captured.out == path.read_text()
        body = json.loads(captured.out)
        assert code == 2, argv
        assert body["status"] == "error"
        assert message in body["results"]["error"]
        assert captured.err == ""


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--suite" in err and "bogus" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "aglcount", "count-functions", "--q", "2", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["function_classes"] == "3"


def test_runs_without_numpy():
    script = """
import sys
sys.modules["numpy"] = None
import aglcount, aglcount.cli, aglcount.compound, aglcount.oracle
from aglcount.compound import jordan_structure_sweep
from aglcount.rm import theta
print(theta(5, 1, 3), all(rank_ok for *_, rank_ok in jordan_structure_sweep(6)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["29", "True"]


def test_unprintable_count_fails_fast():
    # q = 512, n = 3 has about 3.6e8 digits: rejected before any work
    def cli(q, n):
        return subprocess.run(
            [sys.executable, "-m", "aglcount", "count-functions", "--q", q, "--n", n],
            capture_output=True,
            text=True,
            timeout=20,
        )

    proc = cli("512", "3")
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["status"] == "error"
    assert "digits" in body["results"]["error"]
    proc = cli("2", "12")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_class_equation_suite_refuses_what_count_functions_refuses(capsys):
    # q = 509 reaches the trial-division factoring of 509**i - 1, which at
    # n = 6 already runs past 20 s: --n 10 is refused before any work
    proc = subprocess.run(
        [sys.executable, "-m", "aglcount", "verify", "--suite", "class-equation", "--q", "509", "--n", "10"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["status"] == "error" and body["checks"] == []
    assert "digits" in body["results"]["error"]
    # the same (q, n) as count-functions, with the same reason
    for q, n in (("509", "3"), ("7", "8"), ("2", "24"), ("6", "2"), ("1024", "1")):
        code, out = run_cli(capsys, "verify", "--suite", "class-equation", "--q", q, "--n", n)
        _, reference = run_cli(capsys, "count-functions", "--q", q, "--n", n)
        assert code == 2, (q, n)
        assert json.loads(out)["results"]["error"] == json.loads(reference)["results"]["error"]
    code, out = run_cli(capsys, "verify", "--suite", "class-equation", "--q", "509", "--n", "2")
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_reps_suite_beyond_point_limit_fails_fast():
    # q**n = 2**21 points: refused before the 97,035 classes at n = 20
    def verify(n):
        return subprocess.run(
            [sys.executable, "-m", "aglcount", "verify", "--suite", "reps", "--q", "2", "--n", n],
            capture_output=True,
            text=True,
            timeout=20,
        )

    # 2**21 points are over the point limit; 15,780 class indices at 2**16
    # points each (hours of work) are over the point-step limit
    for n, message in (
        ("21", "2**21 exceeds the check limit"),
        ("16", "15780 class indices at 2**16 points each exceed the check limit"),
    ):
        proc = verify(n)
        assert proc.returncode == 2
        body = json.loads(proc.stdout)
        assert body["status"] == "error"
        assert body["checks"] == []
        assert message in body["results"]["error"]
    proc = verify("3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_oracle_suite_refuses_before_the_fold():
    # the brute Burnside guard refuses N(3, 30) before the fold, which at
    # this size would not end
    proc = subprocess.run(
        [sys.executable, "-m", "aglcount", "verify", "--suite", "oracle", "--q", "3", "--n", "30"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["status"] == "error"
    assert "burnside_full guard exceeded" in body["results"]["error"]
    assert "function_classes" not in body["results"]


def test_compound_suite_beyond_size_limit_fails_fast():
    # n = 16 takes 5.7 s and 425 MiB (2 cores, Python 3.11.7) and n = 40
    # would never end: both are over the substitution budget, refused
    # before the sweep starts
    def verify(n):
        return subprocess.run(
            [sys.executable, "-m", "aglcount", "verify", "--suite", "compound", "--n", n],
            capture_output=True,
            text=True,
            timeout=20,
        )

    for n, work in (("16", "8.97e+10"), ("40", "6.39e+25")):
        proc = verify(n)
        assert proc.returncode == 2
        body = json.loads(proc.stdout)
        assert body["status"] == "error"
        assert body["checks"] == []
        assert body["results"]["error"] == (
            f"the compound sweep at n = {n}: an estimated {work} substitution steps or more, over the budget 6e+10"
        )
    proc = verify("4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


@pytest.mark.parametrize(
    "argv, message",
    [
        # n = 10 takes minutes and n = 40 would never end
        pytest.param(
            ("--suite", "duality", "--n", "10"),
            "the duality sweep at n = 10: an estimated 5.34e+11 substitution steps or more, over the budget 6e+10",
            id="duality-10",
        ),
        pytest.param(
            ("--suite", "duality", "--n", "40"),
            "the duality sweep at n = 40: an estimated 3.43e+40 substitution steps or more, over the budget 6e+10",
            id="duality-40",
        ),
        # --n-max 23 takes about 20 s, and M(24) is over the digit limit
        (
            ("--suite", "asymptotic", "--n-max", "24"),
            "n_max = 24: the count has more than 5.05e+06 digits, above the limit 4000000",
        ),
    ],
)
def test_sweep_beyond_size_limit_fails_fast(argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "aglcount", "verify", *argv],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["status"] == "error"
    assert body["checks"] == []
    assert body["results"]["error"] == message


def test_digit_bound_decides_as_the_exact_formula():
    # the reference takes log10 of the exact group order, which is O(n**2)
    # digits long; the cli takes (dim - n*n - n) * log10(q) in O(1)
    def exact_digits(n, q, dim):
        return dim * math.log10(q) - math.log10(agl_group_order(n, q))

    for q in filter(is_prime_power, range(2, 513)):
        for n in range(31):
            refused = exact_digits(n, q, q**n) > cli._STR_DIGITS_LIMIT
            assert (cli._count_refusal(q, n) is not None) == refused, (q, n)
    # the quotients of dual degree K <= 1: dim = 2**n - C(n, <= K)
    for dual in (-1, 0, 1):
        for n in range(2, 31):
            dim = 2**n - sum(math.comb(n, k) for k in range(dual + 1))
            refused = exact_digits(n, 2, dim) > cli._STR_DIGITS_LIMIT
            assert (cli._count_refusal(2, n, dual) is not None) == refused, (n, dual)
        assert cli._count_refusal(2, 23, dual) is None and cli._count_refusal(2, 24, dual)
    # past n = 64 the message keeps the bound at 64, a finite lower bound
    assert cli._count_refusal(2, 10**18) == cli._count_refusal(2, 64)


def test_substitution_budget_keeps_what_the_caps_admitted():
    # the estimate alone decides, so nothing runs here
    def admitted(work):
        return cli._substitution_refusal("", work) is None

    # every input that the n caps admitted: theta at n <= 10, duality at
    # n <= 9 and compound at n <= 14
    for n in range(1, 11):
        for r in range(n + 1):
            assert admitted(cli._theta_work(n, r)), (n, r)
    assert all(admitted(cli._duality_work(n)) for n in range(1, 10))
    assert all(admitted(cli._compound_work(n)) for n in range(1, 15))
    # the boundary: theta(12; 1, 2) takes about 1.7 s and theta(12; 0, 9) is
    # refused; duality at n = 10 takes 155 s, compound at n = 16 5.7 s and
    # 425 MiB
    assert admitted(cli._theta_work(11, 2)) and admitted(cli._theta_work(12, 2))
    assert not admitted(cli._theta_work(12, 9))
    assert admitted(cli._compound_work(15)) and not admitted(cli._compound_work(16))
    assert not admitted(cli._duality_work(10))
    # the duality sweep is one theta per pair 0 <= s <= r <= n
    for n in range(1, 12):
        pairs = [(s, r) for s in range(n + 1) for r in range(s, n + 1)]
        assert cli._duality_work(n) == sum(cli._theta_work(n, r) for _, r in pairs)
    # past n = 64 the estimate stays at 64, a finite lower bound
    for work in (lambda n: cli._theta_work(n, n), lambda n: cli._theta_work(n, 2), cli._duality_work, cli._compound_work):
        assert work(10**12) == work(64) > cli._SUBSTITUTION_BUDGET


_HUGE = str(10**18)
_TERA = str(10**12)


@pytest.mark.parametrize(
    "argv",
    [
        ("count-functions", "--q", "2", "--n", _HUGE),
        ("count-cosets", "--coset-classes", "--n", _HUGE),
        ("verify", "--suite", "asymptotic", "--n-max", _HUGE),
        ("verify", "--suite", "class-equation", "--q", "2", "--n", _HUGE),
        ("verify", "--suite", "reps", "--q", "3", "--n", _HUGE),
        ("verify", "--suite", "oracle", "--q", "2", "--n", _HUGE),
        ("count-cosets", "--n", _TERA),
        ("count-cosets", "--n", _TERA, "--s", "1", "--r", "2"),
        ("verify", "--suite", "duality", "--n", _TERA),
        ("verify", "--suite", "compound", "--n", _TERA),
        # of dual degree 1, refused by the digit bound, as --n alone is
        ("count-cosets", "--n", _TERA, "--s", "2"),
    ],
)
def test_huge_n_is_refused_at_once(argv):
    # every guard checks n, or a logarithm, before it builds q**n or walks
    # anything
    proc = subprocess.run(
        [sys.executable, "-m", "aglcount", *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    body = json.loads(proc.stdout)
    assert body["status"] == "error" and body["checks"] == []
    assert "inf" not in body["results"]["error"]


@pytest.mark.parametrize(
    "suite, q, n",
    [
        # trial division of a prime near 10**18 does not end in minutes
        ("oracle", "1000000000000000003", "1"),
        # (-2)**100000 would be built before the point limit
        ("reps", "-2", "100000"),
        ("class-equation", "1024", "2"),
    ],
)
def test_q_is_checked_first(suite, q, n):
    proc = subprocess.run(
        [sys.executable, "-m", "aglcount", "verify", "--suite", suite, "--q", q, "--n", n],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    body = json.loads(proc.stdout)
    assert body["status"] == "error" and body["checks"] == []
    assert body["results"] == {"error": f"q = {q} is not a prime power in 2..512"}


def test_asymptotic_suite_compares_ratios_only_when_two_exist(capsys):
    # rows start at n = 2, so the n >= 5 tail has two rows from n_max = 6 on
    for n_max in range(2, 8):
        code, out = run_cli(capsys, "verify", "--suite", "asymptotic", "--n-max", str(n_max))
        body = json.loads(out)
        assert code == 0 and body["status"] == "ok", n_max
        names = [check["name"] for check in body["checks"]]
        decreasing = f"ratios-decreasing n>=5 (n_max={n_max})"
        assert names == ["ratios-exceed-one"] + [decreasing] * (n_max >= 6), n_max


def test_decimal_matches_str():
    # str() is the reference, so the int-str limit is lifted for this test only
    values = [0, 1]
    for k in (1, 2, 17, 308, 309, 310, 5000, 9864, 9865, 40000):
        values += [10**k - 1, 10**k, 10**k + 1]
    # around the leaf size of the split and the crossover to str()
    for bits in (cli._DECIMAL_LEAF_BITS, cli._DECIMAL_MIN_BITS, 2 * cli._DECIMAL_MIN_BITS):
        for k in (bits - 1, bits, bits + 1):
            values += [2**k - 1, 2**k, 2**k + 1]
    rng = random.Random(2026)
    for top in range(4, 21):
        values.append(rng.getrandbits(rng.randrange(2 ** (top - 1), 2**top + 1)))
    with int_str_digits(0):
        for value in values:
            assert cli._decimal(value) == str(value), value.bit_length()


@pytest.mark.parametrize(
    "argv",
    [
        ("count-functions", "--q", "2", "--n", "14"),
        ("count-cosets", "--coset-classes", "--n", "14"),
        ("verify", "--suite", "asymptotic", "--n-max", "14"),
    ],
)
def test_reports_do_not_depend_on_the_int_str_limit(argv):
    # counts of about 4,900 digits, above the lowest limit Python allows;
    # the cli sets no limit of its own, so an embedding program keeps its own
    reports = []
    for limit in ("640", "0"):
        proc = subprocess.run(
            [sys.executable, "-X", f"int_max_str_digits={limit}", "-m", "aglcount", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert strip_timing(reports[0]) == strip_timing(reports[1])
    assert max(map(len, json.loads(reports[0])["results"].values())) > 4000


def test_main_leaves_the_int_str_limit_alone(capsys):
    with int_str_digits(640):
        code, out = run_cli(capsys, "count-functions", "--q", "2", "--n", "14")
        assert sys.get_int_max_str_digits() == 640
    assert code == 0 and len(json.loads(out)["results"]["function_classes"]) == 4870
