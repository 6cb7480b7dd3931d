"""Record the reference count of every benchmark and self-test case.

    python3 bench/record_refs.py

Runs each distinct count once through ``aglcount.cli.main`` (serially) and
writes ``references.json``: the full decimal for counts of up to 1000
digits, the digit count and sha256 of the decimal for longer ones.  Before
writing, each middle quotient is checked against its dual,
theta(n, s, r) = theta(n, n - r, n - s).  Only rerun this on code whose
counts are trusted; the benchmark fails every case whose count differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import sample
import selftest


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import aglcount.cli
    from aglcount.rm import theta

    cases = [c for cases in run.WORKLOADS.values() for c in run.case_specs(cases)]
    cases += run.case_specs(selftest.TINY)
    refs = {}
    for case in map(run.serial, cases):
        if case["ref"] in refs:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = aglcount.cli.main(case["argv"])
        outcome = sample.read_count(rc, out.getvalue())
        if "error" in outcome:
            print(f"{case['id']}: {outcome['error']}", file=sys.stderr)
            return 1
        refs[case["ref"]] = outcome["count"]
        print(case["ref"], outcome["count"], flush=True)
    for cid, argv, ref in run.WORKLOADS["middle"]:
        n, s, r = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--s", "--r"))
        dual = theta(n, n - r, n - s)
        if refs[ref] != sample.fingerprint(str(dual)):
            print(f"{ref} = {refs[ref]} but its dual gives {dual}", file=sys.stderr)
            return 1
        print(f"{ref} matches theta({n},{n - r},{n - s})", flush=True)
    (run.BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
