"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Modes (first argument):

* ``numpy``: time ``import numpy`` alone and print ``{"numpy_s": ...}``.
* ``setup``: time ``import aglcount, aglcount.cli`` and print ``{"setup_s": ...}``.
* ``cases SPEC``: import the package (timed as set-up), then run each case
  of the JSON spec as an in-process ``aglcount.cli.main(argv)`` call with
  stdout and stderr captured in memory, and print one JSON line with the
  per-case wall times, the fingerprint of every printed count, the peak
  resident memory, the calibration loop times taken before and after each
  case and, when the spec asks for tracing, the span summary and counters.

The package is always imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# report keys that hold the count, one per cli command
COUNT_KEYS = ("function_classes", "coset_classes", "quotient_classes")

# counts up to this many digits are stored in full, longer ones as a hash
FULL_DIGITS = 1000

# Seconds the calibration loop takes at the reference CPU speed.  run.py
# scales timings by CAL_REF_S / (mean loop time in the same interpreter),
# which takes out the machine's drifting speed; the loop does not touch the
# package, so a change to the package cannot move it.
CAL_REF_S = 0.03


def calibrate() -> float:
    """Wall seconds for a fixed pure-Python loop of tuple building, dict
    lookups and int arithmetic, some of it on a 200-bit int."""
    table = {i: i * i for i in range(64)}
    start = time.perf_counter()
    acc = 1
    for i in range(100000):
        pair = (i & 63, acc & 63)
        acc = (acc * 3 + table[pair[0]] + len(pair)) % 1000003
        acc += (1 << 200) % (i + 7) & 1
    return time.perf_counter() - start


def fingerprint(value: str) -> dict:
    """How a printed count is compared with its reference."""
    if len(value) <= FULL_DIGITS:
        return {"value": value}
    return {"digits": len(value), "sha256": hashlib.sha256(value.encode()).hexdigest()}


def read_count(rc, stdout: str) -> dict:
    """Fingerprint of the count in one cli report, or the reason there is none."""
    if rc != 0:
        return {"error": f"exit status {rc}"}
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return {"error": f"report is not JSON: {exc}"}
    found = [report["results"][k] for k in COUNT_KEYS if k in report.get("results", {})]
    if report.get("status") != "ok" or len(found) != 1:
        return {"error": f"no count in report (status {report.get('status')!r})"}
    return {"count": fingerprint(found[0])}


def _import_package():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import aglcount
    import aglcount.cli

    seconds = time.perf_counter() - start
    if Path(aglcount.__file__).resolve().parent != (SRC / "aglcount").resolve():
        raise SystemExit(f"imported aglcount from {aglcount.__file__}, not from {SRC}")
    return aglcount.cli, seconds


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; children are the pool workers, if any
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def run_cases(cli, spec: dict) -> dict:
    tracer = None
    missing: list[str] = []
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        cli_span = tracer.name_id(tracing.CLI_SPAN)
    cases = []
    calibration = [calibrate()]
    for number, case in enumerate(spec["cases"]):
        out, err = io.StringIO(), io.StringIO()
        exc_text = None
        start = time.perf_counter()
        if tracer is not None:
            tracer.case = number
            span = tracer.open(cli_span)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(case["argv"]))
        except (Exception, SystemExit) as exc:  # a failed case is recorded, the rest still run
            rc, exc_text = None, f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.close(span)
        seconds = time.perf_counter() - start
        outcome = {"error": exc_text} if exc_text else read_count(rc, out.getvalue())
        if "error" in outcome and err.getvalue():
            outcome["error"] += f"; stderr: {err.getvalue().strip()[-300:]}"
        cases.append({"id": case["id"], "seconds": seconds, **outcome})
        calibration.append(calibrate())
    result = {"cases": cases, "peak_rss_mb": _peak_rss_mib(), "calibration_s": calibration}
    if tracer is not None:
        summary = tracing.summarize(tracer)
        result["trace"] = {
            "layers": tracing.layer_metrics(summary),
            "summary": summary,
            "counters": tracer.counter_values(),
            "missing_hooks": missing,
        }
        if spec.get("spans_path"):
            tracing.write_spans(tracer, Path(spec["spans_path"]), [c["id"] for c in spec["cases"]])
    return result


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "numpy":
        start = time.perf_counter()
        import numpy  # noqa: F401

        print(json.dumps({"numpy_s": time.perf_counter() - start}))
        return 0
    if mode not in ("setup", "cases"):
        print(f"usage: sample.py numpy | setup | cases SPEC (got {argv!r})", file=sys.stderr)
        return 2
    before = calibrate()
    cli, setup_s = _import_package()
    result = {"setup_s": setup_s, "setup_calibration_s": [before, calibrate()]}
    if mode == "cases":
        result.update(run_cases(cli, json.loads(argv[1])))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
