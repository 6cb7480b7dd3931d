"""The aglcount benchmark: exact counts through the command line, end to end
and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs in a fresh interpreter (``sample.py``), which imports the
package from ``src/`` and calls ``aglcount.cli.main([...])`` once per case,
with the report captured in memory; every printed count is checked against
``references.json``.  The seed only permutes the order of each sample's
fixed case list.

``--trace 0`` takes samples until ``--seconds`` have passed and reports the
end-to-end metrics: the median solve time of a sample (all its cases), the
median set-up time (``import aglcount, aglcount.cli``) over the samples and
extra set-up-only interpreters, and the median peak resident memory.  Solve
and set-up times are wall seconds scaled to a reference CPU speed: each
interpreter also times a fixed pure-Python loop (``sample.calibrate``)
before and after each case, and a time is multiplied by ``CAL_REF_S`` over
that loop's mean time (the mean tracks the speed over the whole sample
better than the median of a few loop times does).  On a
shared machine whose speed drifts by tens of percent from one minute to the
next, this keeps the run-to-run spread within the bounds; the unscaled wall
times are reported next to them in the details.

``--trace 1`` runs rounds of one untraced and one traced sample and reports
per-layer times and deterministic counters from spans recorded around the
layers' public functions (see ``tracing.py``); the counters must agree
across the rounds and with the last traced run of the same code.

The last line of standard output is the result object; the line before it
holds the details (per-case times, distributions, failures, pool speedups).
Both are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sample
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Fixed case lists: (case id, cli argv, reference key).  A round of a
# workload takes 2-4 s on two cores, so a run holds several fresh-interpreter
# samples and its median rides out the machine's second-to-second speed noise.
WORKLOADS = {
    # enumeration, per-class formulas and the bigint fold; q = 2 and odd q
    # (psi(d) multinomials, factorize on the orbit-exponent path)
    "functions": [
        ("q2n16", ["count-functions", "--q", "2", "--n", "16"], "N(2,16)"),
        ("q3n9", ["count-functions", "--q", "3", "--n", "9"], "N(3,9)"),
        ("q5n7", ["count-functions", "--q", "5", "--n", "7"], "N(5,7)"),
        ("q7n5", ["count-functions", "--q", "7", "--n", "5"], "N(7,5)"),
    ],
    # s = 0 quotients (the ones orbit sums can serve): packed coordinate
    # extraction at n = 7, 8, numpy rank at n = 9
    "cosets": [
        ("M7", ["count-cosets", "--coset-classes", "--n", "7"], "M(7)"),
        ("theta8_0_4", ["count-cosets", "--n", "8", "--s", "0", "--r", "4"], "theta(8,0,4)"),
        ("theta9_0_3", ["count-cosets", "--n", "9", "--s", "0", "--r", "3"], "theta(9,0,3)"),
    ],
    # middle quotients (s > 0, r < n) that orbit sums cannot serve; the n = 10
    # case has many representatives with small matrices
    "middle": [
        ("theta9_2_3", ["count-cosets", "--n", "9", "--s", "2", "--r", "3"], "theta(9,2,3)"),
        ("theta10_1_2", ["count-cosets", "--n", "10", "--s", "1", "--r", "2"], "theta(10,1,2)"),
    ],
    # both process-pool paths, with as many workers as the machine has cores
    "pool2": [
        ("q2n16_par2", ["count-functions", "--q", "2", "--n", "16", "--parallelism", "2"], "N(2,16)"),
        ("theta9_0_3_par2", ["count-cosets", "--n", "9", "--s", "0", "--r", "3", "--parallelism", "2"], "theta(9,0,3)"),
    ],
}

SETUP_PER_SAMPLE = 2  # set-up-only interpreters launched after each sample
MIN_SETUPS = 12
NUMPY_LAUNCHES = 3
RUN_BUDGET_S = 170.0  # a run must finish within 180 s


class SampleFailed(RuntimeError):
    """A sample interpreter exited abnormally or printed no result."""


def source_hash() -> str:
    """Hash of the code a result depends on: package, tests and benchmark."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "tests", BENCH):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".json") and OUT not in path.parents and path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "aglcount").rglob("*.py")))


def load_references() -> dict:
    return json.loads((BENCH / "references.json").read_text())


def case_specs(cases) -> list[dict]:
    return [{"id": cid, "argv": argv, "ref": ref} for cid, argv, ref in cases]


def serial(case: dict) -> dict:
    """The same case with the process pool switched off."""
    argv = list(case["argv"])
    if "--parallelism" in argv:
        i = argv.index("--parallelism")
        del argv[i : i + 2]
    return {"id": case["id"].removesuffix("_par2"), "argv": argv, "ref": case["ref"]}


def spawn(args: list[str], deadline: float) -> dict:
    """Run sample.py with ``args`` in a fresh interpreter; return its result.

    The sample gets its own process group, so on timeout it is killed
    together with any pool workers it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "sample.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed(f"sample {args[0]} ran past the run budget") from None
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"sample {args[0]} exited with status {proc.returncode}: {err.strip()[-500:]}")
    return json.loads(lines[-1])


def run_sample(cases: list[dict], deadline: float, trace: bool = False, spans_path: Path | None = None) -> dict:
    spec = {"cases": cases, "trace": trace, "spans_path": str(spans_path) if spans_path else None}
    return spawn(["cases", json.dumps(spec)], deadline)


def grade(cases: list[dict], result: dict | None, refs: dict, error: str = "") -> list[str]:
    """Failure messages for one sample: an error, a nonzero exit or a count
    that differs from its reference.  A sample that produced no result
    fails every case."""
    if result is None:
        return [f"{c['id']}: {error}" for c in cases]
    failures = []
    for case, outcome in zip(cases, result["cases"]):
        if "error" in outcome:
            failures.append(f"{case['id']}: {outcome['error']}")
        elif outcome["count"] != refs[case["ref"]]:
            failures.append(f"{case['id']}: count {outcome['count']} differs from reference {case['ref']}")
    return failures


def calibrated(seconds: float, calibration: list[float]) -> float:
    """Seconds scaled to the reference CPU speed of the calibration loop."""
    return seconds * sample.CAL_REF_S / statistics.mean(calibration)


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": round(100 * (n - 10) / n, 2), "value": ordered[n - 11]}


def distribution(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "max": max(values),
        "tail": tail_percentile(values),
        "samples": len(values),
    }


class Run:
    """One benchmark invocation: samples, failures and details."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.cases = case_specs(WORKLOADS[workload])
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.refs = load_references()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.detail: dict = {"workload": workload, "seed": seed, "trace": int(trace)}

    def sample(self, cases: list[dict], **kwargs) -> dict | None:
        """One sample, graded; None when the interpreter itself failed."""
        self.attempted += len(cases)
        try:
            result = run_sample(cases, self.deadline, **kwargs)
        except SampleFailed as exc:
            self.failures += grade(cases, None, self.refs, str(exc))
            return None
        self.failures += grade(cases, result, self.refs)
        return result

    def order(self) -> list[dict]:
        return self.rng.sample(self.cases, len(self.cases))

    def setup_time(self) -> tuple[float, float]:
        """(raw, calibrated) set-up seconds of one fresh interpreter."""
        result = spawn(["setup"], self.deadline)
        return result["setup_s"], calibrated(result["setup_s"], result["setup_calibration_s"])

    def numpy_time(self) -> float:
        return statistics.median(spawn(["numpy"], self.deadline)["numpy_s"] for _ in range(NUMPY_LAUNCHES))

    def end_to_end(self) -> dict:
        self.setup_time()  # compiles bytecode on a fresh checkout; not timed
        setups, solves, rss, per_case = [], [], [], {}
        begin = time.monotonic()
        while True:
            started = time.monotonic()
            result = self.sample(self.order())
            if result is not None:
                setups.append((result["setup_s"], calibrated(result["setup_s"], result["setup_calibration_s"])))
                solve = sum(c["seconds"] for c in result["cases"])
                solves.append((solve, calibrated(solve, result["calibration_s"])))
                rss.append(result["peak_rss_mb"])
                for c in result["cases"]:
                    per_case.setdefault(c["id"], []).append(c["seconds"])
            # set-up launches spread over the run see the same noise as the samples
            setups += [self.setup_time() for _ in range(SETUP_PER_SAMPLE)]
            now = time.monotonic()
            if now - begin >= self.seconds or now + (now - started) > self.deadline:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(self.setup_time())
        self.detail["solve_wall_s"] = distribution([w for w, _ in solves]) if solves else None
        self.detail["solve_s"] = distribution([c for _, c in solves]) if solves else None
        self.detail["setup_wall_s"] = distribution([w for w, _ in setups])
        self.detail["setup_s"] = distribution([c for _, c in setups])
        self.detail["cases"] = {cid: statistics.median(v) for cid, v in sorted(per_case.items())}
        return {
            "solve_s": (self.detail["solve_s"]["median"] if solves else 0.0, "s"),
            "setup_s": (self.detail["setup_s"]["median"], "s"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MiB"),
        }

    def traced(self) -> dict:
        """Rounds of one untraced and one traced sample in the same case
        order, until ``seconds`` have passed; per-layer values are medians
        over the traced samples.

        On pool2 the traced process would only hold the parent's spans, so
        the per-layer numbers come from the same cases run serially; the
        parallel runs' parent spans and the pool speedups are details.
        """
        pool = self.workload == "pool2"
        rounds, parents, speedups, per_case = [], [], {}, {}
        begin = time.monotonic()
        while True:
            started = time.monotonic()
            order = self.order()
            if pool:
                parallel = self.sample(order)
                parent = self.sample(order, trace=True, spans_path=OUT / "spans-pool2-parent.tsv")
                if parent is not None:
                    parents.append(parent["trace"]["layers"])
                order = [serial(c) for c in order]
            plain = self.sample(order)
            traced = self.sample(order, trace=True, spans_path=OUT / f"spans-{self.workload}.tsv")
            if plain is not None and traced is not None:
                rounds.append((plain, traced))
                for c in plain["cases"]:
                    per_case.setdefault(c["id"], []).append(c["seconds"])
                if pool and parallel is not None:
                    for c, s in zip(parallel["cases"], plain["cases"]):
                        speedups.setdefault(c["id"], []).append(s["seconds"] / c["seconds"])
            now = time.monotonic()
            if now - begin >= self.seconds or now + (now - started) > self.deadline:
                break
        if not rounds:
            return {}
        counters = rounds[0][1]["trace"]["counters"]
        for _, traced in rounds[1:]:
            if traced["trace"]["counters"] != counters:
                raise tracing.CounterMismatch(
                    f"deterministic counters differ within one run: {counters} vs {traced['trace']['counters']}"
                )
        tracing.check_counters(OUT / f"counters-{self.workload}.json", source_hash(), counters)

        def solve(result):
            return calibrated(sum(c["seconds"] for c in result["cases"]), result["calibration_s"])

        def unattributed(result):
            # share of the traced cases' wall time outside the layer spans
            # directly under cli.main (the count span and cli._emit)
            wall = sum(c["seconds"] for c in result["cases"])
            return 100 * (wall - result["trace"]["summary"]["layer_s"]) / wall

        layers = [traced["trace"]["layers"] for _, traced in rounds]
        metrics = {name: (statistics.median(r[name] for r in layers), "s") for name in layers[0]}
        metrics.update({name: (value, "count") for name, value in counters.items()})
        metrics["formulas.result_bits"] = (counters["formulas.result_bits"], "bits")
        overhead = statistics.median(solve(t) for _, t in rounds) / statistics.median(solve(p) for p, _ in rounds)
        metrics["trace.overhead_pct"] = (100 * (overhead - 1), "%")
        metrics["trace.unattributed_pct"] = (statistics.median(unattributed(t) for _, t in rounds), "%")

        last = rounds[-1][1]["trace"]
        self.detail["rounds"] = len(rounds)
        self.detail["cases"] = {cid: statistics.median(v) for cid, v in sorted(per_case.items())}
        self.detail["missing_hooks"] = last["missing_hooks"]
        self.detail["spans"] = last["summary"]["spans"]
        if pool:
            self.detail["per_layer_source"] = "serial runs of the pool2 cases"
            self.detail["pool.speedup"] = {cid: statistics.median(v) for cid, v in sorted(speedups.items())}
            if parents:
                self.detail["parent_spans"] = {
                    "scope": "parent process only; pool workers are not traced",
                    "layers": {name: statistics.median(p[name] for p in parents) for name in parents[0]},
                }
        return metrics

    def execute(self) -> dict:
        numpy_s = self.numpy_time()
        lines = src_lines()
        self.detail["setup.numpy_s"] = numpy_s
        self.detail["src.lines"] = lines
        if self.trace:
            metrics = self.traced()
            metrics["setup.numpy_s"] = (numpy_s, "s")
            metrics["src.lines"] = (lines, "lines")
        else:
            metrics = self.end_to_end()
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aglcount" / "__init__.py").is_file():
        print(f"no aglcount package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload is None or args.seconds < 1:
        parser.error("--workload is required and --seconds must be >= 1")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    try:
        metrics = run.execute()
    except Exception as exc:  # a counter mismatch or a broken set-up: report, do not hide
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        run.failures.append(f"{type(exc).__name__}: {exc}")
        status = 1
        metrics = {}
    failed = len(run.failures)
    run.detail["error_rate"] = failed / run.attempted if run.attempted else 1.0
    run.detail["failures"] = run.failures[:20]
    result = {
        "correct": failed == 0 and status == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": run.detail, "result": result}, indent=1) + "\n")
    print(json.dumps(run.detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
