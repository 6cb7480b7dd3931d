"""Self-tests of the benchmark machinery on tiny cases.

    python3 bench/selftest.py

Runs the real sample path (fresh interpreters, cli.main, reference checks,
tracing) on N(2, 6), M(5), theta(5, 1, 3) and a two-worker M(5), then
checks that a wrong reference is caught, the self-time arithmetic and the
counter-determinism check.  Takes a few seconds.
"""

from __future__ import annotations

import tempfile
import time
import unittest
from pathlib import Path

import run
import tracing

TINY = [
    ("q2n6", ["count-functions", "--q", "2", "--n", "6"], "N(2,6)"),
    ("M5", ["count-cosets", "--coset-classes", "--n", "5"], "M(5)"),
    ("theta5_1_3", ["count-cosets", "--n", "5", "--s", "1", "--r", "3"], "theta(5,1,3)"),
    ("M5_par2", ["count-cosets", "--coset-classes", "--n", "5", "--parallelism", "2"], "M(5)"),
]


def _deadline() -> float:
    return time.monotonic() + 120


class TinyCases(unittest.TestCase):
    def setUp(self):
        self.refs = run.load_references()
        self.cases = run.case_specs(TINY)

    def test_counts_match_references(self):
        result = run.run_sample(self.cases, _deadline())
        self.assertEqual(run.grade(self.cases, result, self.refs), [])
        self.assertEqual([c["id"] for c in result["cases"]], [c["id"] for c in self.cases])
        self.assertGreater(result["setup_s"], 0)
        self.assertGreater(result["peak_rss_mb"], 0)

    def test_traced_counters_repeat_and_spans_partition_time(self):
        serial = [run.serial(c) for c in self.cases]
        first = run.run_sample(serial, _deadline(), trace=True)
        second = run.run_sample(serial[::-1], _deadline(), trace=True)
        for cases, result in ((serial, first), (serial[::-1], second)):
            self.assertEqual(run.grade(cases, result, self.refs), [])
            self.assertEqual(result["trace"]["missing_hooks"], [])
        self.assertEqual(first["trace"]["counters"], second["trace"]["counters"])
        counters = first["trace"]["counters"]
        for name in ("conjugacy.indices", "reps.representatives", "rm.fix_calls", "formulas.result_bits"):
            self.assertGreater(counters[name], 0, name)
        solve = sum(c["seconds"] for c in first["cases"])
        summary = first["trace"]["summary"]
        top = summary["total_s"][tracing.CLI_SPAN]
        self.assertLessEqual(top, solve)
        self.assertAlmostEqual(sum(summary["self_s"].values()), top, places=6)
        # every case has a count span and an emit span under cli.main
        self.assertEqual(summary["spans"]["cli.emit"], len(serial))
        self.assertLess(summary["layer_s"], top)
        self.assertGreater(summary["layer_s"], 0)

    def test_wrong_reference_is_one_failure_in_one(self):
        case = run.case_specs(TINY[:1])
        refs = dict(self.refs)
        refs["N(2,6)"] = {"value": "15768918"}
        result = run.run_sample(case, _deadline())
        failures = run.grade(case, result, refs)
        self.assertEqual((len(failures), len(case)), (1, 1))

    def test_sample_without_result_fails_every_case(self):
        failures = run.grade(self.cases, None, self.refs, "no result")
        self.assertEqual(len(failures), len(self.cases))


class SelfTime(unittest.TestCase):
    def test_self_time_is_span_minus_direct_children(self):
        # 0: [0, 100]  1: [10, 40] child of 0  2: [20, 30] child of 1  3: [50, 90] child of 0
        starts, ends, parents = [0, 10, 20, 50], [100, 40, 30, 90], [-1, 0, 1, 0]
        durations, selfs = tracing.self_times([0, 1, 2, 3], starts, ends, parents)
        self.assertEqual(durations, [100, 30, 10, 40])
        self.assertEqual(selfs, [30, 20, 10, 40])
        self.assertEqual(sum(selfs), durations[0])

    def test_tracer_nests_calls_and_generator_steps(self):
        tracer = tracing.Tracer()
        leaf = tracer.wrap_call("leaf", "leaf_calls", lambda x: x)

        def steps():
            yield leaf(1)
            yield leaf(2)

        items = list(tracer.wrap_iter("gen", "items", steps)())
        self.assertEqual(items, [1, 2])
        names = [tracer.span_names[i] for i in tracer.names]
        # two gen steps with a leaf inside each, then the final empty step
        self.assertEqual(names, ["gen", "leaf", "gen", "leaf", "gen"])
        self.assertEqual(list(tracer.parents), [-1, 0, -1, 2, -1])
        self.assertEqual(tracer.counters["items"], 2)
        self.assertEqual(tracer.counters["leaf_calls"], 2)


class CounterDeterminism(unittest.TestCase):
    def test_same_source_must_repeat(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counters.json"
            tracing.check_counters(path, "abc", {"x": 1})
            tracing.check_counters(path, "abc", {"x": 1})
            with self.assertRaises(tracing.CounterMismatch):
                tracing.check_counters(path, "abc", {"x": 2})

    def test_new_source_replaces_record(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counters.json"
            tracing.check_counters(path, "abc", {"x": 1})
            tracing.check_counters(path, "def", {"x": 2})
            with self.assertRaises(tracing.CounterMismatch):
                tracing.check_counters(path, "def", {"x": 1})


class Percentile(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([1.0] * 10))
        values = [float(v) for v in range(1, 21)]
        tail = run.tail_percentile(values)
        self.assertEqual(tail["value"], 10.0)
        self.assertEqual(sum(v > tail["value"] for v in values), 10)


if __name__ == "__main__":
    unittest.main()
