"""In-memory span tracer for the benchmark's traced samples.

The tracer hooks the public functions of each aglcount layer from outside
the package: every module attribute bound to a hooked function is replaced
by a wrapper that records one span (name, start, end, parent, case).  For
a generator function the wrapper records one span per ``next()`` call, so
the consumer's loop body stays outside the span.  Spans are kept in flat
arrays until the sample ends and are written out once by ``write_spans``.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly (they are opened and closed on one stack), so the self
times of all spans of a case add up to its top-level ``cli.main`` span.  The
time that no layer hook covers is ``cli.main``'s own self time (argument
parsing, the decimal ``str()`` of the count, the group order), which is why
``summarize`` reports the time in ``cli.main``'s direct children separately.  On the parallel
path the pool's task-feeding thread draws the class stream while the main
thread waits inside the count span, so those spans still nest under it;
forked pool workers inherit the hooks, but their spans stay in the workers.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (home module, attribute, span name, kind, counter)
#   kind "call": one span per call; the counter, if any, counts calls.
#   kind "iter": one span per next(); the counter counts yielded items.
# Every attribute of a loaded aglcount module that is bound to the original
# function is replaced, except where RESTRICT names the only modules to patch.
HOOKS = (
    ("aglcount.conjugacy", "enumerate_classes", "conjugacy.enumerate_classes", "iter", "conjugacy.indices"),
    ("aglcount.formulas", "count_function_classes", "formulas.count_function_classes", "call", None),
    ("aglcount.formulas", "centralizer_order", "formulas.centralizer_order", "call", None),
    ("aglcount.formulas", "orbit_exponent", "formulas.orbit_exponent", "call", None),
    ("aglcount.numtheory", "factorize", "numtheory.factorize", "call", "numtheory.factorize_calls"),
    ("aglcount.reps", "iter_class_representatives", "reps.iter_class_representatives", "iter", "reps.representatives"),
    ("aglcount.reps", "irreducibles_of_order", "reps.irreducibles_of_order", "call", None),
    ("aglcount.rm", "theta", "rm.theta", "call", None),
    ("aglcount.rm", "fix_on_quotient", "rm.fix_on_quotient", "call", "rm.fix_calls"),
    ("aglcount.rm", "monomial_images", "rm.monomial_images", "call", None),
    ("aglcount.linalg", "gf2_rank", "linalg.gf2_rank", "call", "linalg.gf2_rank_calls"),
    ("aglcount.cli", "_emit", "cli.emit", "call", None),
)

# factorize is measured where the orbit-exponent path calls it; numtheory's
# own internal calls (orders, divisors during enumeration) stay untraced.
RESTRICT = {"numtheory.factorize": ("aglcount.formulas",)}

CLI_SPAN = "cli.main"

COUNTERS = (
    "conjugacy.indices",
    "reps.representatives",
    "rm.fix_calls",
    "rm.basis_dim",
    "linalg.gf2_rank_calls",
    "numtheory.factorize_calls",
    "formulas.result_bits",
)


class CounterMismatch(RuntimeError):
    """Deterministic counters differ between traced runs of the same code."""


class Tracer:
    """Flat span store plus named counters, filled by the hook wrappers."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.cases = array("l")
        self.case = 0
        self.counters: Counter[str] = Counter()
        self._bases: set[tuple[int, int, int, int]] = set()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cases.append(self.case)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter_ns()
        self._stack.pop()

    def wrap_call(self, span: str, counter: str | None, fn):
        nid = self.name_id(span)
        counters = self.counters

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counter is not None:
                counters[counter] += 1
            self._observe(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, span: str, counter: str | None, fn):
        nid = self.name_id(span)
        counters = self.counters

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                if counter is not None:
                    counters[counter] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _observe(self, span: str, args, result) -> None:
        if span == "formulas.count_function_classes":
            self.counters["formulas.result_bits"] += result.bit_length()
        elif span == "rm.fix_on_quotient":
            basis = args[1]
            key = (basis.n, basis.s, basis.r, basis.dim)
            if key not in self._bases:
                self._bases.add(key)
                self.counters["rm.basis_dim"] += basis.dim

    def counter_values(self) -> dict[str, int]:
        return {name: self.counters.get(name, 0) for name in COUNTERS}


def install(tracer: Tracer) -> list[str]:
    """Replace every binding of each hooked function by a traced wrapper.

    Returns the hooks whose function no longer exists, so a later change to
    the package degrades the trace (those layers read zero) instead of
    breaking it; the caller reports them.
    """
    missing = []
    for home, attr, span, kind, counter in HOOKS:
        try:
            orig = getattr(importlib.import_module(home), attr)
        except (ImportError, AttributeError):
            missing.append(f"{home}.{attr}")
            continue
        wrap = tracer.wrap_iter if kind == "iter" else tracer.wrap_call
        wrapper = wrap(span, counter, orig)
        only = RESTRICT.get(span)
        for name, module in list(sys.modules.items()):
            if name != "aglcount" and not name.startswith("aglcount."):
                continue
            if only is not None and name not in only:
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
    return missing


def self_times(names, starts, ends, parents) -> tuple[list[int], list[int]]:
    """Per span: (duration, self time), both in the units of start/end."""
    durations = [end - start for start, end in zip(starts, ends)]
    selfs = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= durations[i]
    return durations, selfs


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Seconds per span name: total (inclusive) time, self time, span count,
    and the time in layer spans directly under a ``cli.main`` span."""
    durations, selfs = self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    cli = tracer.name_id(CLI_SPAN)
    total = Counter()
    self_ = Counter()
    count = Counter()
    layer = 0
    for i, nid in enumerate(tracer.names):
        name = tracer.span_names[nid]
        total[name] += durations[i]
        self_[name] += selfs[i]
        count[name] += 1
        parent = tracer.parents[i]
        if parent >= 0 and tracer.names[parent] == cli:
            layer += durations[i]
    return {
        "total_s": {k: v / 1e9 for k, v in total.items()},
        "self_s": {k: v / 1e9 for k, v in self_.items()},
        "spans": dict(count),
        "layer_s": layer / 1e9,
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer times the benchmark reports, from one summary.

    Names without a ``self`` in them are inclusive times; orbit_exponent
    includes its factorize children and reps.build includes the
    irreducible scans.  cli.render_s is ``cli.main`` minus the count span:
    its own self time plus ``cli._emit``.
    """
    total = summary["total_s"]
    self_ = summary["self_s"]
    return {
        "conjugacy.enumerate_s": total.get("conjugacy.enumerate_classes", 0.0),
        "formulas.centralizer_s": total.get("formulas.centralizer_order", 0.0),
        "formulas.orbit_exponent_s": total.get("formulas.orbit_exponent", 0.0),
        "numtheory.factorize_s": total.get("numtheory.factorize", 0.0),
        "formulas.fold_self_s": self_.get("formulas.count_function_classes", 0.0),
        "cli.render_s": self_.get(CLI_SPAN, 0.0) + total.get("cli.emit", 0.0),
        "reps.build_s": total.get("reps.iter_class_representatives", 0.0),
        "reps.irreducibles_s": total.get("reps.irreducibles_of_order", 0.0),
        "rm.monomial_images_s": total.get("rm.monomial_images", 0.0),
        "rm.fix_self_s": self_.get("rm.fix_on_quotient", 0.0),
        "linalg.gf2_rank_s": total.get("linalg.gf2_rank", 0.0),
        "rm.theta_self_s": self_.get("rm.theta", 0.0),
    }


def write_spans(tracer: Tracer, path: Path, case_ids: list[str]) -> None:
    """Write every span once, as tab-separated text with a JSON header line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"cases": case_ids, "columns": ["name", "start_ns", "end_ns", "parent", "case"]}) + "\n")
        names = tracer.span_names
        for i in range(len(tracer.names)):
            handle.write(
                f"{names[tracer.names[i]]}\t{tracer.starts[i]}\t{tracer.ends[i]}\t{tracer.parents[i]}\t{tracer.cases[i]}\n"
            )


def check_counters(path: Path, source: str, counters: dict[str, int]) -> None:
    """Compare counters with the last traced run of the same source.

    The record at ``path`` is keyed by a hash of the code; a different hash
    replaces it, the same hash with different counters raises.
    """
    if path.exists():
        record = json.loads(path.read_text())
        if record.get("source") == source:
            if record["counters"] != counters:
                diff = {
                    k: (record["counters"].get(k), counters.get(k))
                    for k in sorted(set(record["counters"]) | set(counters))
                    if record["counters"].get(k) != counters.get(k)
                }
                raise CounterMismatch(f"deterministic counters changed between runs of the same code: {diff}")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "counters": counters}, indent=1, sort_keys=True) + "\n")
