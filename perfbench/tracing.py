"""Trace child: time calls into each layer's public functions.

Reads {"work", "rounds", "block_seed", "run_id", "spans_path"} on standard
input. It replays the workload's operations through the public functions of
each module of tailtest, recording a span (name, start, end, parent, run id)
around every call. Spans stay in memory and are written to `spans_path` when
the replay ends. Prints one JSON report of per-layer metrics on standard
output.

The work is a fixed number of rounds, so call counts repeat exactly from run
to run. Each round also replays the workload's own operations once with
tracing off; the ratio of the two times is the tracing overhead.

Run from the repository root with `PYTHONPATH=src`.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import defaultdict

from tailtest import (
    SeedSpec,
    SimulationPlan,
    blocked_test,
    bryson_statistic,
    emit_table,
    make_stream,
    parse_spec,
    partition,
    run_plan,
    sample,
    shift_sample,
    simulate_bryson_quantiles,
    tail_test,
)
from tailtest.cli import main, read_dataset
from tailtest.rng import erlang_criticals

import workloads

SPAN_FIELDS = ["id", "parent", "name", "start_ns", "end_ns"]
CONFIG_REPEATS = 20
CRITICALS_REPEATS = 50


class Tracer:
    """Spans of one run id, kept in memory as (id, parent id, name, start ns, end ns)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def call(self, name: str, fn, *args):
        with _Span(self, name):
            return fn(*args)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def write(self, path: str) -> None:
        """A header line naming the run and the fields, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    """Context manager recording one span; cheaper than a generator-based one."""

    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.sid)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        t.spans[self.sid] = (self.sid, self.parent, self.name, self.start, end)
        return False


class NoTrace:
    """Stands in for Tracer when tracing is off: calls go straight through."""

    span = staticmethod(lambda name: contextlib.nullcontext())

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, amount):
        pass


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def segment_name(kind: str, row: dict) -> str:
    """Name of the span enclosing one replayed row: "row:..." or "bryson:..."."""
    k = f":k={row['k']}" if "k" in row else ""
    return f"{kind}:{row['dist']}:n={row['n']}{k}"


def replay_datasets(t, work: dict, block_seed: int) -> int:
    """Each dataset configuration as `tailtest test` computes it, then via main."""
    alpha = work["alpha"]
    for config in work["trace"]["configs"]:
        path = workloads.dataset_path(config["file"])
        shift = None if config["shift"] == "none" else config["shift"]
        k = config["blocks"]
        for _ in range(CONFIG_REPEATS):
            values, _ = t.call("cli.read_dataset", read_dataset, path)
            s = t.call("tail_test.shift_sample", shift_sample, values, shift)
            if k == 1:
                t.call("tail_test.tail_test", tail_test, s, alpha)
            else:
                t.call("blocking.partition", partition, s, k, "shuffle", block_seed)
                t.call("blocking.blocked_test", blocked_test, s, k, alpha, "shuffle", block_seed)
            t.call("cli.main_test", quiet, main, workloads.test_argv(config, block_seed))
    return CONFIG_REPEATS * len(work["trace"]["configs"])


def replay_rows(t, work: dict, block_seed: int) -> int:
    """Each replicate as the engine computes it, through the public functions."""
    alpha, ops = work["alpha"], 0
    for row in work["trace"]["rows"]:
        spec, n, k = parse_spec(row["dist"]), row["n"], row["k"]
        with t.span(segment_name("row", row)):
            for r in range(row["reps"]):
                with t.span("replicate"):
                    stream = t.call("rng.make_stream", make_stream, SeedSpec(work["base_seed"], r))
                    values = t.call("distributions.sample", sample, spec, n, stream)
                    t.count("distributions.sample_bytes", n * 8)
                    s = t.call("tail_test.shift_sample", shift_sample, values)
                    if k == 1:
                        t.call("tail_test.tail_test", tail_test, s, alpha)
                    else:
                        t.call("blocking.partition", partition, s, k, "sequential")
                        t.call("blocking.blocked_test", blocked_test, s, k, alpha, "sequential")
        ops += row["reps"]
    return ops


def replay_bryson(t, work: dict, block_seed: int) -> int:
    """Each T* replicate, then the whole simulated table."""
    ops = 0
    for row in work["trace"]["bryson"]:
        spec, n = parse_spec(row["dist"]), row["n"]
        with t.span(segment_name("bryson", row)):
            for r in range(row["reps"]):
                with t.span("replicate"):
                    stream = t.call("rng.make_stream", make_stream, SeedSpec(work["base_seed"], r))
                    values = t.call("distributions.sample", sample, spec, n, stream)
                    t.count("distributions.sample_bytes", n * 8)
                    t.call("bryson.bryson_statistic", bryson_statistic, values)
            t.call("bryson.simulate_bryson_quantiles", simulate_bryson_quantiles, spec, n,
                   row["reps"], work["base_seed"])
        ops += row["reps"]
    return ops


def run_power(t, work: dict) -> None:
    """run_plan on the rows at one thread and at the workload's thread count."""
    for row in work["trace"]["rows"]:
        plan = SimulationPlan(spec=parse_spec(row["dist"]), n_grid=(row["n"],), k_blocks=row["k"],
                              alpha=work["alpha"], reps=row["reps"], base_seed=work["base_seed"])
        report = t.call("power.run_plan", run_plan, plan, 1)
        t.call("power.run_plan_threads", run_plan, plan, work["threads"])
        t.call("power.emit_table", emit_table, report, "csv")


REPLAYS = {"datasets": replay_datasets, "rows": replay_rows, "bryson": replay_bryson}
SEGMENTS = ("row:", "bryson:")


def aggregate(spans: list) -> tuple[dict, dict]:
    """[calls, self ns] per span name, overall and per (segment, name).

    Self time is a span's duration minus the part its child spans cover. A
    span's segment is the nearest enclosing span named "row:..." or
    "bryson:...". Ids are given on entry, so a parent precedes its children.
    """
    self_ns = [end - start for _, _, _, start, end in spans]
    segment: list = [None] * len(spans)
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
        segment[sid] = name if name.startswith(SEGMENTS) else (
            segment[parent] if parent >= 0 else None)
    overall: dict = defaultdict(lambda: [0, 0])
    by_segment: dict = defaultdict(lambda: [0, 0])
    for sid, _, name, _, _ in spans:
        for table, key in ((overall, name), (by_segment, (segment[sid], name))):
            table[key][0] += 1
            table[key][1] += self_ns[sid]
    return overall, by_segment


def mean_us(table: dict, *keys) -> float:
    """Mean self µs per call over the given keys of an aggregate table."""
    calls = sum(table[k][0] for k in keys if k in table)
    return sum(table[k][1] for k in keys if k in table) / calls / 1e3 if calls else 0.0


def trace(spec: dict) -> dict:
    work, block_seed, rounds = spec["work"], spec["block_seed"], spec["rounds"]
    tracer = Tracer(spec["run_id"])
    own = REPLAYS[work["trace"]["own"]]
    seconds = {True: 0.0, False: 0.0}
    ops = 0
    for rnd in range(rounds):
        # Alternate which pass goes first, so neither always finds warm caches.
        for traced in ((False, True) if rnd % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            n_ops = own(tracer if traced else NoTrace, work, block_seed)
            seconds[traced] += time.perf_counter() - t0
        ops += n_ops
        for replay in REPLAYS.values():
            if replay is not own:
                ops += replay(tracer, work, block_seed)
        for k in (10, 25):
            for _ in range(CRITICALS_REPEATS):
                tracer.call(f"rng.erlang_criticals_k{k}", erlang_criticals, work["alpha"], k)
        run_power(tracer, work)
    tracer.write(spec["spans_path"])

    overall, by_segment = aggregate(tracer.spans)
    rows = [segment_name("row", row) for row in work["trace"]["rows"]]
    reps = sum(row["reps"] for row in work["trace"]["rows"]) * rounds
    run_plan_us = overall["power.run_plan"][1] / reps / 1e3
    per_rep_draw = mean_us(by_segment, *[(seg, "rng.make_stream") for seg in rows]) + mean_us(
        by_segment, *[(seg, "distributions.sample") for seg in rows])
    bootstrap_ms = []
    for row in work["trace"]["bryson"]:
        seg = segment_name("bryson", row)
        per_rep = sum(mean_us(by_segment, (seg, name)) for name in
                      ("rng.make_stream", "distributions.sample", "bryson.bryson_statistic"))
        simulate_us = mean_us(by_segment, (seg, "bryson.simulate_bryson_quantiles"))
        bootstrap_ms.append((simulate_us - row["reps"] * per_rep) / 1e3)

    def us(name):
        return mean_us(overall, name), "us"

    def calls(name):
        return overall[name][0] if name in overall else 0, "count"

    metrics = {
        "cli.read_dataset_us": us("cli.read_dataset"),
        "cli.read_dataset_calls": calls("cli.read_dataset"),
        "cli.main_test_ms": (mean_us(overall, "cli.main_test") / 1e3, "ms"),
        "cli.main_test_calls": calls("cli.main_test"),
        "rng.make_stream_us": us("rng.make_stream"),
        "rng.make_stream_calls": calls("rng.make_stream"),
        "rng.erlang_criticals_k10_us": us("rng.erlang_criticals_k10"),
        "rng.erlang_criticals_k25_us": us("rng.erlang_criticals_k25"),
        "distributions.sample_us": us("distributions.sample"),
        "distributions.sample_calls": calls("distributions.sample"),
        "distributions.sample_bytes": (tracer.counts["distributions.sample_bytes"], "B"),
        "tail_test.shift_sample_us": us("tail_test.shift_sample"),
        "tail_test.shift_sample_calls": calls("tail_test.shift_sample"),
        "tail_test.tail_test_us": us("tail_test.tail_test"),
        "tail_test.tail_test_calls": calls("tail_test.tail_test"),
        "blocking.partition_us": us("blocking.partition"),
        "blocking.partition_calls": calls("blocking.partition"),
        "blocking.blocked_test_us": us("blocking.blocked_test"),
        "blocking.blocked_test_calls": calls("blocking.blocked_test"),
        "power.run_plan_us_per_rep": (run_plan_us, "us"),
        "power.run_plan_us_per_rep_threads": (
            overall["power.run_plan_threads"][1] / reps / 1e3, "us"),
        "power.engine_stat_us_per_rep": (run_plan_us - per_rep_draw, "us"),
        "power.emit_table_us": us("power.emit_table"),
        "bryson.bryson_statistic_us": us("bryson.bryson_statistic"),
        "bryson.bryson_statistic_calls": calls("bryson.bryson_statistic"),
        "bryson.bootstrap_ms": (sum(bootstrap_ms) / len(bootstrap_ms), "ms"),
        "trace.overhead_pct": ((seconds[True] / seconds[False] - 1.0) * 100.0, "%"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    sample_by_law_n = []
    for kind, key in (("row", "rows"), ("bryson", "bryson")):
        for row in work["trace"][key]:
            seg = segment_name(kind, row)
            n_calls, ns = by_segment[(seg, "distributions.sample")]
            sample_by_law_n.append({"segment": seg, "us": ns / n_calls / 1e3, "calls": n_calls,
                                    "bytes": n_calls * row["n"] * 8})
    layer_self_s: dict = defaultdict(float)
    for name, (_, ns) in overall.items():
        if "." in name:
            layer_self_s[name.split(".")[0]] += ns / 1e9
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops,
        "layer_self_s": dict(layer_self_s),
        "sample_by_law_n": sample_by_law_n,
    }


if __name__ == "__main__":
    json.dump(trace(json.load(sys.stdin)), sys.stdout)
