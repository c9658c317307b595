"""Benchmark driver for tailtest: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_test --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, both modes

Run from the repository root. The driver builds the workload's inputs from
the seed, starts child processes one at a time (each a fresh interpreter
that imports tailtest from `src/`), checks every output, and prints a
summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off. With `--trace 1` they are the per-layer ones, from a separate traced
replay. A failed check prints `"correct": false` and exits 1. See README.md
in this directory for the metrics, the workloads and why they were chosen.
"""
from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 5
TRACE_CLI_CHILDREN = 3
ROUND_SECONDS = 3  # one traced round takes about this long
CHILD_TIMEOUT_S = 90
STOP_AFTER_S = 140  # the whole run must end well within 180 s
# Nominal time of a child's calibration piece. Times are reported as they
# would read on a host where the piece takes this long.
PIECE_REF_S = 0.004


class Launcher:
    """Starts children one at a time and waits for each to end."""

    def __init__(self):
        src = str(Path("src").resolve())
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.live = 0
        self.most_live = 0
        self.started = 0

    def run(self, args: list[str], payload=None) -> tuple[float, str, str]:
        """Run one child to completion; returns (wall seconds, stdout, stderr)."""
        if self.live:
            raise RuntimeError("a child is still running; children must run one at a time")
        self.live += 1
        self.most_live = max(self.most_live, self.live)
        self.started += 1
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *args], input=None if payload is None else json.dumps(payload),
                capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
        finally:
            self.live -= 1
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return wall, proc.stdout, proc.stderr

    def script(self, name: str, payload) -> tuple[float, dict]:
        wall, out, _ = self.run([str(HERE / name)], payload)
        return wall, json.loads(out)


def importtime_s(stderr: str) -> dict:
    """Import time of `tailtest.cli` split by package, from `-X importtime`.

    Each module's self time goes to numpy or scipy when the module or one of
    its importers belongs to that package (the outermost one wins), so scipy's
    share is what importing scipy costs, numpy submodules it pulls in
    included. What remains under tailtest is tailtest's own modules and the
    standard library modules they import.
    """
    entries = [(int(m.group(1)), len(m.group(2)) // 2, m.group(3).split(".")[0])
               for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \| ( *)(\S+)", stderr)]
    totals = {"numpy": 0, "scipy": 0, "tailtest": 0}
    stack: list = []  # (level, owner) of the importers of the current entry
    for self_us, level, top in reversed(entries):  # reversed post-order: importers first
        while stack and stack[-1][0] >= level:
            stack.pop()
        owner = stack[-1][1] if stack else None
        if owner not in ("numpy", "scipy") and top in totals:
            owner = top
        stack.append((level, owner))
        if owner:
            totals[owner] += self_us
    return {k: v / 1e6 for k, v in totals.items()}


def provenance(work: dict, nproc: int, versions: dict, launcher: Launcher) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(Path("src/tailtest").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": work,
        "threads_passed": work["threads"],
        "children_started": launcher.started,
        "most_children_at_once": launcher.most_live,
    }


class Run:
    """One run of one workload: the children, their checks and tallies."""

    def __init__(self, work: dict, nproc: int):
        self.work = work
        self.nproc = nproc
        self.launcher = Launcher()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.gate: dict = {}

    def run_gate(self) -> None:
        _, self.gate = self.launcher.script("gate.py", self.work)
        self.problems += [f"gate {c['name']}: {c['detail']}" for c in self.gate["checks"]
                          if not c["ok"]]

    @property
    def block_seed(self) -> int:
        seed = self.gate.get("block_seed")
        return self.work["base_seed"] if seed is None else seed

    def cli_child(self, i: int, argvs: list[list[str]]) -> tuple[float, dict]:
        """One timed child; its outputs are checked and its operations tallied."""
        for argv in argvs:
            if workloads.command_threads(argv) > self.nproc:
                raise RuntimeError(f"{argv}: thread count exceeds nproc={self.nproc}")
        wall, report = self.launcher.script("child.py", argvs)
        for j, (argv, call) in enumerate(zip(argvs, report["calls"])):
            attempted, failed, problems = checks.check_command(
                self.work, self.gate, i, j, argv, call)
            self.attempted += attempted
            self.failed += failed
            self.problems += problems
        return wall, report

    def probe(self) -> dict:
        """The known-defect probe: reported, not timed and not in the tallies."""
        argv = self.work["probe"]
        _, report = self.launcher.script("child.py", [argv])
        call = report["calls"][0]
        attempted, failed, problems = checks.check_command(self.work, self.gate, -1, 0, argv, call)
        self.problems += problems
        return {"argv": argv, "rc": call["rc"], "attempted": attempted, "failed": failed,
                "stderr": call["err"].strip().splitlines()[-1:]}


def measure(run: Run, seconds: int, started: float) -> tuple[dict, dict]:
    """The end-to-end metrics, with tracing off.

    Each child's times are divided by its speed factor, the time of its
    calibration piece over PIECE_REF_S, so a run reads the same whether the
    host is giving the machine a fast or a slow share of its CPUs.
    """
    work = run.work
    reports = [run.launcher.script("child.py", [])[1] for _ in range(SETUP_CHILDREN)]
    run.run_gate()
    walls, rates, reps = [], [], 0
    t0 = time.perf_counter()
    i = 0
    while (time.perf_counter() - t0 < seconds or i < workloads.MIN_CHILDREN) and \
            time.perf_counter() - started < STOP_AFTER_S:
        argvs = workloads.commands(work, i, run.block_seed)
        wall, report = run.cli_child(i, argvs)
        speed = report["piece_s"] / PIECE_REF_S
        walls.append((wall - report["calibration_s"]) / speed)
        child_reps = sum(workloads.command_reps(a) for a in argvs)
        rates.append(child_reps * speed / sum(call["s"] for call in report["calls"]))
        reps += child_reps
        reports.append(report)
        i += 1
    _, p50, p75 = statistics.quantiles(walls, n=4)
    metrics = {
        "setup_s": (statistics.median(r["import_s"] * PIECE_REF_S / r["piece_s"] for r in reports),
                    "s"),
        "cli_p50_s": (p50, "s"),
        "cli_p75_s": (p75, "s"),
        "reps_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in reports[SETUP_CHILDREN:]) / 1024.0, "MB"),
    }
    extra = {"children": len(walls), "beyond_p75": sum(w > p75 for w in walls),
             "replicates": reps, "setup_samples": len(reports),
             "piece_s_median": statistics.median(r["piece_s"] for r in reports),
             "setup_s_unscaled": statistics.median(r["import_s"] for r in reports)}
    attempted, failed = run.attempted, run.failed
    if "probe" in work:
        extra["probe"] = probe = run.probe()
        attempted += probe["attempted"]
        failed += probe["failed"]
    extra["error_rate"] = failed / attempted
    return metrics, extra


def measure_layers(run: Run, seconds: int) -> tuple[dict, dict]:
    """The per-layer metrics, from -X importtime and the traced replay."""
    work = run.work
    imports = [importtime_s(run.launcher.run(["-X", "importtime", "-c", "import tailtest.cli"])[2])
               for _ in range(IMPORTTIME_CHILDREN)]
    metrics = {name: (statistics.median(d[key] for d in imports), "s") for key, name in
               (("numpy", "setup.numpy_s"), ("scipy", "setup.scipy_s"),
                ("tailtest", "setup.tailtest_self_s"))}
    run.run_gate()
    for i in range(TRACE_CLI_CHILDREN):
        run.cli_child(i, workloads.commands(work, i, run.block_seed))
    spec = {"work": work, "rounds": max(1, round(seconds / ROUND_SECONDS)),
            "block_seed": run.block_seed, "run_id": f"{work['name']}-seed{work['seed']}",
            "spans_path": str(OUT_DIR / f"spans-{work['name']}.jsonl")}
    _, traced = run.launcher.script("tracing.py", spec)
    run.attempted += traced["ops"]
    metrics.update({k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()})
    extra = {"layer_self_s": traced["layer_self_s"],
             "sample_by_law_n": traced["sample_by_law_n"],
             "spans_path": spec["spans_path"], "rounds": spec["rounds"]}
    if "probe" in work:
        extra["probe"] = run.probe()
    return metrics, extra


def run_one(name: str, seed: int, seconds: int, trace: int, nproc: int) -> int:
    """One run: measure, check, write the result file, print; returns the exit code."""
    started = time.perf_counter()
    work = workloads.build(name, seed, nproc)
    run = Run(work, nproc)
    try:
        if trace:
            metrics, extra = measure_layers(run, seconds)
        else:
            metrics, extra = measure(run, seconds, started)
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        run.problems.append(f"{type(exc).__name__}: {exc}")
        metrics, extra = {}, {}

    correct = not run.problems
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "provenance": provenance(work, nproc, run.gate.get("versions", {}), run.launcher),
        "extra": extra, "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{name}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {name} seed={seed} trace={trace} "
          f"nproc={nproc} threads={work['threads']} children={run.launcher.started}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<36} {value:>14.6g} {unit}")
    for key in ("error_rate", "children", "beyond_p75", "replicates", "piece_s_median",
                "setup_s_unscaled"):
        if key in extra:
            print(f"  {key:<36} {extra[key]:>14.6g}")
    if "probe" in extra:
        p = extra["probe"]
        print(f"  known-defect probe: rc={p['rc']} failed {p['failed']} of {p['attempted']} "
              f"replicates {p['stderr']}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": record["metrics"]}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    needed = [Path("src/tailtest/cli.py")] + [
        Path(workloads.dataset_path(name)) for name in workloads.DATASETS]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "driver.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("perfbench: another driver is running in this checkout", file=sys.stderr)
            return 2
        nproc = len(os.sched_getaffinity(0))
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        modes = (0, 1) if args.trace is None else (args.trace,)
        codes = [run_one(name, args.seed, args.seconds, mode, nproc)
                 for name in names for mode in modes]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
