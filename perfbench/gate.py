"""Gate child: in-process correctness checks and the expected CLI outputs.

Reads a workload (see workloads.py) on standard input and prints one JSON
report: the checks it made, the outputs the timed children must reproduce,
and the library versions. It calls only the public functions of tailtest.

Run from the repository root with `PYTHONPATH=src`.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import numpy as np
import scipy

import tailtest
from tailtest import (
    SeedSpec,
    SimulationPlan,
    blocked_test,
    bryson_statistic,
    emit_table,
    make_stream,
    parse_spec,
    run_plan,
    sample,
    shift_sample,
    simulate_bryson_quantiles,
    tail_test,
)
from tailtest.bryson import DEFAULT_PROBS
from tailtest.cli import main, read_dataset
from tailtest.power import CSV_HEADER

import workloads


def captured_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def dataset_result(config: dict, alpha: float, block_seed: int) -> dict:
    """What `tailtest test` must decide on one configuration, computed in-process."""
    values, _ = read_dataset(workloads.dataset_path(config["file"]))
    s = shift_sample(values, None if config["shift"] == "none" else config["shift"])
    if config["blocks"] == 1:
        res = tail_test(s, alpha)
        return {"decision": str(res.decision), "stat": res.t_stat}
    res = blocked_test(s, config["blocks"], alpha, strategy="shuffle", seed=block_seed)
    return {"decision": str(res.decision), "stat": res.sum_stat}


def replay_outcome(values, k: int, alpha: float) -> str:
    """One replicate's class through the public single-sample tests."""
    try:
        if k == 1:
            return str(tail_test(values, alpha).decision)
        return str(blocked_test(values, k, alpha, strategy="sequential").decision)
    except ValueError:
        return "error"


def check_replay_plan(work: dict, checks: list) -> None:
    """The first R replicates through the public functions give run_plan's counts."""
    row = work["replay"]
    spec = parse_spec(row["dist"])
    counts = {"Short": 0, "Medium": 0, "Long": 0, "error": 0}
    for r in range(row["reps"]):
        values = sample(spec, row["n"], make_stream(SeedSpec(work["base_seed"], r)))
        counts[replay_outcome(values, row["k"], work["alpha"])] += 1
    plan = SimulationPlan(spec=spec, n_grid=(row["n"],), k_blocks=row["k"], alpha=work["alpha"],
                          reps=row["reps"], base_seed=work["base_seed"])
    report = run_plan(plan, threads=1)
    got = report.rows[0]
    engine = {"Short": got.short_count, "Medium": got.medium_count, "Long": got.long_count,
              "error": got.error_count}
    checks.append(("replay_counts_equal_run_plan", counts == engine,
                   f"{row} replay={counts} run_plan={engine}"))

    threaded = run_plan(plan, threads=work["threads"])
    checks.append(("run_plan_thread_invariant", threaded.rows == report.rows,
                   f"threads={work['threads']}"))

    lines = emit_table(report, "csv").splitlines()
    ok = lines[0] == CSV_HEADER and len(lines) == 1 + len(report.rows)
    for line, rr in zip(lines[1:], report.rows):
        f = line.split(",")
        ok &= rr.short_count + rr.medium_count + rr.long_count + rr.error_count == rr.reps
        ok &= f[4] == f"{rr.short_count / rr.reps:.6f}" and f[5] == f"{rr.long_count / rr.reps:.6f}"
        ok &= int(f[8]) == rr.error_count
    checks.append(("csv_rows_match_counts", ok, "\n".join(lines)))


def check_replay_bryson(work: dict, checks: list) -> None:
    """bryson_statistic on R replicates gives simulate_bryson_quantiles' quantiles."""
    row = work["replay"]
    spec = parse_spec(row["dist"])
    stats = np.array([
        bryson_statistic(sample(spec, row["n"], make_stream(SeedSpec(work["base_seed"], r))))
        for r in range(row["reps"])
    ])
    replay = tuple(float(q) for q in np.quantile(stats, DEFAULT_PROBS, method="linear"))
    table = simulate_bryson_quantiles(spec, row["n"], reps=row["reps"], seed=work["base_seed"])
    checks.append(("bryson_replay_equals_table", replay == table.quantiles,
                   f"replay={replay} table={table.quantiles}"))


def choose_block_seed(work: dict, checks: list) -> tuple[int | None, dict]:
    """First candidate block seed under which every configuration is testable.

    A block whose maximum is not above 1 makes the blocked test refuse the
    sample by design; such a block seed is skipped, not counted as a failure.
    """
    for block_seed in work["block_seed_candidates"]:
        try:
            expected = {
                str(j): dataset_result(c, work["alpha"], block_seed)
                for j, c in enumerate(work["configs"])
            }
        except ValueError:
            continue
        checks.append(("block_seed_found", True, str(block_seed)))
        return block_seed, expected
    checks.append(("block_seed_found", False, "no candidate block seed is testable"))
    return None, {}


def gate(work: dict) -> dict:
    checks: list = []
    block_seed, expected = None, {}
    name = work["name"]
    if name == "cli_test":
        block_seed, expected = choose_block_seed(work, checks)
    elif name == "bryson_table":
        check_replay_bryson(work, checks)
        values, _ = read_dataset(workloads.dataset_path(work["dataset"]))
        expected["t_star"] = bryson_statistic(shift_sample(values))
    else:
        check_replay_plan(work, checks)
    if block_seed is not None or name != "cli_test":
        expected["child0"] = [captured_main(a) for a in workloads.commands(work, 0, block_seed)]
    return {
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "block_seed": block_seed,
        "expected": expected,
        "versions": {"tailtest": tailtest.__version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    json.dump(gate(json.load(sys.stdin)), sys.stdout)
