"""Checks on the outputs of the timed children, and their failure counts.

Pure Python, so the driver can run them without importing numpy or tailtest.
A check failure fails the run; a failed operation is counted.
"""
from __future__ import annotations

import csv
import io
import json
import math

import workloads

EXIT_CODE = {"Medium": 0, "Short": 2, "Long": 3}
NULL_LAW = "exp:1"
Z_LIMIT = 5.0


def check_command(work: dict, gate: dict, i: int, j: int, argv: list[str], call: dict):
    """Check command `j` of child `i`: (operations attempted, operations failed, problems)."""
    attempted = workloads.command_reps(argv)
    expected = gate["expected"].get("child0")
    if i == 0 and expected is not None and [call["rc"], call["out"]] != list(expected[j]):
        return attempted, attempted, [f"child 0 command {j}: output differs from in-process main"]
    if argv[0] == "test":
        return _check_test(work, gate, i, call)
    if call["rc"] not in (EXIT_CODE.values() if argv[0] == "bryson" else (0,)):
        # The command aborted: every replicate it attempted is lost.
        return attempted, attempted, []
    if argv[0] == "simulate":
        return _check_simulate(work, call["out"], attempted)
    if argv[0] == "bryson-quantiles":
        return attempted, 0, _check_bryson_quantiles(argv, call["out"])
    return attempted, 0, _check_bryson(gate, call)


def _check_test(work, gate, i, call):
    config = (work["offset"] + i) % len(work["configs"])
    want = gate["expected"][str(config)]
    try:
        got = json.loads(call["out"])
    except ValueError:
        return 1, 1, [f"test child {i}: no JSON output (rc={call['rc']}): {call['err'][-300:]}"]
    stat = got.get("t_stat", got.get("sum_stat"))
    if got["decision"] != want["decision"] or stat != want["stat"]:
        return 1, 1, [f"test child {i}: decision {got['decision']} T={stat}, "
                      f"in-process {want['decision']} T={want['stat']}"]
    if call["rc"] != EXIT_CODE[want["decision"]]:
        return 1, 1, [f"test child {i}: exit code {call['rc']} for {want['decision']}"]
    return 1, 0, []


def _check_simulate(work, out, attempted):
    problems, failed = [], 0
    for report in json.loads(out)["reports"]:
        reps = report["reps"]
        for row in report["rows"]:
            counts = (row["short_count"], row["medium_count"], row["long_count"],
                      row["error_count"])
            failed += row["error_count"]
            if sum(counts) != reps or min(counts) < 0:
                problems.append(f"{report['dist']} n={row['n']}: counts {counts} != reps {reps}")
            if report["dist"] == NULL_LAW:
                stderr = math.sqrt(work["alpha"] * (1.0 - work["alpha"]) / reps)
                for key in ("short_rate", "long_rate"):
                    if abs(row[key] - work["alpha"]) > Z_LIMIT * stderr:
                        problems.append(f"{NULL_LAW} n={row['n']} k={report['k']}: "
                                        f"{key} {row[key]:.4f} outside alpha +- 5 stderr")
    return attempted, failed, problems


def _check_bryson_quantiles(argv, out):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["dist", "n", "reps", "seed", "prob", "quantile", "stderr"] or len(rows) != 5:
        return [f"bryson-quantiles: unexpected table {rows}"]
    quantiles = [float(r[5]) for r in rows[1:]]
    if [r[4] for r in rows[1:]] != ["0.025", "0.05", "0.95", "0.975"] or quantiles != sorted(quantiles):
        return [f"bryson-quantiles: bad probabilities or unordered quantiles {rows[1:]}"]
    if rows[1][2] != argv[argv.index("--reps") + 1] or rows[1][3] != argv[argv.index("--seed") + 1]:
        return [f"bryson-quantiles: reps or seed do not echo the command {rows[1]}"]
    return []


def _check_bryson(gate, call):
    got = json.loads(call["out"])
    t = got["t_star"]
    decision = "Short" if t < got["lower_crit"] else "Long" if t > got["upper_crit"] else "Medium"
    problems = []
    if t != gate["expected"]["t_star"]:
        problems.append(f"bryson: T*={t}, in-process {gate['expected']['t_star']}")
    if got["decision"] != decision or call["rc"] != EXIT_CODE[decision]:
        problems.append(f"bryson: decision {got['decision']} rc={call['rc']} for T*={t} "
                        f"in [{got['lower_crit']}, {got['upper_crit']}]")
    return problems
