"""Frozen CLI outputs: `simulate`, `test`, `bryson` and `bryson-quantiles`.

The files under tests/golden/ hold what the CLI printed, byte for byte, and
the exit code it returned, for a fixed set of commands. A refactor that
changes any emitted byte or decision fails here. After a deliberate change
of output, rewrite the files from the repository root with

    PYTHONPATH=src python -m tests.test_golden [FILE ...]

where each FILE is a name under tests/golden/ (all of them when none is
given), and review the diff.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from tailtest.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# One parameter setting per catalogue family. pareto:0.01 is left out: its
# draws overflow to inf, which is a known open defect, not frozen behaviour.
FAMILY_SPECS = (
    "exp:1", "logistic", "gamma:2", "uniform", "normal", "lognormal",
    "gumbel", "cauchy", "t:3", "pareto:1", "weibull:2", "loggamma:0.5,1",
)


def simulate_commands():
    # n=101 is divisible by neither 5 nor 25, so blocks differ in size by one. The wide,
    # unsorted grid scores n = 100 and 250 on prefixes of the n = 1000 draws; 300
    # replicates leave the last chunk of every n partial, and JSON keeps the errors by reason
    return [
        ["simulate", "--dist", dist, "--n", "75,101", "--k", str(k),
         "--smallmax-policy", policy, "--reps", "100", "--seed", "11"]
        for policy in ("error", "short", "raw")
        for k in (1, 5, 25)
        for dist in FAMILY_SPECS
    ] + [
        ["simulate", "--dist", dist, "--n", "1000,100,250", "--k", str(k),
         "--smallmax-policy", policy, "--reps", "300", "--seed", "5", "--format", "json"]
        for dist in ("uniform", "exp:1")
        for policy in ("error", "short")
        for k in (1, 5)
    ]


def blocked_simulate_commands():
    # the blocked rate-table shape the benchmark times; 5003 is divisible by
    # neither 10 nor 25, so blocks differ in size by one
    return [
        ["simulate", "--dist", "exp:1", "--n", "5000,5003", "--k", str(k),
         "--reps", "200", "--format", "json"]
        for k in (10, 25)
    ]


def k_list_commands():
    # blocked_simulate_commands' table at both k in one pass, one report per k
    return [
        ["simulate", "--dist", "exp:1", "--n", "5000,5003", "--k", "10,25",
         "--reps", "200", "--format", fmt]
        for fmt in ("csv", "json", "md")
    ]


# the catalogue laws on [0, inf), the only ones T* accepts
NONNEGATIVE_SPECS = (
    "exp:1", "gamma:2", "uniform", "lognormal", "pareto:1", "weibull:2", "loggamma:0.5,1",
)


def bryson_commands():
    # 1001 replicates leave the last scoring chunk partial at every n here
    tables = [
        ["bryson-quantiles", "--dist", dist, "--n", str(n), "--reps", "1001", "--seed", "3"]
        for n in (2, 64, 129, 3000)
        for dist in NONNEGATIVE_SPECS
    ]
    tests = [
        ["bryson", f"data/synthetic/{name}.txt", "--reps", "1000", "--seed", "4"] + fmt
        for name in ("claims", "discharge", "fibers")
        for fmt in ([], ["--json"])
    ]
    return tables + tests


def decision_commands():
    commands = []
    for name in ("claims", "discharge", "fibers"):
        for blocks in ([], ["--blocks", "5"]):
            for shift in ([], ["--shift", "min"]):
                for fmt in ([], ["--json"]):
                    commands.append(
                        ["test", f"data/synthetic/{name}.txt"] + blocks + shift + fmt
                    )
    return commands


def run_all(commands):
    """Run each command through the CLI from the repository root."""
    records = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            records.append(
                {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            )
    finally:
        os.chdir(cwd)
    return records


CASES = {
    "bryson.json": bryson_commands,
    "simulate.json": simulate_commands,
    "simulate_blocked.json": blocked_simulate_commands,
    "simulate_k_list.json": k_list_commands,
    "test_command.json": decision_commands,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name):
    expected = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    got = run_all(CASES[name]())
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert g == e, f"output of {' '.join(g['argv'])} changed"


def test_k_list_json_holds_each_k_alone():
    # the reports of the k list's frozen JSON are those frozen for each k alone
    def reports(name, fmt):
        records = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        return [report for record in records if record["argv"][-1] == fmt
                for report in json.loads(record["stdout"])["reports"]]

    assert reports("simulate_k_list.json", "json") == reports("simulate_blocked.json", "json")


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden file(s) {', '.join(unknown)}; "
                 f"choose from {', '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        text = json.dumps(run_all(CASES[name]()), indent=1) + "\n"
        (GOLDEN / name).write_text(text, encoding="utf-8")
