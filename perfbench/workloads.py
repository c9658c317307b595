"""The four benchmark workloads, built from a seed.

Every workload is a closed loop with one client: the driver starts the next
child process only after the previous one has exited. A child imports
`tailtest.cli` (timed) and then runs the CLI commands of one operation
in-process through `tailtest.cli.main`, which is what the `tailtest` console
script does.

A workload is plain data (JSON-serialisable), so the driver can hand it to
the gate and trace children on their standard input.
"""
from __future__ import annotations

import random

DATA_DIR = "data/synthetic"
DATASETS = ("claims", "discharge", "fibers")
ALPHA = 0.05
NAMES = ("cli_test", "mc_plain", "mc_blocked", "bryson_table")

# Replicates per simulate/bryson command. A child must stay near half a
# second so that one run holds at least MIN_CHILDREN of them.
PLAIN_REPS = 400
BLOCKED_REPS = 200
BRYSON_REPS = 1500

# p75 needs at least ten samples beyond it.
MIN_CHILDREN = 40

# The known defect (a draw that overflows to inf aborts the whole plan). It is
# run once per mc_plain run and reported, but kept out of the timed loop.
PROBE_ARGV = ["simulate", "--dist", "pareto:0.01", "--n", "100", "--reps", "100"]

# Layers a workload's own commands never reach are timed on these small
# reference inputs, so that every traced run reports every layer.
REFERENCE_CONFIGS = [
    {"file": f, "blocks": b, "shift": "none"} for f in DATASETS for b in (1, 5)
]
REFERENCE_ROWS = [
    {"dist": "exp:1", "n": 250, "k": 1, "reps": 400},
    {"dist": "exp:1", "n": 5000, "k": 10, "reps": 100},
]
REFERENCE_BRYSON = [{"dist": "exp:1", "n": 100, "reps": 1000}]


def dataset_path(name: str) -> str:
    return f"{DATA_DIR}/{name}.txt"


def test_argv(config: dict, block_seed: int) -> list[str]:
    """`tailtest test` arguments for one dataset configuration."""
    argv = ["test", dataset_path(config["file"]), "--json", "--block-seed", str(block_seed)]
    if config["blocks"] != 1:
        argv += ["--blocks", str(config["blocks"])]
    if config["shift"] != "none":
        argv += ["--shift", config["shift"]]
    return argv


def build(name: str, seed: int, nproc: int) -> dict:
    """The workload `name` for `seed`, with every parameter it runs with."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rnd = random.Random(f"{name}:{seed}")
    base_seed = rnd.randrange(2**32)
    work = {"name": name, "seed": seed, "base_seed": base_seed, "alpha": ALPHA, "threads": 1}

    if name == "cli_test":
        configs = [
            {"file": f, "blocks": b, "shift": s}
            for f in DATASETS
            for b in (1, 5)
            for s in ("none", "min")
        ]
        work.update(
            configs=configs,
            # The first block seed in this sequence under which every blocked
            # configuration is testable is chosen by the gate child.
            block_seed_candidates=[rnd.randrange(2**32) for _ in range(16)],
            offset=rnd.randrange(len(configs)),
            trace={"configs": configs, "rows": REFERENCE_ROWS, "bryson": REFERENCE_BRYSON,
                   "own": "datasets"},
        )
    elif name == "mc_plain":
        laws = ("exp:1", "weibull:2", "pareto:1")
        rows = [{"dist": d, "n": n, "k": 1, "reps": 500} for d in laws for n in (250, 1000)]
        work.update(
            laws=list(laws),
            n_grid=[250, 1000],
            reps=PLAIN_REPS,
            replay={"dist": "exp:1", "n": 250, "k": 1, "reps": 1000},
            probe=PROBE_ARGV + ["--seed", str(base_seed)],
            trace={"configs": REFERENCE_CONFIGS, "rows": rows, "bryson": REFERENCE_BRYSON,
                   "own": "rows"},
        )
    elif name == "mc_blocked":
        rows = [{"dist": "exp:1", "n": 5000, "k": k, "reps": 200} for k in (10, 25)]
        work.update(
            dist="exp:1",
            n=5000,
            ks=[10, 25],
            reps=BLOCKED_REPS,
            threads=nproc,
            replay={"dist": "exp:1", "n": 5000, "k": 10, "reps": 200},
            trace={"configs": REFERENCE_CONFIGS, "rows": rows, "bryson": REFERENCE_BRYSON,
                   "own": "rows"},
        )
    else:  # bryson_table
        work.update(
            dist="exp:1",
            n=100,
            reps=BRYSON_REPS,
            dataset="fibers",
            replay={"dist": "exp:1", "n": 100, "reps": 1000},
            trace={
                "configs": REFERENCE_CONFIGS,
                "rows": REFERENCE_ROWS,
                "bryson": [{"dist": "exp:1", "n": 100, "reps": 1500},
                           {"dist": "exp:1", "n": 64, "reps": 1500}],
                "own": "bryson",
            },
        )
    if work["threads"] > nproc:
        raise RuntimeError(f"{name}: {work['threads']} threads exceed nproc={nproc}")
    return work


def commands(work: dict, i: int, block_seed: int | None = None) -> list[list[str]]:
    """The CLI commands child `i` of the timed loop runs, in order."""
    name = work["name"]
    if name == "cli_test":
        configs = work["configs"]
        return [test_argv(configs[(work["offset"] + i) % len(configs)], block_seed)]
    seed = str(work["base_seed"] + i)
    if name == "mc_plain":
        return [
            ["simulate", "--dist", law, "--n", ",".join(map(str, work["n_grid"])),
             "--k", "1", "--reps", str(work["reps"]), "--seed", seed,
             "--threads", str(work["threads"]), "--format", "json"]
            for law in work["laws"]
        ]
    if name == "mc_blocked":
        return [
            ["simulate", "--dist", work["dist"], "--n", str(work["n"]), "--k", str(k),
             "--reps", str(work["reps"]), "--seed", seed,
             "--threads", str(work["threads"]), "--format", "json"]
            for k in work["ks"]
        ]
    reps = str(work["reps"])
    return [
        ["bryson-quantiles", "--dist", work["dist"], "--n", str(work["n"]),
         "--reps", reps, "--seed", seed],
        ["bryson", dataset_path(work["dataset"]), "--reps", reps, "--seed", seed, "--json"],
    ]


def command_reps(argv: list[str]) -> int:
    """Operations one command attempts: its replicates, or 1 for `test`."""
    if argv[0] == "test":
        return 1
    reps = int(argv[argv.index("--reps") + 1])
    if argv[0] == "simulate":
        return reps * len(argv[argv.index("--n") + 1].split(","))
    return reps


def command_threads(argv: list[str]) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
