"""One child of the timed loop: import `tailtest.cli`, then run CLI commands.

Reads a JSON list of argument lists on standard input. The import is timed
first, before anything else is imported, so it costs what it costs a fresh
`tailtest` process. Each command then runs in-process through
`tailtest.cli.main`, as the console script does, with its output captured.
Before and after the commands it times a fixed calibration piece (see
`calibrate`). Prints one JSON report on standard output.

Run from the repository root with `PYTHONPATH=src`.
"""
import sys
import time

_T0 = time.perf_counter()
from tailtest.cli import main  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by tailtest)

CALIBRATION_PIECES = 5


def calibrate() -> list[float]:
    """How fast this machine is right now: the seconds each of a few pieces takes.

    A piece is fixed work of three kinds: interpreted Python, a large numpy
    sort, and many small numpy calls (building a Philox generator and sorting
    100 of its draws), which is what per-replicate Monte Carlo work is made
    of. The piece is part of the benchmark, so it is the same code before and
    after any change to tailtest, and its time tracks the speed the host gives
    this process.
    """
    data = np.random.default_rng(0).random(20_000)
    times = []
    for _ in range(CALIBRATION_PIECES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        np.sort(data)
        for i in range(100):
            key = np.array([1, i], dtype=np.uint64)
            np.sort(np.random.Generator(np.random.Philox(key=key)).random(100))
        times.append(time.perf_counter() - t0)
    return times


def run(commands):
    calls = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            elapsed = time.perf_counter() - t0
        calls.append({"rc": rc, "s": elapsed, "out": out.getvalue(), "err": err.getvalue()})
    return calls


if __name__ == "__main__":
    commands = json.load(sys.stdin)
    before = calibrate()
    report = {"import_s": _IMPORT_S, "calls": run(commands)}
    after = calibrate()
    report["piece_s"] = statistics.median(before + after)
    report["calibration_s"] = sum(before + after)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(report, sys.stdout)
