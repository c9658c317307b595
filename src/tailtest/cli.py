"""Command-line interface: test datasets, run simulation plans, emit tables.

Exit codes for `test` and `bryson` encode the decision: 0 Medium, 2 Short,
3 Long; any error (bad usage, unreadable data, statistic undefined) exits 1.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
# argparse's gettext imports locale at the first parser build; load it with this module
import locale  # noqa: F401
import math
import sys
from contextlib import nullcontext

import numpy as np

from .base import DatasetError, TailClass, check_integer, float_label, listed, read_text
from .base import text_lines
from .blocking import SMALLMAX_POLICIES, blocked_test, shift_sample, tail_test
from .bryson import DEFAULT_PROBS, MIN_TABLE_REPS, bryson_test, simulate_bryson_quantiles
from .distributions import parse_spec
from .power import MIN_PLAN_REPS, PLAN_KEYS, emit_table, parse_plan_file, read_plans, run_plans
from .rng import SeedSpec

_EXIT_CODE = {TailClass.MEDIUM: 0, TailClass.SHORT: 2, TailClass.LONG: 3}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1, keeping 2 free for Short."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def read_dataset(path: str) -> tuple[np.ndarray, int]:
    """Read one value per line of the lines base.text_lines keeps.

    Returns (values, skipped line count). An unreadable file, or unparseable or
    non-finite lines, raise DatasetError naming the file or the line numbers.
    """
    values: list[float] = []
    bad: list[int] = []
    try:
        lines, skipped = text_lines(path)
    except ValueError as exc:
        raise DatasetError(f"cannot read {exc}") from exc
    for lineno, line in lines:
        try:
            value = float(line)
        except ValueError:
            bad.append(lineno)
            continue
        if not math.isfinite(value):
            bad.append(lineno)
            continue
        values.append(value)
    if bad:
        raise DatasetError(f"{path}: unusable value on line(s) {listed(bad)}")
    if not values:
        raise DatasetError(f"{path}: no data lines found")
    return np.array(values), skipped


def _print_result(rows, res) -> None:
    """Print the (key, text) rows and then the decision at its alpha, keys padded to one width."""
    rows.append(("decision", f"{res.decision} (alpha={float_label(res.alpha)})"))
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")


def _print_json(payload: dict) -> None:
    """One line of strict JSON with sorted keys: a non-finite float, in a tuple too, is null."""
    def strict(value):
        if isinstance(value, tuple):
            return [strict(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    print(json.dumps({key: strict(v) for key, v in payload.items()},
                     sort_keys=True, allow_nan=False))


def _text(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_text(v) for v in value)
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _cmd_test(args) -> int:
    SeedSpec(args.block_seed)  # at every --blocks: tail_test takes no seed
    values, skipped = read_dataset(args.path)
    if args.negate:
        values = -values
    if args.abs:
        values = np.abs(values)
    sample = shift_sample(values, args.shift)

    if args.blocks != 1:
        mode = "blocked"
        res = blocked_test(
            sample, args.blocks, args.alpha, strategy=args.block_strategy, seed=args.block_seed
        )
    else:
        mode = "plain"
        res = tail_test(sample, alpha=args.alpha)

    if args.json:
        _print_json({
            "command": "test",
            "path": args.path,
            "n": sample.n,  # the blocked result has no n
            "skipped_lines": skipped,
            "shift": sample.shift,
            "negate": args.negate,
            "abs": args.abs,
            "mode": mode,
            **res._asdict(),
        })
    else:
        rows = [("n", sample.n), ("shift", _text(sample.shift))]
        for key, value in res._asdict().items():
            if key == "t_stat":
                rows.append(("T", _text(value)))
                if res.tied_max:
                    rows.append(("warning", "top two order statistics tie; T forced to 0"))
            elif key not in ("n", "tied_max", "decision", "alpha"):
                rows.append((key, _text(value)))
        _print_result(rows, res)
    return _EXIT_CODE[res.decision]


def _cmd_simulate(args) -> int:
    given = {key: getattr(args, key) for key in PLAN_KEYS if getattr(args, key) is not None}
    if args.plan is not None and given:
        flags = "/".join("--" + key.replace("_", "-") for key in given)
        raise ValueError(f"--plan and {flags} are mutually exclusive")
    if args.plan is None and not {"dist", "n"} <= given.keys():
        raise ValueError("simulate needs either --plan FILE or both --dist and --n")
    plans = read_plans(given) if args.plan is None else parse_plan_file(args.plan)
    # the table's file is opened before the first replicate runs, as a redirection is
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        check_integer("threads", args.threads, 1)
        fh.write(emit_table(run_plans(plans), args.format))
    return 0


def _cmd_bryson(args) -> int:
    values, skipped = read_dataset(args.path)
    sample = shift_sample(values, None)
    res = bryson_test(sample, alpha=args.alpha, reps=args.reps, seed=args.seed)
    if args.json:
        _print_json({"command": "bryson", "path": args.path, "skipped_lines": skipped,
                     **res._asdict()})
    else:
        rows = []
        for key, value in res._asdict().items():
            if key == "null_dist":
                rows.append(("null", f"{value} ({res.reps} reps, seed {res.seed})"))
            elif key not in ("reps", "seed", "decision", "alpha"):
                rows.append((key, _text(value)))
        _print_result(rows, res)
    return _EXIT_CODE[res.decision]


def _cmd_bryson_quantiles(args) -> int:
    table = simulate_bryson_quantiles(
        parse_spec(args.dist), args.n, reps=args.reps, seed=args.seed, probs=args.probs
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["dist", "n", "reps", "seed", "prob", "quantile", "stderr"])
    for prob, q, err in zip(table.probs, table.quantiles, table.stderrs):
        writer.writerow([table.dist, table.n, table.reps, table.seed, float_label(prob),
                         f"{q:.6f}", f"{err:.6f}"])
    return 0


def _shift(text: str):
    """None for 'none', "min" for 'min' (in any case, spaces stripped), else a float."""
    word = text.strip().lower()
    return {"none": None, "min": "min"}[word] if word in ("none", "min") else float(text)


def _probs(text: str) -> tuple:
    return tuple(map(float, text.split(",")))


def _test_options(p_test: _Parser) -> None:
    p_test.add_argument("path")
    p_test.add_argument("--alpha", default="0.05")
    p_test.add_argument(
        "--shift",
        default="none",
        help="'none', 'min' (subtract the smallest value), or a number to subtract",
    )
    p_test.add_argument("--blocks", default="1", metavar="K")
    p_test.add_argument(
        "--block-strategy", choices=("shuffle", "sequential"), default="shuffle"
    )
    p_test.add_argument("--block-seed", default="0")
    p_test.add_argument("--negate", action="store_true", help="test the left tail via -X")
    p_test.add_argument("--abs", action="store_true", help="test |X| (after any --negate)")
    p_test.add_argument("--json", action="store_true")
    p_test.set_defaults(func=_cmd_test, read={"alpha": float, "shift": _shift, "blocks": int,
                                              "block_seed": int})


def _simulate_options(p_sim: _Parser) -> None:
    p_sim.add_argument("--plan", help="plan file of key=value lines")
    p_sim.add_argument("--dist", help="distribution, e.g. exp:1, pareto:2, weibull:0.5")
    p_sim.add_argument("--n", help="comma-separated sample sizes")
    # read as a plan file's keys are (power.read_plans); unset ones take the plan's defaults
    p_sim.add_argument("--k", help="comma-separated block counts, one table each")
    p_sim.add_argument("--alpha")
    p_sim.add_argument("--reps", help=f"replicates per sample size, at least {MIN_PLAN_REPS}")
    p_sim.add_argument("--seed")
    p_sim.add_argument("--smallmax-policy", help="one of " + ", ".join(SMALLMAX_POLICIES))
    p_sim.add_argument("--threads", default="1", help="must be >= 1; has no effect")
    p_sim.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    p_sim.add_argument("--out", help="write the table here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate, read={"threads": int})


def _bryson_options(p_bry: _Parser) -> None:
    p_bry.add_argument("path")
    p_bry.add_argument("--alpha", default="0.05")
    p_bry.add_argument("--reps", default="10000", help=f"replicates, at least {MIN_TABLE_REPS}")
    p_bry.add_argument("--seed", default="0")
    p_bry.add_argument("--json", action="store_true")
    p_bry.set_defaults(func=_cmd_bryson, read={"alpha": float, "reps": int, "seed": int})


def _bryson_quantiles_options(p_bq: _Parser) -> None:
    p_bq.add_argument("--dist", required=True)
    p_bq.add_argument("--n", required=True)
    p_bq.add_argument("--reps", default="10000", help=f"replicates, at least {MIN_TABLE_REPS}")
    p_bq.add_argument("--seed", default="0")
    p_bq.add_argument("--probs", default=",".join(map(float_label, DEFAULT_PROBS)))
    p_bq.set_defaults(func=_cmd_bryson_quantiles,
                      read={"n": int, "reps": int, "seed": int, "probs": _probs})


# each command's help line in the command index, and the function that adds its options
_COMMANDS = {
    "test": ("classify the tail of a dataset file", _test_options),
    "simulate": ("run a Monte Carlo rejection-rate plan", _simulate_options),
    "bryson": ("Bryson T* with a simulated exponential null", _bryson_options),
    "bryson-quantiles": ("simulate a T* quantile table for one law", _bryson_quantiles_options),
}


@functools.cache
def command_parser(name: str) -> _Parser:
    """The parser of command `name`'s arguments, the only parser that holds its options:
    the one parser main builds for a command line it runs."""
    _, add_options = _COMMANDS[name]
    parser = _Parser(prog=f"tailtest {name}")
    add_options(parser)
    return parser


@functools.cache
def build_parser() -> _Parser:
    """The command index, each command a subparser of its help line alone: it words the
    top-level help, a line that names no command first, and arguments left over."""
    parser = _Parser(prog="tailtest", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    """Run a line that starts with its command, read by that command's parser alone."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:  # the index prints its help or refuses, and exits
        build_parser().parse_args(argv[:1])
    args, extra = command_parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        for name, read in args.read.items():  # each command's option texts, by their readers
            setattr(args, name, read_text(name, getattr(args, name), read))
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"tailtest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
