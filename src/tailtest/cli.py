"""Command-line interface: test datasets, run simulation plans, emit tables.

Exit codes for `test` and `bryson` encode the decision: 0 Medium, 2 Short,
3 Long; any error (bad usage, unreadable data, statistic undefined) exits 1.
"""
from __future__ import annotations

import argparse
import csv
import json
# argparse's gettext imports locale at the first parser build; load it with this module
import locale  # noqa: F401
import math
import sys

import numpy as np

from .base import DatasetError, TailClass
from .blocking import blocked_test
from .bryson import bryson_test, simulate_bryson_quantiles
from .distributions import parse_spec
from .power import SMALLMAX_POLICIES, SimulationPlan, emit_table, parse_plan_file, run_plan
from .tail_test import shift_sample, tail_test

_EXIT_CODE = {TailClass.MEDIUM: 0, TailClass.SHORT: 2, TailClass.LONG: 3}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1, keeping 2 free for Short."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def read_dataset(path: str) -> tuple[np.ndarray, int]:
    """Read one value per line; blank lines and #-comments are skipped.

    Returns (values, skipped line count). Unparseable or non-finite lines
    raise DatasetError naming the line numbers.
    """
    values: list[float] = []
    bad: list[int] = []
    skipped = 0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            skipped += 1
            continue
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
        shown = ", ".join(str(b) for b in bad[:10])
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise DatasetError(f"{path}: unusable value on line(s) {shown}{more}")
    if not values:
        raise DatasetError(f"{path}: no data lines found")
    return np.array(values), skipped


def _parse_shift(text: str):
    lowered = text.strip().lower()
    if lowered in ("none", "min"):
        return None if lowered == "none" else "min"
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--shift must be 'none', 'min', or a number, got {text!r}") from None


def _preprocess(values: np.ndarray, negate: bool, use_abs: bool) -> np.ndarray:
    if negate:
        values = -values
    if use_abs:
        values = np.abs(values)
    return values


def _print_kv(pairs) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(value) -> str:
    if isinstance(value, list):
        return " ".join(_text(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


def _cmd_test(args) -> int:
    values, skipped = read_dataset(args.path)
    values = _preprocess(values, args.negate, args.abs)
    sample = shift_sample(values, _parse_shift(args.shift))

    if args.blocks != 1:
        res = blocked_test(
            sample,
            args.blocks,
            alpha=args.alpha,
            strategy=args.block_strategy,
            seed=args.block_seed,
        )
        fields = {
            "mode": "blocked",
            "k": res.k,
            "block_sizes": list(res.block_sizes),
            "block_stats": list(res.block_stats),
            "sum_stat": res.sum_stat,
            "lower_crit": res.lower_crit,
            "upper_crit": res.upper_crit,
        }
    else:
        res = tail_test(sample, alpha=args.alpha)
        fields = {
            "mode": "plain",
            "t_stat": res.t_stat,
            "theta_hat": res.theta_hat,
            "spacing": res.spacing,
            "surv_at_log_max": res.surv_at_log_max,
            "tied_max": res.tied_max,
        }
    fields.update(p_short=res.p_short, p_long=res.p_long)

    if args.json:
        payload = {
            "command": "test",
            "path": args.path,
            "n": sample.n,
            "skipped_lines": skipped,
            "shift": sample.shift,
            "negate": bool(args.negate),
            "abs": bool(args.abs),
            "alpha": args.alpha,
            "decision": str(res.decision),
            **fields,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        rows = [("n", sample.n), ("shift", _fmt(sample.shift))]
        for key, value in fields.items():
            if key in ("mode", "tied_max"):
                continue
            rows.append(("T" if key == "t_stat" else key, _text(value)))
            if key == "t_stat" and res.tied_max:
                rows.append(("warning", "top two order statistics tie; T forced to 0"))
        rows.append(("decision", f"{res.decision} (alpha={args.alpha:g})"))
        _print_kv(rows)
    return _EXIT_CODE[res.decision]


def _cmd_simulate(args) -> int:
    if args.plan:
        if args.dist or args.n:
            raise ValueError("--plan and --dist/--n are mutually exclusive")
        plan = parse_plan_file(args.plan)
    else:
        if not args.dist or not args.n:
            raise ValueError("simulate needs either --plan FILE or both --dist and --n")
        plan = SimulationPlan(
            spec=parse_spec(args.dist),
            n_grid=tuple(int(tok) for tok in args.n.split(",")),
            k_blocks=args.k,
            alpha=args.alpha,
            reps=args.reps,
            base_seed=args.seed,
            smallmax_policy=args.smallmax_policy,
            strategy=args.strategy,
        )
    report = run_plan(plan, threads=args.threads)
    text = emit_table(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bryson(args) -> int:
    values, skipped = read_dataset(args.path)
    sample = shift_sample(values, None)
    res = bryson_test(sample, alpha=args.alpha, reps=args.reps, seed=args.seed)
    if args.json:
        payload = {
            "command": "bryson",
            "path": args.path,
            "n": res.n,
            "skipped_lines": skipped,
            "alpha": res.alpha,
            "t_star": res.t_star,
            "lower_crit": res.lower_crit,
            "upper_crit": res.upper_crit,
            "null_dist": res.table.dist,
            "reps": res.table.reps,
            "seed": res.table.seed,
            "decision": str(res.decision),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_kv(
            [
                ("n", res.n),
                ("t_star", _fmt(res.t_star)),
                ("null", f"{res.table.dist} ({res.table.reps} reps, seed {res.table.seed})"),
                ("lower_crit", _fmt(res.lower_crit)),
                ("upper_crit", _fmt(res.upper_crit)),
                ("decision", f"{res.decision} (alpha={res.alpha:g})"),
            ]
        )
    return _EXIT_CODE[res.decision]


def _cmd_bryson_quantiles(args) -> int:
    probs = tuple(float(tok) for tok in args.probs.split(","))
    table = simulate_bryson_quantiles(
        parse_spec(args.dist), args.n, reps=args.reps, seed=args.seed, probs=probs
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["dist", "n", "reps", "seed", "prob", "quantile", "stderr"])
    for prob, q, err in zip(table.probs, table.quantiles, table.stderrs):
        writer.writerow(
            [table.dist, table.n, table.reps, table.seed, f"{prob:g}", f"{q:.6f}", f"{err:.6f}"]
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tailtest", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_test = sub.add_parser("test", help="classify the tail of a dataset file")
    p_test.add_argument("path")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument(
        "--shift",
        default="none",
        help="'none', 'min' (subtract the smallest value), or a number to subtract",
    )
    p_test.add_argument("--blocks", type=int, default=1, metavar="K")
    p_test.add_argument(
        "--block-strategy", choices=("shuffle", "sequential"), default="shuffle"
    )
    p_test.add_argument("--block-seed", type=int, default=0)
    p_test.add_argument("--negate", action="store_true", help="test the left tail via -X")
    p_test.add_argument("--abs", action="store_true", help="test |X| (after any --negate)")
    p_test.add_argument("--json", action="store_true")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo rejection-rate plan")
    p_sim.add_argument("--plan", help="plan file of key=value lines")
    p_sim.add_argument("--dist", help="distribution, e.g. exp:1, pareto:2, weibull:0.5")
    p_sim.add_argument("--n", help="comma-separated sample sizes")
    p_sim.add_argument("--k", type=int, default=1)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--reps", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--smallmax-policy", choices=SMALLMAX_POLICIES, default="raw")
    p_sim.add_argument("--strategy", choices=("sequential", "shuffle"), default="sequential")
    p_sim.add_argument(
        "--threads",
        type=int,
        default=1,
        help="must be >= 1; replicates run in one thread and the output never "
        "depends on this value",
    )
    p_sim.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    p_sim.add_argument("--out", help="write the table here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bry = sub.add_parser("bryson", help="Bryson T* with a simulated exponential null")
    p_bry.add_argument("path")
    p_bry.add_argument("--alpha", type=float, default=0.05)
    p_bry.add_argument("--reps", type=int, default=10_000)
    p_bry.add_argument("--seed", type=int, default=0)
    p_bry.add_argument("--json", action="store_true")
    p_bry.set_defaults(func=_cmd_bryson)

    p_bq = sub.add_parser(
        "bryson-quantiles", help="simulate a T* quantile table for one law"
    )
    p_bq.add_argument("--dist", required=True)
    p_bq.add_argument("--n", type=int, required=True)
    p_bq.add_argument("--reps", type=int, default=10_000)
    p_bq.add_argument("--seed", type=int, default=0)
    p_bq.add_argument("--probs", default="0.025,0.05,0.95,0.975")
    p_bq.set_defaults(func=_cmd_bryson_quantiles)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"tailtest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
