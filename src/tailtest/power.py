"""Monte Carlo engine: rejection-rate tables for the plain and blocked tail test.

Each replicate draws its own stream keyed by (base_seed, replicate index), so
results are identical no matter how many threads run the plan or in what
order replicates finish.
"""
from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .base import TailClass, decide
from .blocking import block_sizes
from .distributions import (
    DistributionSpec,
    format_spec,
    parse_spec,
    sample as draw_sample,
    tail_class,
)
from .rng import SeedSpec, erlang_criticals, make_stream

SMALLMAX_POLICIES = ("error", "short", "raw")
_MAX_ERROR_NOTES = 10


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate: a law, a grid of sample sizes, and test settings.

    smallmax_policy says what to do with a replicate whose (block) maximum is
    not above 1: 'error' tallies it as an aborted replicate, 'short' classifies
    the replicate Short outright, and 'raw' (default) evaluates the statistic
    formula as written, negative log-maximum and all, which drives such
    replicates to Short unless the maximum is <= 0.
    """

    spec: DistributionSpec
    n_grid: tuple[int, ...]
    k_blocks: int = 1
    alpha: float = 0.05
    reps: int = 10_000
    base_seed: int = 0
    smallmax_policy: str = "raw"
    strategy: str = "sequential"  # how simulated draws are split into blocks

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not self.n_grid:
            raise ValueError("n_grid is empty")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if self.reps < 100:
            raise ValueError(f"reps must be >= 100, got {self.reps}")
        if self.smallmax_policy not in SMALLMAX_POLICIES:
            raise ValueError(
                f"smallmax_policy must be one of {SMALLMAX_POLICIES}, "
                f"got {self.smallmax_policy!r}"
            )
        if self.strategy not in ("sequential", "shuffle"):
            raise ValueError(f"strategy must be 'sequential' or 'shuffle', got {self.strategy!r}")
        for n in self.n_grid:
            block_sizes(n, self.k_blocks)  # raises BlockTooSmallError if infeasible


@dataclass(frozen=True)
class RateRow:
    """Rejection rates for one sample size, with exact tally counts."""

    n: int
    k: int
    alpha: float
    reps: int
    seed: int
    short_count: int
    medium_count: int
    long_count: int
    error_count: int
    error_notes: tuple[str, ...]

    @property
    def short_rate(self) -> float:
        return self.short_count / self.reps

    @property
    def medium_rate(self) -> float:
        return self.medium_count / self.reps

    @property
    def long_rate(self) -> float:
        return self.long_count / self.reps

    @property
    def stderr_short(self) -> float:
        p = self.short_rate
        return math.sqrt(p * (1.0 - p) / self.reps)

    @property
    def stderr_long(self) -> float:
        p = self.long_rate
        return math.sqrt(p * (1.0 - p) / self.reps)


@dataclass(frozen=True)
class SimulationReport:
    dist: str
    plan: SimulationPlan
    rows: tuple[RateRow, ...]


def _replicate_outcome(values, offsets, lower, upper, policy):
    """Classify one replicate. Returns (TailClass or None, error message or None)."""
    total = 0.0
    for start, size in offsets:
        block = values[start : start + size]
        part = np.partition(block, (size - 2, size - 1))
        mx = float(part[-1])
        second = float(part[-2])
        if mx <= 0.0:
            return None, f"block maximum {mx:g} <= 0, statistic undefined"
        if mx <= 1.0:
            if policy == "error":
                return None, f"block maximum {mx:g} not above 1"
            if policy == "short":
                return TailClass.SHORT, None
            if mx == 1.0:  # raw formula would divide by log(1) = 0
                return None, "block maximum exactly 1, statistic undefined"
        log_max = math.log(mx)
        exceed = int((block > log_max).sum())
        if exceed == size:
            t_j = 0.0
        else:
            theta = -math.log(exceed / size) / log_max
            t_j = theta * (mx - second)
        total += t_j
    return decide(total, lower, upper), None


def _run_chunk(plan, n, offsets, lower, upper, start, stop):
    counts = {TailClass.SHORT: 0, TailClass.MEDIUM: 0, TailClass.LONG: 0}
    notes = []
    for r in range(start, stop):
        stream = make_stream(SeedSpec(plan.base_seed, r))
        values = draw_sample(plan.spec, n, stream)
        if plan.strategy == "shuffle" and plan.k_blocks > 1:
            values = stream.permutation(values)
        outcome, err = _replicate_outcome(
            values, offsets, lower, upper, plan.smallmax_policy
        )
        if outcome is None:
            notes.append((r, err))
        else:
            counts[outcome] += 1
    return counts, notes


def _run_row(plan: SimulationPlan, n: int, threads: int) -> RateRow:
    sizes = block_sizes(n, plan.k_blocks)
    offsets = []
    pos = 0
    for size in sizes:
        offsets.append((pos, size))
        pos += size
    lower, upper = erlang_criticals(plan.alpha, plan.k_blocks)

    if threads <= 1:
        parts = [_run_chunk(plan, n, offsets, lower, upper, 0, plan.reps)]
    else:
        chunk = -(-plan.reps // threads)
        ranges = [
            (start, min(start + chunk, plan.reps))
            for start in range(0, plan.reps, chunk)
        ]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    lambda se: _run_chunk(plan, n, offsets, lower, upper, *se), ranges
                )
            )

    counts = {TailClass.SHORT: 0, TailClass.MEDIUM: 0, TailClass.LONG: 0}
    notes = []
    for part_counts, part_notes in parts:
        for key, value in part_counts.items():
            counts[key] += value
        notes.extend(part_notes)
    notes.sort(key=lambda item: item[0])

    return RateRow(
        n=n,
        k=plan.k_blocks,
        alpha=plan.alpha,
        reps=plan.reps,
        seed=plan.base_seed,
        short_count=counts[TailClass.SHORT],
        medium_count=counts[TailClass.MEDIUM],
        long_count=counts[TailClass.LONG],
        error_count=len(notes),
        error_notes=tuple(
            f"replicate {r}: {msg}" for r, msg in notes[:_MAX_ERROR_NOTES]
        ),
    )


def run_plan(plan: SimulationPlan, threads: int = 1) -> SimulationReport:
    """Run every (n, replicate) cell of the plan; deterministic in base_seed."""
    rows = tuple(_run_row(plan, n, threads) for n in plan.n_grid)
    return SimulationReport(dist=format_spec(plan.spec), plan=plan, rows=rows)


@dataclass(frozen=True)
class ScanVerdict:
    """Outcome of a consistency scan over an ascending n grid."""

    verdict: str  # PASS, FAIL, or NOT-APPLICABLE
    direction: str  # which rate should grow: 'short' or 'long'
    report: SimulationReport | None


def consistency_scan(
    spec: DistributionSpec,
    n_grid,
    k: int = 1,
    alpha: float = 0.05,
    reps: int = 10_000,
    base_seed: int = 0,
    smallmax_policy: str = "raw",
) -> ScanVerdict:
    """Check that power grows along n_grid for a non-medium law.

    PASS means the correct-direction rate at the largest n exceeds the
    smallest-n rate (or has already saturated at >= 1-alpha) while the
    wrong-direction rate stays below 2*alpha + 3*stderr throughout.
    Medium laws get NOT-APPLICABLE.
    """
    cls = tail_class(spec)
    if cls is TailClass.MEDIUM:
        return ScanVerdict(verdict="NOT-APPLICABLE", direction="", report=None)
    grid = tuple(int(n) for n in n_grid)
    if sorted(grid) != list(grid):
        raise ValueError(f"n_grid must be ascending, got {grid}")
    plan = SimulationPlan(
        spec=spec,
        n_grid=grid,
        k_blocks=k,
        alpha=alpha,
        reps=reps,
        base_seed=base_seed,
        smallmax_policy=smallmax_policy,
    )
    report = run_plan(plan)
    if cls is TailClass.SHORT:
        correct = [row.short_rate for row in report.rows]
        wrong = [(row.long_rate, row.stderr_long) for row in report.rows]
    else:
        correct = [row.long_rate for row in report.rows]
        wrong = [(row.short_rate, row.stderr_short) for row in report.rows]
    # A rate pinned at/near 1.0 across the whole grid cannot strictly rise.
    grew = correct[-1] > correct[0] or correct[-1] >= 1.0 - alpha
    ok = grew and all(rate < 2.0 * alpha + 3.0 * err for rate, err in wrong)
    return ScanVerdict(
        verdict="PASS" if ok else "FAIL",
        direction="short" if cls is TailClass.SHORT else "long",
        report=report,
    )


# ---------------------------------------------------------------------------
# Report emission and plan files.
# ---------------------------------------------------------------------------

CSV_HEADER = "dist,n,k,alpha,short_rate,long_rate,stderr_s,stderr_l,errors,seed"


def _as_report_list(reports) -> list[SimulationReport]:
    if isinstance(reports, SimulationReport):
        return [reports]
    return list(reports)


def emit_table(reports, fmt: str = "csv") -> str:
    """Render report(s) as 'csv', 'json', or 'md' (markdown).

    CSV emits one row per (dist, n); markdown mirrors the published table
    shape with one row per n and paired short/long columns per law; JSON
    carries the full provenance including counts and error notes.
    """
    reports = _as_report_list(reports)
    fmt = fmt.lower()
    if fmt == "csv":
        return _emit_csv(reports)
    if fmt == "json":
        return _emit_json(reports)
    if fmt in ("md", "markdown"):
        return _emit_markdown(reports)
    raise ValueError(f"unknown format {fmt!r}; use csv, json, or md")


def _emit_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    report.dist,
                    row.n,
                    row.k,
                    f"{row.alpha:g}",
                    f"{row.short_rate:.6f}",
                    f"{row.long_rate:.6f}",
                    f"{row.stderr_short:.6f}",
                    f"{row.stderr_long:.6f}",
                    row.error_count,
                    row.seed,
                ]
            )
    return buf.getvalue()


def _emit_json(reports) -> str:
    payload = {
        "reports": [
            {
                "dist": report.dist,
                "k": report.plan.k_blocks,
                "alpha": report.plan.alpha,
                "reps": report.plan.reps,
                "seed": report.plan.base_seed,
                "smallmax_policy": report.plan.smallmax_policy,
                "strategy": report.plan.strategy,
                "rows": [
                    {
                        "n": row.n,
                        "short_rate": row.short_rate,
                        "medium_rate": row.medium_rate,
                        "long_rate": row.long_rate,
                        "stderr_short": row.stderr_short,
                        "stderr_long": row.stderr_long,
                        "short_count": row.short_count,
                        "medium_count": row.medium_count,
                        "long_count": row.long_count,
                        "error_count": row.error_count,
                        "error_notes": list(row.error_notes),
                    }
                    for row in report.rows
                ],
            }
            for report in reports
        ]
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_markdown(reports) -> str:
    all_n = sorted({row.n for report in reports for row in report.rows})
    headers = ["n"]
    for report in reports:
        headers.append(f"{report.dist} S")
        headers.append(f"{report.dist} L")
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    by_n = [{row.n: row for row in report.rows} for report in reports]
    for n in all_n:
        cells = [str(n)]
        for table in by_n:
            row = table.get(n)
            if row is None:
                cells.extend(["", ""])
            else:
                cells.append(f"{row.short_rate:.4f}")
                cells.append(f"{row.long_rate:.4f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


_PLAN_KEYS = ("dist", "n", "k", "alpha", "reps", "seed", "smallmax_policy", "strategy")


def parse_plan_file(path) -> SimulationPlan:
    """Read a flat key=value plan file.

    Keys: dist (required), n (required, comma-separated sizes), k, alpha,
    reps, seed, smallmax_policy, strategy. Blank lines and #-comments are
    ignored.
    """
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().lower()
            if not sep or not value.strip():
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            if key not in _PLAN_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    + ", ".join(_PLAN_KEYS)
                )
            if key in entries:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value.strip()

    for required in ("dist", "n"):
        if required not in entries:
            raise ValueError(f"{path}: missing required plan key {required!r}")

    try:
        n_grid = tuple(int(tok.strip()) for tok in entries["n"].split(","))
    except ValueError:
        raise ValueError(f"{path}: could not parse n={entries['n']!r}") from None

    return SimulationPlan(
        spec=parse_spec(entries["dist"]),
        n_grid=n_grid,
        k_blocks=int(entries.get("k", 1)),
        alpha=float(entries.get("alpha", 0.05)),
        reps=int(entries.get("reps", 10_000)),
        base_seed=int(entries.get("seed", 0)),
        smallmax_policy=entries.get("smallmax_policy", "raw"),
        strategy=entries.get("strategy", "sequential"),
    )
