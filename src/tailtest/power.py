"""Monte Carlo engine: rejection-rate tables for the plain and blocked tail test.

Each replicate draws its own stream keyed by (base_seed, replicate index), so
a row's counts depend only on the plan, never on the order replicates run in.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .base import DegenerateSampleError, MaxNotAboveOneError, TailClass, check_alpha, decide
from .blocking import block_sizes, block_slices, block_statistics
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
    not above 1, by the rule in tail_test.spacing_statistic: 'error' tallies
    it as an aborted replicate; 'short' classifies the replicate Short when
    the maximum is in (0, 1]; 'raw' (default) evaluates the formula as written
    when the maximum is in (0, 1), which drives such replicates to Short, and
    tallies a maximum of exactly 1 as an error. A maximum <= 0 is an error
    under every policy.
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
        check_alpha(self.alpha)
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


def _replicate_outcome(blocks, lower, upper, policy):
    """Classify one replicate. Returns (TailClass or None, error message or None)."""
    try:
        stats = block_statistics(blocks, policy)
    except (DegenerateSampleError, MaxNotAboveOneError) as exc:
        return None, str(exc)
    return (TailClass.SHORT if stats is None else decide(sum(stats), lower, upper)), None


def _run_row(plan: SimulationPlan, n: int) -> RateRow:
    slices = block_slices(n, plan.k_blocks)
    lower, upper = erlang_criticals(plan.alpha, plan.k_blocks)

    counts = {TailClass.SHORT: 0, TailClass.MEDIUM: 0, TailClass.LONG: 0}
    notes = []
    for r in range(plan.reps):
        stream = make_stream(SeedSpec(plan.base_seed, r))
        values = draw_sample(plan.spec, n, stream)
        if plan.strategy == "shuffle" and plan.k_blocks > 1:
            values = stream.permutation(values)
        outcome, err = _replicate_outcome(
            [values[piece] for piece in slices], lower, upper, plan.smallmax_policy
        )
        if outcome is None:
            notes.append(f"replicate {r}: {err}")
        else:
            counts[outcome] += 1

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
        error_notes=tuple(notes[:_MAX_ERROR_NOTES]),
    )


def run_plan(plan: SimulationPlan, threads: int = 1) -> SimulationReport:
    """Run every (n, replicate) cell of the plan; deterministic in base_seed.

    Replicates run one after another in the calling thread. `threads` is kept
    for callers that pass it; it must be >= 1 and changes neither the output
    nor the speed.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    rows = tuple(_run_row(plan, n) for n in plan.n_grid)
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
