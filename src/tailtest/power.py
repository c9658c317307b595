"""Monte Carlo engine: rejection-rate tables for the plain and blocked tail test.

Replicate r draws from stream (base_seed, r) and is cut into k consecutive
blocks, equal in law to any split of i.i.d. draws. The engine and the T* table
walk the same ~128 KB row chunks (distributions.replicate_chunks), and one
blocking.block_scores call scores every block of a chunk once: its T and outcome
code. A replicate whose codes are all 0 is classified by its statistic; any other
by its first block with a nonzero code (first_verdicts): Short, an error note, or,
for a draw that overflowed to inf, an abort of the plan. Every outcome is
bit-identical to scoring each replicate alone.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .base import NonFiniteDrawError, TailClass, check_alpha
from .blocking import block_scores, block_sizes, first_verdicts
from .distributions import DistributionSpec, format_spec, parse_spec, replicate_chunks
from .rng import erlang_criticals

SMALLMAX_POLICIES = ("error", "short", "raw")
_MAX_ERROR_NOTES = 10


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate: a law, sample sizes, and the test on k consecutive blocks.

    smallmax_policy is passed to tail_test.spacing_rows, which states the
    rule for a (block) maximum not above 1; a replicate it refuses is tallied
    as an error, one it calls Short as Short. 'raw' is the default.
    """

    spec: DistributionSpec
    n_grid: tuple[int, ...]
    k_blocks: int = 1
    alpha: float = 0.05
    reps: int = 10_000
    base_seed: int = 0
    smallmax_policy: str = "raw"

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


def _chunk_outcomes(chunk, k, policy):
    """Score a (rows, n) chunk of replicates once: the statistic of each replicate whose
    blocks all scored (Python's left-to-right sum of its block T's, as in blocked_test;
    one T is its own), and first_verdicts: (r, verdict) for each other replicate r."""
    stats, codes, maxima = block_scores(chunk, k, policy)
    totals = stats[:, 0] if k == 1 else np.array(list(map(sum, stats.tolist())))
    if not np.count_nonzero(codes):
        return totals, []
    decided = first_verdicts(codes, maxima, k)
    return np.delete(totals, [r for r, _ in decided]), decided


def _run_row(plan: SimulationPlan, n: int) -> RateRow:
    k, policy = plan.k_blocks, plan.smallmax_policy
    lower, upper = erlang_criticals(plan.alpha, k)

    notes, scores, ruled_short = [], [], 0
    with np.errstate(over="ignore"):  # the rule names a draw that overflowed
        for first, chunk in replicate_chunks(plan.spec, n, plan.base_seed, plan.reps):
            totals, verdicts = _chunk_outcomes(chunk, k, policy)
            scores.append(totals)
            for r, verdict in verdicts:
                if verdict is TailClass.SHORT:
                    ruled_short += 1
                elif isinstance(verdict, NonFiniteDrawError):  # abort, naming where it stopped
                    raise NonFiniteDrawError(f"n={n}, replicate {first + r}: {verdict}")
                else:
                    notes.append(f"replicate {first + r}: {verdict}")
    totals = np.concatenate(scores)
    # decide's rule, over the scored replicates
    short, long = np.count_nonzero(totals < lower), np.count_nonzero(totals > upper)

    return RateRow(n=n, k=k, alpha=plan.alpha, reps=plan.reps, seed=plan.base_seed,
                   short_count=ruled_short + int(short), long_count=int(long),
                   medium_count=int(len(totals) - short - long), error_count=len(notes),
                   error_notes=tuple(notes[:_MAX_ERROR_NOTES]))


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


# ---------------------------------------------------------------------------
# Report emission and plan files.
# ---------------------------------------------------------------------------

CSV_HEADER = "dist,n,k,alpha,short_rate,long_rate,stderr_s,stderr_l,errors,seed"


def emit_table(reports, fmt: str = "csv") -> str:
    """Render report(s) as 'csv', 'json', or 'md' (markdown).

    CSV emits one row per (dist, n); markdown mirrors the published table
    shape with one row per n and paired short/long columns per law; JSON
    carries the full provenance including counts and error notes.
    """
    reports = [reports] if isinstance(reports, SimulationReport) else list(reports)
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


_PLAN_KEYS = ("dist", "n", "k", "alpha", "reps", "seed", "smallmax_policy")


def parse_plan_file(path) -> SimulationPlan:
    """Read a flat key=value plan file.

    Keys: dist (required), n (required, comma-separated sizes), k, alpha,
    reps, seed, smallmax_policy. Blank lines and #-comments are ignored.
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

    def number(key, convert, default=None):
        try:
            return convert(entries[key]) if key in entries else default
        except ValueError:
            raise ValueError(f"{path}: could not parse {key}={entries[key]!r}") from None

    return SimulationPlan(
        spec=parse_spec(entries["dist"]),
        n_grid=number("n", lambda text: tuple(int(tok) for tok in text.split(","))),
        k_blocks=number("k", int, 1),
        alpha=number("alpha", float, 0.05),
        reps=number("reps", int, 10_000),
        base_seed=number("seed", int, 0),
        smallmax_policy=entries.get("smallmax_policy", "raw"),
    )
