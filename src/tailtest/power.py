"""Monte Carlo engine: rejection-rate tables for the plain and blocked tail test.

Replicate r draws from stream (base_seed, r) and is cut into k consecutive
blocks, equal in law to any split of i.i.d. draws. It is drawn once per plan, at
the grid's largest n, in the row chunks the T* table walks too
(distributions.replicate_chunks; 128 KB up to n = 2048, 8 rows and at most
1 MB beyond). Its sample at a smaller n is the first n values of that draw, so
each smaller n copies the prefixes of whole chunks into a buffer of as many as fit
in its own chunk_rows(n) rows, and scores it when full or after the last chunk.
One blocking.block_scores call scores every block of a chunk once and adds each
replicate's block T's. base.classify makes each total Short, Medium or Long, as it
does for the single-sample tests. A replicate with a nonzero outcome code takes its
first such code instead: Short, or an error. Each n keeps one tally: a bincount per
chunk of the codes, and the first replicate of each error code with its maximum.
After the one pass, run_plan raises blocking.verdict's overflow error for the first
n, in grid order, that met a draw overflowed to inf. Every count is the one drawing
and scoring each replicate alone at each n gives.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .base import EQUAL, NONFINITE, REFUSED, SHORT, NonFiniteDrawError, check_alpha
from .base import check_integer, check_sequence, classify, float_label, read_text, text_lines
from .blocking import SMALLMAX_POLICIES, block_scores, block_sizes, verdict
from .distributions import DistributionSpec, chunk_rows, format_spec, parse_spec
from .distributions import replicate_chunks
from .rng import SeedSpec, erlang_criticals

MIN_PLAN_REPS = 100  # fewer replicates give no usable rejection rate


@dataclass(frozen=True)
class SimulationPlan:
    """What to simulate: a law, sample sizes, and the test on k consecutive blocks.

    smallmax_policy is passed to blocking.spacing_rows, which states the
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
        if not isinstance(self.spec, DistributionSpec):
            raise ValueError(f"spec must be a DistributionSpec, got {self.spec!r}")
        n_grid = tuple(check_integer("each n of n_grid", n)
                       for n in check_sequence("n_grid", self.n_grid))
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "k_blocks", check_integer("k_blocks", self.k_blocks))
        object.__setattr__(self, "reps", check_integer("reps", self.reps, MIN_PLAN_REPS))
        object.__setattr__(self, "base_seed", int(SeedSpec(self.base_seed).base_seed))
        if not self.n_grid:
            raise ValueError("n_grid is empty")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if self.smallmax_policy not in SMALLMAX_POLICIES:
            raise ValueError(
                f"smallmax_policy must be one of {SMALLMAX_POLICIES}, "
                f"got {self.smallmax_policy!r}"
            )
        for i, n in enumerate(self.n_grid):
            if n in self.n_grid[:i]:  # each n is one row, and md keys its rows by n
                raise ValueError(f"sample size n={n} is repeated")
            block_sizes(n, self.k_blocks)  # raises BlockTooSmallError if infeasible


@dataclass(frozen=True)
class RateRow:
    """One sample size's tally: the count of each outcome and, for each error (all
    values equal, maximum refused), the first replicate that took it, None if none
    did. Every other number is derived; k, alpha and the seed are the plan's."""

    n: int
    short_count: int
    medium_count: int
    long_count: int
    equal_count: int
    refused_count: int
    first_equal: int | None
    first_refused: int | None

    @property
    def error_count(self) -> int:
        return self.equal_count + self.refused_count

    @property
    def reps(self) -> int:
        return self.short_count + self.medium_count + self.long_count + self.error_count

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
    """The rows run_plan gave for a plan, one per n of its grid, in grid order."""

    plan: SimulationPlan
    rows: tuple[RateRow, ...]

    @property
    def dist(self) -> str:  # the plan's law, in parse_spec's words
        return format_spec(self.plan.spec)


def run_plan(plan: SimulationPlan, threads: int = 1) -> SimulationReport:
    """Run every (n, replicate) cell of the plan in one pass; deterministic in base_seed.

    Once the pass ends, a draw that overflowed to inf raises NonFiniteDrawError from the
    tally: for the first n in grid order that met one, at its first such replicate.
    Replicates run one after another in the calling thread. `threads` is kept for callers
    that pass it; it must be an integer >= 1 and changes neither the output nor the speed.
    """
    check_integer("threads", threads, 1)
    k, policy = plan.k_blocks, plan.smallmax_policy
    lower, upper = erlang_criticals(plan.alpha, k)
    top = max(plan.n_grid)
    counts = {n: np.zeros(NONFINITE + 1, dtype=np.int64) for n in plan.n_grid}  # by outcome code
    firsts = {n: {} for n in plan.n_grid}  # error code: (its first replicate, that maximum)
    # each smaller n gathers the prefixes of whole top-n chunks, as many as fit in
    # chunk_rows(n) rows; chunk_rows never rises with n, so that is at least one
    rows = chunk_rows(top)
    buffers = {n: np.empty((chunk_rows(n) // rows * rows, n)) for n in plan.n_grid if n < top}

    def score(n, first, chunk):
        _, totals, refused, _ = block_scores(chunk, k, policy)
        codes = classify(totals, lower, upper)
        if refused is not None:
            reasons, _, maxima = refused
            for code in set(reasons[reasons >= EQUAL].tolist()) - firsts[n].keys():
                r = int((reasons == code).argmax())
                firsts[n][code] = (first + r, maxima.item(r))
            codes = np.where(reasons, reasons, codes)  # a refused or rule-Short replicate
        counts[n] += np.bincount(codes, minlength=NONFINITE + 1)

    with np.errstate(over="ignore"):  # the rule names a draw that overflowed
        for first, chunk in replicate_chunks(plan.spec, top, plan.base_seed, plan.reps):
            score(top, first, chunk)
            last = first + len(chunk) == plan.reps
            for n, buffer in buffers.items():
                at = first % len(buffer)
                end = at + len(chunk)
                buffer[at:end] = chunk[:, :n]
                if end == len(buffer) or last:
                    score(n, first - at, buffer[:end])

    for n in plan.n_grid:
        if NONFINITE in firsts[n]:
            r, mx = firsts[n][NONFINITE]
            raise NonFiniteDrawError(f"n={n}, replicate {r}: {verdict(NONFINITE, mx)}")
    return SimulationReport(plan=plan, rows=tuple(
        RateRow(n, *counts[n][SHORT:NONFINITE].tolist(),
                *(firsts[n].get(code, (None,))[0] for code in (EQUAL, REFUSED)))
        for n in plan.n_grid))


# ---------------------------------------------------------------------------
# Report emission and plan files.
# ---------------------------------------------------------------------------

CSV_HEADER = "dist,n,k,alpha,short_rate,long_rate,stderr_s,stderr_l,errors,seed"


def emit_table(reports, fmt: str = "csv") -> str:
    """Render report(s) as fmt "csv", "json" or "md" (markdown), exactly those words.

    CSV emits one row per (dist, n); markdown mirrors the published table
    shape with one row per n and paired short/long columns per law; JSON
    carries the full provenance: each row's tally fields and the rates derived from them.
    """
    reports = [reports] if isinstance(reports, SimulationReport) else list(reports)
    emitters = {"csv": _emit_csv, "json": _emit_json, "md": _emit_markdown}
    emit = emitters.get(fmt) if isinstance(fmt, str) else None  # a list is unhashable
    if emit is None:
        raise ValueError(f"unknown format {fmt!r}; use csv, json, or md")
    return emit(reports)


def _emit_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for report in reports:
        plan = report.plan
        for row in report.rows:
            rates = (row.short_rate, row.long_rate, row.stderr_short, row.stderr_long)
            writer.writerow([report.dist, row.n, plan.k_blocks, float_label(plan.alpha),
                             *(f"{x:.6f}" for x in rates), row.error_count, plan.base_seed])
    return buf.getvalue()


# the RateRow properties a JSON row adds to its fields
_DERIVED = ("error_count", "short_rate", "medium_rate", "long_rate", "stderr_short", "stderr_long")


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
                "rows": [{**vars(row), **{key: getattr(row, key) for key in _DERIVED}}
                         for row in report.rows],
            }
            for report in reports
        ]
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_markdown(reports) -> str:
    all_n = sorted({row.n for report in reports for row in report.rows})
    headers = ["n"] + [f"{report.dist} {side}" for report in reports for side in "SL"]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    by_n = [{row.n: row for row in report.rows} for report in reports]
    for n in all_n:
        cells = [str(n)]
        for table in by_n:
            row = table.get(n)
            cells += ["", ""] if row is None else [f"{row.short_rate:.4f}", f"{row.long_rate:.4f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# plan-file key, which is also simulate's option: the SimulationPlan field it sets
# and the reading of its text
PLAN_KEYS = {
    "dist": ("spec", parse_spec),
    "n": ("n_grid", lambda text: tuple(int(tok) for tok in text.split(","))),
    "k": ("k_blocks", int),
    "alpha": ("alpha", float),
    "reps": ("reps", int),
    "seed": ("base_seed", int),
    "smallmax_policy": ("smallmax_policy", str),
}


def read_plan(texts: dict[str, str], path=None) -> SimulationPlan:
    """The plan some PLAN_KEYS' texts give, from a plan file at `path` or simulate's options
    (path None); base.read_text reads each text but dist's, whose parse_spec message names it."""
    fields = {}
    for key, text in texts.items():
        field, read = PLAN_KEYS[key]
        fields[field] = read(text) if key == "dist" else read_text(key, text, read, path)
    return SimulationPlan(**fields)


def parse_plan_file(path) -> SimulationPlan:
    """Read a flat key=value plan file from the lines base.text_lines keeps.

    Keys: dist (required), n (required, comma-separated sizes), k, alpha,
    reps, seed, smallmax_policy; read_plan reads their values.
    """
    entries: dict[str, str] = {}
    for lineno, line in text_lines(path)[0]:
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep or not value.strip():
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in PLAN_KEYS:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(PLAN_KEYS)
            )
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()

    for required in ("dist", "n"):
        if required not in entries:
            raise ValueError(f"{path}: missing required plan key {required!r}")
    return read_plan(entries, path)
