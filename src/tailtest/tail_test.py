"""The core tail test: extreme spacing times an estimated exponential rate.

The statistic is T_n = theta_hat * S_n with S_n = X_(n) - X_(n-1) and
theta_hat = -ln F_n(ln X_(n)) / ln X_(n), where F_n is the empirical survival
function. Under a medium tail T_n is asymptotically Exp(1); very small values
point to a short tail and very large ones to a long tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import DegenerateSampleError, MaxNotAboveOneError, NonFiniteDrawError, TailClass
from .base import check_alpha, decide
from .rng import erlang_criticals


@dataclass(frozen=True)
class Sample:
    """A validated dataset: values as given (post-shift).

    `shift` records what was subtracted from the raw input; `values` is a
    read-only array of the shifted data.
    """

    values: np.ndarray
    shift: float
    n: int

    @property
    def maximum(self) -> float:
        return float(self.values.max())


def shift_sample(values, mode=None) -> Sample:
    """Build a Sample, optionally shifting: mode None, 'min', or a number.

    'min' subtracts the smallest observation (leaving it at exactly 0);
    a number c subtracts c from every value.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("sample is empty")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        positions = ", ".join(str(i + 1) for i in bad[:10])
        more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
        raise ValueError(f"non-finite values at position(s) {positions}{more}")

    if mode is None or (isinstance(mode, str) and mode.lower() == "none"):
        shift = 0.0
    elif isinstance(mode, str) and mode.lower() == "min":
        shift = float(arr.min())
    else:
        shift = float(mode)
        if not math.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift}")

    shifted = arr - shift if shift != 0.0 else arr.copy()
    shifted.setflags(write=False)
    return Sample(values=shifted, shift=shift, n=int(arr.size))


def as_sample(values) -> Sample:
    """Coerce raw values (or pass through a Sample) with no shift."""
    if isinstance(values, Sample):
        return values
    return shift_sample(values, None)


@dataclass(frozen=True)
class TailTestResult:
    """Everything the test computed, plus the three-way decision at `alpha`."""

    t_stat: float
    theta_hat: float
    spacing: float
    surv_at_log_max: float
    p_short: float
    p_long: float
    decision: TailClass
    alpha: float
    n: int
    tied_max: bool = False  # top two order statistics tie (T forced to 0)


def spacing_rows(blocks: np.ndarray, smallmax: str):
    """For a 2-D array with one block (>= 2 values) per row: each row's T, which
    rows it scored, the partitioned rows, and each row's theta_hat and F_n(ln X_(n)).

    The one place T is computed: a partition at kth = m - 2 puts X_(n-1) there and
    X_(n) after it; one comparison counts the values above ln X_(n). Logs are math.log,
    the rest is correctly rounded: T is the formula in Python floats to the bit. A row
    whose top two tie, or whose maximum is not finite or not one `smallmax` scores, is
    left to spacing_statistic's rule (T a stand-in).
    """
    m = blocks.shape[1]
    part = np.partition(blocks, m - 2, axis=1)
    second, mx = part[:, -2], part[:, -1]
    low = 0.0 if smallmax == "raw" else 1.0
    # ln X_(n) where the formula takes X_(n), else NaN (a NaN is not equal to itself)
    logs = np.array([math.log(x) if low < x < math.inf and x != 1.0 else math.nan
                     for x in mx.tolist()])
    if not (usable := logs == logs).any():  # the rule decides every row, reading no T
        return np.zeros(len(part)), usable, part, None, None
    # X_(n) > ln X_(n) counts itself; a NaN row counts nothing
    surv = np.maximum((blocks > logs[:, np.newaxis]).sum(axis=1, dtype=np.int32), 1) / m
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as Python floats give
        # survival 1 (nothing at or below ln X_(n)) gives theta 0; `0.0 -` clears a -0.0
        theta = 0.0 - np.array(list(map(math.log, surv.tolist()))) / logs
        return theta * (mx - second), usable & (second < mx), part, theta, surv


def spacing_statistic(blocks: np.ndarray, smallmax: str = "error", first: int = 0, k: int = 0):
    """Each row's T (from spacing_rows), as a list, for a 2-D array with one block
    (>= 2 values) per row; for a 1-D block, its T, theta_hat, spacing, F_n(ln X_(n)), X_(n).

    This is the one statement of the small-maximum rule. The formula needs
    ln X_(n) defined and nonzero; `smallmax` says what a maximum <= 1 means:
    - 'error': any maximum <= 1 raises MaxNotAboveOneError;
    - 'short': a maximum in (0, 1] returns None, calling the whole sample Short;
    - 'raw': a maximum in (0, 1) evaluates the formula as written;
    and any other maximum <= 1 raises MaxNotAboveOneError. Rows are checked in
    order, all-equal values (DegenerateSampleError) first, and the first row
    that is Short or refused decides; with k > 0 an error names row j "block
    {first + j + 1} of {k}: ". A maximum that is not finite raises
    NonFiniteDrawError.
    """
    rows = blocks if blocks.ndim == 2 else blocks[np.newaxis]
    stats, scored, part, theta, surv = spacing_rows(rows, smallmax)
    for j in [j for j, ok in enumerate(scored.tolist()) if not ok]:
        second, mx = part[j, -2:].tolist()
        if second == mx and part[j].min() == mx:
            raise DegenerateSampleError(_prefix(first + j, k) + "all sample values are equal")
        if mx <= 1.0:
            if smallmax == "short" and mx > 0.0:
                return None
            if not (smallmax == "raw" and 0.0 < mx < 1.0):
                raise MaxNotAboveOneError(
                    f"{_prefix(first + j, k)}sample maximum {mx + 0.0:g} is not above 1, "
                    "so ln X_(n) <= 0; rescale the data or apply an explicit shift"
                )
        if not math.isfinite(mx):
            raise NonFiniteDrawError(f"draw overflowed to {mx:g}; sample maximum must be finite")
    if blocks.ndim == 2:
        return stats.tolist()
    second, mx = part[0, -2:].tolist()
    return stats.item(0), theta.item(0), mx - second, surv.item(0), mx


def _prefix(j: int, k: int) -> str:
    return f"block {j + 1} of {k}: " if k else ""


def classify(t_stat: float, alpha: float) -> TailClass:
    """Map a statistic to Short/Medium/Long at level alpha (one-sided each way)."""
    return decide(t_stat, *erlang_criticals(alpha, 1))


def tail_test(sample, alpha: float = 0.05) -> TailTestResult:
    """Run the spacing test on a sample (n >= 3, maximum > 1)."""
    alpha = check_alpha(alpha)
    s = as_sample(sample)
    if s.n < 3:
        raise ValueError(f"need at least 3 values to test, got n={s.n}")
    t_stat, theta, spacing, surv, _ = spacing_statistic(s.values)
    p_long = math.exp(-t_stat)
    return TailTestResult(
        t_stat=t_stat,
        theta_hat=theta,
        spacing=spacing,
        surv_at_log_max=surv,
        p_short=1.0 - p_long,
        p_long=p_long,
        decision=classify(t_stat, alpha),
        alpha=alpha,
        n=s.n,
        tied_max=spacing == 0.0,
    )
