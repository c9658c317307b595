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

from .base import DegenerateSampleError, MaxNotAboveOneError, TailClass, check_alpha, decide
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


def spacing_statistic(
    block: np.ndarray, smallmax: str = "error"
) -> tuple[float, float, float, float, float] | None:
    """T, theta_hat, spacing, F_n(ln X_(n)) and X_(n) of one 1-D block (size >= 2).

    This is the one place the statistic is computed. A single partition finds
    X_(n) and X_(n-1); the minimum is looked at only when those two tie, to
    raise DegenerateSampleError on all-equal values.

    It is also the one statement of the small-maximum rule. The formula needs
    ln X_(n) defined and nonzero; `smallmax` says what a maximum <= 1 means:
    - 'error': any maximum <= 1 raises MaxNotAboveOneError;
    - 'short': a maximum in (0, 1] returns None, calling the whole sample Short;
    - 'raw': a maximum in (0, 1) evaluates the formula as written;
    and any other maximum <= 1 (<= 0 under every policy, exactly 1 under
    'raw') raises MaxNotAboveOneError.
    """
    size = block.size
    part = np.partition(block, (size - 2, size - 1))
    mx = float(part[-1])
    second = float(part[-2])
    if second == mx and float(part.min()) == mx:
        raise DegenerateSampleError("all sample values are equal")
    if mx <= 1.0:
        if smallmax == "short" and mx > 0.0:
            return None
        if not (smallmax == "raw" and 0.0 < mx < 1.0):
            raise MaxNotAboveOneError(
                f"sample maximum {mx:g} is not above 1, so ln X_(n) <= 0; "
                "rescale the data or apply an explicit shift"
            )
    spacing = mx - second
    log_max = math.log(mx)
    surv = int((block > log_max).sum()) / size
    # survival exactly 1 (nothing at or below ln X_(n)) is the concentrated
    # boundary case: the rate estimate collapses to 0
    theta = 0.0 if surv == 1.0 else -math.log(surv) / log_max
    return theta * spacing, theta, spacing, surv, mx


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
