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

from .base import DegenerateSampleError, MaxNotAboveOneError, TailClass, decide
from .rng import erlang_criticals


@dataclass(frozen=True)
class Sample:
    """A validated dataset: values as given (post-shift), plus a sorted view.

    `shift` records what was subtracted from the raw input; `values` and
    `sorted` are read-only arrays of the shifted data.
    """

    values: np.ndarray
    sorted: np.ndarray
    shift: float
    n: int

    @property
    def maximum(self) -> float:
        return float(self.sorted[-1])


def shift_sample(values, mode=None) -> Sample:
    """Build a Sample, optionally shifting: mode None, 'min', or a number.

    'min' subtracts the smallest observation (leaving it at exactly 0);
    a number c subtracts c from every value.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
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
    srt = np.sort(shifted)
    srt.setflags(write=False)
    return Sample(values=shifted, sorted=srt, shift=shift, n=int(arr.size))


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


def empirical_survival(sample, t: float) -> float:
    """Fraction of the sample strictly above t."""
    s = as_sample(sample)
    exceed = s.n - int(np.searchsorted(s.sorted, float(t), side="right"))
    return exceed / s.n


def extreme_spacing(sample) -> float:
    """X_(n) - X_(n-1); zero when the top two observations tie."""
    s = as_sample(sample)
    if s.n < 2:
        raise ValueError(f"need at least 2 values for a spacing, got n={s.n}")
    return float(s.sorted[-1] - s.sorted[-2])


def _theta_and_survival(s: Sample) -> tuple[float, float]:
    """The rate estimate and the empirical survival F_n(ln X_(n)) it rests on."""
    mx = s.maximum
    if mx <= 1.0:
        raise MaxNotAboveOneError(
            f"sample maximum {mx:g} is not above 1, so ln X_(n) <= 0; "
            "rescale the data or apply an explicit shift"
        )
    log_max = math.log(mx)
    surv = empirical_survival(s, log_max)
    if surv == 1.0:
        return 0.0, surv
    return -math.log(surv) / log_max, surv


def estimate_theta(sample) -> float:
    """Rate estimate -ln F_n(ln X_(n)) / ln X_(n); 0 when nothing is at or
    below ln X_(n) (survival exactly 1, the concentrated boundary case)."""
    return _theta_and_survival(as_sample(sample))[0]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    return alpha


def classify(t_stat: float, alpha: float) -> TailClass:
    """Map a statistic to Short/Medium/Long at level alpha (one-sided each way)."""
    return decide(t_stat, *erlang_criticals(_check_alpha(alpha), 1))


def tail_test(sample, alpha: float = 0.05) -> TailTestResult:
    """Run the spacing test on a sample (n >= 3, maximum > 1)."""
    alpha = _check_alpha(alpha)
    s = as_sample(sample)
    if s.n < 3:
        raise ValueError(f"need at least 3 values to test, got n={s.n}")
    if s.sorted[0] == s.sorted[-1]:
        raise DegenerateSampleError("all sample values are equal")

    theta, surv = _theta_and_survival(s)  # raises MaxNotAboveOneError when max <= 1
    spacing = extreme_spacing(s)
    t_stat = theta * spacing
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
