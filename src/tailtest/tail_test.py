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


# spacing_rows' outcome codes of a row, and the small-maximum rule as a table of them:
# the code by where the row's maximum falls, in (-inf, 0], (0, 1), {1}, (1, inf) or
# {inf, NaN} (searchsorted puts NaN last). All values equal (EQUAL) overrides it.
SCORED, SHORT, EQUAL, REFUSED, NONFINITE = range(5)
_MAX_EDGES = np.array([0.0, np.nextafter(1.0, 0.0), 1.0, np.finfo(float).max])
_RULE = {
    "error": np.array([REFUSED, REFUSED, REFUSED, SCORED, NONFINITE]),
    "short": np.array([REFUSED, SHORT, SHORT, SCORED, NONFINITE]),
    "raw": np.array([REFUSED, SCORED, REFUSED, SCORED, NONFINITE]),
}


def spacing_rows(blocks: np.ndarray, smallmax: str):
    """For a 2-D array with one block (>= 2 values) per row: each row's T and outcome
    code, the partitioned rows, and each row's theta_hat and F_n(ln X_(n)).

    The one place T is computed: a partition at kth = m - 2 puts X_(n-1) there and
    X_(n) after it; one comparison counts the values above ln X_(n). Logs are math.log,
    the rest is correctly rounded: T is the formula in Python floats to the bit.

    The one statement of the small-maximum rule too: the formula needs ln X_(n)
    defined and nonzero, and under `smallmax` a maximum <= 1 is REFUSED ('error'),
    SHORT in (0, 1] ('short'), or SCORED in (0, 1) as written ('raw'); any other is
    REFUSED. A row of equal values is EQUAL, one with a maximum not finite NONFINITE,
    and one whose top two tie SCORED with T = 0 if its maximum is. Only a SCORED T stands.
    """
    m = blocks.shape[1]
    part = np.partition(blocks, m - 2, axis=1)
    second, mx = part[:, -2], part[:, -1]
    code = _RULE[smallmax][np.searchsorted(_MAX_EDGES, mx)]
    if np.count_nonzero(tied := second == mx):  # row minima only where the top two tie
        rows = np.flatnonzero(tied)
        code[rows[part[rows].min(axis=1) == mx[rows]]] = EQUAL
    if not any(scored := (code == SCORED).tolist()):  # the rule decides every row, reading no T
        return np.zeros(len(part)), code, part, None, None
    # ln X_(n) of a SCORED row, else NaN; X_(n) > ln X_(n) counts itself, a NaN row nothing
    logs = np.array([math.log(x) if ok else math.nan for x, ok in zip(mx.tolist(), scored)])
    surv = np.maximum((blocks > logs[:, np.newaxis]).sum(axis=1, dtype=np.int32), 1) / m
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as Python floats give
        # survival 1 (nothing at or below ln X_(n)) gives theta 0; `0.0 -` clears a -0.0
        theta = 0.0 - np.array(list(map(math.log, surv.tolist()))) / logs
        return theta * (mx - second), code, part, theta, surv


def verdict(code: int, mx: float, where: str = ""):
    """What the rule makes of a row spacing_rows did not score, from its code and
    maximum: TailClass.SHORT, or the exception tail_test and blocked_test raise, its
    message after `where` (e.g. "block 2 of 5: "). The one place these messages are written."""
    if code == SHORT:
        return TailClass.SHORT
    if code == EQUAL:
        return DegenerateSampleError(where + "all sample values are equal")
    if code == REFUSED:
        return MaxNotAboveOneError(f"{where}sample maximum {mx + 0.0:g} is not above 1, so "
                                   "ln X_(n) <= 0; rescale the data or apply an explicit shift")
    return NonFiniteDrawError(f"draw overflowed to {mx:g}; sample maximum must be finite")


def spacing_statistic(block: np.ndarray, smallmax: str = "error"):
    """T, theta_hat, spacing, F_n(ln X_(n)) and X_(n) of a 1-D block (>= 2 values),
    from spacing_rows; None when its rule calls the block Short, and its exception
    (see verdict) when the rule refuses it.
    """
    stats, code, part, theta, surv = spacing_rows(block[np.newaxis], smallmax)
    second, mx = part[0, -2:].tolist()
    if code[0] != SCORED:
        if (out := verdict(int(code[0]), mx)) is TailClass.SHORT:
            return None
        raise out
    return stats.item(0), theta.item(0), mx - second, surv.item(0), mx


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
        decision=decide(t_stat, *erlang_criticals(alpha, 1)),
        alpha=alpha,
        n=s.n,
        tied_max=spacing == 0.0,
    )
