"""The core tail test: extreme spacing times an estimated exponential rate.

The statistic is T_n = theta_hat * S_n with S_n = X_(n) - X_(n-1) and
theta_hat = -ln F_n(ln X_(n)) / ln X_(n), where F_n is the empirical survival
function. Under a medium tail T_n is asymptotically Exp(1); very small values
point to a short tail and very large ones to a long tail. The test itself is
blocking.tail_test, the one-block view of the blocked test.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .base import DegenerateSampleError, MaxNotAboveOneError, NonFiniteDrawError, TailClass
from .base import EQUAL, NONFINITE, REFUSED, SCORED, SHORT, listed


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
    """Build a Sample, optionally shifting: mode None (no shift), "min", or a real number.

    "min" subtracts the smallest observation (leaving it at exactly 0);
    a number c subtracts c from every value. Any other str, and a bool, is refused:
    cli._shift is the one reader of --shift's words.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("sample is empty")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"non-finite values at position(s) {listed(bad + 1)}")

    if mode is None:
        shift = 0.0
    elif mode == "min":
        shift = float(arr.min())
    elif isinstance(mode, numbers.Real) and not isinstance(mode, bool):
        shift = float(mode)
    else:
        raise ValueError(f"shift must be None, 'min' or a real number, got {mode!r}")

    with np.errstate(over="ignore"):  # x - 0.0 is x, -0.0 included: a copy when unshifted
        shifted = arr - shift
    bad = np.flatnonzero(~np.isfinite(shifted))  # the shift overflowed them, or is not finite
    if bad.size:
        raise ValueError(
            f"shift {shift:g} leaves non-finite values at position(s) {listed(bad + 1)}")
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


# The small-maximum rule as a table of outcome codes (base.py): the code by where a
# row's maximum falls, in (-inf, 0], (0, 1), {1}, (1, inf) or {inf, NaN} (searchsorted
# puts NaN last). All values equal (EQUAL) overrides it.
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


def verdict(code: int, mx: float, block: int = 0, k: int = 0) -> ValueError:
    """The exception the single-sample tests raise for a row spacing_rows refused
    (EQUAL, REFUSED or NONFINITE), from its code and maximum. With k blocks, a refusal
    names `block` (0-based) as "block j of k: ". The one place these messages are written."""
    where = f"block {block + 1} of {k}: " if k else ""
    if code == EQUAL:
        return DegenerateSampleError(where + "all sample values are equal")
    if code == REFUSED:
        return MaxNotAboveOneError(f"{where}sample maximum {mx + 0.0:g} is not above 1, so "
                                   "ln X_(n) <= 0; rescale the data or apply an explicit shift")
    return NonFiniteDrawError(f"draw overflowed to {mx:g}; sample maximum must be finite")
