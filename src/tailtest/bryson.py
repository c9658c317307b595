"""Bryson's scale-invariant exponentiality statistic and its simulated quantiles.

T* = mean(X) * max(X) / ((n-1) * GA^2) where GA is the geometric mean of the
values shifted up by max(X)/(n-1). Small T* signals a shorter-than-exponential
tail, large T* a longer one. The null law has no known closed form, so
reference quantiles are simulated at the exact sample size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import NONFINITE, TailClass, check_alpha, check_integer, check_real, check_sequence
from .base import decide
from .blocking import as_sample, verdict
from .distributions import DistributionSpec, format_spec, nonnegative, replicate_chunks
from .rng import SeedSpec, make_stream

DEFAULT_PROBS = (0.025, 0.05, 0.95, 0.975)
_BOOTSTRAP_RESAMPLES = 200
_SORT_BLOCK = 16  # bootstrap resamples gathered and sorted at a time
MIN_TABLE_REPS = 1000  # replicates of a simulated T* table, at least


def bryson_statistic(sample) -> float:
    """T* for a sample of n >= 3 nonnegative values with a positive maximum."""
    values = as_sample(sample).values
    _check_size(values.size)
    return float(_t_star(values[None, :])[0])


def _check_size(n: int) -> None:
    if n < 3:  # with a <= b: shift b, GA^2 = (a + b) * 2b, so T* = 1/4
        raise ValueError(f"T* needs at least 3 values, got n={n}; "
                         "with 2 it is 1/4 for any data, so it cannot tell tails apart")


def _t_star(rows: np.ndarray, first: int | None = None) -> np.ndarray:
    """T* of each row of a C-contiguous (rows, n) array, n >= 2 (callers check), with no
    scan for non-finite values; the first row i it cannot score raises, naming replicate
    first + i when `first` is given."""
    n = rows.shape[1]
    mx, mn = rows.max(axis=1), rows.min(axis=1)
    # with a nonnegative minimum every shifted value is > 0 unless the maximum is 0; the
    # sum is only needed for a negative one, as max/(n-1) underflows for a subnormal max
    lowest = np.where(mn < 0.0, mn + mx / (n - 1), mx)
    bad = np.flatnonzero(~np.isfinite(mx) | (lowest <= 0.0) | (mn < 0.0))
    if bad.size:
        i = int(bad[0])
        if not math.isfinite(mx[i]):
            exc = verdict(NONFINITE, mx.item(i))
        elif lowest[i] <= 0.0:
            exc = ValueError(
                f"smallest value plus max/(n-1) is {lowest[i]:g}; "
                "the geometric mean needs every shifted value > 0"
            )
        else:
            exc = ValueError(f"smallest value is {mn[i]:g}; T* needs nonnegative data")
        raise exc if first is None else type(exc)(f"n={n}, replicate {first + i}: {exc}")
    # T* is scale-invariant: a row whose maximum lies outside [2**-480, 2**495] is scored
    # as row / max, so that for n < 2**31 no product below overflows or goes subnormal
    if (far := (mx > 2.0**495) | (mx < 2.0**-480)).any():
        scale = np.where(far, mx, 1.0)  # x / 1.0 is x: every other row stays bit-identical
        rows, mx = rows / scale[:, np.newaxis], mx / scale
    shift = mx / (n - 1)
    # geometric mean via mean of logs; a product of n terms would overflow. A row's mean
    # is the same pairwise sum as a 1-D mean, and math.exp keeps libm's rounding.
    geos = map(math.exp, np.log(rows + shift[:, None]).mean(axis=1).tolist())
    means = rows.mean(axis=1).tolist()
    return np.array([m * x / ((n - 1) * g * g) for m, x, g in zip(means, mx.tolist(), geos)])


@dataclass(frozen=True)
class BrysonQuantileTable:
    """Simulated reference quantiles of T* under a given law at one n."""

    dist: str
    n: int
    reps: int
    seed: int
    probs: tuple[float, ...]
    quantiles: tuple[float, ...]
    stderrs: tuple[float, ...]


@dataclass(frozen=True)
class BrysonResult:
    """T*, its simulated null and critical values; the CLI's text lists them in this order."""

    n: int
    t_star: float
    null_dist: str
    reps: int
    seed: int
    lower_crit: float
    upper_crit: float
    decision: TailClass
    alpha: float


def _null_stats(spec: DistributionSpec, n: int, reps: int, seed: int) -> np.ndarray:
    """T* of each of `reps` seeded replicates of `spec` at sample size n."""
    if not nonnegative(spec):
        raise ValueError(
            f"{format_spec(spec)} takes negative values; T* needs nonnegative data"
        )
    reps = check_integer("reps", reps, MIN_TABLE_REPS)
    chunks = replicate_chunks(spec, n, seed, reps)  # refuses n < 1 first
    _check_size(n)
    stats = np.empty(reps)
    with np.errstate(over="ignore"):  # _t_star names a draw that overflowed to inf
        for first, chunk in chunks:
            stats[first:first + len(chunk)] = _t_star(chunk, first)
    return stats


def _sorted_quantiles(values: np.ndarray, probs) -> np.ndarray:
    """numpy.quantile(values, probs, axis=-1, method="linear") bit for bit, for 1-D values
    or 2-D rows already sorted along their last axis and free of NaN: shape
    (len(probs),) or (len(probs), rows).

    Like numpy's lerp: v = (n - 1) * p, g = v - floor(v), then a + (b - a) * g, or
    b - (b - a) * (1 - g) when g >= 0.5, with a and b the order statistics either
    side of v. Once v reaches n - 1 both are the largest, read at index -1 as numpy
    does, so g = v + 1 there too (it decides the sign of a zero at n = 1). Every T*
    quantile is read here, not by np.quantile: it, np.percentile and np.unique import
    numpy.ma, which no command loads.
    """
    n = values.shape[-1]
    v = (n - 1) * np.asarray(probs, dtype=float)
    top = v >= n - 1
    lo = np.where(top, -1, np.floor(v)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    g = (v - lo).reshape((-1,) + (1,) * (values.ndim - 1))
    a, b = values.T[lo], values.T[hi]
    d = b - a
    return np.where(g >= 0.5, b - d * (1.0 - g), a + d * g)


def simulate_bryson_quantiles(
    spec: DistributionSpec,
    n: int,
    reps: int = 10_000,
    seed: int = 0,
    probs: tuple[float, ...] = DEFAULT_PROBS,
) -> BrysonQuantileTable:
    """Empirical T* quantiles over seeded replicates, with bootstrap stderrs.

    Quantiles use linear interpolation of order statistics, as
    numpy.quantile(method="linear"); standard errors come from 200 bootstrap
    resamples of the replicate statistics, drawn from stream (seed, reps) and sorted
    16 at a time, so the bootstrap holds 16 resamples of `reps` values, not 200, and
    draws the same indices as one (200, reps) draw. Only laws on
    [0, inf) are accepted, since T* needs nonnegative data.
    """
    probs = tuple(check_real("probs", p) for p in check_sequence("probs", probs))
    if not probs:
        raise ValueError("probs must name at least one quantile, got ()")
    for p in probs:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile probs must lie in (0, 1), got {p}")
    stats = _null_stats(spec, n, reps, seed)

    # blocks read the stream in order: the same indices as one (resamples, reps) draw.
    # boot_qs is C-contiguous; std over a transposed view adds in another order
    boot_stream = make_stream(SeedSpec(seed, reps))  # replicate ids end at reps-1
    boot_qs = np.empty((len(probs), _BOOTSTRAP_RESAMPLES))
    for first in range(0, _BOOTSTRAP_RESAMPLES, _SORT_BLOCK):
        rows = min(_SORT_BLOCK, _BOOTSTRAP_RESAMPLES - first)
        block = stats[boot_stream.integers(0, reps, size=(rows, reps))]
        block.sort(axis=1)
        boot_qs[:, first:first + rows] = _sorted_quantiles(block, probs)
    errs = boot_qs.std(axis=1, ddof=1)
    stats.sort()  # only now: the resamples index the replicates in draw order
    qs = _sorted_quantiles(stats, probs)

    return BrysonQuantileTable(
        dist=format_spec(spec),
        n=int(n),
        reps=int(reps),
        seed=int(seed),
        probs=probs,
        quantiles=tuple(float(q) for q in qs),
        stderrs=tuple(float(e) for e in errs),
    )


def bryson_test(sample, alpha: float = 0.05, reps: int = 10_000, seed: int = 0) -> BrysonResult:
    """Two-sided comparison of T* against exponential-null quantiles at the sample's n.

    Short if T* falls below the alpha/2 quantile of `reps` simulated exp:1 replicates
    (T* is scale-invariant, so the rate does not matter), Long above the 1-alpha/2
    quantile, Medium between.
    """
    alpha = check_alpha(alpha)
    s = as_sample(sample)
    t_star = bryson_statistic(s)
    null = DistributionSpec("exp", (1.0,))
    stats = _null_stats(null, s.n, reps, seed)
    stats.sort()
    lower, upper = _sorted_quantiles(stats, (alpha / 2.0, 1.0 - alpha / 2.0)).tolist()
    return BrysonResult(
        n=s.n,
        t_star=t_star,
        null_dist=format_spec(null),
        reps=int(reps),
        seed=int(seed),
        lower_crit=lower,
        upper_crit=upper,
        decision=decide(t_star, lower, upper),
        alpha=alpha,
    )
