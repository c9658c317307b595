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
# np.quantile imports numpy.ma on first use; load it here so the cost falls at import
import numpy.ma  # noqa: F401

from .base import TableMismatchError, TailClass, check_alpha, decide
from .distributions import DistributionSpec, format_spec, nonnegative, sample as draw_sample
from .rng import SeedSpec, make_stream
from .tail_test import as_sample

DEFAULT_PROBS = (0.025, 0.05, 0.95, 0.975)
_BOOTSTRAP_RESAMPLES = 200


def bryson_statistic(sample) -> float:
    """T* for a sample of nonnegative values (n >= 2, max > 0)."""
    s = as_sample(sample)
    if s.n < 2:
        raise ValueError(f"need at least 2 values, got n={s.n}")
    values = s.values
    mx = s.maximum
    shift = mx / (s.n - 1)
    lowest = float(values.min()) + shift
    if lowest <= 0.0:
        raise ValueError(
            f"smallest value plus max/(n-1) is {lowest:g}; "
            "the geometric mean needs every shifted value > 0"
        )
    # geometric mean via mean of logs; a product of n terms would overflow
    geo = math.exp(float(np.mean(np.log(values + shift))))
    return float(values.mean()) * mx / ((s.n - 1) * geo * geo)


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

    def quantile_at(self, p: float) -> float:
        for prob, q in zip(self.probs, self.quantiles):
            if math.isclose(prob, p, rel_tol=0.0, abs_tol=1e-12):
                return q
        raise KeyError(f"table has no {p} quantile (probs: {self.probs})")


@dataclass(frozen=True)
class BrysonResult:
    t_star: float
    n: int
    decision: TailClass
    alpha: float
    lower_crit: float
    upper_crit: float
    table: BrysonQuantileTable


def simulate_bryson_quantiles(
    spec: DistributionSpec,
    n: int,
    reps: int = 10_000,
    seed: int = 0,
    probs: tuple[float, ...] = DEFAULT_PROBS,
) -> BrysonQuantileTable:
    """Empirical T* quantiles over seeded replicates, with bootstrap stderrs.

    Quantiles use linear interpolation of order statistics; standard errors
    come from 200 bootstrap resamples of the replicate statistics. Only laws
    on [0, inf) are accepted, since T* needs nonnegative data.
    """
    if not nonnegative(spec):
        raise ValueError(
            f"{format_spec(spec)} takes negative values; T* needs nonnegative data"
        )
    if reps < 1000:
        raise ValueError(f"reps must be >= 1000 for a usable table, got {reps}")
    for p in probs:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile probs must lie in (0, 1), got {p}")

    stats = np.empty(reps)
    for r in range(reps):
        values = draw_sample(spec, n, make_stream(SeedSpec(seed, r)))
        stats[r] = bryson_statistic(values)

    qs = np.quantile(stats, probs, method="linear")

    boot_stream = make_stream(SeedSpec(seed, reps))  # replicate ids end at reps-1
    idx = boot_stream.integers(0, reps, size=(_BOOTSTRAP_RESAMPLES, reps))
    boot_qs = np.quantile(stats[idx], probs, axis=1, method="linear")
    errs = boot_qs.std(axis=1, ddof=1)  # boot_qs is (len(probs), resamples)

    return BrysonQuantileTable(
        dist=format_spec(spec),
        n=int(n),
        reps=int(reps),
        seed=int(seed),
        probs=tuple(float(p) for p in probs),
        quantiles=tuple(float(q) for q in qs),
        stderrs=tuple(float(e) for e in errs),
    )


def exponential_null_table(
    n: int, reps: int = 10_000, seed: int = 0, probs: tuple[float, ...] = DEFAULT_PROBS
) -> BrysonQuantileTable:
    """Reference quantiles under the exponential null at sample size n.

    T* is scale-invariant, so the rate does not matter; theta=1 is used.
    """
    return simulate_bryson_quantiles(DistributionSpec("exp", (1.0,)), n, reps, seed, probs)


def bryson_test(
    sample,
    alpha: float = 0.05,
    null_table: BrysonQuantileTable | None = None,
    reps: int = 10_000,
    seed: int = 0,
) -> BrysonResult:
    """Two-sided comparison of T* against exponential-null quantiles.

    Short if T* falls below the alpha/2 quantile, Long above the 1-alpha/2
    quantile, Medium between. A passed-in table must match the sample's n.
    """
    alpha = check_alpha(alpha)
    s = as_sample(sample)
    t_star = bryson_statistic(s)
    lo_p, hi_p = alpha / 2.0, 1.0 - alpha / 2.0
    if null_table is None:
        null_table = exponential_null_table(s.n, reps, seed, probs=(lo_p, hi_p))
    if null_table.n != s.n:
        raise TableMismatchError(
            f"null table was simulated at n={null_table.n}, sample has n={s.n}"
        )
    lower = null_table.quantile_at(lo_p)
    upper = null_table.quantile_at(hi_p)
    return BrysonResult(
        t_star=t_star,
        n=s.n,
        decision=decide(t_star, lower, upper),
        alpha=alpha,
        lower_crit=lower,
        upper_crit=upper,
        table=null_table,
    )
