"""Seeded random streams plus the Erlang distribution functions the tests rely on.

Streams are counter-based (Philox) and keyed by (base_seed, stream_id), so
replicate r of a simulation always sees the same variates no matter in what
order replicates execute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily; load it here so the cost falls at import
import numpy.random  # noqa: F401

from .base import check_alpha

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Key of one reproducible stream: a base seed and a stream (replicate) id."""

    base_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("base_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _UINT64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")


def make_stream(seed: SeedSpec | int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for (base_seed, stream_id).

    Identical keys give bit-identical streams; distinct stream ids give
    independent streams. Accepts either a SeedSpec or a bare base seed.
    """
    if not isinstance(seed, SeedSpec):
        seed = SeedSpec(int(seed), stream_id)
    key = np.array([seed.base_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Erlang (integer-shape gamma, scale 1) distribution functions.
#
# The blocked test compares a sum of k block statistics against gamma(k,1)
# quantiles, so only integer shapes are ever needed and the closed form
#   P(G <= x) = 1 - e^(-x) * sum_{i<k} x^i / i!
# applies. Sums are accumulated as Poisson probabilities so no term exceeds 1.
# ---------------------------------------------------------------------------


def _check_shape(k: int) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"shape k must be a positive integer, got {k!r}")
    if k < 1:
        raise ValueError(f"shape k must be >= 1, got {k}")
    return int(k)


def gamma_cdf(x: float, k: int) -> float:
    """CDF of gamma(k, 1) at x for integer k >= 1."""
    k = _check_shape(k)
    x = float(x)
    if math.isnan(x) or x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x <= k:
        # Lower tail. Summing P(Poisson(x) >= k) forward keeps full relative
        # accuracy; the 1 - sum route would cancel to noise below ~1e-16.
        # The first term is built in log space so deep-tail values survive.
        lg = -x + k * math.log(x) - math.lgamma(k + 1)
        term = math.exp(lg)
        total = 0.0
        i = k
        while term > 0.0:
            total += term
            i += 1
            term *= x / i
            if term < total * 1e-18:
                break
        return min(1.0, total)
    if x > 700.0:
        # e^(-x) underflows; work with log Poisson terms instead.
        logs = [-x + i * math.log(x) - math.lgamma(i + 1) for i in range(k)]
        m = max(logs)
        if m < -745.0:
            return 1.0
        tail = math.exp(m) * math.fsum(math.exp(v - m) for v in logs)
        return min(1.0, max(0.0, 1.0 - tail))
    # Upper half (x > k): the survival sum is below 1/2, so no cancellation.
    term = math.exp(-x)  # Poisson(x) pmf at 0
    total = term
    for i in range(1, k):
        term *= x / i
        total += term
    return min(1.0, max(0.0, 1.0 - total))


def _gamma_pdf(x: float, k: int) -> float:
    """Density of gamma(k, 1): the Poisson(x) pmf at k-1."""
    if x <= 0.0:
        return 0.0 if k > 1 else math.exp(-x)
    lg = -x + (k - 1) * math.log(x) - math.lgamma(k)
    return math.exp(lg) if lg > -745.0 else 0.0


def gamma_quantile(p: float, k: int) -> float:
    """Inverse CDF of gamma(k, 1) for integer k, to absolute tolerance 1e-10.

    Brackets the root then polishes with Newton steps on the closed-form CDF,
    falling back to bisection whenever a step leaves the bracket.
    """
    k = _check_shape(k)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if k == 1:
        return -math.log1p(-p)

    lo, hi = 0.0, float(k)
    while gamma_cdf(hi, k) < p:
        lo = hi
        hi *= 2.0
    x = 0.5 * (lo + hi)
    for _ in range(200):
        f = gamma_cdf(x, k) - p
        if abs(f) <= 1e-12:
            break
        if f > 0.0:
            hi = x
        else:
            lo = x
        d = _gamma_pdf(x, k)
        step = x - f / d if d > 0.0 else math.nan
        x = step if lo < step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return x


def erlang_criticals(alpha: float, k: int) -> tuple[float, float]:
    """Lower and upper gamma(k,1) critical values at one-sided level alpha.

    At k=1 the exact exponential-quantile forms are returned so the blocked
    test reduces bitwise to the plain test's thresholds.
    """
    alpha = check_alpha(alpha)
    k = _check_shape(k)
    if k == 1:
        return -math.log1p(-alpha), -math.log(alpha)
    return gamma_quantile(alpha, k), gamma_quantile(1.0 - alpha, k)
