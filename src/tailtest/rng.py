"""Seeded random streams plus the Erlang distribution functions the tests rely on.

Counter-based Philox streams are keyed by (base_seed, stream_id), so replicate r
sees the same variates in any order. Monte Carlo loops re-key one bit generator per
replicate to (base_seed, r), counter 0: bit-identical to make_stream(SeedSpec(base_seed, r)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import check_alpha, check_integer

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
    k = check_integer("shape k", k)
    if k < 1:
        raise ValueError(f"shape k must be >= 1, got {k}")
    return k


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


def _log_tail(x: float, k: int, upper: bool) -> tuple[float, float]:
    """log P(G <= x), or log P(G > x) if `upper`, for G ~ gamma(k, 1) and x > 0, and its
    derivative in x. The Poisson(x) sum P(N >= k), or P(N < k), is taken relative to its
    term at k, or at k - 1, whose log is exact, so no tail underflows."""
    rel, term = 0.0, 1.0
    if upper:  # sum over i < k of x^(i - k + 1) (k - 1)! / i!, largest at x > k - 1
        for i in range(k - 1, -1, -1):
            rel += term
            term *= i / x
        return -x + (k - 1) * math.log(x) - math.lgamma(k) + math.log(rel), -1.0 / rel
    i = k
    while term > rel * 1e-18:  # sum over i >= k of x^(i - k) k! / i!
        rel += term
        i += 1
        term *= x / i
    return -x + k * math.log(x) - math.lgamma(k + 1) + math.log(rel), k / (x * rel)


def _tail_root(alpha: float, k: int, upper: bool) -> float:
    """The x where gamma(k, 1)'s lower tail, or upper tail if `upper`, equals alpha <= 1/2.

    Newton steps on log(tail / alpha), concave in x as the density is log-concave, so each
    step nears the root from one side: from (alpha k!)^(1/k), where the lower tail is below
    x^k / k! = alpha, and, for the upper tail, from k after one step. Stops one step after
    the tail is within 1e-13 * (x - log alpha) of alpha relative to alpha, a bound that
    grows with the logs whose difference gives the gap, and so with its rounding.
    """
    log_alpha = math.log(alpha)
    x = float(k) if upper else math.exp((log_alpha + math.lgamma(k + 1)) / k)
    for _ in range(100):
        log_tail, slope = _log_tail(x, k, upper)
        gap = log_tail - log_alpha
        done = abs(gap) <= 1e-13 * (x - log_alpha)
        x -= gap / slope
        if done:
            break
    return x


def gamma_quantile(p: float, k: int) -> float:
    """Inverse CDF of gamma(k, 1) for integer k, solved on the tail below 1/2 to a
    relative tolerance of 1e-13 in that tail's probability."""
    k = _check_shape(k)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if k == 1:
        return -math.log1p(-p)
    return _tail_root(p, k, False) if p <= 0.5 else _tail_root(1.0 - p, k, True)


def erlang_criticals(alpha: float, k: int) -> tuple[float, float]:
    """Lower and upper gamma(k,1) critical values at one-sided level alpha, each
    solved on the tail that holds alpha, so a small alpha keeps its relative accuracy.

    At k=1 the exact exponential-quantile forms are returned so the blocked
    test reduces bitwise to the plain test's thresholds.
    """
    alpha = check_alpha(alpha)
    k = _check_shape(k)
    if k == 1:
        return -math.log1p(-alpha), -math.log(alpha)
    return _tail_root(alpha, k, False), _tail_root(alpha, k, True)
