"""Seeded random streams plus the Erlang tails and critical values the tests rely on.

Counter-based Philox streams are keyed by (base_seed, stream_id), so replicate r
sees the same variates in any order. distributions.replicate_chunks makes the streams
of Monte Carlo replicates, each bit-identical to make_stream(SeedSpec(base_seed, r)).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .base import Validated, check_alpha, check_integer, check_real

_UINT64_MAX = 2**64 - 1


class SeedSpec(Validated, NamedTuple("SeedSpec", [("base_seed", int), ("stream_id", int)])):
    """Key of one reproducible stream: a base seed and a stream (replicate) id."""

    __slots__ = ()

    def __new__(cls, base_seed: int, stream_id: int = 0):
        # base_seed is what every command's seed option and a plan's seed key set
        for name, v in (("seed", base_seed), ("stream_id", stream_id)):
            if not 0 <= check_integer(name, v) <= _UINT64_MAX:
                raise ValueError(f"{name} must be an integer from 0 to 2**64 - 1, got {v!r}")
        return super().__new__(cls, base_seed, stream_id)


def make_stream(seed: SeedSpec | int) -> np.random.Generator:
    """Return the generator for a SeedSpec's (base_seed, stream_id), or a bare base seed's stream 0.

    Identical keys give bit-identical streams; distinct stream ids give independent streams.
    """
    if not isinstance(seed, SeedSpec):
        seed = SeedSpec(seed)
    key = np.array([seed.base_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Erlang (integer-shape gamma, scale 1) distribution functions.
#
# The blocked test compares a sum of k block statistics against gamma(k,1), and the
# plain test its T against gamma(1,1) = Exp(1), so only integer shapes are needed:
#   P(G <= x) = P(N >= k) and P(G > x) = P(N < k) for N ~ Poisson(x).
# _log_tail sums either tail in log space, relative to its term at k or k - 1, so
# none underflows; the p-values and the critical values both rest on it.
# ---------------------------------------------------------------------------


def erlang_tails(x: float, k: int) -> tuple[float, float]:
    """P(G <= x) and P(G > x) for G ~ gamma(k, 1), integer k >= 1, and x >= 0.

    The tail on x's side of k is summed by _log_tail, so however small it keeps its
    relative accuracy; the other tail is 1 minus it. At k=1 and x > 1 the upper
    tail is exp(-x) to the bit.
    """
    k = check_integer("shape k", k, 1)
    x = check_real("x", x)
    if math.isnan(x) or x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    upper = x > k
    tail = math.exp(_log_tail(x, k, upper)[0])
    return (1.0 - tail, tail) if upper else (tail, 1.0 - tail)


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


def erlang_criticals(alpha: float, k: int) -> tuple[float, float]:
    """Lower and upper gamma(k,1) critical values at one-sided level alpha, each
    solved on the tail that holds alpha, so a small alpha keeps its relative accuracy.

    At k=1 the exact exponential-quantile forms are returned so the blocked
    test reduces bitwise to the plain test's thresholds.
    """
    alpha = check_alpha(alpha)
    k = check_integer("shape k", k, 1)
    if k == 1:
        return -math.log1p(-alpha), -math.log(alpha)
    return _tail_root(alpha, k, False), _tail_root(alpha, k, True)
