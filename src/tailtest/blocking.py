"""Blocked variant of the tail test: k block statistics summed against gamma(k,1).

Splitting the sample into k blocks and summing the per-block statistics
sharpens power; under a medium tail the sum is asymptotically gamma(k,1).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .base import BlockTooSmallError, DegenerateSampleError, MaxNotAboveOneError
from .base import TailClass, check_alpha, decide
from .rng import erlang_criticals, gamma_cdf, make_stream
from .tail_test import Sample, as_sample, spacing_statistic

MIN_BLOCK = 3  # a block needs X_(n), X_(n-1) and a nondegenerate survival


@dataclass(frozen=True)
class BlockedTestResult:
    k: int
    block_stats: tuple[float, ...]
    sum_stat: float
    lower_crit: float
    upper_crit: float
    decision: TailClass
    block_sizes: tuple[int, ...]
    alpha: float
    p_short: float
    p_long: float


def block_sizes(n: int, k: int) -> tuple[int, ...]:
    """Sizes of k blocks covering n points, larger blocks first, differing by <= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n // k < MIN_BLOCK:
        raise BlockTooSmallError(
            f"k={k} leaves blocks of fewer than {MIN_BLOCK} points for n={n}; "
            f"largest feasible k is {max(1, n // MIN_BLOCK)}"
        )
    base, extra = divmod(n, k)
    return tuple(base + 1 for _ in range(extra)) + tuple(base for _ in range(k - extra))


def block_slices(n: int, k: int) -> list[slice]:
    """Slices that cut n points into the blocks of block_sizes(n, k), in order."""
    bounds = (0, *accumulate(block_sizes(n, k)))
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def partition(sample, k: int, strategy: str = "shuffle", seed: int = 0) -> list[Sample]:
    """Split a sample into k blocks of near-equal size.

    'sequential' slices the values in input order; 'shuffle' (default)
    permutes them first with the given seed, which protects real, possibly
    time-ordered data against serial structure. For i.i.d. data the two are
    equivalent in law.
    """
    s = as_sample(sample)
    slices = block_slices(s.n, k)
    if strategy == "sequential":
        values = s.values.view()
    elif strategy == "shuffle":
        values = make_stream(int(seed)).permutation(s.values)
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}")

    values.setflags(write=False)  # and so every block, a view into it
    return [Sample(values=values[sl], shift=s.shift, n=sl.stop - sl.start) for sl in slices]


def block_statistics(blocks, smallmax: str = "error") -> list[float] | None:
    """The statistic T of each 1-D block, in order, under a small-maximum policy.

    Returns None as soon as a block is called Short (see spacing_statistic).
    A block the kernel refuses raises its error with a "block j of k: " prefix.
    """
    stats = []
    for j, block in enumerate(blocks):
        try:
            piece = spacing_statistic(block, smallmax)
        except (DegenerateSampleError, MaxNotAboveOneError) as exc:
            raise type(exc)(f"block {j + 1} of {len(blocks)}: {exc}") from exc
        if piece is None:
            return None
        stats.append(piece[0])
    return stats


def blocked_test(
    sample,
    k: int,
    alpha: float = 0.05,
    strategy: str = "shuffle",
    seed: int = 0,
) -> BlockedTestResult:
    """Sum the k block statistics and compare against gamma(k,1) quantiles.

    Any block whose maximum is not above 1 aborts the whole test (dropping
    blocks would silently change k and with it the null law); the error
    message names the offending block.
    """
    alpha = check_alpha(alpha)
    blocks = partition(sample, k, strategy=strategy, seed=seed)
    stats = block_statistics([b.values for b in blocks])

    total = float(sum(stats))
    lower, upper = erlang_criticals(alpha, k)
    p_short = gamma_cdf(max(total, 0.0), k)
    return BlockedTestResult(
        k=k,
        block_stats=tuple(stats),
        sum_stat=total,
        lower_crit=lower,
        upper_crit=upper,
        decision=decide(total, lower, upper),
        block_sizes=tuple(b.n for b in blocks),
        alpha=alpha,
        p_short=p_short,
        p_long=1.0 - p_short,
    )


def recommend_blocks(n: int) -> tuple[int, int]:
    """Recommended inclusive range of block counts for a sample of size n.

    Guidance is 5-10 blocks, clipped so blocks hold at least 30 points;
    below n=150 the advice drops toward the unblocked test.
    """
    if n < 15:
        raise ValueError(f"too few points to recommend blocking, got n={n}")
    if n < 150:
        return (1, max(1, n // 30))
    return (min(5, n // 30), min(10, n // 30))
