"""Blocked variant of the tail test: k block statistics summed against gamma(k,1).

Splitting the sample into k blocks and summing the per-block statistics
sharpens power; under a medium tail the sum is asymptotically gamma(k,1).
blocked_test and the Monte Carlo engine both score blocks with block_scores, each
block's T, outcome code and maximum; a replicate with a nonzero code is decided by
its first such block (first_verdicts): Short, or the exception blocked_test raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .base import BlockTooSmallError, TailClass, check_alpha, decide
from .rng import erlang_criticals, gamma_cdf, make_stream
from .tail_test import Sample, as_sample, spacing_rows, verdict

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
    if n < MIN_BLOCK:
        raise BlockTooSmallError(f"n={n} is below the {MIN_BLOCK}-point minimum of a block")
    if n // k < MIN_BLOCK:
        raise BlockTooSmallError(
            f"k={k} leaves blocks of fewer than {MIN_BLOCK} points for n={n}; "
            f"largest feasible k is {max(1, n // MIN_BLOCK)}"
        )
    base, extra = divmod(n, k)
    return tuple(base + 1 for _ in range(extra)) + tuple(base for _ in range(k - extra))


def partition(sample, k: int, strategy: str = "shuffle", seed: int = 0) -> list[Sample]:
    """Split a sample into k blocks of near-equal size.

    'sequential' slices the values in input order; 'shuffle' (default)
    permutes them first with the given seed, which protects real, possibly
    time-ordered data against serial structure. For i.i.d. data the two are
    equivalent in law.
    """
    s, values, sizes = _arrange(sample, k, strategy, seed)
    bounds = (0, *accumulate(sizes))
    return [Sample(values[a:b], s.shift, b - a) for a, b in zip(bounds, bounds[1:])]


def _arrange(sample, k: int, strategy: str, seed: int):
    """The Sample, its values in block order (read-only) and the block sizes."""
    s = as_sample(sample)
    sizes = block_sizes(s.n, k)
    if strategy == "sequential":
        values = s.values.view()
    elif strategy == "shuffle":
        values = make_stream(int(seed)).permutation(s.values)
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    values.setflags(write=False)  # and so every block, a view into it
    return s, values, sizes


def block_rows(values: np.ndarray, k: int) -> list[np.ndarray]:
    """The blocks of block_sizes(n, k) of each row of a (reps, n) array, one per
    row: one (reps * k, base) array, or, when k does not divide n, the blocks of
    base+1 values then those of base values. Callers check k; no copy of one row.
    """
    reps, n = values.shape
    base, extra = divmod(n, k)
    cut = extra * (base + 1)
    tail = values[:, cut:].reshape(reps * (k - extra), base)
    return [values[:, :cut].reshape(reps * extra, base + 1), tail] if extra else [tail]


def block_scores(values: np.ndarray, k: int, smallmax: str):
    """Each block's T, outcome code and maximum (tail_test.spacing_rows) for every row of
    a (reps, n) array: three (reps, k) arrays, blocks in order, from one kernel call per
    block size (block_rows). A T stands where its code is 0; callers check k."""
    columns = []
    for blocks in block_rows(values, k):
        stats, code, part, *_ = spacing_rows(blocks, smallmax)
        columns.append([a.reshape(len(values), -1) for a in (stats, code, part[:, -1])])
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*columns))


def first_verdicts(codes: np.ndarray, maxima: np.ndarray, k: int) -> list:
    """(r, verdict) for each row r of block_scores with a nonzero code, in order: the
    tail_test.verdict of its first such block, named "block j of k: "."""
    rows = np.flatnonzero(codes.any(axis=1))
    first = (codes[rows] != 0).argmax(axis=1)
    return [(r, verdict(code, mx, f"block {j + 1} of {k}: ")) for r, j, code, mx in zip(
        rows.tolist(), first.tolist(), codes[rows, first].tolist(), maxima[rows, first].tolist())]


def block_statistics(values: np.ndarray, k: int, smallmax: str = "error") -> list[float] | None:
    """T of each block of block_sizes(values.size, k), in order; callers check k. None
    if the first block the rule decides is Short; its exception if it is refused."""
    stats, codes, maxima = block_scores(values[np.newaxis], k, smallmax)
    if not np.count_nonzero(codes):
        return stats[0].tolist()
    [(_, out)] = first_verdicts(codes, maxima, k)
    if out is TailClass.SHORT:
        return None
    raise out


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
    _, values, sizes = _arrange(sample, k, strategy, seed)
    stats = block_statistics(values, k)

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
        block_sizes=sizes,
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
