"""The tail test: extreme spacing times an estimated exponential rate, plain and blocked.

The statistic is T_n = theta_hat * (X_(n) - X_(n-1)) with theta_hat =
-ln F_n(ln X_(n)) / ln X_(n), F_n the empirical survival function. Under a medium
tail T_n is asymptotically Exp(1); very small values point to a short tail, very
large ones to a long tail. spacing_rows computes T and states the rule for a maximum
not above 1 (SMALLMAX_POLICIES); verdict writes the error of a row the rule refuses.

The blocked test compares the sum of k block T's, which sharpens power, with
gamma(k,1). At k = 1 that law is Exp(1), so tail_test is blocked_test on one block, in
order. Both tests and the Monte Carlo engine score blocks with block_scores, which
adds each replicate's block T's left to right. A replicate with a nonzero outcome code
is decided by its first such block, whose code, index and maximum block_scores
returns: Short, or the error verdict gives.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .base import BlockTooSmallError, DegenerateSampleError, MaxNotAboveOneError
from .base import NonFiniteDrawError, TailClass, check_alpha, check_integer, check_real, decide
from .base import EQUAL, NONFINITE, REFUSED, SCORED, SHORT, listed
from .rng import SeedSpec, erlang_criticals, erlang_tails, make_stream


class Sample(NamedTuple):
    """A validated dataset: `values`, a read-only array of the data less `shift`."""

    values: np.ndarray
    shift: float
    n: int


def shift_sample(values, mode=None) -> Sample:
    """Build a Sample, optionally shifting: mode None (no shift), "min", or a real number.

    "min" subtracts the smallest observation (leaving it at exactly 0);
    a number c subtracts c from every value. Anything else check_real refuses, any
    other str and a bool too: cli._shift is the one reader of --shift's words.
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
    else:
        shift = check_real("shift", mode)

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
    return values if isinstance(values, Sample) else shift_sample(values, None)


class TailTestResult(NamedTuple):
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
SMALLMAX_POLICIES = tuple(_RULE)  # the policy names smallmax takes


def spacing_rows(blocks: np.ndarray, smallmax: str):
    """For a 2-D array with one block (>= 2 values) per row: each row's T and outcome
    code, each row's top two as a (rows, 2) array [X_(n-1), X_(n)], and each row's
    theta_hat and F_n(ln X_(n)). `blocks` is only read, so it may be a read-only view.

    The one place T is computed: argmax finds X_(n), the first of a tied maximum (a NaN
    counts as largest), and the value at the argmax of a copy with that one value set to
    -inf is X_(n-1), equal to X_(n) when the maximum is tied; one comparison counts the
    values above ln X_(n). Logs are math.log: ln X_(n) is taken for SCORED rows only, and
    ln F_n(ln X_(n)) = math.log(c / m) is read from survival_logs by the clipped count c.
    The rest is correctly rounded: T is the formula in Python floats to the bit.

    The one statement of the small-maximum rule too: the formula needs ln X_(n)
    defined and nonzero, and under `smallmax` a maximum <= 1 is REFUSED ('error'),
    SHORT in (0, 1] ('short'), or SCORED in (0, 1) as written ('raw'); any other is
    REFUSED. A row of equal values is EQUAL, one with a maximum not finite NONFINITE,
    and one whose top two tie SCORED with T = 0 if its maximum is. Only a SCORED T stands.
    """
    reps, m = blocks.shape
    knock = blocks.copy()
    at = np.arange(reps), blocks.argmax(axis=1)
    mx = knock[at]
    knock[at] = -np.inf
    second = knock[at[0], knock.argmax(axis=1)]
    del knock  # before the survival count's array, so the two never coexist
    tops = np.array([second, mx]).T
    code = _RULE[smallmax][np.searchsorted(_MAX_EDGES, mx)]
    if np.count_nonzero(tied := second == mx):  # row minima only where the top two tie
        rows = np.flatnonzero(tied)
        code[rows[blocks[rows].min(axis=1) == mx[rows]]] = EQUAL
    if not np.count_nonzero(scored := code == SCORED):  # the rule decides every row, reading no T
        return np.zeros(reps), code, tops, None, None
    # ln X_(n) of a SCORED row, else NaN; X_(n) > ln X_(n) counts itself, a NaN row nothing
    logs = np.fromiter(map(math.log, np.where(scored, mx, math.nan).tolist()), float, reps)
    count = np.maximum((blocks > logs[:, np.newaxis]).sum(axis=1, dtype=np.int32), 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as Python floats give
        # survival 1 (nothing at or below ln X_(n)) gives theta 0; `0.0 -` clears a -0.0
        theta = 0.0 - survival_logs(count, m) / logs
        return theta * (mx - second), code, tops, theta, count / m


# block size m: math.log(max(c, 1) / m) by count c, empty after the first call at m
_SURVIVAL_LOGS: dict[int, np.ndarray] = {}
_NO_COUNTS = np.empty(0)


def survival_logs(count: np.ndarray, m: int) -> np.ndarray:
    """math.log(c / m) for each survival count c of `count` (1 <= c <= m), bit for bit.

    A block of m values has only m survivals, so from the second call at m on they are
    read from a table per m, built with math.log, not taken row by row. The first call
    at m takes math.log of each row's c / m and builds no table: a single-sample test
    calls once per block size, and building costs more than its few rows. The table ends
    at the largest count met so far and, when a count lies past its end, is rebuilt at
    least twice as long (at most m + 1)."""
    table = _SURVIVAL_LOGS.get(m)
    if table is None:
        _SURVIVAL_LOGS[m] = _NO_COUNTS
        return np.array(list(map(math.log, (count / m).tolist())))
    try:
        return table[count]
    except IndexError:  # a count past the table's end: grow it
        top = min(m, max(max(count.tolist()), 2 * len(table)))
        table = _SURVIVAL_LOGS[m] = np.fromiter(
            (math.log(max(c, 1) / m) for c in range(top + 1)), float, top + 1)
        return table[count]


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


MIN_BLOCK = 3  # a block needs X_(n), X_(n-1) and a nondegenerate survival


class BlockedTestResult(NamedTuple):
    """The block T's, the facts behind each (its maximum, spacing X_(n) - X_(n-1), 0 at a
    tie, theta_hat and F_n(ln X_(n))), their sum and its critical values; the CLI's text
    lists them in this order."""

    k: int
    block_sizes: tuple[int, ...]
    block_stats: tuple[float, ...]
    maxima: tuple[float, ...]
    spacings: tuple[float, ...]
    theta_hats: tuple[float, ...]
    survivals: tuple[float, ...]
    sum_stat: float
    lower_crit: float
    upper_crit: float
    p_short: float
    p_long: float
    decision: TailClass
    alpha: float


def block_sizes(n: int, k: int) -> tuple[int, ...]:
    """Sizes of k blocks covering n points, larger blocks first, differing by <= 1."""
    k = check_integer("k", k, 1)
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
    equivalent in law. Each block is a row of block_rows, a read-only view.
    """
    s, values, _ = _arrange(sample, k, strategy, seed)
    return [Sample(b, s.shift, b.size) for rows in block_rows(values[np.newaxis], k) for b in rows]


def _arrange(sample, k: int, strategy: str, seed: int, shuffle: bool = True):
    """The Sample, its values in block order (read-only) and the block sizes; with `shuffle`
    False the values stay in order under either strategy, and the seed is checked all the same."""
    s = as_sample(sample)
    sizes = block_sizes(s.n, k)
    seed = SeedSpec(seed)
    if strategy not in ("sequential", "shuffle"):
        raise ValueError(f"unknown partition strategy {strategy!r}")
    if strategy == "shuffle" and shuffle:
        values = make_stream(seed).permutation(s.values)
    else:
        values = s.values.view()
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
    """Each block's T (spacing_rows) for every row of a (reps, n) array: a
    (reps, k) array, blocks in order, from one kernel call per block size (block_rows),
    and each row's total of them, added left to right by np.add.accumulate: the same
    float on every Python and numpy version, where Python's sum compensates from 3.12
    on and its last digit can differ. Then None when every block's
    outcome code is 0, else each row's first nonzero code (0 when all its T's stand),
    that block's index and its maximum. Last, per block size, each block's top two,
    theta_hat and survival from the kernel (None where it read no T), which the engine
    ignores and blocked_test reads. Callers check k."""
    columns, kernel = [], []
    for blocks in block_rows(values, k):
        stats, code, tops, theta, surv = spacing_rows(blocks, smallmax)
        columns.append([a.reshape(len(values), -1) for a in (stats, code, tops[:, 1])])
        kernel.append((tops, theta, surv))
    stats, codes, maxima = (np.concatenate(arrays, axis=1) for arrays in zip(*columns))
    # accumulate adds in order on every Python and numpy version (a reduce adds pairwise)
    totals = np.add.accumulate(stats, axis=1)[:, -1]
    if not np.count_nonzero(codes):
        return stats, totals, None, kernel
    rows, block = np.arange(len(codes)), (codes != 0).argmax(axis=1)
    return stats, totals, (codes[rows, block], block, maxima[rows, block]), kernel


def blocked_test(
    sample,
    k: int,
    alpha: float = 0.05,
    strategy: str = "shuffle",
    seed: int = 0,
) -> BlockedTestResult:
    """Sum the k block statistics and compare against gamma(k,1) quantiles.

    Any block whose maximum is not above 1 aborts the whole test (dropping
    blocks would silently change k and with it the null law); when k > 1 the
    error message names the offending block, and at k = 1 it is tail_test's. At k = 1
    the sample is read in order under either strategy: no statistic depends on it.
    The one single-sample path: block_scores under 'error', which calls no block Short,
    so every block is scored or verdict's error for the first refused one is raised;
    each block's maximum, spacing, theta_hat and survival come from the kernel.
    """
    alpha = check_alpha(alpha)
    _, values, sizes = _arrange(sample, k, strategy, seed, k > 1)
    scores, totals, refused, kernel = block_scores(values[np.newaxis], k, "error")
    if refused is not None:  # under 'error' no code is SHORT
        code, block, mx = (a.item(0) for a in refused)
        raise verdict(code, mx, block, k if k > 1 else 0)

    # one row, so the kernel's rows are its blocks in order, each scored; the spacings
    # are Python floats' (numpy's subtraction warns where one overflows to inf)
    tops = [row for top2, _, _ in kernel for row in top2.tolist()]
    total = totals.item(0)
    lower, upper = erlang_criticals(alpha, k)
    p_short, p_long = erlang_tails(total, k)
    return BlockedTestResult(
        k=len(sizes), block_sizes=sizes, block_stats=tuple(scores[0].tolist()),
        maxima=tuple(mx for _, mx in tops),
        spacings=tuple(mx - second for second, mx in tops),
        theta_hats=tuple(x for _, theta, _ in kernel for x in theta.tolist()),
        survivals=tuple(x for _, _, surv in kernel for x in surv.tolist()),
        sum_stat=total, lower_crit=lower, upper_crit=upper, p_short=p_short, p_long=p_long,
        decision=decide(total, lower, upper), alpha=alpha)


def tail_test(sample, alpha: float = 0.05) -> TailTestResult:
    """Run the spacing test on a sample (n >= 3, maximum > 1): blocked_test on one
    block, in order, read as the plain result; it refuses what blocked_test does, n < 3 too."""
    res = blocked_test(sample, 1, alpha, strategy="sequential")
    spacing = res.spacings[0]
    return TailTestResult(
        t_stat=res.sum_stat, theta_hat=res.theta_hats[0], spacing=spacing,
        surv_at_log_max=res.survivals[0], p_short=res.p_short, p_long=res.p_long,
        decision=res.decision, alpha=res.alpha, n=res.block_sizes[0], tied_max=spacing == 0.0)


def recommend_blocks(n: int) -> tuple[int, int]:
    """Recommended inclusive range of block counts for a sample of size n.

    Guidance is 5-10 blocks, clipped so blocks hold at least 30 points;
    below n=150 the advice drops toward the unblocked test. n must be an integer >= 15.
    """
    n = check_integer("n", n, 15)
    if n < 150:
        return (1, max(1, n // 30))
    return (min(5, n // 30), min(10, n // 30))
