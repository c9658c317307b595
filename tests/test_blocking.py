"""Blocked variant: partitioning, gamma(k,1) thresholds, k=1 equivalence."""
import builtins
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import (
    BlockTooSmallError,
    DegenerateSampleError,
    MaxNotAboveOneError,
    Sample,
    TailClass,
    TailTestResult,
    blocked_test,
    partition,
    recommend_blocks,
    shift_sample,
    tail_test,
)
from tailtest.base import SHORT
from tailtest.blocking import verdict
from tailtest.blocking import block_scores, block_sizes
from tailtest.cli import read_dataset
from tailtest.distributions import parse_spec, sample as draw
from tailtest.power import SimulationPlan, run_plan
from tailtest.rng import SeedSpec, erlang_criticals, erlang_tails

from . import oracles
from .test_golden import GOLDEN

E = math.e


class TestBlockSizes:
    def test_even_split(self):
        assert block_sizes(10, 2) == (5, 5)

    def test_remainder_goes_to_leading_blocks(self):
        assert block_sizes(11, 2) == (6, 5)
        assert block_sizes(17, 5) == (4, 4, 3, 3, 3)

    def test_single_block(self):
        assert block_sizes(7, 1) == (7,)

    def test_too_small_names_feasible_k(self):
        with pytest.raises(BlockTooSmallError, match="largest feasible k is 3"):
            block_sizes(10, 4)
        with pytest.raises(BlockTooSmallError, match="largest feasible k is 33"):
            block_sizes(100, 40)

    @pytest.mark.parametrize("n", [0, 2])
    def test_n_below_block_minimum_suggests_no_k(self, n):
        for k in (1, 5):
            with pytest.raises(BlockTooSmallError) as exc:
                block_sizes(n, k)
            assert str(exc.value) == f"n={n} is below the 3-point minimum of a block"

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            block_sizes(10, 0)

    @given(n=st.integers(min_value=3, max_value=5000), k=st.integers(min_value=1, max_value=100))
    @settings(max_examples=200)
    def test_partition_arithmetic(self, n, k):
        if n // k < 3:
            with pytest.raises(BlockTooSmallError):
                block_sizes(n, k)
            return
        sizes = block_sizes(n, k)
        assert len(sizes) == k
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert list(sizes) == sorted(sizes, reverse=True)


class TestPartition:
    def test_sequential_preserves_order(self):
        blocks = partition([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, strategy="sequential")
        assert list(blocks[0].values) == [1.0, 2.0, 3.0]
        assert list(blocks[1].values) == [4.0, 5.0, 6.0]

    def test_shuffle_is_seeded_permutation(self):
        data = list(range(1, 13))
        a = partition(data, 3, strategy="shuffle", seed=4)
        b = partition(data, 3, strategy="shuffle", seed=4)
        c = partition(data, 3, strategy="shuffle", seed=5)
        flat_a = np.concatenate([blk.values for blk in a])
        flat_b = np.concatenate([blk.values for blk in b])
        flat_c = np.concatenate([blk.values for blk in c])
        assert np.array_equal(flat_a, flat_b)
        assert not np.array_equal(flat_a, flat_c)
        assert sorted(flat_a) == data  # a permutation, nothing lost

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            partition([1.0, 2.0, 3.0], 1, strategy="sorted")

    @pytest.mark.parametrize("strategy", ["sequential", "shuffle"])
    def test_blocks_are_read_only_and_leave_input_writable(self, strategy):
        given = Sample(values=np.arange(1.0, 7.0), shift=0.0, n=6)
        for block in partition(given, 2, strategy=strategy):
            with pytest.raises(ValueError):
                block.values[0] = 99.0
        given.values[0] = 99.0


class TestBlockedEquivalence:
    @pytest.mark.parametrize("x", [draw(parse_spec("exp:1"), 200, SeedSpec(31)),
                                   np.array([1.5, 3.0, 2.0, 3.0])], ids=["exp", "tied"])
    def test_k1_matches_plain_test_bitwise(self, x):
        plain = tail_test(x)
        blocked = blocked_test(x, 1)
        assert blocked.sum_stat == plain.t_stat
        assert blocked.block_stats == (plain.t_stat,)
        assert blocked.decision is plain.decision
        assert (blocked.lower_crit, blocked.upper_crit) == erlang_criticals(0.05, 1)
        # every field of the plain result is the one block's fact
        assert plain == TailTestResult(
            t_stat=blocked.block_stats[0], theta_hat=blocked.theta_hats[0],
            spacing=blocked.spacings[0], surv_at_log_max=blocked.survivals[0],
            p_short=blocked.p_short, p_long=blocked.p_long, decision=blocked.decision,
            alpha=blocked.alpha, n=blocked.block_sizes[0], tied_max=blocked.spacings[0] == 0.0)
        assert blocked.maxima == (x.max(),)
        assert plain.tied_max is (x.tolist().count(x.max()) > 1)

    @pytest.mark.parametrize("x", [[2.0, 2.0, 2.0], [-3.0, -1.0, -0.5], [-3.0, -1.0, 0.0],
                                   [0.1, 0.5, 0.9], [0.1, 0.5, 1.0]],
                             ids=["all_equal", "max_negative", "max_zero", "max_in_0_1", "max_1"])
    def test_k1_refuses_in_the_plain_test_words(self, x):
        # one block is named as none: the error is tail_test's, type and message
        with pytest.raises(ValueError) as plain:
            tail_test(x)
        with pytest.raises(ValueError) as blocked:
            blocked_test(x, 1, strategy="sequential")
        assert type(blocked.value) is type(plain.value)
        assert str(blocked.value) == str(plain.value)
        assert not str(plain.value).startswith("block")

    @pytest.mark.parametrize("seed", [0, 4, 2**40])
    def test_k1_shuffle_reads_the_sample_in_order(self, seed, monkeypatch):
        # no statistic at k = 1 depends on order, so no stream is built to permute it
        x = draw(parse_spec("exp:1"), 200, SeedSpec(31))
        expected = blocked_test(x, 1, strategy="sequential")

        def no_stream(*args):
            raise AssertionError("blocked_test built a stream at k = 1")

        monkeypatch.setattr("tailtest.blocking.make_stream", no_stream)
        assert blocked_test(x, 1, strategy="shuffle", seed=seed) == expected
        assert blocked_test(x, 1, seed=seed) == expected

    def test_k1_refuses_an_unknown_strategy(self):
        with pytest.raises(ValueError, match="^unknown partition strategy 'sorted'$"):
            blocked_test([1.5, 2.0, 3.0], 1, strategy="sorted")

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_k1_equivalence_property(self, seed):
        x = draw(parse_spec("lognormal"), 50, SeedSpec(seed))
        assert blocked_test(x, 1).sum_stat == tail_test(x).t_stat


class TestBlockedKnownAnswers:
    def test_two_identical_blocks(self):
        # each block is {e, e^2, e^3}; the sum doubles the one-block statistic
        x = [E, E**2, E**3, E, E**2, E**3]
        res = blocked_test(x, 2, strategy="sequential")
        assert res.k == 2
        assert res.block_sizes == (3, 3)
        assert res.block_stats == pytest.approx((oracles.T_STAT_E_E2_E3,) * 2, abs=1e-12)
        assert res.sum_stat == pytest.approx(2 * oracles.T_STAT_E_E2_E3, abs=1e-12)
        assert res.lower_crit == pytest.approx(oracles.erlang_quantile_ref(0.05, 2), abs=1e-9)
        assert res.upper_crit == pytest.approx(oracles.erlang_quantile_ref(0.95, 2), abs=1e-9)
        assert res.decision is TailClass.MEDIUM
        assert res.p_short == pytest.approx(oracles.erlang_cdf_ref(res.sum_stat, 2), abs=1e-12)
        assert res.p_long == pytest.approx(1 - res.p_short, abs=1e-12)

    def test_numpy_count_gives_a_python_int_k(self):
        # k is stored as an int, like every count the library returns, so the result
        # dumps to JSON as the one at k = 5 does
        values, _ = read_dataset(str(GOLDEN.parents[1] / "data/synthetic/fibers.txt"))
        res = blocked_test(values, np.int64(5))
        assert type(res.k) is int
        assert json.dumps(res._asdict()) == json.dumps(blocked_test(values, 5)._asdict())

    def test_block_with_small_max_aborts_whole_test(self):
        # second block's maximum is 0.9, so the whole test must refuse
        x = [2.0, 3.0, 4.0, 0.1, 0.5, 0.9]
        with pytest.raises(ValueError, match="block 2 of 2"):
            blocked_test(x, 2, strategy="sequential")

    def test_infinite_sum_is_long_with_p_long_zero(self):
        # the first block's spacing overflows to inf, so T and the sum are inf
        x = [-1.7e308, -1.7e308, 1.7e308, 1.0, 2.0, 3.0]
        res = blocked_test(x, 2, strategy="sequential")
        assert res.sum_stat == math.inf
        assert res.decision is TailClass.LONG
        assert (res.p_short, res.p_long) == (1.0, 0.0)

    def test_alpha_checked_before_split(self):
        # the message carries no block prefix, and alpha is checked before k
        x = np.arange(2.0, 14.0)
        for k in (2, 100):
            with pytest.raises(ValueError) as info:
                blocked_test(x, k, alpha=0.7)
            assert str(info.value) == "alpha must lie in (0, 0.5), got 0.7"

    def test_decision_consistent_with_criticals(self):
        x = draw(parse_spec("exp:1"), 600, SeedSpec(77))
        res = blocked_test(x, 5, strategy="sequential")
        if res.sum_stat < res.lower_crit:
            assert res.decision is TailClass.SHORT
        elif res.sum_stat > res.upper_crit:
            assert res.decision is TailClass.LONG
        else:
            assert res.decision is TailClass.MEDIUM
        assert res.p_short == pytest.approx(erlang_tails(res.sum_stat, 5)[0], abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2000), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_sum_stat_is_sum_of_blocks(self, seed, k):
        x = draw(parse_spec("exp:1"), 120, SeedSpec(seed))
        res = blocked_test(x, k, strategy="sequential")
        assert res.sum_stat == oracles.left_to_right_sum(res.block_stats)
        assert len(res.block_stats) == k


class TestBlockFacts:
    @given(k=st.integers(min_value=1, max_value=8), n_extra=st.integers(min_value=0, max_value=7),
           strategy=st.sampled_from(["sequential", "shuffle"]),
           decimals=st.sampled_from([0, 1, 12]), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_facts_reproduce_each_block_stat(self, k, n_extra, strategy, decimals, seed):
        # values rounded to whole numbers or tenths often tie at the top of a block
        rng = np.random.default_rng(seed)
        values = 1.5 + np.round(rng.exponential(3.0, 3 * k + n_extra), decimals)
        blocks = [b.values for b in partition(values, k, strategy, seed)]
        try:
            res = blocked_test(values, k, strategy=strategy, seed=seed)
        except DegenerateSampleError:
            assert any(b.min() == b.max() for b in blocks)
            return
        facts = (res.maxima, res.spacings, res.theta_hats, res.survivals)
        assert [len(f) for f in facts] == [k] * 4
        for j, block in enumerate(blocks):
            top = np.sort(block)[-2:].tolist()
            assert res.theta_hats[j] * res.spacings[j] == res.block_stats[j]  # bit for bit
            assert res.maxima[j] == block.max() == top[1]
            assert (res.spacings[j] == 0.0) is (top[0] == top[1])
            assert res.survivals[j] == np.count_nonzero(block > math.log(top[1])) / block.size


@st.composite
def blocked_replicates(draw):
    """(k, values) with k up to 30, n often not divisible by k, and blocks that
    are constant, tie at the top, hold a maximum <= 1 (often exactly 1), or
    overflow to inf, among ordinary blocks with values at ln X_(n).

    Hypothesis picks the layout and each block's kind; a seeded generator
    fills in the values, which keeps an example cheap at k = 30.
    """
    k = draw(st.integers(min_value=1, max_value=30))
    base = draw(st.integers(min_value=3, max_value=6))
    extra = draw(st.integers(min_value=0, max_value=k - 1))
    kinds = ["free"] * k
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        j = draw(st.integers(min_value=0, max_value=k - 1))
        kinds[j] = draw(st.sampled_from(["constant", "tied", "small", "inf"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = []
    for j, kind in enumerate(kinds):
        size = base + (j < extra)
        if kind == "constant":
            values += [float(rng.choice([-1.0, 0.5, 1.0, 2.0, math.inf]))] * size
            continue
        mx = {
            "free": 1.0 + float(rng.exponential(20.0)),
            "tied": float(rng.choice([0.5, 1.0, 2.0, 7.5])),
            "small": float(rng.choice([1.0, rng.uniform(-2.0, 1.0)])),
            "inf": math.inf,
        }[kind]
        top = [mx] * (2 if kind == "tied" else 1)
        rest = rng.uniform(-5.0, min(mx, 1e3), size - len(top))
        if math.isfinite(mx) and mx > 0.0:
            at_edge = rng.random(rest.size) < 0.25  # exactly X_(n) or ln X_(n)
            rest[at_edge] = rng.choice([mx, math.log(mx)], int(at_edge.sum()))
        block = np.concatenate([top, rest])
        rng.shuffle(block)
        values += block.tolist()
    return k, np.array(values)


def _wide_block(rng, size, tied):
    """A block with maximum above 1 (twice when `tied` and size >= 3) and
    others below it: about 20% exactly ln X_(n), 10% each 0.0 and -0.0."""
    mx = 1.0 + float(rng.exponential(20.0))
    block = rng.uniform(-5.0, mx, size)
    pick = rng.random(size)
    block[pick < 0.2] = math.log(mx)
    block[(pick >= 0.2) & (pick < 0.3)] = 0.0
    block[(pick >= 0.3) & (pick < 0.4)] = -0.0
    top = 2 if tied and size >= 3 else 1
    block[rng.permutation(size)[:top]] = mx
    return block


def _block_outcome(values, k, smallmax):
    """One replicate through block_scores and its first nonzero code, in the
    reference's terms: its block T's, None when the rule calls it Short, or its
    refusal as (error class name, message)."""
    stats, _, refused, _ = block_scores(values[np.newaxis], k, smallmax)
    if refused is None:
        return stats[0].tolist()
    code, block, mx = (a.item(0) for a in refused)
    if code == SHORT:
        return None
    error = verdict(code, mx, block, k)
    return type(error).__name__, str(error)


def _blocked_test_outcome(values, k):
    """blocked_test's block T's on the values in order, or its refusal as
    (error class name, message)."""
    try:
        return list(blocked_test(values, k, strategy="sequential").block_stats)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _unnamed_at_one_block(expected, k):
    """The reference's outcome as blocked_test gives it: at k = 1 a refusal names no block."""
    if k == 1 and isinstance(expected, tuple):
        return expected[0], expected[1].removeprefix("block 1 of 1: ")
    return expected


class TestBlockScores:
    def test_slices_follow_block_sizes(self):
        # partition cuts consecutive slices of block_sizes(n, k), in order
        for n, k in ((12, 4), (101, 5), (101, 25), (7, 1)):
            data = np.arange(1.0, n + 1.0)
            blocks = partition(data, k, strategy="sequential")
            assert [b.n for b in blocks] == [b.values.size for b in blocks] == list(block_sizes(n, k))
            assert np.array_equal(np.concatenate([b.values for b in blocks]), data)

    def test_stats_in_block_order(self):
        # n = 7, k = 2: a block of 4 and one of 3, from two reshapes
        blocks = [np.array([E, E**2, E**3, 1.5]), np.array([1.0, 2.0, 5.0])]
        res = blocked_test(np.concatenate(blocks), 2, strategy="sequential")
        assert res.block_stats == (
            oracles.spacing_statistic_ref(blocks[0]),
            oracles.spacing_statistic_ref(blocks[1]),
        )

    def test_short_block_makes_whole_sample_short(self):
        # the third block is refused, but the second already calls the sample Short
        values = np.array([1.0, 2.0, 5.0, 0.1, 0.2, 0.5] + [3.0] * 3)
        _, _, refused, _ = block_scores(values[np.newaxis], 3, "short")
        assert [a.tolist() for a in refused] == [[SHORT], [1], [0.5]]
        assert _block_outcome(values, 3, "short") is None

    @pytest.mark.parametrize(
        "bad, error",
        [([0.1, 0.2, 0.5], MaxNotAboveOneError), ([3.0] * 3, DegenerateSampleError)],
    )
    def test_refused_block_is_named(self, bad, error):
        values = np.array([1.0, 2.0, 5.0] + bad + [1.0, 2.0, 5.0])
        with pytest.raises(error, match=r"^block 2 of 3: "):
            blocked_test(values, 3, strategy="sequential")

    def test_other_errors_pass_through_unprefixed(self):
        # an infinite maximum leaves no value above ln X_(n): the draw overflowed
        # (blocked_test refuses non-finite input before it scores anything)
        values = np.array([1.0, 2.0, 5.0, 1.0, 2.0, math.inf])
        assert _block_outcome(values, 2, "error") == (
            "NonFiniteDrawError", "draw overflowed to inf; sample maximum must be finite")

    @given(case=blocked_replicates())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, case):
        # exact T list, None, or the same error class and message, per policy
        k, values = case
        for policy in ("error", "short", "raw"):
            expected = oracles.block_statistics_ref(values, k, policy)
            assert _block_outcome(values, k, policy) == expected
        if np.isfinite(values).all():
            expected = oracles.block_statistics_ref(values, k, "error")
            assert _blocked_test_outcome(values, k) == _unnamed_at_one_block(expected, k)

    @pytest.mark.parametrize(
        "k, n",
        [(rows, rows * m) for rows in (1, 10, 25) for m in (2, 3, 129, 200, 500, 1000, 5000)]
        + [(10, 5003)],
    )
    def test_matches_reference_loop_at_engine_block_sizes(self, k, n):
        # blocks as wide as the engine's (up to 5000 values), where numpy's
        # selection runs rather than its small-array sort; three replicates:
        # every block scored, one block at +inf, one block with a maximum <= 1
        rng = np.random.default_rng(20_000 * k + n)
        base, extra = divmod(n, k)
        for variant in ("scored", "inf", "small"):
            blocks = [_wide_block(rng, base + (j < extra), j % 3 == 1) for j in range(k)]
            odd = blocks[k // 2]
            if variant == "inf":
                odd[int(np.argmax(odd))] = math.inf
            elif variant == "small":
                # a lone maximum in (0, 1) when n is even, else both signed zeros on top
                odd -= odd.max() + 1.0
                odd[rng.permutation(odd.size)[:2]] = (0.5, 0.0) if n % 2 == 0 else (0.0, -0.0)
            values = np.concatenate(blocks)
            for policy in ("error", "short", "raw"):
                expected = oracles.block_statistics_ref(values, k, policy)
                assert _block_outcome(values, k, policy) == expected
            if variant != "inf" and base >= 3:  # blocked_test refuses blocks of two
                expected = oracles.block_statistics_ref(values, k, "error")
                assert _blocked_test_outcome(values, k) == _unnamed_at_one_block(expected, k)


def test_blocking_sharpens_short_tail_power():
    """For a short-tailed law at n=500, ten blocks beat one by a wide margin."""
    rates = {}
    for k in (1, 10):
        plan = SimulationPlan(
            spec=parse_spec("gumbel"), n_grid=(500,), k_blocks=k, reps=10_000, base_seed=7
        )
        rates[k] = run_plan(plan, threads=8).rows[0].short_rate
    assert rates[10] - rates[1] >= 0.5


def test_blocked_short_power_normal_large_sample():
    """Normal at n=5000 with ten blocks: published short rate 0.5172 +/- 0.02."""
    plan = SimulationPlan(
        spec=parse_spec("normal"), n_grid=(5000,), k_blocks=10, reps=10_000, base_seed=7
    )
    row = run_plan(plan, threads=8).rows[0]
    assert abs(row.short_rate - 0.5172) <= 0.02


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, start=0):
    """sum() over floats as CPython computes it from 3.12 on: Neumaier's compensated
    sum. Anything else, and no items, goes to the built-in sum."""
    items = list(iterable)
    if not items or not all(isinstance(x, float) for x in items):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


class TestTotalsDoNotDependOnPythonVersion:
    """A replicate's total is added left to right, never by sum(), whose last digit
    changed in Python 3.12; under a compensated sum() nothing moves."""

    @pytest.mark.parametrize("name, shift", [("claims", None), ("claims", "min"),
                                             ("fibers", "min")])
    def test_blocked_sum_stat_is_golden(self, name, shift, monkeypatch):
        # on these three datasets a compensated sum of the five block T's differs
        # from the left-to-right one in its last digit
        argv = ["test", f"data/synthetic/{name}.txt", "--blocks", "5"]
        argv += ["--shift", shift] * (shift is not None) + ["--json"]
        golden = json.loads((GOLDEN / "test_command.json").read_text(encoding="utf-8"))
        [record] = [r for r in golden if r["argv"] == argv]
        values, _ = read_dataset(str(GOLDEN.parents[1] / argv[1]))
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        res = blocked_test(shift_sample(values, shift), 5)
        assert res.sum_stat == json.loads(record["stdout"])["sum_stat"]
        assert _compensated_sum(res.block_stats) != res.sum_stat

    def test_blocked_rate_row_is_unchanged(self, monkeypatch):
        # blocks of 21 and 20 values, two chunks of replicates
        plan = SimulationPlan(spec=parse_spec("exp:1"), n_grid=(101,), k_blocks=5,
                              reps=200, base_seed=11)
        [expected] = run_plan(plan).rows
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert run_plan(plan).rows == (expected,)


class TestPValues:
    @pytest.mark.parametrize("shift, sum_stat", [(None, 35.4756), ("min", 44.6292)])
    def test_long_p_value_of_a_golden_sum_matches_mpmath(self, shift, sum_stat):
        # p_long is summed on its own tail: at these two sums of claims' five blocks
        # 1 - p_short keeps only 1e-6 and 5e-3 relative accuracy
        values, _ = read_dataset(str(GOLDEN.parents[1] / "data/synthetic/claims.txt"))
        res = blocked_test(shift_sample(values, shift), 5)
        assert res.sum_stat == pytest.approx(sum_stat, rel=1e-5)
        lower, upper = oracles.erlang_tails_ref(res.sum_stat, 5)
        assert res.p_long == pytest.approx(upper, rel=1e-14, abs=0)
        assert res.p_short == pytest.approx(lower, rel=1e-15, abs=0)

    def test_long_p_value_far_past_the_critical_value(self):
        # one block's T is ln 3 * 313.8 / ln 314 = 59.97 and four are 0, so the upper
        # tail is about 5e-21, where 1 - p_short is 0.0
        res = blocked_test([0.1, 0.2, 314.0] + [1.2, 1.5, 2.0] * 4, 5, strategy="sequential")
        assert res.sum_stat == pytest.approx(59.97, abs=0.01)
        assert res.p_long == pytest.approx(oracles.erlang_tails_ref(res.sum_stat, 5)[1],
                                           rel=1e-13, abs=0)


class TestRecommendBlocks:
    def test_large_samples_get_five_to_ten(self):
        assert recommend_blocks(5000) == (5, 10)
        assert recommend_blocks(500) == (5, 10)
        assert recommend_blocks(300) == (5, 10)

    def test_clipped_so_blocks_keep_thirty_points(self):
        lo, hi = recommend_blocks(240)   # 240 // 30 = 8
        assert (lo, hi) == (5, 8)
        lo, hi = recommend_blocks(150)   # 150 // 30 = 5
        assert (lo, hi) == (5, 5)

    def test_small_samples_point_at_unblocked(self):
        assert recommend_blocks(60) == (1, 2)
        assert recommend_blocks(149) == (1, 4)
        assert recommend_blocks(15) == (1, 1)

    def test_too_small_to_advise(self):
        with pytest.raises(ValueError):
            recommend_blocks(14)

    def test_numpy_count_gives_python_ints(self):
        # the count goes through base.check_integer, so an np.int64 is read as an int
        assert [type(x) for x in recommend_blocks(np.int64(200))] == [int, int]
        assert recommend_blocks(np.int64(200)) == (5, 6)

    @given(n=st.integers(min_value=15, max_value=100_000))
    @settings(max_examples=200)
    def test_recommendation_always_feasible(self, n):
        lo, hi = recommend_blocks(n)
        assert 1 <= lo <= hi
        assert n // hi >= 3  # recommended counts never violate the block minimum
