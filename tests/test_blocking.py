"""Blocked variant: partitioning, gamma(k,1) thresholds, k=1 equivalence."""
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
    blocked_test,
    partition,
    recommend_blocks,
    tail_test,
)
from tailtest.blocking import block_sizes, block_slices, block_statistics
from tailtest.distributions import parse_spec, sample as draw
from tailtest.power import SimulationPlan, run_plan
from tailtest.rng import SeedSpec, erlang_criticals, gamma_cdf

from . import oracles

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
    def test_k1_matches_plain_test_bitwise(self):
        x = draw(parse_spec("exp:1"), 200, SeedSpec(31))
        plain = tail_test(x)
        blocked = blocked_test(x, 1)
        assert blocked.sum_stat == plain.t_stat
        assert blocked.block_stats == (plain.t_stat,)
        assert blocked.decision is plain.decision
        assert (blocked.lower_crit, blocked.upper_crit) == erlang_criticals(0.05, 1)

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
        assert res.p_short == pytest.approx(gamma_cdf(res.sum_stat, 5), abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2000), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_sum_stat_is_sum_of_blocks(self, seed, k):
        x = draw(parse_spec("exp:1"), 120, SeedSpec(seed))
        res = blocked_test(x, k, strategy="sequential")
        assert res.sum_stat == pytest.approx(sum(res.block_stats), rel=1e-12)
        assert len(res.block_stats) == k


class TestBlockStatistics:
    def test_slices_follow_block_sizes(self):
        for n, k in ((12, 4), (101, 5), (101, 25), (7, 1)):
            slices = block_slices(n, k)
            assert [sl.stop - sl.start for sl in slices] == list(block_sizes(n, k))
            assert slices[0].start == 0 and slices[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))

    def test_stats_in_block_order(self):
        blocks = [np.array([E, E**2, E**3]), np.array([1.0, 2.0, 5.0])]
        assert block_statistics(blocks) == [
            oracles.spacing_statistic_ref(blocks[0]),
            oracles.spacing_statistic_ref(blocks[1]),
        ]

    def test_short_block_makes_whole_sample_short(self):
        # the third block would raise, but the second already calls the sample Short
        blocks = [np.array([1.0, 2.0, 5.0]), np.array([0.1, 0.2, 0.5]), np.array([3.0] * 3)]
        assert block_statistics(blocks, "short") is None

    @pytest.mark.parametrize(
        "bad, error",
        [([0.1, 0.2, 0.5], MaxNotAboveOneError), ([3.0] * 3, DegenerateSampleError)],
    )
    def test_refused_block_is_named(self, bad, error):
        blocks = [np.array([1.0, 2.0, 5.0]), np.array(bad), np.array([1.0, 2.0, 5.0])]
        with pytest.raises(error, match=r"^block 2 of 3: "):
            block_statistics(blocks)

    def test_other_errors_pass_through_unprefixed(self):
        # an infinite maximum leaves no value above ln X_(n): ln 0 is undefined
        with pytest.raises(ValueError, match=r"^math domain error$"):
            block_statistics([np.array([1.0, 2.0, 5.0]), np.array([1.0, 2.0, math.inf])])


class TestSequentialVersusShuffle:
    def test_type_i_rates_agree_for_iid_data(self):
        # i.i.d. draws have no serial structure, so the two strategies must
        # land on the same Type I rate up to Monte Carlo noise
        rates = {}
        for strategy in ("sequential", "shuffle"):
            plan = SimulationPlan(
                spec=parse_spec("exp:1"),
                n_grid=(500,),
                k_blocks=5,
                reps=10_000,
                base_seed=7,
                strategy=strategy,
            )
            row = run_plan(plan, threads=8).rows[0]
            rates[strategy] = (row.short_rate, row.long_rate)
        ds, dl = (abs(rates["sequential"][i] - rates["shuffle"][i]) for i in (0, 1))
        assert ds < 0.01 and dl < 0.01


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

    @given(n=st.integers(min_value=15, max_value=100_000))
    @settings(max_examples=200)
    def test_recommendation_always_feasible(self, n):
        lo, hi = recommend_blocks(n)
        assert 1 <= lo <= hi
        assert n // hi >= 3  # recommended counts never violate the block minimum
