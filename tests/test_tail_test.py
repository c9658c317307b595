"""The core spacing statistic, its pieces, and the three-way decision."""
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailtest import (
    DegenerateSampleError,
    MaxNotAboveOneError,
    TailClass,
    shift_sample,
    tail_test,
)
from tailtest.base import EQUAL, REFUSED, SCORED, SHORT, decide
from tailtest.distributions import parse_spec, sample as draw
from tailtest.rng import SeedSpec, erlang_criticals
from tailtest.blocking import spacing_rows, verdict

from . import oracles

E = math.e

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=60,
)


class TestShiftSample:
    def test_no_shift(self):
        s = shift_sample([3.0, 1.0, 2.0])
        assert s.shift == 0.0
        assert list(s.values) == [3.0, 1.0, 2.0]
        assert s.n == 3
        assert s.values.max() == 3.0

    def test_min_shift_zeroes_smallest(self):
        s = shift_sample([5.0, 2.0, 9.0], "min")
        assert s.shift == 2.0
        assert list(s.values) == [3.0, 0.0, 7.0]
        assert s.values.max() == 7.0

    def test_numeric_shift(self):
        s = shift_sample([5.0, 2.0, 9.0], 1.2)
        assert s.shift == 1.2
        assert s.values.max() == pytest.approx(7.8)

    @pytest.mark.parametrize("mode", ["none", "MIN", "1.5", " min", True, False, np.True_, [1.0]])
    def test_reads_no_word_but_min(self, mode):
        # cli._shift reads --shift's words; the library takes None, "min" or a real number,
        # and no bool, though float() takes text and bools alike: base.check_real refuses it
        message = rf"^shift must be a real number, got {re.escape(repr(mode))}$"
        with pytest.raises(ValueError, match=message):
            shift_sample([1.0, 2.0], mode)

    @pytest.mark.parametrize("mode", [2, np.float64(0.5), np.int64(-3), Fraction(1, 2)])
    def test_takes_any_real_number(self, mode):
        s = shift_sample([1.0, 2.0, 3.0], mode)
        assert s.shift == float(mode)
        assert s.values.tolist() == [x - float(mode) for x in (1.0, 2.0, 3.0)]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            shift_sample([])
        with pytest.raises(ValueError, match=r"position\(s\) 2"):
            shift_sample([1.0, math.nan, 3.0])
        with pytest.raises(ValueError, match=r"position\(s\) 1, 3"):
            shift_sample([math.inf, 2.0, -math.inf])

    @pytest.mark.parametrize("mode", [-1e308, "min"])
    def test_rejects_shift_that_overflows(self, mode):
        # the shift is -1e308 either way; 1e308 - shift overflows, -1e308 - shift is 0
        values = [1e308, -1e308, 5.0] + [1e308] * 11
        message = (r"^shift -1e\+308 leaves non-finite values at position\(s\) "
                   r"1, 4, 5, .*, 12 \(\+2 more\)$")
        with pytest.raises(ValueError, match=message):
            shift_sample(values, mode)

    @pytest.mark.parametrize("mode", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_shift(self, mode):
        message = rf"^shift {mode:g} leaves non-finite values at position\(s\) 1, 2, 3$"
        with pytest.raises(ValueError, match=message):
            shift_sample([1.0, 2.0, 3.0], mode)

    def test_values_are_read_only(self):
        s = shift_sample([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0


class TestPieces:
    def test_empirical_survival_counts_strict_exceedance(self):
        # values lying exactly at ln max do not count as exceeding it
        log7 = math.log(7.0)
        assert tail_test([log7, log7, 3.0, 7.0]).surv_at_log_max == 0.5
        assert tail_test([1.0, log7, log7, 7.0]).surv_at_log_max == 0.25
        assert tail_test([log7, 7.0, 7.0]).surv_at_log_max == 2 / 3

    @given(finite_values)
    @settings(max_examples=150)
    def test_empirical_survival_matches_direct_count(self, xs):
        try:
            res = tail_test(xs)
        except ValueError:
            return
        log_max = math.log(max(xs))
        assert res.surv_at_log_max == sum(1 for v in xs if v > log_max) / len(xs)

    def test_extreme_spacing(self):
        assert tail_test([1.0, 5.0, 2.0]).spacing == 3.0
        assert tail_test([4.0, 4.0, 1.0]).spacing == 0.0

    def test_estimate_theta_known_sample(self):
        # {e, e^2, e^3}: ln max = 3, one of three values exceeds 3
        res = tail_test([E, E**2, E**3])
        assert res.theta_hat == pytest.approx(-math.log(2 / 3) / 3, rel=1e-12)

    def test_estimate_theta_zero_when_all_exceed_log_max(self):
        # every value sits above ln max, so survival is 1 and theta collapses to 0
        assert tail_test([1.2, 1.3, 1.4]).theta_hat == 0.0

    def test_estimate_theta_needs_max_above_one(self):
        # the kernel evaluates the formula for a maximum in (0, 1) under 'raw';
        # the test refuses it
        _, code, _, theta, _ = spacing_rows(np.array([[-1.0, 0.5, 0.9]]), "raw")
        assert code.tolist() == [SCORED] and theta.item(0) < 0.0
        with pytest.raises(MaxNotAboveOneError):
            tail_test([-1.0, 0.5, 0.9])


@st.composite
def blocks_with_edges(draw):
    """Non-constant blocks with max > 1, often with ties at the top and values
    lying exactly at ln X_(n)."""
    mx = draw(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
    edge = st.sampled_from([mx, math.log(mx)])
    other = st.floats(min_value=-1e6, max_value=mx)
    rest = draw(st.lists(st.one_of(edge, other), min_size=1, max_size=40))
    values = draw(st.permutations([mx] + rest))
    assume(min(values) < mx)
    return np.array(values)


@st.composite
def blocks_below_one(draw):
    """Non-constant blocks with max in (0, 1), often with values at ln X_(n)."""
    mx = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    edge = st.sampled_from([mx, math.log(mx)])
    other = st.floats(min_value=-1e6, max_value=mx)
    rest = draw(st.lists(st.one_of(edge, other), min_size=1, max_size=40))
    values = draw(st.permutations([mx] + rest))
    assume(min(values) < mx)
    return np.array(values)


POLICIES = ["error", "short", "raw"]


def _row(values, policy):
    """spacing_rows on one block: its T, outcome code and maximum."""
    stats, code, tops, *_ = spacing_rows(np.array([values], dtype=float), policy)
    return stats.item(0), int(code[0]), tops[0, -1].item()


class TestKernel:
    @given(blocks_with_edges())
    @settings(max_examples=300)
    def test_matches_sorted_order_reference(self, block):
        # blocks of two values reach only the kernel; tail_test needs three
        assert _row(block, "error")[:2] == (oracles.spacing_statistic_ref(block), SCORED)
        if block.size >= 3:
            assert tail_test(block).t_stat == oracles.spacing_statistic_ref(block)

    def test_returns_every_piece(self):
        res = tail_test([E**3, E, E**2])
        assert (res.theta_hat, res.spacing, res.surv_at_log_max) == (
            -math.log(2 / 3) / 3, E**3 - E**2, 2 / 3)
        assert res.t_stat == res.theta_hat * res.spacing

    @pytest.mark.parametrize("values", [[2.0, 2.0, 2.0], [0.5, 0.5], [-1.0, -1.0, -1.0]])
    def test_constant_block_is_degenerate(self, values):
        assert [_row(values, policy)[1] for policy in POLICIES] == [EQUAL] * 3
        with pytest.raises(DegenerateSampleError, match="all sample values are equal"):
            tail_test(values * 2)  # at least three values, all equal

    @pytest.mark.parametrize("values", [[0.1, 0.5, 1.0], [-3.0, -1.0, 0.0], [-3.0, -2.0, -1.0]])
    def test_max_not_positive_or_exactly_one_is_refused(self, values):
        # ln X_(n) is undefined or zero; only 'short' may call a maximum of
        # exactly 1 Short, since 1 lies in (0, 1]
        with pytest.raises(MaxNotAboveOneError, match="is not above 1"):
            tail_test(values)
        assert _row(values, "short")[1] == (SHORT if values[-1] == 1.0 else REFUSED)
        assert _row(values, "raw")[1] == REFUSED

    @pytest.mark.parametrize("order", itertools.permutations([0.0, -0.0, -1.0]))
    def test_zero_maximum_prints_without_sign(self, order):
        # the maximum is the first tied zero, of either sign; both print as 0
        message = r"sample maximum 0 is not above 1"
        with pytest.raises(MaxNotAboveOneError, match=message):
            tail_test(list(order))
        for policy in POLICIES:
            _, code, mx = _row(order, policy)
            assert code == REFUSED
            assert message in str(verdict(code, mx))

    @pytest.mark.parametrize("mx", [1e-300, 0.25, 0.999, 1.0])
    def test_short_policy_calls_unit_interval_short(self, mx):
        assert _row([-5.0, mx / 2, mx], "short")[1] == SHORT

    def test_error_policy_raises_in_unit_interval(self):
        with pytest.raises(MaxNotAboveOneError, match="sample maximum 0.5 is not above 1"):
            tail_test([0.1, 0.2, 0.5])

    @given(blocks_below_one())
    @settings(max_examples=300)
    def test_raw_policy_matches_reference_in_unit_interval(self, block):
        assert _row(block, "raw")[:2] == (oracles.spacing_statistic_ref(block), SCORED)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_is_irrelevant_above_one(self, policy):
        block = np.array([[E**3, E, E**2]])
        for got, expected in zip(spacing_rows(block, policy), spacing_rows(block, "error")):
            assert got.tolist() == expected.tolist()


class TestKnownAnswers:
    def test_exponential_spaced_sample(self):
        # theta_hat = ln(3/2)/3 and spacing e^3 - e^2; the product to 12 digits
        res = tail_test([E, E**2, E**3])
        assert res.t_stat == pytest.approx(oracles.T_STAT_E_E2_E3, abs=1e-12)
        assert res.theta_hat == pytest.approx(math.log(1.5) / 3, rel=1e-12)
        assert res.spacing == pytest.approx(E**3 - E**2, rel=1e-12)
        assert res.surv_at_log_max == pytest.approx(2 / 3, rel=1e-12)
        assert res.p_long == pytest.approx(math.exp(-oracles.T_STAT_E_E2_E3), rel=1e-12)
        assert res.p_short == pytest.approx(1 - math.exp(-oracles.T_STAT_E_E2_E3), rel=1e-12)
        assert res.decision is TailClass.MEDIUM
        assert res.n == 3
        assert not res.tied_max

    def test_small_integer_sample_is_medium(self):
        # ln 3 = 1.0986..., two of three exceed it: T = ln(1.5)/ln(3) * 1
        res = tail_test([1.0, 2.0, 3.0])
        assert res.t_stat == pytest.approx(math.log(1.5) / math.log(3.0), rel=1e-12)
        assert res.decision is TailClass.MEDIUM

    def test_concentrated_sample_is_short(self):
        # all values above ln max: theta 0, T 0, decision Short with p_short 0
        res = tail_test([1.2, 1.5, 2.0])
        assert res.theta_hat == 0.0
        assert res.t_stat == 0.0
        assert res.decision is TailClass.SHORT
        assert res.p_short == 0.0
        assert res.p_long == 1.0

    def test_tiny_statistic_keeps_its_short_p_value(self):
        # the top two values are one ulp apart: T = ln(3/2) * 2**-51 / ln(e + 2**-51),
        # about 1.8e-16, where 1 - exp(-T) is two ulps of 1 and so 23% off
        top = math.nextafter(E, math.inf)
        res = tail_test([0.5, E, top])
        assert 1e-16 < res.t_stat < 2e-16
        assert res.p_short == pytest.approx(-math.expm1(-res.t_stat), rel=1e-14, abs=0)
        assert res.p_long == 1.0 - res.p_short

    def test_huge_spacing_is_long(self):
        values = list(np.linspace(2.0, 100.0, 99)) + [1e8]
        res = tail_test(values)
        assert res.decision is TailClass.LONG
        assert res.p_long < 1e-6

    def test_tied_maximum_forces_zero(self):
        res = tail_test([1.0, 2.0, 3.0, 3.0])
        assert res.tied_max
        assert res.spacing == 0.0
        assert res.t_stat == 0.0
        assert res.decision is TailClass.SHORT


class TestValidation:
    def test_needs_three_points(self):
        # in block_sizes' words: once reworded as "need at least 3 values to test, got n=2"
        with pytest.raises(ValueError, match=r"^n=2 is below the 3-point minimum of a block$"):
            tail_test([2.0, 3.0])

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            tail_test([2.0, 2.0, 2.0])

    def test_max_not_above_one(self):
        with pytest.raises(MaxNotAboveOneError):
            tail_test([0.1, 0.5, 0.9])
        with pytest.raises(MaxNotAboveOneError):
            tail_test([0.1, 0.5, 1.0])

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.01, 1.0])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            tail_test([1.0, 2.0, 3.0], alpha=alpha)


class TestClassify:
    def test_thresholds_at_alpha_05(self):
        lo = -math.log1p(-0.05)
        hi = -math.log(0.05)
        assert decide(lo / 2, *erlang_criticals(0.05, 1)) is TailClass.SHORT
        assert decide(lo, *erlang_criticals(0.05, 1)) is TailClass.MEDIUM  # boundary is medium
        assert decide((lo + hi) / 2, *erlang_criticals(0.05, 1)) is TailClass.MEDIUM
        assert decide(hi, *erlang_criticals(0.05, 1)) is TailClass.MEDIUM
        assert decide(hi * 1.01, *erlang_criticals(0.05, 1)) is TailClass.LONG

    def test_alpha_widens_medium_band(self):
        t = 2.8
        assert decide(t, *erlang_criticals(0.05, 1)) is TailClass.MEDIUM
        assert decide(t, *erlang_criticals(0.10, 1)) is TailClass.LONG


class TestProperties:
    @given(st.permutations(list(range(12))))
    @settings(max_examples=80)
    def test_permutation_invariance(self, perm):
        base = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0]
        ref = tail_test(base)
        res = tail_test([base[i] for i in perm])
        assert res.t_stat == ref.t_stat
        assert res.decision is ref.decision
        assert res.theta_hat == ref.theta_hat

    @given(finite_values)
    @settings(max_examples=150)
    def test_result_internally_consistent(self, xs):
        try:
            res = tail_test(xs)
        except ValueError:
            return
        assert res.t_stat == pytest.approx(res.theta_hat * res.spacing, rel=1e-12, abs=1e-300)
        assert res.p_long == pytest.approx(math.exp(-res.t_stat), rel=1e-12)
        assert res.p_short + res.p_long == pytest.approx(1.0, abs=1e-12)
        assert res.decision is decide(res.t_stat, *erlang_criticals(res.alpha, 1))
        assert res.t_stat >= 0.0

    @given(st.floats(min_value=0.01, max_value=0.4))
    @settings(max_examples=40)
    def test_decision_matches_p_values(self, alpha):
        res = tail_test([E, E**2, E**3], alpha=alpha)
        if res.decision is TailClass.SHORT:
            assert res.p_short < alpha
        elif res.decision is TailClass.LONG:
            assert res.p_long < alpha
        else:
            assert res.p_short >= alpha and res.p_long >= alpha


def test_null_statistic_is_asymptotically_exponential():
    """Under a unit-rate exponential law the statistic behaves like Exp(1)."""
    reps, n = 2000, 1000
    spec = parse_spec("exp:1")
    stats = np.array([tail_test(draw(spec, n, SeedSpec(515, r))).t_stat for r in range(reps)])
    d = oracles.ks_distance(stats, oracles.cdf_exponential(1.0))
    assert d < 0.05
