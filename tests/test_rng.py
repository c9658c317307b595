"""Seeded streams, draws from them, and the hand-rolled Erlang distribution functions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest.distributions import DistributionSpec, parse_spec, sample
from tailtest.rng import (
    SeedSpec,
    erlang_criticals,
    gamma_cdf,
    gamma_quantile,
    make_stream,
)

from .oracles import erlang_cdf_ref, erlang_quantile_ref


class TestSeedSpec:
    def test_accepts_uint64_range(self):
        SeedSpec(0, 0)
        SeedSpec(2**64 - 1, 2**64 - 1)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None])
    def test_rejects_non_uint64(self, bad):
        with pytest.raises(ValueError):
            SeedSpec(bad, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, bad)

    def test_frozen(self):
        spec = SeedSpec(1, 2)
        with pytest.raises(AttributeError):
            spec.base_seed = 3


class TestMakeStream:
    def test_same_key_same_stream(self):
        a = make_stream(SeedSpec(42, 7)).random(16)
        b = make_stream(SeedSpec(42, 7)).random(16)
        assert np.array_equal(a, b)

    def test_int_seed_means_stream_zero(self):
        a = make_stream(42).random(16)
        b = make_stream(SeedSpec(42, 0)).random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_stream(SeedSpec(42, 0)).random(16)
        b = make_stream(SeedSpec(42, 1)).random(16)
        c = make_stream(SeedSpec(43, 0)).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_id_argument(self):
        a = make_stream(42, stream_id=5).random(8)
        b = make_stream(SeedSpec(42, 5)).random(8)
        assert np.array_equal(a, b)


class TestGammaCdf:
    def test_matches_reference_on_grid(self):
        # independent route: mpmath regularized incomplete gamma
        for k in (1, 2, 3, 5, 10, 25, 50):
            for x in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
                assert gamma_cdf(x, k) == pytest.approx(
                    erlang_cdf_ref(x, k), rel=1e-12, abs=1e-13
                )

    def test_deep_lower_tail_keeps_relative_accuracy(self):
        # these are ~1e-25 and ~1e-40; a 1 - sum formulation would return 0
        for x, k in ((1.5, 27), (0.5, 30), (5.0, 50)):
            assert gamma_cdf(x, k) == pytest.approx(erlang_cdf_ref(x, k), rel=1e-12)

    def test_log_space_branch_above_700(self):
        # e^(-x) underflows there; the log-space sum must still agree
        for k, x in ((1, 710.0), (5, 750.0), (50, 800.0), (50, 7.0e2 + 0.5)):
            assert gamma_cdf(x, k) == pytest.approx(erlang_cdf_ref(x, k), abs=1e-13)
        assert gamma_cdf(5000.0, 3) == 1.0

    @pytest.mark.parametrize("k", [1, 3, 25])
    def test_infinity_is_one(self, k):
        # the log-space branch would form 0 * inf for the i = 0 term
        assert gamma_cdf(math.inf, k) == 1.0

    def test_k1_is_exponential(self):
        for x in (0.05, 1.0, 3.0):
            assert gamma_cdf(x, 1) == pytest.approx(-math.expm1(-x), abs=1e-15)

    def test_boundaries(self):
        assert gamma_cdf(0.0, 4) == 0.0
        with pytest.raises(ValueError):
            gamma_cdf(-0.1, 2)
        with pytest.raises(ValueError):
            gamma_cdf(math.nan, 2)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_bad_shape(self, bad):
        with pytest.raises(ValueError):
            gamma_cdf(1.0, bad)

    @given(
        x=st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
        dx=st.floats(min_value=1e-6, max_value=10.0),
        k=st.integers(min_value=1, max_value=60),
    )
    def test_monotone_in_x(self, x, dx, k):
        assert gamma_cdf(x + dx, k) >= gamma_cdf(x, k)


class TestGammaQuantile:
    def test_matches_reference(self):
        for k in (1, 2, 5, 10, 25, 50):
            for p in (0.001, 0.025, 0.05, 0.5, 0.95, 0.975, 0.999):
                assert gamma_quantile(p, k) == pytest.approx(
                    erlang_quantile_ref(p, k), rel=1e-10, abs=1e-10
                )

    def test_k1_closed_form(self):
        assert gamma_quantile(0.05, 1) == -math.log1p(-0.05)
        assert gamma_quantile(0.95, 1) == pytest.approx(-math.log(0.05), abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_rejects_bad_p(self, bad):
        with pytest.raises(ValueError):
            gamma_quantile(bad, 3)

    @given(
        p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        k=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200)
    def test_round_trip(self, p, k):
        # cdf(quantile(p)) == p to 1e-10, the advertised tolerance
        assert gamma_cdf(gamma_quantile(p, k), k) == pytest.approx(p, abs=1e-10)

    @given(
        p=st.floats(min_value=0.01, max_value=0.98),
        dp=st.floats(min_value=1e-4, max_value=0.01),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_monotone_in_p(self, p, dp, k):
        assert gamma_quantile(p + dp, k) > gamma_quantile(p, k)


class TestErlangCriticals:
    def test_k1_exact_exponential_forms(self):
        lo, hi = erlang_criticals(0.05, 1)
        assert lo == -math.log1p(-0.05)
        assert hi == -math.log(0.05)

    def test_k2_reference_values(self):
        lo, hi = erlang_criticals(0.05, 2)
        assert lo == pytest.approx(erlang_quantile_ref(0.05, 2), abs=1e-9)
        assert hi == pytest.approx(erlang_quantile_ref(0.95, 2), abs=1e-9)

    def test_consistent_with_quantile(self):
        for k in (2, 5, 10, 25):
            lo, hi = erlang_criticals(0.05, k)
            assert lo == gamma_quantile(0.05, k)
            assert hi == gamma_quantile(0.95, k)

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.9, -0.05])
    def test_rejects_bad_alpha(self, bad):
        with pytest.raises(ValueError):
            erlang_criticals(bad, 1)



class TestDrawHelpers:
    """Draws from a seeded stream, through the catalogue's sampler."""

    def test_deterministic(self):
        a = sample(parse_spec("normal"), 32, make_stream(9))
        b = sample(parse_spec("normal"), 32, make_stream(9))
        assert np.array_equal(a, b)

    def test_exponential_rate_convention(self):
        # rate theta means mean 1/theta
        x = sample(parse_spec("exp:100"), 200_000, make_stream(1))
        assert abs(x.mean() - 0.01) < 5e-5
        y = sample(parse_spec("exp:0.01"), 200_000, make_stream(1))
        assert abs(y.mean() - 100.0) < 0.5

    def test_uniform_range(self):
        u = sample(parse_spec("uniform"), 10_000, make_stream(2))
        assert 0.0 <= u.min() and u.max() < 1.0

    @pytest.mark.parametrize(
        "family,bad",
        [("exp", 0.0), ("exp", -1.0), ("gamma", 0.0), ("t", -2.0)],
        # ids of the per-law draw_* helpers these checks first covered
        ids=["draw_exponential-0.0", "draw_exponential--1.0", "draw_gamma-0.0", "draw_student_t--2.0"],
    )
    def test_rejects_nonpositive_parameters(self, family, bad):
        with pytest.raises(ValueError):
            DistributionSpec(family, (bad,))
