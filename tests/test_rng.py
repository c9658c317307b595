"""Seeded streams, draws from them, the hand-rolled Erlang tails and critical values, and
the immutability of the package's records, SeedSpec among them."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import base, blocking, bryson, distributions, power, rng
from tailtest.blocking import blocked_test, shift_sample, tail_test
from tailtest.bryson import BrysonQuantileTable, BrysonResult
from tailtest.distributions import _CATALOGUE, DistributionSpec, parse_spec, sample
from tailtest.power import RateRow, SimulationPlan, SimulationReport
from tailtest.rng import (
    SeedSpec,
    erlang_criticals,
    erlang_tails,
    make_stream,
)

from .oracles import erlang_cdf_ref, erlang_quantile_ref, erlang_tail_quantile_ref, erlang_tails_ref

EXP = DistributionSpec("exp", (1.0,))
PLAN = SimulationPlan(EXP, (50,), reps=100)
ROW = RateRow(50, 10, 80, 10, 0, 0, None, None)
# one of each record the package defines
RECORDS = [
    SeedSpec(1, 2), EXP, _CATALOGUE[0], PLAN, ROW, SimulationReport(PLAN, (ROW,)),
    shift_sample([math.e, math.e**2, math.e**3]), tail_test([math.e, math.e**2, math.e**3]),
    blocked_test([2.0, 3.0, 5.0, 7.0, 11.0, 13.0], 2, strategy="sequential"),
    BrysonQuantileTable("exp:1", 50, 1000, 0, (0.5,), (0.25,), (0.01,)),
    BrysonResult(50, 0.25, "exp:1", 1000, 0, 0.2, 0.3, base.TailClass.MEDIUM, 0.05),
]
# each record whose constructor checks its fields, and one field value it refuses
VALIDATED = [(SeedSpec(1, 2), {"base_seed": -1}), (EXP, {"params": (0.0,)}),
             (PLAN, {"reps": 5})]


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


class TestRecords:
    def test_every_record_is_listed(self):
        defined = {obj for module in (base, blocking, bryson, distributions, power, rng)
                   for obj in vars(module).values() if isinstance(obj, type)
                   and issubclass(obj, tuple) and obj.__module__ == module.__name__}
        assert defined == {type(record) for record in RECORDS} and len(defined) == 11

    @pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
    def test_frozen(self, record):
        # a validated record without __slots__ = () would take a new attribute in its dict
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(TypeError):
            vars(record)

    @pytest.mark.parametrize("record, bad", VALIDATED,
                             ids=[type(record).__name__ for record, _ in VALIDATED])
    def test_every_way_of_building_refuses_a_bad_value(self, record, bad):
        # _replace builds with _make, which on a bare NamedTuple skips __new__ and its checks
        assert type(record._replace()) is type(record) and record._replace() == record
        fields = {**record._asdict(), **bad}
        with pytest.raises(ValueError) as refused:
            type(record)(**fields)
        message = f"^{re.escape(str(refused.value))}$"
        with pytest.raises(ValueError, match=message):
            type(record)._make(fields.values())
        with pytest.raises(ValueError, match=message):
            record._replace(**bad)


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


class TestErlangTails:
    def test_matches_reference_on_grid(self):
        # independent route: mpmath regularized incomplete gamma
        for k in (1, 2, 3, 5, 10, 25, 50):
            for x in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
                assert erlang_tails(x, k)[0] == pytest.approx(
                    erlang_cdf_ref(x, k), rel=1e-12, abs=1e-13
                )

    def test_deep_lower_tail_keeps_relative_accuracy(self):
        # these are ~1e-25 and ~1e-40; a 1 - sum formulation would return 0
        for x, k in ((1.5, 27), (0.5, 30), (5.0, 50)):
            assert erlang_tails(x, k)[0] == pytest.approx(erlang_cdf_ref(x, k), rel=1e-12, abs=0)

    def test_where_exp_of_minus_x_underflows(self):
        # e^(-x) underflows there; the log-space sum must still agree
        for k, x in ((1, 710.0), (5, 750.0), (50, 800.0), (50, 7.0e2 + 0.5)):
            assert erlang_tails(x, k)[0] == pytest.approx(erlang_cdf_ref(x, k), abs=1e-13)
        assert erlang_tails(5000.0, 3)[0] == 1.0

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 25, 60, 200])
    def test_each_tail_matches_mpmath(self, k):
        # the smaller tail keeps its relative accuracy down to 1e-300: the upper one
        # too, which 1 - P(G <= x) rounds away once it falls below ~1e-16
        for x in np.geomspace(1e-3, 5000.0, 120).tolist():
            for got, ref in zip(erlang_tails(x, k), erlang_tails_ref(x, k)):
                if ref > 1e-300:
                    assert got == pytest.approx(ref, rel=1e-12, abs=0), (x, k)

    @pytest.mark.parametrize("k", [1, 3, 25])
    def test_infinity_is_one(self, k):
        # the i = 0 term of a log-space sum would form 0 * inf
        assert erlang_tails(math.inf, k) == (1.0, 0.0)

    def test_k1_is_exponential(self):
        for x in (0.05, 1.0, 3.0):
            assert erlang_tails(x, 1)[0] == pytest.approx(-math.expm1(-x), abs=1e-15)

    def test_k1_upper_tail_above_one_is_exp_to_the_bit(self):
        for x in (1.5, 3.0, 40.0, 745.0):
            assert erlang_tails(x, 1)[1] == math.exp(-x)

    def test_boundaries(self):
        assert erlang_tails(0.0, 4) == (0.0, 1.0)
        with pytest.raises(ValueError):
            erlang_tails(-0.1, 2)
        with pytest.raises(ValueError):
            erlang_tails(math.nan, 2)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_bad_shape(self, bad):
        with pytest.raises(ValueError):
            erlang_tails(1.0, bad)

    @given(
        x=st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
        dx=st.floats(min_value=1e-6, max_value=10.0),
        k=st.integers(min_value=1, max_value=60),
    )
    def test_monotone_in_x(self, x, dx, k):
        assert erlang_tails(x + dx, k)[0] >= erlang_tails(x, k)[0]


class TestErlangCriticals:
    def test_k1_exact_exponential_forms(self):
        lo, hi = erlang_criticals(0.05, 1)
        assert lo == -math.log1p(-0.05)
        assert hi == -math.log(0.05)

    def test_k2_reference_values(self):
        lo, hi = erlang_criticals(0.05, 2)
        assert lo == pytest.approx(erlang_quantile_ref(0.05, 2), abs=1e-9)
        assert hi == pytest.approx(erlang_quantile_ref(0.95, 2), abs=1e-9)

    @pytest.mark.parametrize("k", [2, 5, 10, 25])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-20])
    def test_each_tail_matches_mpmath(self, alpha, k):
        # each value is solved on the tail that holds alpha: the quantile at 1 - alpha
        # loses alpha's digits, and 1 - alpha rounds to 1.0 below ~5.6e-17
        lo, hi = erlang_criticals(alpha, k)
        assert lo == pytest.approx(erlang_tail_quantile_ref(alpha, k, upper=False), rel=1e-10)
        assert hi == pytest.approx(erlang_tail_quantile_ref(alpha, k, upper=True), rel=1e-10)

    @pytest.mark.parametrize("k", [2, 25, 1000])
    @pytest.mark.parametrize("alpha", [1e-300, 5e-324, 0.4999])
    def test_extreme_levels_give_ordered_finite_values(self, alpha, k):
        # no tail underflows on the way: the smallest subnormal level still solves
        lo, hi = erlang_criticals(alpha, k)
        assert 0.0 < lo < hi < math.inf

    def test_matches_reference(self):
        for k in (1, 2, 5, 10, 25, 50):
            for alpha in (0.001, 0.025, 0.05):
                lo, hi = erlang_criticals(alpha, k)
                assert lo == pytest.approx(erlang_quantile_ref(alpha, k), rel=1e-10, abs=1e-10)
                assert hi == pytest.approx(
                    erlang_quantile_ref(1 - alpha, k), rel=1e-10, abs=1e-10
                )

    @given(
        alpha=st.floats(min_value=1e-6, max_value=0.5, exclude_max=True),
        k=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200)
    def test_round_trip(self, alpha, k):
        # each tail at its critical value is alpha to 1e-10, the advertised tolerance
        lo, hi = erlang_criticals(alpha, k)
        assert erlang_tails(lo, k)[0] == pytest.approx(alpha, abs=1e-10)
        assert erlang_tails(hi, k)[1] == pytest.approx(alpha, abs=1e-10)

    @given(
        alpha=st.floats(min_value=0.01, max_value=0.48),
        dalpha=st.floats(min_value=1e-4, max_value=0.01),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_monotone_in_alpha(self, alpha, dalpha, k):
        lo, hi = erlang_criticals(alpha, k)
        lo_wider, hi_wider = erlang_criticals(alpha + dalpha, k)
        assert lo_wider > lo and hi_wider < hi

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.9, -0.05, 1.0, 1.7, math.nan])
    def test_rejects_bad_alpha(self, bad):
        for k in (1, 3):
            with pytest.raises(ValueError):
                erlang_criticals(bad, k)



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
