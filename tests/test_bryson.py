"""Bryson's T* statistic and its simulated null quantile tables."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import (
    TailClass,
    bryson_statistic,
    bryson_test,
    simulate_bryson_quantiles,
)
from tailtest.base import NonFiniteDrawError, decide
from tailtest.cli import main
from tailtest.bryson import _sorted_quantiles, _t_star
from tailtest.distributions import parse_spec, sample as draw
from tailtest.rng import SeedSpec, make_stream

from . import oracles

positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=40,
).filter(lambda xs: max(xs) > min(xs))


class TestStatistic:
    def test_known_value(self):
        # {1,2,3}: mean 2, max 3, shift 3/2, GA = (2.5*3.5*4.5)^(1/3)
        assert bryson_statistic([1.0, 2.0, 3.0]) == pytest.approx(
            oracles.BRYSON_T_1_2_3, abs=1e-12
        )

    def test_handles_zero_values(self):
        # the shift max/(n-1) keeps the geometric mean defined at 0
        t = bryson_statistic([0.0, 1.0, 2.0])
        assert math.isfinite(t) and t > 0

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            bryson_statistic([3.0])

    def test_rejects_two_values(self):
        # with a <= b: shift b, GA^2 = (a + b) * 2b, so T* = 1/4 whatever the data
        assert oracles.bryson_statistic_ref([1.0, 3.0]) == pytest.approx(0.25, rel=1e-12)
        for call in (bryson_statistic, bryson_test):
            with pytest.raises(ValueError, match="at least 3 values, got n=2"):
                call([1.0, 3.0])
        with pytest.raises(ValueError, match="at least 3 values, got n=2"):
            simulate_bryson_quantiles(parse_spec("exp:1"), 2, reps=1000)

    @pytest.mark.parametrize("xs, lowest", [([-5.0, 1.0, 4.0], "-3"), ([0.0, 0.0, 0.0], "0")])
    def test_rejects_too_negative_values(self, xs, lowest):
        # smallest + max/(n-1) = -5 + 4/2 < 0: log of a negative number; all zeros give log 0
        with pytest.raises(ValueError, match=f"max/\\(n-1\\) is {lowest}; the geometric mean"):
            bryson_statistic(xs)

    @pytest.mark.parametrize("xs", [[-0.5, 1.0, 2.0, 3.0, 4.0, 5.0], [2.0, -1e-300, 7.0]])
    def test_rejects_negative_values(self, xs):
        # smallest + max/(n-1) > 0 here, so only the sign check can refuse them
        message = f"smallest value is {min(xs):g}; T\\* needs nonnegative data"
        with pytest.raises(ValueError, match=message):
            bryson_statistic(xs)

    @pytest.mark.parametrize("xs", [[0.0] * 99 + [1e-323], [0.0, 0.0, 5e-324]])
    def test_subnormal_maximum(self, xs):
        # max/(n-1) underflows to 0 here, yet every shifted value is > 0; T* is scale-invariant
        assert bryson_statistic(xs) == bryson_statistic([x / max(xs) for x in xs])

    def test_negative_zero_is_nonnegative(self):
        assert bryson_statistic([-0.0, 1.0, 2.0]) == bryson_statistic([0.0, 1.0, 2.0])

    @given(positive_samples, st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=150)
    def test_scale_invariance(self, xs, c):
        # T*(cX) == T*(X) to 1e-10 relative, for any positive scale c
        base = bryson_statistic(xs)
        scaled = bryson_statistic([c * x for x in xs])
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_not_location_invariant(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        assert bryson_statistic(xs) != pytest.approx(
            bryson_statistic([x + 100.0 for x in xs]), rel=1e-3
        )

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
    def test_scale_invariance_far_from_one(self, scale):
        # mean * max overflows at 2**600 and GA^2 underflows at 2**-600; the scale is exact
        xs = draw(parse_spec("exp:1"), 50, SeedSpec(105, 0))
        assert bryson_statistic(xs * scale) == pytest.approx(bryson_statistic(xs), rel=1e-12)

    def test_large_values_do_not_overflow(self):
        # the geometric mean goes through logs, so 1e150-scale data is fine
        xs = [1e150, 2e150, 3e150]
        assert bryson_statistic(xs) == pytest.approx(oracles.BRYSON_T_1_2_3, rel=1e-10)


class TestBatchedStatistic:
    """_t_star over a (rows, n) array against the 1-D reference, bit for bit."""

    SIZES = (2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129,
             255, 256, 257, 1000, 1023, 4999, 5000, 10007)

    @pytest.mark.parametrize("n", SIZES)
    def test_rows_equal_reference(self, n):
        rng = np.random.default_rng(n)
        rows = np.concatenate([
            rng.standard_exponential((4, n)),
            rng.pareto(0.3, (4, n)),
            rng.random((4, n)),
            rng.lognormal(size=(4, n)),
            np.exp(rng.uniform(-300.0, 300.0, (4, n))),
            1e150 * rng.random((4, n)),
            1e-150 * rng.random((4, n)),
        ])
        rows[::3, rng.integers(n)] = 0.0  # zeros, and an all-zero-but-one row at n = 2
        rows[rows.max(axis=1) == 0.0, 0] = 1.0
        got = _t_star(rows)
        assert got.tolist() == [oracles.bryson_statistic_ref(row) for row in rows]

    def test_one_row(self):
        row = np.random.default_rng(5).standard_exponential(100)
        assert _t_star(row[None, :]).tolist() == [oracles.bryson_statistic_ref(row)]
        assert bryson_statistic(row) == oracles.bryson_statistic_ref(row)

    def test_first_bad_row_decides(self):
        rows = np.ones((6, 4))
        rows[:, -1] = 3.0
        rows[2, 0] = -0.5  # refused for its sign
        rows[4, 0] = np.inf
        with pytest.raises(ValueError, match=r"^n=4, replicate 12: smallest value is -0\.5"):
            _t_star(rows, 10)
        with pytest.raises(NonFiniteDrawError, match="^n=4, replicate 4: .*overflowed to inf"):
            _t_star(rows[3:], 3)
        rows[1] = 0.0  # the geometric-mean check comes before the later rows
        with pytest.raises(ValueError, match="^n=4, replicate 1: .*geometric mean"):
            _t_star(rows, 0)
        with pytest.raises(ValueError, match="^smallest value plus"):  # no first: no prefix
            _t_star(rows)


EXP = parse_spec("exp:1")


class TestQuantileTables:
    def test_deterministic_by_seed(self):
        a = simulate_bryson_quantiles(EXP, 50, reps=2000, seed=3)
        b = simulate_bryson_quantiles(EXP, 50, reps=2000, seed=3)
        assert a == b
        c = simulate_bryson_quantiles(EXP, 50, reps=2000, seed=4)
        assert c.quantiles != a.quantiles

    def test_default_probs_and_shape(self):
        t = simulate_bryson_quantiles(EXP, 30, reps=1500, seed=0)
        assert t.probs == (0.025, 0.05, 0.95, 0.975)
        assert len(t.quantiles) == 4
        assert len(t.stderrs) == 4
        assert t.dist == "exp:1"
        assert t.n == 30 and t.reps == 1500 and t.seed == 0

    def test_quantiles_increase_with_prob(self):
        t = simulate_bryson_quantiles(EXP, 50, reps=2000, seed=1)
        assert list(t.quantiles) == sorted(t.quantiles)

    def test_stderrs_positive_and_small(self):
        t = simulate_bryson_quantiles(EXP, 50, reps=4000, seed=2)
        assert all(e > 0 for e in t.stderrs)
        assert all(e < q for q, e in zip(t.quantiles, t.stderrs))

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            simulate_bryson_quantiles(EXP, 50, reps=999)

    def test_prob_validation(self):
        with pytest.raises(ValueError):
            simulate_bryson_quantiles(parse_spec("exp:1"), 50, reps=1000, probs=(0.0, 0.9))

    @pytest.mark.parametrize(("probs", "message"), [
        (0.5, "probs must be a sequence, got 0.5"),
        ("0.5", "probs must be a sequence, got '0.5'"),
        (np.float64(0.5), f"probs must be a sequence, got {np.float64(0.5)!r}"),
        ((), "probs must name at least one quantile, got ()"),
        (("0.5",), "probs must be a real number, got '0.5'"),
        ((0.5, None), "probs must be a real number, got None"),
        ((0.5, 1.0), "quantile probs must lie in (0, 1), got 1.0"),
    ], ids=["float", "text", "numpy", "empty", "text-element", "none-element", "out-of-range"])
    def test_rejects_bad_probs_before_any_draw(self, probs, message, monkeypatch):
        # once a TypeError from iterating a float or from comparing text, and an empty
        # table after every draw and bootstrap
        def no_draws(*args):
            raise AssertionError("drew before checking probs")

        monkeypatch.setattr("tailtest.bryson.replicate_chunks", no_draws)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_bryson_quantiles(EXP, 50, reps=1000, probs=probs)

    def test_custom_law(self):
        t = simulate_bryson_quantiles(parse_spec("gamma:2"), 30, reps=1500, seed=5)
        assert t.dist == "gamma:2"

    def test_unscoreable_replicate_is_named(self):
        # a gamma:0.002 draw underflows to 0 about half the time; replicate 18 is the first
        # whose three values all do. The refusal keeps its type: it is no overflow
        with pytest.raises(ValueError) as info:
            simulate_bryson_quantiles(parse_spec("gamma:0.002"), 3, reps=1000)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "n=3, replicate 18: smallest value plus max/(n-1) is 0; "
            "the geometric mean needs every shifted value > 0")

    @pytest.mark.parametrize("text", ["normal", "logistic", "gumbel", "cauchy", "t:3"])
    def test_rejects_laws_with_negative_support(self, text, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before rejecting the law")

        monkeypatch.setattr("tailtest.bryson.replicate_chunks", no_draws)
        with pytest.raises(ValueError, match=f"{text} takes negative values.*nonnegative"):
            simulate_bryson_quantiles(parse_spec(text), 30, reps=1000)

    @pytest.mark.parametrize("text", [
        "exp:1", "gamma:2", "uniform", "lognormal", "pareto:1", "weibull:2", "loggamma:0.5,1",
    ])
    def test_nonnegative_laws_simulate(self, text):
        t = simulate_bryson_quantiles(parse_spec(text), 20, reps=1000, seed=1)
        assert all(math.isfinite(q) for q in t.quantiles)

    @pytest.mark.parametrize(("probs", "reps"), [((0.05, 0.95), 1001),
                                                  ((0.975, 0.5, 0.5, 0.001), 12_345)])
    @pytest.mark.parametrize("n", [3, 129, 3000])
    def test_table_matches_per_replicate_replay(self, n, probs, reps):
        # 1001 and 12,345 replicates leave the last chunk partial; stderrs go through the
        # bootstrap, whose 200 resamples are drawn here in one call and by the table in blocks
        spec, seed = parse_spec("lognormal"), 8
        stats = np.array([oracles.bryson_statistic_ref(draw(spec, n, SeedSpec(seed, r)))
                          for r in range(reps)])
        idx = make_stream(SeedSpec(seed, reps)).integers(0, reps, size=(200, reps))
        boot = np.quantile(stats[idx], probs, axis=1, method="linear")
        t = simulate_bryson_quantiles(spec, n, reps=reps, seed=seed, probs=probs)
        assert t.quantiles == tuple(np.quantile(stats, probs, method="linear").tolist())
        assert t.stderrs == tuple(boot.std(axis=1, ddof=1).tolist())

    def test_bootstrap_holds_a_block_of_resamples(self):
        # 200 resamples of 20,000 indices and values at once peak near 65 MB; drawn and
        # sorted 16 at a time, about 8 MB
        tracemalloc.start()
        try:
            simulate_bryson_quantiles(EXP, 100, reps=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_heavy_tail_quantiles_are_finite(self):
        # maxima up to about 1e300: 63 of these 1000 T* values once overflowed to NaN
        t = simulate_bryson_quantiles(parse_spec("pareto:0.02"), 100, reps=1000, seed=1)
        assert all(math.isfinite(v) for v in t.quantiles + t.stderrs)

    def test_null_quantiles_shrink_with_n(self):
        # the exponential null concentrates as n grows: upper quantiles fall
        small = simulate_bryson_quantiles(EXP, 50, reps=4000, seed=9)
        large = simulate_bryson_quantiles(EXP, 500, reps=4000, seed=9)
        assert all(a < b for a, b in zip(large.quantiles[2:], small.quantiles[2:]))


class TestSortedQuantiles:
    # (n - 1) * p is whole for 0.25, 0.5, 0.75 when 4 divides n - 1; g is exactly 0.5 at
    # p = 0.5 for even n; 1/3 and 2/3 land within an ulp of a whole number; probs repeat
    # and are unsorted
    PROBS = (0.975, 0.5, 0.25, 0.75, 0.5, 1 / 3, 2 / 3, 0.0, 5e-324, 1e-300, 1e-9, 0.001,
             0.025, 0.999, 0.999999999, 1 - 2**-53, 1.0, 0.1)

    @staticmethod
    def sorted_samples(n, shape):
        rng = np.random.default_rng(n)
        return [np.sort(x, axis=-1) for x in (
            rng.standard_exponential(shape),
            rng.normal(3.0, 1e5, shape),
            -rng.integers(0, 4, shape).astype(float),  # ties, -0.0 among them
        )]

    @pytest.mark.parametrize("n", [*range(1, 65), 1500, 10_000])
    def test_rows_equal_numpy_linear(self, n):
        for values in self.sorted_samples(n, n):
            want = np.quantile(values, self.PROBS, method="linear")
            assert _sorted_quantiles(values, self.PROBS).tobytes() == want.tobytes()
        for rows in self.sorted_samples(n, (5, n)):
            want = np.quantile(rows, self.PROBS, axis=1, method="linear")
            got = _sorted_quantiles(rows, self.PROBS)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBrysonTest:
    def test_exponential_data_is_usually_medium(self):
        # one simulated pair of critical values serves all 40 samples
        crits = simulate_bryson_quantiles(EXP, 60, reps=4000, seed=11, probs=(0.025, 0.975))
        hits = 0
        for r in range(40):
            x = draw(EXP, 60, SeedSpec(100, r))
            hits += decide(bryson_statistic(x), *crits.quantiles) is TailClass.MEDIUM
        assert hits >= 33  # roughly the 95% acceptance rate

    def test_decision_respects_table(self):
        x = draw(EXP, 60, SeedSpec(101, 0))
        res = bryson_test(x, reps=2000, seed=11)
        table = simulate_bryson_quantiles(EXP, 60, 2000, 11, (0.025, 0.975))
        assert (res.lower_crit, res.upper_crit) == table.quantiles
        assert (res.null_dist, res.reps, res.seed) == ("exp:1", 2000, 11)
        if res.t_star < res.lower_crit:
            assert res.decision is TailClass.SHORT
        elif res.t_star > res.upper_crit:
            assert res.decision is TailClass.LONG
        else:
            assert res.decision is TailClass.MEDIUM

    def test_makes_no_bootstrap_draw(self, monkeypatch, tmp_path, capsys):
        # make_stream in bryson.py builds only the bootstrap stream of a table
        def no_bootstrap(*args):
            raise AssertionError("bryson drew a bootstrap")

        monkeypatch.setattr("tailtest.bryson.make_stream", no_bootstrap)
        x = draw(EXP, 60, SeedSpec(102, 0))
        res = bryson_test(x, reps=1000)
        path = tmp_path / "x.txt"
        path.write_text("\n".join(map(repr, x.tolist())), encoding="utf-8")
        exit_code = {TailClass.MEDIUM: 0, TailClass.SHORT: 2, TailClass.LONG: 3}[res.decision]
        assert main(["bryson", str(path), "--reps", "1000"]) == exit_code
        assert f"decision    {res.decision}" in capsys.readouterr().out

    def test_error_order(self):
        # check_alpha first, then the T* checks on the sample, then the reps floor
        with pytest.raises(ValueError, match="alpha must lie"):
            bryson_test([1.0, 3.0], alpha=0.6, reps=10)
        with pytest.raises(ValueError, match="at least 3 values"):
            bryson_test([1.0, 3.0], reps=10)
        with pytest.raises(ValueError, match="reps must be >= 1000"):
            bryson_test([1.0, 2.0, 3.0], reps=999)

    def test_alpha_validation(self):
        x = draw(parse_spec("exp:1"), 30, SeedSpec(103, 0))
        with pytest.raises(ValueError):
            bryson_test(x, alpha=0.6)

    def test_long_tailed_data_flags_long(self):
        # a heavy Pareto sample pushes T* far above the exponential band
        x = draw(parse_spec("pareto:1"), 100, SeedSpec(104, 2))
        res = bryson_test(x, reps=2000, seed=12)
        assert res.decision is TailClass.LONG


class TestPublishedQuantiles:
    """Spot checks against published null-quantile values (10000 replicates)."""

    def test_gamma_shape_2_n_50(self):
        t = simulate_bryson_quantiles(parse_spec("gamma:2"), 50, reps=10_000, seed=7)
        published = (0.0611, 0.0643, 0.1246, 0.1336)
        for ours, ref in zip(t.quantiles, published):
            assert ours == pytest.approx(ref, abs=0.005)

    def test_gamma_shape_half_n_100(self):
        t = simulate_bryson_quantiles(parse_spec("gamma:0.5"), 100, reps=10_000, seed=7)
        published = (0.1751, 0.1889, 0.3768, 0.3968)
        for ours, ref in zip(t.quantiles, published):
            assert ours == pytest.approx(ref, abs=0.008)
