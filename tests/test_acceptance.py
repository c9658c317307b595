"""Acceptance checks: published reference values at their stated tolerances.

Every test here asserts a published target exactly as stated, one test per
target, so a verbose run shows one pass/fail line each. Three targets are
unreachable from the statistic and samplers as defined (the margins are many
Monte Carlo standard errors wide, not noise); those carry strict xfail marks
whose reasons summarize the analysis, and the assertions still run at the
stated tolerance so any change in behavior surfaces immediately.

The dataset checks at the bottom run only when the corresponding files are
present under data/ (they are not bundled; data/README.md says how to build
them) and report as skipped otherwise.
"""
import math
import pathlib
import time

import numpy as np
import pytest

from tailtest import (
    SimulationPlan,
    blocked_test,
    bryson_statistic,
    emit_table,
    run_plan,
    shift_sample,
    simulate_bryson_quantiles,
    tail_test,
)
from tailtest.cli import read_dataset
from tailtest.distributions import parse_spec, sample as draw
from tailtest.rng import SeedSpec, erlang_criticals, erlang_tails

from . import oracles

SEED = 7
REPS = 10_000
THREADS = 8
DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def rates(dist, n, k=1, seed=SEED, reps=REPS):
    plan = SimulationPlan(
        spec=parse_spec(dist), n_grid=(n,), k_blocks=k, reps=reps, base_seed=seed
    )
    row = run_plan(plan, threads=THREADS).rows[0]
    return row.short_rate, row.long_rate


# --- Type I error of the plain test -----------------------------------------


def test_type_i_exponential_rates_and_runtime():
    """Unit exponential at n=250 and n=1000: rates within 0.012, under 30s."""
    start = time.perf_counter()
    targets = {250: (0.0506, 0.0541), 1000: (0.0501, 0.0503)}
    for n, (short_ref, long_ref) in targets.items():
        short, long_ = rates("exp:1", n)
        assert abs(short - short_ref) <= 0.012, (n, short, short_ref)
        assert abs(long_ - long_ref) <= 0.012, (n, long_, long_ref)
    assert time.perf_counter() - start < 30.0


# --- Power of the plain test -------------------------------------------------


def test_long_power_pareto_gamma1_n1000():
    """Pareto gamma=1 at n=1000: long rate 0.9809 +/- 0.012, short below 0.005."""
    short, long_ = rates("pareto:1", 1000)
    assert abs(long_ - 0.9809) <= 0.012, long_
    assert short < 0.005, short


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published short rate 0.7862 is unreachable from the statistic as "
        "defined: at n=100 the evaluation point ln(max) of a Weibull gamma=5 "
        "sample lies far below the sample bulk, so the empirical survival "
        "there is about 1, the rate estimate collapses to about 0, and the "
        "short rate sits near 1.0 for every scaling of the data"
    ),
)
def test_short_power_weibull_gamma5_n100():
    """Weibull gamma=5 at n=100: published short rate 0.7862 +/- 0.015."""
    short, _ = rates("weibull:5", 100)
    assert abs(short - 0.7862) <= 0.015, short


# --- Blocked test ------------------------------------------------------------


def test_blocked_short_power_gumbel_n500_k1():
    """Gumbel (short form) at n=500, one block: short rate 0.1816 +/- 0.02."""
    short, _ = rates("gumbel", 500, k=1)
    assert abs(short - 0.1816) <= 0.02, short


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published value 0.9635 comes from a table row that is inconsistent "
        "with its own neighbors: the engine reproduces the k=1, k=5 and k=25 "
        "entries of that row for other laws and every blocked rate at larger "
        "n, and no shift of the Gumbel form satisfies both the k=1 value "
        "0.1816 and this k=10 value simultaneously; the engine gives about "
        "0.90 here"
    ),
)
def test_blocked_short_power_gumbel_n500_k10():
    """Gumbel (short form) at n=500, ten blocks: published 0.9635 +/- 0.02."""
    short, _ = rates("gumbel", 500, k=10)
    assert abs(short - 0.9635) <= 0.02, short


def test_blocked_long_power_lognormal_n5000_k10():
    """Lognormal at n=5000, ten blocks: long rate 0.9921 +/- 0.01."""
    _, long_ = rates("lognormal", 5000, k=10)
    assert abs(long_ - 0.9921) <= 0.01, long_


@pytest.mark.parametrize(
    "k,short_ref,long_ref",
    [(5, 0.0549, 0.0488), (10, 0.0499, 0.0546), (25, 0.0463, 0.0558)],
)
def test_blocked_type_i_exponential_n5000(k, short_ref, long_ref):
    """Unit exponential at n=5000, k in {5, 10, 25}: rates within 0.012."""
    short, long_ = rates("exp:1", 5000, k=k)
    assert abs(short - short_ref) <= 0.012, (k, short, short_ref)
    assert abs(long_ - long_ref) <= 0.012, (k, long_, long_ref)


# --- Bryson comparison statistic ----------------------------------------------


def test_bryson_exponential_quantiles_n50():
    """Exponential null at n=50: the four quantiles within 0.006 of published."""
    table = simulate_bryson_quantiles(parse_spec("exp:1"), 50, reps=REPS, seed=SEED)
    published = (0.1035, 0.1104, 0.2371, 0.2546)
    for ours, ref in zip(table.quantiles, published):
        assert abs(ours - ref) <= 0.006, (ours, ref)


def test_bryson_gamma2_upper_quantile_n100():
    """Gamma shape 2 at n=100: 0.975 quantile 0.0807 +/- 0.004."""
    table = simulate_bryson_quantiles(parse_spec("gamma:2"), 100, reps=REPS, seed=SEED)
    assert abs(table.quantiles[3] - 0.0807) <= 0.004


def test_bryson_loggamma_quantiles_within_15_percent():
    """Log-gamma shape 0.5, scale 1 at n=50: quantiles within 15% of published."""
    table = simulate_bryson_quantiles(parse_spec("loggamma:0.5,1"), 50, reps=REPS, seed=SEED)
    published = (0.0682, 0.0783, 0.6478, 0.7257)
    for ours, ref in zip(table.quantiles, published):
        assert abs(ours - ref) / ref <= 0.15, (ours, ref)


# --- Known values -------------------------------------------------------------


def test_known_value_spacing_statistic():
    """T on {e, e^2, e^3} equals the published 1.71606 to 1e-4."""
    res = tail_test([math.e, math.e**2, math.e**3])
    assert abs(res.t_stat - 1.71606) <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the defining formula gives T*({1,2,3}) = 6 / (2 * 39.375^(2/3)) = "
        "0.2592035..., which differs from the published 0.25911 by 9.4e-5, "
        "beyond the stated 1e-5 tolerance; the published constant appears to "
        "be a misrounding"
    ),
)
def test_known_value_bryson_statistic():
    """T* on {1, 2, 3} equals the published 0.25911 to 1e-5."""
    assert abs(bryson_statistic([1.0, 2.0, 3.0]) - 0.25911) <= 1e-5


def test_known_value_gamma_quantile():
    """gamma(2,1) 0.95 quantile, the upper critical value at alpha 0.05, equals the
    published 4.7439 to 1e-4, and the 40-digit oracle to 1e-12 relative."""
    upper = erlang_criticals(0.05, 2)[1]
    assert abs(upper - 4.7439) <= 1e-4
    assert upper == pytest.approx(oracles.GAMMA2_Q95, rel=1e-12, abs=0)


# --- Property suites ----------------------------------------------------------


def test_property_null_statistic_matches_exponential_law():
    """T over unit-exponential replicates stays KS-close to Exp(1)."""
    reps, n = 2000, 1000
    spec = parse_spec("exp:1")
    stats = np.array(
        [tail_test(draw(spec, n, SeedSpec(515, r))).t_stat for r in range(reps)]
    )
    assert oracles.ks_distance(stats, oracles.cdf_exponential(1.0)) < 0.05


def test_property_bryson_scale_invariance():
    """T*(cX) = T*(X) to 1e-10 relative across six orders of magnitude."""
    rng = np.random.default_rng(99)
    for _ in range(20):
        x = rng.gamma(2.0, 1.0, size=40)
        base = bryson_statistic(x)
        for c in (1e-6, 1e-3, 0.5, 7.0, 1e3, 1e6):
            assert bryson_statistic(c * x) == pytest.approx(base, rel=1e-10)


def test_property_blocked_k1_equals_plain_test():
    """One-block results are bitwise equal to the plain test."""
    spec = parse_spec("lognormal")
    for r in range(50):
        x = draw(spec, 50, SeedSpec(77, r))
        assert blocked_test(x, 1).sum_stat == tail_test(x).t_stat


def test_property_gamma_round_trip():
    """Each gamma(k,1) tail at its critical value returns the level to 1e-10 on a wide grid."""
    for k in (1, 2, 3, 5, 10, 25, 50):
        for alpha in (1e-6, 0.025, 0.05):  # p and 1 - p, as 0.5 is no level
            lower, upper = erlang_criticals(alpha, k)
            assert abs(erlang_tails(lower, k)[0] - alpha) <= 1e-10
            assert abs(erlang_tails(upper, k)[1] - alpha) <= 1e-10


def test_property_csv_identical_across_thread_counts():
    """The emitted CSV is byte-identical whether 1 or 8 threads ran the plan."""
    plan = SimulationPlan(
        spec=parse_spec("exp:1"), n_grid=(100,), reps=2000, base_seed=SEED
    )
    one = emit_table(run_plan(plan, threads=1), "csv")
    eight = emit_table(run_plan(plan, threads=8), "csv")
    assert one == eight


# --- Real datasets (run only when the files are present) -----------------------


def _load_dataset(name):
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(f"dataset not present: data/{name} (see data/README.md)")
    values, _ = read_dataset(str(path))
    return values


def test_dataset_auto_claims_long_tail():
    """Large auto claims (values in millions, shifted by the 1.2 threshold)."""
    values = _load_dataset("secura.txt")
    res = tail_test(shift_sample(values, 1.2))
    assert abs(res.t_stat - 70.40) <= 0.05
    assert str(res.decision) == "Long"


def test_dataset_fiber_strengths_short_tail():
    """Breaking strengths of glass fibers: a clearly short tail."""
    values = _load_dataset("glass.txt")
    res = tail_test(shift_sample(values))
    assert abs(res.t_stat - 0.014) <= 0.001
    assert str(res.decision) == "Short"
    assert abs(res.p_short - 0.014) <= 0.002


def test_dataset_river_discharge_medium_tail():
    """Annual maximum river discharge, smallest year subtracted out."""
    values = _load_dataset("feather.txt")
    res = tail_test(shift_sample(values, "min"))
    assert abs(res.t_stat - 0.35) <= 0.01
    assert str(res.decision) == "Medium"
    assert abs(res.p_long - 0.70) <= 0.05
