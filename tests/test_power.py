"""Monte Carlo engine: determinism, exact accounting, emitters, plan files."""
import csv
import io
import json
import math
import re
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import (
    DegenerateSampleError,
    DistributionSpec,
    MaxNotAboveOneError,
    NonFiniteDrawError,
    SimulationPlan,
    SimulationReport,
    TailClass,
    blocked_test,
    emit_table,
    parse_plan_file,
    recommend_blocks,
    run_plan,
    tail_test,
)
from tailtest.base import BlockTooSmallError, decide
from tailtest.bryson import bryson_test, simulate_bryson_quantiles
from tailtest.blocking import block_scores, block_sizes, partition, shift_sample
from tailtest.distributions import chunk_rows, parse_spec, replicate_chunks
from tailtest.power import CSV_HEADER, SMALLMAX_POLICIES, RateRow
from tailtest.base import EQUAL, NONFINITE, REFUSED, SCORED, SHORT
from tailtest.blocking import spacing_rows, verdict
from tailtest.distributions import sample as draw_sample
from tailtest.rng import SeedSpec, erlang_criticals, erlang_tails, make_stream

from . import oracles
from .test_golden import FAMILY_SPECS


def small_plan(dist="exp:1", n=(50,), **kw):
    defaults = dict(reps=400, base_seed=7)
    defaults.update(kw)
    return SimulationPlan(spec=parse_spec(dist), n_grid=tuple(n), **defaults)


class TestPlanValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SimulationPlan(spec=parse_spec("exp:1"), n_grid=())

    def test_rejects_tiny_reps(self):
        with pytest.raises(ValueError):
            small_plan(reps=99)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            small_plan(alpha=0.5)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            small_plan(smallmax_policy="ignore")

    def test_rejects_repeated_n(self):
        with pytest.raises(ValueError, match=r"^sample size n=50 is repeated$"):
            small_plan(n=(50, 100, 50))

    @pytest.mark.parametrize("field,value", [
        ("n_grid", (100.7,)), ("n_grid", (100.0,)), ("reps", 150.5), ("k_blocks", 2.5),
        ("k_blocks", True), ("base_seed", -1), ("base_seed", 2**64), ("base_seed", 3.0),
    ])
    def test_rejects_a_field_it_cannot_run(self, field, value):
        # once truncated (n=100.7 ran as n=100) or failing mid-run (reps=150.5); the
        # base seed's message names it as every command's option does: "seed"
        with pytest.raises(ValueError, match=f"^(each n of )?{field.removeprefix('base_')}"):
            small_plan(**{"n" if field == "n_grid" else field: value})

    @pytest.mark.parametrize("n_grid", [100, "100", b"100", np.int64(100), np.array(100), None],
                             ids=["int", "text", "bytes", "numpy_int", "numpy_0d", "none"])
    def test_rejects_a_grid_that_is_no_sequence(self, n_grid):
        # once a TypeError ("'int' object is not iterable"), or text read one character
        # at a time: "each n of n_grid must be an integer, got '1'"
        message = f"n_grid must be a sequence, got {n_grid!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationPlan(spec=parse_spec("exp:1"), n_grid=n_grid)

    @pytest.mark.parametrize("n_grid", [[50, 100], (n for n in (50, 100)), np.array([50, 100])],
                             ids=["list", "generator", "numpy"])
    def test_any_iterable_grid_is_stored_as_a_tuple(self, n_grid):
        assert SimulationPlan(spec=parse_spec("exp:1"), n_grid=n_grid).n_grid == (50, 100)

    def test_numpy_integers_are_stored_as_int(self):
        plan = small_plan(n=(np.int64(50),), k_blocks=np.int32(2), reps=np.int64(200),
                          base_seed=np.uint64(3))
        fields = (*plan.n_grid, plan.k_blocks, plan.reps, plan.base_seed)
        assert fields == (50, 2, 200, 3)
        assert all(type(v) is int for v in fields)

    def test_rejects_infeasible_blocks(self):
        with pytest.raises(BlockTooSmallError):
            small_plan(n=(10,), k_blocks=4)

    @pytest.mark.parametrize("spec", ["exp:1", None, ("exp", (1.0,))], ids=["text", "none", "tuple"])
    def test_rejects_a_spec_it_cannot_draw_from(self, spec):
        # once accepted, so that run_plan failed with "'str' object has no attribute 'params'"
        message = f"spec must be a DistributionSpec, got {spec!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationPlan(spec=spec, n_grid=(50,))

    @pytest.mark.parametrize("alpha", [np.float32(0.05), np.float64(0.05)],
                             ids=["float32", "float64"])
    def test_alpha_is_stored_as_the_float_it_checked(self, alpha):
        # once kept as given: a float32 made the JSON emitter raise TypeError. Text, once
        # written to the JSON as the string "0.05", is refused (test_real_arguments_...)
        plan = small_plan(alpha=alpha)
        assert type(plan.alpha) is float and plan.alpha == float(alpha)
        [report] = json.loads(emit_table(run_plan(plan), "json"))["reports"]
        assert report["alpha"] == float(alpha)


# a count or seed SimulationPlan refuses, given to each library entry point that takes one:
# each once truncated it (seed 2.5 ran as 2, n = 50.7 as 50), read True as 1, ignored it
# (threads 2.5) or failed in numpy or range(). Each check is base.check_integer's, and a
# count below its bound reads "{name} must be >= {least}, got {value}"
@pytest.mark.parametrize("call,message", [
    (lambda: make_stream(2.5), "seed must be an integer"),
    (lambda: make_stream(3.0), "seed must be an integer"),
    (lambda: make_stream(True), "seed must be an integer, got True$"),
    (lambda: SeedSpec(0, True), "stream_id must be an integer, got True$"),
    (lambda: small_plan(base_seed=True), "seed must be an integer, got True$"),
    (lambda: blocked_test(np.arange(1.0, 101.0), 5, seed=2.5), "seed must be an integer"),
    (lambda: blocked_test(np.arange(1.0, 101.0), 5, strategy="sequential", seed=-1),
     r"seed must be an integer from 0 to 2\*\*64 - 1, got -1$"),
    (lambda: blocked_test(np.arange(1.0, 101.0), 1, seed=True),
     "seed must be an integer, got True$"),
    (lambda: partition(np.arange(1.0, 101.0), 2, "sequential", seed=1.5),
     "seed must be an integer, got 1.5$"),
    (lambda: blocked_test(np.arange(1.0, 101.0), 5.0), "k must be an integer"),
    (lambda: block_sizes(100, 2.5), "k must be an integer"),
    (lambda: draw_sample(parse_spec("exp:1"), 2.5, 0), "n must be an integer"),
    (lambda: replicate_chunks(parse_spec("exp:1"), 50.0, 0, 100), "n must be an integer"),
    (lambda: replicate_chunks(parse_spec("exp:1"), 50, 0, 2.5), "reps must be an integer"),
    (lambda: run_plan(small_plan(), 2.5), "threads must be an integer, got 2.5$"),
    (lambda: block_sizes(10, 0), "k must be >= 1, got 0$"),
    (lambda: erlang_tails(1.0, 0), "shape k must be >= 1, got 0$"),
    (lambda: simulate_bryson_quantiles(parse_spec("exp:1"), 50.7, reps=1000),
     "n must be an integer"),
    (lambda: bryson_test(np.arange(1.0, 101.0), reps=1000.5), "reps must be an integer"),
    (lambda: recommend_blocks(150.0), "n must be an integer, got 150.0$"),
    (lambda: recommend_blocks(100.5), "n must be an integer, got 100.5$"),
    (lambda: recommend_blocks(14), "n must be >= 15, got 14$"),
], ids=["make_stream", "make_stream_whole", "make_stream_bool", "seedspec_bool", "plan_seed_bool",
        "blocked_test_seed", "blocked_test_sequential_seed", "blocked_test_one_block_seed",
        "partition_sequential_seed", "blocked_test_k", "block_sizes", "sample", "replicate_chunks",
        "replicate_chunks_reps", "run_plan_threads", "block_sizes_bound", "erlang_tails_bound",
        "simulate_bryson_quantiles", "bryson_test", "recommend_blocks_whole",
        "recommend_blocks", "recommend_blocks_bound"])
def test_entry_points_refuse_what_the_plan_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


# each real-valued argument of the library, read by base.check_real: float() once read
# text and bools as numbers (text alpha ran, erlang_tails(True, 1) as x = 1), or failed
# with a TypeError (None) or in a comparison (a text element of probs)
REAL_ARGUMENTS = {
    "tail_test": ("alpha", lambda v: tail_test(np.arange(2.0, 12.0), v)),
    "blocked_test": ("alpha", lambda v: blocked_test(np.arange(2.0, 12.0), 2, v)),
    "bryson_test": ("alpha", lambda v: bryson_test(np.arange(2.0, 12.0), v, reps=1000)),
    "SimulationPlan": ("alpha", lambda v: small_plan(alpha=v)),
    "erlang_tails": ("x", lambda v: erlang_tails(v, 1)),
    "DistributionSpec": ("params", lambda v: DistributionSpec("exp", (v,))),
    "shift_sample": ("shift", lambda v: shift_sample([1.0, 2.0, 3.0], v)),
    "probs": ("probs", lambda v: simulate_bryson_quantiles(parse_spec("exp:1"), 50, reps=1000,
                                                           probs=(0.5, v))),
}


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{kind}") for entry in REAL_ARGUMENTS
    for kind, value in (("bool", True), ("text", "0.05"), ("bytes", b"1"), ("none", None))
    if (entry, value) != ("shift_sample", None)])  # a shift of None is no shift
def test_real_arguments_refuse_what_is_no_real_number(entry, value):
    name, call = REAL_ARGUMENTS[entry]
    message = f"{name} must be a real number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


class TestDeterminism:
    def test_same_plan_same_counts(self):
        a = run_plan(small_plan(reps=500))
        b = run_plan(small_plan(reps=500))
        assert a.rows == b.rows

    def test_thread_count_is_invisible(self):
        # replicate r always draws stream (seed, r): thread split cannot matter
        plan = small_plan("pareto:1", n=(40, 80), reps=600)
        assert run_plan(plan, threads=1).rows == run_plan(plan, threads=8).rows

    def test_csv_byte_identical_across_threads(self):
        plan = small_plan("lognormal", n=(60,), reps=800, k_blocks=2)
        one = emit_table(run_plan(plan, threads=1), "csv")
        eight = emit_table(run_plan(plan, threads=8), "csv")
        assert one == eight

    def test_seed_changes_counts(self):
        a = run_plan(small_plan(reps=500, base_seed=1))
        b = run_plan(small_plan(reps=500, base_seed=2))
        assert a.rows != b.rows


class TestAccounting:
    def test_counts_sum_to_reps_exactly(self):
        # cauchy at n=10 throws some replicates away (negative maxima)
        plan = small_plan("cauchy", n=(10,), reps=2000)
        row = run_plan(plan).rows[0]
        assert row.error_count > 0
        assert row.short_count + row.medium_count + row.long_count + row.error_count == 2000

    def test_first_refused_is_the_first_replicate_with_a_maximum_at_or_below_zero(self):
        # under 'raw' a cauchy maximum in (0, 1) is scored, one at or below 0 refused
        plan = small_plan("cauchy", n=(10,), reps=2000)
        row = run_plan(plan).rows[0]
        assert (row.equal_count, row.first_equal) == (0, None)
        assert row.refused_count == row.error_count > 0
        maxima = [draw_sample(plan.spec, 10, make_stream(SeedSpec(7, r))).max()
                  for r in range(row.first_refused + 1)]
        assert maxima[-1] <= 0.0 and all(mx > 0.0 for mx in maxima[:-1])

    def test_tally_counts_each_reason_and_its_first_replicate(self, monkeypatch):
        # handmade replicates of n = 4 in two chunks: under 'error' an all-equal one is
        # EQUAL, one with its maximum below 1 REFUSED; every other is scored
        equal, refused = {3, 60, 61}, {10, 70, 71, 99}
        draws = np.array([[2.0] * 4 if r in equal else [0.1, 0.2, 0.3, 0.4] if r in refused
                          else [1.5, 2.0, 3.0, 5.0] for r in range(100)])
        monkeypatch.setattr("tailtest.power.replicate_chunks",
                            lambda *args: iter([(0, draws[:50]), (50, draws[50:])]))
        [row] = run_plan(small_plan(n=(4,), reps=100, smallmax_policy="error")).rows
        assert (row.equal_count, row.first_equal) == (3, 3)
        assert (row.refused_count, row.first_refused) == (4, 10)
        assert row.error_count == 7
        assert row.short_count + row.medium_count + row.long_count == 93 == row.reps - 7

    def test_stderr_formula(self):
        row = run_plan(small_plan(reps=500)).rows[0]
        p = row.short_rate
        assert row.stderr_short == pytest.approx(math.sqrt(p * (1 - p) / 500), rel=1e-12)

    def test_rates_are_counts_over_reps(self):
        row = run_plan(small_plan(reps=500)).rows[0]
        assert row.short_rate == row.short_count / 500
        assert row.medium_rate == row.medium_count / 500
        assert row.long_rate == row.long_count / 500


class TestSmallMaxPolicies:
    def test_uniform_raw_goes_short(self):
        # max < 1 and all mass above ln(max) < 0: the formula yields T = 0
        row = run_plan(small_plan("uniform", n=(50,), smallmax_policy="raw")).rows[0]
        assert row.short_rate == 1.0
        assert row.error_count == 0

    def test_uniform_error_policy_aborts_replicates(self):
        row = run_plan(small_plan("uniform", n=(50,), smallmax_policy="error")).rows[0]
        assert row.error_count == 400
        assert row.short_count == 0

    def test_error_policy_tallies_every_replicate_as_refused(self):
        # replicate 0 of small_plan draws stream (7, 0), which the public test refuses
        row = run_plan(small_plan("uniform", n=(50,), smallmax_policy="error")).rows[0]
        values = draw_sample(parse_spec("uniform"), 50, make_stream(SeedSpec(7, 0)))
        with pytest.raises(MaxNotAboveOneError):
            tail_test(values)
        assert (row.refused_count, row.first_refused) == (400, 0)
        assert (row.equal_count, row.first_equal) == (0, None)

    def test_uniform_short_policy_classifies_short(self):
        row = run_plan(small_plan("uniform", n=(50,), smallmax_policy="short")).rows[0]
        assert row.short_rate == 1.0

    def test_policies_agree_when_maxima_exceed_one(self):
        # exp:1 at n=100 essentially never has max <= 1, so policies coincide
        rows = [
            run_plan(small_plan("exp:1", n=(100,), smallmax_policy=pol, reps=600)).rows[0]
            for pol in ("raw", "short", "error")
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_tiny_scale_exponential_raw_still_counts(self):
        # maxima around 0.07: raw evaluates the formula, nothing errors
        row = run_plan(small_plan("exp:100", n=(50,), smallmax_policy="raw")).rows[0]
        assert row.error_count == 0
        assert row.short_count + row.medium_count + row.long_count == 400


@st.composite
def engine_replicates(draw):
    """(k, values): n not always divisible by k, and a few repeated values so
    that the top two order statistics of a block often tie, whole blocks are
    constant, or a block maximum is at most 1."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=3 * k, max_value=3 * k + 13))
    value = st.one_of(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 7.5]),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    return k, np.array(draw(st.lists(value, min_size=n, max_size=n)))


def _engine_outcome(values, k, policy):
    """The engine's outcome of one replicate, scored as a one-row chunk by block_scores:
    (TailClass, None), or (None, error message). An overflowed draw would abort the plan."""
    stats, _, refused, _ = block_scores(values[np.newaxis], k, policy)
    if refused is None:
        total = oracles.left_to_right_sum(stats[0].tolist())
        return decide(total, *erlang_criticals(0.05, k)), None
    code, block, mx = (a.item(0) for a in refused)
    assert code != NONFINITE
    return (TailClass.SHORT, None) if code == SHORT else (None, str(verdict(code, mx, block, k)))


# oracles.block_statistics_ref's outcome of one block -> spacing_rows' code
_REF_CODES = {
    "DegenerateSampleError": EQUAL, "MaxNotAboveOneError": REFUSED, "NonFiniteDrawError": NONFINITE,
}


def _ref_code(out):
    if out is None:
        return SHORT
    return SCORED if isinstance(out, list) else _REF_CODES[out[0]]


def _public_decision(values, k):
    if k == 1:
        return tail_test(values).decision
    return blocked_test(values, k, strategy="sequential").decision


class TestEngineMatchesSingleSampleTests:
    @given(case=engine_replicates())
    @settings(max_examples=300, deadline=None)
    def test_replicate_class_matches(self, case):
        # under 'error' the engine reports an error exactly when the public
        # tests raise, in their words, and otherwise gives their decision
        k, values = case
        got, err = _engine_outcome(values, k, "error")
        try:
            expected = _public_decision(values, k)
        except (DegenerateSampleError, MaxNotAboveOneError) as exc:
            assert got is None and err.endswith(str(exc))
            return
        assert err is None
        assert got is expected

    @given(case=engine_replicates())
    @settings(max_examples=300, deadline=None)
    def test_short_policy_calls_small_max_short(self, case):
        # values are >= 0, so a block with max <= 1 that is not constant has
        # max > 0: under 'short' the first such block makes the replicate Short
        k, values = case
        got, err = _engine_outcome(values, k, "short")
        try:
            expected = _public_decision(values, k)
        except DegenerateSampleError as exc:
            assert got is None and err.endswith(str(exc))
            return
        except MaxNotAboveOneError:
            expected = TailClass.SHORT
        assert err is None
        assert got is expected

    @pytest.mark.parametrize("policy", ["error", "short", "raw"])
    @pytest.mark.parametrize("value", [2.0, 0.5])
    def test_constant_block_is_an_error(self, value, policy):
        # the public test raises DegenerateSampleError on these values, so the
        # engine counts an error under every policy, never T = 0 and Short
        with pytest.raises(DegenerateSampleError) as info:
            tail_test([value] * 3)
        got, err = _engine_outcome(np.array([value] * 3), 1, policy)
        assert got is None and err.endswith(str(info.value))

    @given(case=engine_replicates())
    @settings(max_examples=300, deadline=None)
    def test_block_codes_match_reference(self, case):
        # each block's code is the one-block reference's outcome, block by block, and
        # block_scores reports the first nonzero one, its block and that block's maximum
        k, values = case
        blocks = np.split(values, np.cumsum(block_sizes(values.size, k))[:-1])
        for policy in SMALLMAX_POLICIES:
            codes = []
            for block in blocks:
                _, code, tops, *_ = spacing_rows(block[np.newaxis], policy)
                assert code.tolist() == [_ref_code(oracles.block_statistics_ref(block, 1, policy))]
                assert tops[0, -1] == block.max()
                codes.append(code.item(0))
            _, _, refused, _ = block_scores(values[np.newaxis], k, policy)
            if not any(codes):
                assert refused is None
                continue
            j = next(j for j, code in enumerate(codes) if code)
            assert [a.tolist() for a in refused] == [[codes[j]], [j], [blocks[j].max()]]


def _reference_row(plan, n):
    """The RateRow of the one-replicate-at-a-time loop, or, when some draw overflowed,
    the abort message "n=<n>, replicate r: <message>" of the first that did."""
    lower, upper = erlang_criticals(plan.alpha, plan.k_blocks)
    # a new stream per replicate, not the engine's re-keyed one
    draws = (draw_sample(plan.spec, n, make_stream(SeedSpec(plan.base_seed, r)))
             for r in range(plan.reps))
    with np.errstate(over="ignore"):  # a draw may overflow to inf
        counts, firsts = oracles.run_row_ref(draws, plan.k_blocks, lower, upper,
                                             plan.smallmax_policy)
    if "NonFiniteDrawError" in firsts:
        r, message = firsts["NonFiniteDrawError"]
        return f"n={n}, replicate {r}: {message}"
    errors = ("DegenerateSampleError", "MaxNotAboveOneError")
    row = RateRow(n, counts["Short"], counts["Medium"], counts["Long"],
                  *(counts[name] for name in errors),
                  *(firsts.get(name, (None,))[0] for name in errors))
    assert row.reps == plan.reps
    return row


class TestChunkedEngineMatchesReplicateLoop:
    """run_plan scores chunks of replicates; the loop it replaced scored one at a time."""

    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    @pytest.mark.parametrize("k", [1, 5, 25])
    @pytest.mark.parametrize("dist", FAMILY_SPECS)
    def test_rows_equal_reference_loop(self, dist, k, policy):
        # a chunk holds 163 replicates at n = 100 and 162 at n = 101, so 200 leave
        # the last one partial; at n = 101, k = 5 and 25 give blocks of two sizes
        plan = small_plan(dist, n=(100, 101), k_blocks=k, reps=200, smallmax_policy=policy)
        assert run_plan(plan).rows == tuple(_reference_row(plan, n) for n in plan.n_grid)

    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("dist", ["exp:100", "uniform", "cauchy", "pareto:1"])
    def test_large_rows_equal_reference_loop(self, dist, k, policy):
        # 16 replicates per chunk at n = 1000, so 100 leave a partial sixth chunk
        plan = small_plan(dist, n=(1000,), k_blocks=k, reps=100, smallmax_policy=policy)
        assert run_plan(plan).rows == (_reference_row(plan, 1000),)

    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    @pytest.mark.parametrize("k", [1, 7, 25])
    @pytest.mark.parametrize("n", [2049, 3001])
    @pytest.mark.parametrize("dist", ["exp:100", "uniform", "cauchy", "pareto:1"])
    def test_rows_past_2048_equal_reference_loop(self, dist, n, k, policy):
        # past n = 2048 a chunk holds 8 replicates, so 100 leave a partial thirteenth;
        # 2049 and 3001 are divisible by neither 7 nor 25
        plan = small_plan(dist, n=(n,), k_blocks=k, reps=100, smallmax_policy=policy)
        assert chunk_rows(n) == 8
        assert run_plan(plan).rows == (_reference_row(plan, n),)

    def test_overflow_after_the_first_chunk_names_the_replicate(self):
        plan = small_plan("pareto:0.02", n=(1000,), k_blocks=5, reps=1000, base_seed=0)
        expected = _reference_row(plan, 1000)
        assert expected.startswith("n=1000, replicate 915: draw overflowed to inf")
        with pytest.raises(NonFiniteDrawError) as info:
            run_plan(plan)
        assert str(info.value) == expected

    def test_refusals_spanning_chunks_are_all_counted(self):
        # 16 replicates per chunk at n = 1000; under 'error', blocks of 12 and 13 values
        # refuse about a quarter of exp:1 replicates, more than one chunk holds, and
        # the first of them is the row's first_refused
        plan = small_plan("exp:1", n=(1000,), k_blocks=80, reps=100, smallmax_policy="error")
        [row] = run_plan(plan).rows
        assert row == _reference_row(plan, 1000)
        assert (row.equal_count, row.first_equal) == (0, None)
        assert row.refused_count == row.error_count > 16
        assert row.first_refused < 16

    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    @pytest.mark.parametrize("k", [1, 5, 25])
    @pytest.mark.parametrize("dist", FAMILY_SPECS)
    def test_chunk_totals_equal_reference_sums(self, dist, k, policy):
        # bit for bit: each block T of a replicate the reference scores, and their total
        # added left to right; a replicate with a nonzero first code is exactly one it
        # does not score, and the code says how
        for _, chunk in replicate_chunks(parse_spec(dist), 101, 11, 200):
            stats, totals, refused, _ = block_scores(chunk, k, policy)
            codes = np.zeros(len(chunk), int) if refused is None else refused[0]
            for row, total, code, values in zip(stats.tolist(), totals.tolist(),
                                                codes.tolist(), chunk):
                expected = oracles.block_statistics_ref(values, k, policy)
                assert code == _ref_code(expected)
                if code == SCORED:
                    assert row == expected
                    assert total == oracles.left_to_right_sum(expected)

    @pytest.mark.parametrize("policy", ["short", "error"])
    def test_each_replicate_is_scored_once(self, policy, monkeypatch):
        # 2,000 replicates at n = 250 are 31 chunks of 65; under these policies no
        # uniform replicate is scored, yet none is sent back through the kernel
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return spacing_rows(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tailtest") and getattr(module, "spacing_rows", 0) is spacing_rows:
                monkeypatch.setattr(module, "spacing_rows", counted)
        plan = small_plan("uniform", n=(250,), reps=2000, base_seed=1, smallmax_policy=policy)
        row = run_plan(plan).rows[0]
        assert len(calls) == 31
        assert row.short_count + row.error_count == 2000


class TestJointLoop:
    """run_plan draws each replicate once, at the grid's largest n, and scores every
    smaller n on the first n values of it, gathered from whole chunks of the largest n
    into a buffer of as many as fit in that n's chunk_rows(n) rows."""

    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("dist", FAMILY_SPECS)
    @pytest.mark.parametrize("n_grid, reps", [
        # chunks of 16 at n = 1000 and buffers of 160 and 64 replicates (10 and 4
        # chunks): 200 leave the last of each partial
        ((1000, 100, 250), 200),
        # chunks of 23 and buffers of 161 and 391 (7 and 17 chunks): 421 leave the last
        # of each partial, and n = 40 fills its buffer once, from 17 chunks of n = 700
        ((700, 101, 40), 421),
        # the benchmark's largest n: chunks of 8 and buffers of 64 and 16, and 203 leave
        # the last of each partial, and n = 250 fills its buffer three times
        ((5000, 250, 1000), 203),
    ], ids=["1000-100-250", "700-101-40", "5000-250-1000"])
    def test_rows_equal_reference_loop(self, n_grid, reps, dist, k, policy):
        plan = small_plan(dist, n=n_grid, k_blocks=k, reps=reps, smallmax_policy=policy)
        rows = run_plan(plan).rows
        assert [row.n for row in rows] == list(n_grid)
        for row in rows:
            assert row == _reference_row(plan, row.n)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("dist, n_grid, seed", [
        ("pareto:0.02", (40, 3000), 0),  # n = 3000 overflows first in draw order
        ("pareto:0.02", (40, 3000), 1),  # only n = 3000 overflows
        ("pareto:0.02", (3000, 40), 0),
        ("pareto:0.02", (250, 100, 5000), 1),
        ("pareto:0.01", (40, 3000), 1),
        ("loggamma:1,800", (5000, 40, 1000), 0),
    ], ids=lambda case: ",".join(map(str, case)) if isinstance(case, tuple) else str(case))
    def test_abort_names_the_first_n_in_grid_order(self, dist, n_grid, seed, k):
        # the message is that of the first n, in grid order, whose plan alone aborts
        messages = []
        for n in n_grid:
            try:
                run_plan(small_plan(dist, n=(n,), k_blocks=k, reps=1000, base_seed=seed))
            except NonFiniteDrawError as error:
                messages.append(str(error))
        with pytest.raises(NonFiniteDrawError) as info:
            run_plan(small_plan(dist, n=n_grid, k_blocks=k, reps=1000, base_seed=seed))
        assert str(info.value) == messages[0]

    def test_a_later_n_that_overflows_first_is_not_raised(self):
        # n = 3000 meets its first overflow at replicate 875, before n = 40 meets its
        # at 915; raising at the first overflow met would name the wrong row
        plan = small_plan("pareto:0.02", n=(40, 3000), reps=1000, base_seed=0)
        for n, r in ((40, 915), (3000, 875)):
            assert _reference_row(plan, n).startswith(f"n={n}, replicate {r}: draw overflowed")
        with pytest.raises(NonFiniteDrawError) as info:
            run_plan(plan)
        assert str(info.value) == _reference_row(plan, 40)

    def test_an_aborting_plan_makes_one_pass(self, monkeypatch):
        # the tally keeps each n's first overflow, so naming n = 40 reruns nothing
        calls = []

        def counted(*args):
            calls.append(args)
            return replicate_chunks(*args)

        monkeypatch.setattr("tailtest.power.replicate_chunks", counted)
        with pytest.raises(NonFiniteDrawError, match="^n=40, replicate 915: "):
            run_plan(small_plan("pareto:0.02", n=(40, 3000), reps=1000, base_seed=0))
        assert len(calls) == 1

    def test_chunk_rows_never_rises_with_n(self):
        # the fill rests on it: chunk_rows(n) of a smaller n holds at least one top-n chunk
        rows = [chunk_rows(n) for n in range(1, 2**18 + 1)]
        assert all(a >= b for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("n_grid, reps, expected", [
        # chunks of 16 at n = 1000, so n = 250's 65 rows hold a buffer of 4 chunks
        ((1000, 250), 400, {250: [64] * 6 + [16]}),
        # chunks of 23 at n = 700; 162 rows at n = 101 hold 7, 409 at n = 40 hold 17
        ((700, 101, 40), 421, {101: [161, 161, 99], 40: [391, 30]}),
        # reps a whole number of buffers: the last chunk fills the last buffer
        ((1000, 250), 128, {250: [64, 64]}),
        # reps below one chunk of 109 at n = 150: one call at each n
        ((150, 40), 100, {40: [100]}),
    ], ids=["1000-250", "700-101-40", "whole-buffers", "below-one-chunk"])
    def test_smaller_n_are_scored_in_whole_top_chunks(self, n_grid, reps, expected,
                                                       monkeypatch):
        calls = {n: [] for n in n_grid}

        def recorded(chunk, *args):
            calls[chunk.shape[1]].append(len(chunk))
            return block_scores(chunk, *args)

        monkeypatch.setattr("tailtest.power.block_scores", recorded)
        run_plan(small_plan(n=n_grid, reps=reps))
        top = max(n_grid)
        rows = chunk_rows(top)
        assert calls.pop(top) == [rows] * (reps // rows) + [reps % rows] * (reps % rows > 0)
        assert calls == expected
        for n, sizes in calls.items():  # each buffer once, and never an empty call
            assert sum(sizes) == reps and min(sizes) > 0
            assert max(sizes) <= chunk_rows(n)
            assert all(size % rows == 0 for size in sizes[:-1])

    @settings(max_examples=50, deadline=None)
    @given(n_grid=st.lists(st.integers(9, 3000), min_size=2, max_size=4, unique=True),
           reps=st.integers(100, 400), k=st.sampled_from([1, 3]),
           policy=st.sampled_from(SMALLMAX_POLICIES),
           dist=st.sampled_from(["exp:1", "uniform", "cauchy", "pareto:1"]))
    def test_any_grid_equals_each_n_alone(self, n_grid, reps, k, policy, dist):
        # any ratio of chunk sizes; a one-n plan makes no buffer, and none of these laws
        # overflows
        plan = small_plan(dist, n=n_grid, k_blocks=k, reps=reps, smallmax_policy=policy)
        assert run_plan(plan).rows == tuple(
            run_plan(replace(plan, n_grid=(n,))).rows[0] for n in n_grid)


def _peak_bytes(plan):
    tracemalloc.start()
    try:
        run_plan(plan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_reps():
    # a row is tallied chunk by chunk (1,638 replicates at n = 10), so 200,000
    # replicates peak no higher than 20,000; keeping every replicate's statistic
    # until the row ends would add at least 8 bytes a replicate, 1.4 MB here
    small = _peak_bytes(small_plan(n=(10,), reps=20_000))
    large = _peak_bytes(small_plan(n=(10,), reps=200_000))
    assert large < small + 100_000


def test_joint_loop_adds_one_chunk_per_smaller_n():
    # the replicates are drawn one chunk at a time at the largest n, as a plan of that n
    # alone draws them, and each smaller n gathers their prefixes into one buffer of at
    # most its own chunk_rows(n) rows (about 128 KB here). So the peak is at most the
    # highest peak of the grid's n's alone plus those buffers, and it does not grow with reps
    grid = (100, 250, 500, 1000, 5000)
    alone = max(_peak_bytes(small_plan(n=(n,), reps=400)) for n in grid)
    gathered = sum(chunk_rows(n) * n * 8 for n in grid[:-1])
    small = _peak_bytes(small_plan(n=grid, reps=400))
    large = _peak_bytes(small_plan(n=grid, reps=2000))
    assert small < alone + gathered + 32_000
    assert large < small + 16_000


class TestEmitters:
    def test_csv_header_and_shape(self):
        report = run_plan(small_plan(n=(50, 100), reps=400))
        text = emit_table(report, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1][0] == "exp:1"
        assert [row[1] for row in parsed[1:]] == ["50", "100"]

    def test_csv_quotes_comma_in_dist(self):
        report = run_plan(small_plan("loggamma:0.5,1", n=(50,), reps=400))
        text = emit_table(report, "csv")
        assert '"loggamma:0.5,1"' in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1][0] == "loggamma:0.5,1"
        assert len(parsed[1]) == len(CSV_HEADER.split(","))

    def test_csv_rates_match_rows(self):
        report = run_plan(small_plan(reps=400))
        parsed = list(csv.reader(io.StringIO(emit_table(report, "csv"))))
        row = report.rows[0]
        assert float(parsed[1][4]) == pytest.approx(row.short_rate, abs=5e-7)
        assert float(parsed[1][5]) == pytest.approx(row.long_rate, abs=5e-7)
        assert int(parsed[1][8]) == row.error_count
        assert int(parsed[1][9]) == 7

    def test_json_round_trips_and_is_sorted(self):
        report = run_plan(small_plan(n=(50,), reps=400, k_blocks=2))
        payload = json.loads(emit_table(report, "json"))
        entry = payload["reports"][0]
        assert entry["dist"] == "exp:1"
        assert entry["k"] == 2
        assert entry["rows"][0]["n"] == 50
        counts = entry["rows"][0]
        assert (
            counts["short_count"] + counts["medium_count"]
            + counts["long_count"] + counts["error_count"] == 400
        )
        # stable schema: serializing twice gives identical bytes
        assert emit_table(report, "json") == emit_table(report, "json")

    def test_markdown_pairs_columns(self):
        reports = [
            run_plan(small_plan("exp:1", n=(50, 100), reps=400)),
            run_plan(small_plan("pareto:1", n=(50,), reps=400)),
        ]
        text = emit_table(reports, "md")
        lines = text.strip().split("\n")
        assert lines[0] == "| n | exp:1 S | exp:1 L | pareto:1 S | pareto:1 L |"
        assert lines[1].count("---") == 5
        assert len(lines) == 4  # header, rule, n=50, n=100
        assert lines[3].split("|")[4].strip() == ""  # pareto has no n=100 row

    def test_dist_is_read_from_the_plan(self):
        # once a stored copy of the plan's law, which a report with another plan kept
        report = run_plan(small_plan("pareto:1", reps=400))
        assert report.dist == "pareto:1" and "dist" not in vars(report)
        assert replace(report, plan=small_plan("loggamma:0.5,1", reps=400)).dist == "loggamma:0.5,1"

    @pytest.mark.parametrize("fmt", ["xml", "markdown", "CSV", ["csv"]])
    def test_unknown_format(self, fmt):
        # the words --format offers, as written: the CLI reads them, emit_table does not.
        # A list once raised TypeError: unhashable type: 'list'
        message = f"unknown format {fmt!r}; use csv, json, or md"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_table(run_plan(small_plan()), fmt)


@dataclass(frozen=True)
class ScanVerdict:
    """Outcome of a consistency scan over an ascending n grid."""

    verdict: str  # PASS, FAIL, or NOT-APPLICABLE
    direction: str  # which rate should grow: 'short' or 'long'
    report: SimulationReport | None


def consistency_scan(
    spec: DistributionSpec,
    n_grid,
    k: int = 1,
    alpha: float = 0.05,
    reps: int = 10_000,
    base_seed: int = 0,
    smallmax_policy: str = "raw",
) -> ScanVerdict:
    """Check that power grows along n_grid for a non-medium law.

    PASS means the correct-direction rate at the largest n exceeds the
    smallest-n rate (or has already saturated at >= 1-alpha) while the
    wrong-direction rate stays below 2*alpha + 3*stderr throughout.
    Medium laws get NOT-APPLICABLE.
    """
    cls = TailClass(oracles.tail_class(spec.family, spec.params))
    if cls is TailClass.MEDIUM:
        return ScanVerdict(verdict="NOT-APPLICABLE", direction="", report=None)
    grid = tuple(int(n) for n in n_grid)
    if sorted(grid) != list(grid):
        raise ValueError(f"n_grid must be ascending, got {grid}")
    plan = SimulationPlan(
        spec, grid, k, alpha, reps, base_seed=base_seed, smallmax_policy=smallmax_policy
    )
    report = run_plan(plan)
    if cls is TailClass.SHORT:
        correct = [row.short_rate for row in report.rows]
        wrong = [(row.long_rate, row.stderr_long) for row in report.rows]
    else:
        correct = [row.long_rate for row in report.rows]
        wrong = [(row.short_rate, row.stderr_short) for row in report.rows]
    # A rate pinned at/near 1.0 across the whole grid cannot strictly rise.
    grew = correct[-1] > correct[0] or correct[-1] >= 1.0 - alpha
    ok = grew and all(rate < 2.0 * alpha + 3.0 * err for rate, err in wrong)
    return ScanVerdict(
        verdict="PASS" if ok else "FAIL",
        direction="short" if cls is TailClass.SHORT else "long",
        report=report,
    )


class TestConsistencyScan:
    def test_long_law_power_grows(self):
        verdict = consistency_scan(
            parse_spec("cauchy"), (10, 100, 1000), reps=1500, base_seed=7
        )
        assert verdict.verdict == "PASS"
        assert verdict.direction == "long"
        rates = [row.long_rate for row in verdict.report.rows]
        assert rates[0] < rates[1] < rates[2]

    def test_medium_law_not_applicable(self):
        verdict = consistency_scan(parse_spec("exp:1"), (100, 500), reps=1500)
        assert verdict.verdict == "NOT-APPLICABLE"
        assert verdict.report is None

    def test_saturated_short_law_passes(self):
        # uniform under the raw policy is Short with rate 1.0 at every n:
        # no growth is possible, saturation still counts as consistent
        verdict = consistency_scan(
            parse_spec("uniform"), (50, 250), reps=1500, base_seed=7
        )
        assert verdict.verdict == "PASS"
        assert verdict.direction == "short"
        assert verdict.report.rows[-1].short_rate == 1.0

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            consistency_scan(parse_spec("cauchy"), (100, 10), reps=1500)


class TestCalibrationEnvelope:
    """Published Type I rates for medium laws, within 4 standard errors + 0.01."""

    @pytest.mark.parametrize(
        "dist,n,short_ref,long_ref",
        [
            ("exp:1", 250, 0.0506, 0.0541),
            ("exp:0.01", 250, 0.0530, 0.0590),
            ("logistic", 500, 0.0490, 0.0594),
        ],
    )
    def test_medium_law_rates_near_published(self, dist, n, short_ref, long_ref):
        plan = SimulationPlan(
            spec=parse_spec(dist), n_grid=(n,), reps=10_000, base_seed=7
        )
        row = run_plan(plan, threads=8).rows[0]
        assert abs(row.short_rate - short_ref) <= 4 * row.stderr_short + 0.01
        assert abs(row.long_rate - long_ref) <= 4 * row.stderr_long + 0.01


class TestPlanFiles:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(
            "# a comment\n"
            "dist = pareto:2\n"
            "\n"
            "n = 50, 100\n"
            "k = 2\n"
            "alpha = 0.1\n"
            "reps = 500\n"
            "seed = 9\n"
            "smallmax_policy = short\n",
            encoding="utf-8",
        )
        plan = parse_plan_file(str(path))
        assert plan.spec == parse_spec("pareto:2")
        assert plan.n_grid == (50, 100)
        assert plan.k_blocks == 2
        assert plan.alpha == 0.1
        assert plan.reps == 500
        assert plan.base_seed == 9
        assert plan.smallmax_policy == "short"

    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\nn=100\n", encoding="utf-8")
        plan = parse_plan_file(str(path))
        assert plan.k_blocks == 1
        assert plan.alpha == 0.05
        assert plan.reps == 10_000
        assert plan.base_seed == 0
        assert plan.smallmax_policy == "raw"

    def test_byte_order_marks_are_dropped(self, tmp_path):
        # a plan saved with a BOM reads as the same file without one, on any line
        text = "# a comment\ndist = pareto:2\nn = 50, 100\nk = 2\nreps = 500\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text.replace("k = 2", "\ufeffk = 2"), encoding="utf-8")
        assert parse_plan_file(str(bom)) == parse_plan_file(str(plain))

    def test_repeated_n_is_refused(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\nn = 50, 50\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^sample size n=50 is repeated$"):
            parse_plan_file(str(path))

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\nn=100\nblocks=4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"plan\.txt:3.*unknown key 'blocks'"):
            parse_plan_file(str(path))

    def test_duplicate_key_names_line(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\ndist=exp:2\nn=100\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"plan\.txt:2.*duplicate key 'dist'"):
            parse_plan_file(str(path))

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required plan key 'n'"):
            parse_plan_file(str(path))

    def test_bad_value_line(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\nn=100\njust-some-words\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"plan\.txt:3.*key=value"):
            parse_plan_file(str(path))

    def test_undecodable_file_names_path(self, tmp_path):
        # a byte that is not UTF-8 on the third line: the error names the file
        path = tmp_path / "plan.txt"
        path.write_bytes(b"dist=exp:1\nn=100\n# caf\xe9\n")
        with pytest.raises(ValueError, match=r"^\S*plan\.txt: 'utf-8' codec can't decode"):
            parse_plan_file(str(path))

    def test_unparseable_n(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\nn=ten\n", encoding="utf-8")
        with pytest.raises(ValueError, match="could not parse n="):
            parse_plan_file(str(path))

    @pytest.mark.parametrize(
        "key,text", [("k", "two"), ("alpha", "5%"), ("reps", "1e4"), ("seed", "0x10")]
    )
    def test_unparseable_number_names_file_and_key(self, tmp_path, key, text):
        path = tmp_path / "plan.txt"
        path.write_text(f"dist=exp:1\nn=100\n{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            parse_plan_file(str(path))
        assert str(exc.value) == f"{path}: could not parse {key}={text!r}"

    def test_rejects_strategy_key(self, tmp_path):
        # simulated draws are i.i.d., so their blocks are always consecutive
        # and no plan setting chooses another split
        path = tmp_path / "plan.txt"
        path.write_text("dist=exp:1\nn=100\nstrategy = shuffle\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"plan\.txt:3: unknown key 'strategy'"):
            parse_plan_file(str(path))

    def test_readme_plan_block_shows_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Plan files", 1)[1].split("```", 2)[1]
        path = tmp_path / "plan.txt"
        path.write_text(block, encoding="utf-8")
        assert parse_plan_file(str(path)) == SimulationPlan(parse_spec("exp:1"), (250, 1000))
