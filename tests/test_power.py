"""Monte Carlo engine: determinism, exact accounting, emitters, plan files."""
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
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
    run_plan,
    tail_class,
    tail_test,
)
from tailtest.base import BlockTooSmallError, decide
from tailtest.blocking import block_scores, block_sizes
from tailtest.distributions import parse_spec, replicate_chunks, replicate_draws
from tailtest.power import CSV_HEADER, SMALLMAX_POLICIES, RateRow, _chunk_outcomes
from tailtest.tail_test import EQUAL, NONFINITE, REFUSED, SCORED, SHORT, spacing_rows
from tailtest.distributions import sample as draw_sample
from tailtest.rng import SeedSpec, erlang_criticals, make_stream

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

    def test_rejects_infeasible_blocks(self):
        with pytest.raises(BlockTooSmallError):
            small_plan(n=(10,), k_blocks=4)


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

    def test_error_notes_name_replicates(self):
        plan = small_plan("cauchy", n=(10,), reps=2000)
        row = run_plan(plan).rows[0]
        assert len(row.error_notes) <= 10
        assert all(note.startswith("replicate ") for note in row.error_notes)
        assert "maximum" in row.error_notes[0]

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

    def test_error_notes_use_public_message(self):
        # replicate 0 of small_plan draws stream (7, 0)
        row = run_plan(small_plan("uniform", n=(50,), smallmax_policy="error")).rows[0]
        values = draw_sample(parse_spec("uniform"), 50, make_stream(SeedSpec(7, 0)))
        with pytest.raises(MaxNotAboveOneError) as info:
            tail_test(values)
        assert row.error_notes[0] == f"replicate 0: block 1 of 1: {info.value}"

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
    """The engine's outcome of one replicate, scored as a one-row chunk: (TailClass,
    None), or (None, error message). An overflowed draw would abort the plan."""
    totals, verdicts = _chunk_outcomes(values[np.newaxis], k, policy)
    if not verdicts:
        return decide(totals.item(0), *erlang_criticals(0.05, k)), None
    [(_, verdict)] = verdicts
    assert not isinstance(verdict, NonFiniteDrawError)
    return (verdict, None) if verdict is TailClass.SHORT else (None, str(verdict))


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
        # each block's code is the one-block reference's outcome, block by block
        k, values = case
        blocks = np.split(values, np.cumsum(block_sizes(values.size, k))[:-1])
        for policy in SMALLMAX_POLICIES:
            _, codes, maxima = block_scores(values[np.newaxis], k, policy)
            assert codes[0].tolist() == [
                _ref_code(oracles.block_statistics_ref(block, 1, policy)) for block in blocks
            ]
            assert maxima[0].tolist() == [block.max() for block in blocks]


def _reference_row(plan, n):
    """The RateRow (or abort message) of the one-replicate-at-a-time loop."""
    lower, upper = erlang_criticals(plan.alpha, plan.k_blocks)
    draws = replicate_draws(plan.spec, n, plan.base_seed, plan.reps)
    with np.errstate(over="ignore"):  # a draw may overflow to inf
        out = oracles.run_row_ref(draws, n, plan.k_blocks, lower, upper, plan.smallmax_policy)
    if isinstance(out, str):
        return out
    short, medium, long, notes = out
    return RateRow(n, plan.k_blocks, plan.alpha, plan.reps, plan.base_seed,
                   short, medium, long, len(notes), tuple(notes[:10]))


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

    def test_overflow_after_the_first_chunk_names_the_replicate(self):
        plan = small_plan("pareto:0.02", n=(1000,), k_blocks=5, reps=1000, base_seed=0)
        expected = _reference_row(plan, 1000)
        assert expected.startswith("n=1000, replicate 915: draw overflowed to inf")
        with pytest.raises(NonFiniteDrawError) as info:
            run_plan(plan)
        assert str(info.value) == expected

    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    @pytest.mark.parametrize("k", [1, 5, 25])
    @pytest.mark.parametrize("dist", FAMILY_SPECS)
    def test_chunk_totals_equal_reference_sums(self, dist, k, policy):
        # bit for bit: each block T, and its replicate's left-to-right sum in the engine;
        # a replicate with a nonzero code is exactly one the reference does not score
        for _, chunk in replicate_chunks(parse_spec(dist), 101, 11, 200):
            stats, codes, _ = block_scores(chunk, k, policy)
            totals = iter(_chunk_outcomes(chunk, k, policy)[0].tolist())
            for row, code, values in zip(stats.tolist(), codes.tolist(), chunk):
                expected = oracles.block_statistics_ref(values, k, policy)
                assert any(code) is not isinstance(expected, list)
                if not any(code):
                    assert row == expected
                    assert next(totals) == sum(expected)
            assert next(totals, None) is None

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

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(run_plan(small_plan()), "xml")


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
    cls = tail_class(spec)
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
