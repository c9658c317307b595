"""The distribution catalogue: parsing, known values, samplers versus CDFs."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailtest import TailClass
from tailtest.base import float_label
from tailtest.distributions import (
    FAMILIES,
    DistributionSpec,
    chunk_rows,
    format_spec,
    nonnegative,
    parse_spec,
    replicate_chunks,
    sample,
)
from tailtest.rng import SeedSpec, make_stream

from . import oracles

# One parameter setting per catalogue family.
CATALOGUE_SPECS = [
    "exp:1", "logistic", "gamma:0.7", "uniform", "normal", "lognormal",
    "gumbel", "cauchy", "t:3", "pareto:1", "weibull:0.5", "loggamma:0.5,1",
]
# Parameters at the edge of float64: draws that overflow to inf (pareto, loggamma), powers
# of 100 (weibull) and a shape so small that nearly every gamma draw is 0
EXTREME_SPECS = ["weibull:0.01", "pareto:0.01", "loggamma:1,800", "gamma:1e-300"]


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,family,params",
        [
            ("exp:1", "exp", (1.0,)),
            ("exp:100", "exp", (100.0,)),
            ("exponential:0.01", "exp", (0.01,)),
            ("logistic", "logistic", ()),
            ("gamma:0.7", "gamma", (0.7,)),
            ("uniform", "uniform", ()),
            ("unif", "uniform", ()),
            ("uniform01", "uniform", ()),
            ("normal", "normal", ()),
            ("norm", "normal", ()),
            ("lognormal", "lognormal", ()),
            ("lnorm", "lognormal", ()),
            ("gumbel", "gumbel", ()),
            ("extval", "gumbel", ()),
            ("extreme-value", "gumbel", ()),
            ("cauchy", "cauchy", ()),
            ("t:3", "t", (3.0,)),
            ("student:5", "t", (5.0,)),
            ("pareto:2", "pareto", (2.0,)),
            ("paretoshifted:1", "pareto", (1.0,)),
            ("weibull:0.5", "weibull", (0.5,)),
            ("loggamma:0.5,1", "loggamma", (0.5, 1.0)),
            ("  EXP:1  ", "exp", (1.0,)),
        ],
    )
    def test_parse(self, text, family, params):
        spec = parse_spec(text)
        assert spec.family == family
        assert spec.params == params

    def test_format_round_trip(self):
        for text in ("exp:1", "pareto:2", "weibull:0.5", "loggamma:0.5,1", "normal"):
            spec = parse_spec(text)
            assert parse_spec(format_spec(spec)) == spec

    def test_format_examples(self):
        assert format_spec(parse_spec("exp:1.0")) == "exp:1"
        # 0.166667 would read back as another law, so the parameter keeps every digit
        assert format_spec(parse_spec("loggamma:0.5,0.16666666666666666")) == (
            "loggamma:0.5,0.16666666666666666")
        assert format_spec(parse_spec("pareto:0.12345678")) == "pareto:0.12345678"
        assert format_spec(parse_spec("pareto:123456789")) == "pareto:123456789.0"

    @given(params=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           min_size=2, max_size=2))
    def test_format_round_trips(self, params):
        spec = DistributionSpec("loggamma", tuple(params))
        assert parse_spec(format_spec(spec)) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "nosuchlaw",
            "nosuchlaw:1",
            "exp",            # missing required rate
            "exp:1,2",        # too many parameters
            "exp:0",          # rate must be > 0
            "exp:-1",
            "exp:inf",
            "exp:abc",
            "weibull",
            "loggamma:0.5",
            "normal:1",
            "t",
            "pareto:0",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    @pytest.mark.parametrize("family,params", [
        ("loggamma", "12"), ("pareto", b"1"), ("pareto", 2.0), ("exp", [True]), ("pareto", ("x",)),
    ])
    def test_spec_refuses_params_that_are_no_real_numbers(self, family, params):
        # once read by float() one element at a time: "12" ran as loggamma:1,2, b"1" as
        # pareto:49 (its byte), [True] as exp:1, and 2.0 raised TypeError
        with pytest.raises(ValueError, match=r"^params must be a (sequence|real number), got "):
            DistributionSpec(family, params)

    @pytest.mark.parametrize("x,label", [
        (0.05, "0.05"), (0.0123457, "0.0123457"), (0.0123456789, "0.0123456789"),
        (0.0250000001, "0.0250000001"), (123456789.0, "123456789.0"), (np.float64(0.1), "0.1"),
    ])
    def test_float_label(self, x, label):
        # :g where it reads back as the same float, else every digit
        assert float_label(x) == label
        assert float(label) == x

    def test_spec_str_is_format(self):
        assert str(parse_spec("pareto:2")) == "pareto:2"


class TestTailClasses:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("exp:1", TailClass.MEDIUM),
            ("exp:100", TailClass.MEDIUM),
            ("logistic", TailClass.MEDIUM),
            ("gamma:0.7", TailClass.MEDIUM),
            ("gamma:2", TailClass.MEDIUM),
            ("uniform", TailClass.SHORT),
            ("normal", TailClass.SHORT),
            ("gumbel", TailClass.SHORT),
            ("weibull:5", TailClass.SHORT),
            ("weibull:2", TailClass.SHORT),
            ("weibull:1", TailClass.MEDIUM),
            ("weibull:0.5", TailClass.LONG),
            ("lognormal", TailClass.LONG),
            ("cauchy", TailClass.LONG),
            ("t:3", TailClass.LONG),
            ("pareto:1", TailClass.LONG),
            ("pareto:5", TailClass.LONG),
            ("loggamma:0.5,1", TailClass.LONG),
        ],
    )
    def test_known_classes(self, text, cls):
        spec = parse_spec(text)
        assert oracles.tail_class(spec.family, spec.params) == cls


def _empirical_survival(text, x, n=200_000, seed=5):
    """Share of n draws from the law above x."""
    draws = sample(parse_spec(text), n, SeedSpec(seed))
    return float(np.mean(draws > x))


class TestKnownValues:
    # survival shares of 2e5 draws; tolerance 0.005 is over four standard errors
    TOL = 0.005

    def test_pareto_median_is_one(self):
        # F-bar(1) = 1/2 for every gamma
        for text in ("pareto:1", "pareto:3", "pareto:5"):
            assert _empirical_survival(text, 1.0) == pytest.approx(0.5, abs=self.TOL)

    def test_pareto_quantile(self):
        # u = 0.9 gives (0.9/0.1)^(1/gamma) = 9^(1/5)
        assert _empirical_survival("pareto:5", 9.0 ** 0.2) == pytest.approx(0.1, abs=self.TOL)

    def test_weibull_unit_values(self):
        assert _empirical_survival("weibull:1", 1.0) == pytest.approx(math.exp(-1.0), abs=self.TOL)
        assert _empirical_survival("weibull:2", 1.0) == pytest.approx(math.exp(-1.0), abs=self.TOL)
        assert _empirical_survival("weibull:0.5", 4.0) == pytest.approx(math.exp(-2.0), abs=self.TOL)

    def test_exponential_rate_convention(self):
        # exp:theta has survival e^(-theta x): mean 1/theta
        assert _empirical_survival("exp:2", 1.0) == pytest.approx(math.exp(-2.0), abs=self.TOL)
        assert _empirical_survival("exp:100", math.log(2.0) / 100.0) == pytest.approx(0.5, abs=self.TOL)

    def test_uniform_is_identity(self):
        assert _empirical_survival("uniform", 0.25) == pytest.approx(0.75, abs=self.TOL)
        assert _empirical_survival("uniform", 1.0) == 0.0

    def test_normal_symmetry(self):
        assert _empirical_survival("normal", 0.0) == pytest.approx(0.5, abs=self.TOL)
        assert _empirical_survival("normal", 1.959963985) == pytest.approx(0.025, abs=self.TOL)

    def test_lognormal_median(self):
        assert _empirical_survival("lognormal", 1.0) == pytest.approx(0.5, abs=self.TOL)

    def test_cauchy_quartiles(self):
        assert _empirical_survival("cauchy", 1.0) == pytest.approx(0.25, abs=self.TOL)
        assert _empirical_survival("cauchy", -1.0) == pytest.approx(0.75, abs=self.TOL)

    def test_gumbel_is_short_form(self):
        # survival exp(-e^(x - gamma_E)); mean zero
        g = oracles.EULER_GAMMA
        assert _empirical_survival("gumbel", g) == pytest.approx(math.exp(-1.0), abs=self.TOL)
        x = sample(parse_spec("gumbel"), 400_000, SeedSpec(3))
        assert abs(x.mean()) < 0.01

    def test_loggamma_support_above_one(self):
        assert _empirical_survival("loggamma:0.5,1", 1.0) == 1.0
        assert np.median(sample(parse_spec("loggamma:2,1"), 10_000, SeedSpec(5))) > 1.0

    def test_support_boundaries_return_survival_one(self):
        for text in ("exp:1", "gamma:2", "weibull:2", "pareto:1", "lognormal"):
            assert _empirical_survival(text, 0.0, n=10_000) == 1.0
            assert _empirical_survival(text, -3.0, n=10_000) == 1.0


def _fresh_draw(spec, n, seed, r):
    """Replicate r drawn from a newly made stream (seed, r)."""
    return sample(spec, n, make_stream(SeedSpec(seed, r)))


def _replicates(spec, n, seed, reps):
    """Every replicate of replicate_chunks, in order, as one (reps, n) array."""
    return np.concatenate([chunk for _, chunk in replicate_chunks(spec, n, seed, reps)])


class TestSampling:
    def test_deterministic_by_seed(self):
        spec = parse_spec("pareto:2")
        a = sample(spec, 100, SeedSpec(11, 4))
        b = sample(spec, 100, SeedSpec(11, 4))
        assert np.array_equal(a, b)

    def test_generator_passthrough_advances(self):
        spec = parse_spec("exp:1")
        g = make_stream(5)
        a = sample(spec, 50, g)
        b = sample(spec, 50, g)
        assert not np.array_equal(a, b)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample(parse_spec("exp:1"), 0, 1)
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
                replicate_chunks(parse_spec("exp:1"), n, 0, 5)

    @pytest.mark.parametrize("seed", [13, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 3, 37, 257, 1000, 5000])
    @pytest.mark.parametrize("text", CATALOGUE_SPECS + EXTREME_SPECS + ["exp:100", "exp:1e-300"])
    def test_rows_and_sample_equal_reference_draws(self, text, n, seed):
        # replicate r, as a chunk row and as sample() on stream (seed, r), is bit for bit
        # the law's one-expression sampler on a fresh Philox(key=[seed, r]): the raw fill
        # plus the chunk-wide in-place transform change no bit. exp:1 runs no transform
        # pass and exp:100 and exp:1e-300 divide; the sampler always divides. Sizes 1, 3,
        # 37 and 257 leave part of Philox's four-word buffer unused, which replicate r+1
        # must not see; each call runs one replicate past the first chunk, and the
        # replicates around its end are checked with the first few
        spec = parse_spec(text)
        rows = chunk_rows(n)
        with np.errstate(over="ignore"):
            draws = _replicates(spec, n, seed, rows + 1)
            for r in sorted({*range(min(rows, 4)), rows - 1, rows}):
                expected = oracles.sample_ref(spec.family, spec.params, n, seed, r).tobytes()
                assert draws[r].tobytes() == expected
                assert sample(spec, n, SeedSpec(seed, r)).tobytes() == expected
        if text == "pareto:0.01":
            assert np.isinf(draws).any()  # rows that overflowed are compared too

    @pytest.mark.parametrize("large, small", [(3000, 37), (1000, 250), (257, 3), (101, 100)])
    @pytest.mark.parametrize("text", CATALOGUE_SPECS + EXTREME_SPECS)
    def test_rows_at_a_smaller_n_are_prefixes_of_rows_at_a_larger(self, text, large, small):
        # replicate r at n is, bit for bit, the first n values of replicate r at any larger
        # n: run_plan draws each replicate once, at the grid's largest n, and scores the
        # smaller n's on these prefixes. numpy does not promise that a fill consumes the
        # stream in order, so this is that loop's guard. One replicate past the small n's
        # first chunk crosses chunk boundaries of both sizes
        spec = parse_spec(text)
        reps = chunk_rows(small) + 1
        with np.errstate(over="ignore"):
            prefixes = _replicates(spec, large, 13, reps)[:, :small]
            assert prefixes.tobytes() == _replicates(spec, small, 13, reps).tobytes()

    def test_chunks_are_contiguous_runs_of_replicates(self):
        # 8 replicates per chunk at n = 3000, so 20 make chunks of 8, 8 and 4
        rows = chunk_rows(3000)
        chunks = list(replicate_chunks(parse_spec("exp:1"), 3000, 7, 2 * rows + 4))
        assert [(first, chunk.shape) for first, chunk in chunks] == [
            (0, (rows, 3000)), (rows, (rows, 3000)), (2 * rows, (4, 3000))]
        assert all(chunk.flags.c_contiguous for _, chunk in chunks)

    def test_interleaved_replicate_chunks_match_one_after_the_other(self):
        # two calls consumed alternately, a chunk at a time, give what each gives
        # alone: no generator is shared across calls or kept at module level
        calls = [(parse_spec("pareto:1"), 3000, 7), (parse_spec("gamma:0.7"), 3001, 11)]
        alone = [_replicates(spec, n, seed, 20) for spec, n, seed in calls]
        first, second = (replicate_chunks(spec, n, seed, 20) for spec, n, seed in calls)
        pairs = list(zip(first, second))  # chunks of 8, 8 and 4 replicates at both n
        assert len(pairs) == 3
        for i, (spec, n, seed) in enumerate(calls):
            draws = np.concatenate([pair[i][1] for pair in pairs])
            for r, values in enumerate(draws):
                expected = _fresh_draw(spec, n, seed, r).tobytes()
                assert values.tobytes() == alone[i][r].tobytes() == expected

    def test_more_replicates_extend_fewer(self):
        # replicate r does not depend on how many replicates the call asks for
        spec = parse_spec("weibull:0.5")
        fewer = _replicates(spec, 5, 3, 10)
        more = _replicates(spec, 5, 3, 17)
        assert len(more) == 17
        for r, values in enumerate(fewer):
            assert values.tobytes() == more[r].tobytes() == _fresh_draw(spec, 5, 3, r).tobytes()

    @pytest.mark.parametrize("n", [10, 250])
    @pytest.mark.parametrize("text", CATALOGUE_SPECS)
    def test_chunk_is_drawn_in_place(self, text, n):
        # each replicate is filled into its row of the chunk and the transform runs in place
        # over the chunk. On top of the chunk: two rows (a law numpy draws without out=
        # makes its 1-D draw, then copies it), and for pareto its one chunk-sized 1 - u;
        # a kilobyte covers the array headers and the re-keyed state. A list of row draws
        # or an out-of-place transform costs at least one chunk more
        chunks = replicate_chunks(parse_spec(text), n, 5, 10 * chunk_rows(n))
        next(chunks)  # the stream is made
        tracemalloc.start()
        try:
            _, chunk = next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        temporaries = chunk.nbytes if text.startswith("pareto") else 0
        assert peak <= chunk.nbytes + temporaries + 2 * chunk[0].nbytes + 1024

    def test_chunk_rows_boundaries(self):
        # 2**14 // n replicates (128 KB) up to n = 2048; then 8, while 8 fit in 2**17
        # values (1 MB); then as many as fit, and at least one
        assert [chunk_rows(n) for n in (1, 1000, 2048, 2049, 5000, 16384, 16385, 2**17)] == [
            2**14, 16, 8, 8, 8, 8, 7, 1]
        assert chunk_rows(2**17 + 1) == 1
        assert all(chunk_rows(n) * n <= 2**17 for n in range(2049, 2**17 + 1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_replicate_chunks_rejects_bad_seed_at_the_call(self, seed):
        # the seed fails when the iterator is made, not at its first draw
        message = rf"^seed must be an integer from 0 to 2\*\*64 - 1, got {seed}$"
        with pytest.raises(ValueError, match=message):
            replicate_chunks(parse_spec("exp:1"), 10, seed, 5)

    KS_CASES = [
        ("exp:1", oracles.cdf_exponential(1.0)),
        ("exp:100", oracles.cdf_exponential(100.0)),
        ("logistic", oracles.cdf_logistic()),
        ("uniform", oracles.cdf_uniform01()),
        ("normal", oracles.cdf_normal()),
        ("lognormal", oracles.cdf_lognormal()),
        ("gumbel", oracles.cdf_gumbel_short()),
        ("cauchy", oracles.cdf_cauchy()),
        ("t:3", oracles.cdf_t3()),
        ("pareto:2", oracles.cdf_pareto(2.0)),
        ("pareto:1", oracles.cdf_pareto(1.0)),
        ("weibull:0.5", oracles.cdf_weibull(0.5)),
        ("weibull:5", oracles.cdf_weibull(5.0)),
    ]

    @pytest.mark.parametrize("text,cdf", KS_CASES, ids=[c[0] for c in KS_CASES])
    def test_sampler_matches_cdf(self, text, cdf):
        # 1e5 draws; KS distance must sit inside 0.006 (99.9% point is 0.0062)
        x = sample(parse_spec(text), 100_000, SeedSpec(2026, 8))
        assert oracles.ks_distance(x, cdf) < 0.006

    @pytest.mark.parametrize(
        "text,cdf",
        [
            ("gamma:0.7", oracles.cdf_gamma_ref(0.7)),
            ("gamma:2", oracles.cdf_gamma_ref(2.0)),
            ("loggamma:0.5,1", oracles.cdf_loggamma_ref(0.5, 1.0)),
        ],
    )
    def test_sampler_matches_reference_cdf(self, text, cdf):
        # mpmath reference is slow, so fewer points and the matching critical value
        x = sample(parse_spec(text), 4000, SeedSpec(2026, 9))
        assert oracles.ks_distance(x, cdf) < oracles.ks_critical(4000)

    @pytest.mark.parametrize("text", CATALOGUE_SPECS)
    def test_support_flag_matches_sampler(self, text):
        spec = parse_spec(text)
        x = sample(spec, 10_000, SeedSpec(4))
        assert nonnegative(spec) == bool(x.min() >= 0.0)


def test_families_constant_lists_catalogue():
    assert {parse_spec(text).family for text in CATALOGUE_SPECS} == set(FAMILIES)
    assert FAMILIES == (
        "exp", "logistic", "gamma", "uniform", "normal", "lognormal",
        "gumbel", "cauchy", "t", "pareto", "weibull", "loggamma",
    )
