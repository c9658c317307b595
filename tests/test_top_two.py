"""The spacing kernel's top two: argmax and a knocked-out max against np.partition."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import base
from tailtest.blocking import SMALLMAX_POLICIES, block_scores, spacing_rows

from . import oracles

CODES = {name: getattr(base, name) for name in oracles.OUTCOMES}
INF, NAN = math.inf, math.nan

# Named kinds of row, each a list of rows of one length.
ROWS = {
    "max tied twice": [[3.0, 1.0, 3.0, 2.0], [0.5, -2.0, 0.5, 0.25]],
    "max tied three times": [[5.0, 5.0, 0.5, 5.0], [1.0, 1.0, 1.0, 0.0]],
    "all equal": [[2.0, 2.0, 2.0], [0.5, 0.5, 0.5], [-1.0, -1.0, -1.0], [0.0, -0.0, 0.0]],
    "max first or last": [[9.0, 1.0, 2.0], [1.0, 2.0, 9.0], [0.75, 0.5, 0.25], [0.25, 0.5, 0.75]],
    "signed zeros on top": [list(row) for row in itertools.permutations([0.0, -0.0, -1.0])],
    "infinities and NaN": [[INF, 2.0, 3.0], [-INF, 2.0, 3.0], [NAN, 2.0, 3.0], [INF, NAN, INF],
                           [-INF, -INF, -INF], [NAN, NAN, 1.0], [2.0, INF, INF], [NAN, -INF, NAN]],
    "two values": [[1.5, 3.0], [3.0, 3.0], [0.0, -0.0], [-0.0, 0.0], [NAN, 2.0], [0.5, INF]],
    "negative only": [[-3.0, -1.0, -2.0], [-1e-300, -5.0, -1e-300], [-INF, -1.0, -2.0]],
}

VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.e, INF, -INF, NAN]),
    st.floats(min_value=-1e6, max_value=1e6))
NEGATIVE = st.floats(max_value=0.0, exclude_max=True)


@st.composite
def chunks(draw):
    """A (rows, m) chunk, m >= 2, whose cells come often from a pool of one to three
    values, so that maxima tie, and sometimes all negative."""
    m, reps = draw(st.integers(2, 12)), draw(st.integers(1, 5))
    values = NEGATIVE if draw(st.booleans()) else VALUES
    cell = st.one_of(st.sampled_from(draw(st.lists(values, min_size=1, max_size=3))), values)
    row = st.lists(cell, min_size=m, max_size=m)
    return np.array(draw(st.lists(row, min_size=reps, max_size=reps)), dtype=float)


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).view(np.int64).tolist()


def assert_matches_partition(blocks, policy):
    """spacing_rows against the partition kernel: codes, top two, T, theta_hat and
    survival bit for bit, save the sign of a zero in a row holding both 0.0 and -0.0."""
    stats, code, tops, theta, surv = spacing_rows(blocks, policy)
    ref_stats, names, ref_tops, ref_theta, ref_surv = oracles.spacing_partition_ref(blocks, policy)
    assert code.tolist() == [CODES[name] for name in names]
    zero = blocks == 0.0
    both = (zero & np.signbit(blocks)).any(axis=1) & (zero & ~np.signbit(blocks)).any(axis=1)
    tops, ref_tops = tops.copy(), ref_tops.copy()
    tops[both] += 0.0  # -0.0 + 0.0 is 0.0: which tied zero comes out on top is unset
    ref_tops[both] += 0.0
    assert _bits(tops) == _bits(ref_tops)
    for got, expected in ((stats, ref_stats), (theta, ref_theta), (surv, ref_surv)):
        assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
class TestMatchesPartition:
    @pytest.mark.parametrize("kind", ROWS)
    def test_named_rows(self, kind, policy):
        rows = np.array(ROWS[kind])
        scored = np.linspace(1.5, 20.0, rows.shape[1])  # a row whose T stands, beside them
        for blocks in (rows, np.vstack([rows, scored]), *rows[:, np.newaxis]):
            assert_matches_partition(blocks, policy)

    @given(blocks=chunks())
    @settings(max_examples=300)
    def test_any_chunk(self, blocks, policy):
        assert_matches_partition(blocks, policy)

    def test_engine_chunk(self, policy):
        # 8 replicates of n = 5000 cut into 10 blocks, as the engine scores them
        blocks = np.random.default_rng(7).standard_exponential((80, 500))
        blocks[3, [17, 400]] = blocks[3].max() + 1.0
        assert_matches_partition(blocks, policy)


CHUNK = np.array([[2.0, 9.0, 9.0, 1.0, 3.0, 0.5, 7.0],
                  [NAN, 4.0, -0.0, 0.0, INF, 2.0, 5.0],
                  [0.5, 0.25, 0.75, 0.5, 0.1, 0.2, 0.3]])


class TestKernelOnlyReads:
    @pytest.mark.parametrize("policy", SMALLMAX_POLICIES)
    def test_input_left_bit_identical(self, policy):
        for run in (lambda a: spacing_rows(a, policy), lambda a: block_scores(a, 3, policy)):
            values = CHUNK.copy()
            run(values)
            assert values.tobytes() == CHUNK.tobytes()

    def test_accepts_read_only_view(self):
        # blocked_test scores a read-only view of its sample
        values = np.array([2.0, 9.0, 1.0, 3.0, 7.0, 4.0, 8.0])
        values.setflags(write=False)
        view = values[np.newaxis]
        _, code, tops, *_ = spacing_rows(view, "error")
        assert (code.tolist(), tops.tolist()) == ([base.SCORED], [[8.0, 9.0]])
        scores, _, refused, _ = block_scores(view, 2, "error")
        assert refused is None and scores.shape == (1, 2)
        assert values.tolist() == [2.0, 9.0, 1.0, 3.0, 7.0, 4.0, 8.0]
