"""The walk and pair-count kernels against brute-force oracles."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respchain as rc
import respchain._kernels as kernels
from conftest import traced_peak

CHUNK = kernels.CHUNK
MEET_EVERY = kernels.MEET_EVERY
_meet = kernels._meet


def brute_force_counts(states, k):
    out = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(states[:-1], states[1:]):
        out[a - 1, b - 1] += 1
    return out


def reference_walk(cum_rows, first_state, uniforms):
    """Direct translation of the sampling rule, no kernel shared code."""
    k = cum_rows.shape[1]
    out = [first_state]
    s = first_state - 1
    for u in uniforms:
        j = 0
        while j < k - 1 and u >= cum_rows[s, j]:
            j += 1
        s = j
        out.append(j + 1)
    return np.array(out, dtype=np.int64)


def assert_rows_match_reference(cum_rows, first_states, uniforms):
    inputs = cum_rows.copy(), uniforms.copy()
    got = kernels.walk(cum_rows, first_states, uniforms)
    # the kernel reads its inputs and never writes to them
    assert np.array_equal(cum_rows, inputs[0]) and np.array_equal(uniforms, inputs[1])
    assert got.shape == (uniforms.shape[0], uniforms.shape[1] + 1)
    assert got.dtype == np.min_scalar_type(cum_rows.shape[1])
    for row, first, u in zip(got, first_states, uniforms):
        assert np.array_equal(row, reference_walk(cum_rows, int(first), u))


def cycle_rows(k, noise):
    """Step from s to s+1 (mod k), except that with probability `noise`
    the next state is uniform. Walks on the same draws from different
    starts rarely meet, so a chunk's end state depends on its start."""
    rows = np.full((k, k), noise / k)
    rows[np.arange(k), (np.arange(k) + 1) % k] += 1.0 - noise
    return rows


def reset_rows(k):
    """From state s a draw u < 0.5 moves to state 1 and u >= 0.5 to s+1
    (mod k). On draws of 0.75 the walks from different starts rotate and
    never meet; one draw of 0.25 sends them all to state 1."""
    rows = np.zeros((k, k))
    rows[:, 0] = 0.5
    rows[np.arange(k), (np.arange(k) + 1) % k] += 0.5
    return rows


def reset_draws(meet_at, tail):
    """Draws of 0.75 for full chunks whose walks from every start meet
    after meet_at[r, c] steps (0: never), then the draws of the tail."""
    n_rows, n_full = meet_at.shape
    u = np.full((n_rows, n_full, CHUNK), 0.75)
    r, c = np.nonzero(meet_at)
    u[r, c, meet_at[r, c] - 1] = 0.25
    return np.hstack([u.reshape(n_rows, -1), tail])


@contextlib.contextmanager
def recorded_meets():
    """Record the step _meet returns in each walk: the first check at which
    every chunk's walks from every start had met, or CHUNK when walk fell
    back to composing the chunks' end maps by doubling."""
    found = []

    def spy(*args):
        meet, states = _meet(*args)
        found.append(meet)
        return meet, states

    with mock.patch.object(kernels, "_meet", spy):
        yield found


def first_check(meet):
    """The step _meet returns for walks whose last chunk meets at `meet`."""
    check = -(-meet // MEET_EVERY) * MEET_EVERY
    return check if check <= CHUNK - MEET_EVERY else CHUNK


@pytest.fixture
def cum_rows():
    rng = np.random.default_rng(19)
    rows = rng.dirichlet(np.ones(5), size=5)
    return np.cumsum(rows, axis=1)


class TestPairCounts:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            states = rng.integers(1, 6, size=100).astype(np.int64)
            got = kernels.pair_counts(states, 5)
            assert np.array_equal(got, brute_force_counts(states, 5))

    def test_numpy_path_matches_brute_force(self):
        rng = np.random.default_rng(2)
        states = rng.integers(1, 4, size=500).astype(np.int64)
        got = kernels.pair_counts(states, 3)
        assert got.dtype == np.int64
        assert np.array_equal(got, brute_force_counts(states, 3))

    def test_single_transition(self):
        got = kernels.pair_counts(np.array([2, 5], dtype=np.int64), 5)
        assert got[1, 4] == 1
        assert got.sum() == 1

    def test_no_transition(self):
        got = kernels.pair_counts(np.array([3], dtype=np.int64), 4)
        assert got.shape == (4, 4)
        assert got.sum() == 0


class TestWalk:
    def test_numpy_path_matches_reference(self, cum_rows):
        rng = np.random.default_rng(3)
        u = rng.random((1, 200))
        assert_rows_match_reference(cum_rows, np.array([3]), u)

    def test_lockstep_rows_match_reference(self, cum_rows):
        rng = np.random.default_rng(4)
        u = rng.random((30, 200))
        first = rng.integers(1, 6, size=30)
        assert_rows_match_reference(cum_rows, first, u)

    @pytest.mark.parametrize("steps", [m * CHUNK + d for m in (1, 2, 3) for d in (-1, 0, 1)])
    def test_chunk_edges(self, cum_rows, steps):
        rng = np.random.default_rng(steps)
        u = rng.random((3, steps))
        assert_rows_match_reference(cum_rows, np.array([1, 3, 5]), u)

    @pytest.mark.parametrize("k", [3, 7, 12])
    def test_chunk_start_states_are_chained(self, k):
        rng = np.random.default_rng(k)
        cum = np.cumsum(cycle_rows(k, 0.0), axis=1)
        u = rng.random((2, 3 * CHUNK + 7))
        assert_rows_match_reference(cum, np.array([1, k]), u)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("n_full", [4, 5, 7, 8, 9, 16, 17])
    def test_chunk_ends_composed_by_doubling(self, n_full, noise):
        # walk composes the chunks' end maps over spans 1, 2, 4, ...; these
        # chunk counts lie on and beside powers of two. Without noise every
        # end map is a rotation, so a scan that stops a span short shifts
        # the later chunks; with noise some maps merge starts and others do
        # not, so maps composed in the wrong order disagree. A draw of 0.5
        # is always a rotation, so the last row's chunks never meet and the
        # whole walk takes the scan.
        k = 5
        rng = np.random.default_rng(n_full)
        cum = np.cumsum(cycle_rows(k, noise), axis=1)
        u = rng.random((4, n_full * CHUNK + 7))
        u[3] = 0.5
        with recorded_meets() as meets:
            assert_rows_match_reference(cum, np.array([1, 3, k, 2]), u)
        assert meets == [CHUNK]

    @pytest.mark.parametrize("meet", [1, MEET_EVERY, MEET_EVERY + 1,
                                      CHUNK - MEET_EVERY, CHUNK - MEET_EVERY + 1, CHUNK])
    def test_chunks_meet_at_a_check(self, meet):
        # the last chunk to meet decides the step; past the last check
        # the walk takes the doubling scan
        k = 4
        meet_at = np.array([[1, meet, 5]])
        u = reset_draws(meet_at, np.full((1, 7), 0.75))
        with recorded_meets() as meets:
            assert_rows_match_reference(np.cumsum(reset_rows(k), axis=1), np.array([2]), u)
        assert meets == [first_check(meet)]

    def test_one_chunk_never_meets(self):
        # the other chunks met by the first check, but the pass is one
        # array: the whole walk takes the doubling scan
        meet_at = np.full((2, 5), 3)
        meet_at[1, 3] = 0
        u = reset_draws(meet_at, np.full((2, 9), 0.75))
        with recorded_meets() as meets:
            assert_rows_match_reference(np.cumsum(reset_rows(3), axis=1), np.array([1, 3]), u)
        assert meets == [CHUNK]

    def test_rows_with_a_tail_meet(self):
        rng = np.random.default_rng(12)
        meet_at = rng.integers(1, 60, size=(3, 4))
        u = reset_draws(meet_at, rng.random((3, 101)))
        with recorded_meets() as meets:
            assert_rows_match_reference(np.cumsum(reset_rows(5), axis=1), np.array([1, 5, 2]), u)
        assert meets == [first_check(meet_at.max())]

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 6), n_rows=st.integers(1, 3), n_full=st.integers(1, 5),
           meet=st.integers(1, CHUNK), tail=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_property_meet_step(self, k, n_rows, n_full, meet, tail, seed):
        # the chunks meet at or before `meet`, one of them at it; a walk of
        # at most CHUNK steps has no full chunk and never calls _meet
        rng = np.random.default_rng(seed)
        meet_at = rng.integers(1, meet + 1, size=(n_rows, n_full))
        meet_at.flat[rng.integers(meet_at.size)] = meet
        u = reset_draws(meet_at, rng.random((n_rows, tail)))
        first = rng.integers(1, k + 1, size=n_rows)
        with recorded_meets() as meets:
            assert_rows_match_reference(np.cumsum(reset_rows(k), axis=1), first, u)
        assert meets == ([first_check(meet)] if u.shape[1] > CHUNK else [])

    @pytest.mark.parametrize("count, length", [(1, 1_000_000), (4, 250_000)])
    def test_benchmark_walk_meets_early(self, count, length):
        # on the K=11 walk the long-walk benchmark simulates (seed 1),
        # every chunk's walks from every start have met by step 129
        matrix = rc.drunkards_walk(rc.StateSpace(11), stay=0.5, step=0.21, epsilon_floor=0.01)
        with recorded_meets() as meets:
            rc.generate_cohort(rc.SimulationSpec(matrix, length=length, count=count, seed=1))
        assert len(meets) == 1 and meets[0] <= 144

    @pytest.mark.parametrize("k", [255, 256])
    def test_states_at_the_table_type_limit(self, k):
        # the table's type holds K: a walk through every state reaches K
        rng = np.random.default_rng(k)
        cum = np.cumsum(cycle_rows(k, 1e-3), axis=1)
        u = rng.random((2, CHUNK + 90))
        assert_rows_match_reference(cum, np.array([1, k - 3]), u)

    def test_zero_steps_keeps_first_states(self, cum_rows):
        got = kernels.walk(cum_rows, np.array([2, 4]), np.empty((2, 0)))
        assert got.tolist() == [[2], [4]]

    def test_uniforms_read_from_a_strided_view(self, cum_rows):
        # the simulator passes u[:, 1:], which is not contiguous
        rng = np.random.default_rng(6)
        u = rng.random((2, 3 * CHUNK + 8))
        before = u.copy()
        assert_rows_match_reference(cum_rows, np.array([2, 5]), u[:, 1:])
        assert np.array_equal(u, before)

    def test_draw_exactly_on_boundary_moves_on(self):
        # u equal to a cumulative edge belongs to the next column
        cum = np.cumsum([[0.5, 0.5]], axis=1)
        cum = np.vstack([cum, cum])
        out = kernels.walk(cum, np.array([1]), np.array([[0.5]]))
        assert out[0, 1] == 2

    def test_top_cell_absorbs_rounding(self):
        # cumulative sums can fall a hair short of 1; a draw above the
        # last edge must still land in the final state, not overflow
        rows = np.array([[0.3, 0.3, 0.4 - 1e-12], [0.2, 0.3, 0.5]])
        cum = np.cumsum(rows, axis=1)
        out = kernels.walk(cum, np.array([1]), np.array([[1.0 - 1e-14]]))
        assert out[0, 1] == 3

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 40),
        n_rows=st.integers(1, 4),
        steps=st.one_of(
            st.integers(0, 3 * CHUNK + 1),
            # one step short of, on and one past a chunk boundary
            st.builds(lambda m, d: m * CHUNK + d, st.integers(1, 3), st.sampled_from([-1, 0, 1])),
        ),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["dense", "sparse", "cycle", "tied"]),
    )
    def test_property_matches_reference(self, k, n_rows, steps, seed, kind):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=k)
        if kind == "cycle":
            rows = cycle_rows(k, 1e-3)
        elif kind == "sparse":
            # zero cells make repeated cumulative edges
            rows[rng.random((k, k)) < 0.4] = 0.0
            rows[np.arange(k), rng.integers(0, k, size=k)] += 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
        elif kind == "tied":
            # identical rows, or cells in quarters, so that cumulative
            # edges tie across rows (and, at zero cells, within a row)
            if rng.random() < 0.5:
                rows = np.tile(rows[0], (k, 1))
            else:
                rows = rng.multinomial(4, np.ones(k) / k, size=k) / 4
        cum = np.cumsum(rows, axis=1)
        u = rng.random((n_rows, steps))
        if kind != "dense" and steps:
            # draws placed exactly on edges exercise the u >= cum comparison
            hits = rng.random(u.shape) < 0.2
            u[hits] = cum[rng.integers(0, k, size=hits.sum()),
                          rng.integers(0, k, size=hits.sum())]
            u = np.minimum(u, np.nextafter(1.0, 0.0))
        first = rng.integers(1, k + 1, size=n_rows)
        assert_rows_match_reference(cum, first, u)


GRID = kernels.GRID
# values where the bin table's cells meet, and their float neighbours
CELL_EDGES = [j / GRID for j in (0, 1, 2, 3, GRID // 3, GRID // 2, GRID - 2, GRID - 1, GRID)]
NEAR_CELL_EDGES = CELL_EDGES + [float(np.nextafter(x, d)) for x in CELL_EDGES for d in (-1.0, 2.0)]


@st.composite
def merged_edges(draw):
    """The sorted first K-1 cumulative edges of K rows, as walk merges
    them: rows may repeat each other and a row may repeat an edge (zero
    cells), edges may sit on or beside a cell boundary and the sums may
    run past 1."""
    k = draw(st.integers(2, 12))
    parts = st.one_of(st.sampled_from([0.0, 2.0**-16, 0.25, 0.5, 1 / 3]),
                      st.floats(0.0, 0.6))
    rows = [draw(st.lists(parts, min_size=k - 1, max_size=k - 1)) for _ in range(k)]
    if draw(st.booleans()):
        rows[1:] = [rows[0]] * (k - 1)
    cum = np.cumsum(np.array(rows), axis=1)
    if draw(st.booleans()):
        cum[draw(st.integers(0, k - 1)), :] = draw(st.sampled_from(NEAR_CELL_EDGES))
    return np.sort(cum.ravel())


class TestBins:
    @settings(max_examples=200, deadline=None)
    @given(edges=merged_edges(), data=st.data(), scale=st.sampled_from([1, 11]),
           shape=st.sampled_from(["flat", "rows", "strided"]))
    def test_property_matches_searchsorted(self, edges, data, scale, shape):
        draws = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from(NEAR_CELL_EDGES + [-0.0, 5e-324, -5e-324, 1.0, 2.0]),
            st.sampled_from(edges.tolist()),
        )
        u = np.array(data.draw(st.lists(draws, min_size=1, max_size=60)), dtype=np.float64)
        if shape == "rows":
            u = np.resize(u, (3, u.size))
        elif shape == "strided":  # as walk is passed u[:, 1:]
            u = np.resize(u, (2, u.size + 1))[:, 1:]
        before = u.copy()
        got = kernels._bins(edges, u, scale)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(edges, u, side="right") * scale)
        assert np.array_equal(u, before, equal_nan=True)

    def test_no_draws(self):
        got = kernels._bins(np.array([0.5]), np.empty((2, 0)))
        assert got.shape == (2, 0)

    def test_few_draws_are_searched(self):
        # a table that sent many draws to the search would stay exact but
        # lose its speed; in the K=11 walk of the benchmark few draws
        # share a cell with one of its 110 edges
        matrix = rc.drunkards_walk(rc.StateSpace(11), stay=0.5, step=0.21, epsilon_floor=0.01)
        edges = np.sort(np.cumsum(matrix.probs, axis=1)[:, :10].ravel())
        u = np.random.default_rng(7).random(1_000_000)
        searched = kernels._table(edges, 1)[(u * GRID).astype(np.intp)] < 0
        assert searched.mean() < 0.01


class TestWalkMemory:
    def test_million_step_walk(self):
        # the walk's output, 1 B per step, and one intp bin per draw, the
        # bins looked up in place: 9.10 MiB measured, against 15.3 MiB with
        # an int64 output; a second array of cell indices would add 7.6 MiB
        matrix = rc.drunkards_walk(rc.StateSpace(11), stay=0.5, step=0.21, epsilon_floor=0.01)
        cum = np.cumsum(matrix.probs, axis=1)
        u = np.random.default_rng(8).random((1, 1_000_000))
        peak = traced_peak(lambda: kernels.walk(cum, np.array([6]), u))
        assert peak <= 9.6 * 2**20

    def test_four_row_walk(self):
        # a million draws over four rows: the chunked path with N > 1,
        # where the output is allocated only after the bins are walked
        matrix = rc.drunkards_walk(rc.StateSpace(11), stay=0.5, step=0.21, epsilon_floor=0.01)
        cum = np.cumsum(matrix.probs, axis=1)
        u = np.random.default_rng(9).random((4, 250_000))
        peak = traced_peak(lambda: kernels.walk(cum, np.array([1, 4, 6, 11]), u))
        assert peak <= 9.6 * 2**20
