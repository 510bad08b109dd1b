"""Core chain machinery: counting, normalizing, powers, stationarity."""

import re
from dataclasses import fields
from math import gcd

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

import respchain as rc
from conftest import ADHD_STATIONARY, OCD_STATIONARY, random_stochastic_matrix


def brute_force_counts(states, k):
    counts = np.zeros((k, k), dtype=int)
    for a, b in zip(states[:-1], states[1:]):
        counts[a - 1, b - 1] += 1
    return counts


class TestStateSpace:
    def test_default_labels(self):
        space = rc.StateSpace(5)
        assert space.labels == ("1", "2", "3", "4", "5")

    def test_custom_labels(self):
        space = rc.StateSpace(3, ("low", "mid", "high"))
        assert space.labels == ("low", "mid", "high")

    def test_too_small(self):
        with pytest.raises(rc.ValidationError):
            rc.StateSpace(1)

    def test_label_count_mismatch(self):
        with pytest.raises(rc.ValidationError):
            rc.StateSpace(3, ("a", "b"))

    def test_duplicate_labels(self):
        with pytest.raises(rc.ValidationError):
            rc.StateSpace(2, ("x", "x"))


class TestResponseSequence:
    def test_requires_id(self):
        with pytest.raises(rc.ValidationError):
            rc.ResponseSequence("", [1, 2])

    def test_requires_states(self):
        with pytest.raises(rc.ValidationError):
            rc.ResponseSequence("p1", [])

    def test_rejects_state_below_one(self):
        with pytest.raises(rc.ValidationError, match="position 1"):
            rc.ResponseSequence("p1", [2, 0, 3])

    def test_states_read_only(self):
        seq = rc.ResponseSequence("p1", [1, 2, 3])
        with pytest.raises(ValueError):
            seq.states[0] = 5

    @pytest.mark.parametrize("states, bad", [
        ([1.7, 2.2, 3.9], "1.7"), ([1, 2.5], "2.5"), ([1, np.nan], "nan"),
        ([2, np.inf], "inf"), ([-np.inf, 2], "-inf"), ([1e20, 2], "1e+20"),
    ])
    def test_rejects_states_that_are_not_whole_numbers(self, states, bad):
        with pytest.raises(rc.ValidationError,
                           match=f"states for 'p1' must be finite whole numbers.*got {re.escape(bad)}$"):
            rc.ResponseSequence("p1", states)

    @pytest.mark.parametrize("states", [
        [1.0, 3.0, 2.0], np.array([1.0, 3.0, 2.0]), [1, 3, 2],
        np.array([1, 3, 2], dtype=np.uint8), np.array([1, 3, 2], dtype=np.int32),
    ])
    def test_integer_arrays_and_integral_floats_accepted(self, states):
        seq = rc.ResponseSequence("p1", states)
        assert seq.states.dtype == np.int64 and seq.states.tolist() == [1, 3, 2]


class TestTransitionCounts:
    @pytest.mark.parametrize("counts, bad", [
        ([[1.5, 0], [0, 2.7]], "1.5"), ([[1, 0], [0, np.nan]], "nan"),
        ([[np.inf, 0], [0, 1]], "inf"),
    ])
    def test_rejects_counts_that_are_not_whole_numbers(self, counts, bad):
        with pytest.raises(rc.ValidationError,
                           match=f"counts must be finite whole numbers.*got {re.escape(bad)}$"):
            rc.TransitionCounts(counts)

    @pytest.mark.parametrize("counts", [
        [[1.0, 0.0], [0.0, 2.0]], [[1, 0], [0, 2]], np.array([[1, 0], [0, 2]]),
    ])
    def test_integer_arrays_and_integral_floats_accepted(self, counts):
        table = rc.TransitionCounts(counts)
        assert table.counts.dtype == np.int64 and table.counts.tolist() == [[1, 0], [0, 2]]


class TestCountTransitions:
    def test_worked_sequence(self, o05, space):
        counts = rc.count_transitions(o05, space)
        expected = np.zeros((5, 5), dtype=int)
        expected[1, 2] = 1
        expected[1, 3] = 3
        expected[2, 1] = 4
        expected[2, 2] = 2
        expected[3, 2] = 3
        expected[3, 3] = 2
        assert np.array_equal(counts.counts, expected)
        assert counts.total == 15
        assert np.array_equal(counts.row_totals, [0, 4, 6, 5, 0])

    def test_constant_sequence(self, space):
        seq = rc.ResponseSequence("c", [1, 1, 1, 1])
        counts = rc.count_transitions(seq, space)
        assert counts.counts[0, 0] == 3
        assert counts.total == 3

    def test_matches_brute_force(self, space):
        rng = np.random.default_rng(11)
        for _ in range(20):
            states = rng.integers(1, 6, size=50)
            seq = rc.ResponseSequence("r", states)
            counts = rc.count_transitions(seq, space)
            assert np.array_equal(counts.counts, brute_force_counts(states, 5))

    def test_out_of_range_names_position(self, space):
        seq = rc.ResponseSequence("bad", [3, 6, 2])
        with pytest.raises(rc.ValidationError, match="position 1"):
            rc.count_transitions(seq, space)

    def test_too_short(self, space):
        with pytest.raises(rc.ValidationError, match="at least 2"):
            rc.count_transitions(rc.ResponseSequence("s", [3]), space)


class TestNormalizeRows:
    def test_worked_sequence_rows(self, o05, space):
        m = rc.normalize_rows(rc.count_transitions(o05, space))
        assert np.array_equal(m.defined_rows, [False, True, True, True, False])
        assert np.allclose(m.probs[1], [0, 0, 0.25, 0.75, 0])
        assert np.allclose(m.probs[2], [0, 2 / 3, 1 / 3, 0, 0])
        assert np.allclose(m.probs[3], [0, 0, 0.6, 0.4, 0])
        assert np.all(m.probs[0] == 0)
        assert np.all(m.probs[4] == 0)

    def test_defined_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = rc.TransitionCounts(rng.integers(0, 10, size=(4, 4)))
            m = rc.normalize_rows(counts)
            sums = m.probs.sum(axis=1)
            assert np.allclose(sums[m.defined_rows], 1.0)
            assert np.all(sums[~m.defined_rows] == 0.0)

    def test_smoothing_defines_every_row(self, o05, space):
        counts = rc.count_transitions(o05, space)
        m = rc.normalize_rows(counts, smoothing_alpha=0.5)
        assert m.fully_defined
        assert np.allclose(m.probs.sum(axis=1), 1.0)
        # a never-seen row becomes uniform under pure smoothing
        assert np.allclose(m.probs[0], 0.2)

    def test_alpha_whose_row_sum_overflows(self, o05, space):
        counts = rc.count_transitions(o05, space)
        message = r"^smoothing_alpha 1e\+308 is too large: a smoothed row of 5 cells"
        with np.errstate(all="raise"):  # the overflow warns nothing on its way
            with pytest.raises(rc.ValidationError, match=message):
                rc.normalize_rows(counts, 1e308)
            with pytest.raises(rc.ValidationError, match=message):
                rc.chain._row_probabilities(np.zeros((3, 5, 5), dtype=np.int64), 1e308)
            assert np.allclose(rc.normalize_rows(counts, 1e307).probs, 0.2)

    def test_negative_alpha(self, o05, space):
        counts = rc.count_transitions(o05, space)
        with pytest.raises(rc.ValidationError):
            rc.normalize_rows(counts, smoothing_alpha=-0.1)

    @pytest.mark.parametrize("k", [2, 5, 11])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1 / 3, 1e-9])
    def test_tensor_rows_match_one_table_at_a_time(self, k, alpha):
        rng = np.random.default_rng(k)
        tensor = rng.integers(0, 7, size=(60, k, k)) * (rng.random((60, k, 1)) < 0.7)
        probs, defined = rc.chain._row_probabilities(tensor, alpha)
        for table, p, d in zip(tensor, probs, defined):
            m = rc.normalize_rows(rc.TransitionCounts(table), alpha)
            assert np.array_equal(p, m.probs) and np.array_equal(d, m.defined_rows)


class TestTransitionMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        rows = np.full((3, 3), 1 / 3)
        rows[1, 2] = bad
        with pytest.raises(rc.ValidationError, match="must be finite"):
            rc.TransitionMatrix.from_rows(rows)
        rows[1] = 0.0
        rows[1, 2] = bad
        with pytest.raises(rc.ValidationError, match="must be finite"):
            rc.TransitionMatrix(rows, [True, False, True])

    def test_nan_model_parameter_names_the_model(self, space):
        spec = rc.TheoreticalModelSpec("w", "drunkards_walk", {"stay": float("nan")})
        with pytest.raises(rc.ValidationError, match="model 'w': .*finite"):
            spec.build(space)


class TestPoolCounts:
    def test_cohort_totals(self, space):
        # 73 and 27 sequences of length 16 give 1095 and 405 transitions
        rng = np.random.default_rng(2)

        def cohort(n, seed_base):
            out = []
            for i in range(n):
                states = rng.integers(1, 6, size=16)
                seq = rc.ResponseSequence(f"s{seed_base}{i}", states)
                out.append(rc.count_transitions(seq, space))
            return out

        assert rc.pool_counts(cohort(73, "a")).total == 1095
        assert rc.pool_counts(cohort(27, "b")).total == 405

    def test_singleton_identity(self, o05, space):
        counts = rc.count_transitions(o05, space)
        pooled = rc.pool_counts([counts])
        assert np.array_equal(pooled.counts, counts.counts)

    def test_pooling_is_not_concatenation(self, space):
        a = rc.ResponseSequence("a", [1, 2])
        b = rc.ResponseSequence("b", [3, 4])
        pooled = rc.pool_counts([
            rc.count_transitions(a, space), rc.count_transitions(b, space),
        ])
        glued = rc.count_transitions(
            rc.ResponseSequence("ab", [1, 2, 3, 4]), space
        )
        assert pooled.total == 2
        assert glued.total == 3
        assert glued.counts[1, 2] == 1  # the artificial boundary pair
        assert pooled.counts[1, 2] == 0

    def test_size_mismatch(self):
        with pytest.raises(rc.ValidationError):
            rc.pool_counts([
                rc.TransitionCounts(np.zeros((3, 3), dtype=int) + 1),
                rc.TransitionCounts(np.zeros((4, 4), dtype=int) + 1),
            ])

    def test_empty(self):
        with pytest.raises(rc.ValidationError):
            rc.pool_counts([])


class TestMatrixPower:
    def test_first_power_is_input(self, adhd_matrix):
        p1 = rc.matrix_power(adhd_matrix, 1)
        assert np.allclose(p1.probs, adhd_matrix.probs)

    def test_against_repeated_multiplication(self, adhd_matrix):
        p3 = rc.matrix_power(adhd_matrix, 3)
        direct = adhd_matrix.probs @ adhd_matrix.probs @ adhd_matrix.probs
        assert np.allclose(p3.probs, direct, atol=1e-12)

    def test_stays_row_stochastic(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_stochastic_matrix(rng, 5)
            p = rc.matrix_power(m, 20)
            assert np.allclose(p.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_zero_power(self, adhd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.matrix_power(adhd_matrix, 0)

    def test_undefined_rows_rejected(self, o05, space):
        partial = rc.normalize_rows(rc.count_transitions(o05, space))
        with pytest.raises(rc.StructuralError, match="smoothing"):
            rc.matrix_power(partial, 2)


class TestStationary:
    def test_adhd_group(self, adhd_matrix):
        result = rc.stationary(adhd_matrix)
        assert result.converged
        assert result.power_at_convergence <= 8
        assert np.all(np.abs(result.distribution - ADHD_STATIONARY) <= 0.002)
        assert abs(result.distribution.sum() - 1.0) < 1e-9

    def test_ocd_group(self, ocd_matrix):
        result = rc.stationary(ocd_matrix)
        assert result.converged
        assert result.power_at_convergence <= 12
        assert np.all(np.abs(result.distribution - OCD_STATIONARY) <= 0.002)

    def test_uniform_fixed_point_converges_immediately(self, space):
        result = rc.stationary(rc.max_entropy(space))
        assert result.converged
        assert result.power_at_convergence == 1
        assert np.allclose(result.distribution, 0.2)

    def test_fixed_point_property(self, ocd_matrix):
        result = rc.stationary(ocd_matrix)
        drift = result.distribution @ ocd_matrix.probs - result.distribution
        assert np.abs(drift).max() < 2 * result.tolerance_used

    def test_matches_eigenvector(self, adhd_matrix):
        result = rc.stationary(adhd_matrix, tolerance=1e-12, max_power=512)
        values, vectors = np.linalg.eig(adhd_matrix.probs.T)
        lead = np.argmin(np.abs(values - 1.0))
        pi = np.real(vectors[:, lead])
        pi = pi / pi.sum()
        assert np.abs(result.distribution - pi).max() < 1e-10

    def test_non_convergence_reported(self, adhd_matrix):
        result = rc.stationary(adhd_matrix, tolerance=1e-15, max_power=3)
        assert not result.converged
        assert result.power_at_convergence == 3

    def test_reducible_rejected(self):
        identity = rc.TransitionMatrix.from_rows(np.eye(3))
        with pytest.raises(rc.StructuralError, match="irreducible"):
            rc.stationary(identity)

    def test_periodic_rejected(self):
        swap = rc.TransitionMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(rc.StructuralError, match="periodic"):
            rc.stationary(swap)

    def test_undefined_rows_rejected(self, o05, space):
        partial = rc.normalize_rows(rc.count_transitions(o05, space))
        with pytest.raises(rc.StructuralError, match="pool more data"):
            rc.stationary(partial)


def reachability_oracle(adj):
    """All-pairs reachability by boolean matrix powers."""
    n = adj.shape[0]
    reach = np.eye(n, dtype=bool) | adj
    for _ in range(n):
        reach = reach | (reach @ adj)
    return reach


class TestIrreducible:
    def test_group_matrices(self, adhd_matrix, ocd_matrix):
        assert rc.is_irreducible(adhd_matrix)
        assert rc.is_irreducible(ocd_matrix)

    def test_identity_is_not(self):
        assert not rc.is_irreducible(rc.TransitionMatrix.from_rows(np.eye(4)))

    def test_one_way_chain_is_not(self):
        m = rc.TransitionMatrix.from_rows([[0.5, 0.5], [0.0, 1.0]])
        assert not rc.is_irreducible(m)

    def test_cycle_is(self):
        cycle = rc.TransitionMatrix.from_rows(np.roll(np.eye(4), 1, axis=1))
        assert rc.is_irreducible(cycle)

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            mask = rng.random((k, k)) < 0.35
            for i in range(k):
                if not mask[i].any():
                    mask[i, rng.integers(0, k)] = True
            rows = mask * rng.random((k, k))
            rows = rows / rows.sum(axis=1, keepdims=True)
            m = rc.TransitionMatrix.from_rows(rows)
            reach = reachability_oracle(m.probs > 0)
            assert rc.is_irreducible(m) == bool(reach.all())


def period_oracle(adj, state, horizon):
    """gcd of observed return times to `state` via boolean powers."""
    from math import gcd

    power = np.eye(adj.shape[0], dtype=bool)
    g = 0
    for n in range(1, horizon + 1):
        power = power @ adj
        if power[state, state]:
            g = gcd(g, n)
    return g


class TestAperiodic:
    def test_group_matrices(self, adhd_matrix):
        assert rc.is_aperiodic(adhd_matrix)

    def test_two_cycle_is_periodic(self):
        swap = rc.TransitionMatrix.from_rows([[0, 1], [1, 0]])
        assert not rc.is_aperiodic(swap)

    def test_three_cycle_is_periodic(self):
        cycle = rc.TransitionMatrix.from_rows(np.roll(np.eye(3), 1, axis=1))
        assert not rc.is_aperiodic(cycle)

    def test_cycle_with_one_self_loop_is_aperiodic(self):
        rows = np.roll(np.eye(3), 1, axis=1) * 0.9
        rows[0, 0] += 0.1
        rows = rows / rows.sum(axis=1, keepdims=True)
        assert rc.is_aperiodic(rc.TransitionMatrix.from_rows(rows))

    def test_matches_return_time_oracle(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            k = int(rng.integers(2, 7))
            mask = rng.random((k, k)) < 0.4
            for i in range(k):
                if not mask[i].any():
                    mask[i, rng.integers(0, k)] = True
            rows = mask * rng.random((k, k))
            rows = rows / rows.sum(axis=1, keepdims=True)
            m = rc.TransitionMatrix.from_rows(rows)
            if not rc.is_irreducible(m):
                continue
            checked += 1
            g = period_oracle(m.probs > 0, 0, 4 * k * k)
            assert rc.is_aperiodic(m) == (g == 1)


# The graph traversals that chain._structure replaced, kept as oracles:
# breadth-first reachability, Kosaraju's strong components and the period
# of a component from breadth-first levels.
def oracle_reachable(adj, start, reverse=False):
    a = adj.T if reverse else adj
    seen = np.zeros(a.shape[0], dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.flatnonzero(a[v]):
                if not seen[w]:
                    seen[w] = True
                    nxt.append(int(w))
        frontier = nxt
    return seen


def oracle_strong_components(adj):
    n = adj.shape[0]
    order = []
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, 0)]
        seen[root] = True
        while stack:
            v, ptr = stack.pop()
            nbrs = np.flatnonzero(adj[v])
            while ptr < nbrs.size and seen[nbrs[ptr]]:
                ptr += 1
            if ptr < nbrs.size:
                w = int(nbrs[ptr])
                stack.append((v, ptr + 1))
                seen[w] = True
                stack.append((w, 0))
            else:
                order.append(v)
    comp = -np.ones(n, dtype=np.int64)
    label = 0
    radj = adj.T
    for v in reversed(order):
        if comp[v] >= 0:
            continue
        comp[v] = label
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in np.flatnonzero(radj[u]):
                    if comp[w] < 0:
                        comp[w] = label
                        nxt.append(int(w))
            frontier = nxt
        label += 1
    return comp


def oracle_component_period(adj, members):
    """gcd of level[u] + 1 - level[w] over the component's edges (u, w)."""
    members = list(members)
    inside = np.zeros(adj.shape[0], dtype=bool)
    inside[members] = True
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for w in np.flatnonzero(adj[u]):
                if inside[w] and int(w) not in level:
                    level[int(w)] = level[u] + 1
                    nxt.append(int(w))
        frontier = nxt
    g = 0
    for u in members:
        for w in np.flatnonzero(adj[u]):
            if inside[w]:
                g = gcd(g, level[u] + 1 - level[int(w)])
    return g


def oracle_periods(adj):
    """Each state's component period; 0 for a component with no edge."""
    comp = oracle_strong_components(adj)
    period = np.zeros(adj.shape[0], dtype=np.int64)
    for label in range(comp.max() + 1):
        members = np.flatnonzero(comp == label)
        if adj[np.ix_(members, members)].any():
            period[members] = oracle_component_period(adj, members)
    return period


@st.composite
def structured_matrices(draw):
    """Row-stochastic K x K matrices, K in 2..12, of three shapes.

    "sparse": each cell positive with a small drawn probability.
    "cycle": a planted cycle through 2..K states, plus a few chords.
    "closed_periodic": a closed class of c states split into d >= 2
    cyclic classes (edges only from class r to class r+1 mod d, with a
    planted c-cycle), so its period is d; the remaining states are
    transient and may point anywhere.
    """
    k = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(["sparse", "cycle", "closed_periodic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "sparse":
        mask = rng.random((k, k)) < rng.uniform(0.05, 0.4)
    elif shape == "cycle":
        mask = rng.random((k, k)) < rng.uniform(0.0, 0.1)
        ring = rng.permutation(k)[:rng.integers(2, k + 1)]
        mask[ring, np.roll(ring, -1)] = True
    else:
        c = int(rng.integers(2, k)) if k > 2 else 2
        d = int(rng.choice([p for p in range(2, c + 1) if c % p == 0]))
        cls = np.arange(k) % d
        closed = np.arange(k) < c
        mask = np.zeros((k, k), dtype=bool)
        mask[:c, :c] = ((cls[:c, None] + 1) % d == cls[None, :c]) & (
            rng.random((c, c)) < 0.5)
        mask[np.arange(c), (np.arange(c) + 1) % c] = True
        mask[~closed] = rng.random((k - c, k)) < rng.uniform(0.1, 0.5)
    empty = ~mask.any(axis=1)
    mask[np.flatnonzero(empty), rng.integers(0, k, size=int(empty.sum()))] = True
    rows = mask * rng.uniform(0.1, 1.0, size=(k, k))
    return rc.TransitionMatrix.from_rows(rows / rows.sum(axis=1, keepdims=True))


class TestStructureAgainstTraversals:
    @settings(max_examples=400, deadline=None)
    @given(structured_matrices())
    def test_matches_traversal_oracles_and_scipy(self, m):
        adj = m.probs > 0
        reach, period = rc.chain._structure(m)
        assert rc.is_irreducible(m) == bool(
            oracle_reachable(adj, 0).all() and oracle_reachable(adj, 0, reverse=True).all()
        )
        oracle = oracle_periods(adj)
        assert np.array_equal(period, oracle)
        assert rc.is_aperiodic(m) == bool((oracle <= 1).all())
        components = len(np.unique(reach & reach.T, axis=0))
        assert components == oracle_strong_components(adj).max() + 1
        assert components == scipy.sparse.csgraph.connected_components(
            scipy.sparse.csr_matrix(adj), directed=True, connection="strong")[0]

    def test_reducible_with_periodic_closed_class_is_periodic(self):
        m = rc.TransitionMatrix.from_rows(
            [[0, 1, 0], [1, 0, 0], [0.5, 0, 0.5]]
        )
        assert not rc.is_irreducible(m)
        assert not rc.is_aperiodic(m)

    def test_transient_state_on_no_cycle_constrains_nothing(self):
        m = rc.TransitionMatrix.from_rows(
            [[0.5, 0.5, 0], [0.5, 0.5, 0], [0.5, 0.5, 0]]
        )
        assert not rc.is_irreducible(m)
        assert rc.is_aperiodic(m)


class TestInertia:
    def test_worked_sequence(self, o05, space):
        summary = rc.inertia(rc.count_transitions(o05, space))
        assert summary.on_diagonal == 4
        assert summary.off_diagonal == 11
        assert summary.total == 15
        assert summary.proportion == pytest.approx(4 / 15)

    def test_constant_sequence_all_inertia(self, space):
        seq = rc.ResponseSequence("c", [2] * 10)
        summary = rc.inertia(rc.count_transitions(seq, space))
        assert summary.proportion == 1.0

    def test_alternating_sequence_no_inertia(self, space):
        seq = rc.ResponseSequence("alt", [1, 5] * 8)
        summary = rc.inertia(rc.count_transitions(seq, space))
        assert summary.on_diagonal == 0

    def test_empty_counts_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.inertia(rc.TransitionCounts(np.zeros((5, 5), dtype=int)))


class TestExpectedInertia:
    def test_uniform_rows(self, space):
        mem = rc.max_entropy(space)
        assert rc.expected_inertia(mem, [3, 3, 3, 3, 3]) == pytest.approx(3.0)

    def test_worked_sequence_estimate(self, o05, space):
        counts = rc.count_transitions(o05, space)
        m = rc.normalize_rows(counts)
        value = rc.expected_inertia(m, counts.row_totals)
        assert value == pytest.approx(4.0)

    def test_identity_keeps_everything(self):
        eye = rc.TransitionMatrix.from_rows(np.eye(5))
        assert rc.expected_inertia(eye, np.ones(5)) == pytest.approx(5.0)

    def test_exposure_on_undefined_row(self, o05, space):
        partial = rc.normalize_rows(rc.count_transitions(o05, space))
        with pytest.raises(rc.StructuralError):
            rc.expected_inertia(partial, [1, 4, 6, 5, 0])

    def test_wrong_length(self, adhd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.expected_inertia(adhd_matrix, [1, 2, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_totals_rejected(self, adhd_matrix, bad):
        with pytest.raises(rc.ValidationError, match="finite"):
            rc.expected_inertia(adhd_matrix, [bad, 1, 1, 1, 1])


class TestSequenceLog2Prob:
    def test_matches_product_oracle(self, adhd_matrix):
        rng = np.random.default_rng(3)
        for _ in range(10):
            states = rng.integers(1, 6, size=12)
            seq = rc.ResponseSequence("r", states)
            value = rc.sequence_log2_prob(seq, adhd_matrix)
            product = 1.0
            for a, b in zip(states[:-1], states[1:]):
                product *= adhd_matrix.probs[a - 1, b - 1]
            assert value == pytest.approx(np.log2(product), abs=1e-9)

    def test_impossible_step(self):
        m = rc.TransitionMatrix.from_rows([[0.5, 0.5], [1.0, 0.0]])
        seq = rc.ResponseSequence("x", [2, 2])
        assert rc.sequence_log2_prob(seq, m) == float("-inf")

    def test_undefined_row_rejected(self, o05, space):
        partial = rc.normalize_rows(rc.count_transitions(o05, space))
        seq = rc.ResponseSequence("x", [1, 2, 3])
        with pytest.raises(rc.StructuralError):
            rc.sequence_log2_prob(seq, partial)


class TestTransitionMatrixValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(rc.ValidationError, match="sums to"):
            rc.TransitionMatrix.from_rows([[0.6, 0.5], [0.5, 0.5]])

    def test_no_negative_entries(self):
        with pytest.raises(rc.ValidationError):
            rc.TransitionMatrix.from_rows([[1.2, -0.2], [0.5, 0.5]])

    def test_undefined_rows_must_be_zero(self):
        with pytest.raises(rc.ValidationError, match="undefined"):
            rc.TransitionMatrix(
                np.array([[0.5, 0.5], [0.3, 0.7]]),
                np.array([True, False]),
            )

    def test_probs_read_only(self, adhd_matrix):
        with pytest.raises(ValueError):
            adhd_matrix.probs[0, 0] = 0.9


class TestStoredTotals:
    def test_counts_totals_are_fields_set_at_construction(self, o05, space):
        counts = rc.count_transitions(o05, space)
        assert {"row_totals", "total"} <= {f.name for f in fields(counts)}
        assert counts.row_totals.dtype == np.int64
        assert not counts.row_totals.flags.writeable
        with pytest.raises(AttributeError):
            counts.total = 0

    def test_totals_take_no_part_in_equality(self):
        a = rc.InertiaSummary(3, 4)
        assert a == rc.InertiaSummary(3.0, 4)
        assert hash(a) == hash(rc.InertiaSummary(3, 4))
        with pytest.raises(TypeError):
            rc.InertiaSummary(3, 4, total=7)

    def test_empty_summary_has_nan_proportion(self):
        summary = rc.InertiaSummary(0, 0)
        assert summary.total == 0
        assert np.isnan(summary.proportion)

    @pytest.mark.parametrize("bad", [1.5, -1, float("nan"), float("inf"), "3", True])
    def test_inertia_entries_must_be_counts(self, bad):
        with pytest.raises(rc.ValidationError,
                           match=r"^on_diagonal must be a finite nonnegative integer"):
            rc.InertiaSummary(bad, 2)


class TestUnreachedChecks:
    def test_counts_must_be_square(self):
        with pytest.raises(rc.ValidationError, match=r"counts must be square, got shape \(2, 3\)"):
            rc.TransitionCounts(np.zeros((2, 3), dtype=int))

    def test_counts_must_be_nonnegative(self):
        with pytest.raises(rc.ValidationError, match="^counts must be nonnegative$"):
            rc.TransitionCounts([[1, -1], [0, 2]])

    def test_probs_must_be_square(self):
        with pytest.raises(rc.ValidationError, match=r"probs must be square, got shape \(2, 3\)"):
            rc.TransitionMatrix(np.full((2, 3), 1 / 3), [True, True])

    def test_defined_rows_need_one_flag_per_row(self):
        with pytest.raises(rc.ValidationError,
                           match="^defined_rows must have one flag per row$"):
            rc.TransitionMatrix(np.eye(2), [True, True, True])

    def test_sequence_probability_needs_two_responses(self, adhd_matrix):
        with pytest.raises(rc.ValidationError,
                           match="need at least 2 responses for a sequence probability"):
            rc.sequence_log2_prob(rc.ResponseSequence("x", [3]), adhd_matrix)

    def test_sequence_probability_rejects_state_above_k(self, adhd_matrix):
        with pytest.raises(rc.ValidationError, match=r"^state 6 outside 1\.\.5$"):
            rc.sequence_log2_prob(rc.ResponseSequence("x", [1, 6, 2]), adhd_matrix)


class TestParameterChecks:
    @pytest.mark.parametrize("bad", [0, -1e-3, float("nan"), float("inf"), "1e-3", True])
    def test_stationary_tolerance(self, adhd_matrix, bad):
        with pytest.raises(rc.ValidationError,
                           match=r"^tolerance must be a finite positive number, got "):
            rc.stationary(adhd_matrix, tolerance=bad)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, float("nan"), float("inf"), True])
    def test_stationary_max_power(self, adhd_matrix, bad):
        with pytest.raises(rc.ValidationError,
                           match=r"^max_power must be a finite positive integer, got "):
            rc.stationary(adhd_matrix, max_power=bad)

    def test_stationary_takes_a_whole_float_max_power(self, adhd_matrix):
        whole, default = rc.stationary(adhd_matrix, max_power=64.0), rc.stationary(adhd_matrix)
        assert whole.power_at_convergence == default.power_at_convergence
        assert np.array_equal(whole.distribution, default.distribution)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), None])
    def test_smoothing_alpha(self, o05, space, bad):
        counts = rc.count_transitions(o05, space)
        with pytest.raises(rc.ValidationError,
                           match=r"^smoothing_alpha must be a finite nonnegative number"):
            rc.normalize_rows(counts, bad)
