"""Synthetic cohort generation and its reproducibility contract."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respchain as rc
from respchain import simulate
from respchain.cli import main
from conftest import SEEDS


def states_of(cohort):
    return [seq.states.tolist() for seq in cohort]


class TestSpecValidation:
    def test_length_too_short(self, adhd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.SimulationSpec(adhd_matrix, length=1)

    def test_count_too_small(self, adhd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.SimulationSpec(adhd_matrix, length=10, count=0)

    def test_undefined_rows_rejected(self, o05, space):
        partial = rc.normalize_rows(rc.count_transitions(o05, space))
        with pytest.raises(rc.StructuralError, match="undefined row"):
            rc.SimulationSpec(partial, length=10)

    def test_initial_must_be_distribution(self, adhd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.SimulationSpec(
                adhd_matrix, length=10, initial_distribution=[0.5, 0.5, 0, 0, 0.5],
            )

    def test_initial_wrong_size(self, adhd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.SimulationSpec(
                adhd_matrix, length=10, initial_distribution=[0.5, 0.5],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_initial_must_be_finite(self, bad):
        matrix = rc.TransitionMatrix(np.full((3, 3), 1 / 3), np.ones(3, bool))
        with pytest.raises(rc.ValidationError, match="initial distribution must be finite"):
            rc.SimulationSpec(matrix, length=10, initial_distribution=[bad, 0.5, 0.5])


    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, adhd_matrix, seed):
        with pytest.raises(rc.ValidationError, match="seed must be a non-negative integer"):
            rc.SimulationSpec(adhd_matrix, length=10, seed=seed)

    @pytest.mark.parametrize("field", ["length", "count"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "4", None])
    def test_length_and_count_must_be_integers(self, adhd_matrix, field, value):
        sizes = {"length": 10, "count": 2, field: value}
        with pytest.raises(rc.ValidationError, match=f"{field} must be an integer"):
            rc.SimulationSpec(adhd_matrix, **sizes)

    def test_numpy_integer_sizes_accepted(self, adhd_matrix):
        spec = rc.SimulationSpec(adhd_matrix, length=np.int64(4), count=np.int64(3))
        assert [len(s) for s in rc.generate_cohort(spec)] == [4, 4, 4]

    @pytest.mark.parametrize("seed", [0, 2**70, np.int64(7), np.uint64(2**63)])
    def test_integer_seeds_accepted(self, adhd_matrix, seed):
        spec = rc.SimulationSpec(adhd_matrix, length=4, count=2, seed=seed)
        assert len(rc.generate_cohort(spec)) == 2


class TestResolveInitial:
    def test_explicit_distribution_wins(self, adhd_matrix):
        spec = rc.SimulationSpec(
            adhd_matrix, length=5, initial_distribution=[1, 0, 0, 0, 0],
        )
        dist, source = rc.resolve_initial(spec)
        assert source == "given"
        assert dist[0] == 1.0

    def test_default_is_stationary(self, adhd_matrix):
        spec = rc.SimulationSpec(adhd_matrix, length=5)
        dist, source = rc.resolve_initial(spec)
        assert source == "stationary"
        fixed = dist @ adhd_matrix.probs
        assert np.abs(fixed - dist).max() < 1e-8

    def test_periodic_chain_falls_back_to_uniform(self):
        swap = rc.TransitionMatrix.from_rows([[0, 1], [1, 0]])
        spec = rc.SimulationSpec(swap, length=5)
        dist, source = rc.resolve_initial(spec)
        assert source == "uniform"
        assert np.allclose(dist, 0.5)


class TestDeterminism:
    def test_same_spec_same_cohort(self, ocd_matrix):
        spec = rc.SimulationSpec(ocd_matrix, length=16, count=8, seed=99)
        a = rc.generate_cohort(spec)
        b = rc.generate_cohort(spec)
        assert states_of(a) == states_of(b)

    def test_worker_count_does_not_change_output(self, ocd_matrix):
        spec = rc.SimulationSpec(ocd_matrix, length=16, count=12, seed=7)
        serial = rc.generate_cohort(spec)
        threaded = rc.generate_cohort(spec, workers=4)
        assert states_of(serial) == states_of(threaded)
        assert [s.participant_id for s in serial] == [
            s.participant_id for s in threaded
        ]

    def test_each_index_owns_its_stream(self, adhd_matrix):
        big = rc.SimulationSpec(adhd_matrix, length=16, count=6, seed=3)
        small = rc.SimulationSpec(adhd_matrix, length=16, count=3, seed=3)
        assert states_of(rc.generate_cohort(big))[:3] == states_of(
            rc.generate_cohort(small)
        )

    def test_seed_changes_output(self, adhd_matrix):
        a = rc.generate_cohort(rc.SimulationSpec(adhd_matrix, 16, 4, seed=1))
        b = rc.generate_cohort(rc.SimulationSpec(adhd_matrix, 16, 4, seed=2))
        assert states_of(a) != states_of(b)

    def test_single_draw_matches_cohort_head(self, ocd_matrix):
        spec = rc.SimulationSpec(ocd_matrix, length=20, count=3, seed=5)
        single = rc.generate_sequence(spec)
        cohort = rc.generate_cohort(spec)
        assert single.states.tolist() == cohort[0].states.tolist()


class TestOutputShape:
    def test_ids_and_group(self, adhd_matrix):
        spec = rc.SimulationSpec(adhd_matrix, length=8, count=3, seed=0)
        cohort = rc.generate_cohort(spec, group="adhd", id_prefix="sim")
        assert [s.participant_id for s in cohort] == [
            "sim0000", "sim0001", "sim0002",
        ]
        assert all(s.group == "adhd" for s in cohort)

    def test_lengths(self, adhd_matrix):
        spec = rc.SimulationSpec(adhd_matrix, length=16, count=2, seed=0)
        assert all(len(s) == 16 for s in rc.generate_cohort(spec))

    def test_states_in_range(self, ocd_matrix):
        spec = rc.SimulationSpec(ocd_matrix, length=200, count=5, seed=11)
        for seq in rc.generate_cohort(spec):
            assert seq.states.min() >= 1
            assert seq.states.max() <= 5

    @pytest.mark.parametrize("k", [5, 11, 256])
    def test_states_have_the_loaded_type(self, tmp_path, k):
        # one cohort representation: a simulated cohort holds its states in
        # the type load_cohort gives them, the smallest that holds K
        rows = np.random.default_rng(k).dirichlet(np.ones(k), size=k)
        spec = rc.SimulationSpec(rc.TransitionMatrix(rows, np.ones(k, dtype=bool)),
                                 length=600, count=3, seed=k)
        cohort = simulate.draw_cohort(spec, np.full(k, 1.0 / k), group="sim")
        path = tmp_path / "sim.csv"
        rc.write_cohort(cohort, rc.StateSpace(k), path)
        loaded = rc.load_cohort(path, rc.Config(states=k))
        assert cohort.states.dtype == loaded.states.dtype == np.min_scalar_type(k)
        assert np.array_equal(cohort.states, loaded.states)


class TestStatisticalBehavior:
    def test_walk_recovers_the_matrix(self, adhd_matrix, space):
        spec = rc.SimulationSpec(adhd_matrix, length=200_000, count=1, seed=2)
        seq = rc.generate_sequence(spec)
        counts = rc.count_transitions(seq, space)
        estimate = rc.normalize_rows(counts)
        assert np.abs(estimate.probs - adhd_matrix.probs).max() < 0.01

    def test_occupancy_tracks_stationary(self, ocd_matrix):
        spec = rc.SimulationSpec(ocd_matrix, length=100_000, count=1, seed=8)
        seq = rc.generate_sequence(spec)
        occupancy = np.bincount(seq.states, minlength=6)[1:] / len(seq)
        target = rc.stationary(ocd_matrix).distribution
        assert np.abs(occupancy - target).max() < 0.01

    def test_deterministic_chain_is_constant(self):
        absorbing = rc.TransitionMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
        spec = rc.SimulationSpec(
            absorbing, length=50, count=1, seed=0,
            initial_distribution=[1.0, 0.0],
        )
        seq = rc.generate_sequence(spec)
        assert np.all(seq.states == 1)

    def test_pinned_start_state(self, adhd_matrix):
        spec = rc.SimulationSpec(
            adhd_matrix, length=10, count=20, seed=4,
            initial_distribution=[0, 0, 0, 0, 1],
        )
        assert all(s.states[0] == 5 for s in rc.generate_cohort(spec))


class TestStreams:
    """The vectorised pass against numpy's Generator, the contract's oracle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, length=st.sampled_from([1, 2, 15, 16, 17, 511, 512, 513]),
           indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6,
                            unique=True))
    def test_vectorised_uniforms_are_generator_bits(self, seed, length, indices):
        indices = np.array(indices, dtype=np.int64)
        got = simulate._vectorised_uniforms(seed, indices, length)
        want = simulate._generator_uniforms(seed, indices, length)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**127 + 1, 2**128 + 3, 2**160 + 3],
                             ids=["1-word", "4-word", "5-word", "6-word"])
    @pytest.mark.parametrize("length", [1, 17])
    def test_many_consecutive_streams_are_generator_bits(self, seed, length):
        # thousands of streams, so that the carry from the low to the high
        # half of the state occurs in many rows and steps, and the spawn
        # keys just below 2**32
        indices = np.concatenate([np.arange(4096), np.arange(2**32 - 4096, 2**32)])
        got = simulate._vectorised_uniforms(seed, indices, length)
        want = simulate._generator_uniforms(seed, indices, length)
        assert got.tobytes() == want.tobytes()
        assert got.T.flags.c_contiguous  # walk reads each step's draws as one row

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, index=st.integers(0, 2**32 - 1))
    def test_stream_states_are_generate_state(self, seed, index):
        # limbs least significant first; initstate is words 0 (high) and
        # 1 (low), initseq words 2 and 3
        initstate, initseq = simulate._stream_states(seed, [index])
        limbs = [int(limb[0]) for limb in initstate + initseq]
        words = [limbs[i] | limbs[i + 1] << 32 for i in (2, 0, 6, 4)]
        ss = np.random.SeedSequence(seed, spawn_key=(index,))
        assert words == ss.generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize("count, length", [(3, 40), (500, 16), (300, 16), (64, 300)])
    def test_both_paths_draw_the_same_cohort(self, ocd_matrix, monkeypatch, count, length):
        spec = rc.SimulationSpec(ocd_matrix, length=length, count=count, seed=2**64 + 5)
        init = rc.resolve_initial(spec)[0]
        cohorts = []
        for vectorise in (True, False):
            monkeypatch.setattr(simulate, "_vectorise", lambda *_: vectorise)
            cohorts.append(simulate.draw_cohort(spec, init))
        assert np.array_equal(cohorts[0].states, cohorts[1].states)
        assert cohorts[0].states.shape == (count * length,)

    @pytest.mark.parametrize("count, length, vectorised", [
        (20_000, 16, True),
        (500, 16, True),
        (1, 1_000_000, False),
        (3, 1700, False),
        (1000, 1000, False),
        (1, 16, False),
        (2**32 + 1, 2, False),  # a spawn key past one 32-bit word
    ])
    def test_path_rule(self, count, length, vectorised):
        assert simulate._vectorise(count, length) is vectorised


def _sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


K11_WALK = {"kind": "drunkards_walk", "stay": 0.5, "step": 0.21, "epsilon_floor": 0.01}


class TestDigestGuard:
    """Simulated output pinned byte for byte.

    The digests are the output of the earlier per-row walk (one
    searchsorted call per step), the oracle for the lockstep and chunked
    kernel; any change to the sampling rule, the seed streams or the CSV
    layout shows up here.
    """

    def test_dwm_cohort_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", "DWM", "--length", "16",
                     "--count", "500", "--seed", "11", "--group-label", "sim",
                     "--out", str(out), "--output", str(tmp_path / "r.json")])
        assert code == 0, capsys.readouterr().err
        assert _sha256_file(out) == DIGESTS["dwm_cohort_csv"]

    def test_k11_config_walk_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"states": 11, "models": {"walk": K11_WALK}}))
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", str(cfg), "--model", "walk",
                     "--length", "1700", "--count", "3", "--seed", "5",
                     "--out", str(out), "--output", str(tmp_path / "r.json")])
        assert code == 0, capsys.readouterr().err
        assert _sha256_file(out) == DIGESTS["k11_config_walk_csv"]

    def test_k11_long_row_walk_csv(self, tmp_path, capsys):
        # rows of 200,000 states, so each wide-scale cell is longer than
        # 65,536 states
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"states": 11, "models": {"walk": K11_WALK}}))
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", str(cfg), "--model", "walk",
                     "--length", "200000", "--count", "2", "--seed", "5",
                     "--out", str(out), "--output", str(tmp_path / "r.json")])
        assert code == 0, capsys.readouterr().err
        assert _sha256_file(out) == DIGESTS["k11_long_row_walk_csv"]

    def test_million_step_walk(self):
        params = {k: v for k, v in K11_WALK.items() if k != "kind"}
        matrix = rc.drunkards_walk(rc.StateSpace(11), **params)
        seq = rc.generate_sequence(
            rc.SimulationSpec(matrix, length=1_000_000, count=1, seed=2)
        )
        states = np.asarray(seq.states, dtype="<i8")
        digest = hashlib.sha256(states.tobytes()).hexdigest()
        assert digest == DIGESTS["million_step_walk"]

    def test_four_row_walk(self):
        """Four rows of 250,000 states, walked together: the chunked walk
        with N > 1 rows, whose chunks' walks from every start meet. The
        digest was taken from the kernel that composed every chunk's end
        map by doubling, before the meet check was added."""
        params = {k: v for k, v in K11_WALK.items() if k != "kind"}
        matrix = rc.drunkards_walk(rc.StateSpace(11), **params)
        seqs = rc.generate_cohort(rc.SimulationSpec(matrix, length=250_000, count=4, seed=3))
        states = np.concatenate([np.asarray(seq.states, dtype="<i8") for seq in seqs])
        digest = hashlib.sha256(states.tobytes()).hexdigest()
        assert digest == DIGESTS["four_row_walk"]


DIGESTS = {
    "dwm_cohort_csv":
        "5329fb0ba1eccdc787007d219579e8b654b6aee78a91d69b37be2fcb5e097f7b",
    "k11_config_walk_csv":
        "c881dd13a956d58cb3250d8a669a65e966bbe7f6586e7ba241fdf9b93320dd33",
    "k11_long_row_walk_csv":
        "a7ba31942291bcc8412f4231ac6f6fec9bcf6ca911f36fb78ee441accad50ccb",
    "million_step_walk":
        "63b80494e29423f410c9b98c703ac5fcc5fb46763bebb86d54e801310bcf195a",
    "four_row_walk":
        "1afffb6c894991a9a3cd1d30e53c985de0dbe6b8ce62af10b495296779aca527",
}
