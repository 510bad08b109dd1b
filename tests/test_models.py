"""Reference transition models and their construction rules."""

import numpy as np
import pytest

import respchain as rc
from conftest import (
    DWM_TABLE,
    SKEW_NEG_VECTOR,
    SKEW_POS_VECTOR,
    SYMMETRIC_VECTOR,
)


class TestMaxEntropy:
    def test_five_states(self, space):
        m = rc.max_entropy(space)
        assert np.all(m.probs == 0.2)
        assert m.fully_defined

    def test_arbitrary_size(self):
        m = rc.max_entropy(rc.StateSpace(7))
        assert np.allclose(m.probs, 1 / 7)

    def test_is_own_stationary_point(self, space):
        result = rc.stationary(rc.max_entropy(space))
        assert result.power_at_convergence == 1


class TestDrunkardsWalk:
    def test_published_matrix_exact(self, space):
        m = rc.drunkards_walk(space)
        assert np.array_equal(m.probs, DWM_TABLE)

    def test_edge_rows_fold_the_outward_step(self, space):
        m = rc.drunkards_walk(space)
        # 0.24 toward state 0 has nowhere to go from state 1, so the
        # inward cell absorbs it, less the floor that keeps cells alive
        assert m.probs[0, 1] == pytest.approx(2 * 0.24 - 0.01)
        assert m.probs[4, 3] == pytest.approx(2 * 0.24 - 0.01)

    def test_rows_sum_exactly(self, space):
        m = rc.drunkards_walk(space)
        assert np.all(m.probs.sum(axis=1) == 1.0)

    def test_interior_structure(self, space):
        m = rc.drunkards_walk(space)
        for i in (1, 2, 3):
            assert m.probs[i, i] == 0.5
            assert m.probs[i, i - 1] == 0.24
            assert m.probs[i, i + 1] == 0.24

    def test_custom_parameters(self, space):
        # interior rows carry stay + 2 step + 2 floor cells, which must
        # close to 1: 0.6 + 2*0.195 + 2*0.005
        m = rc.drunkards_walk(space, stay=0.6, step=0.195, epsilon_floor=0.005)
        assert m.probs[2, 2] == pytest.approx(0.6)
        assert np.allclose(m.probs.sum(axis=1), 1.0)

    def test_unclosable_row_rejected(self, space):
        with pytest.raises(rc.ValidationError, match="residual"):
            rc.drunkards_walk(space, stay=0.5, step=0.3)

    def test_three_state_space(self):
        # no distant cells on a 3-point scale, so stay + 2 step must be 1
        m = rc.drunkards_walk(rc.StateSpace(3), stay=0.5, step=0.25)
        assert np.allclose(m.probs.sum(axis=1), 1.0)
        assert m.probs[1, 1] == 0.5
        assert m.probs[0, 1] == pytest.approx(2 * 0.25 - 0.01)


class TestFromStationaryVector:
    def test_rows_are_all_the_vector(self):
        m = rc.from_stationary_vector(SYMMETRIC_VECTOR)
        for row in m.probs:
            assert np.allclose(row, SYMMETRIC_VECTOR)

    def test_vector_is_stationary_for_it(self):
        m = rc.from_stationary_vector(SKEW_POS_VECTOR)
        result = rc.stationary(m)
        assert result.power_at_convergence == 1
        assert np.allclose(result.distribution, SKEW_POS_VECTOR)

    def test_must_sum_to_one(self):
        with pytest.raises(rc.ValidationError):
            rc.from_stationary_vector([0.5, 0.4, 0.2])

    def test_rejects_negative(self):
        with pytest.raises(rc.ValidationError):
            rc.from_stationary_vector([1.2, -0.2])

    def test_rejects_nan(self):
        with pytest.raises(rc.ValidationError, match="must be finite"):
            rc.from_stationary_vector([np.nan, 0.5, 0.5])


class TestModelSpec:
    def test_max_entropy_kind(self, space):
        spec = rc.TheoreticalModelSpec("mem", "max_entropy", {})
        assert np.all(spec.build(space).probs == 0.2)

    def test_drunkards_walk_kind_with_params(self, space):
        spec = rc.TheoreticalModelSpec(
            "dw", "drunkards_walk", {"stay": 0.5, "step": 0.24},
        )
        assert np.array_equal(spec.build(space).probs, DWM_TABLE)

    def test_stationary_vector_kind(self, space):
        spec = rc.TheoreticalModelSpec(
            "sym", "from_stationary_vector", {"vector": list(SYMMETRIC_VECTOR)},
        )
        m = spec.build(space)
        assert np.allclose(m.probs[0], SYMMETRIC_VECTOR)

    def test_explicit_kind(self, space):
        rows = np.full((5, 5), 0.2)
        spec = rc.TheoreticalModelSpec("flat", "explicit", {"rows": rows.tolist()})
        assert np.allclose(spec.build(space).probs, 0.2)

    def test_explicit_size_mismatch(self, space):
        spec = rc.TheoreticalModelSpec(
            "bad", "explicit", {"rows": [[0.5, 0.5], [0.5, 0.5]]},
        )
        with pytest.raises(rc.ValidationError):
            spec.build(space)

    @pytest.mark.parametrize("rows", [None, 5])
    def test_explicit_rows_that_are_not_a_table(self, space, rows):
        spec = rc.TheoreticalModelSpec("x", "explicit", {"rows": rows})
        with pytest.raises(rc.ValidationError,
                           match=r"^model 'x': probs must be square, got shape \(\)$"):
            spec.build(space)

    def test_unknown_kind(self, space):
        spec = rc.TheoreticalModelSpec("x", "mystery", {})
        with pytest.raises(rc.ValidationError, match="mystery"):
            spec.build(space)

    def test_vector_kind_size_mismatch(self):
        spec = rc.TheoreticalModelSpec(
            "sym", "from_stationary_vector", {"vector": list(SYMMETRIC_VECTOR)},
        )
        with pytest.raises(rc.ValidationError):
            spec.build(rc.StateSpace(3))


class TestBuiltinModels:
    def test_five_state_catalog(self, space):
        models = rc.builtin_models(space)
        assert set(models) == {"MEM", "DWM", "symmetric", "skewed+", "skewed-"}

    def test_other_sizes_only_get_max_entropy(self):
        models = rc.builtin_models(rc.StateSpace(4))
        assert set(models) == {"MEM"}

    def test_profile_vectors(self, space):
        models = rc.builtin_models(space)
        assert np.allclose(models["symmetric"].probs[0], SYMMETRIC_VECTOR)
        assert np.allclose(models["skewed+"].probs[0], SKEW_POS_VECTOR)
        assert np.allclose(models["skewed-"].probs[0], SKEW_NEG_VECTOR)

    def test_profiles_sum_to_one(self):
        for vec in (SYMMETRIC_VECTOR, SKEW_POS_VECTOR, SKEW_NEG_VECTOR):
            assert vec.sum() == pytest.approx(1.0)


class TestUnreachedChecks:
    @pytest.mark.parametrize("params", [{"stay": 0}, {"step": -0.1}, {"epsilon_floor": 0}])
    def test_walk_parameters_must_be_positive(self, params):
        with pytest.raises(rc.ValidationError,
                           match="^stay, step and epsilon_floor must all be positive$"):
            rc.drunkards_walk(rc.StateSpace(5), **params)

    @pytest.mark.parametrize("vector", [[[0.5, 0.5], [0.5, 0.5]], [1.0]])
    def test_stationary_vector_shape(self, vector):
        with pytest.raises(rc.ValidationError,
                           match="^need a 1-d probability vector of length >= 2$"):
            rc.from_stationary_vector(vector)
