"""Log-likelihood ratio construction and sequence classification."""

import math

import numpy as np
import pytest

import respchain as rc
from conftest import (
    LOG_RATIO_TABLE,
    RATIO_TABLE,
    random_stochastic_matrix,
)


class TestRatioMatrix:
    def test_group_matrices_match_published_table(self, ocd_matrix, adhd_matrix):
        ratios = rc.ratio_matrix(ocd_matrix, adhd_matrix)
        assert np.all(np.abs(ratios - RATIO_TABLE) <= 0.02)

    def test_identical_inputs_give_ones(self, adhd_matrix):
        ratios = rc.ratio_matrix(adhd_matrix, adhd_matrix)
        assert np.allclose(ratios, 1.0)

    def test_size_mismatch(self, adhd_matrix):
        other = rc.TransitionMatrix.from_rows(np.full((3, 3), 1 / 3))
        with pytest.raises(rc.ValidationError):
            rc.ratio_matrix(adhd_matrix, other)

    def test_undefined_rows_rejected(self, o05, space, adhd_matrix):
        partial = rc.normalize_rows(rc.count_transitions(o05, space))
        with pytest.raises(rc.StructuralError):
            rc.ratio_matrix(partial, adhd_matrix)


class TestFlooring:
    def numerator_with_zero(self):
        return rc.TransitionMatrix.from_rows([[0.0, 1.0], [0.5, 0.5]])

    def test_zero_cell_floored_not_infinite(self):
        num = self.numerator_with_zero()
        den = rc.TransitionMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        lr = rc.log_likelihood_matrix(num, den)
        assert np.all(np.isfinite(lr.values))
        assert lr.values[0, 0] == pytest.approx(math.log2(0.01 / 0.5))

    def test_floor_records_are_one_based(self):
        num = self.numerator_with_zero()
        den = rc.TransitionMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        lr = rc.log_likelihood_matrix(num, den)
        assert lr.epsilon_policy == (
            rc.FloorRecord("numerator", 1, 1, 0.01),
        )

    def test_flooring_is_symmetric(self):
        num = self.numerator_with_zero()
        den = rc.TransitionMatrix.from_rows([[1.0, 0.0], [0.5, 0.5]])
        lr = rc.log_likelihood_matrix(num, den)
        sides = {(r.side, r.from_state, r.to_state) for r in lr.epsilon_policy}
        assert ("numerator", 1, 1) in sides
        assert ("denominator", 1, 2) in sides

    def test_both_zero_gives_unit_ratio(self):
        num = rc.TransitionMatrix.from_rows([[0.0, 1.0], [0.5, 0.5]])
        den = rc.TransitionMatrix.from_rows([[0.0, 1.0], [0.5, 0.5]])
        lr = rc.log_likelihood_matrix(num, den)
        assert lr.values[0, 0] == 0.0

    def test_custom_floor(self):
        num = self.numerator_with_zero()
        den = rc.TransitionMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        lr = rc.log_likelihood_matrix(num, den, epsilon_floor=0.001)
        assert lr.values[0, 0] == pytest.approx(math.log2(0.001 / 0.5))

    def test_negative_floor_rejected(self, adhd_matrix, ocd_matrix):
        with pytest.raises(rc.ValidationError):
            rc.log_likelihood_matrix(ocd_matrix, adhd_matrix, epsilon_floor=-0.1)

    def test_zero_floor_without_zero_cells_is_fine(self, adhd_matrix, ocd_matrix):
        lr = rc.log_likelihood_matrix(ocd_matrix, adhd_matrix, epsilon_floor=0.0)
        assert lr.epsilon_policy == ()

    def test_zero_floor_with_zero_denominator_cell_fails(self):
        num = rc.TransitionMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        den = rc.TransitionMatrix.from_rows([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(rc.ValidationError, match="cannot divide"):
            rc.log_likelihood_matrix(num, den, epsilon_floor=0.0)


class TestLogRatioMatrix:
    def test_published_log_table(self, published_lr):
        assert np.all(np.abs(published_lr.values - LOG_RATIO_TABLE) <= 0.02)

    def test_composition_matches_manual_log(self, ocd_matrix, adhd_matrix):
        lr = rc.log_likelihood_matrix(ocd_matrix, adhd_matrix)
        manual = np.log2(rc.ratio_matrix(ocd_matrix, adhd_matrix))
        assert np.allclose(lr.values, manual)

    def test_carries_model_names(self, published_lr):
        assert published_lr.numerator_name == "OCD"
        assert published_lr.denominator_name == "ADHD"

    def test_nonfinite_values_rejected(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(rc.ValidationError):
            rc.LogRatioMatrix(bad, "a", "b")

    def test_antisymmetry_without_flooring(self, adhd_matrix):
        rng = np.random.default_rng(7)
        other = random_stochastic_matrix(rng, 5)
        forward = rc.log_likelihood_matrix(adhd_matrix, other)
        backward = rc.log_likelihood_matrix(other, adhd_matrix)
        assert np.allclose(forward.values, -backward.values)


class TestScoreSequence:
    def test_worked_sequence_score(self, o05, published_lr):
        result = rc.score_sequence(o05, published_lr)
        assert result.score == pytest.approx(0.37, abs=0.005)
        assert result.participant_id == "O05"

    def test_terms_recompose_the_score(self, o05, published_lr):
        result = rc.score_sequence(o05, published_lr)
        total = math.fsum(c for _, _, _, c in result.per_transition_terms)
        assert total == result.score

    def test_terms_weighted_by_counts(self, o05, published_lr, space):
        counts = rc.count_transitions(o05, space).counts
        result = rc.score_sequence(o05, published_lr)
        for i, j, n, contribution in result.per_transition_terms:
            assert counts[i - 1, j - 1] == n
            expected = n * published_lr.values[i - 1, j - 1]
            assert contribution == pytest.approx(expected)

    def test_zero_count_cells_not_listed(self, o05, published_lr):
        result = rc.score_sequence(o05, published_lr)
        assert all(n > 0 for _, _, n, _ in result.per_transition_terms)

    def test_self_comparison_scores_zero(self, o05, adhd_matrix):
        lr = rc.log_likelihood_matrix(adhd_matrix, adhd_matrix)
        assert rc.score_sequence(o05, lr).score == 0.0

    def test_out_of_range_state(self, published_lr):
        seq = rc.ResponseSequence("bad", [3, 7])
        with pytest.raises(rc.ValidationError):
            rc.score_sequence(seq, published_lr)


class TestScoreValue:
    def test_matches_score_sequence(self, published_lr):
        rng = np.random.default_rng(13)
        for _ in range(20):
            states = rng.integers(1, 6, size=30)
            seq = rc.ResponseSequence("r", states)
            full = rc.score_sequence(seq, published_lr).score
            fast = rc.score_value(states, published_lr.values)
            assert fast == pytest.approx(full, abs=1e-12)

    @pytest.mark.parametrize("states", [[1, 0, 2], [1, 6], [4, 2, 7, 1]])
    def test_out_of_range_state(self, published_lr, states):
        # pair counts are packed as from*K + to, so an unchecked 0 or K+1
        # would land silently in a neighbouring cell
        with pytest.raises(rc.ValidationError, match="1..5"):
            rc.score_value(states, published_lr.values)

    def test_array_like_betas(self):
        assert rc.score_value([1, 2, 1], [[0.0, 1.0], [2.0, 0.0]]) == 3.0

    def test_betas_of_the_wrong_shape(self):
        with pytest.raises(rc.ValidationError, match="do not fit a beta matrix"):
            rc.score_value([1, 2, 1], [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])


def scored(value):
    return rc.SequenceScore("p", value, (), "OCD", "ADHD")


class TestClassifyBinary:
    def test_positive_score(self):
        assert rc.classify_binary(scored(0.37)) == "OCD"

    def test_negative_score(self):
        assert rc.classify_binary(scored(-1.2)) == "ADHD"

    def test_zero_goes_to_numerator(self):
        assert rc.classify_binary(scored(0.0)) == "OCD"

    def test_custom_cutoff(self):
        assert rc.classify_binary(scored(0.4), cutoff=0.5) == "ADHD"
        assert rc.classify_binary(scored(0.5), cutoff=0.5) == "OCD"

    def test_worked_example_end_to_end(self, o05, published_lr):
        assert rc.classify_binary(rc.score_sequence(o05, published_lr)) == "OCD"


class TestClassifyMultimodel:
    def profile_candidates(self, space):
        models = rc.builtin_models(space)
        return [
            ("symmetric", models["symmetric"]),
            ("skewed+", models["skewed+"]),
            ("skewed-", models["skewed-"]),
        ]

    def test_constant_midpoint_prefers_symmetric(self, space):
        seq = rc.ResponseSequence("c3", [3] * 16)
        verdict = rc.classify_multimodel(
            seq, self.profile_candidates(space), rc.max_entropy(space),
        )
        assert verdict.assigned_model == "symmetric"
        assert not verdict.tie
        # 15 self-transitions, each worth log2(0.4 / 0.2) = 1
        assert verdict.scores["symmetric"] == pytest.approx(15.0)

    def test_constant_floor_prefers_positive_skew(self, space):
        seq = rc.ResponseSequence("c1", [1] * 16)
        verdict = rc.classify_multimodel(
            seq, self.profile_candidates(space), rc.max_entropy(space),
        )
        assert verdict.assigned_model == "skewed+"

    def test_alternating_extremes_fall_back_to_reference(self, space):
        seq = rc.ResponseSequence("alt", [1, 5] * 8)
        verdict = rc.classify_multimodel(
            seq, self.profile_candidates(space), rc.max_entropy(space),
        )
        assert verdict.assigned_model == "MEM"
        assert all(s < 0 for s in verdict.scores.values())

    def test_stay_heavy_candidate_outranks_profiles(self, space):
        # with the walk model in the pool, a constant sequence goes to it:
        # its 0.5 stay probability beats the symmetric profile's 0.4
        models = rc.builtin_models(space)
        candidates = [("DWM", models["DWM"])] + self.profile_candidates(space)
        seq = rc.ResponseSequence("c3", [3] * 16)
        verdict = rc.classify_multimodel(seq, candidates, rc.max_entropy(space))
        assert verdict.assigned_model == "DWM"
        assert set(verdict.scores) == {"DWM", "symmetric", "skewed+", "skewed-"}

    def test_exact_tie_takes_first_in_order(self, space):
        models = rc.builtin_models(space)
        twins = [("alpha", models["symmetric"]), ("beta", models["symmetric"])]
        seq = rc.ResponseSequence("c3", [3] * 16)
        verdict = rc.classify_multimodel(seq, twins, rc.max_entropy(space))
        assert verdict.tie
        assert verdict.assigned_model == "alpha"

    def test_empty_candidates_rejected(self, space):
        seq = rc.ResponseSequence("x", [1, 2])
        with pytest.raises(rc.ValidationError):
            rc.classify_multimodel(seq, [], rc.max_entropy(space))

    def test_duplicate_names_rejected(self, space):
        models = rc.builtin_models(space)
        dupes = [("m", models["DWM"]), ("m", models["symmetric"])]
        seq = rc.ResponseSequence("x", [1, 2])
        with pytest.raises(rc.ValidationError, match="distinct"):
            rc.classify_multimodel(seq, dupes, rc.max_entropy(space))

    def test_reference_name_collision_rejected(self, space):
        models = rc.builtin_models(space)
        seq = rc.ResponseSequence("x", [1, 2])
        with pytest.raises(rc.ValidationError):
            rc.classify_multimodel(
                seq,
                [("MEM", models["DWM"])],
                rc.max_entropy(space),
                reference_name="MEM",
            )


class TestScoringInputChecks:
    def test_score_value_rejects_scalar_betas(self):
        with pytest.raises(rc.ValidationError,
                           match=r"do not fit a beta matrix of shape \(\): it must be square"):
            rc.score_value([1, 2], 5.0)

    def test_score_value_rejects_two_dimensional_states(self):
        with pytest.raises(rc.ValidationError,
                           match=r"^states must be a 1-d sequence, got shape \(2, 2\)$"):
            rc.score_value([[1, 2], [2, 1]], np.zeros((2, 2)))

    def test_score_value_rejects_fractional_states(self):
        with pytest.raises(rc.ValidationError,
                           match="^states must be finite whole numbers within int64, got 1.9$"):
            rc.score_value([1.9, 2.2], [[1.0, 2.0], [4.0, 8.0]])

    @pytest.mark.parametrize("states", [[], [2], [2.0]])
    def test_score_value_of_fewer_than_two_states_is_zero(self, states):
        assert rc.score_value(states, [[1.0, 2.0], [4.0, 8.0]]) == 0.0

    def test_score_terms_rejects_a_beta_matrix_of_another_size(self):
        with pytest.raises(rc.ValidationError,
                           match=r"counts of shape \(1, 2, 2\) do not fit a beta matrix "
                                 r"of shape \(3, 3\)"):
            rc.score_terms(np.array([[[0, 1], [0, 0]]]), np.arange(9.0).reshape(3, 3))

    def test_log_ratio_values_must_be_square(self):
        with pytest.raises(rc.ValidationError,
                           match=r"^values must be square, got shape \(2, 3\)$"):
            rc.LogRatioMatrix(np.zeros((2, 3)), "a", "b")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, "0.01"])
    def test_ratio_epsilon_floor(self, adhd_matrix, ocd_matrix, bad):
        with pytest.raises(rc.ValidationError,
                           match=r"^epsilon_floor must be a finite nonnegative number, got "):
            rc.ratio_matrix(ocd_matrix, adhd_matrix, bad)
