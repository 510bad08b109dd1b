"""Chi-square engine and the tests built on it. scipy serves as oracle."""

import numpy as np
import pytest
import scipy.stats

import respchain as rc
from conftest import ADHD_STATIONARY, OCD_STATIONARY


class TestChiSquareP:
    def test_against_scipy_grid(self):
        for df in (1, 2, 3, 4, 5, 10, 30, 100):
            for x in (0.01, 0.5, 1.0, 3.84, 10.0, 50.0, 140.58, 300.0):
                ours = rc.chi_square_p(x, df)
                ref = scipy.stats.chi2.sf(x, df)
                assert ours == pytest.approx(ref, rel=1e-8, abs=1e-300)

    def test_textbook_critical_value(self):
        # 3.841 is the 5% critical value at df = 1
        assert rc.chi_square_p(3.841, 1) == pytest.approx(0.05, abs=5e-4)

    def test_small_statistic(self):
        assert rc.chi_square_p(0.69, 1) == pytest.approx(0.40616, abs=5e-5)

    def test_extreme_tail(self):
        p = rc.chi_square_p(140.58, 3)
        assert p == pytest.approx(2.83e-30, rel=1e-2)

    def test_zero_statistic(self):
        assert rc.chi_square_p(0.0, 4) == 1.0

    def test_monotone_in_statistic(self):
        values = [rc.chi_square_p(x, 4) for x in np.linspace(0.1, 60, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_statistic_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.chi_square_p(-1.0, 2)

    def test_bad_df_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.chi_square_p(1.0, 0)
        with pytest.raises(rc.ValidationError):
            rc.chi_square_p(1.0, 2.5)

    @pytest.mark.parametrize("statistic, df", [
        (np.nan, 1), (np.inf, 1), (-np.inf, 1), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_input_rejected(self, statistic, df):
        with pytest.raises(rc.ValidationError):
            rc.chi_square_p(statistic, df)

    @pytest.mark.parametrize("df", [10**4, 10**5, 10**6])
    @pytest.mark.parametrize("q", [0.01, 0.5, 0.99])
    def test_large_df_against_scipy(self, df, q):
        # the series needs thousands of terms here; a short cap once
        # returned 0.7393 for the median at df = 10**6
        x = scipy.stats.chi2.isf(q, df)
        assert rc.chi_square_p(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), rel=1e-8)

    @pytest.mark.parametrize("x, loop", [(999_999.33, "series"),
                                         (1_000_004.0, "continued fraction")])
    def test_iteration_cap_is_an_error(self, monkeypatch, x, loop):
        monkeypatch.setattr("respchain.stats._MAX_ITER", 50)
        with pytest.raises(rc.ValidationError,
                           match=f"^chi-square {loop} did not converge at df=1e\\+06$"):
            rc.chi_square_p(x, 10**6)


class TestChiSquareStatistic:
    @pytest.mark.parametrize("observed, expected", [
        ([1, np.nan], [1, 1]), ([1, np.inf], [1, 1]), ([1, 1], [1, np.nan]),
        ([1, 1], [1, np.inf])])
    def test_non_finite_counts_rejected(self, observed, expected):
        with pytest.raises(rc.ValidationError, match="finite"):
            rc.chi_square_statistic(observed, expected)

    def test_goodness_of_fit_df(self):
        stat, df = rc.chi_square_statistic([10, 20, 30], [20, 20, 20])
        assert df == 2
        assert stat == pytest.approx((100 + 0 + 100) / 20)

    def test_contingency_df(self):
        observed = np.array([[10, 20], [30, 40]])
        expected = np.outer(observed.sum(1), observed.sum(0)) / observed.sum()
        stat, df = rc.chi_square_statistic(observed, expected, layout="contingency")
        assert df == 1
        ref = scipy.stats.chi2_contingency(observed, correction=False)
        assert stat == pytest.approx(ref.statistic)

    def test_zero_expected_cell_rejected(self):
        with pytest.raises(rc.ValidationError, match="pool sparse cells"):
            rc.chi_square_statistic([1, 2], [0.0, 3.0])

    @pytest.mark.parametrize("observed, expected, layout, cell", [
        ([[1, 2], [3, 4]], [[1, 0], [3, 4]], "contingency", "(1,2)"),
        ([1, 2, 3], [1, 0, 2], "goodness_of_fit", "2"),
    ])
    def test_zero_expected_cell_named_from_one(self, observed, expected, layout, cell):
        with pytest.raises(rc.ValidationError) as info:
            rc.chi_square_statistic(observed, expected, layout)
        assert str(info.value).startswith(f"expected cell {cell} is 0; ")

    def test_shape_mismatch(self):
        with pytest.raises(rc.ValidationError):
            rc.chi_square_statistic([1, 2, 3], [1, 2])

    def test_unknown_layout(self):
        with pytest.raises(rc.ValidationError):
            rc.chi_square_statistic([1, 2], [1.5, 1.5], layout="banana")


class TestStandardizedResiduals:
    def test_definition(self):
        residuals, _ = rc.standardized_residuals([16, 4], [10, 10])
        assert residuals[0] == pytest.approx(6 / np.sqrt(10))
        assert residuals[1] == pytest.approx(-6 / np.sqrt(10))

    def test_flags_only_excesses(self):
        # the deficit at -2.68 stays unflagged; only the excess is marked
        residuals, flagged = rc.standardized_residuals([1, 28], [10, 19])
        assert residuals[0] < -2
        assert residuals[1] > 2
        assert flagged == (1,)

    def test_two_dim_flags_are_pairs(self):
        observed = np.array([[30.0, 5.0], [5.0, 30.0]])
        expected = np.full((2, 2), 17.5)
        _, flagged = rc.standardized_residuals(observed, expected)
        assert flagged == ((0, 0), (1, 1))

    def test_custom_criterion(self):
        _, flagged = rc.standardized_residuals([16, 4], [10, 10], criterion=1.0)
        assert flagged == (0,)

    def test_read_only_output_on_outcome(self):
        outcome = rc.equiprobability_test([10, 20, 30])
        with pytest.raises(ValueError):
            outcome.std_residuals[0] = 0.0


class TestInertiaAssociation:
    def test_matches_scipy_contingency(self):
        g1 = rc.InertiaSummary(on_diagonal=300, off_diagonal=795)
        g2 = rc.InertiaSummary(on_diagonal=150, off_diagonal=255)
        outcome = rc.inertia_association_test(g1, g2)
        table = [[300, 795], [150, 255]]
        ref = scipy.stats.chi2_contingency(table, correction=False)
        assert outcome.statistic == pytest.approx(ref.statistic)
        assert outcome.df == 1
        assert outcome.p_value == pytest.approx(ref.pvalue, rel=1e-8)

    def test_no_association_when_proportions_match(self):
        g1 = rc.InertiaSummary(on_diagonal=20, off_diagonal=80)
        g2 = rc.InertiaSummary(on_diagonal=10, off_diagonal=40)
        outcome = rc.inertia_association_test(g1, g2)
        assert outcome.statistic == pytest.approx(0.0, abs=1e-12)
        assert outcome.p_value == pytest.approx(1.0)

    def test_sparse_cells_warn_rather_than_fail(self):
        g1 = rc.InertiaSummary(on_diagonal=1, off_diagonal=200)
        g2 = rc.InertiaSummary(on_diagonal=0, off_diagonal=2)
        outcome = rc.inertia_association_test(g1, g2)
        assert outcome.warnings
        assert "expected" in outcome.warnings[0]

    def test_empty_group_rejected(self):
        g1 = rc.InertiaSummary(on_diagonal=0, off_diagonal=0)
        g2 = rc.InertiaSummary(on_diagonal=5, off_diagonal=5)
        with pytest.raises(rc.ValidationError):
            rc.inertia_association_test(g1, g2)


class TestEquiprobability:
    def test_textbook_case(self):
        outcome = rc.equiprobability_test([100, 40, 30, 10])
        assert outcome.statistic == pytest.approx(100.0, abs=1e-9)
        assert outcome.df == 3
        assert outcome.p_value < 1e-6

    def test_matches_scipy_chisquare(self):
        counts = [105, 56, 16, 3]
        outcome = rc.equiprobability_test(counts)
        ref = scipy.stats.chisquare(counts)
        assert outcome.statistic == pytest.approx(ref.statistic)
        assert outcome.statistic == pytest.approx(140.5778, abs=1e-3)
        assert outcome.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_uniform_counts_give_zero(self):
        outcome = rc.equiprobability_test([25, 25, 25, 25])
        assert outcome.statistic == 0.0
        assert outcome.p_value == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.equiprobability_test([50])

    @pytest.mark.parametrize("counts", [[np.nan, 1], [np.inf, 1], [1, 2, np.nan]])
    def test_non_finite_counts_rejected(self, counts):
        with pytest.raises(rc.ValidationError):
            rc.equiprobability_test(counts)

    def test_small_expected_cells_warn(self):
        outcome = rc.equiprobability_test([0, 1])
        assert outcome.warnings == (
            "smallest expected cell is 0.500 (< 1); "
            "the chi-square approximation is unreliable here",)


class TestStationaryGof:
    def test_group_comparison_pipeline(self):
        outcome = rc.stationary_gof(OCD_STATIONARY, ADHD_STATIONARY, 405)
        assert 50 <= outcome.statistic <= 62
        assert outcome.df == 4
        assert outcome.p_value < 0.001

    def test_flags_upper_states_only(self):
        outcome = rc.stationary_gof(OCD_STATIONARY, ADHD_STATIONARY, 405)
        # excesses sit at the two highest states (0-based indices 3 and 4)
        assert outcome.flagged_cells == (3, 4)
        assert outcome.std_residuals[0] < 0

    def test_statistic_scales_linearly_with_n(self):
        small = rc.stationary_gof(OCD_STATIONARY, ADHD_STATIONARY, 100)
        large = rc.stationary_gof(OCD_STATIONARY, ADHD_STATIONARY, 400)
        assert large.statistic == pytest.approx(4 * small.statistic, rel=1e-9)

    def test_identical_distributions(self):
        outcome = rc.stationary_gof(ADHD_STATIONARY, ADHD_STATIONARY, 405)
        assert outcome.statistic == pytest.approx(0.0, abs=1e-12)
        assert outcome.flagged_cells == ()

    def test_not_a_distribution_rejected(self):
        with pytest.raises(rc.ValidationError):
            rc.stationary_gof([0.5, 0.6], [0.5, 0.5], 100)

    @pytest.mark.parametrize("focal, reference, n_focal", [
        ([np.nan, 1.0], [0.5, 0.5], 100), ([0.5, 0.5], [np.nan, 1.0], 100),
        ([0.5, 0.5], [0.5, 0.5], np.nan), ([0.5, 0.5], [0.5, 0.5], np.inf)])
    def test_non_finite_input_rejected(self, focal, reference, n_focal):
        with pytest.raises(rc.ValidationError):
            rc.stationary_gof(focal, reference, n_focal)

    def test_small_n_warns(self):
        outcome = rc.stationary_gof(
            OCD_STATIONARY, ADHD_STATIONARY, 10
        )
        assert outcome.warnings

    def test_small_n_warning_text(self):
        outcome = rc.stationary_gof(OCD_STATIONARY, ADHD_STATIONARY, 10)
        assert outcome.warnings == (
            "smallest expected cell is 0.280 (< 1); "
            "the chi-square approximation is unreliable here",)


class TestUnreachedChecks:
    def test_fractional_inertia_never_reaches_the_test(self):
        with pytest.raises(rc.ValidationError, match="on_diagonal must be a finite"):
            rc.inertia_association_test(rc.InertiaSummary(1.5, 2), rc.InertiaSummary(3, 4))

    def test_empty_table(self):
        with pytest.raises(rc.ValidationError,
                           match="^empty tables have no chi-square statistic$"):
            rc.chi_square_statistic([], [])

    def test_negative_observed_counts(self):
        with pytest.raises(rc.ValidationError, match="^observed counts must be nonnegative$"):
            rc.chi_square_statistic([3, -1], [1, 1])

    def test_contingency_needs_two_dimensions(self):
        with pytest.raises(rc.ValidationError,
                           match="^contingency layout needs a 2-d table$"):
            rc.chi_square_statistic([3, 1], [2, 2], layout="contingency")

    def test_layout_without_degrees_of_freedom(self):
        with pytest.raises(rc.ValidationError,
                           match=r"^layout leaves no degrees of freedom \(df=0\)$"):
            rc.chi_square_statistic([5], [5])

    def test_equiprobability_needs_a_positive_total(self):
        with pytest.raises(rc.ValidationError, match="^total count must be positive$"):
            rc.equiprobability_test([0, 0])

    def test_gof_shapes_must_match(self):
        with pytest.raises(rc.ValidationError,
                           match="^focal and reference must be 1-d of equal length$"):
            rc.stationary_gof([0.5, 0.5], [0.2, 0.3, 0.5], 10)
