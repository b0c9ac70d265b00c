import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import stats
from cryptocast.errors import DomainError, SizeError
from cryptocast.rng import Rng


class TestMetrics:
    def test_perfect_fit(self):
        m = stats.compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.mse, m.rmse, m.mae, m.mape_percent) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        # errors -10 and +10: MSE 100, RMSE 10, MAE 10,
        # MAPE = mean(10/100, 10/200) * 100 = 7.5%
        m = stats.compute_metrics([100.0, 200.0], [110.0, 190.0])
        assert m.mse == pytest.approx(100.0)
        assert m.rmse == pytest.approx(10.0)
        assert m.mae == pytest.approx(10.0)
        assert m.mape_percent == pytest.approx(7.5)
        assert m.n == 2

    def test_scaling_homogeneity(self):
        y = np.array([110.0, 95.0, 130.0])
        yhat = np.array([100.0, 104.0, 128.0])
        base = stats.compute_metrics(y, yhat)
        scaled = stats.compute_metrics(3 * y, 3 * yhat)
        assert scaled.mape_percent == pytest.approx(base.mape_percent)
        assert scaled.mae == pytest.approx(3 * base.mae)
        assert scaled.mse == pytest.approx(9 * base.mse)

    def test_rmse_is_sqrt_mse(self):
        rng = Rng(1)
        y = rng.uniform(1, 10, (50,))
        yhat = rng.uniform(1, 10, (50,))
        m = stats.compute_metrics(y, yhat)
        assert m.rmse**2 == pytest.approx(m.mse, rel=1e-12)

    def test_zero_actual_rejected(self):
        with pytest.raises(DomainError):
            stats.compute_metrics([1.0, 0.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(SizeError):
            stats.compute_metrics([1.0, 2.0], [1.0])


class TestPredictionInterval:
    def test_zero_residuals_collapse_to_point(self):
        yhat = np.array([5.0, 6.0, 7.0])
        band = stats.prediction_interval(np.zeros(25), yhat, 0.95)
        assert np.array_equal(band.lower, yhat)
        assert np.array_equal(band.upper, yhat)

    def test_symmetric_integer_residuals(self):
        # residuals -10..10; 2.5%/97.5% linear-interpolation quantiles are
        # -9.5 and +9.5
        residuals = np.arange(-10.0, 11.0)
        yhat = np.array([100.0])
        band = stats.prediction_interval(residuals, yhat, 0.95)
        assert band.lower[0] == pytest.approx(100.0 - 9.5)
        assert band.upper[0] == pytest.approx(100.0 + 9.5)

    def test_band_always_contains_point(self):
        residuals = np.linspace(2.0, 30.0, 40)  # all positive
        yhat = np.array([10.0, 20.0])
        band = stats.prediction_interval(residuals, yhat, 0.8)
        assert np.all(band.lower <= yhat)
        assert np.all(band.upper >= yhat)

    def test_gaussian_coverage_monte_carlo(self):
        rng = Rng(2024)
        sigma = 3.7
        residuals = sigma * rng.normal(size=1000)
        yhat = np.full(1000, 50.0)
        band = stats.prediction_interval(residuals, yhat, 0.95)
        future = yhat + sigma * rng.normal(size=1000)
        covered = np.mean((future >= band.lower) & (future <= band.upper))
        assert abs(covered - 0.95) <= 0.03

    def test_too_few_residuals(self):
        with pytest.raises(SizeError):
            stats.prediction_interval(np.zeros(19), np.zeros(3), 0.95)

    def test_bad_level(self):
        with pytest.raises(DomainError):
            stats.prediction_interval(np.zeros(30), np.zeros(3), 1.0)


class TestRankBlocks:
    def test_simple_ordering(self):
        ranks, mean_ranks = stats.rank_blocks(np.array([[3.0, 1.0, 2.0],
                                                        [3.0, 1.0, 2.0]]))
        assert ranks[0].tolist() == [3.0, 1.0, 2.0]
        assert mean_ranks.tolist() == [3.0, 1.0, 2.0]

    def test_average_tie_rule(self):
        ranks, _ = stats.rank_blocks(np.array([[5.0, 5.0, 9.0],
                                               [1.0, 2.0, 3.0]]))
        assert ranks[0].tolist() == [1.5, 1.5, 3.0]

    def test_full_ties_center_rank(self):
        ranks, mean_ranks = stats.rank_blocks(np.full((4, 5), 2.0))
        assert np.all(ranks == 3.0)  # (k+1)/2 with k=5
        assert np.allclose(mean_ranks, 3.0)

    def test_mean_ranks_sum_invariant(self):
        rng = Rng(3)
        errors = rng.uniform(0, 1, (12, 5))
        _, mean_ranks = stats.rank_blocks(errors)
        assert mean_ranks.sum() == pytest.approx(5 * 6 / 2, abs=1e-9)
        assert np.all((mean_ranks >= 1.0) & (mean_ranks <= 5.0))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            stats.rank_blocks(np.array([[1.0, np.nan], [2.0, 3.0]]))


class TestFriedman:
    def test_all_tied_blocks_give_zero(self):
        res = stats.friedman_test(np.full((6, 4), 1.25))
        assert res.chi2 == pytest.approx(0.0, abs=1e-9)
        assert res.p_value == pytest.approx(1.0)

    def test_hand_evaluated_instance(self):
        # two blocks, both ranking the three models 1, 2, 3:
        # chi2 = 12*2/(3*4) * (1 + 4 + 9) - 3*2*4 = 28 - 24 = 4
        res = stats.friedman_test(np.array([[1.0, 2.0, 3.0],
                                            [10.0, 20.0, 30.0]]))
        assert res.chi2 == pytest.approx(4.0, abs=1e-12)
        assert res.df == 2

    def test_huge_statistic_tail_underflows(self):
        assert stats.chi_square_tail(1419.34, 4) < 1e-12

    @given(st.integers(0, 1000),
           st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed, a, b, c):
        rng = Rng(seed)
        errors = rng.uniform(0.1, 5.0, (6, 4))
        base = stats.friedman_test(errors)
        # random strictly increasing map (positive-coefficient mix of
        # increasing primitives) keeps every within-block ranking
        transformed = a * np.exp(errors / 5.0) + b * errors**3 + c * errors
        res = stats.friedman_test(transformed)
        assert res.chi2 == pytest.approx(base.chi2, abs=1e-9)
        assert np.allclose(res.mean_ranks, base.mean_ranks)

    def test_agrees_with_scipy(self):
        rng = Rng(17)
        errors = rng.uniform(0, 1, (20, 4))
        ours = stats.friedman_test(errors)
        ref_chi2, ref_p = scipy.stats.friedmanchisquare(*[errors[:, j] for j in range(4)])
        assert ours.chi2 == pytest.approx(ref_chi2, rel=1e-10)
        assert ours.p_value == pytest.approx(ref_p, rel=1e-8)


class TestWilcoxon:
    def test_hand_ranked_example(self):
        # d = [1, -2, 3, -4, 5]: |d| ranks are 1..5, positives take
        # 1+3+5=9, negatives 2+4=6, so R = 6
        a = np.array([1.0, 0.0, 3.0, 0.0, 5.0])
        b = np.array([0.0, 2.0, 0.0, 4.0, 0.0])
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.r_plus == 9.0
        assert res.r_minus == 6.0
        assert res.r_stat == 6.0
        assert res.n_effective == 5

    def test_all_positive_differences(self):
        a = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.r_minus == 0.0
        assert res.r_stat == 0.0

    def test_swap_antisymmetry(self):
        rng = Rng(4)
        a = rng.uniform(0, 1, (12,))
        b = rng.uniform(0, 1, (12,))
        ab = stats.wilcoxon_signed_rank(a, b)
        ba = stats.wilcoxon_signed_rank(b, a)
        assert ab.r_plus == ba.r_minus
        assert ab.r_minus == ba.r_plus
        assert ab.r_stat == ba.r_stat
        assert ab.p_value == ba.p_value

    def test_rank_sum_identity(self):
        rng = Rng(5)
        for _ in range(10):
            a = rng.uniform(0, 1, (15,))
            b = rng.uniform(0, 1, (15,))
            res = stats.wilcoxon_signed_rank(a, b)
            n = res.n_effective
            assert res.r_plus + res.r_minus == pytest.approx(n * (n + 1) / 2)

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 7.0])
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.n_effective == 5

    def test_all_zero_differences_degenerate(self):
        a = np.ones(8)
        with pytest.raises(DomainError):
            stats.wilcoxon_signed_rank(a, a.copy())

    def test_too_few_nonzero_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 1.0])
        b = np.array([0.0, 1.0, 2.0, 4.0, 1.0])
        with pytest.raises(SizeError):
            stats.wilcoxon_signed_rank(a, b)

    def test_exact_p_matches_scipy(self):
        rng = Rng(6)
        for _ in range(5):
            a = rng.uniform(0, 1, (14,))
            b = rng.uniform(0, 1, (14,))
            ours = stats.wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, mode="exact")
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_exact_vs_normal_agreement_in_transition_zone(self):
        # the two p-value routes must agree tightly right where the
        # implementation switches between them
        rng = Rng(7)
        worst = 0.0
        for n in range(20, 26):
            for _ in range(8):
                d = rng.uniform(-1, 1, (n,))
                d = d[d != 0]
                ranks = stats._average_ranks(np.abs(d))
                r_plus = float(ranks[d > 0].sum())
                r_minus = float(ranks[d < 0].sum())
                r = min(r_plus, r_minus)
                doubled = np.rint(2 * ranks).astype(np.int64)
                exact = min(1.0, 2.0 * stats._signed_rank_exact_cdf_leq(
                    doubled, int(round(2 * r))))
                mu = n * (n + 1) / 4.0
                var = n * (n + 1) * (2 * n + 1) / 24.0
                z = (r - mu + 0.5) / np.sqrt(var)
                approx = min(1.0, 2.0 * (1.0 - stats.standard_normal_tail(z)))
                worst = max(worst, abs(exact - approx))
        assert worst < 0.01

    def test_large_sample_uses_normal_route(self):
        rng = Rng(8)
        shift = 0.15
        a = rng.uniform(0, 1, (60,))
        b = a + shift + 0.3 * rng.normal(size=60)
        res = stats.wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, correction=True, mode="approx")
        assert res.p_value == pytest.approx(ref.pvalue, abs=5e-3)

    @pytest.mark.parametrize("n, negatives", [(110, 0), (110, 3), (300, 20)])
    def test_tiny_normal_route_p_matches_scipy(self, n, negatives):
        # |z| > 8: p is below 1e-15, where 1 - P(Z > z) used to cancel to 0
        rng = Rng(n + negatives)
        a = rng.uniform(0, 1, (n,))
        d = rng.uniform(0.1, 1.0, (n,))
        d[:negatives] *= -1.0
        res = stats.wilcoxon_signed_rank(a, a - d)
        ref = scipy.stats.wilcoxon(a, a - d, correction=True, mode="approx")
        assert 0.0 < ref.pvalue < 1e-15
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=0.0)

    def test_balanced_normal_route_p_is_one(self):
        # r_plus == r_minus puts r_stat at its mean: z = +0.5 / sigma, p = 1
        d = np.repeat(np.arange(1.0, 16.0), 2) * np.tile([1.0, -1.0], 15)
        res = stats.wilcoxon_signed_rank(d, np.zeros(30))
        assert res.r_plus == res.r_minus and res.n_effective == 30
        assert res.p_value == 1.0
        assert scipy.stats.wilcoxon(d, np.zeros(30), correction=True,
                                    mode="approx").pvalue == pytest.approx(1.0)


class TestBonferroni:
    def test_reference_value_scaled_by_ten(self):
        out = stats.bonferroni_adjust([0.02894864], 10)
        assert out[0] == pytest.approx(0.2894864, abs=1e-12)

    def test_second_reference_value(self):
        out = stats.bonferroni_adjust([0.004209894], 10)
        assert out[0] == pytest.approx(0.04209894, abs=1e-12)

    def test_capped_at_one(self):
        assert stats.bonferroni_adjust([0.2], 10) == [1.0]

    def test_out_of_range_p_rejected(self):
        with pytest.raises(DomainError):
            stats.bonferroni_adjust([1.2], 3)

    def test_bad_m(self):
        with pytest.raises(DomainError):
            stats.bonferroni_adjust([0.1], 0)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=10), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, ps, m):
        out = stats.bonferroni_adjust(ps, m)
        for p, q in zip(ps, out):
            assert q >= min(p, 1.0) - 1e-15
            assert 0.0 <= q <= 1.0
        order = np.argsort(ps)
        adjusted_sorted = np.array(out)[order]
        assert np.all(np.diff(adjusted_sorted) >= -1e-15)


class TestTails:
    def test_chi_square_df2_closed_form(self):
        assert stats.chi_square_tail(4.0, 2) == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_chi_square_at_zero_full_mass(self):
        assert stats.chi_square_tail(0.0, 4) == 1.0

    def test_normal_at_zero(self):
        assert stats.standard_normal_tail(0.0) == 0.5

    def test_normal_reference_values(self):
        assert stats.standard_normal_tail(1.959963984540054) == pytest.approx(0.025, abs=1e-10)
        assert stats.standard_normal_tail(-1.0) == pytest.approx(
            1.0 - stats.standard_normal_tail(1.0), abs=1e-14)

    def test_chi_square_against_scipy(self):
        # the closed form over df 1-20 and x up to 600, where the tail is 1e-120
        for df in range(1, 21):
            for x in np.concatenate([np.geomspace(1e-6, 600.0, 60), [0.5, 3.0, 12.5]]):
                assert stats.chi_square_tail(float(x), df) == pytest.approx(
                    scipy.stats.chi2.sf(x, df), rel=1e-12, abs=0.0)

    def test_invalid_df(self):
        with pytest.raises(DomainError):
            stats.chi_square_tail(1.0, 0)


class TestCompareModels:
    def test_pair_count_and_significance_flags(self):
        rng = Rng(9)
        n = 40
        base = rng.uniform(1, 2, (n,))
        errors = {
            "a": base + 3.0 + 0.01 * rng.normal(size=n),
            "b": base + 0.01 * rng.normal(size=n),
            "c": base + 0.02 * rng.normal(size=n),
        }
        report = stats.compare_models(errors, alpha=0.05)
        assert report.bonferroni_m == 3
        assert len(report.pairwise) == 3
        ab = next(p for p in report.pairwise if {p.model_1, p.model_2} == {"a", "b"})
        assert ab.significant  # a is clearly worse than b
        for p in report.pairwise:
            assert p.p_corrected == pytest.approx(min(1.0, p.p_raw * 3), abs=1e-15)

    def test_needs_two_models(self):
        with pytest.raises(SizeError):
            stats.compare_models({"only": np.ones(10)})
