"""Tests of distributions, statistics and the DOE."""

import numpy as np
import pytest

from repro.variability.distributions import (
    CornerDistribution,
    DistributionError,
    NormalDistribution,
    TruncatedNormalDistribution,
)
from repro.variability.doe import DOEError, DOEPoint, StudyDOE, paper_doe, reduced_doe
from repro.variability.statistics import (
    Histogram,
    StatisticsError,
    SummaryStatistics,
    correlation,
    standard_deviation,
)


class TestDistributions:
    def test_normal_from_three_sigma(self):
        dist = NormalDistribution.from_three_sigma(3.0)
        assert dist.sigma == pytest.approx(1.0)
        assert dist.std() == pytest.approx(1.0)

    def test_normal_sampling_statistics(self):
        rng = np.random.default_rng(0)
        samples = NormalDistribution(mu=2.0, sigma=0.5).sample(rng, size=5000)
        assert np.mean(samples) == pytest.approx(2.0, abs=0.05)
        assert np.std(samples) == pytest.approx(0.5, rel=0.1)

    def test_zero_sigma_normal_is_deterministic(self):
        rng = np.random.default_rng(0)
        assert NormalDistribution(mu=1.0, sigma=0.0).sample(rng) == 1.0

    def test_truncated_normal_respects_bounds(self):
        rng = np.random.default_rng(1)
        dist = TruncatedNormalDistribution(mu=0.0, sigma=1.0, n_sigma=2.0)
        samples = dist.sample(rng, size=3000)
        assert np.max(np.abs(samples)) <= 2.0 + 1e-12

    def test_truncated_normal_std_below_untruncated(self):
        assert TruncatedNormalDistribution(sigma=1.0, n_sigma=3.0).std() < 1.0

    def test_corner_distribution_two_points(self):
        rng = np.random.default_rng(2)
        samples = CornerDistribution(excursion=3.0).sample(rng, size=100)
        assert set(np.unique(samples)) <= {-3.0, 3.0}
        assert CornerDistribution(excursion=3.0).std() == 3.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DistributionError):
            NormalDistribution(sigma=-1.0)
        with pytest.raises(DistributionError):
            NormalDistribution.from_three_sigma(-3.0)
        with pytest.raises(DistributionError):
            TruncatedNormalDistribution(n_sigma=0.0)
        with pytest.raises(DistributionError):
            CornerDistribution(excursion=-1.0)


class TestLogPdf:
    def test_normal_closed_form(self):
        dist = NormalDistribution(mu=2.0, sigma=0.5)
        x = 2.7
        z = (x - 2.0) / 0.5
        expected = -0.5 * z * z - np.log(0.5) - 0.5 * np.log(2.0 * np.pi)
        assert dist.logpdf(x) == pytest.approx(expected, rel=1e-12)

    def test_normal_standard_at_origin(self):
        # The standard normal's density peak: 1/sqrt(2*pi).
        assert NormalDistribution().logpdf(0.0) == pytest.approx(
            -0.5 * np.log(2.0 * np.pi), rel=1e-12
        )

    def test_scalar_in_scalar_out_array_in_array_out(self):
        dist = NormalDistribution(sigma=1.0)
        assert isinstance(dist.logpdf(0.5), float)
        out = dist.logpdf(np.array([0.0, 1.0, 2.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_degenerate_normal_has_no_density(self):
        with pytest.raises(DistributionError):
            NormalDistribution(sigma=0.0).logpdf(0.0)

    def test_truncated_renormalisation(self):
        # Inside the support the truncated density is the parent normal's
        # divided by the kept mass erf(a/sqrt(2)).
        import math

        dist = TruncatedNormalDistribution(mu=1.0, sigma=2.0, n_sigma=3.0)
        parent = NormalDistribution(mu=1.0, sigma=2.0)
        log_mass = math.log(math.erf(3.0 / math.sqrt(2.0)))
        for x in (1.0, -3.0, 6.9):
            assert dist.logpdf(x) == pytest.approx(
                parent.logpdf(x) - log_mass, rel=1e-12
            )

    def test_truncated_zero_outside_support(self):
        dist = TruncatedNormalDistribution(mu=0.0, sigma=1.0, n_sigma=2.0)
        assert dist.logpdf(2.5) == -np.inf
        assert dist.logpdf(-2.5) == -np.inf
        assert np.isfinite(dist.logpdf(1.999))

    def test_truncated_density_integrates_to_one(self):
        dist = TruncatedNormalDistribution(mu=0.0, sigma=1.0, n_sigma=3.0)
        grid = np.linspace(-3.0, 3.0, 20001)
        total = np.trapezoid(np.exp(dist.logpdf(grid)), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_corner_log_mass(self):
        dist = CornerDistribution(excursion=3.0, mu=1.0)
        assert dist.logpdf(4.0) == pytest.approx(np.log(0.5))
        assert dist.logpdf(-2.0) == pytest.approx(np.log(0.5))
        assert dist.logpdf(0.0) == -np.inf

    def test_corner_tolerates_round_off(self):
        dist = CornerDistribution(excursion=3.0)
        assert np.isfinite(dist.logpdf(3.0 * (1.0 + 1e-12)))


class TestShifted:
    def test_normal_shift_keeps_spread(self):
        dist = NormalDistribution(mu=2.0, sigma=0.5).shifted(7.0)
        assert dist.mean() == 7.0
        assert dist.std() == 0.5

    def test_truncated_shift_moves_support(self):
        rng = np.random.default_rng(7)
        dist = TruncatedNormalDistribution(mu=0.0, sigma=1.0, n_sigma=2.0).shifted(10.0)
        samples = dist.sample(rng, size=2000)
        assert np.max(np.abs(samples - 10.0)) <= 2.0 + 1e-12
        assert dist.n_sigma == 2.0

    def test_corner_shift_moves_both_points(self):
        rng = np.random.default_rng(8)
        dist = CornerDistribution(excursion=3.0).shifted(5.0)
        samples = dist.sample(rng, size=100)
        assert set(np.unique(samples)) <= {2.0, 8.0}

    def test_shift_preserves_density_shape(self):
        # logpdf at mu + delta is invariant under the shift.
        base = NormalDistribution(mu=0.0, sigma=1.3)
        moved = base.shifted(4.0)
        assert moved.logpdf(4.0 + 0.7) == pytest.approx(base.logpdf(0.7), rel=1e-12)


class TestStatistics:
    def test_summary_statistics(self):
        summary = SummaryStatistics.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == pytest.approx(3.0)
        assert summary.median == pytest.approx(3.0)
        assert summary.count == 5
        assert summary.minimum == 1.0 and summary.maximum == 5.0
        assert summary.spread == 4.0

    def test_std_is_sample_std(self):
        assert standard_deviation([1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_three_sigma_interval(self):
        summary = SummaryStatistics.from_samples([0.0, 1.0, 2.0])
        low, high = summary.three_sigma_interval()
        assert low < summary.mean < high

    def test_empty_samples_rejected(self):
        with pytest.raises(StatisticsError):
            SummaryStatistics.from_samples([])

    def test_tail_percentiles_on_small_samples(self):
        # With fewer than 100 samples the 1st/99th percentiles interpolate
        # between order statistics and stay inside the sampled range.
        summary = SummaryStatistics.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.minimum <= summary.percentile_1 <= summary.percentile_99 <= summary.maximum
        assert summary.percentile_1 == pytest.approx(np.percentile([1, 2, 3, 4, 5], 1.0))
        assert summary.percentile_99 == pytest.approx(np.percentile([1, 2, 3, 4, 5], 99.0))

    def test_tail_percentiles_single_sample(self):
        summary = SummaryStatistics.from_samples([7.0])
        assert summary.percentile_1 == 7.0
        assert summary.percentile_99 == 7.0
        assert summary.std == 0.0

    def test_tail_percentiles_bracket_bulk(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(0.0, 1.0, size=41).tolist()
        summary = SummaryStatistics.from_samples(samples)
        assert summary.percentile_1 < summary.median < summary.percentile_99

    def test_non_finite_samples_rejected(self):
        with pytest.raises(StatisticsError):
            SummaryStatistics.from_samples([1.0, float("nan")])

    def test_histogram_totals(self):
        histogram = Histogram.from_samples([1.0, 1.1, 2.0, 3.0], bins=4)
        assert sum(histogram.counts) == 4
        assert histogram.total == 4
        assert len(histogram.bin_centers) == 4
        assert sum(histogram.densities) == pytest.approx(1.0)

    def test_histogram_mode(self):
        samples = [0.0] * 10 + [5.0]
        histogram = Histogram.from_samples(samples, bins=5)
        assert histogram.mode_bin_center() < 2.0

    def test_histogram_ascii_rows(self):
        rows = Histogram.from_samples([1.0, 2.0, 3.0], bins=3).ascii_rows(width=10)
        assert len(rows) == 3
        assert all("|" in row for row in rows)

    def test_correlation_perfectly_linear(self):
        assert correlation([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert correlation([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_correlation_validation(self):
        with pytest.raises(StatisticsError):
            correlation([1.0], [1.0])
        with pytest.raises(StatisticsError):
            correlation([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(StatisticsError):
            correlation([1.0, 1.0], [1.0, 2.0])


class TestDOE:
    def test_paper_doe_grid(self):
        doe = paper_doe()
        assert doe.array_sizes == (16, 64, 256, 1024)
        assert doe.option_names == ("LELELE", "SADP", "EUV")
        assert doe.n_bitline_pairs == 10
        assert len(doe.worst_case_points()) == 12

    def test_monte_carlo_points_sweep_overlay_for_le3_only(self):
        points = paper_doe().monte_carlo_points()
        le3_points = [p for p in points if p.option_name == "LELELE"]
        sadp_points = [p for p in points if p.option_name == "SADP"]
        assert len(le3_points) == 4
        assert len(sadp_points) == 1
        assert {p.overlay_three_sigma_nm for p in le3_points} == {3.0, 5.0, 7.0, 8.0}
        assert sadp_points[0].overlay_three_sigma_nm is None

    def test_point_labels(self):
        point = DOEPoint(n_wordlines=64, option_name="LELELE", overlay_three_sigma_nm=8.0)
        assert point.array_label == "10x64"
        assert "OL8nm" in point.label

    def test_reduced_doe_caps_sizes(self):
        assert reduced_doe(max_wordlines=64).array_sizes == (16, 64)

    def test_iteration_yields_worst_case_points(self):
        assert len(list(paper_doe())) == 12

    def test_validation(self):
        with pytest.raises(DOEError):
            StudyDOE(array_sizes=())
        with pytest.raises(DOEError):
            StudyDOE(array_sizes=(0,))
        with pytest.raises(DOEError):
            StudyDOE(overlay_budgets_nm=(0.0,))
        with pytest.raises(DOEError):
            paper_doe().monte_carlo_points(n_wordlines=0)
