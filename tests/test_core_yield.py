"""Tests of the read-time yield / spec-compliance analysis."""

import math

import pytest
from scipy.stats import norm

from repro.core.montecarlo import MonteCarloTdpStudy
from repro.core.results import MonteCarloTdpRecord
from repro.core.yield_analysis import (
    ReadTimeYieldAnalysis,
    YieldAnalysisError,
    array_yield_from_column_probability,
    violation_probability,
)
from repro.variability.doe import StudyDOE
from repro.variability.statistics import Histogram, SummaryStatistics


def record_from_samples(samples, label="LELELE", overlay=8.0):
    return MonteCarloTdpRecord(
        option_name=label,
        overlay_three_sigma_nm=overlay,
        n_wordlines=64,
        n_samples=len(samples),
        tdp_percent_samples=tuple(samples),
        summary=SummaryStatistics.from_samples(samples),
        histogram=Histogram.from_samples(samples, bins=10),
    )


@pytest.fixture(scope="module")
def yield_analysis(node, analytical_model):
    study = MonteCarloTdpStudy(
        node,
        doe=StudyDOE(array_sizes=(64,), overlay_budgets_nm=(3.0, 8.0)),
        model=analytical_model,
        n_samples=200,
        seed=11,
    )
    return ReadTimeYieldAnalysis(study)


class TestViolationProbability:
    def test_empirical_fraction(self):
        record = record_from_samples([float(x) for x in range(-10, 10)])  # -10..9
        estimate = violation_probability(record, budget_percent=4.5)
        assert estimate.empirical_probability == pytest.approx(5 / 20)

    def test_gaussian_tail_used_below_resolution(self):
        # All samples well below the budget: empirical is 0, Gaussian gives a
        # tiny but nonzero tail that becomes the working estimate.
        record = record_from_samples([0.0, 0.5, -0.5, 0.2, -0.2] * 10)
        estimate = violation_probability(record, budget_percent=10.0)
        assert estimate.empirical_probability == 0.0
        assert 0.0 < estimate.gaussian_probability < 1e-3
        assert estimate.probability == estimate.gaussian_probability

    def test_empirical_preferred_when_resolvable(self):
        record = record_from_samples([0.0] * 50 + [20.0] * 50)
        estimate = violation_probability(record, budget_percent=10.0)
        assert estimate.probability == pytest.approx(0.5)

    def test_ppm_conversion(self):
        record = record_from_samples([0.0] * 95 + [20.0] * 5)
        estimate = violation_probability(record, budget_percent=10.0)
        assert estimate.probability == pytest.approx(0.05)
        assert estimate.parts_per_million == pytest.approx(50_000.0)

    @pytest.mark.parametrize("offset_sigma", (-10.0, -6.0, -3.0, -0.5, 0.0, 0.5, 3.0, 6.0, 10.0))
    def test_gaussian_tail_matches_norm_sf(self, offset_sigma):
        record = record_from_samples([50.0 + 0.37 * k + 0.011 * k * k for k in range(-12, 13)])
        mean, sigma = record.summary.mean, record.summary.std
        budget = mean + offset_sigma * sigma
        gaussian = violation_probability(record, budget_percent=budget).gaussian_probability
        expected = float(norm.sf(budget, loc=mean, scale=sigma))
        assert gaussian == expected
        assert math.copysign(1.0, gaussian) == math.copysign(1.0, expected)

    def test_zero_spread_gaussian_tail_is_a_step(self):
        record = record_from_samples([5.0] * 10)
        assert violation_probability(record, budget_percent=5.0).gaussian_probability == 0.0
        assert violation_probability(record, budget_percent=6.0).gaussian_probability == 0.0
        assert violation_probability(record, budget_percent=4.0).gaussian_probability == 1.0

    def test_budget_must_be_positive(self):
        record = record_from_samples([0.0, 1.0, 2.0])
        with pytest.raises(YieldAnalysisError):
            violation_probability(record, budget_percent=0.0)

    def test_method_labels_the_working_estimate(self):
        resolvable = violation_probability(
            record_from_samples([0.0] * 50 + [20.0] * 50), budget_percent=10.0
        )
        assert resolvable.method == "empirical"
        tail = violation_probability(
            record_from_samples([0.0, 0.5, -0.5, 0.2, -0.2] * 10), budget_percent=10.0
        )
        assert tail.method == "gaussian_tail"

    def test_beyond_sampled_range_flag(self):
        samples = [0.0, 0.5, -0.5, 0.2, -0.2] * 10
        beyond = violation_probability(record_from_samples(samples), budget_percent=10.0)
        assert beyond.method == "gaussian_tail"
        assert beyond.sample_max == pytest.approx(0.5)
        assert beyond.beyond_sampled_range

        # A budget inside the sampled range that the empirical fraction still
        # cannot resolve (only one sample above it) is interpolation, not
        # extrapolation.
        inside = violation_probability(
            record_from_samples([0.0] * 99 + [5.0]), budget_percent=4.0
        )
        assert inside.method == "gaussian_tail"
        assert not inside.beyond_sampled_range

        # The empirical estimate is never flagged.
        empirical = violation_probability(
            record_from_samples([0.0] * 50 + [20.0] * 50), budget_percent=10.0
        )
        assert not empirical.beyond_sampled_range

    def test_flag_reaches_record_and_text_table(self):
        from repro.core.yield_analysis import ComplianceRow
        from repro.reporting.tables import format_compliance

        estimate = violation_probability(
            record_from_samples([0.0, 0.5, -0.5, 0.2, -0.2] * 10), budget_percent=10.0
        )
        row = ComplianceRow(
            option_name="LELELE",
            overlay_three_sigma_nm=8.0,
            budget_percent=10.0,
            violation=estimate,
            column_yield=1.0 - estimate.probability,
            array_yield=1.0 - estimate.probability,
        )
        record = row.to_record()
        assert record["method"] == "gaussian_tail"
        assert record["beyond_sampled_range"] is True

        class _Requirement:
            achievable = False
            option_name = "LELELE"
            target_ppm = 100.0

        text = format_compliance([row], _Requirement())
        assert "gaussian_tail [extrapolated]" in text
        assert "beyond the largest" in text


class TestArrayYield:
    def test_perfect_columns_give_unit_yield(self):
        assert array_yield_from_column_probability(0.0, 128) == 1.0

    def test_independent_columns_multiply(self):
        assert array_yield_from_column_probability(0.01, 2) == pytest.approx(0.99**2)

    def test_words_multiply_exposure(self):
        assert array_yield_from_column_probability(0.01, 10, n_words=10) == pytest.approx(0.99**100)

    def test_validation(self):
        with pytest.raises(YieldAnalysisError):
            array_yield_from_column_probability(1.5, 10)
        with pytest.raises(YieldAnalysisError):
            array_yield_from_column_probability(0.1, 0)


class TestReadTimeYieldAnalysis:
    def test_compliance_table_covers_all_points(self, yield_analysis):
        rows = yield_analysis.compliance_table(budget_percent=10.0)
        labels = {row.label for row in rows}
        assert "SADP" in labels and "EUV" in labels
        assert any(label.startswith("LELELE") for label in labels)
        for row in rows:
            assert 0.0 <= row.violation.probability <= 1.0
            assert 0.0 <= row.array_yield <= row.column_yield <= 1.0

    def test_looser_budget_never_hurts_yield(self, yield_analysis):
        tight = {row.label: row.array_yield for row in yield_analysis.compliance_table(5.0)}
        loose = {row.label: row.array_yield for row in yield_analysis.compliance_table(15.0)}
        for label, tight_yield in tight.items():
            assert loose[label] >= tight_yield - 1e-12

    def test_le3_worse_than_sadp_at_same_budget(self, yield_analysis):
        rows = {row.label: row for row in yield_analysis.compliance_table(6.0)}
        assert rows["LELELE 8nm OL"].violation.probability >= rows["SADP"].violation.probability

    def test_overlay_requirement_monotone_in_target(self, yield_analysis):
        strict = yield_analysis.required_overlay_for_target(budget_percent=6.0, target_ppm=1.0)
        relaxed = yield_analysis.required_overlay_for_target(budget_percent=6.0, target_ppm=1e5)
        if strict.achievable and relaxed.achievable:
            assert relaxed.required_overlay_nm >= strict.required_overlay_nm
        assert set(strict.achieved_ppm_by_overlay) == {3.0, 8.0}

    def test_overlay_requirement_unachievable_for_impossible_target(self, yield_analysis):
        requirement = yield_analysis.required_overlay_for_target(
            budget_percent=0.001, target_ppm=1e-6
        )
        assert not requirement.achievable

    def test_budget_sweep_monotone(self, yield_analysis):
        pairs = yield_analysis.budget_sweep(
            budgets_percent=(2.0, 5.0, 10.0), option_name="SADP"
        )
        probabilities = [probability for _budget, probability in pairs]
        assert all(later <= earlier for earlier, later in zip(probabilities, probabilities[1:]))

    def test_budget_sweep_requires_budgets(self, yield_analysis):
        with pytest.raises(YieldAnalysisError):
            yield_analysis.budget_sweep(budgets_percent=(), option_name="SADP")

    def test_ppm_target_validation(self, yield_analysis):
        with pytest.raises(YieldAnalysisError):
            yield_analysis.required_overlay_for_target(budget_percent=10.0, target_ppm=0.0)

    def test_record_caching(self, yield_analysis):
        yield_analysis.compliance_table(budget_percent=10.0)
        first = dict(yield_analysis._record_cache)
        yield_analysis.compliance_table(budget_percent=12.0)
        for label, record in first.items():
            assert yield_analysis._record_cache[label] is record
