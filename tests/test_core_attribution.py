"""Tests of the variance-attribution extension."""

import numpy as np
import pytest

from repro.core.attribution import (
    AttributionError,
    VarianceAttribution,
    attribute_from_variations,
)
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.extraction.lpe import BatchRCVariation
from repro.variability.doe import DOEPoint, StudyDOE


def synthetic_variations(count=200, c_slope=0.02, r_slope=0.0, seed=5):
    """Variations whose Cvar depends only on parameter 'x' (linear)."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((count, 2))
    x, y = matrix[:, 0], matrix[:, 1]
    return BatchRCVariation(
        net="BL",
        option_name="TEST",
        rvar=1.0 + r_slope * y,
        cvar=1.0 + c_slope * x,
        parameter_names=("x", "y"),
        parameter_matrix=matrix,
    )


@pytest.fixture(scope="module")
def study(node, analytical_model):
    return MonteCarloTdpStudy(
        node,
        doe=StudyDOE(array_sizes=(64,), overlay_budgets_nm=(3.0, 8.0)),
        model=analytical_model,
        n_samples=250,
        seed=17,
    )


@pytest.fixture(scope="module")
def attribution(study):
    return VarianceAttribution(study)


class TestAttributeFromVariations:
    def test_single_driver_takes_all_variance(self, analytical_model):
        result = attribute_from_variations(
            synthetic_variations(), analytical_model, n_wordlines=64, option_name="TEST"
        )
        assert result.dominant_parameter() == "x"
        assert result.share_of("x") > 0.95
        assert result.share_of("y") < 0.05

    def test_explained_fraction_close_to_one_for_additive_response(self, analytical_model):
        result = attribute_from_variations(
            synthetic_variations(), analytical_model, n_wordlines=64, option_name="TEST"
        )
        assert result.explained_fraction == pytest.approx(1.0, abs=0.1)

    def test_contributions_sorted_descending(self, analytical_model):
        result = attribute_from_variations(
            synthetic_variations(), analytical_model, n_wordlines=64, option_name="TEST"
        )
        shares = [contribution.variance_share for contribution in result.contributions]
        assert shares == sorted(shares, reverse=True)

    def test_unknown_parameter_lookup_raises(self, analytical_model):
        result = attribute_from_variations(
            synthetic_variations(), analytical_model, n_wordlines=64, option_name="TEST"
        )
        with pytest.raises(AttributionError):
            result.share_of("nonexistent")

    def test_too_few_samples_rejected(self, analytical_model):
        with pytest.raises(AttributionError):
            attribute_from_variations(
                synthetic_variations(count=5), analytical_model, n_wordlines=64, option_name="TEST"
            )


class TestVarianceAttributionOnStudy:
    def test_le3_overlay_dominates_at_loose_budget(self, attribution):
        result = attribution.attribute(
            DOEPoint(n_wordlines=64, option_name="LELELE", overlay_three_sigma_nm=8.0)
        )
        overlay_share = result.grouped_share("ol:")
        cd_share = result.grouped_share("cd:")
        assert overlay_share > cd_share
        assert result.dominant_parameter().startswith("ol:")
        assert result.total_sigma_percent > 0.0

    def test_overlay_share_shrinks_with_tighter_budget(self, attribution):
        split = attribution.overlay_versus_cd(n_wordlines=64)
        overlay_loose, _cd_loose = split[8.0]
        overlay_tight, _cd_tight = split[3.0]
        assert overlay_tight < overlay_loose

    def test_sadp_attribution_covers_core_and_spacer(self, attribution):
        result = attribution.attribute(DOEPoint(n_wordlines=64, option_name="SADP"))
        parameters = {contribution.parameter for contribution in result.contributions}
        assert parameters == {"cd:core", "spacer"}
        assert 0.0 <= result.explained_fraction <= 1.5

    def test_euv_single_parameter_explains_everything(self, attribution):
        result = attribution.attribute(DOEPoint(n_wordlines=64, option_name="EUV"))
        assert result.dominant_parameter() == "cd:euv"
        assert result.share_of("cd:euv") > 0.9

    def test_total_sigma_is_the_table4_sigma(self, study, attribution):
        """Attribution runs on the seeded draw Table IV reports, bit for bit."""
        points = study.doe.monte_carlo_points(n_wordlines=64)
        rows = study.table4(n_wordlines=64)
        assert len(rows) == len(points) == 4
        for point, row in zip(points, rows):
            result = attribution.attribute(point)
            assert result.total_sigma_percent == row.sigma_percent, point.label
