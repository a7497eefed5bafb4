"""Tests of Monte-Carlo parameter sampling and corner enumeration."""

import numpy as np
import pytest

from repro.patterning import euv, le3, sadp
from repro.patterning.base import PatterningError
from repro.patterning.sampler import ParameterSampler, enumerate_worst_case_corners


class TestParameterSampler:
    def test_parameter_names_match_option(self, node):
        sampler = ParameterSampler(le3(), node.variations, seed=1)
        assert sampler.parameter_names == ["cd:A", "cd:B", "cd:C", "ol:B", "ol:C"]

    def test_seeded_draws_are_reproducible(self, node):
        first = ParameterSampler(le3(), node.variations, seed=42).draw_batch(10)
        second = ParameterSampler(le3(), node.variations, seed=42).draw_batch(10)
        assert first.parameter_names == second.parameter_names
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_different_seeds_differ(self, node):
        a = ParameterSampler(le3(), node.variations, seed=1).draw_batch(1)
        b = ParameterSampler(le3(), node.variations, seed=2).draw_batch(1)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_sample_statistics_match_budgets(self, node):
        sampler = ParameterSampler(le3(), node.variations, seed=7)
        matrix = sampler.draw_batch(4000).matrix
        names = sampler.parameter_names
        overlay_column = matrix[:, names.index("ol:B")]
        cd_column = matrix[:, names.index("cd:A")]
        assert np.std(overlay_column) == pytest.approx(8.0 / 3.0, rel=0.1)
        assert np.std(cd_column) == pytest.approx(1.0, rel=0.1)
        assert abs(np.mean(overlay_column)) < 0.2

    def test_truncation_limits_samples(self, node):
        sampler = ParameterSampler(
            le3(), node.variations, seed=3, truncate_at_three_sigma=True
        )
        matrix = sampler.draw_batch(2000).matrix
        names = sampler.parameter_names
        overlay = matrix[:, names.index("ol:C")]
        assert np.max(np.abs(overlay)) <= 8.0 + 1e-12

    def test_sadp_and_euv_samplers(self, node):
        assert ParameterSampler(sadp(), node.variations, seed=1).parameter_names == [
            "cd:core",
            "spacer",
        ]
        assert ParameterSampler(euv(), node.variations, seed=1).parameter_names == ["cd:euv"]

    def test_draw_batch_rejects_nonpositive_count(self, node):
        with pytest.raises(PatterningError):
            ParameterSampler(le3(), node.variations, seed=1).draw_batch(0)


class TestWorstCaseCorners:
    def test_le3_has_32_corners(self, node):
        corners = enumerate_worst_case_corners(le3(), node.variations)
        assert len(corners) == 2**5

    def test_sadp_has_4_corners(self, node):
        assert len(enumerate_worst_case_corners(sadp(), node.variations)) == 4

    def test_euv_has_2_corners(self, node):
        assert len(enumerate_worst_case_corners(euv(), node.variations)) == 2

    def test_corner_values_match_budgets(self, node):
        corners = enumerate_worst_case_corners(euv(), node.variations)
        values = sorted(corner.as_dict()["cd:euv"] for corner in corners)
        assert values == [-3.0, 3.0]

    def test_include_nominal_adds_centre_point(self, node):
        corners = enumerate_worst_case_corners(euv(), node.variations, include_nominal=True)
        assert len(corners) == 3
        assert any(corner.as_dict()["cd:euv"] == 0.0 for corner in corners)

    def test_paper_worst_corner_is_among_le3_corners(self, node):
        corners = enumerate_worst_case_corners(le3(), node.variations)
        target = {"cd:A": 3.0, "cd:B": 3.0, "cd:C": 3.0, "ol:B": -8.0, "ol:C": 8.0}
        assert any(corner.as_dict() == target for corner in corners)
