"""Tests of mask decomposition (cyclic and graph colouring)."""

import sys

import pytest

from repro.layout.wire import NetRole, uniform_track_pattern
from repro.patterning import le3
from repro.patterning.base import PatterningError
from repro.patterning.decomposition import (
    DecompositionReport,
    apply_assignment,
    build_conflict_graph,
    cyclic_assignment,
    graph_coloring_assignment,
    mask_labels,
    verify_assignment,
)


def dense_pattern(n_tracks=6, pitch=48.0, width=24.0):
    return uniform_track_pattern(
        nets=[f"N{i}" for i in range(n_tracks)],
        pitch_nm=pitch,
        width_nm=width,
        wire_length_nm=1000.0,
    )


@pytest.fixture
def networkx():
    """Graph colouring needs the optional networkx dependency."""
    return pytest.importorskip("networkx")


class TestMaskLabels:
    def test_three_masks(self):
        assert mask_labels(3) == ("A", "B", "C")

    def test_many_masks_fall_back_to_numbered(self):
        labels = mask_labels(6)
        assert len(labels) == 6
        assert labels[0] == "M0"

    def test_zero_masks_rejected(self):
        with pytest.raises(PatterningError):
            mask_labels(0)


class TestCyclicAssignment:
    def test_three_mask_cycle(self):
        assignment = cyclic_assignment(dense_pattern(6), 3)
        assert assignment["N0"] == "A"
        assert assignment["N1"] == "B"
        assert assignment["N2"] == "C"
        assert assignment["N3"] == "A"

    def test_neighbours_never_share_a_mask_for_k_ge_2(self):
        for n_masks in (2, 3):
            assignment = cyclic_assignment(dense_pattern(8), n_masks)
            nets = [f"N{i}" for i in range(8)]
            for left, right in zip(nets, nets[1:]):
                assert assignment[left] != assignment[right]

    def test_same_mask_pitch_is_multiplied(self):
        pattern = dense_pattern(6)
        assignment = cyclic_assignment(pattern, 3)
        report = DecompositionReport.from_pattern(pattern, assignment, 3)
        # Same-mask neighbours are 3 pitches apart: space = 3*48 - 24.
        assert report.min_same_mask_space_nm == pytest.approx(3 * 48.0 - 24.0)


@pytest.mark.usefixtures("networkx")
class TestConflictGraph:
    def test_adjacent_tracks_conflict(self):
        graph = build_conflict_graph(dense_pattern(4), same_mask_min_space_nm=40.0)
        assert graph.has_edge("N0", "N1")
        assert not graph.has_edge("N0", "N2")

    def test_wide_limit_creates_more_conflicts(self):
        graph = build_conflict_graph(dense_pattern(4), same_mask_min_space_nm=80.0)
        assert graph.has_edge("N0", "N2")

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(PatterningError):
            build_conflict_graph(dense_pattern(4), same_mask_min_space_nm=0.0)


@pytest.mark.usefixtures("networkx")
class TestGraphColoring:
    def test_two_colorable_with_adjacent_conflicts_only(self):
        assignment = graph_coloring_assignment(
            dense_pattern(6), n_masks=2, same_mask_min_space_nm=40.0
        )
        assert set(assignment.values()) <= {"A", "B"}
        assert not verify_assignment(dense_pattern(6), assignment, 40.0)

    def test_three_masks_needed_when_second_neighbours_conflict(self):
        pattern = dense_pattern(6)
        with pytest.raises(PatterningError):
            graph_coloring_assignment(pattern, n_masks=2, same_mask_min_space_nm=80.0)
        assignment = graph_coloring_assignment(pattern, n_masks=3, same_mask_min_space_nm=80.0)
        assert len(set(assignment.values())) == 3
        assert not verify_assignment(pattern, assignment, 80.0)

    def test_leftmost_track_gets_mask_a(self):
        assignment = graph_coloring_assignment(
            dense_pattern(6), n_masks=3, same_mask_min_space_nm=80.0
        )
        assert assignment["N0"] == "A"


class TestWithoutNetworkx:
    def test_cyclic_decomposition_needs_no_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        pattern = dense_pattern(6)
        decomposed = le3().decompose(pattern)
        assert [track.mask for track in decomposed] == ["A", "B", "C"] * 2
        with pytest.raises(ImportError):
            graph_coloring_assignment(pattern, n_masks=3, same_mask_min_space_nm=80.0)


class TestVerifyAndApply:
    def test_verify_detects_violation(self):
        pattern = dense_pattern(3)
        bad_assignment = {"N0": "A", "N1": "A", "N2": "B"}
        violations = verify_assignment(pattern, bad_assignment, same_mask_min_space_nm=40.0)
        assert ("N0", "N1", pytest.approx(24.0)) in [
            (a, b, pytest.approx(space)) for a, b, space in violations
        ]

    def test_apply_assignment_sets_masks(self):
        pattern = dense_pattern(3)
        assignment = cyclic_assignment(pattern, 3)
        decomposed = apply_assignment(pattern, assignment)
        assert [track.mask for track in decomposed] == ["A", "B", "C"]

    def test_apply_assignment_rejects_missing_nets(self):
        pattern = dense_pattern(3)
        with pytest.raises(PatterningError):
            apply_assignment(pattern, {"N0": "A"})

    def test_report_tracks_per_mask(self):
        pattern = dense_pattern(6)
        assignment = cyclic_assignment(pattern, 3)
        report = DecompositionReport.from_pattern(pattern, assignment, 3)
        assert report.tracks_per_mask == {"A": 2, "B": 2, "C": 2}
