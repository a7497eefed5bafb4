"""Tests of the LE3 / SADP / EUV patterning options."""

import pytest

from repro.layout.wire import NetRole, uniform_track_pattern
from repro.patterning import (
    CORE_MASK,
    EUV_MASK,
    PAPER_OPTIONS,
    SPACER_MASK,
    create_option,
    default_registry,
    euv,
    le2,
    le3,
    paper_options,
    sadp,
)
from repro.patterning.base import PatterningError
from tests.conftest import EUV_WORST_CORNER, LE3_WORST_CORNER, SADP_WORST_CORNER


def cell_like_pattern():
    """A VSS | BL | VDD | BLB stack like the SRAM cell cross-section."""
    return uniform_track_pattern(
        nets=["VSS", "BL", "VDD", "BLB"],
        pitch_nm=48.0,
        width_nm=24.0,
        wire_length_nm=1000.0,
        roles=[NetRole.VSS, NetRole.BITLINE, NetRole.VDD, NetRole.BITLINE_BAR],
    )


class TestRegistry:
    def test_paper_options_registered(self):
        for name in PAPER_OPTIONS:
            assert name in default_registry

    def test_create_by_name(self):
        assert create_option("LELELE").name == "LELELE"
        assert create_option("sadp").name == "SADP"
        assert create_option("EUV").name == "EUV"

    def test_le3_alias(self):
        assert create_option("LE3").name == "LELELE"

    def test_unknown_option_rejected(self):
        with pytest.raises(PatterningError):
            create_option("SAQP")

    def test_paper_options_constructs_three(self):
        options = paper_options()
        assert [option.name for option in options] == ["LELELE", "SADP", "EUV"]


class TestLithoEtch:
    def test_names(self):
        assert le3().name == "LELELE"
        assert le2().name == "LELE"

    def test_decompose_assigns_cyclic_masks(self):
        decomposed = le3().decompose(cell_like_pattern())
        assert [track.mask for track in decomposed] == ["A", "B", "C", "A"]

    def test_parameter_specs_include_cd_and_overlay(self, node):
        specs = le3().parameter_specs(node.variations)
        assert set(specs) == {"cd:A", "cd:B", "cd:C", "ol:B", "ol:C"}
        assert specs["ol:B"].three_sigma_nm == pytest.approx(8.0)

    def test_nominal_apply_is_identity(self):
        pattern = cell_like_pattern()
        result = le3().nominal_result(pattern)
        assert result.printed.spaces() == pytest.approx(pattern.spaces())
        assert [t.width_nm for t in result.printed] == pytest.approx(
            [t.width_nm for t in pattern]
        )

    def test_cd_error_widens_only_that_mask(self):
        result = le3().apply(cell_like_pattern(), {"cd:B": 3.0})
        assert result.width_change_nm("BL") == pytest.approx(3.0)      # BL is on mask B
        assert result.width_change_nm("VSS") == pytest.approx(0.0)
        assert result.width_change_nm("VDD") == pytest.approx(0.0)

    def test_overlay_shifts_whole_mask_without_width_change(self):
        result = le3().apply(cell_like_pattern(), {"ol:B": -5.0})
        assert result.center_shift_nm("BL") == pytest.approx(-5.0)
        assert result.width_change_nm("BL") == pytest.approx(0.0)
        assert result.center_shift_nm("VSS") == pytest.approx(0.0)

    def test_reference_mask_has_no_overlay_parameter(self, node):
        assert "ol:A" not in le3().parameter_specs(node.variations)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(PatterningError):
            le3().apply(cell_like_pattern(), {"cd:D": 1.0})

    def test_worst_corner_squeezes_spaces_around_victim(self):
        pattern = cell_like_pattern()
        # BL sits on mask B here (track index 1): push A (left neighbour VSS)
        # and C (right neighbour VDD) towards it and widen everything.
        result = le3().apply(
            pattern, {"cd:A": 3.0, "cd:B": 3.0, "cd:C": 3.0, "ol:C": -8.0}
        )
        spaces = result.printed.spaces()
        nominal = pattern.spaces()
        assert spaces[1] < nominal[1]  # BL-VDD gap shrinks (C moved towards B)

    def test_chained_alignment_accumulates_shifts(self):
        pattern = cell_like_pattern()
        aligned = le3().apply(pattern, {"ol:B": 2.0, "ol:C": 2.0}, aligned_to_first=True)
        chained = le3().apply(pattern, {"ol:B": 2.0, "ol:C": 2.0}, aligned_to_first=False)
        # With chained alignment mask C inherits B's shift as well.
        assert chained.center_shift_nm("VDD") == pytest.approx(4.0)
        assert aligned.center_shift_nm("VDD") == pytest.approx(2.0)

    def test_graph_coloring_mode_requires_space_limit(self):
        option = le3(use_graph_coloring=True)
        with pytest.raises(PatterningError):
            option.decompose(cell_like_pattern())

    def test_graph_coloring_mode_decomposes_legally(self):
        pytest.importorskip("networkx")
        option = le3(use_graph_coloring=True, same_mask_min_space_nm=80.0)
        decomposed = option.decompose(cell_like_pattern())
        masks = [track.mask for track in decomposed]
        assert None not in masks


class TestSADP:
    def test_decompose_alternates_core_and_spacer(self):
        decomposed = sadp().decompose(cell_like_pattern())
        assert [track.mask for track in decomposed] == [
            CORE_MASK, SPACER_MASK, CORE_MASK, SPACER_MASK,
        ]

    def test_bitlines_are_spacer_defined_by_default(self):
        decomposed = sadp().decompose(cell_like_pattern())
        assert decomposed.track_for("BL").mask == SPACER_MASK
        assert decomposed.track_for("VSS").mask == CORE_MASK

    def test_mandrel_bitline_ablation_swaps_assignment(self):
        decomposed = sadp(bitlines_spacer_defined=False).decompose(cell_like_pattern())
        assert decomposed.track_for("BL").mask == CORE_MASK

    def test_parameter_specs(self, node):
        specs = sadp().parameter_specs(node.variations)
        assert set(specs) == {"cd:core", "spacer"}
        assert specs["spacer"].three_sigma_nm == pytest.approx(1.5)

    def test_nominal_apply_is_identity(self):
        pattern = cell_like_pattern()
        result = sadp().nominal_result(pattern)
        assert [t.width_nm for t in result.printed] == pytest.approx(
            [t.width_nm for t in pattern]
        )
        assert result.printed.spaces() == pytest.approx(pattern.spaces())

    def test_core_shrink_widens_spacer_defined_lines(self):
        result = sadp().apply(cell_like_pattern(), {"cd:core": -3.0})
        assert result.width_change_nm("VSS") == pytest.approx(-3.0)
        assert result.width_change_nm("BL") > 0.0

    def test_spacer_thickness_sets_the_gaps(self):
        result = sadp().apply(cell_like_pattern(), {"spacer": -1.5})
        spaces = result.printed.spaces()
        # The BL-VDD and VSS-BL gaps are spacer-defined and shrink by 1.5 nm.
        assert spaces[0] == pytest.approx(24.0 - 1.5)
        assert spaces[1] == pytest.approx(24.0 - 1.5)

    def test_self_alignment_keeps_gap_variation_small(self):
        """The SADP gap change never exceeds the spacer budget (self-aligned)."""
        result = sadp().apply(cell_like_pattern(), SADP_WORST_CORNER)
        for change in result.space_changes_nm():
            assert abs(change) <= 1.5 + 1e-9

    def test_pinch_off_raises(self):
        with pytest.raises(PatterningError):
            sadp().apply(cell_like_pattern(), {"cd:core": 40.0, "spacer": 10.0})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(PatterningError):
            sadp().apply(cell_like_pattern(), {"cd:A": 1.0})


class TestEUV:
    def test_single_mask(self):
        decomposed = euv().decompose(cell_like_pattern())
        assert {track.mask for track in decomposed} == {EUV_MASK}

    def test_parameter_specs(self, node):
        specs = euv().parameter_specs(node.variations)
        assert set(specs) == {"cd:euv"}

    def test_uniform_cd_widens_all_lines_equally(self):
        result = euv().apply(cell_like_pattern(), EUV_WORST_CORNER)
        for net in ("VSS", "BL", "VDD", "BLB"):
            assert result.width_change_nm(net) == pytest.approx(3.0)

    def test_uniform_cd_shrinks_all_spaces_equally(self):
        result = euv().apply(cell_like_pattern(), {"cd:euv": 3.0})
        for change in result.space_changes_nm():
            assert change == pytest.approx(-3.0)

    def test_no_center_shifts(self):
        result = euv().apply(cell_like_pattern(), {"cd:euv": 3.0})
        for net in ("VSS", "BL", "VDD", "BLB"):
            assert result.center_shift_nm(net) == pytest.approx(0.0)


class TestWorstCornersAcrossOptions:
    def test_le3_worst_space_squeeze_exceeds_others(self, array64):
        """LE3's worst corner narrows the victim's gaps far more than SADP/EUV."""
        pattern = array64.metal1_pattern
        bl_net, _ = array64.central_pair_nets()

        def min_gap_around(result, net):
            index = result.printed.index_of(net)
            return min(
                result.printed.space_between(index - 1, index),
                result.printed.space_between(index, index + 1),
            )

        le3_gap = min_gap_around(le3().apply(pattern, LE3_WORST_CORNER), bl_net)
        sadp_gap = min_gap_around(sadp().apply(pattern, SADP_WORST_CORNER), bl_net)
        euv_gap = min_gap_around(euv().apply(pattern, EUV_WORST_CORNER), bl_net)
        assert le3_gap < euv_gap
        assert le3_gap < sadp_gap
