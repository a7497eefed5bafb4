"""Tests of the cross-section extractor and the parameterized LPE driver."""

import pytest

from repro.extraction.field import CrossSectionExtractor, ExtractionError
from repro.extraction.lpe import ParameterizedLPE, RCVariation
from repro.layout.wire import NetRole, Track, uniform_track_pattern
from repro.patterning import euv, le3, sadp
from tests.conftest import EUV_WORST_CORNER, LE3_WORST_CORNER, SADP_WORST_CORNER


class TestCrossSectionExtractor:
    def test_extracts_every_net(self, node, array64):
        extractor = CrossSectionExtractor(node.bitline_metal)
        result = extractor.extract(array64.metal1_pattern)
        assert len(result) == len(array64.metal1_pattern)
        assert set(result.nets) == set(array64.metal1_pattern.nets)

    def test_edge_tracks_have_less_coupling_than_central(self, node, array64):
        extractor = CrossSectionExtractor(node.bitline_metal)
        result = extractor.extract(array64.metal1_pattern)
        first_net = array64.metal1_pattern.nets[0]
        central_net, _ = array64.central_pair_nets()
        assert (
            result[first_net].capacitance_per_nm.coupling_total
            < result[central_net].capacitance_per_nm.coupling_total
        )

    def test_totals_scale_with_wire_length(self, node):
        pattern = uniform_track_pattern(["A", "B", "C"], 48.0, 24.0, 1000.0)
        extractor = CrossSectionExtractor(node.bitline_metal)
        short = extractor.extract(pattern)
        long = extractor.extract(pattern.with_wire_length(2000.0))
        assert long["B"].capacitance_total_f == pytest.approx(2.0 * short["B"].capacitance_total_f)
        assert long["B"].resistance_total_ohm == pytest.approx(2.0 * short["B"].resistance_total_ohm)

    def test_unknown_net_lookup_raises(self, node, array64):
        extractor = CrossSectionExtractor(node.bitline_metal)
        result = extractor.extract(array64.metal1_pattern)
        with pytest.raises(ExtractionError):
            result["NOPE"]

    def test_role_filter(self, node, array64):
        extractor = CrossSectionExtractor(node.bitline_metal)
        result = extractor.extract(array64.metal1_pattern)
        bitlines = result.nets_with_role(NetRole.BITLINE)
        assert len(bitlines) == array64.n_bitline_pairs

    def test_thickness_delta_changes_resistance(self, node, array64):
        thin = CrossSectionExtractor(node.bitline_metal, thickness_delta_nm=-4.0)
        thick = CrossSectionExtractor(node.bitline_metal, thickness_delta_nm=+4.0)
        net, _ = array64.central_pair_nets()
        r_thin = thin.extract(array64.metal1_pattern)[net].resistance_per_nm
        r_thick = thick.extract(array64.metal1_pattern)[net].resistance_per_nm
        assert r_thin > r_thick

    def test_per_cell_helper(self, node, array64):
        extractor = CrossSectionExtractor(node.bitline_metal)
        net, _ = array64.central_pair_nets()
        parasitics = extractor.extract(array64.metal1_pattern)[net]
        per_cell = parasitics.per_cell(240.0)
        assert per_cell.length_nm == 240.0
        assert per_cell.resistance_total_ohm == pytest.approx(parasitics.resistance_per_nm * 240.0)


class TestParameterizedLPE:
    def test_nominal_variation_is_identity(self, lpe, array64, le3_option):
        net, _ = array64.central_pair_nets()
        variation = lpe.rc_variation(array64.metal1_pattern, le3_option, {}, net)
        assert variation.rvar == pytest.approx(1.0, abs=1e-9)
        assert variation.cvar == pytest.approx(1.0, abs=1e-9)

    def test_le3_worst_corner_dominates_cbl(self, lpe, array64):
        net, _ = array64.central_pair_nets()
        le3_var = lpe.rc_variation(array64.metal1_pattern, le3(), LE3_WORST_CORNER, net)
        sadp_var = lpe.rc_variation(array64.metal1_pattern, sadp(), SADP_WORST_CORNER, net)
        euv_var = lpe.rc_variation(array64.metal1_pattern, euv(), EUV_WORST_CORNER, net)
        # Paper Table I ordering: LE3 >> EUV >= SADP for delta-Cbl.
        assert le3_var.delta_c_percent > 3.0 * euv_var.delta_c_percent
        assert le3_var.delta_c_percent > 3.0 * sadp_var.delta_c_percent
        assert le3_var.delta_c_percent > 30.0

    def test_sadp_resistance_drop_exceeds_others(self, lpe, array64):
        net, _ = array64.central_pair_nets()
        le3_var = lpe.rc_variation(array64.metal1_pattern, le3(), LE3_WORST_CORNER, net)
        sadp_var = lpe.rc_variation(array64.metal1_pattern, sadp(), SADP_WORST_CORNER, net)
        assert sadp_var.delta_r_percent < le3_var.delta_r_percent < 0.0

    def test_sadp_vss_anticorrelation(self, lpe, array64):
        """SADP's worst corner lowers Rbl but raises the VSS-rail resistance."""
        bl_net, _ = array64.central_pair_nets()
        column = array64.n_bitline_pairs // 2
        vss_net = f"VSS@{column}"
        extraction = lpe.extract_with_patterning(
            array64.metal1_pattern, sadp(), SADP_WORST_CORNER
        )
        assert extraction.variation_for(bl_net).delta_r_percent < 0.0
        assert extraction.variation_for(vss_net).delta_r_percent > 0.0

    def test_wider_cd_always_lowers_bitline_resistance(self, lpe, array64):
        net, _ = array64.central_pair_nets()
        variation = lpe.rc_variation(array64.metal1_pattern, euv(), {"cd:euv": 3.0}, net)
        assert variation.rvar < 1.0

    def test_delta_percent_round_trip(self):
        variation = RCVariation(net="BL", option_name="EUV", rvar=0.9, cvar=1.1)
        assert variation.delta_r_percent == pytest.approx(-10.0)
        assert variation.delta_c_percent == pytest.approx(10.0)

    def test_monte_carlo_variations_are_reproducible(self, lpe, array64):
        net, _ = array64.central_pair_nets()
        pattern = array64.metal1_pattern
        first = lpe.monte_carlo_variations_batch_multi(pattern, euv(), (net,), 20, seed=11)
        second = lpe.monte_carlo_variations_batch_multi(pattern, euv(), (net,), 20, seed=11)
        assert first[net].cvar.tolist() == second[net].cvar.tolist()

    def test_monte_carlo_centered_near_nominal(self, lpe, array64):
        net, _ = array64.central_pair_nets()
        variations = lpe.monte_carlo_variations_batch_multi(
            array64.metal1_pattern, euv(), (net,), 200, seed=5
        )[net]
        assert float(variations.cvar.mean()) == pytest.approx(1.0, abs=0.02)

    def test_corner_variations_match_individual_calls(self, lpe, array64):
        net, _ = array64.central_pair_nets()
        corners = [EUV_WORST_CORNER, {"cd:euv": -3.0}]
        batch = lpe.corner_variations(array64.metal1_pattern, euv(), net, corners)
        single = lpe.rc_variation(array64.metal1_pattern, euv(), EUV_WORST_CORNER, net)
        assert batch[0].cvar == pytest.approx(single.cvar)
        assert len(batch) == 2

    def test_extract_array_equivalent_to_pattern(self, lpe, array64):
        from_array = lpe.extract_array(array64)
        from_pattern = lpe.extract_pattern(array64.metal1_pattern)
        net, _ = array64.central_pair_nets()
        assert from_array[net].capacitance_total_f == pytest.approx(
            from_pattern[net].capacitance_total_f
        )
