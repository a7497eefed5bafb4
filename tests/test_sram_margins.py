"""Tests of the butterfly-curve static-noise-margin analyzer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.operations import create_operation
from repro.sram.margins import (
    MARGIN_MODES,
    ButterflyCurves,
    MarginAnalysisError,
    SRAMMarginAnalyzer,
)
from repro.sram.read_path import ReadPathSimulator

from tests.conftest import SADP_WORST_CORNER

HOLD_SNM = create_operation("hold_snm")
READ_SNM = create_operation("read_snm")


@pytest.fixture(scope="module")
def analyzer(sims):
    return sims.margins


class TestButterfly:
    def test_vtc_is_full_swing_and_monotone(self, analyzer):
        curves = analyzer.butterfly(16, mode="hold")
        vdd = 0.7
        assert curves.qb_of_q[0] == pytest.approx(vdd, abs=0.02)
        assert curves.qb_of_q[-1] == pytest.approx(0.0, abs=0.02)
        assert np.all(np.diff(curves.qb_of_q) <= 1e-6)
        assert np.all(np.diff(curves.q_of_qb) <= 1e-6)

    def test_largest_square_on_ideal_curves(self):
        # Two ideal step VTCs switching at vdd/2: each lobe admits a square
        # of side vdd/2 (the analytic optimum for a rail-to-rail step).
        u = np.linspace(0.0, 1.0, 201)
        step = np.where(u < 0.5, 1.0, 0.0)
        curves = ButterflyCurves(mode="hold", input_v=u, qb_of_q=step, q_of_qb=step)
        lobe1, lobe2 = curves.lobe_sides_v()
        assert lobe1 == pytest.approx(0.5, abs=0.02)
        assert lobe2 == pytest.approx(0.5, abs=0.02)

    def test_coincident_curves_have_no_lobes(self):
        u = np.linspace(0.0, 1.0, 101)
        line = 1.0 - u
        curves = ButterflyCurves(mode="hold", input_v=u, qb_of_q=line, q_of_qb=line)
        assert curves.snm_v() == pytest.approx(0.0, abs=1e-9)


class TestMeasurements:
    def test_hold_snm_is_positive_and_bounded(self, sims, node):
        measurement = HOLD_SNM.measure_nominal(sims, 64)
        vdd = node.operating_conditions.vdd_v
        assert 0.0 < measurement.value < vdd / 2.0
        assert measurement.operation == "hold_snm"
        assert measurement.unit == "V"

    def test_read_snm_is_below_hold_snm(self, sims):
        hold = HOLD_SNM.measure_nominal(sims, 64)
        read = READ_SNM.measure_nominal(sims, 64)
        assert 0.0 < read.value < hold.value

    def test_nominal_lobes_are_nearly_symmetric(self, analyzer):
        measurement = analyzer.prepare_measure(64, mode="hold").run_scalar()
        assert measurement.mode == "hold"
        assert measurement.lobe1_v == pytest.approx(measurement.lobe2_v, rel=0.05)

    def test_nominal_measurements_memoized(self, sims):
        first = HOLD_SNM.measure_nominal(sims, 64)
        assert HOLD_SNM.measure_nominal(sims, 64) is first
        # A static margin has no stored value: every value hits one entry.
        assert HOLD_SNM.measure_nominal(sims, 64, stored_value=1) is first

    def test_hold_snm_degrades_monotonically_with_growing_variation(self, sims):
        """The acceptance pin: hold SNM must fall monotonically as the
        patterning-induced rail distortion grows.

        The rail response has a shallow non-monotone shoulder below ~2x
        (mild source degeneration first linearises the VTC transition);
        from there on the supply/ground droop compresses the lobes
        strictly, which is the regime this test pins.
        """
        nominal = HOLD_SNM.measure_nominal(sims, 64)
        degraded = [
            HOLD_SNM.value_with_variation(sims, 64, 1.0, 1.0, rail_rvar=scale)
            for scale in (4.0, 8.0, 16.0)
        ]
        assert all(value > 0.0 for value in degraded)
        assert all(value < nominal.value for value in degraded)
        assert degraded[0] > degraded[1] > degraded[2]

    def test_patterning_corner_moves_the_margins(self, sims, sadp_option):
        nominal = READ_SNM.measure_nominal(sims, 16)
        varied = READ_SNM.measure_with_patterning(
            sims, 16, sadp_option, SADP_WORST_CORNER
        )
        assert varied.value != nominal.value
        assert abs((1.0 - varied.value / nominal.value) * 100.0) < 20.0

    def test_invalid_mode_rejected(self, analyzer):
        with pytest.raises(MarginAnalysisError, match="mode"):
            analyzer.prepare_measure(16, mode="standby")


class TestMirrorSymmetry:
    """Swapping the two bit lines mirrors the cell: Q and QB trade roles,
    so the butterfly's two lobes swap and the SNM is unchanged."""

    @pytest.mark.parametrize("n_cells", (16, 256))
    @pytest.mark.parametrize("mode", MARGIN_MODES)
    def test_swapped_bitlines_swap_the_lobes(self, analyzer, mode, n_cells):
        nominal = analyzer.column_parasitics(n_cells)
        # A 20x bit-line resistance makes the column clearly asymmetric.
        column = replace(nominal, bitline=nominal.bitline.scaled(20.0, 1.0))
        mirror = replace(column, bitline=column.bitline_bar, bitline_bar=column.bitline)
        original = analyzer.prepare_measure(n_cells, column, mode=mode).run_scalar()
        mirrored = analyzer.prepare_measure(n_cells, mirror, mode=mode).run_scalar()
        assert mirrored.lobe1_v == pytest.approx(original.lobe2_v, rel=1e-12)
        assert mirrored.lobe2_v == pytest.approx(original.lobe1_v, rel=1e-12)
        assert mirrored.snm_v == pytest.approx(original.snm_v, rel=1e-12)


class TestGeometrySharing:
    def test_shared_geometry_donor(self, node):
        donor = ReadPathSimulator(node)
        analyzer = SRAMMarginAnalyzer(node, geometry=donor)
        assert analyzer.geometry is donor
        analyzer.prepare_measure(16, mode="hold")
        assert 16 in donor._layout_cache

    def test_mismatched_donor_rejected(self, node):
        donor = ReadPathSimulator(node, n_bitline_pairs=4)
        with pytest.raises(MarginAnalysisError, match="geometry donor"):
            SRAMMarginAnalyzer(node, geometry=donor)
