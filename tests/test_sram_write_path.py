"""Tests of the write-path simulator (transient delay + DC write margin)."""

import pytest

from repro.core.operations import create_operation
from repro.sram.read_path import ColumnParasitics, ReadPathSimulator
from repro.sram.write_path import WriteMeasurement, WritePathSimulator, WriteSimulationError

from tests.conftest import LE3_WORST_CORNER

WRITE = create_operation("write")


@pytest.fixture(scope="module")
def write_sim(sims):
    return sims.write


class TestWriteDelay:
    def test_nominal_write_flips_and_measures(self, write_sim):
        column = write_sim.column_parasitics(16)
        measurement = write_sim.prepare_simulate_column(16, column, "nominal").run_scalar()
        assert isinstance(measurement, WriteMeasurement)
        assert measurement.write_delay_s > 0.0
        assert measurement.stop_reason == "stop-condition"
        assert measurement.flip_time_s > measurement.wordline_time_s
        assert measurement.label == "nominal"

    def test_write_value_one_is_the_mirror_case(self, sims):
        zero = WRITE.measure_nominal(sims, 16, stored_value=0)
        one = WRITE.measure_nominal(sims, 16, stored_value=1)
        assert one.value > 0.0
        # The cell and drivers are symmetric; only the (slightly asymmetric)
        # extracted bit-line pair distinguishes the two polarities.
        assert one.value == pytest.approx(zero.value, rel=0.2)

    def test_nominal_measurement_is_memoized(self, sims):
        assert WRITE.measure_nominal(sims, 16) is WRITE.measure_nominal(sims, 16)

    def test_bitline_resistance_slows_the_write(self, sims):
        nominal = WRITE.measure_nominal(sims, 64)
        slowed = WRITE.value_with_variation(sims, 64, rvar=2.0, cvar=1.0)
        assert slowed > nominal.value

    def test_patterning_corner_changes_the_delay(self, sims, le3_option):
        nominal = WRITE.measure_nominal(sims, 16)
        varied = WRITE.measure_with_patterning(sims, 16, le3_option, LE3_WORST_CORNER)
        assert varied.label == le3_option.name
        assert varied.value != nominal.value
        assert abs((varied.value / nominal.value - 1.0) * 100.0) < 50.0

    def test_invalid_write_value_rejected(self, write_sim):
        with pytest.raises(WriteSimulationError, match="write_value"):
            column = write_sim.column_parasitics(16)
            write_sim.build_circuit(16, column, write_value=2)


class TestWriteMargin:
    def test_nominal_margin_is_a_fraction_of_vdd(self, write_sim, node):
        margin = write_sim.measure_nominal_margin(16)
        assert margin.flipped
        assert 0.0 < margin.margin_v < node.operating_conditions.vdd_v
        assert 0.0 < margin.margin_fraction() < 1.0

    def test_margin_memoized(self, write_sim):
        assert write_sim.measure_nominal_margin(16) is write_sim.measure_nominal_margin(16)

    def test_bitline_resistance_eats_the_margin(self, write_sim):
        column = write_sim.column_parasitics(64)
        nominal = write_sim.measure_margin(64, column)
        distorted = ColumnParasitics(
            bitline=column.bitline.scaled(3.0, 1.0),
            bitline_bar=column.bitline_bar.scaled(3.0, 1.0),
            vss_rail_resistance_ohm=column.vss_rail_resistance_ohm,
            vdd_rail_resistance_ohm=column.vdd_rail_resistance_ohm,
        )
        harder = write_sim.measure_margin(64, distorted)
        assert harder.margin_v < nominal.margin_v

    def test_unwritable_column_reports_zero_margin(self, write_sim):
        column = write_sim.column_parasitics(1024)
        hopeless = ColumnParasitics(
            bitline=column.bitline.scaled(5.0, 1.0),
            bitline_bar=column.bitline_bar.scaled(5.0, 1.0),
            vss_rail_resistance_ohm=column.vss_rail_resistance_ohm,
            vdd_rail_resistance_ohm=column.vdd_rail_resistance_ohm,
        )
        margin = write_sim.measure_margin(1024, hopeless)
        assert not margin.flipped
        assert margin.margin_v == 0.0


class TestGeometrySharing:
    def test_composed_geometry_is_shared(self, node):
        donor = ReadPathSimulator(node)
        write_sim = WritePathSimulator(node, geometry=donor)
        assert write_sim.geometry is donor
        donor.nominal_extraction(16)
        # The write simulator sees the donor's extraction cache directly.
        assert 16 in donor._nominal_extraction_cache
        write_sim.column_parasitics(16)
        assert 16 in donor._layout_cache

    def test_mismatched_geometry_rejected(self, node):
        donor = ReadPathSimulator(node, n_bitline_pairs=4)
        with pytest.raises(WriteSimulationError, match="geometry donor"):
            WritePathSimulator(node, geometry=donor)
