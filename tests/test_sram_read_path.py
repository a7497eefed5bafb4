"""Tests of the read-path circuit builder and the read simulation harness."""

import pytest

from repro.circuit.batch import run_lane_scalar
from repro.circuit.mosfet import MOSFET
from repro.core.operations import OperationSimulators, create_operation
from repro.sram.array import ArrayCircuitError, ReadCircuitSpec, build_read_circuit
from repro.sram.bitline import BitlineSpec
from repro.sram.read_path import ReadMeasurement, ReadPathSimulator, ReadSimulationError
from repro.technology.node import OperatingConditions
from tests.conftest import EUV_WORST_CORNER, LE3_WORST_CORNER, SADP_WORST_CORNER

READ = create_operation("read")


def penalty_percent(sims, option, parameters, n_cells=16):
    """Simulated tdp (%) of one option/corner versus the nominal column."""
    nominal = READ.measure_nominal(sims, n_cells)
    varied = READ.measure_with_patterning(sims, n_cells, option, parameters)
    return (varied.value / nominal.value - 1.0) * 100.0


def derived_options(simulator, n_cells=16):
    """The transient options the simulator derives for the nominal column."""
    column = simulator.column_parasitics(n_cells)
    (lane,) = simulator.prepare_simulate_column(n_cells, column, "probe").lanes
    return lane.solver.options


def small_spec(node, n_cells=16):
    bitline = BitlineSpec(
        n_cells=n_cells,
        resistance_per_cell_ohm=8.5,
        capacitance_per_cell_f=38e-18,
        frontend_capacitance_per_cell_f=32e-18,
    )
    return ReadCircuitSpec(
        n_cells=n_cells,
        bitline=bitline,
        bitline_bar=bitline,
        vss_rail_resistance_ohm=n_cells * 11.0,
        devices=node.sram_devices,
        conditions=node.operating_conditions,
    )


class TestReadCircuitBuilder:
    def test_circuit_validates(self, node):
        read_circuit = build_read_circuit(small_spec(node))
        read_circuit.circuit.validate()

    def test_contains_cell_precharge_and_ladders(self, node):
        read_circuit = build_read_circuit(small_spec(node))
        mosfets = read_circuit.circuit.elements_of_type(MOSFET)
        # 6 cell transistors + 3 precharge devices.
        assert len(mosfets) == 9
        assert read_circuit.bitline_ladder.segments == 16
        assert read_circuit.sense.bitline_node == read_circuit.bitline_ladder.near_node

    def test_accessed_cell_sits_at_far_end(self, node):
        read_circuit = build_read_circuit(small_spec(node))
        assert read_circuit.cell.nodes.bitline == read_circuit.bitline_ladder.far_node

    def test_initial_conditions_precharge_bitlines(self, node):
        read_circuit = build_read_circuit(small_spec(node))
        for ladder_node in read_circuit.bitline_ladder.node_names:
            assert read_circuit.initial_voltages[ladder_node] == pytest.approx(0.7)
        assert read_circuit.initial_voltages["q"] == 0.0
        assert read_circuit.initial_voltages["qb"] == pytest.approx(0.7)

    def test_stored_one_swaps_internal_nodes(self, node):
        spec = small_spec(node)
        spec = ReadCircuitSpec(
            n_cells=spec.n_cells,
            bitline=spec.bitline,
            bitline_bar=spec.bitline_bar,
            vss_rail_resistance_ohm=spec.vss_rail_resistance_ohm,
            devices=spec.devices,
            conditions=spec.conditions,
            stored_value=1,
        )
        read_circuit = build_read_circuit(spec)
        assert read_circuit.initial_voltages["q"] == pytest.approx(0.7)
        assert read_circuit.initial_voltages["qb"] == 0.0

    def test_invalid_spec_rejected(self, node):
        bitline = small_spec(node).bitline
        with pytest.raises(ArrayCircuitError):
            ReadCircuitSpec(
                n_cells=16,
                bitline=bitline,
                bitline_bar=bitline,
                vss_rail_resistance_ohm=0.0,
                devices=node.sram_devices,
                conditions=node.operating_conditions,
            )
        with pytest.raises(ArrayCircuitError):
            ReadCircuitSpec(
                n_cells=16,
                bitline=bitline,
                bitline_bar=bitline,
                vss_rail_resistance_ohm=100.0,
                devices=node.sram_devices,
                conditions=node.operating_conditions,
                stored_value=5,
            )


class TestReadPathSimulator:
    def test_nominal_td_positive_and_under_a_nanosecond(self, sims):
        measurement = READ.measure_nominal(sims, 16)
        assert 1e-12 < measurement.td_s < 1e-9
        assert measurement.stop_reason == "stop-condition"

    def test_td_grows_with_array_size(self, sims):
        td16 = READ.measure_nominal(sims, 16).td_s
        td64 = READ.measure_nominal(sims, 64).td_s
        assert td64 > 2.0 * td16

    def test_nominal_td16_matches_paper_order_of_magnitude(self, sims):
        """Paper Table II: simulated td at 10x16 is 5.59 ps; ours must be single-digit ps."""
        td_ps = READ.measure_nominal(sims, 16).td_s * 1e12
        assert 2.0 < td_ps < 20.0

    def test_le3_worst_corner_penalty_large(self, sims, le3_option):
        penalty = penalty_percent(sims, le3_option, LE3_WORST_CORNER)
        assert penalty > 10.0

    def test_sadp_and_euv_worst_corner_penalties_small(self, sims, sadp_option, euv_option):
        sadp_penalty = penalty_percent(sims, sadp_option, SADP_WORST_CORNER)
        euv_penalty = penalty_percent(sims, euv_option, EUV_WORST_CORNER)
        assert abs(sadp_penalty) < 10.0
        assert abs(euv_penalty) < 10.0

    def test_scaled_variation_increases_td(self, sims):
        nominal = READ.measure_nominal(sims, 16)
        varied = READ.value_with_variation(sims, 16, rvar=1.0, cvar=1.5)
        assert varied > nominal.value

    def test_penalty_vs_nominal_round_trip(self, simulator):
        column = simulator.column_parasitics(16)
        nominal = simulator.prepare_simulate_column(16, column, "nominal").run_scalar()
        assert isinstance(nominal, ReadMeasurement)
        assert nominal.penalty_vs(nominal) == pytest.approx(1.0)

    def test_column_parasitics_roles(self, simulator):
        column = simulator.column_parasitics(16)
        assert column.bitline.n_cells == 16
        assert column.vss_rail_resistance_ohm > 0.0
        assert column.bitline.total_capacitance_f > column.bitline.wire_capacitance_f

    def test_waveforms_returned_when_requested(self, simulator):
        column = simulator.column_parasitics(16)
        prepared = simulator.prepare_simulate_column(16, column, label="probe")
        (lane,) = prepared.lanes
        result = run_lane_scalar(lane)
        assert isinstance(prepared.finish([result]), ReadMeasurement)
        bl_wave = result.voltage(simulator.build_circuit(16, column).sense.bitline_node)
        assert bl_wave[0] == pytest.approx(0.7)
        assert bl_wave[-1] < 0.7

    def test_bitline_discharges_while_complement_holds(self, simulator):
        column = simulator.column_parasitics(16)
        circuit = simulator.build_circuit(16, column)
        (lane,) = simulator.prepare_simulate_column(16, column, label="probe").lanes
        result = run_lane_scalar(lane)
        bl_final = result.final_voltage(circuit.sense.bitline_node)
        blb_final = result.final_voltage(circuit.sense.bitline_bar_node)
        assert bl_final < 0.68
        assert blb_final > 0.65

    def test_layout_and_extraction_caching(self, simulator):
        first = simulator.layout_for(16)
        second = simulator.layout_for(16)
        assert first is second
        assert simulator.nominal_extraction(16) is simulator.nominal_extraction(16)

    def test_penalty_sign_matches_capacitance_change(self, sims, euv_option):
        """A pure capacitance increase must slow the read down."""
        nominal = READ.measure_nominal(sims, 16)
        slower = READ.value_with_variation(sims, 16, rvar=1.0, cvar=1.2)
        faster = READ.value_with_variation(sims, 16, rvar=0.8, cvar=1.0)
        assert slower > nominal.value
        assert faster < nominal.value


class TestTransientOptionOverrides:
    """The transient window is derived from the column; the method knob
    overrides only the integrator."""

    def test_transient_method_changes_only_the_integrator(self, node):
        """The method knob must not perturb the derived step-size policy."""
        be_options = derived_options(ReadPathSimulator(node))
        trap_options = derived_options(
            ReadPathSimulator(node, transient_method="trapezoidal")
        )
        assert 0.0 < be_options.dt_min_s <= be_options.dt_initial_s <= be_options.dt_max_s
        assert be_options.method == "backward-euler"
        assert trap_options.method == "trapezoidal"
        assert trap_options.t_stop_s == be_options.t_stop_s
        assert trap_options.dt_initial_s == be_options.dt_initial_s
        assert trap_options.dt_min_s == be_options.dt_min_s
        assert trap_options.dt_max_s == be_options.dt_max_s

    def test_invalid_transient_method_rejected(self, node):
        with pytest.raises(ReadSimulationError):
            ReadPathSimulator(node, transient_method="gear2")


class TestMeasurementCaches:
    def test_nominal_measurement_memoized(self, node):
        sims = OperationSimulators(node)
        first = READ.measure_nominal(sims, 16)
        assert READ.measure_nominal(sims, 16) is first
        assert READ.measure_nominal(sims, 16, stored_value=1) is not first

    def test_printed_extraction_memoized(self, node, euv_option):
        simulator = ReadPathSimulator(node)
        first = simulator.printed_extraction(16, euv_option, EUV_WORST_CORNER)
        assert simulator.printed_extraction(16, euv_option, EUV_WORST_CORNER) is first
        other = simulator.printed_extraction(16, euv_option, {"cd:euv": -3.0})
        assert other is not first

    def test_penalty_percent_reuses_nominal(self, node, euv_option, monkeypatch):
        sims = OperationSimulators(node)
        calls = {"count": 0}
        true_prepare = ReadPathSimulator.prepare_simulate_column

        def counting_prepare(self, *args, **kwargs):
            calls["count"] += 1
            return true_prepare(self, *args, **kwargs)

        monkeypatch.setattr(
            ReadPathSimulator, "prepare_simulate_column", counting_prepare
        )
        penalty_percent(sims, euv_option, EUV_WORST_CORNER)
        assert calls["count"] == 2                  # nominal + corner
        penalty_percent(sims, euv_option, {"cd:euv": -3.0})
        assert calls["count"] == 3                  # nominal came from the memo

    def test_jacobian_structure_shared_across_corners(self, node, euv_option):
        sims = OperationSimulators(node)
        READ.measure_nominal(sims, 16)
        record = sims.read._column_records[(16, 0)]
        READ.measure_with_patterning(sims, 16, euv_option, EUV_WORST_CORNER)
        assert sims.read._column_records[(16, 0)] is record
        # Both corners bound the one record and derived one matrix structure.
        assert list(record.topology._structures) == [True]

    def test_cache_adoption_shares_geometry_not_measurements(self, node):
        donor = OperationSimulators(node)
        READ.measure_nominal(donor, 16)
        variant = OperationSimulators(node, vss_strap_interval_cells=8)
        variant.adopt_shared_caches(donor)
        assert variant.read.layout_for(16) is donor.read.layout_for(16)
        assert variant.read.nominal_extraction(16) is donor.read.nominal_extraction(16)
        measurement = READ.measure_nominal(variant, 16)
        assert measurement is not READ.measure_nominal(donor, 16)

    def test_cache_adoption_rejects_mismatched_geometry(self, node):
        donor = ReadPathSimulator(node, n_bitline_pairs=10)
        other = ReadPathSimulator(node, n_bitline_pairs=4)
        with pytest.raises(ReadSimulationError):
            other.adopt_shared_caches(donor)
