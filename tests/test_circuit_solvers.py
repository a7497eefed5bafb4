"""Tests of MNA assembly, DC operating point and transient analysis.

The assertions use circuits with known analytical answers (dividers, RC
decays, inverters) so the simulator is validated against physics, not
against itself.
"""

import math

import numpy as np
import pytest

from repro.circuit.batch import TransientLaneSpec, batch_run_transients
from repro.circuit.dc import ConvergenceError, dc_operating_point
from repro.circuit.elements import (
    DC,
    Capacitor,
    CurrentSource,
    PiecewiseLinear,
    Resistor,
    VoltageSource,
)
from repro.circuit.mna import MNAAssembler, MNAError
from repro.circuit.mosfet import MOSFET
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, TransientSolver, run_transient
from repro.technology.transistors import default_n10_nmos, default_n10_pmos
from tests.conftest import scipy_matrices


def divider_circuit(r1=1000.0, r2=3000.0, vin=1.0):
    circuit = Circuit("divider")
    circuit.add(VoltageSource.dc("vin", "in", "0", vin))
    circuit.add(Resistor("r1", "in", "out", r1))
    circuit.add(Resistor("r2", "out", "0", r2))
    return circuit


def rc_circuit(resistance=1000.0, capacitance=1e-12, v0=1.0):
    """A charged capacitor discharging through a resistor."""
    circuit = Circuit("rc-decay")
    circuit.add(Resistor("r", "node", "0", resistance))
    circuit.add(Capacitor("c", "node", "0", capacitance, initial_voltage_v=v0))
    # A tiny always-off current source keeps the matrix well-formed without
    # affecting the answer.
    circuit.add(CurrentSource.dc("ibias", "node", "0", 0.0))
    return circuit


class TestMNAAssembler:
    def test_system_size_counts_nodes_and_sources(self):
        assembler = MNAAssembler(divider_circuit())
        assert assembler.n_nodes == 2
        assert assembler.n_branches == 1
        assert assembler.size == 3

    def test_index_of_ground_is_none(self):
        assembler = MNAAssembler(divider_circuit())
        assert assembler.index_of("0") is None
        assert assembler.index_of("in") is not None

    def test_unknown_node_raises(self):
        assembler = MNAAssembler(divider_circuit())
        with pytest.raises(MNAError):
            assembler.index_of("nonexistent")

    def test_conductance_matrix_is_symmetric_without_sources(self):
        circuit = Circuit("rr")
        circuit.add(Resistor("r1", "a", "b", 100.0))
        circuit.add(Resistor("r2", "b", "0", 100.0))
        circuit.add(CurrentSource.dc("i", "a", "0", 1e-3))
        g = scipy_matrices(MNAAssembler(circuit))[0].toarray()
        assert np.allclose(g, g.T)

    def test_source_vector_tracks_waveform(self):
        circuit = Circuit("ramp")
        circuit.add(
            VoltageSource("vin", "in", "0", PiecewiseLinear(points=((0.0, 0.0), (1e-9, 1.0))))
        )
        circuit.add(Resistor("r", "in", "0", 100.0))
        assembler = MNAAssembler(circuit)
        assert assembler.source_vector(0.0)[assembler.branch_index("vin")] == 0.0
        assert assembler.source_vector(1e-9)[assembler.branch_index("vin")] == pytest.approx(1.0)

    def test_branch_index_unknown_source(self):
        assembler = MNAAssembler(divider_circuit())
        with pytest.raises(MNAError):
            assembler.branch_index("nonexistent")

    def test_initial_solution_rejects_unknown_node(self):
        assembler = MNAAssembler(divider_circuit())
        with pytest.raises(MNAError):
            assembler.initial_solution({"bogus": 1.0})


class TestDCOperatingPoint:
    def test_resistive_divider(self):
        result = dc_operating_point(divider_circuit())
        assert result.converged
        assert result.voltage("out") == pytest.approx(0.75, rel=1e-6)
        assert result.voltage("in") == pytest.approx(1.0, rel=1e-6)

    def test_current_source_into_resistor(self):
        circuit = Circuit("ir")
        circuit.add(CurrentSource.dc("i1", "0", "node", 1e-3))  # 1 mA into the node
        circuit.add(Resistor("r1", "node", "0", 2000.0))
        result = dc_operating_point(circuit)
        assert result.voltage("node") == pytest.approx(2.0, rel=1e-6)

    def test_nmos_pulldown_divider(self):
        """An on NMOS against a resistive load settles between the rails."""
        circuit = Circuit("nmos-load")
        circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
        circuit.add(Resistor("rload", "vdd", "out", 20_000.0))
        circuit.add(MOSFET("mn", "out", "vdd", "0", default_n10_nmos()))
        result = dc_operating_point(circuit)
        assert result.converged
        assert 0.0 < result.voltage("out") < 0.45

    def test_cmos_inverter_transfer_extremes(self):
        def inverter_output(v_in):
            circuit = Circuit("inverter")
            circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
            circuit.add(VoltageSource.dc("vin", "in", "0", v_in))
            circuit.add(MOSFET("mp", "out", "in", "vdd", default_n10_pmos()))
            circuit.add(MOSFET("mn", "out", "in", "0", default_n10_nmos()))
            guess = {"out": 0.7 - v_in}
            return dc_operating_point(circuit, initial_voltages=guess).voltage("out")

        assert inverter_output(0.0) > 0.65
        assert inverter_output(0.7) < 0.05

    def test_sram_cell_holds_state(self):
        """The cross-coupled 6T core keeps the state given as the initial guess."""
        circuit = Circuit("6t-hold")
        circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
        nmos = default_n10_nmos()
        pmos = default_n10_pmos()
        circuit.add(MOSFET("pd1", "q", "qb", "0", nmos))
        circuit.add(MOSFET("pd2", "qb", "q", "0", nmos))
        circuit.add(MOSFET("pu1", "q", "qb", "vdd", pmos))
        circuit.add(MOSFET("pu2", "qb", "q", "vdd", pmos))
        result = dc_operating_point(circuit, initial_voltages={"q": 0.0, "qb": 0.7})
        assert result.voltage("q") < 0.05
        assert result.voltage("qb") > 0.65


class TestTransient:
    def test_rc_discharge_matches_analytic_decay(self):
        resistance, capacitance, v0 = 1000.0, 1e-12, 1.0
        tau = resistance * capacitance
        options = TransientOptions(t_stop_s=3 * tau, dt_initial_s=tau / 500, dt_max_s=tau / 50)
        result = run_transient(
            rc_circuit(resistance, capacitance, v0),
            options=options,
            initial_voltages={"node": v0},
        )
        for multiple in (0.5, 1.0, 2.0):
            expected = v0 * math.exp(-multiple)
            measured = result.voltage_at("node", multiple * tau)
            assert measured == pytest.approx(expected, rel=0.03)

    def test_rc_charge_through_source(self):
        resistance, capacitance = 1000.0, 1e-12
        tau = resistance * capacitance
        circuit = Circuit("rc-charge")
        circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
        circuit.add(Resistor("r", "in", "out", resistance))
        circuit.add(Capacitor("c", "out", "0", capacitance))
        options = TransientOptions(t_stop_s=5 * tau, dt_initial_s=tau / 500, dt_max_s=tau / 50)
        result = run_transient(circuit, options=options, initial_voltages={"out": 0.0})
        assert result.voltage_at("out", tau) == pytest.approx(1.0 - math.exp(-1.0), rel=0.03)
        assert result.final_voltage("out") == pytest.approx(1.0, abs=0.02)

    def test_trapezoidal_method_matches_analytic(self):
        resistance, capacitance, v0 = 1000.0, 1e-12, 1.0
        tau = resistance * capacitance
        options = TransientOptions(
            t_stop_s=2 * tau, dt_initial_s=tau / 200, dt_max_s=tau / 40, method="trapezoidal"
        )
        result = run_transient(
            rc_circuit(resistance, capacitance, v0), options=options, initial_voltages={"node": v0}
        )
        assert result.voltage_at("node", tau) == pytest.approx(v0 * math.exp(-1.0), rel=0.03)

    def test_stop_condition_ends_simulation_early(self):
        resistance, capacitance, v0 = 1000.0, 1e-12, 1.0
        tau = resistance * capacitance
        options = TransientOptions(t_stop_s=10 * tau, dt_initial_s=tau / 500, dt_max_s=tau / 50)
        result = run_transient(
            rc_circuit(resistance, capacitance, v0),
            options=options,
            initial_voltages={"node": v0},
            stop_condition=lambda _t, v: v["node"] < 0.5,
        )
        assert result.stop_reason == "stop-condition"
        assert result.end_time_s < 2.0 * tau

    def test_record_nodes_subset(self):
        circuit = divider_circuit()
        circuit.add(Capacitor("cload", "out", "0", 1e-15))
        options = TransientOptions(t_stop_s=1e-11, dt_initial_s=1e-13, dt_max_s=1e-12,
                                   record_nodes=["out"])
        result = TransientSolver(circuit, options=options).run()
        assert result.nodes == ["out"]

    @pytest.mark.parametrize("driver", ["one_lane", "lockstep"])
    def test_duplicate_record_nodes_are_recorded_once(self, driver):
        def run(record_nodes):
            circuit = divider_circuit()
            circuit.add(Capacitor("cload", "out", "0", 1e-15))
            options = TransientOptions(t_stop_s=1e-11, dt_initial_s=1e-13,
                                       dt_max_s=1e-12, record_nodes=record_nodes)
            solver = TransientSolver(circuit, options=options)
            if driver == "one_lane":
                return solver.run()
            (outcome,) = batch_run_transients([TransientLaneSpec(solver)])
            assert not isinstance(outcome, BaseException), outcome
            return outcome

        single = run(["out"])
        doubled = run(["out", "out"])
        assert doubled.nodes == ["out"]
        np.testing.assert_array_equal(doubled.times_s, single.times_s)
        np.testing.assert_array_equal(doubled.voltage("out"), single.voltage("out"))

    def test_unknown_record_node_raises(self):
        circuit = divider_circuit()
        circuit.add(Capacitor("cload", "out", "0", 1e-15))
        options = TransientOptions(t_stop_s=1e-11, dt_initial_s=1e-13, dt_max_s=1e-12,
                                   record_nodes=["bogus"])
        with pytest.raises(MNAError):
            TransientSolver(circuit, options=options).run()

    def test_options_validation(self):
        with pytest.raises(ValueError):
            TransientOptions(t_stop_s=-1.0)
        with pytest.raises(ValueError):
            TransientOptions(dt_initial_s=1e-15, dt_min_s=1e-12)
        with pytest.raises(ValueError):
            TransientOptions(method="gear")

    def test_nmos_discharges_capacitor_when_gated_on(self):
        """A word-line style ramp turning on an NMOS discharges the load cap."""
        circuit = Circuit("switch")
        load = 5e-15
        circuit.add(Capacitor("cload", "bl", "0", load, initial_voltage_v=0.7))
        circuit.add(
            VoltageSource("vg", "g", "0", PiecewiseLinear(points=((0.0, 0.0), (2e-12, 0.7))))
        )
        circuit.add(MOSFET("mn", "bl", "g", "0", default_n10_nmos()))
        options = TransientOptions(t_stop_s=3e-10, dt_initial_s=1e-13, dt_max_s=2e-12)
        result = run_transient(circuit, options=options, initial_voltages={"bl": 0.7, "g": 0.0})
        assert result.final_voltage("bl") < 0.1
        crossing = result.crossing_time_s("bl", 0.35, direction="falling")
        assert crossing is not None and crossing > 0.0
