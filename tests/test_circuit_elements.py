"""Tests of circuit elements, waveforms and the netlist container."""

import pytest

from repro.circuit.elements import (
    DC,
    Capacitor,
    CurrentSource,
    ElementError,
    PiecewiseLinear,
    Pulse,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit, NetlistError, is_ground


class TestWaveforms:
    def test_dc_is_constant(self):
        assert DC(0.7).value_at(0.0) == 0.7
        assert DC(0.7).value_at(1e-9) == 0.7

    def test_pwl_interpolates(self):
        wave = PiecewiseLinear(points=((0.0, 0.0), (1e-9, 1.0)))
        assert wave.value_at(-1e-9) == 0.0
        assert wave.value_at(0.5e-9) == pytest.approx(0.5)
        assert wave.value_at(2e-9) == 1.0

    def test_pwl_holds_last_value(self):
        wave = PiecewiseLinear(points=((0.0, 0.0), (1e-9, 0.7), (2e-9, 0.7)))
        assert wave.value_at(5e-9) == pytest.approx(0.7)

    def test_pwl_rejects_unordered_times(self):
        with pytest.raises(ElementError):
            PiecewiseLinear(points=((1e-9, 0.0), (0.0, 1.0)))

    def test_pulse_shape(self):
        pulse = Pulse(initial=0.0, pulsed=1.0, delay_s=1e-9, rise_s=1e-10, fall_s=1e-10, width_s=1e-9)
        assert pulse.value_at(0.0) == 0.0
        assert pulse.value_at(1.05e-9) == pytest.approx(0.5)
        assert pulse.value_at(1.5e-9) == 1.0
        assert pulse.value_at(2.15e-9) == pytest.approx(0.5)
        assert pulse.value_at(3e-9) == 0.0

    def test_pulse_repeats_with_period(self):
        pulse = Pulse(initial=0.0, pulsed=1.0, rise_s=1e-12, fall_s=1e-12, width_s=1e-9, period_s=4e-9)
        assert pulse.value_at(0.5e-9) == 1.0
        assert pulse.value_at(4.5e-9) == 1.0
        assert pulse.value_at(2.5e-9) == 0.0

    def test_pulse_rejects_negative_times(self):
        with pytest.raises(ElementError):
            Pulse(initial=0.0, pulsed=1.0, rise_s=-1.0)


class TestElements:
    def test_resistor_conductance(self):
        assert Resistor("r1", "a", "b", 1000.0).conductance_s == pytest.approx(1e-3)

    def test_resistor_rejects_nonpositive_value(self):
        with pytest.raises(ElementError):
            Resistor("r1", "a", "b", 0.0)

    def test_capacitor_rejects_negative_value(self):
        with pytest.raises(ElementError):
            Capacitor("c1", "a", "b", -1e-15)

    def test_two_terminal_rejects_identical_nodes(self):
        with pytest.raises(ElementError):
            Resistor("r1", "a", "a", 100.0)

    def test_voltage_source_dc_factory(self):
        source = VoltageSource.dc("vdd", "vdd", "0", 0.7)
        assert source.value_at(0.0) == 0.7

    def test_current_source_dc_factory(self):
        source = CurrentSource.dc("i1", "a", "0", 1e-6)
        assert source.value_at(1.0) == 1e-6

    def test_element_name_required(self):
        with pytest.raises(ElementError):
            Resistor("", "a", "b", 100.0)


class TestCircuit:
    def build(self):
        circuit = Circuit("divider")
        circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "mid", 1000.0))
        circuit.add(Resistor("r2", "mid", "0", 1000.0))
        return circuit

    def test_ground_aliases(self):
        assert is_ground("0")
        assert is_ground("gnd")
        assert not is_ground("vss_cell")

    def test_nodes_exclude_ground(self):
        assert set(self.build().nodes()) == {"in", "mid"}

    def test_duplicate_element_names_rejected(self):
        circuit = self.build()
        with pytest.raises(NetlistError):
            circuit.add(Resistor("r1", "a", "b", 10.0))

    def test_element_lookup(self):
        circuit = self.build()
        assert circuit.element("r1").resistance_ohm == 1000.0
        with pytest.raises(NetlistError):
            circuit.element("rX")
        assert "r2" in circuit
        assert len(circuit) == 3

    def test_elements_of_type(self):
        circuit = self.build()
        assert len(circuit.elements_of_type(Resistor)) == 2
        assert len(circuit.elements_of_type(VoltageSource)) == 1

    def test_validate_passes_for_wellformed_circuit(self):
        self.build().validate()

    def test_validate_rejects_empty_circuit(self):
        with pytest.raises(NetlistError):
            Circuit("empty").validate()

    def test_validate_rejects_floating_node(self):
        circuit = Circuit("floating")
        circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "dangling", 100.0))
        with pytest.raises(NetlistError):
            circuit.validate()

    def test_validate_rejects_circuit_without_ground(self):
        circuit = Circuit("no-ground")
        circuit.add(Resistor("r1", "a", "b", 100.0))
        circuit.add(Resistor("r2", "b", "a", 100.0))
        with pytest.raises(NetlistError):
            circuit.validate()

    def test_summary_counts(self):
        summary = self.build().summary()
        assert summary["Resistor"] == 2
        assert summary["VoltageSource"] == 1
        assert summary["nodes"] == 2
