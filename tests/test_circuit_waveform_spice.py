"""Tests of waveform measurements and SPICE netlist I/O."""

import numpy as np
import pytest

from repro.circuit.elements import DC, Capacitor, CurrentSource, PiecewiseLinear, Pulse, Resistor, VoltageSource
from repro.circuit.mosfet import MOSFET
from repro.circuit.netlist import Circuit
from repro.circuit.spice_io import SpiceFormatError, read_spice, write_spice
from repro.circuit.waveform import MeasurementError, TransientResult
from repro.technology.transistors import default_n10_nmos


def ramp_result():
    times = np.linspace(0.0, 1e-9, 101)
    falling = 0.7 - 0.7 * times / 1e-9          # 0.7 V -> 0 V
    constant = np.full_like(times, 0.7)
    return TransientResult(times_s=times, voltages={"bl": falling, "blb": constant})


class TestTransientResult:
    def test_nodes_and_end_time(self):
        result = ramp_result()
        assert set(result.nodes) == {"bl", "blb"}
        assert result.end_time_s == pytest.approx(1e-9)

    def test_voltage_at_interpolates(self):
        assert ramp_result().voltage_at("bl", 0.5e-9) == pytest.approx(0.35)

    def test_falling_crossing_time(self):
        crossing = ramp_result().crossing_time_s("bl", 0.35, direction="falling")
        assert crossing == pytest.approx(0.5e-9, rel=1e-6)

    def test_rising_crossing_absent(self):
        assert ramp_result().crossing_time_s("bl", 0.35, direction="rising") is None

    def test_differential_crossing(self):
        # |bl - blb| = 0.7 t / 1ns; reaches 0.07 at t = 0.1 ns.
        crossing = ramp_result().differential_crossing_time_s("bl", "blb", 0.07)
        assert crossing == pytest.approx(0.1e-9, rel=1e-6)

    def test_differential_crossing_never_reached(self):
        result = ramp_result()
        assert result.differential_crossing_time_s("blb", "blb", 0.07) is None

    def test_unknown_node_raises(self):
        with pytest.raises(MeasurementError):
            ramp_result().voltage("nonexistent")

    def test_bad_direction_rejected(self):
        with pytest.raises(MeasurementError):
            ramp_result().crossing_time_s("bl", 0.35, direction="sideways")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MeasurementError):
            TransientResult(times_s=np.array([0.0, 1.0]), voltages={"a": np.array([0.0])})

    def test_sample_on_new_grid(self):
        sampled = ramp_result().sample("bl", [0.0, 0.5e-9, 1e-9])
        assert sampled[1] == pytest.approx(0.35)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(MeasurementError):
            ramp_result().differential_crossing_time_s("bl", "blb", 0.0)


class TestSpiceIO:
    def build_circuit(self):
        circuit = Circuit("rc with devices")
        circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
        circuit.add(
            VoltageSource("vwl", "wl", "0", PiecewiseLinear(points=((0.0, 0.0), (1e-12, 0.7))))
        )
        circuit.add(CurrentSource("ileak", "vdd", "0", DC(1e-9)))
        circuit.add(Resistor("rbl", "bl", "mid", 123.4))
        circuit.add(Capacitor("cbl", "mid", "0", 2.5e-15, initial_voltage_v=0.7))
        circuit.add(MOSFET("mpg", "bl", "wl", "q", default_n10_nmos(), nfins=2))
        return circuit

    def test_write_contains_all_cards(self):
        text = write_spice(self.build_circuit())
        assert "Rrbl bl mid 123.4" in text
        assert "Ccbl mid 0 2.5e-15 IC=0.7" in text
        assert "Vvdd vdd 0 DC 0.7" in text
        assert "PWL(" in text
        assert "Mmpg bl wl q q nmos nfins=2" in text
        assert text.strip().endswith(".end")

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "deck.sp"
        write_spice(self.build_circuit(), path)
        assert path.read_text().startswith("* rc with devices")

    def test_pulse_waveform_formatting(self):
        circuit = Circuit("pulse")
        circuit.add(VoltageSource("vp", "a", "0", Pulse(initial=0.0, pulsed=0.7)))
        circuit.add(Resistor("r", "a", "0", 100.0))
        assert "PULSE(" in write_spice(circuit)

    def test_round_trip_rc_network(self):
        circuit = Circuit("rc")
        circuit.add(VoltageSource.dc("vin", "in", "0", 0.7))
        circuit.add(Resistor("r1", "in", "out", 1000.0))
        circuit.add(Capacitor("c1", "out", "0", 1e-15))
        recovered = read_spice(write_spice(circuit))
        assert len(recovered) == 3
        assert recovered.element("r1").resistance_ohm == pytest.approx(1000.0)
        assert recovered.element("c1").capacitance_f == pytest.approx(1e-15)
        assert recovered.element("vin").value_at(0.0) == pytest.approx(0.7)

    def test_engineering_suffixes_parsed(self):
        deck = "* t\nRr1 a 0 1k\nCc1 a 0 2.5f\nVv1 a 0 DC 0.7\n.end\n"
        circuit = read_spice(deck)
        assert circuit.element("r1").resistance_ohm == pytest.approx(1000.0)
        assert circuit.element("c1").capacitance_f == pytest.approx(2.5e-15)

    def test_mosfet_cards_rejected_on_read(self):
        deck = "Mm1 d g s s nmos nfins=1\n.end\n"
        with pytest.raises(SpiceFormatError):
            read_spice(deck)

    def test_unsupported_card_rejected(self):
        with pytest.raises(SpiceFormatError):
            read_spice("Xsub a b mysub\n.end\n")

    def test_malformed_resistor_rejected(self):
        with pytest.raises(SpiceFormatError):
            read_spice("Rr1 a 0\n.end\n")

    def test_comments_and_dot_cards_ignored(self):
        deck = "* comment\n.option reltol=1e-4\nRr1 a 0 50\n.end\n"
        assert len(read_spice(deck)) == 1
