"""Robustness and failure-injection tests.

The studies run thousands of automatically generated corners and samples,
so the library must fail *loudly and informatively* when a corner produces
impossible geometry or a simulation cannot complete — silent garbage would
poison a whole Monte-Carlo run.  These tests inject such failures on
purpose and check the reported errors.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.dc import ConvergenceError
from repro.circuit.elements import Capacitor, Resistor, VoltageSource
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, TransientSolver
from repro.core.operations import OperationSimulators, create_operation
from repro.extraction.field import CrossSectionExtractor, ExtractionError
from repro.layout.gds import dumps_gdt, library_from_wires, loads_gdt
from repro.layout.geometry import Rect
from repro.layout.wire import NetRole, Wire, WireError
from repro.patterning import le3, sadp
from repro.patterning.base import PatterningError
from repro.sram import read_path
from repro.sram.read_path import ReadPathSimulator, ReadSimulationError

READ = create_operation("read")


class TestPatterningFailureModes:
    def test_huge_overlay_creates_overlapping_tracks(self, array64):
        """A 30 nm overlay (≫ pitch/2) must be rejected, not silently extracted."""
        printed = None
        with pytest.raises((WireError, PatterningError)):
            printed = le3().apply(array64.metal1_pattern, {"ol:B": -30.0})
            # If printing itself survived, the overlap must be caught here.
            raise WireError(str(printed.printed.spaces()))

    def test_negative_cd_larger_than_width_rejected(self, array64):
        with pytest.raises(WireError):
            le3().apply(array64.metal1_pattern, {"cd:A": -60.0})

    def test_sadp_pinch_off_message_names_the_track(self, array64):
        with pytest.raises(PatterningError) as excinfo:
            sadp().apply(array64.metal1_pattern, {"cd:core": 45.0, "spacer": 3.0})
        assert "pinches off" in str(excinfo.value)

    def test_extractor_reports_touching_tracks(self, node, array64):
        """If a printed pattern squeezes a gap to zero the extractor refuses."""
        pattern = array64.metal1_pattern
        # Manually construct a pattern where two tracks touch.
        squeezed = pattern.replace_track(
            1, pattern[1].shifted(-(pattern.spaces()[0]))
        )
        extractor = CrossSectionExtractor(node.bitline_metal)
        with pytest.raises((ExtractionError, WireError)):
            extractor.extract(squeezed)


class TestSimulationFailureModes:
    def test_transient_step_limit_raises(self, node, monkeypatch):
        """An absurdly small step budget must fail with a clear error."""
        derived = read_path.transient_window

        def starved(*args):
            return replace(derived(*args), max_steps=5, dt_max_s=1e-15, dt_initial_s=1e-15)

        monkeypatch.setattr(read_path, "transient_window", starved)
        with pytest.raises(ConvergenceError):
            READ.measure_nominal(OperationSimulators(node), 16)

    def test_transient_min_step_failure_raises(self):
        """A circuit that can never converge reports the failing time point."""
        circuit = Circuit("inconsistent")
        # Two ideal voltage sources fighting across a tiny resistor converge,
        # so instead force failure via an impossible step-size window.
        circuit.add(VoltageSource.dc("v1", "a", "0", 1.0))
        circuit.add(Resistor("r1", "a", "b", 1.0))
        circuit.add(Capacitor("c1", "b", "0", 1e-15))
        options = TransientOptions(
            t_stop_s=1e-9, dt_initial_s=1e-13, dt_max_s=1e-12, max_steps=3
        )
        with pytest.raises(ConvergenceError):
            TransientSolver(circuit, options=options).run()

    def test_read_simulation_error_is_informative(self, node):
        """When the sense threshold can never be reached the harness says so."""
        conditions = node.operating_conditions
        # A word line driven far below the pass-gate threshold never opens
        # the cell, so the bit line cannot discharge and the sense threshold
        # is never reached within the simulation window.
        from repro.technology.node import OperatingConditions

        impossible = node.with_operating_conditions(
            OperatingConditions(vdd_v=0.7, sense_amp_sensitivity_v=0.07, wordline_voltage_v=0.05)
        )
        with pytest.raises(ReadSimulationError) as excinfo:
            READ.measure_nominal(OperationSimulators(impossible), 16)
        assert "sense threshold" in str(excinfo.value)
        # The original node is untouched by the experiment.
        assert conditions.sense_amp_sensitivity_v == pytest.approx(0.07)

    def test_invalid_strap_interval_rejected(self, node):
        with pytest.raises(ReadSimulationError):
            ReadPathSimulator(node, vss_strap_interval_cells=0)


class TestSerializationRoundTripProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e5, max_value=1e5),
                st.floats(min_value=-1e5, max_value=1e5),
                st.floats(min_value=0.5, max_value=5e3),
                st.floats(min_value=0.5, max_value=5e3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_gdt_round_trip_preserves_every_rectangle(self, rect_specs):
        wires = [
            Wire(
                net=f"N{i}",
                layer="metal1",
                rect=Rect(x, y, x + w, y + h),
                role=NetRole.OTHER,
            )
            for i, (x, y, w, h) in enumerate(rect_specs)
        ]
        library = library_from_wires("prop_cell", wires)
        recovered = loads_gdt(dumps_gdt(library))
        recovered_wires = {wire.net: wire for wire in recovered.cell("prop_cell").wires}
        assert len(recovered_wires) == len(wires)
        for wire in wires:
            match = recovered_wires[wire.net]
            assert match.rect.x_min == pytest.approx(wire.rect.x_min, abs=2e-3)
            assert match.rect.y_max == pytest.approx(wire.rect.y_max, abs=2e-3)
            assert match.layer == wire.layer
