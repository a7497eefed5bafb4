"""Transient RC ladders against their closed forms: τ·ln 2 and the Elmore bound.

Every capacitor starts at 1 V and discharges through a DC source held at
0 V at the near end, which by linearity is the step response of the
ladder.  With the step ``dt_max_s`` capped at τ/200 of one section:

* a single section crosses 50% at τ·ln 2 (to within 1%);
* the far end of a uniform N-section ladder crosses 50% between ln 2
  and 1.0 times its Elmore delay ``R·C·N(N+1)/2``.  For an RC tree the
  Elmore delay is an upper bound on the 50% delay (Gupta et al., IEEE
  TCAD 1997); the distributed line sits near 0.76 of it, well above the
  single-pole ratio ln 2.

Both drivers are checked: ``TransientSolver.run`` and the lockstep
``batch_run_transients`` must produce bit-identical waveforms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit.batch import TransientLaneSpec, batch_run_transients
from repro.circuit.elements import Capacitor, Resistor, VoltageSource
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, TransientSolver

R_OHM = 1e3
C_F = 1e-15
TAU_S = R_OHM * C_F


def ladder(sections: int) -> Circuit:
    """``src`` (0 V) → R → n1 → R → … → n<sections>, each node with C to ground."""
    circuit = Circuit(f"rc-ladder-{sections}")
    circuit.add(VoltageSource.dc("vs", "src", "0", 0.0))
    previous = "src"
    for k in range(1, sections + 1):
        circuit.add(Resistor(f"r{k}", previous, f"n{k}", R_OHM))
        circuit.add(Capacitor(f"c{k}", f"n{k}", "0", C_F))
        previous = f"n{k}"
    return circuit


def discharge(sections: int, driver: str):
    """The ladder's discharge from 1 V, stopped once the far end is below 50%."""
    far = f"n{sections}"
    elmore_s = TAU_S * sections * (sections + 1) / 2.0
    options = TransientOptions(
        t_stop_s=4.0 * elmore_s,
        dt_initial_s=TAU_S / 2000.0,
        dt_min_s=TAU_S / 1e6,
        dt_max_s=TAU_S / 200.0,
    )
    solver = TransientSolver(ladder(sections), options=options)
    initial = {f"n{k}": 1.0 for k in range(1, sections + 1)}

    def stop(_time_s, voltages):
        return voltages[far] < 0.5

    if driver == "one_lane":
        return solver.run(initial_voltages=initial, stop_condition=stop)
    (outcome,) = batch_run_transients(
        [TransientLaneSpec(solver, initial_voltages=initial, stop_condition=stop)]
    )
    assert not isinstance(outcome, BaseException), outcome
    return outcome


def far_end_crossing_s(result, sections: int) -> float:
    crossing = result.crossing_time_s(f"n{sections}", 0.5, direction="falling")
    assert crossing is not None
    return crossing


DRIVERS = ("one_lane", "lockstep")


@pytest.fixture(scope="module")
def one_section():
    return {driver: discharge(1, driver) for driver in DRIVERS}


@pytest.fixture(scope="module")
def sixteen_sections():
    return {driver: discharge(16, driver) for driver in DRIVERS}


def test_single_section_crosses_half_at_tau_ln2(one_section):
    crossing = far_end_crossing_s(one_section["one_lane"], 1)
    assert crossing == pytest.approx(TAU_S * math.log(2.0), rel=0.01)


def test_ladder_far_end_lies_below_its_elmore_delay(sixteen_sections):
    elmore_s = TAU_S * 16 * 17 / 2.0
    ratio = far_end_crossing_s(sixteen_sections["one_lane"], 16) / elmore_s
    assert math.log(2.0) < ratio < 1.0


@pytest.mark.parametrize("case", ["one_section", "sixteen_sections"])
def test_both_drivers_produce_identical_waveforms(case, request):
    results = request.getfixturevalue(case)
    one_lane, lockstep = results["one_lane"], results["lockstep"]
    assert one_lane.stop_reason == lockstep.stop_reason == "stop-condition"
    np.testing.assert_array_equal(lockstep.times_s, one_lane.times_s)
    assert lockstep.nodes == one_lane.nodes
    for node in one_lane.nodes:
        np.testing.assert_array_equal(
            lockstep.voltage(node), one_lane.voltage(node)
        )
