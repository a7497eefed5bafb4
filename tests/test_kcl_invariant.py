"""Converged DC solutions satisfy Kirchhoff's current law, checked from the netlist.

The solver's own convergence test looks at the MNA residual it assembled.
This suite recomputes the current balance independently — resistor
currents by Ohm's law, ``MOSFET.drain_current_a`` at the solved voltages
and the gmin leak to ground — at every node not tied to a voltage source
(a source's branch current balances its nodes, so KCL says nothing there).
Every point of the butterfly and write-margin sweeps, and their first
operating points, must balance to within ten times the absolute Newton
tolerance, the solver's own secondary acceptance.  Both drivers are
checked: the one-lane entry points and the lockstep engines.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.circuit.batch import (
    OperatingPointLaneSpec,
    SweepLaneSpec,
    batch_dc_operating_points,
    batch_dc_sweep,
    run_lane_scalar,
)
from repro.circuit.dc import NewtonOptions
from repro.circuit.elements import CurrentSource, Resistor, VoltageSource
from repro.circuit.mosfet import MOSFET
from repro.circuit.netlist import Circuit, is_ground
from repro.core.operations import OperationSimulators
from repro.technology import n10


def kcl_balance(
    circuit: Circuit, voltages: Dict[str, float], gmin_s: float
) -> Dict[str, float]:
    """Net current leaving each node not tied to a voltage source (A)."""
    assert not list(circuit.elements_of_type(CurrentSource))
    tied = {
        node
        for source in circuit.elements_of_type(VoltageSource)
        for node in (source.positive, source.negative)
    }

    def v(node: str) -> float:
        return 0.0 if is_ground(node) else voltages[node]

    balance = {node: gmin_s * v(node) for node in voltages if node not in tied}

    def leaves(node: str, current: float) -> None:
        if node in balance:
            balance[node] += current

    for resistor in circuit.elements_of_type(Resistor):
        current = (v(resistor.positive) - v(resistor.negative)) / resistor.resistance_ohm
        leaves(resistor.positive, current)
        leaves(resistor.negative, -current)
    for device in circuit.elements_of_type(MOSFET):
        current = device.drain_current_a(v(device.drain), v(device.gate), v(device.source))
        leaves(device.drain, current)
        leaves(device.source, -current)
    return balance


@pytest.fixture(scope="module")
def sweep_lanes() -> List[SweepLaneSpec]:
    """Hold/read butterfly VTC sweeps and write-margin sweeps, 16 cells."""
    sims = OperationSimulators(n10(), n_bitline_pairs=4)
    lanes: List[SweepLaneSpec] = []
    for mode in ("hold", "read"):
        lanes.extend(sims.margins._prepare_butterfly(16, mode=mode).lanes)
    write = sims.write
    vdd = n10().operating_conditions.vdd_v
    for write_value in (0, 1):
        circuit, initial = write._build_margin_circuit(
            16, write.column_parasitics(16), write_value
        )
        lanes.append(
            SweepLaneSpec(
                circuit,
                "vwrite",
                np.linspace(vdd, 0.0, write.MARGIN_SWEEP_POINTS),
                initial_voltages=initial,
                options=write.DC_SWEEP_NEWTON,
            )
        )
    return lanes


def _first_points(lanes: List[SweepLaneSpec]) -> List[OperatingPointLaneSpec]:
    return [
        OperatingPointLaneSpec(
            lane.circuit,
            initial_voltages=lane.initial_voltages,
            options=lane.options,
            gmin_s=lane.gmin_s,
            source_overrides={lane.source_name: float(lane.values[0])},
        )
        for lane in lanes
    ]


def _assert_balanced(circuit, voltages, gmin_s, options, where):
    limit = 10.0 * (options or NewtonOptions()).abs_tolerance_a
    balance = kcl_balance(circuit, voltages, gmin_s)
    assert balance, f"{where}: no free node to check"
    worst = max(balance, key=lambda node: abs(balance[node]))
    assert abs(balance[worst]) < limit, (
        f"{where}: KCL off by {balance[worst]:.3e} A at node {worst!r}"
    )


@pytest.mark.parametrize("driver", ["one_lane", "lockstep"])
def test_sweep_points_satisfy_kcl(sweep_lanes, driver):
    if driver == "one_lane":
        results = [run_lane_scalar(lane) for lane in sweep_lanes]
    else:
        results = batch_dc_sweep(sweep_lanes)
    for index, (lane, result) in enumerate(zip(sweep_lanes, results)):
        assert not isinstance(result, BaseException), result
        for point in range(len(result.values)):
            voltages = {node: float(v[point]) for node, v in result.voltages.items()}
            _assert_balanced(
                lane.circuit,
                voltages,
                lane.gmin_s,
                lane.options,
                f"{driver} lane {index} point {point}",
            )


@pytest.mark.parametrize("driver", ["one_lane", "lockstep"])
def test_operating_points_satisfy_kcl(sweep_lanes, driver):
    lanes = _first_points(sweep_lanes)
    if driver == "one_lane":
        results = [run_lane_scalar(lane) for lane in lanes]
    else:
        results = batch_dc_operating_points(lanes)
    for index, (lane, result) in enumerate(zip(lanes, results)):
        assert not isinstance(result, BaseException), result
        assert result.converged
        _assert_balanced(
            lane.circuit, result.voltages, lane.gmin_s, lane.options,
            f"{driver} operating point {index}",
        )


def test_an_unconverged_point_breaks_the_balance(sweep_lanes):
    # The check has teeth: nudging one free node of a converged solution
    # by 10 mV must violate KCL at the checked tolerance.
    lane = _first_points(sweep_lanes)[0]
    result = run_lane_scalar(lane)
    balance = kcl_balance(lane.circuit, result.voltages, lane.gmin_s)
    node = sorted(balance)[0]
    nudged = dict(result.voltages, **{node: result.voltages[node] + 0.01})
    with pytest.raises(AssertionError, match="KCL off"):
        _assert_balanced(lane.circuit, nudged, lane.gmin_s, lane.options, "nudged")
