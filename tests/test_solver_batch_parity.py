"""Parity of the batched circuit-solver tier against the one-lane drivers.

The batched tier (repro.circuit.batch) stacks same-topology Newton and
transient work from many campaign items into jointly-vectorized solves.
Its contract is parity by construction: every record must match the
one-item-at-a-time path bit-for-bit (``rtol <= 1e-12`` with zero atol,
which in practice means exact equality — the two paths share the
elementwise numerics).  Covered here:

- DC-sweep lanes (the SNM butterfly hot path) at batch sizes 1/3/17/64,
  including a rescue-ladder-in-lockstep batch (starved Newton budget)
  and the explicit scalar fallback under an active rescue context;
- operating-point lanes whose singular Jacobian and update-size
  convergence check land on the same lockstep tick, and device-free
  (linear) DC lanes;
- transient lanes (read and write measurements) through the
  prepare/finish entry points, and the isolation of a transient lane
  whose stop condition raises;
- the full campaign across all four operations and every paper
  patterning option, the joint solve vs the per-item path a deadline
  selects, record for record.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuit.batch import (
    OperatingPointLaneSpec,
    SweepLaneSpec,
    batch_dc_operating_points,
    batch_dc_sweep,
    batch_run_transients,
    run_lane_scalar,
    solve_prepared,
)
from repro.circuit.dc import ConvergenceError, NewtonOptions, solver_rescue
from repro.circuit.elements import Resistor, VoltageSource
from repro.circuit.mna import reset_solver_stats, solver_stats
from repro.circuit.mosfet import MOSFET
from repro.circuit.netlist import Circuit
from repro.core.campaign import SimulationCampaign, scenario_grid
from repro.core.operations import OperationSimulators, create_operation
from repro.core.study import StudyDOE
from repro.technology import n10
from repro.technology.transistors import default_n10_nmos, default_n10_pmos

RTOL = 1e-12

#: Batch sizes: a singleton, a couple of odd sizes that exercise ragged
#: bucket shapes, and one full-width batch.
BATCH_SIZES = (1, 3, 17, 64)

OPERATIONS = ("read", "write", "hold_snm", "read_snm")

#: A per-item deadline that never fires: it selects the campaign's
#: one-item-at-a-time path for attempt 0 without ever cutting a solve.
PER_ITEM_DEADLINE_S = 3600.0


@pytest.fixture(scope="module")
def node():
    return n10()


@pytest.fixture(scope="module")
def sims(node):
    return OperationSimulators(node, n_bitline_pairs=4, max_segments=64)


def _butterfly_pool(sims):
    """The distinct butterfly sweep lanes: every mode at two cell counts."""
    pool = []
    for n_cells, mode in ((16, "hold"), (16, "read"), (64, "hold"), (64, "read")):
        pool.extend(sims.margins._prepare_butterfly(n_cells, mode=mode).lanes)
    return pool


def _butterfly_lanes(sims, count):
    """``count`` butterfly sweep lanes cycling over mode and cell count."""
    pool = _butterfly_pool(sims)
    return [pool[i % len(pool)] for i in range(count)]


@pytest.fixture(scope="module")
def butterfly_references(sims):
    """The distinct butterfly lanes and their one-lane driver outcomes."""
    pool = _butterfly_pool(sims)
    return pool, [run_lane_scalar(lane) for lane in pool]


def _assert_sweep_equal(batched, scalar):
    assert batched.source_name == scalar.source_name
    assert batched.iterations_total == scalar.iterations_total
    np.testing.assert_allclose(
        np.asarray(batched.values), np.asarray(scalar.values), rtol=RTOL, atol=0.0
    )
    assert set(batched.voltages) == set(scalar.voltages)
    for name in scalar.voltages:
        np.testing.assert_allclose(
            batched.voltages[name], scalar.voltages[name], rtol=RTOL, atol=0.0
        )


class TestSweepLaneParity:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_butterfly_sweeps_match_scalar(self, butterfly_references, size):
        # Lane i is a copy of pool lane i % len(pool), so every lockstep
        # outcome is checked against its lane's one-lane reference.
        pool, references = butterfly_references
        lanes = [pool[i % len(pool)] for i in range(size)]
        batched = batch_dc_sweep(lanes)
        for index, outcome in enumerate(batched):
            _assert_sweep_equal(outcome, references[index % len(pool)])

    def test_rescue_ladder_in_lockstep(self, sims):
        # A starved Newton budget forces sweep points through the rescue
        # ladder inside the batch; the scalar path is starved identically,
        # so the escalation schedule — and therefore every voltage — must
        # still agree bit for bit.
        starved = NewtonOptions(max_iterations=4, abs_tolerance_a=1e-8)
        lanes = [
            replace(lane, options=starved) for lane in _butterfly_lanes(sims, 6)
        ]
        batched = batch_dc_sweep(lanes)
        for lane, outcome in zip(lanes, batched):
            _assert_sweep_equal(outcome, run_lane_scalar(lane))

    def test_active_rescue_context_runs_lockstep(self, sims):
        # Under an escalation each lane's ladder targets carry the scaled
        # iteration budget and its continuation points the caller's
        # options; the lockstep slots take each target's options.
        lanes = _butterfly_lanes(sims, 3)
        reset_solver_stats()
        with solver_rescue(2, seed=7):
            batched = batch_dc_sweep(lanes)
            stats = solver_stats().snapshot()
            scalars = [run_lane_scalar(lane) for lane in lanes]
        assert stats.scalar_fallbacks == 0
        assert stats.batch_lanes == len(lanes)
        for outcome, scalar in zip(batched, scalars):
            _assert_sweep_equal(outcome, scalar)


def _floating_gate_inverter():
    """An inverter whose input node touches only the two gates."""
    circuit = Circuit("floating-gate-inverter")
    circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
    circuit.add(MOSFET("mp", "out", "in", "vdd", default_n10_pmos()))
    circuit.add(MOSFET("mn", "out", "in", "0", default_n10_nmos()))
    circuit.add(Resistor("rload", "out", "0", 100e3))
    return circuit


class TestOperatingPointLaneIsolation:
    def test_singular_and_update_checked_lanes_in_one_tick(self):
        # At gmin 0 the input row of the first lane is empty, so every
        # Newton iteration before the pseudo-transient rung hits a
        # singular Jacobian.  The second lane can never pass the residual
        # test (zero tolerance), so it takes the update-size check on the
        # same ticks.  Both must come out as they do one lane at a time.
        circuit = _floating_gate_inverter()
        lanes = [
            OperatingPointLaneSpec(circuit, gmin_s=0.0),
            OperatingPointLaneSpec(
                circuit, options=NewtonOptions(abs_tolerance_a=0.0, max_iterations=20)
            ),
        ]
        singular, exhausted = batch_dc_operating_points(lanes)
        alone = run_lane_scalar(lanes[0])
        assert singular.iterations == alone.iterations
        assert singular.voltages == alone.voltages
        with pytest.raises(ConvergenceError) as raised:
            run_lane_scalar(lanes[1])
        assert type(exhausted) is ConvergenceError
        assert str(exhausted) == str(raised.value)


def _divider():
    """A resistive divider: a DC lane with no MOSFET to stamp."""
    circuit = Circuit("divider")
    circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
    circuit.add(Resistor("r1", "vdd", "mid", 1e3))
    circuit.add(Resistor("r2", "mid", "0", 3e3))
    return circuit


class TestDeviceFreeLanes:
    def test_linear_lanes_match_scalar(self):
        points = [
            OperatingPointLaneSpec(_divider()),
            OperatingPointLaneSpec(_divider(), gmin_s=1e-9),
        ]
        for lane, outcome in zip(points, batch_dc_operating_points(points)):
            alone = run_lane_scalar(lane)
            assert outcome.iterations == alone.iterations
            assert outcome.voltages == alone.voltages
        sweeps = [SweepLaneSpec(_divider(), "vdd", [0.0, 0.35, 0.7])]
        for lane, outcome in zip(sweeps, batch_dc_sweep(sweeps)):
            _assert_sweep_equal(outcome, run_lane_scalar(lane))


class TestTransientLaneIsolation:
    def test_raising_stop_condition_fails_only_its_lane(self, node):
        def read_lanes():
            sims = OperationSimulators(node, n_bitline_pairs=4)
            read = create_operation("read")
            (first,) = read.prepare_nominal(sims, 16, stored_value=0).lanes
            (second,) = read.prepare_nominal(sims, 16, stored_value=1).lanes
            return first, replace(
                second, stop_condition=lambda _t, voltages: voltages["no-such-node"] > 0.0
            )

        outcomes = batch_run_transients(list(read_lanes()))
        assert isinstance(outcomes[1], KeyError)
        batched = outcomes[0]
        alone = run_lane_scalar(read_lanes()[0])
        assert batched.stop_reason == alone.stop_reason
        np.testing.assert_array_equal(batched.times_s, alone.times_s)
        assert batched.nodes == alone.nodes
        for name in alone.nodes:
            np.testing.assert_array_equal(batched.voltage(name), alone.voltage(name))


class TestPreparedMeasurementParity:
    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_prepared_batch_matches_scalar_run(self, node, operation):
        # Two independent simulator bundles so neither tier sees the
        # other's memo caches or column records.
        scalar_sims = OperationSimulators(node, n_bitline_pairs=4)
        batched_sims = OperationSimulators(node, n_bitline_pairs=4)

        def prepare(sims):
            if operation in ("read", "write"):
                return [
                    create_operation(operation).prepare_nominal(sims, 16, stored_value=v)
                    for v in (0, 1)
                ]
            # The margin analyzer's own measurement, so both lobes are compared.
            mode = "hold" if operation == "hold_snm" else "read"
            return [sims.margins.prepare_measure(n, mode=mode) for n in (16, 64)]

        scalar_results = [work.run_scalar() for work in prepare(scalar_sims)]
        batched_results = solve_prepared(prepare(batched_sims))
        assert len(batched_results) == len(scalar_results)
        for batched, scalar in zip(batched_results, scalar_results):
            assert not isinstance(batched, BaseException)
            assert batched == scalar

    def test_memo_hit_prepares_zero_lanes(self, node):
        sims = OperationSimulators(node, n_bitline_pairs=4)
        read = create_operation("read")
        first = read.prepare_nominal(sims, 16, stored_value=0)
        assert first.lanes
        measurement = first.run_scalar()
        hit = read.prepare_nominal(sims, 16, stored_value=0)
        assert not hit.lanes
        (cached,) = solve_prepared([hit])
        assert cached == measurement


class TestCampaignParity:
    @pytest.mark.parametrize("size", (16, 64))
    def test_all_operations_and_options_match_scalar(self, node, size):
        doe = StudyDOE(array_sizes=(size,))
        scenarios = scenario_grid(operations=OPERATIONS)
        scalar = SimulationCampaign(
            node, doe=doe, scenarios=scenarios, item_timeout_s=PER_ITEM_DEADLINE_S
        ).run()
        batched = SimulationCampaign(node, doe=doe, scenarios=scenarios).run()
        assert not scalar.failures and not batched.failures
        scalar_by_key = {r.key: r for r in scalar.records}
        assert set(scalar_by_key) == {r.key: r for r in batched.records}.keys()
        # Every paper option appears as a corner record.
        assert {r.option_name for r in batched.records if r.kind == "corner"} >= {
            "LELELE",
            "SADP",
            "EUV",
        }
        assert all(r.solver == "scalar" for r in scalar.records)
        for record in batched.records:
            assert replace(record, wall_s=0.0) == replace(
                scalar_by_key[record.key], wall_s=0.0
            )

    def test_batched_records_carry_provenance(self, node):
        campaign = SimulationCampaign(
            node,
            doe=StudyDOE(array_sizes=(16,)),
            scenarios=scenario_grid(operations=("read_snm",)),
        )
        results = campaign.run()
        assert results.records
        for record in results.records:
            assert record.solver == "batched"
            assert record.batch_size >= 1
        assert campaign.last_run_stats.get("batch_lane_iterations", 0) > 0

    def test_singleton_batch(self, node):
        doe = StudyDOE(array_sizes=(16,))
        scenarios = scenario_grid(operations=("write",))
        scalar = SimulationCampaign(
            node, doe=doe, scenarios=scenarios, item_timeout_s=PER_ITEM_DEADLINE_S
        ).run(kinds=("nominal",))
        batched = SimulationCampaign(node, doe=doe, scenarios=scenarios).run(
            kinds=("nominal",)
        )
        (a,) = scalar.records
        (b,) = batched.records
        assert b.batch_size == 1
        assert replace(a, wall_s=0.0) == replace(b, wall_s=0.0)
