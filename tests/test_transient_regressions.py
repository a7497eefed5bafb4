"""Regression tests for the transient-solver step-budget semantics and the
reuse of one topology record's structure across same-topology solves.

The step-budget fixes guard two campaign-blocking bugs: a simulation that
reaches ``t_stop`` (or its stop condition) exactly on the ``max_steps``-th
accepted step must not raise, and rejected (non-converged, retried) steps
must not consume the budget.
"""

import numpy as np
import pytest

from repro.circuit.batch import TransientLaneSpec, batch_run_transients
from repro.circuit.dc import ConvergenceError
from repro.circuit.elements import Capacitor, Resistor, VoltageSource
from repro.circuit.mna import (
    CachedFactorSolver,
    MNAAssembler,
    MNAError,
    TopologyRecord,
)
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, TransientSolver
from repro.obs.metrics import registry


def rc_circuit(resistance_ohm: float = 1e4, capacitance_f: float = 1e-15) -> Circuit:
    circuit = Circuit("rc")
    circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", resistance_ohm))
    circuit.add(Capacitor("c1", "out", "0", capacitance_f))
    return circuit


def fixed_step_options(dt: float, n_steps: int, max_steps: int) -> TransientOptions:
    """Options that force exactly ``n_steps`` equal steps to ``t_stop``."""
    return TransientOptions(
        t_stop_s=n_steps * dt,
        dt_initial_s=dt,
        dt_min_s=dt,
        dt_max_s=dt,
        max_steps=max_steps,
        record_nodes=["out"],
    )


#: A power-of-two step keeps every fixed-step sum below exact: ``k * DT``
#: and ``t_stop - k * DT`` are representable, so the step counts asserted
#: here cannot wobble with floating-point accumulation.
DT = 2.0 ** -40


class TestStepBudget:
    def test_completion_exactly_at_max_steps_does_not_raise(self):
        options = fixed_step_options(DT, n_steps=10, max_steps=10)
        result = TransientSolver(rc_circuit(), options=options).run()
        assert result.stop_reason == "tstop"
        assert len(result.times_s) == 11            # t=0 plus 10 accepted steps
        assert result.times_s[-1] == options.t_stop_s

    def test_stop_condition_on_last_budgeted_step_does_not_raise(self):
        options = fixed_step_options(DT, n_steps=20, max_steps=5)
        result = TransientSolver(rc_circuit(), options=options).run(
            stop_condition=lambda t, v: t >= 5 * DT
        )
        assert result.stop_reason == "stop-condition"
        assert len(result.times_s) == 6

    def test_budget_exhaustion_before_t_stop_still_raises(self):
        options = fixed_step_options(DT, n_steps=20, max_steps=10)
        with pytest.raises(ConvergenceError, match="accepted steps"):
            TransientSolver(rc_circuit(), options=options).run()

    @pytest.mark.parametrize("driver", ["run", "batch_run_transients"])
    def test_rejected_steps_do_not_consume_the_budget(self, monkeypatch, driver):
        options = TransientOptions(
            t_stop_s=10 * DT,
            dt_initial_s=DT,
            dt_min_s=DT / 2.0,
            dt_max_s=DT,
            dt_shrink=0.999,                        # rejections barely shrink dt
            max_steps=14,
            record_nodes=["out"],
        )
        solver = TransientSolver(rc_circuit(), options=options)
        true_solve = CachedFactorSolver.solve
        failures = {"remaining": 8}

        def flaky_solve(self, c_factor, stamp, rhs):
            # A singular step system: the step is rejected and retried
            # at a smaller dt.
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise RuntimeError("singular step system")
            return true_solve(self, c_factor, stamp, rhs)

        monkeypatch.setattr(CachedFactorSolver, "solve", flaky_solve)
        before = registry().snapshot()
        # 8 rejections plus ~11 accepted steps complete the window; if
        # rejections consumed the budget (8 + 14 > 14) the run would abort
        # a third of the way through.
        if driver == "run":
            result, kind = solver.run(), "transient"
        else:
            (result,) = batch_run_transients([TransientLaneSpec(solver)])
            kind = "batch_transient"
        assert result.stop_reason == "tstop"
        assert failures["remaining"] == 0
        assert result.times_s[-1] == pytest.approx(options.t_stop_s)
        counters = registry().delta_since(before)["counters"]
        assert counters[("repro_solver_step_rejections_total", (("kind", kind),))] == 8


def assert_same_bits(found: np.ndarray, expected: np.ndarray) -> None:
    """Equal dtype, shape and bytes: ±0.0 and NaN payloads count too."""
    found, expected = np.asarray(found), np.asarray(expected)
    assert found.dtype == expected.dtype and found.shape == expected.shape
    assert found.tobytes() == expected.tobytes()


class TestJacobianStructureReuse:
    """Same-topology solves reuse one record's structure, with fresh-build bits."""

    def test_same_topology_reuses_structure_and_matches_fresh_build(self):
        record = TopologyRecord(rc_circuit(1e4, 1e-15))
        donor = CachedFactorSolver(record.bind(record.resistances, record.capacitances))
        reused = CachedFactorSolver(record.bind([2.3e4], [1.7e-15]))
        fresh = CachedFactorSolver(MNAAssembler(rc_circuit(2.3e4, 1.7e-15)))
        assert reused.structure is donor.structure
        assert fresh.structure is not reused.structure
        for name in ("indices", "indptr", "nl_positions"):
            assert_same_bits(
                getattr(reused.structure, name), getattr(fresh.structure, name)
            )
        for name in ("g_data", "c_data"):
            assert_same_bits(getattr(reused, name), getattr(fresh, name))

    def test_mismatched_topology_raises(self):
        record = TopologyRecord(rc_circuit())
        with pytest.raises(MNAError, match="resistors"):
            record.bind([1e4, 1e4], [1e-15])        # one resistor more
        with pytest.raises(MNAError, match="structure"):
            record.bind([1e4], [0.0])               # a zero capacitor stamps nothing

    def test_transient_results_identical_with_donated_structure(self):
        options = TransientOptions(t_stop_s=2e-11, record_nodes=["out"])
        record = TopologyRecord(rc_circuit(1e4, 1e-15))
        donor = record.bind(record.resistances, record.capacitances)
        TransientSolver(donor, options=options).run()
        plain = TransientSolver(rc_circuit(3e4, 2e-15), options=options).run()
        donated = TransientSolver(record.bind([3e4], [2e-15]), options=options).run()
        assert_same_bits(plain.times_s, donated.times_s)
        assert_same_bits(plain.voltages["out"], donated.voltages["out"])

    def test_cached_factor_solver_accepts_donor(self):
        record = TopologyRecord(rc_circuit(1e4, 1e-15))
        solver_a = CachedFactorSolver(record.bind(record.resistances, record.capacitances))
        assembler_b = record.bind([5e4], [4e-15])
        solver_b = CachedFactorSolver(assembler_b)
        assert solver_b.structure is solver_a.structure
        stamp = assembler_b.nonlinear_stamp(np.zeros(assembler_b.size))
        rhs = np.ones(assembler_b.size)
        fresh = MNAAssembler(rc_circuit(5e4, 4e-15))
        expected = CachedFactorSolver(fresh).solve(1e13, stamp, rhs)
        assert_same_bits(solver_b.solve(1e13, stamp, rhs), expected)


class TestStopConditionView:
    def test_predicate_reads_recorded_floats_and_ground(self):
        options = TransientOptions(t_stop_s=2e-11, record_nodes=["out", "0", "in"])
        seen = []

        def predicate(time_s, voltages):
            seen.append((dict(voltages), voltages["out"]))
            with pytest.raises(KeyError):
                voltages["no-such-node"]
            return False

        result = TransientSolver(rc_circuit(), options=options).run(stop_condition=predicate)
        assert len(seen) == len(result.times_s) - 1
        for step, (voltages, out) in enumerate(seen, start=1):
            assert list(voltages) == ["out", "0", "in"]
            assert type(out) is float and out == voltages["out"]
            assert voltages["0"] == 0.0
            for node in ("out", "in"):
                assert voltages[node] == result.voltages[node][step].item()
