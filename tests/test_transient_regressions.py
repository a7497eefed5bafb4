"""Regression tests for the transient-solver step-budget semantics and the
Jacobian-template structure reuse.

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
from repro.circuit.mna import CachedFactorSolver, JacobianTemplate, MNAAssembler
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


class TestJacobianStructureReuse:
    def test_same_topology_reuses_structure_and_matches_fresh_build(self):
        base = MNAAssembler(rc_circuit(1e4, 1e-15))
        donor = JacobianTemplate(base)
        varied = MNAAssembler(rc_circuit(2.3e4, 1.7e-15))
        reused = JacobianTemplate(varied, like=donor)
        fresh = JacobianTemplate(varied)
        assert reused.structure_reused
        assert not fresh.structure_reused
        np.testing.assert_array_equal(reused.indices, fresh.indices)
        np.testing.assert_array_equal(reused.indptr, fresh.indptr)
        np.testing.assert_array_equal(reused.g_data, fresh.g_data)
        np.testing.assert_array_equal(reused.c_data, fresh.c_data)
        np.testing.assert_array_equal(reused.nl_positions, fresh.nl_positions)

    def test_mismatched_topology_falls_back_to_full_build(self):
        donor = JacobianTemplate(MNAAssembler(rc_circuit()))
        other = Circuit("bigger")
        other.add(VoltageSource.dc("vin", "in", "0", 1.0))
        other.add(Resistor("r1", "in", "mid", 1e4))
        other.add(Resistor("r2", "mid", "out", 1e4))
        other.add(Capacitor("c1", "out", "0", 1e-15))
        template = JacobianTemplate(MNAAssembler(other), like=donor)
        assert not template.structure_reused
        reference = JacobianTemplate(MNAAssembler(other))
        np.testing.assert_array_equal(template.indices, reference.indices)
        np.testing.assert_array_equal(template.g_data, reference.g_data)

    def test_transient_results_identical_with_donated_structure(self):
        options = TransientOptions(t_stop_s=2e-11, record_nodes=["out"])
        donor_solver = TransientSolver(rc_circuit(1e4, 1e-15), options=options)
        donor_solver.run()
        varied = rc_circuit(3e4, 2e-15)
        plain = TransientSolver(varied, options=options).run()
        donated = TransientSolver(
            varied,
            options=options,
            jacobian_like=donor_solver.solver_cache.template,
        ).run()
        np.testing.assert_array_equal(plain.times_s, donated.times_s)
        np.testing.assert_array_equal(plain.voltages["out"], donated.voltages["out"])

    def test_cached_factor_solver_accepts_donor(self):
        assembler_a = MNAAssembler(rc_circuit(1e4, 1e-15))
        solver_a = CachedFactorSolver(assembler_a)
        assembler_b = MNAAssembler(rc_circuit(5e4, 4e-15))
        solver_b = CachedFactorSolver(assembler_b, like=solver_a.template)
        assert solver_b.template.structure_reused
        stamp = assembler_b.nonlinear_stamp(np.zeros(assembler_b.size))
        rhs = np.ones(assembler_b.size)
        expected = CachedFactorSolver(assembler_b).solve(1e13, stamp, rhs)
        np.testing.assert_array_equal(solver_b.solve(1e13, stamp, rhs), expected)
