"""Tests of solver-error classification and the typed ItemFailure record.

The acceptance bar: the real solver failure modes — transient step-budget
exhaustion, step-size underflow, DC non-convergence — classify into the
stable category strings that drive retry decisions and partial-result
reporting, and the ItemFailure record round-trips losslessly through its
dict/record forms.
"""

from __future__ import annotations

import math
import re
import time

import pytest

from repro.circuit.batch import OperatingPointLaneSpec, batch_dc_operating_points
from repro.circuit.dc import (
    ConvergenceError,
    NewtonOptions,
    dc_operating_point,
    rescue_level,
    solver_rescue,
)
from repro.circuit.elements import Capacitor, CurrentSource, Resistor, VoltageSource
from repro.circuit.mna import CachedFactorSolver, DenseSystem, MNAError
from repro.circuit.mosfet import MOSFET
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, run_transient
from repro.core.failures import (
    FAILURE_POLICIES,
    ItemFailure,
    ItemTimeoutError,
    classify_error,
    item_deadline,
)
from repro.testing import InjectedSolverFault
from repro.technology.transistors import default_n10_nmos


def rc_circuit(resistance=1000.0, capacitance=1e-12, v0=1.0):
    circuit = Circuit("rc-decay")
    circuit.add(Resistor("r", "node", "0", resistance))
    circuit.add(Capacitor("c", "node", "0", capacitance, initial_voltage_v=v0))
    circuit.add(CurrentSource.dc("ibias", "node", "0", 0.0))
    return circuit


def nmos_circuit(vdd=0.7):
    """A nonlinear circuit: resistor-loaded NMOS, needs Newton to solve."""
    circuit = Circuit("nmos-load")
    circuit.add(VoltageSource.dc("vdd", "vdd", "0", vdd))
    circuit.add(Resistor("rload", "vdd", "drain", 10e3))
    circuit.add(VoltageSource.dc("vg", "gate", "0", vdd))
    circuit.add(MOSFET("m1", "drain", "gate", "0", default_n10_nmos()))
    return circuit


class TestClassifyRealSolverErrors:
    def test_step_budget_exhaustion_classifies(self):
        tau = 1e-9
        options = TransientOptions(
            t_stop_s=10 * tau,
            dt_initial_s=tau / 1000,
            dt_max_s=tau / 1000,
            max_steps=5,
        )
        with pytest.raises(ConvergenceError) as excinfo:
            run_transient(rc_circuit(), options=options)
        assert classify_error(excinfo.value) == "step_budget"

    def test_dc_rescue_ladder_exhaustion_classifies(self):
        # One Newton iteration per ladder stage cannot solve a nonlinear
        # circuit; the final error is the DC fold's exhaustion message.
        options = NewtonOptions(max_iterations=1)
        with pytest.raises(ConvergenceError) as excinfo:
            dc_operating_point(nmos_circuit(), options=options)
        assert "DC operating point" in str(excinfo.value)
        assert classify_error(excinfo.value) == "dc_convergence"
        # The message carries the residual of the last solve of the
        # original system, which plain Newton always makes: finite.
        residual = re.search(r"last max residual (\S+) A", str(excinfo.value))
        assert math.isfinite(float(residual.group(1)))
        # The lockstep engine walks the same ladder to the same message.
        (outcome,) = batch_dc_operating_points(
            [OperatingPointLaneSpec(nmos_circuit(), options=options)]
        )
        assert isinstance(outcome, ConvergenceError)
        assert str(outcome) == str(excinfo.value)

    def test_singular_messages_and_mna_errors_classify(self):
        singular = ConvergenceError(
            "DC operating point did not converge after a singular Jacobian "
            "was encountered (last max residual 1.0e-03 A)"
        )
        assert classify_error(singular) == "singular_jacobian"
        assert classify_error(MNAError("unknown node 'x'")) == "singular_jacobian"

    def test_step_underflow_and_generic_convergence(self):
        underflow = ConvergenceError(
            "transient step size fell below the minimum step size 1e-18 s"
        )
        assert classify_error(underflow) == "step_underflow"
        assert classify_error(ConvergenceError("Newton stalled")) == "convergence"

    def test_timeout_injected_and_unexpected(self):
        assert classify_error(ItemTimeoutError("deadline")) == "timeout"
        assert classify_error(InjectedSolverFault("synthetic")) == "injected"
        assert classify_error(ZeroDivisionError("x/0")) == "unexpected"


def expire_on_first_call(monkeypatch, cls, name):
    """Make the first ``cls.name`` call raise as an expiring deadline does."""
    original = getattr(cls, name)
    calls = []

    def expiring(self, *args, **kwargs):
        calls.append(name)
        if len(calls) == 1:
            raise ItemTimeoutError("work item exceeded its deadline")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, expiring)
    return calls


class TestItemDeadline:
    def test_deadline_interrupts_overrun(self):
        with pytest.raises(ItemTimeoutError):
            with item_deadline(0.05):
                time.sleep(2.0)

    def test_no_timeout_is_a_noop(self):
        with item_deadline(None):
            pass
        with item_deadline(0.0):
            pass

    def test_fast_body_passes_and_alarm_is_cleared(self):
        with item_deadline(5.0):
            pass
        time.sleep(0.01)  # a leaked alarm would fire here

    # The solvers read a RuntimeError from a linear solve (splu's "exactly
    # singular") as a failed step and carry on; an alarm that lands inside
    # the solve must end the analysis instead.

    def test_deadline_inside_a_transient_solve_propagates(self, monkeypatch):
        calls = expire_on_first_call(monkeypatch, CachedFactorSolver, "solve")
        options = TransientOptions(t_stop_s=1e-9, dt_initial_s=1e-11, dt_max_s=1e-11)
        with pytest.raises(ItemTimeoutError):
            run_transient(rc_circuit(), options=options, initial_voltages={"node": 1.0})
        assert len(calls) == 1

    def test_deadline_inside_a_dc_solve_propagates(self, monkeypatch):
        calls = expire_on_first_call(monkeypatch, DenseSystem, "solve")
        with pytest.raises(ItemTimeoutError):
            dc_operating_point(nmos_circuit())
        assert len(calls) == 1


class TestSolverRescue:
    def test_rescue_level_defaults_to_zero_and_nests(self):
        assert rescue_level() == 0
        with solver_rescue(2, seed=7):
            assert rescue_level() == 2
            with solver_rescue(3, seed=7):
                assert rescue_level() == 3
            assert rescue_level() == 2
        assert rescue_level() == 0

    def test_rescue_level_zero_is_bit_identical(self):
        result = dc_operating_point(nmos_circuit())
        with solver_rescue(0, seed=123):
            rescued = dc_operating_point(nmos_circuit())
        assert rescued.voltages == result.voltages


class TestItemFailure:
    def test_round_trip(self):
        failure = ItemFailure(
            key="n16-nominal-read",
            classification="step_budget",
            error_type="ConvergenceError",
            message="transient exceeded 5 accepted steps",
            attempts=3,
            stage="solver",
        )
        assert ItemFailure.from_dict(failure.to_dict()) == failure
        record = failure.to_record()
        assert record["record"] == "failure"
        assert record["key"] == failure.key
        assert record["classification"] == "step_budget"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ItemFailure.from_dict({"key": "k", "bogus": 1})

    def test_from_exception_classifies_and_truncates(self):
        error = ConvergenceError("x" * 2000 + " accepted steps")
        failure = ItemFailure.from_exception("item", error, attempts=2)
        assert failure.error_type == "ConvergenceError"
        assert failure.attempts == 2
        assert len(failure.message) == 500

    def test_policy_vocabulary_is_stable(self):
        assert FAILURE_POLICIES == ("fail_fast", "skip", "retry")
