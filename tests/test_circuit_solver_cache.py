"""Factorisation reuse in the circuit solvers.

The DC and transient solvers share one :class:`CachedFactorSolver`: its
Jacobian template — the binding's ``G`` and ``C`` values on the record's
fixed CSC structure — plus an LU cache keyed by the capacitance scale (0
for DC, 1/dt for backward Euler, 2/dt for trapezoidal).  These tests pin
down both the correctness (the template equals scipy's build of the
binding's triplets, cached solves equal fresh solves) and the caching
behaviour (linear circuits refactorise only when dt changes), counted
by the thread's ``solver_stats()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.circuit.dc import dc_operating_point
from repro.circuit.elements import Capacitor, Resistor, VoltageSource
from repro.circuit.mna import CachedFactorSolver, MNAAssembler, solver_stats
from repro.circuit.mosfet import MOSFET
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientOptions, TransientSolver
from repro.technology.transistors import default_n10_nmos
from tests.conftest import scipy_matrices


def rc_ladder(n: int = 50) -> Circuit:
    circuit = Circuit("ladder")
    circuit.add(VoltageSource.dc("vin", "n0", "0", 0.7))
    for index in range(n):
        circuit.add(Resistor(f"r{index}", f"n{index}", f"n{index + 1}", 100.0))
        circuit.add(Capacitor(f"c{index}", f"n{index + 1}", "0", 1e-16))
    return circuit


def nmos_divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add(VoltageSource.dc("vdd", "d", "0", 0.7))
    circuit.add(VoltageSource.dc("vg", "g", "0", 0.7))
    circuit.add(Resistor("rl", "d", "x", 5e3))
    circuit.add(MOSFET("m1", drain="x", gate="g", source="0", parameters=default_n10_nmos()))
    return circuit


def jacobian(solver: CachedFactorSolver, data: np.ndarray) -> np.ndarray:
    """Structure-aligned ``data`` as a dense matrix."""
    structure = solver.structure
    return sparse.csc_matrix(
        (data, structure.indices, structure.indptr), shape=(solver.size, solver.size)
    ).toarray()


def stamp_matrix(assembler: MNAAssembler, stamp) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (stamp.values, (stamp.rows, stamp.cols)),
        shape=(assembler.size, assembler.size),
    )


class TestJacobianTemplate:
    """The factor solver's static data on the record's Jacobian structure."""

    def test_template_reproduces_static_matrices(self):
        assembler = MNAAssembler(rc_ladder(20))
        solver = CachedFactorSolver(assembler)
        g_ref, c_ref = scipy_matrices(assembler)
        np.testing.assert_array_equal(jacobian(solver, solver.g_data), g_ref.toarray())
        dt = 1e-13
        np.testing.assert_array_equal(
            jacobian(solver, solver.static_data(1.0 / dt)),
            (g_ref + c_ref * (1.0 / dt)).toarray(),
        )

    def test_template_covers_mosfet_positions(self):
        assembler = MNAAssembler(nmos_divider())
        solver = CachedFactorSolver(assembler)
        stamp = assembler.nonlinear_stamp(np.full(assembler.size, 0.3))
        assert len(stamp.rows) == len(solver.structure.nl_positions)
        data = solver.static_data(0.0).copy()
        np.add.at(data, solver.structure.nl_positions, stamp.values)
        ref = (scipy_matrices(assembler)[0] + stamp_matrix(assembler, stamp)).toarray()
        np.testing.assert_allclose(jacobian(solver, data), ref)

    def test_duplicate_stamp_positions_accumulate(self):
        # Two stacked MOSFETs share node "m": their (s,s) and (d,d) stamps
        # land on the same matrix position and must sum, not overwrite.
        circuit = Circuit("stack")
        circuit.add(VoltageSource.dc("vdd", "d", "0", 0.7))
        circuit.add(VoltageSource.dc("vg", "g", "0", 0.7))
        nmos = default_n10_nmos()
        circuit.add(MOSFET("m1", drain="d", gate="g", source="m", parameters=nmos))
        circuit.add(MOSFET("m2", drain="m", gate="g", source="0", parameters=nmos))
        assembler = MNAAssembler(circuit)
        solver = CachedFactorSolver(assembler)
        stamp = assembler.nonlinear_stamp(np.full(assembler.size, 0.35))
        data = solver.static_data(0.0).copy()
        np.add.at(data, solver.structure.nl_positions, stamp.values)
        ref = (scipy_matrices(assembler)[0] + stamp_matrix(assembler, stamp)).toarray()
        np.testing.assert_allclose(jacobian(solver, data), ref)


def factorizations_and_solves(before) -> tuple:
    delta = solver_stats().delta_since(before)
    return delta.factorizations, delta.sparse_solves


class TestCachedFactorSolver:
    def test_linear_circuit_factorises_once_per_dt(self):
        assembler = MNAAssembler(rc_ladder(30))
        solver = CachedFactorSolver(assembler)
        stamp = assembler.nonlinear_stamp(np.zeros(assembler.size))
        rhs = np.ones(assembler.size)
        before = solver_stats().snapshot()
        first = solver.solve(1.0 / 1e-13, stamp, rhs)
        for _ in range(5):
            again = solver.solve(1.0 / 1e-13, stamp, rhs)
            np.testing.assert_array_equal(first, again)
        assert factorizations_and_solves(before) == (1, 6)
        solver.solve(1.0 / 2e-13, stamp, rhs)
        assert factorizations_and_solves(before) == (2, 7)

    def test_changed_stamp_values_refactorise(self):
        assembler = MNAAssembler(nmos_divider())
        solver = CachedFactorSolver(assembler)
        rhs = np.ones(assembler.size)
        stamp_a = assembler.nonlinear_stamp(np.full(assembler.size, 0.2))
        stamp_b = assembler.nonlinear_stamp(np.full(assembler.size, 0.5))
        before = solver_stats().snapshot()
        solver.solve(0.0, stamp_a, rhs)
        solver.solve(0.0, stamp_a, rhs)
        assert factorizations_and_solves(before) == (1, 2)
        solver.solve(0.0, stamp_b, rhs)
        assert factorizations_and_solves(before) == (2, 3)
        assert solver_stats().delta_since(before).refactorizations == 1

    def test_solution_matches_dense_solve(self):
        assembler = MNAAssembler(nmos_divider())
        solver = CachedFactorSolver(assembler)
        stamp = assembler.nonlinear_stamp(np.full(assembler.size, 0.4))
        rhs = np.arange(1.0, assembler.size + 1.0)
        dense = (scipy_matrices(assembler)[0] + stamp_matrix(assembler, stamp)).toarray()
        expected = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(solver.solve(0.0, stamp, rhs), expected, rtol=1e-9)


class TestSolverIntegration:
    def test_transient_reuses_factorisations_on_linear_ladder(self):
        options = TransientOptions(t_stop_s=1e-10, record_nodes=["n30"])
        solver = TransientSolver(rc_ladder(30), options=options)
        before = solver_stats().snapshot()
        result = solver.run()
        assert result.converged
        factorizations, solves = factorizations_and_solves(before)
        assert solves > factorizations
        # One factorisation per distinct step size, not per Newton solve.
        assert factorizations <= len(solver.solver_cache._static)

    def test_transient_matches_analytic_rc_discharge(self):
        # One-pole RC: V(t) = V0 (1 - exp(-t/RC)) with RC = 1e-11 s.
        circuit = Circuit("rc")
        circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "out", 1e4))
        circuit.add(Capacitor("c1", "out", "0", 1e-15))
        options = TransientOptions(
            t_stop_s=5e-11,
            dt_max_s=5e-13,
            method="trapezoidal",
            record_nodes=["out"],
        )
        result = TransientSolver(circuit, options=options).run()
        rc = 1e4 * 1e-15
        expected = 1.0 - np.exp(-result.times_s / rc)
        np.testing.assert_allclose(result.voltages["out"], expected, atol=5e-3)

    def test_dc_operating_point_unchanged(self):
        result = dc_operating_point(nmos_divider())
        assert result.converged
        # The on NMOS sinks current through the 5k load, dropping node x
        # measurably below the supply.
        assert 0.0 < result.voltage("x") < 0.65
