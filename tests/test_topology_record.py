"""Topology records: a bound column equals a from-scratch assembly, bit for bit.

The read and write simulators build one circuit per column shape and bind
every further column to its record.  For random positive R/C/rail ratios
on read and write columns (16 and 64 cells, both stored or written
values), the bound assembler must equal ``MNAAssembler`` of a freshly
built netlist in every array the solvers read — the ``G`` and ``C``
values and layout, the factor solver's Jacobian data, the device batch
plan and the source vector — and both must equal scipy's per-element
build (:func:`tests.conftest.scipy_matrices`): the ``G``/``C`` values,
``G·x``, ``C·x`` and the factor solver's static data.  A value set that
would change the structure must raise.  The device stamp, scattered
through the record's batch plan, must equal the per-device loop it
replaced.  A bound transient lane builds no CSR or COO matrix, and a
one-lane DC sweep or a batch fallback lane assembles its circuit once.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scipy import sparse
from scipy.sparse._base import _spbase

from repro.circuit.batch import (
    OperatingPointLaneSpec,
    SweepLaneSpec,
    batch_dc_operating_points,
    batch_dc_sweep,
)
from repro.circuit.dc import dc_sweep
from repro.circuit.elements import Capacitor, ElementError, Resistor, VoltageSource
from repro.circuit.mna import (
    DENSE_SOLVER_MAX_UNKNOWNS,
    CachedFactorSolver,
    MNAAssembler,
    MNAError,
    TopologyRecord,
    solver_stats,
)
from repro.circuit.netlist import Circuit
from repro.core.operations import OperationSimulators
from repro.technology import n10
from tests.conftest import scipy_matrices

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ratios = st.floats(min_value=0.2, max_value=5.0)
columns = st.tuples(
    st.sampled_from(["read", "write"]), st.sampled_from([16, 64]), st.sampled_from([0, 1])
)


@pytest.fixture(scope="module")
def sims():
    return OperationSimulators(n10(), n_bitline_pairs=4)


def assert_same_bits(found, expected, what: str) -> None:
    found, expected = np.asarray(found), np.asarray(expected)
    assert found.dtype == expected.dtype, what
    assert found.shape == expected.shape, what
    assert found.tobytes() == expected.tobytes(), what


def simulator(sims: OperationSimulators, kind: str):
    return sims.read if kind == "read" else sims.write


def bound_and_fresh(sims, kind, n_cells, value, column):
    """The lane assembler of ``column`` and ``MNAAssembler`` of its netlist."""
    sim = simulator(sims, kind)
    prepared = sim.prepare_simulate_column(n_cells, column, "probe", value)
    (lane,) = prepared.lanes
    fresh = MNAAssembler(sim.build_circuit(n_cells, column, value).circuit)
    return lane.solver.assembler, fresh


def jacobian(solver: CachedFactorSolver, data: np.ndarray) -> sparse.csc_matrix:
    """Structure-aligned ``data`` as the CSC matrix the solver factors."""
    structure = solver.structure
    return sparse.csc_matrix(
        (data, structure.indices, structure.indptr), shape=(solver.size, solver.size)
    )


def assert_matches_scipy(assembler: MNAAssembler) -> None:
    """Values, products and factor-solver data equal scipy's build of the triplets."""
    g_ref, c_ref = scipy_matrices(assembler)
    structure = assembler.structure()
    for name, values, rows, cols, ref in (
        ("G", assembler.g_values, structure.g_rows, structure.g_cols, g_ref),
        ("C", assembler.c_values, structure.c_rows, structure.c_cols, c_ref),
    ):
        assert_same_bits(values, ref.data, f"{name} values")
        assert np.array_equal(cols, ref.indices), f"{name} columns"
        assert np.array_equal(np.diff(ref.indptr), np.bincount(rows, minlength=assembler.size))
    x = np.random.default_rng(7).uniform(-1.0, 1.0, assembler.size)
    assert_same_bits(assembler.g_dot(x), g_ref.dot(x), "G·x")
    assert_same_bits(assembler.c_dot(x), c_ref.dot(x), "C·x")
    solver = CachedFactorSolver(assembler)
    assert_same_bits(
        jacobian(solver, solver.static_data(0.0)).toarray(), g_ref.toarray(), "G data"
    )
    assert_same_bits(
        jacobian(solver, solver.static_data(1e13)).toarray(),
        (g_ref + 1e13 * c_ref).toarray(),
        "G + C/dt data",
    )


def assert_same_assembly(bound: MNAAssembler, fresh: MNAAssembler) -> None:
    for name in ("g_values", "c_values"):
        assert_same_bits(getattr(bound, name), getattr(fresh, name), name)
    found, expected = bound.structure(), fresh.structure()
    for name in ("g_rows", "g_cols", "c_rows", "c_cols", "indices", "indptr", "nl_positions"):
        assert_same_bits(getattr(found, name), getattr(expected, name), f"structure.{name}")
    found, expected = CachedFactorSolver(bound), CachedFactorSolver(fresh)
    for name in ("g_data", "c_data"):
        assert_same_bits(getattr(found, name), getattr(expected, name), f"solver.{name}")
    found_plan, expected_plan = bound.batch_plan(), fresh.batch_plan()
    for field in dataclasses.fields(found_plan):
        found_value = getattr(found_plan, field.name)
        expected_value = getattr(expected_plan, field.name)
        if field.name == "params":
            for param in dataclasses.fields(found_value):
                assert_same_bits(
                    getattr(found_value, param.name),
                    getattr(expected_value, param.name),
                    f"plan.params.{param.name}",
                )
        else:
            assert_same_bits(found_value, expected_value, f"plan.{field.name}")
    for time_s in (0.0, 3e-12, 1e-9):
        assert_same_bits(
            bound.source_vector(time_s), fresh.source_vector(time_s), f"b({time_s})"
        )


class TestBoundColumns:
    @SETTINGS
    @given(columns, ratios, ratios, ratios)
    def test_binding_equals_a_fresh_assembly(self, sims, shape, rvar, cvar, rail_rvar):
        kind, n_cells, value = shape
        column = sims.read.column_parasitics(n_cells).scaled(rvar, cvar, rail_rvar)
        bound, fresh = bound_and_fresh(sims, kind, n_cells, value, column)
        assert_same_assembly(bound, fresh)
        assert_matches_scipy(bound)

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_corners_of_one_shape_share_one_record(self, sims, kind):
        nominal = sims.read.column_parasitics(16)
        first, _ = bound_and_fresh(sims, kind, 16, 1, nominal)
        second, _ = bound_and_fresh(sims, kind, 16, 1, nominal.scaled(1.3, 0.8, 1.1))
        assert first.record is second.record
        assert first.structure() is second.structure()

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_another_segment_count_raises(self, sims, kind):
        bound_and_fresh(sims, kind, 64, 0, sims.read.column_parasitics(64))
        record = simulator(sims, kind)._column_records[(64, 0)]
        with pytest.raises(MNAError, match="16-cell bit line"):
            record.bind(sims.read.column_parasitics(16))
        topology = record.topology
        with pytest.raises(MNAError, match="resistors"):
            topology.bind(topology.resistances[:-2], topology.capacitances[:-2])

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_zero_capacitor_raises(self, sims, kind):
        bound_and_fresh(sims, kind, 16, 0, sims.read.column_parasitics(16))
        topology = simulator(sims, kind)._column_records[(16, 0)].topology
        capacitances = topology.capacitances.copy()
        capacitances[3] = 0.0
        with pytest.raises(MNAError, match="structure"):
            topology.bind(topology.resistances, capacitances)


def rc_with_zero_capacitor() -> Circuit:
    circuit = Circuit("rc0")
    circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", 1e4))
    circuit.add(Capacitor("c1", "out", "0", 1e-15))
    circuit.add(Capacitor("c2", "in", "out", 0.0))
    return circuit


class TestRecordBinding:
    def test_unstamped_zero_capacitor_cannot_gain_a_value(self):
        record = TopologyRecord(rc_with_zero_capacitor())
        with pytest.raises(MNAError, match="structure"):
            record.bind(record.resistances, [1e-15, 2e-15])
        record.bind(record.resistances, [3e-15, 0.0])

    def test_invalid_values_raise_like_the_elements(self):
        record = TopologyRecord(rc_with_zero_capacitor())
        with pytest.raises(ElementError):
            record.bind([0.0], record.capacitances)
        with pytest.raises(ElementError):
            record.bind(record.resistances, [-1e-15, 0.0])

    @pytest.mark.parametrize("gmin_s", [0.0, 1e-12, 1e-9, 2.5e-3])
    def test_gmin_variant_equals_a_fresh_assembly(self, sims, gmin_s):
        built = sims.read.build_circuit(16, sims.read.column_parasitics(16))
        base = MNAAssembler(built.circuit)
        variant = base.record.bind(base.resistances, base.capacitances, gmin_s)
        fresh = MNAAssembler(built.circuit, gmin_s=gmin_s)
        for found, expected in zip(variant._g_triplets, fresh._g_triplets):
            assert_same_bits(found, expected, "G triplets")
        assert_same_assembly(variant, fresh)
        assert_matches_scipy(variant)
        assert_same_bits(
            variant.dense_system().g_dense, fresh.dense_system().g_dense, "dense G"
        )
        assert_same_bits(
            variant.dense_system().g_dense, scipy_matrices(variant)[0].toarray(), "dense G"
        )

    def test_products_equal_scipy_matvecs(self, sims):
        built = sims.read.build_circuit(64, sims.read.column_parasitics(64))
        assembler = MNAAssembler(built.circuit)
        g_ref, c_ref = scipy_matrices(assembler)
        solver = CachedFactorSolver(assembler)
        x = np.random.default_rng(7).uniform(-1.0, 1.0, assembler.size)
        assert_same_bits(assembler.g_dot(x), g_ref.dot(x), "G·x")
        assert_same_bits(assembler.c_dot(x), c_ref.dot(x), "C·x")
        data = solver.static_data(1e13)
        assert_same_bits(solver.dot(data, x), jacobian(solver, data).dot(x), "J·x")


def loop_stamp(assembler: MNAAssembler, solution: np.ndarray):
    """The per-device stamp loop (the reference for the plan scatter)."""
    record = assembler.record
    rows, cols, values = [], [], []
    residual = np.zeros(assembler.size)
    for device in record.mosfets:
        d, g, s = (record.index_of(n) for n in (device.drain, device.gate, device.source))
        op = device.operating_point(
            *(0.0 if i is None else float(solution[i]) for i in (d, g, s))
        )
        if d is not None:
            residual[d] += op.ids_a
        if s is not None:
            residual[s] -= op.ids_a
        gds, gm = op.gds_s, op.gm_s
        pairs = ((d, d), (d, g), (d, s), (s, d), (s, g), (s, s))
        for (row, col), value in zip(pairs, (gds, gm, -(gds + gm), -gds, -gm, gds + gm)):
            if row is not None and col is not None:
                rows.append(row)
                cols.append(col)
                values.append(value)
    return rows, cols, values, residual


@pytest.mark.parametrize("kind", ["read", "write"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stamp_equals_the_per_device_loop(sims, kind, seed):
    built = simulator(sims, kind).build_circuit(16, sims.read.column_parasitics(16))
    assembler = MNAAssembler(built.circuit)
    solution = np.random.default_rng(seed).uniform(-0.2, 1.0, assembler.size)
    stamp = assembler.nonlinear_stamp(solution)
    rows, cols, values, residual = loop_stamp(assembler, solution)
    assert list(stamp.rows) == rows and list(stamp.cols) == cols
    assert_same_bits(stamp.values, np.array(values), "stamp values")
    assert_same_bits(stamp.residual, residual, "residual")


def resistor_ladder(n_nodes: int) -> Circuit:
    """A source-driven resistor chain, above the dense-solver threshold."""
    circuit = Circuit("ladder")
    circuit.add(VoltageSource.dc("vin", "n0", "0", 0.5))
    for k in range(n_nodes):
        circuit.add(Resistor(f"r{k}", f"n{k}", f"n{k + 1}", 1e3))
    circuit.add(Resistor("rload", f"n{n_nodes}", "0", 1e3))
    return circuit


class TestBuiltOnce:
    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_bound_transient_lane_builds_no_csr_or_coo_matrix(self, sims, monkeypatch, kind):
        built = []
        init = _spbase.__init__

        def recording_init(self, *args, **kwargs):
            built.append(self.format)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_spbase, "__init__", recording_init)
        sim = simulator(sims, kind)
        column = sims.read.column_parasitics(64).scaled(1.2, 0.9, 1.1)
        (lane,) = sim.prepare_simulate_column(64, column, "probe", 1).lanes
        lane.solver.run(lane.initial_voltages, lane.stop_condition)
        # The factor solver's CSC, refilled for every factorisation.
        assert built == ["csc"]

    def count_records(self, monkeypatch):
        counted = []
        init = TopologyRecord.__init__

        def counting_init(self, circuit):
            counted.append(circuit)
            init(self, circuit)

        monkeypatch.setattr(TopologyRecord, "__init__", counting_init)
        return counted

    def test_dc_sweep_assembles_its_circuit_once(self, sims, monkeypatch):
        (lane,) = sims.margins._prepare_butterfly(16, mode="read").lanes[:1]
        records = self.count_records(monkeypatch)
        dc_sweep(lane.circuit, lane.source_name, lane.values, lane.initial_voltages)
        assert len(records) == 1

    def test_fallback_lanes_assemble_their_circuit_once(self, monkeypatch):
        circuit = resistor_ladder(DENSE_SOLVER_MAX_UNKNOWNS)
        records = self.count_records(monkeypatch)
        before = solver_stats().snapshot()
        (sweep,) = batch_dc_sweep([SweepLaneSpec(circuit, "vin", [0.0, 0.25, 0.5])])
        (point,) = batch_dc_operating_points([OperatingPointLaneSpec(circuit)])
        assert solver_stats().delta_since(before).scalar_fallbacks == 2
        assert sweep.iterations_total > 0 and point.converged
        assert len(records) == 2
