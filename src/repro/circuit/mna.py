"""Modified nodal analysis (MNA) assembly.

The assembler maps a :class:`~repro.circuit.netlist.Circuit` onto the MNA
unknown vector ``x = [node voltages, voltage-source branch currents]`` and
produces:

* ``G`` — the constant conductance matrix (resistors, gmin, voltage-source
  incidence rows/columns);
* ``C`` — the constant capacitance matrix;
* ``b(t)`` — the source vector at a given time;
* per-Newton-iteration stamps of the nonlinear devices (MOSFETs), i.e. the
  Jacobian contributions and the residual currents.

Sparse matrices (scipy) are used throughout so that kilobit bit-line
ladders with thousands of nodes stay fast.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .elements import Capacitor, CurrentSource, Resistor, VoltageSource
from .mosfet import MOSFET, DeviceParams
from .netlist import Circuit, NetlistError, is_ground

#: Minimum conductance from every node to ground, for numerical robustness.
DEFAULT_GMIN_S = 1e-12

#: Largest MNA system solved through the dense LAPACK backend.  Small
#: systems (SRAM cell butterflies, write-margin columns) factor faster as
#: dense matrices, and — decisively — ``numpy.linalg.solve`` over a stacked
#: ``(N, n, n)`` batch is bitwise identical per item to the single-system
#: call, which makes the dense backend shareable between the scalar oracle
#: and the batched solver tier.  Large ladder circuits stay on sparse LU.
DENSE_SOLVER_MAX_UNKNOWNS = 64


class MNAError(RuntimeError):
    """Raised when the MNA system cannot be assembled or is singular."""


@dataclass
class SolverStats:
    """Cheap per-thread observability counters for the solver tier.

    ``factorizations`` counts every matrix factorisation (sparse LU or a
    dense solve, which factors internally); ``refactorizations`` is the
    subset that replaced a still-cached factorisation because the stamp
    values moved; ``stamp_evals`` counts nonlinear stamp evaluations and
    ``stamp_device_evals`` the device lanes inside them (a batched call
    evaluates many lanes per eval); ``batch_ticks``/``batch_lane_iterations``
    describe the batched tier's lockstep loop.  ``batch_lanes`` counts
    lanes launched into lockstep groups and ``batch_lane_slots`` the
    lane slots offered across ticks (active or not), so
    ``batch_lane_iterations / batch_lane_slots`` is the active-lane
    fraction and ``scalar_fallbacks / batch_lanes`` the demotion rate.
    """

    factorizations: int = 0
    refactorizations: int = 0
    dense_solves: int = 0
    sparse_solves: int = 0
    stamp_evals: int = 0
    stamp_device_evals: int = 0
    batch_ticks: int = 0
    batch_lane_iterations: int = 0
    batch_lanes: int = 0
    batch_lane_slots: int = 0
    scalar_fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "factorizations": self.factorizations,
            "refactorizations": self.refactorizations,
            "dense_solves": self.dense_solves,
            "sparse_solves": self.sparse_solves,
            "stamp_evals": self.stamp_evals,
            "stamp_device_evals": self.stamp_device_evals,
            "batch_ticks": self.batch_ticks,
            "batch_lane_iterations": self.batch_lane_iterations,
            "batch_lanes": self.batch_lanes,
            "batch_lane_slots": self.batch_lane_slots,
            "scalar_fallbacks": self.scalar_fallbacks,
        }

    def snapshot(self) -> "SolverStats":
        return SolverStats(**self.as_dict())

    def delta_since(self, before: "SolverStats") -> "SolverStats":
        return SolverStats(
            **{
                key: value - getattr(before, key)
                for key, value in self.as_dict().items()
            }
        )


_stats_state = threading.local()


def solver_stats() -> SolverStats:
    """The current thread's solver counters (created on first use)."""
    stats = getattr(_stats_state, "stats", None)
    if stats is None:
        stats = SolverStats()
        _stats_state.stats = stats
    return stats


def reset_solver_stats() -> SolverStats:
    """Reset the current thread's counters and return the fresh object."""
    stats = SolverStats()
    _stats_state.stats = stats
    return stats


@dataclass
class NonlinearStamp:
    """Jacobian triplets and residual currents of the nonlinear devices."""

    rows: List[int]
    cols: List[int]
    values: List[float]
    residual: np.ndarray


@dataclass(frozen=True)
class BatchPlan:
    """Precomputed gather/scatter indices for vectorised stamp evaluation.

    Built once per assembler; lets the batched tier evaluate every MOSFET
    of every stacked lane in one kernel call and scatter the results with
    ``numpy.bincount`` (whose sequential accumulation reproduces the
    per-device add order of :meth:`MNAAssembler.nonlinear_stamp` bitwise).

    Terminal indices use ``size`` as the ground sentinel — voltages are
    gathered from the solution vector extended by one trailing zero.
    """

    size: int
    n_devices: int
    params: DeviceParams
    drain_idx: np.ndarray
    gate_idx: np.ndarray
    source_idx: np.ndarray
    #: Residual scatter (per device ``+ids`` at drain then ``-ids`` at
    #: source, ground entries skipped) in scalar emission order.
    res_pos: np.ndarray
    res_dev: np.ndarray
    res_sign: np.ndarray
    #: Jacobian stamp scatter in :meth:`_device_stamp_pairs` emission
    #: order.  The six per-device values ``(gds, gm, -(gds+gm), -gds, -gm,
    #: gds+gm)`` decompose into a pick among ``(gds, gm, gds+gm)`` and a
    #: ±1.0 sign: ``np.choose(stamp_pick, (gds, gm, gds + gm)) * stamp_sign``
    #: equals the scalar stamp values bit for bit (choose only selects and
    #: the multiply by ±1.0 is an exact negation).
    stamp_rows: np.ndarray
    stamp_cols: np.ndarray
    stamp_pick: np.ndarray
    stamp_sign: np.ndarray
    stamp_dev: np.ndarray

    @property
    def stamp_flat(self) -> np.ndarray:
        """Row-major flat positions of the stamp entries (dense scatter)."""
        return self.stamp_rows * self.size + self.stamp_cols


class DenseSystem:
    """Dense DC backend of one assembler (systems below the size threshold).

    Holds ``G`` as a dense array plus the flat stamp-scatter positions, so
    a Newton iteration assembles ``A = G + scatter(stamp values)`` and the
    residual term ``G·x`` with plain dense ops — the exact operations the
    batched tier applies per lane, which keeps the two tiers bit-identical.

    ``G`` is scattered straight from the assembler's triplet arrays with
    ``np.add.at`` (bitwise identical to ``csr.toarray()`` — scipy's
    duplicate summation is insertion-ordered via a stable sort), so cheap
    gmin-ladder clones never have to materialise a sparse matrix at all.
    """

    def __init__(self, assembler: "MNAAssembler") -> None:
        self.size = assembler.size
        rows, cols, values = assembler._g_triplets
        self.g_dense = np.zeros((self.size, self.size))
        np.add.at(self.g_dense, (np.asarray(rows), np.asarray(cols)), values)
        self._stamp_flat = assembler.batch_plan().stamp_flat

    def matrix(self, stamp_values: np.ndarray) -> np.ndarray:
        """``G + J_nl`` as a dense array for one Newton iteration."""
        scatter = np.bincount(
            self._stamp_flat,
            weights=stamp_values,
            minlength=self.size * self.size,
        ).reshape(self.size, self.size)
        return self.g_dense + scatter

    def solve(self, stamp_values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(G + J_nl) x = rhs`` densely (raises ``LinAlgError``)."""
        stats = solver_stats()
        stats.factorizations += 1
        stats.dense_solves += 1
        return np.linalg.solve(self.matrix(stamp_values), rhs)


class MNAAssembler:
    """Maps a circuit onto MNA matrices.

    Parameters
    ----------
    circuit:
        The circuit to assemble; it is validated on construction.
    gmin_s:
        Conductance added from every node to ground.
    """

    def __init__(self, circuit: Circuit, gmin_s: float = DEFAULT_GMIN_S) -> None:
        circuit.validate()
        self.circuit = circuit
        self.gmin_s = gmin_s

        self._node_names: List[str] = circuit.nodes()
        self._node_index: Dict[str, int] = {
            name: index for index, name in enumerate(self._node_names)
        }
        self.voltage_sources: List[VoltageSource] = list(
            circuit.elements_of_type(VoltageSource)
        )
        self.current_sources: List[CurrentSource] = list(
            circuit.elements_of_type(CurrentSource)
        )
        self.mosfets: List[MOSFET] = list(circuit.elements_of_type(MOSFET))
        self.resistors: List[Resistor] = list(circuit.elements_of_type(Resistor))
        self.capacitors: List[Capacitor] = list(circuit.elements_of_type(Capacitor))

        self.n_nodes = len(self._node_names)
        self.n_branches = len(self.voltage_sources)
        self.size = self.n_nodes + self.n_branches

        self._g_triplets = self._build_g_triplets()
        self._c_triplets = self._build_c_triplets()
        self._g_matrix: Optional[sparse.csr_matrix] = None
        self._c_matrix: Optional[sparse.csr_matrix] = None
        self._batch_plan: Optional[BatchPlan] = None
        self._dense_system: Optional[DenseSystem] = None

    def clone_with_gmin(self, gmin_s: float) -> "MNAAssembler":
        """A cheap same-circuit assembler that differs only in ``gmin_s``.

        The gmin ladder and pseudo-transient rescue revisit the same circuit
        at many gmin values; a full construction re-validates the netlist
        and rebuilds every element list, which dominates rescue cost.  The
        clone shares the immutable pieces (node order, element lists, ``C``
        triplets, batch plan) and rebuilds only the ``G`` triplets, whose
        values are the only thing gmin touches.  The resulting matrices are
        bitwise identical to ``MNAAssembler(circuit, gmin_s)``.
        """
        clone = object.__new__(MNAAssembler)
        clone.circuit = self.circuit
        clone.gmin_s = gmin_s
        clone._node_names = self._node_names
        clone._node_index = self._node_index
        clone.voltage_sources = self.voltage_sources
        clone.current_sources = self.current_sources
        clone.mosfets = self.mosfets
        clone.resistors = self.resistors
        clone.capacitors = self.capacitors
        clone.n_nodes = self.n_nodes
        clone.n_branches = self.n_branches
        clone.size = self.size
        clone._g_triplets = clone._build_g_triplets()
        clone._c_triplets = self._c_triplets
        clone._g_matrix = None
        clone._c_matrix = self._c_matrix
        clone._batch_plan = self.batch_plan()
        clone._dense_system = None
        return clone

    # -- index helpers -------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    def index_of(self, node: str) -> Optional[int]:
        """MNA index of a node (``None`` for ground)."""
        if is_ground(node):
            return None
        try:
            return self._node_index[node]
        except KeyError:
            raise MNAError(f"unknown node {node!r}") from None

    def branch_index(self, source_name: str) -> int:
        for offset, source in enumerate(self.voltage_sources):
            if source.name == source_name:
                return self.n_nodes + offset
        raise MNAError(f"no voltage source named {source_name!r}")

    # -- static matrices -------------------------------------------------------------

    def _build_g_triplets(self) -> Tuple[List[int], List[int], List[float]]:
        rows: List[int] = []
        cols: List[int] = []
        values: List[float] = []

        def stamp(row: Optional[int], col: Optional[int], value: float) -> None:
            if row is None or col is None:
                return
            rows.append(row)
            cols.append(col)
            values.append(value)

        for resistor in self.resistors:
            conductance = resistor.conductance_s
            p = self.index_of(resistor.positive)
            n = self.index_of(resistor.negative)
            stamp(p, p, conductance)
            stamp(n, n, conductance)
            stamp(p, n, -conductance)
            stamp(n, p, -conductance)

        if self.gmin_s > 0.0:
            for index in range(self.n_nodes):
                rows.append(index)
                cols.append(index)
                values.append(self.gmin_s)

        for offset, source in enumerate(self.voltage_sources):
            branch = self.n_nodes + offset
            p = self.index_of(source.positive)
            n = self.index_of(source.negative)
            if p is not None:
                rows.extend([p, branch])
                cols.extend([branch, p])
                values.extend([1.0, 1.0])
            if n is not None:
                rows.extend([n, branch])
                cols.extend([branch, n])
                values.extend([-1.0, -1.0])

        return rows, cols, values

    def _build_c_triplets(self) -> Tuple[List[int], List[int], List[float]]:
        rows: List[int] = []
        cols: List[int] = []
        values: List[float] = []
        for capacitor in self.capacitors:
            if capacitor.capacitance_f == 0.0:
                continue
            p = self.index_of(capacitor.positive)
            n = self.index_of(capacitor.negative)
            c = capacitor.capacitance_f
            if p is not None:
                rows.append(p)
                cols.append(p)
                values.append(c)
            if n is not None:
                rows.append(n)
                cols.append(n)
                values.append(c)
            if p is not None and n is not None:
                rows.extend([p, n])
                cols.extend([n, p])
                values.extend([-c, -c])
        return rows, cols, values

    @property
    def conductance_matrix(self) -> sparse.csr_matrix:
        if self._g_matrix is None:
            rows, cols, values = self._g_triplets
            self._g_matrix = sparse.csr_matrix(
                (values, (rows, cols)), shape=(self.size, self.size)
            )
        return self._g_matrix

    @property
    def capacitance_matrix(self) -> sparse.csr_matrix:
        if self._c_matrix is None:
            rows, cols, values = self._c_triplets
            self._c_matrix = sparse.csr_matrix(
                (values, (rows, cols)), shape=(self.size, self.size)
            )
        return self._c_matrix

    # -- sources -----------------------------------------------------------------------

    def source_vector(self, time_s: float) -> np.ndarray:
        """The right-hand-side source vector at ``time_s``."""
        b = np.zeros(self.size)
        for offset, source in enumerate(self.voltage_sources):
            b[self.n_nodes + offset] = source.value_at(time_s)
        for source in self.current_sources:
            value = source.value_at(time_s)
            p = self.index_of(source.positive)
            n = self.index_of(source.negative)
            if p is not None:
                b[p] -= value
            if n is not None:
                b[n] += value
        return b

    # -- nonlinear stamps ------------------------------------------------------------------

    @staticmethod
    def _device_stamp_pairs(
        d: Optional[int], g: Optional[int], s: Optional[int]
    ) -> Tuple[Tuple[Optional[int], Optional[int]], ...]:
        """The (row, col) emission order of one MOSFET's Jacobian stamp.

        Single source of truth shared by :meth:`nonlinear_stamp` and
        :meth:`nonlinear_positions` — the factorisation cache maps stamp
        values to CSC positions by this order, so the two must never
        diverge.
        """
        return ((d, d), (d, g), (d, s), (s, d), (s, g), (s, s))

    def nonlinear_positions(self) -> Tuple[List[int], List[int]]:
        """The fixed (row, col) sequence :meth:`nonlinear_stamp` emits.

        The Jacobian contributions of the MOSFETs always land on the same
        matrix positions in the same order — only the values change between
        Newton iterations.  The factorisation cache exploits this to map
        stamp values straight into a prebuilt CSC data array.
        """
        rows: List[int] = []
        cols: List[int] = []
        for device in self.mosfets:
            d = self.index_of(device.drain)
            g = self.index_of(device.gate)
            s = self.index_of(device.source)
            for row, col in self._device_stamp_pairs(d, g, s):
                if row is None or col is None:
                    continue
                rows.append(row)
                cols.append(col)
        return rows, cols

    def batch_plan(self) -> BatchPlan:
        """Precomputed device gather/scatter arrays (built once, cached)."""
        if self._batch_plan is not None:
            return self._batch_plan

        ground = self.size
        drain, gate, source = [], [], []
        res_pos, res_dev, res_sign = [], [], []
        stamp_rows, stamp_cols, stamp_kind, stamp_dev = [], [], [], []
        # Stamp kind k of _device_stamp_pairs as (component, sign).
        kind_pick = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        kind_sign = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
        for lane, device in enumerate(self.mosfets):
            d = self.index_of(device.drain)
            g = self.index_of(device.gate)
            s = self.index_of(device.source)
            drain.append(ground if d is None else d)
            gate.append(ground if g is None else g)
            source.append(ground if s is None else s)
            if d is not None:
                res_pos.append(d)
                res_dev.append(lane)
                res_sign.append(1.0)
            if s is not None:
                res_pos.append(s)
                res_dev.append(lane)
                res_sign.append(-1.0)
            for kind, (row, col) in enumerate(self._device_stamp_pairs(d, g, s)):
                if row is None or col is None:
                    continue
                stamp_rows.append(row)
                stamp_cols.append(col)
                stamp_kind.append(kind)
                stamp_dev.append(lane)

        kind = np.asarray(stamp_kind, dtype=np.int64)
        self._batch_plan = BatchPlan(
            size=self.size,
            n_devices=len(self.mosfets),
            params=DeviceParams.from_devices(self.mosfets),
            drain_idx=np.asarray(drain, dtype=np.int64),
            gate_idx=np.asarray(gate, dtype=np.int64),
            source_idx=np.asarray(source, dtype=np.int64),
            res_pos=np.asarray(res_pos, dtype=np.int64),
            res_dev=np.asarray(res_dev, dtype=np.int64),
            res_sign=np.asarray(res_sign),
            stamp_rows=np.asarray(stamp_rows, dtype=np.int64),
            stamp_cols=np.asarray(stamp_cols, dtype=np.int64),
            stamp_pick=kind_pick[kind],
            stamp_sign=kind_sign[kind],
            stamp_dev=np.asarray(stamp_dev, dtype=np.int64),
        )
        return self._batch_plan

    def dense_system(self) -> DenseSystem:
        """The dense DC backend of this assembler (built once, cached)."""
        if self._dense_system is None:
            self._dense_system = DenseSystem(self)
        return self._dense_system

    @property
    def use_dense_solver(self) -> bool:
        """Whether DC solves of this system go through the dense backend."""
        return self.size <= DENSE_SOLVER_MAX_UNKNOWNS

    def _voltage_at(self, solution: np.ndarray, node: str) -> float:
        index = self.index_of(node)
        return 0.0 if index is None else float(solution[index])

    def nonlinear_stamp(self, solution: np.ndarray) -> NonlinearStamp:
        """Linearised companion stamps of all MOSFETs around ``solution``."""
        stats = solver_stats()
        stats.stamp_evals += 1
        stats.stamp_device_evals += len(self.mosfets)
        rows: List[int] = []
        cols: List[int] = []
        values: List[float] = []
        residual = np.zeros(self.size)

        def add(row: Optional[int], col: Optional[int], value: float) -> None:
            if row is None or col is None:
                return
            rows.append(row)
            cols.append(col)
            values.append(value)

        for device in self.mosfets:
            v_drain = self._voltage_at(solution, device.drain)
            v_gate = self._voltage_at(solution, device.gate)
            v_source = self._voltage_at(solution, device.source)
            op = device.operating_point(v_drain, v_gate, v_source)

            d = self.index_of(device.drain)
            g = self.index_of(device.gate)
            s = self.index_of(device.source)

            if d is not None:
                residual[d] += op.ids_a
            if s is not None:
                residual[s] -= op.ids_a

            gds = op.gds_s
            gm = op.gm_s
            stamp_values = (gds, gm, -(gds + gm), -gds, -gm, gds + gm)
            for (row, col), value in zip(
                self._device_stamp_pairs(d, g, s), stamp_values
            ):
                add(row, col, value)

        return NonlinearStamp(rows=rows, cols=cols, values=values, residual=residual)

    # -- solution helpers ----------------------------------------------------------------------

    def solution_to_dict(self, solution: np.ndarray) -> Dict[str, float]:
        """Map an MNA solution vector to a node-name → voltage dictionary."""
        voltages = {name: float(solution[index]) for name, index in self._node_index.items()}
        voltages["0"] = 0.0
        return voltages

    def initial_solution(self, initial_voltages: Optional[Dict[str, float]] = None) -> np.ndarray:
        """Build an initial solution vector from a node-voltage dictionary."""
        solution = np.zeros(self.size)
        if initial_voltages:
            for node, value in initial_voltages.items():
                if is_ground(node):
                    continue
                index = self._node_index.get(node)
                if index is None:
                    raise MNAError(
                        f"initial condition given for unknown node {node!r}"
                    )
                solution[index] = value
        return solution


class JacobianTemplate:
    """One fixed CSC sparsity pattern for every Newton Jacobian of a circuit.

    The pattern is the union of the nonzeros of ``G``, ``C`` and the MOSFET
    stamp positions, ordered column-major with sorted rows — i.e. a valid
    CSC structure that never changes.  ``G`` and ``C`` are pre-scattered
    into template-aligned data arrays, and the per-iteration stamp values
    are injected through a precomputed position map, so assembling
    ``G + C/dt + J_nl`` costs one vector add instead of two sparse-matrix
    additions and a CSR→CSC conversion.

    ``like`` accepts the template of a *same-topology* circuit (identical
    element construction order, only R/C/device values differing — e.g.
    the same bit-line ladder at a different patterning corner): the
    expensive sort/unique structure analysis is skipped and only the value
    arrays are rebuilt.  The donor is verified position-by-position, so a
    mismatched donor silently falls back to a full build.
    """

    def __init__(
        self, assembler: MNAAssembler, like: Optional["JacobianTemplate"] = None
    ) -> None:
        self.size = assembler.size
        g_coo = assembler.conductance_matrix.tocoo()
        c_coo = assembler.capacitance_matrix.tocoo()
        nl_rows, nl_cols = assembler.nonlinear_positions()

        rows = np.concatenate([g_coo.row, c_coo.row, np.asarray(nl_rows, dtype=np.int64)])
        cols = np.concatenate([g_coo.col, c_coo.col, np.asarray(nl_cols, dtype=np.int64)])
        keys = cols.astype(np.int64) * self.size + rows.astype(np.int64)

        self.structure_reused = (
            like is not None
            and like.size == self.size
            and like._coo_keys.shape == keys.shape
            and np.array_equal(like._coo_keys, keys)
        )
        if self.structure_reused:
            inverse = like._inverse
            self.indices = like.indices
            self.indptr = like.indptr
            self.nnz = like.nnz
        else:
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            self.indices = (unique_keys % self.size).astype(np.int32)
            unique_cols = unique_keys // self.size
            self.indptr = np.searchsorted(
                unique_cols, np.arange(self.size + 1)
            ).astype(np.int32)
            self.nnz = int(unique_keys.size)
        #: COO position keys and their template positions, kept so a later
        #: same-topology template can verify and adopt this structure.
        self._coo_keys = keys
        self._inverse = inverse

        n_g = g_coo.nnz
        n_c = c_coo.nnz
        self.g_data = np.zeros(self.nnz)
        np.add.at(self.g_data, inverse[:n_g], g_coo.data)
        self.c_data = np.zeros(self.nnz)
        np.add.at(self.c_data, inverse[n_g : n_g + n_c], c_coo.data)
        #: Template position of each stamp triplet, in emission order.
        self.nl_positions = inverse[n_g + n_c :].copy()

    def matrix(self, data: np.ndarray) -> sparse.csc_matrix:
        """Wrap a template-aligned data vector as a CSC matrix (no copy)."""
        return sparse.csc_matrix(
            (data, self.indices, self.indptr), shape=(self.size, self.size)
        )

    def static_data(self, c_factor: float = 0.0) -> np.ndarray:
        """Data vector of ``G + c_factor·C`` (``c_factor`` is 1/dt, 2/dt or 0)."""
        if c_factor == 0.0:
            return self.g_data.copy()
        return self.g_data + c_factor * self.c_data


class CachedFactorSolver:
    """Sparse-LU reuse across Newton iterations and time steps.

    Keyed by the capacitance scale ``c_factor`` (0 for DC, ``1/dt`` for
    backward Euler, ``2/dt`` for trapezoidal): the static matrix
    ``G + c_factor·C`` and — while the nonlinear stamp values are unchanged
    — its :func:`~scipy.sparse.linalg.splu` factorisation are cached, so a
    linear circuit refactorises only when ``dt`` changes and a nonlinear
    one skips all matrix assembly overhead.

    Every factorisation refills one CSC matrix per solver in place and
    hands it to :func:`~scipy.sparse.linalg.splu`, which copies what it
    factors: the structure checks scipy runs on a new matrix (format,
    index dtype, canonical order) are paid once per solver, not once per
    factorisation.
    """

    #: Distinct c_factor entries kept before the cache is reset (the
    #: adaptive step controller revisits a small set of dt values).
    MAX_CACHE = 32

    def __init__(
        self, assembler: MNAAssembler, like: Optional[JacobianTemplate] = None
    ) -> None:
        self.assembler = assembler
        self.template = JacobianTemplate(assembler, like=like)
        self._static: Dict[float, Tuple[np.ndarray, sparse.csc_matrix]] = {}
        self._lu: Dict[float, Tuple[Optional[np.ndarray], object]] = {}
        self._jacobian = self.template.matrix(np.zeros(self.template.nnz))
        self.n_factorizations = 0
        self.n_solves = 0

    def _static_entry(self, c_factor: float) -> Tuple[np.ndarray, sparse.csc_matrix]:
        entry = self._static.get(c_factor)
        if entry is None:
            if len(self._static) >= self.MAX_CACHE:
                self._static.clear()
                self._lu.clear()
            data = self.template.static_data(c_factor)
            entry = (data, self.template.matrix(data))
            self._static[c_factor] = entry
        return entry

    def static_matrix(self, c_factor: float = 0.0) -> sparse.csc_matrix:
        """``G + c_factor·C`` in template CSC form (cached per factor)."""
        return self._static_entry(c_factor)[1]

    def solve(
        self, c_factor: float, stamp: NonlinearStamp, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(G + c_factor·C + J_nl) x = rhs``, reusing factorisations.

        The LU of the previous call with the same ``c_factor`` is reused
        when the stamp values are identical — always the case for circuits
        without nonlinear devices, where the Jacobian is the static matrix.
        """
        static_data, _ = self._static_entry(c_factor)
        values = np.asarray(stamp.values)
        cached = self._lu.get(c_factor)
        lu = None
        if cached is not None:
            cached_values, cached_lu = cached
            if cached_values is None:
                if values.size == 0:
                    lu = cached_lu
            elif cached_values.shape == values.shape and np.array_equal(
                cached_values, values
            ):
                lu = cached_lu
        if lu is None:
            data = self._jacobian.data
            np.copyto(data, static_data)
            if values.size:
                np.add.at(data, self.template.nl_positions, values)
            lu = splu(self._jacobian)
            self.n_factorizations += 1
            stats = solver_stats()
            stats.factorizations += 1
            if cached is not None:
                stats.refactorizations += 1
            self._lu[c_factor] = (values.copy() if values.size else None, lu)
        self.n_solves += 1
        solver_stats().sparse_solves += 1
        return lu.solve(rhs)
