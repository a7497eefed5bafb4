"""Modified nodal analysis (MNA): topology records bound to element values.

The unknown vector is ``x = [node voltages, voltage-source branch
currents]``.  Assembly comes in two halves:

* a :class:`TopologyRecord`, built once per circuit structure, holds
  everything that does not depend on element values — the node order and
  index, the element lists (names, waveforms, devices), the ``G`` and
  ``C`` triplet rows/cols with each entry's source element and ±1 sign,
  the gmin and voltage-source tails, the device :class:`BatchPlan` and the
  sparse layout (:class:`MatrixStructure`): the distinct ``G`` and ``C``
  positions in CSR order, each triplet's slot among them and the
  Jacobian CSC structure, derived from the record's own triplet
  positions;
* an :class:`MNAAssembler` is a record bound to one set of resistances,
  capacitances and gmin.  The binding computes the triplet values as
  arrays in the per-element emission order and sums each position's
  duplicates with one ``np.bincount`` per matrix over the record's slots —
  the sums scipy's COO→CSR conversion makes, without building a matrix.

``MNAAssembler(circuit)`` is the record of ``circuit`` bound to its own
values; the DC rescue ladder's gmin variants and the read and write
columns solved at other corners (:meth:`TopologyRecord.bind`) take the
same path and share one record.  A bound assembler produces the values
of ``G`` (resistors, gmin, voltage-source incidence) and ``C``, the
source vector ``b(t)`` and the per-Newton-iteration MOSFET stamps; its
products ``G·x`` and ``C·x`` are summed from the stored entries in
scipy's matvec order (:func:`_bin_sum`), and :class:`CachedFactorSolver`
factors ``G + c_factor·C + J_nl`` on the record's fixed Jacobian
structure — the CSC it hands to ``splu`` is the only scipy matrix a
solve builds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .elements import (
    Capacitor,
    CurrentSource,
    ElementError,
    Resistor,
    TwoTerminal,
    VoltageSource,
)
from .mosfet import MOSFET, DeviceParams
from .netlist import Circuit, is_ground

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

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class BatchPlan:
    """Precomputed gather/scatter indices for vectorised stamp evaluation.

    Built once per topology record; lets the batched tier evaluate every
    MOSFET of every stacked lane in one kernel call and scatter the results
    with ``numpy.bincount`` (whose sequential accumulation reproduces the
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
    #: Jacobian stamp scatter, per device in the emission order ``(d, d),
    #: (d, g), (d, s), (s, d), (s, g), (s, s)`` with ground entries
    #: skipped.  The six per-device values ``(gds, gm, -(gds+gm), -gds, -gm,
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

    ``G`` is scattered straight from the binding's triplet arrays with
    ``np.add.at``, which sums each position's duplicates in emission order
    as the binding's :attr:`~MNAAssembler.g_values` do, so a dense system
    needs no sparse layout.
    """

    def __init__(self, assembler: "MNAAssembler") -> None:
        self.size = assembler.size
        rows, cols, values = assembler._g_triplets
        self.g_dense = np.zeros((self.size, self.size))
        np.add.at(self.g_dense, (rows, cols), values)
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


def _bin_sum(bins: np.ndarray, weights: np.ndarray, n_bins: int) -> np.ndarray:
    """Each bin's weights added one by one, from 0.0, in input order.

    Over a matrix's triplets these are the sums of scipy's COO→CSR
    conversion, which adds a position's duplicates left to right after
    sorting the row (its sort keeps emission order for rows of up to 16
    triplets; the MNA rows of the SRAM columns and cells hold at most
    five).  Over the products of a matrix's stored entries, binned by row
    in CSR or CSC order, they are scipy's matvec loops: ``A·x`` bit for bit.
    """
    return np.bincount(bins, weights=weights, minlength=n_bins).astype(
        float, copy=False
    )


def _unique_positions(
    major: np.ndarray, minor: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(major, minor)`` pairs, major-first, and each pair's slot.

    Rows first gives CSR order, columns first CSC order; ``slots[k]`` is
    the place of pair ``k`` among the distinct ones.
    """
    keys, slots = np.unique(major * size + minor, return_inverse=True)
    return keys // size, keys % size, slots


class MatrixStructure:
    """The sparse layout every binding of one record shares.

    Derived from the record's own triplet positions, once per record and
    per presence of the gmin tail: the distinct ``G`` and ``C`` positions
    in CSR order (row-major, sorted columns) with each triplet's slot
    among them, and the Jacobian CSC structure — the union of the ``G``,
    ``C`` and device-stamp positions, column-major with sorted rows — with
    the place of every ``G``/``C`` position and every stamp entry in it.
    """

    def __init__(self, record: "TopologyRecord", with_gmin: bool) -> None:
        size = record.size
        plan = record.batch_plan()
        self.g_rows, self.g_cols, self.g_slots = _unique_positions(
            *record._g_index[with_gmin], size
        )
        self.c_rows, self.c_cols, self.c_slots = _unique_positions(
            *record._c_index, size
        )
        cols, rows, positions = _unique_positions(
            np.concatenate([self.g_cols, self.c_cols, plan.stamp_cols]),
            np.concatenate([self.g_rows, self.c_rows, plan.stamp_rows]),
            size,
        )
        self.indices = rows.astype(np.int32)
        self.indptr = np.searchsorted(cols, np.arange(size + 1)).astype(np.int32)
        self.nnz = int(rows.size)
        self.jacobian_cols = cols
        n_g, n_c = self.g_rows.size, self.c_rows.size
        self.g_positions = positions[:n_g]
        self.c_positions = positions[n_g : n_g + n_c]
        self.nl_positions = positions[n_g + n_c :]


class TopologyRecord:
    """The value-independent half of one circuit's MNA system.

    Built once per circuit structure: netlist validation, node order and
    index, element lists, the element values of the circuit, the ``G`` and
    ``C`` triplet rows/cols with each entry's source element and ±1 sign,
    the gmin and voltage-source tails, the :class:`BatchPlan` and (on
    first use, per presence of the gmin tail) the :class:`MatrixStructure`.
    :meth:`bind` pairs it with element values.  A zero capacitor stamps
    nothing, so which capacitors are zero is part of the structure.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.node_names: List[str] = circuit.nodes()
        self.node_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.node_names)
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
        self.n_nodes = len(self.node_names)
        self.n_branches = len(self.voltage_sources)
        self.size = self.n_nodes + self.n_branches
        #: The circuit's own element values (what ``MNAAssembler(circuit)``
        #: binds), in element order.
        self.resistances = np.array(
            [r.resistance_ohm for r in self.resistors], dtype=float
        )
        self.capacitances = np.array(
            [c.capacitance_f for c in self.capacitors], dtype=float
        )
        self._stamped = self.capacitances != 0.0

        # G: resistor entries, the gmin tail (node diagonal, when gmin > 0),
        # then the voltage-source incidence; C: the stamped capacitors.
        r_rows, r_cols, self._g_source, self._g_sign = self._entries(
            self.resistors, np.ones(len(self.resistors), dtype=bool)
        )
        vs_rows, vs_cols, vs_values = [], [], []
        for branch, source in enumerate(self.voltage_sources, start=self.n_nodes):
            for node, value in ((source.positive, 1.0), (source.negative, -1.0)):
                index = self.index_of(node)
                if index is not None:
                    vs_rows.extend([index, branch])
                    vs_cols.extend([branch, index])
                    vs_values.extend([value, value])
        self._vs_values = np.array(vs_values)
        vs_rows = np.array(vs_rows, dtype=np.int64)
        vs_cols = np.array(vs_cols, dtype=np.int64)
        diagonal = np.arange(self.n_nodes)
        self._g_index = {
            False: (np.concatenate([r_rows, vs_rows]), np.concatenate([r_cols, vs_cols])),
            True: (
                np.concatenate([r_rows, diagonal, vs_rows]),
                np.concatenate([r_cols, diagonal, vs_cols]),
            ),
        }
        c_rows, c_cols, self._c_source, self._c_sign = self._entries(
            self.capacitors, self._stamped
        )
        self._c_index = (c_rows, c_cols)
        self._batch_plan: Optional[BatchPlan] = None
        self._structures: Dict[bool, MatrixStructure] = {}

    def _entries(
        self, elements: Sequence[TwoTerminal], stamped: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Rows, cols, source element and ±1 sign of two-terminal stamps.

        Value ``v`` between ``p`` and ``n`` stamps ``(p, p, v)``,
        ``(n, n, v)``, ``(p, n, −v)``, ``(n, p, −v)``, skipping ground.
        """
        entries = []
        for k, element in enumerate(elements):
            if stamped[k]:
                p = self.index_of(element.positive)
                n = self.index_of(element.negative)
                pairs = ((p, p, 1.0), (n, n, 1.0), (p, n, -1.0), (n, p, -1.0))
                for row, col, sign in pairs:
                    if row is not None and col is not None:
                        entries.append((row, col, k, sign))
        rows, cols, source, sign = zip(*entries) if entries else ((), (), (), ())
        return (
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(source, dtype=np.int64),
            np.array(sign, dtype=float),
        )

    def index_of(self, node: str) -> Optional[int]:
        """MNA index of a node (``None`` for ground)."""
        if is_ground(node):
            return None
        try:
            return self.node_index[node]
        except KeyError:
            raise MNAError(f"unknown node {node!r}") from None

    def bind(
        self,
        resistances: Sequence[float],
        capacitances: Sequence[float],
        gmin_s: float = DEFAULT_GMIN_S,
    ) -> "MNAAssembler":
        """This record bound to element values (in element order).

        Raises :class:`MNAError` for values that would change the
        structure — another element count, or a capacitor that is zero
        here but not in the record (or the reverse) — and, as the element
        constructors do, :class:`~repro.circuit.elements.ElementError` for
        a non-positive resistance or a negative capacitance.
        """
        resistances = np.asarray(resistances, dtype=float)
        capacitances = np.asarray(capacitances, dtype=float)
        if (resistances.shape, capacitances.shape) != (
            self.resistances.shape,
            self.capacitances.shape,
        ):
            raise MNAError(
                f"the record has {self.resistances.size} resistors and "
                f"{self.capacitances.size} capacitors, not "
                f"{resistances.size} and {capacitances.size}"
            )
        if not np.all(resistances > 0.0) or np.any(capacitances < 0.0):
            raise ElementError(
                "resistances must be positive and capacitances non-negative"
            )
        if not np.array_equal(capacitances != 0.0, self._stamped):
            raise MNAError(
                "the capacitances would change the structure: "
                "a zero capacitor stamps nothing"
            )
        assembler = MNAAssembler.__new__(MNAAssembler)
        assembler._bind(self, resistances, capacitances, gmin_s)
        return assembler

    def batch_plan(self) -> BatchPlan:
        """Precomputed device gather/scatter arrays (built once, cached)."""
        if self._batch_plan is not None:
            return self._batch_plan

        ground = self.size
        drain, gate, source = [], [], []
        res_pos, res_dev, res_sign = [], [], []
        stamp_rows, stamp_cols, stamp_kind, stamp_dev = [], [], [], []
        # Stamp kind k of the per-device emission order as (component, sign).
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
            pairs = ((d, d), (d, g), (d, s), (s, d), (s, g), (s, s))
            for kind, (row, col) in enumerate(pairs):
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


class MNAAssembler:
    """A topology record bound to one set of element values.

    ``MNAAssembler(circuit, gmin_s)`` is the :class:`TopologyRecord` of
    ``circuit`` bound to the circuit's own values.  A binding computes the
    triplet values as arrays in the per-element emission order — a
    resistor's entries are ``(1.0 / R)·(+1, +1, −1, −1)`` and the multiply
    by ±1.0 is an exact negation — and sums each matrix position's
    triplets with one ``np.bincount`` per matrix over the record's slots
    (:attr:`g_values`, :attr:`c_values`, in CSR order).  A gmin variant
    (the DC rescue ladder) and another corner of one column
    (:meth:`TopologyRecord.bind`) take the same path, :meth:`_bind`.

    Parameters
    ----------
    circuit:
        The circuit to assemble; it is validated on construction.
    gmin_s:
        Conductance added from every node to ground.
    """

    def __init__(self, circuit: Circuit, gmin_s: float = DEFAULT_GMIN_S) -> None:
        record = TopologyRecord(circuit)
        self._bind(record, record.resistances, record.capacitances, gmin_s)

    def _bind(
        self,
        record: TopologyRecord,
        resistances: np.ndarray,
        capacitances: np.ndarray,
        gmin_s: float,
    ) -> None:
        self.record = record
        self.resistances = resistances
        self.capacitances = capacitances
        self.gmin_s = gmin_s
        self.n_nodes = record.n_nodes
        self.n_branches = record.n_branches
        self.size = record.size
        with_gmin = gmin_s > 0.0
        g_values = [(1.0 / resistances)[record._g_source] * record._g_sign]
        if with_gmin:
            g_values.append(np.full(self.n_nodes, gmin_s, dtype=float))
        g_values.append(record._vs_values)
        self._g_triplets = (*record._g_index[with_gmin], np.concatenate(g_values))
        self._c_triplets = (
            *record._c_index,
            capacitances[record._c_source] * record._c_sign,
        )
        self._dense_system: Optional[DenseSystem] = None

    # -- index helpers -------------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return list(self.record.node_names)

    def index_of(self, node: str) -> Optional[int]:
        """MNA index of a node (``None`` for ground)."""
        return self.record.index_of(node)

    def branch_index(self, source_name: str) -> int:
        for offset, source in enumerate(self.record.voltage_sources):
            if source.name == source_name:
                return self.n_nodes + offset
        raise MNAError(f"no voltage source named {source_name!r}")

    # -- static matrices -------------------------------------------------------------

    def structure(self) -> MatrixStructure:
        """The sparse layout of the record's bindings with this one's gmin tail."""
        with_gmin, structures = self.gmin_s > 0.0, self.record._structures
        if with_gmin not in structures:
            structures[with_gmin] = MatrixStructure(self.record, with_gmin)
        return structures[with_gmin]

    @cached_property
    def g_values(self) -> np.ndarray:
        """``G``'s stored values, at the structure's ``g_rows``/``g_cols``."""
        structure = self.structure()
        return _bin_sum(structure.g_slots, self._g_triplets[2], structure.g_rows.size)

    @cached_property
    def c_values(self) -> np.ndarray:
        """``C``'s stored values, at the structure's ``c_rows``/``c_cols``."""
        structure = self.structure()
        return _bin_sum(structure.c_slots, self._c_triplets[2], structure.c_rows.size)

    def g_dot(self, x: np.ndarray) -> np.ndarray:
        """``G·x``, summed per row in scipy's CSR matvec order."""
        structure = self.structure()
        return _bin_sum(structure.g_rows, self.g_values * x[structure.g_cols], self.size)

    def c_dot(self, x: np.ndarray) -> np.ndarray:
        """``C·x``, summed per row in scipy's CSR matvec order."""
        structure = self.structure()
        return _bin_sum(structure.c_rows, self.c_values * x[structure.c_cols], self.size)

    # -- sources -----------------------------------------------------------------------

    def source_vector(self, time_s: float) -> np.ndarray:
        """The right-hand-side source vector at ``time_s``."""
        b = np.zeros(self.size)
        for offset, source in enumerate(self.record.voltage_sources):
            b[self.n_nodes + offset] = source.value_at(time_s)
        for source in self.record.current_sources:
            value = source.value_at(time_s)
            p = self.index_of(source.positive)
            n = self.index_of(source.negative)
            if p is not None:
                b[p] -= value
            if n is not None:
                b[n] += value
        return b

    # -- nonlinear stamps ------------------------------------------------------------------

    def batch_plan(self) -> BatchPlan:
        """The record's device gather/scatter arrays."""
        return self.record.batch_plan()

    def dense_system(self) -> DenseSystem:
        """The dense DC backend of this binding (built once, cached)."""
        if self._dense_system is None:
            self._dense_system = DenseSystem(self)
        return self._dense_system

    @property
    def use_dense_solver(self) -> bool:
        """Whether DC solves of this system go through the dense backend."""
        return self.size <= DENSE_SOLVER_MAX_UNKNOWNS

    def nonlinear_stamp(self, solution: np.ndarray) -> NonlinearStamp:
        """Linearised companion stamps of all MOSFETs around ``solution``.

        Every device runs its own compact model; the residual and stamp
        values are scattered through the record's :class:`BatchPlan`, the
        one definition of the stamp emission order, which the batched tier
        and the Jacobian structure read too.
        """
        plan = self.batch_plan()
        mosfets = self.record.mosfets
        stats = solver_stats()
        stats.stamp_evals += 1
        stats.stamp_device_evals += len(mosfets)
        # Terminal voltages, with ground read from a trailing zero.
        v = np.append(solution, 0.0).tolist()
        terminals = zip(
            mosfets, plan.drain_idx.tolist(), plan.gate_idx.tolist(), plan.source_idx.tolist()
        )
        ops = [device.operating_point(v[d], v[g], v[s]) for device, d, g, s in terminals]
        ids = np.array([op.ids_a for op in ops], dtype=float)
        gds = np.array([op.gds_s for op in ops], dtype=float)[plan.stamp_dev]
        gm = np.array([op.gm_s for op in ops], dtype=float)[plan.stamp_dev]
        residual = np.bincount(
            plan.res_pos, weights=ids[plan.res_dev] * plan.res_sign, minlength=self.size
        ).astype(float, copy=False)
        values = np.choose(plan.stamp_pick, (gds, gm, gds + gm)) * plan.stamp_sign
        return NonlinearStamp(
            rows=plan.stamp_rows, cols=plan.stamp_cols, values=values, residual=residual
        )

    # -- solution helpers ----------------------------------------------------------------------

    def solution_to_dict(self, solution: np.ndarray) -> Dict[str, float]:
        """Map an MNA solution vector to a node-name → voltage dictionary."""
        voltages = {
            name: float(solution[index])
            for name, index in self.record.node_index.items()
        }
        voltages["0"] = 0.0
        return voltages

    def initial_solution(self, initial_voltages: Optional[Dict[str, float]] = None) -> np.ndarray:
        """Build an initial solution vector from a node-voltage dictionary."""
        solution = np.zeros(self.size)
        if initial_voltages:
            node_index = self.record.node_index
            for node, value in initial_voltages.items():
                if is_ground(node):
                    continue
                index = node_index.get(node)
                if index is None:
                    raise MNAError(
                        f"initial condition given for unknown node {node!r}"
                    )
                solution[index] = value
        return solution


class CachedFactorSolver:
    """Sparse-LU reuse across Newton iterations and time steps.

    The solver holds its binding's ``G`` and ``C`` values at their places
    in the record's fixed Jacobian CSC structure, so assembling
    ``G + c_factor·C + J_nl`` is one vector add and one scatter of the
    stamp values.  Keyed by the capacitance scale ``c_factor`` (0 for DC,
    ``1/dt`` for backward Euler, ``2/dt`` for trapezoidal): the data of
    ``G + c_factor·C`` and — while the nonlinear stamp values are
    unchanged — its :func:`~scipy.sparse.linalg.splu` factorisation are
    cached, so a linear circuit refactorises only when ``dt`` changes.

    Every factorisation refills one CSC matrix per solver in place and
    hands it to :func:`~scipy.sparse.linalg.splu`, which copies what it
    factors: the structure checks scipy runs on a new matrix (format,
    index dtype, canonical order) are paid once per solver, not once per
    factorisation.  That matrix is the only scipy matrix a solver builds;
    products with the Jacobian go through :meth:`dot`.
    """

    #: Distinct c_factor entries kept before the cache is reset (the
    #: adaptive step controller revisits a small set of dt values).
    MAX_CACHE = 32

    def __init__(self, assembler: MNAAssembler) -> None:
        self.structure = structure = assembler.structure()
        self.size = size = assembler.size
        self.g_data = np.zeros(structure.nnz)
        self.g_data[structure.g_positions] = assembler.g_values
        self.c_data = np.zeros(structure.nnz)
        self.c_data[structure.c_positions] = assembler.c_values
        self._static: Dict[float, np.ndarray] = {}
        self._lu: Dict[float, Tuple[Optional[np.ndarray], object]] = {}
        self._jacobian = sparse.csc_matrix(
            (np.zeros(structure.nnz), structure.indices, structure.indptr),
            shape=(size, size),
        )

    def static_data(self, c_factor: float) -> np.ndarray:
        """Structure-aligned data of ``G + c_factor·C`` (cached per factor)."""
        data = self._static.get(c_factor)
        if data is None:
            if len(self._static) >= self.MAX_CACHE:
                self._static.clear()
                self._lu.clear()
            if c_factor == 0.0:
                data = self.g_data.copy()
            else:
                data = self.g_data + c_factor * self.c_data
            self._static[c_factor] = data
        return data

    def dot(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``J·x`` for structure-aligned ``data``, in scipy's CSC matvec order."""
        structure = self.structure
        return _bin_sum(structure.indices, data * x[structure.jacobian_cols], self.size)

    def solve(
        self, c_factor: float, stamp: NonlinearStamp, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(G + c_factor·C + J_nl) x = rhs``, reusing factorisations.

        The LU of the previous call with the same ``c_factor`` is reused
        when the stamp values are identical — always the case for circuits
        without nonlinear devices, where the Jacobian is the static matrix.
        """
        static_data = self.static_data(c_factor)
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
        stats = solver_stats()
        if lu is None:
            data = self._jacobian.data
            np.copyto(data, static_data)
            if values.size:
                np.add.at(data, self.structure.nl_positions, values)
            lu = splu(self._jacobian)
            stats.factorizations += 1
            if cached is not None:
                stats.refactorizations += 1
            self._lu[c_factor] = (values.copy() if values.size else None, lu)
        stats.sparse_solves += 1
        return lu.solve(rhs)
