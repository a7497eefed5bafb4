"""Batched solver tier: lockstep Newton/transient over stacked work items.

The campaign hot path solves thousands of *small, same-shaped* circuits —
butterfly sweeps and write-margin sweeps differ only in element values, not
topology.  This module stacks such lanes into ``(N, n, n)`` dense systems
and iterates them jointly: one vectorised MOSFET kernel call, one batched
``numpy.linalg.solve`` and one scatter per Newton *tick* replace N Python
device loops and N separate solves.

One control flow, two servicers.  Every analysis is written once, as a
lane generator: the DC rescue ladder and sweep continuation in
:mod:`repro.circuit.dc` (:func:`~repro.circuit.dc._gen_operating_point`,
:func:`~repro.circuit.dc._gen_dc_sweep`) and the transient time loop in
:mod:`repro.circuit.transient` (:func:`~repro.circuit.transient._transient_lane`).
The scalar entry points (``dc_operating_point``, ``dc_sweep``,
``TransientSolver.run``) drive one lane and answer its requests with the
reference numerics — :func:`~repro.circuit.dc._newton_solve` for a DC
Newton target, :meth:`~repro.circuit.mna.MNAAssembler.nonlinear_stamp`
for a transient stamp.  The two engines here drive many lanes and answer
their requests jointly, so the tiers differ only in those two servicers.

Parity of the servicers is by construction, not by tolerance.  Every
array expression below is the element-wise twin of the scalar Newton
iteration and stamp: same operations, same order, same numpy ufuncs.  The
decisive primitives were verified bitwise on the batched shapes —
``np.linalg.solve`` over a stacked batch equals the per-item solve,
batched matmul equals the per-item matvec, and ``np.bincount``
accumulates equal indices sequentially in emission order, reproducing the
scalar ``+=`` sequence.  A lane therefore follows exactly the iterate
trajectory of the one-lane driver, converges on the same tick with the
same iteration count, and lands on the same bits.

DC lanes: the group engine advances every live lane's current Newton
target by one iteration per tick, so a lane deep inside a fold rescue
iterates in the same vectorised tick as a lane cruising along its sweep —
nothing serialises.  The live lanes fill the leading slots of the group's
arrays, so a tick is a fixed set of whole-array operations: one
solution-buffer gather, one kernel call, one ``bincount`` that yields the
residuals and the Jacobian scatters together, and one stacked dense
solve.  A lane that finishes its analysis is compacted out at the end of
the tick.  Robustness state stays per lane: Newton options, damping and
step limiting are per-slot arrays, a slot takes each target's options
(an escalated rescue scales the iteration budget of its ladder's
targets), and the gmin variants a rescue needs bind the lane's
:class:`~repro.circuit.mna.TopologyRecord` to the same element values at
another gmin.  :func:`batch_dc_sweep` and :func:`batch_dc_operating_points`
open every lane once — one binding per lane — and a lane above the
dense-solver size threshold is solved by the one-lane driver on that
binding, counted in ``SolverStats.scalar_fallbacks``.

Transient lanes: the adaptive step controller makes time points
lane-specific, so the driver gathers every lane's pending stamp request
into one tick of fixed array work — one solution-buffer fill, one kernel
call, one residual scatter and one stamp selection over tables
concatenated once per set of live lanes — and keeps the linear solves on
each lane's own :class:`~repro.circuit.mna.CachedFactorSolver` (sparse
``splu``).  Heterogeneous topologies batch fine because only the
element-wise kernel and the disjoint per-lane scatters are shared; lanes
bound to one record (the corners of one read or write column) share its
batch plan, Jacobian structure and index arrays, and differ only in
their value arrays.
Stacking small transient lanes into dense solves like the DC group was
ruled out: a dense LAPACK LU pivots and sums in a different order from
SuperLU's COLAMD-ordered LU, so the records would move.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate, compress
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs.convergence import (
    lane_group_label,
    record_convergence,
    record_step_rejections,
)
from .dc import (
    DCResult,
    DCSweepResult,
    NewtonOptions,
    NewtonResult,
    NewtonTarget,
    _AssemblerCache,
    _gen_dc_sweep,
    _gen_operating_point,
    _solve_operating_point,
    _solve_sweep,
    _sweep_grid,
    dc_operating_point,
    dc_sweep,
)
from .mna import BatchPlan, MNAAssembler, NonlinearStamp, solver_stats
from .mosfet import DeviceParams, batch_operating_points
from .netlist import Circuit
from .transient import StopCondition, TransientSolver, _transient_lane
from .waveform import TransientResult

#: A lane outcome: the analysis result, or the exception that lane raised.
#: Batched entry points never let one lane's failure poison its batch —
#: exceptions are captured per lane and re-raised by the caller per item.
LaneOutcome = Union[DCResult, DCSweepResult, TransientResult, BaseException]


@dataclass(frozen=True)
class SweepLaneSpec:
    """One :func:`~repro.circuit.dc.dc_sweep` call, as batch input."""

    circuit: Circuit
    source_name: str
    values: Sequence[float]
    initial_voltages: Optional[Dict[str, float]] = None
    options: Optional[NewtonOptions] = None
    gmin_s: float = 1e-12


@dataclass(frozen=True)
class OperatingPointLaneSpec:
    """One :func:`~repro.circuit.dc.dc_operating_point` call, as batch input."""

    circuit: Circuit
    initial_voltages: Optional[Dict[str, float]] = None
    options: Optional[NewtonOptions] = None
    gmin_s: float = 1e-12
    source_overrides: Optional[Mapping[str, float]] = None


@dataclass(frozen=True)
class TransientLaneSpec:
    """One :meth:`TransientSolver.run` call, as batch input.

    The solver is constructed by the caller (it chooses the assembler: a
    circuit's own, or a bound topology record); the batch driver only
    orchestrates its time loop.
    """

    solver: TransientSolver
    initial_voltages: Optional[Dict[str, float]] = None
    stop_condition: Optional[StopCondition] = None


_DCGen = Generator[NewtonTarget, NewtonResult, Union[DCResult, DCSweepResult]]


# -- DC lockstep engine -----------------------------------------------------------------
#
# All lanes of a group share one structural shape, so each tick evaluates
# the live lanes' stamps in one kernel call and solves their Jacobians
# in one batched dense solve.  Per-lane state (plan tables, Newton
# options, iterate, damping, previous residual, iteration count) lives in
# arrays with one row per slot; the lane generators of dc.py supply each
# lane's targets.

#: :class:`DeviceParams` fields in constructor order.
_PARAM_FIELDS = tuple(f.name for f in fields(DeviceParams))

#: A DC group's flat tick tables: terminals, device parameters, weight
#: picks, weight signs and bins (see :meth:`_DCGroup._flat_tables`).
_FlatTables = Tuple[np.ndarray, DeviceParams, np.ndarray, np.ndarray, np.ndarray]


class _DCLane:
    """One generator-driven DC lane and its captured outcome."""

    __slots__ = ("index", "gen", "base", "outcome")

    def __init__(self, index: int, gen: _DCGen, base: MNAAssembler) -> None:
        self.index = index
        self.gen = gen
        self.base = base
        self.outcome: Optional[LaneOutcome] = None


def _structural_key(assembler: MNAAssembler) -> Tuple[int, int, int, int, int]:
    plan = assembler.batch_plan()
    return (
        assembler.size,
        assembler.n_nodes,
        plan.n_devices,
        int(plan.res_pos.size),
        int(plan.stamp_rows.size),
    )


class _DCGroup:
    """Lockstep Newton over one structurally identical set of lanes.

    Slots: the live lanes fill rows ``0 .. na - 1`` of every per-slot
    array, in lane order, so a tick reads whole arrays and hands the kernel
    and the solver the live lanes in their original order.  A lane whose
    generator finishes is only marked during the tick; at its end
    :meth:`_compact` gathers the survivors to the front of every per-slot
    array and rebuilds the flat tick tables once.

    One scatter: the kernel's ``(ids, gds, gm, gds + gm)`` are
    concatenated, one take and one multiply by ±1 give every residual and
    Jacobian stamp value in its plan's emission order, and one
    ``bincount`` adds them into per-lane bins — lane ``j`` owns bins
    ``[j·size·(size + 1), (j + 1)·size·(size + 1))``, its residual first
    and its dense stamp matrix after.  Bins are disjoint between lanes and
    between the two parts, so every bin accumulates the contributions of
    the one-lane stamp in the same order, and ``S + G`` equals the one-lane
    ``G + S`` bit for bit.
    """

    #: Arrays with one row per slot, compacted together.
    _SLOT_ARRAYS = (
        "terminals",
        "params",
        "weight_block",
        "weight_dev",
        "weight_sign",
        "bin_pos",
        "abs_tol",
        "rel_tol",
        "damping0",
        "vstep_limit",
        "max_iter",
        "g_stack",
        "x",
        "b",
        "damping",
        "prev_res",
        "iter",
    )

    def __init__(self, lanes: List[_DCLane]) -> None:
        n = len(lanes)
        self.n_lanes = n
        solver_stats().batch_lanes += n
        first = lanes[0].base
        self.size = first.size
        self.n_nodes = first.n_nodes
        self.n_devices = first.batch_plan().n_devices
        plans = [lane.base.batch_plan() for lane in lanes]
        # Lane-local plan tables.  Lanes share lengths (the structural
        # key) but not necessarily index patterns.  The tables are
        # gmin-independent, so one set serves every target a lane's
        # rescue ladder produces.
        self.terminals = np.stack(
            [np.stack((p.drain_idx, p.gate_idx, p.source_idx)) for p in plans]
        )
        self.params = np.stack(
            [[getattr(p.params, name) for name in _PARAM_FIELDS] for p in plans]
        )
        # One weight per residual entry, then one per stamp entry: the
        # block of (ids, gds, gm, gds + gm) it reads, its device, its ±1
        # sign and its bin in the lane's own range.
        self.weight_block = np.stack(
            [
                np.concatenate((np.zeros_like(p.res_dev), 1 + p.stamp_pick))
                for p in plans
            ]
        )
        self.weight_dev = np.stack(
            [np.concatenate((p.res_dev, p.stamp_dev)) for p in plans]
        )
        self.weight_sign = np.stack(
            [np.concatenate((p.res_sign, p.stamp_sign)) for p in plans]
        )
        self.bin_pos = np.stack(
            [np.concatenate((p.res_pos, self.size + p.stamp_flat)) for p in plans]
        )
        # Newton options per slot, installed from each lane's targets.
        self.abs_tol = np.zeros(n)
        self.rel_tol = np.zeros(n)
        self.damping0 = np.zeros(n)
        self.vstep_limit = np.zeros(n)
        self.max_iter = np.zeros(n, dtype=np.int64)

        self.g_stack = np.zeros((n, self.size, self.size))
        self.x = np.zeros((n, self.size))
        self.b = np.zeros((n, self.size))
        self.damping = self.damping0.copy()
        self.prev_res = np.full(n, np.nan)
        self.iter = np.zeros(n, dtype=np.int64)
        #: The lane in each slot, the assembler whose G that slot stacks
        #: and the Newton options it holds.
        self.slots: List[_DCLane] = list(lanes)
        self._stacked: List[Optional[MNAAssembler]] = [None] * n
        self._options: List[Optional[NewtonOptions]] = [None] * n
        #: Slots whose lane finished during the current tick.
        self._finished: List[int] = []
        for slot in range(n):
            self._resume(slot, None)
        self._compact()

    # -- lane transitions ---------------------------------------------------------

    def _resume(self, slot: int, result: Optional[NewtonResult]) -> None:
        """Advance the lane in ``slot``; install its next Newton target.

        A finished generator (result or exception captured as the lane
        outcome) only marks the slot; :meth:`_compact` drops it.
        """
        lane = self.slots[slot]
        try:
            target = lane.gen.send(result)
        except StopIteration as done:
            lane.outcome = done.value
            self._finished.append(slot)
            return
        except Exception as exc:  # noqa: BLE001 - lane isolation by design
            lane.outcome = exc
            self._finished.append(slot)
            return
        assembler, b, x0, options = target
        # Sweep continuation points reuse the lane's base assembler, whose
        # G the slot already holds, and a lane's targets share one options
        # object until a rescue escalation scales its iteration budget.
        if assembler is not self._stacked[slot]:
            self._stacked[slot] = assembler
            self.g_stack[slot] = assembler.dense_system().g_dense
        if options is not self._options[slot]:
            self._options[slot] = options
            self.abs_tol[slot] = options.abs_tolerance_a
            self.rel_tol[slot] = options.rel_tolerance
            self.damping0[slot] = options.damping
            self.vstep_limit[slot] = options.max_voltage_step_v
            self.max_iter[slot] = options.max_iterations
        self.b[slot] = b
        self.x[slot] = x0
        self.damping[slot] = self.damping0[slot]
        self.prev_res[slot] = np.nan
        self.iter[slot] = 0

    def _resolve(
        self,
        slot: int,
        converged: bool,
        iterations: int,
        max_residual: float,
        singular: bool = False,
    ) -> None:
        """Report the finished target of the lane in ``slot`` to its generator."""
        result: NewtonResult = (
            self.x[slot].copy(),
            int(iterations),
            converged,
            float(max_residual),
            singular,
        )
        self._resume(slot, result)

    def _compact(self) -> None:
        """Gather the live lanes to the front; rebuild the flat tick tables."""
        if self._finished:
            keep = np.ones(len(self.slots), dtype=bool)
            keep[self._finished] = False
            for name in self._SLOT_ARRAYS:
                setattr(self, name, getattr(self, name)[keep])
            self.slots = list(compress(self.slots, keep))
            self._stacked = list(compress(self._stacked, keep))
            self._options = list(compress(self._options, keep))
            self._finished = []
        if self.slots:
            self._tables = self._flat_tables(slice(None))
            #: Solution buffer; the last column is the ground zero.
            self._solution = np.zeros((len(self.slots), self.size + 1))

    # -- batched evaluation -------------------------------------------------------

    def _flat_tables(self, sel: Union[slice, np.ndarray]) -> _FlatTables:
        """Terminals, parameters, weight picks, signs and bins of slots ``sel``.

        Lane ``j`` of the selection owns row ``j`` of the solution buffer
        and devices ``[j·D, (j + 1)·D)`` of the kernel call.
        """
        terminals = self.terminals[sel]
        k = terminals.shape[0]
        d = self.n_devices
        lane = np.arange(k)[:, None]
        pick = self.weight_block[sel] * (k * d) + self.weight_dev[sel] + lane * d
        bins = self.bin_pos[sel] + lane * (self.size * (self.size + 1))
        return (
            (terminals + lane[:, :, None] * (self.size + 1))
            .transpose(1, 0, 2)
            .reshape(3, -1),
            DeviceParams(
                *self.params[sel].transpose(1, 0, 2).reshape(len(_PARAM_FIELDS), -1)
            ),
            pick.reshape(-1),
            self.weight_sign[sel].reshape(-1),
            bins.reshape(-1),
        )

    def _assemble(
        self, tables: _FlatTables, x: np.ndarray, g_stack: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residuals ``G·x + I_nl(x) − b`` and stamp matrices of lanes at ``x``.

        ``tables`` come from :meth:`_flat_tables`; ``x``, ``g_stack`` and
        ``b`` hold the same lanes in the same order.
        """
        terminals, params, pick, sign, bins = tables
        k, size = x.shape
        stats = solver_stats()
        stats.stamp_evals += 1
        stats.stamp_device_evals += k * self.n_devices
        solution = self._solution[:k]
        solution[:, :size] = x
        v = solution.reshape(-1)[terminals]
        ids, gm, gds = batch_operating_points(v[0], v[1], v[2], params)
        weights = np.concatenate((ids, gds, gm, gds + gm))[pick] * sign
        # An empty bincount (lanes without devices) returns integers.
        scattered = (
            np.bincount(bins, weights=weights, minlength=k * size * (size + 1))
            .astype(float, copy=False)
            .reshape(k, size + 1, size)
        )
        g_dot_x = np.matmul(g_stack, x[:, :, None])[:, :, 0]
        return g_dot_x + scattered[:, 0] - b, scattered[:, 1:]

    # -- the tick ----------------------------------------------------------------

    def run(self) -> None:
        while self.slots:
            self._tick()
            if self._finished:
                self._compact()

    def _tick(self) -> None:
        stats = solver_stats()
        na = len(self.slots)
        stats.batch_ticks += 1
        stats.batch_lane_iterations += na
        stats.batch_lane_slots += self.n_lanes
        self.iter += 1
        residual, matrices = self._assemble(self._tables, self.x, self.g_stack, self.b)
        max_res = np.abs(residual).max(axis=1)
        # NaN residuals fall through to the solve exactly as the scalar
        # loop does (NaN < tol and NaN >= prev are both False).
        converged = max_res < self.abs_tol
        # Every lane steps its damping; a converged lane's next target
        # resets it.  A NaN previous residual marks a target's first
        # iteration.
        d = self.damping
        with np.errstate(invalid="ignore"):
            worse = max_res >= self.prev_res
        stepped = np.where(
            worse,
            np.maximum(d * 0.5, self.damping0 / 256.0),
            np.minimum(d * 1.5, self.damping0),
        )
        self.damping = np.where(np.isnan(self.prev_res), d, stepped)
        self.prev_res[:] = max_res
        matrices += self.g_stack
        if converged.any():
            for slot in np.flatnonzero(converged):
                self._resolve(slot, True, self.iter[slot], max_res[slot])
            cont = np.flatnonzero(~converged)
            if cont.size == 0:
                return
        else:
            cont = slice(None)

        matrices = matrices[cont]
        rhs = -residual[cont]
        count = rhs.shape[0]
        stats.factorizations += count
        stats.dense_solves += count
        try:
            delta = np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular lane poisons the stacked call; redo per lane
            # (bitwise identical to the batched solve).  The scalar loop
            # reports the pre-solve iterate and residual and lets the
            # caller's gmin ladder regularise and retry.
            delta = np.zeros((count, self.size))
            singular = np.zeros(count, dtype=bool)
            for j in range(count):
                try:
                    delta[j] = np.linalg.solve(matrices[j], rhs[j])
                except np.linalg.LinAlgError:
                    singular[j] = True
            slots = np.arange(na)[cont]
            for slot in slots[singular]:
                self._resolve(
                    slot, False, self.iter[slot], max_res[slot], singular=True
                )
            cont = slots[~singular]
            if cont.size == 0:
                return
            delta = delta[~singular]

        max_step = np.abs(delta[:, : self.n_nodes]).max(axis=1)
        limit = self.vstep_limit[cont]
        damping = self.damping[cont]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                (max_step > limit) & (limit > 0.0),
                damping * (limit / max_step),
                damping,
            )
            x_new = self.x[cont] + scale[:, None] * delta
            x_node_max = np.abs(x_new[:, : self.n_nodes]).max(axis=1)
            update_small = max_step * scale < self.rel_tol[cont] * np.maximum(
                1.0, x_node_max
            )
        self.x[cont] = x_new
        exhausted = self.iter[cont] >= self.max_iter[cont]
        if not (update_small.any() or exhausted.any()):
            return
        slots = np.arange(na)[cont]
        if update_small.any():
            # Secondary convergence check on the update (scalar loop's
            # "helps linear circuits finish in one extra iteration"
            # branch), evaluated for its own slots only.
            sub = slots[update_small]
            residual2, _ = self._assemble(
                self._flat_tables(sub),
                x_new[update_small],
                self.g_stack[sub],
                self.b[sub],
            )
            mr2 = np.abs(residual2).max(axis=1)
            # The scalar path overwrites max_residual here whether or not
            # the check passes.
            max_res[sub] = mr2
            passed = mr2 < self.abs_tol[sub] * 10.0
            for slot in sub[passed]:
                self._resolve(slot, True, self.iter[slot], max_res[slot])
            exhausted[np.flatnonzero(update_small)[passed]] = False
        for slot in slots[exhausted]:
            self._resolve(slot, False, self.max_iter[slot], max_res[slot])


def _run_dc_lockstep(lanes: List[_DCLane]) -> None:
    groups: Dict[Tuple[int, int, int, int, int], List[_DCLane]] = {}
    for lane in lanes:
        groups.setdefault(_structural_key(lane.base), []).append(lane)
    for members in groups.values():
        _DCGroup(members).run()
        # Convergence telemetry per *lane outcome* (not per lockstep
        # target — a sweep lane yields hundreds of targets, and the
        # registry lock must stay off that path).
        label = lane_group_label(len(members))
        for lane in members:
            outcome = lane.outcome
            if isinstance(outcome, DCSweepResult):
                record_convergence(
                    "batch_dc_sweep", outcome.iterations_total, True, lane_group=label
                )
            elif isinstance(outcome, DCResult):
                record_convergence(
                    "batch_dc", outcome.iterations, True, lane_group=label
                )
            elif isinstance(outcome, BaseException):
                record_convergence("batch_dc", 0, False, lane_group=label)


#: An opened DC lane: its one-lane solver, its lane generator and their
#: shared arguments, the lane's :class:`_AssemblerCache` first.
_OpenedDCLane = Tuple[Callable[..., Any], Callable[..., _DCGen], Tuple[Any, ...]]


def _batch_dc(
    specs: Sequence[Any], open_lane: Callable[[Any], _OpenedDCLane]
) -> List[LaneOutcome]:
    """Open every lane once; run the dense ones in lockstep, the rest alone.

    A lane above the dense-solver threshold is solved by the one-lane
    driver on the binding it was opened with, counted in
    ``SolverStats.scalar_fallbacks``.
    """
    outcomes: List[Optional[LaneOutcome]] = [None] * len(specs)
    lanes: List[_DCLane] = []
    for index, spec in enumerate(specs):
        try:
            solve_alone, generator, args = open_lane(spec)
            base = args[0].base
            if base.use_dense_solver:
                lanes.append(_DCLane(index, generator(*args, kind="batch_dc"), base))
            else:
                solver_stats().scalar_fallbacks += 1
                outcomes[index] = solve_alone(*args)
        except Exception as exc:  # noqa: BLE001 - lane isolation by design
            outcomes[index] = exc
    _run_dc_lockstep(lanes)
    for lane in lanes:
        outcomes[lane.index] = lane.outcome
    return outcomes


def _open_sweep(spec: SweepLaneSpec) -> _OpenedDCLane:
    grid = _sweep_grid(spec.values)
    cache = _AssemblerCache(MNAAssembler(spec.circuit, gmin_s=spec.gmin_s))
    cache.base.branch_index(spec.source_name)
    options = spec.options if spec.options is not None else NewtonOptions()
    args = (cache, spec.source_name, grid, spec.initial_voltages, options, spec.gmin_s)
    return _solve_sweep, _gen_dc_sweep, args


def _open_operating_point(spec: OperatingPointLaneSpec) -> _OpenedDCLane:
    cache = _AssemblerCache(MNAAssembler(spec.circuit, gmin_s=spec.gmin_s))
    options = spec.options if spec.options is not None else NewtonOptions()
    args = (cache, spec.initial_voltages, options, spec.gmin_s, spec.source_overrides)
    return _solve_operating_point, _gen_operating_point, args


def batch_dc_sweep(specs: Sequence[SweepLaneSpec]) -> List[LaneOutcome]:
    """Run many :func:`~repro.circuit.dc.dc_sweep` calls in lockstep.

    Returns one outcome per spec, in order: a
    :class:`~repro.circuit.dc.DCSweepResult` bitwise identical to the
    scalar call, or the exception the scalar call would have raised.
    """
    return _batch_dc(specs, _open_sweep)


def batch_dc_operating_points(
    specs: Sequence[OperatingPointLaneSpec],
) -> List[LaneOutcome]:
    """Run many :func:`~repro.circuit.dc.dc_operating_point` calls in lockstep.

    Every Newton solve of every lane — including those deep inside the
    gmin/source-stepping/pseudo-transient rescue ladder — runs in the
    shared lockstep tick; results and iteration counts match the scalar
    calls exactly.
    """
    return _batch_dc(specs, _open_operating_point)


# -- transient lockstep driver ----------------------------------------------------------

_StampRequest = np.ndarray
_TransientGen = Generator[_StampRequest, NonlinearStamp, Tuple[TransientResult, int]]


class _TransientTables:
    """Concatenated gather/scatter tables of one set of transient lanes.

    Lane ``k`` owns ``x_slices[k]`` of one solution buffer that ends in a
    shared ground zero (terminal index ``size``), a block of devices in
    the one kernel call, and ``stamp_slices[k]`` of the stamp values.
    Residual positions are offset into the lane's own range, so no
    ``bincount`` bin is shared between lanes and each bin accumulates in
    its plan's emission order, as the one-lane stamp does.
    """

    def __init__(self, plans: Sequence[BatchPlan]) -> None:
        self.plans = plans
        x_off = list(accumulate((plan.size for plan in plans), initial=0))
        dev_off = list(accumulate((plan.n_devices for plan in plans), initial=0))
        stamp_off = list(accumulate((plan.stamp_dev.size for plan in plans), initial=0))
        self.size = x_off[-1]
        self.n_devices = dev_off[-1]
        self.x_slices = [slice(lo, hi) for lo, hi in zip(x_off, x_off[1:])]
        self.stamp_slices = [
            slice(lo, hi) for lo, hi in zip(stamp_off, stamp_off[1:])
        ]

        def terminals(name: str) -> np.ndarray:
            parts = []
            for plan, off in zip(plans, x_off):
                idx = getattr(plan, name)
                parts.append(np.where(idx < plan.size, idx + off, self.size))
            return np.concatenate(parts)

        def offset(name: str, offsets: Sequence[int]) -> np.ndarray:
            return np.concatenate(
                [getattr(plan, name) + off for plan, off in zip(plans, offsets)]
            )

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(plan, name) for plan in plans])

        self.drain = terminals("drain_idx")
        self.gate = terminals("gate_idx")
        self.source = terminals("source_idx")
        self.params = DeviceParams.stack([plan.params for plan in plans])
        self.res_pos = offset("res_pos", x_off)
        self.res_dev = offset("res_dev", dev_off)
        self.res_sign = joined("res_sign")
        self.stamp_dev = offset("stamp_dev", dev_off)
        self.stamp_pick = joined("stamp_pick")
        self.stamp_sign = joined("stamp_sign")


#: The shared ground entry that ends every tick's solution buffer.
_GROUND = np.zeros(1)


def batch_run_transients(specs: Sequence[TransientLaneSpec]) -> List[LaneOutcome]:
    """Run many transient analyses with their device stamps batched.

    A tick is a fixed set of array operations over every pending lane:
    one fill of a solution buffer that concatenates the lanes' iterates,
    one vectorised kernel call, one residual ``bincount`` and one stamp
    ``choose``, over tables (:class:`_TransientTables`) rebuilt only when
    a lane finishes.  Each lane's generator then gets its own slices of
    the residual and stamp values back.  The implicit solves stay on each
    lane's own :class:`~repro.circuit.mna.CachedFactorSolver`, so lanes
    with different topologies (read ladders, write columns) batch
    together.  Waveforms are bitwise identical to per-lane
    :meth:`TransientSolver.run` calls, and an exception raised in one
    lane (a solver failure, or a stop condition that raises) becomes that
    lane's outcome without touching the others.
    """
    outcomes: List[Optional[LaneOutcome]] = [None] * len(specs)
    gens: List[_TransientGen] = [
        _transient_lane(spec.solver, spec.initial_voltages, spec.stop_condition)
        for spec in specs
    ]
    rejections = 0
    stats = solver_stats()

    def advance(
        lanes: Sequence[int], stamps: Sequence[Optional[NonlinearStamp]]
    ) -> Tuple[List[int], List[_StampRequest]]:
        """Send each lane its stamp; return the running lanes' next requests."""
        nonlocal rejections
        running: List[int] = []
        requests: List[_StampRequest] = []
        for i, stamp in zip(lanes, stamps):
            try:
                request = gens[i].send(stamp)
            except StopIteration as done:
                outcomes[i], lane_rejections = done.value
                rejections += lane_rejections
            except Exception as exc:  # noqa: BLE001 - lane isolation by design
                outcomes[i] = exc
            else:
                running.append(i)
                requests.append(request)
        return running, requests

    live, requests = advance(range(len(specs)), [None] * len(specs))
    stats.batch_lanes += len(live)
    tables: Optional[_TransientTables] = None
    while live:
        if tables is None:
            tables = _TransientTables(
                [specs[i].solver.assembler.batch_plan() for i in live]
            )
        stats.batch_ticks += 1
        stats.batch_lane_iterations += len(live)
        # This driver re-queues every unfinished lane each tick, so slots
        # equal iterations here; the counter stays coherent with the DC
        # lockstep engine's occupancy ratio.
        stats.batch_lane_slots += len(live)
        stats.stamp_evals += 1
        stats.stamp_device_evals += tables.n_devices
        solution = np.concatenate(requests + [_GROUND])
        ids, gm, gds = batch_operating_points(
            solution[tables.drain],
            solution[tables.gate],
            solution[tables.source],
            tables.params,
        )
        residual = np.bincount(
            tables.res_pos,
            weights=ids[tables.res_dev] * tables.res_sign,
            minlength=tables.size,
        )
        gds_e = gds[tables.stamp_dev]
        gm_e = gm[tables.stamp_dev]
        values = (
            np.choose(tables.stamp_pick, (gds_e, gm_e, gds_e + gm_e))
            * tables.stamp_sign
        )
        stamps = [
            NonlinearStamp(
                rows=plan.stamp_rows,
                cols=plan.stamp_cols,
                values=values[stamp_slice],
                residual=residual[x_slice],
            )
            for plan, stamp_slice, x_slice in zip(
                tables.plans, tables.stamp_slices, tables.x_slices
            )
        ]
        running, requests = advance(live, stamps)
        if len(running) < len(live):
            tables = None
        live = running
    record_step_rejections("batch_transient", rejections)
    label = lane_group_label(len(specs))
    for outcome in outcomes:
        if isinstance(outcome, TransientResult):
            record_convergence(
                "batch_transient",
                max(0, len(outcome.times_s) - 1),
                True,
                lane_group=label,
            )
        elif isinstance(outcome, BaseException):
            record_convergence("batch_transient", 0, False, lane_group=label)
    return outcomes


# -- prepared measurements --------------------------------------------------------------
#
# The measurement layers (read/write columns, butterfly margins, the
# operation registry) build every measurement only as *prepare* — the
# circuits and lane specs — plus *finish* — turning solved lanes back
# into a measurement.  Their one-lane ``measure_*`` entry points are
# ``prepare_*(...).run_scalar()``; the campaign prepares whole chunks and
# either solves every lane of every item in shared batches
# (:func:`solve_prepared`) or each item with :meth:`PreparedWork.run_scalar`.
# Both feed the same finish, so there is one measurement path end to end.

#: Any lane spec a :class:`PreparedWork` may carry.
LaneSpec = Union[SweepLaneSpec, OperatingPointLaneSpec, TransientLaneSpec]


@dataclass
class PreparedWork:
    """A deferred measurement: lane specs plus a ``finish`` continuation.

    ``finish`` receives the lane results in ``lanes`` order and returns
    the measurement.  A prepared item may carry zero lanes (a memo hit):
    ``finish`` is then called with an empty list.
    """

    lanes: List[LaneSpec] = field(default_factory=list)
    finish: Callable[[Sequence[Any]], Any] = lambda results: None

    def mapped(self, wrap: Callable[[Any], Any]) -> "PreparedWork":
        """A new prepared item whose finish post-processes this one's."""
        inner = self.finish
        return PreparedWork(
            lanes=self.lanes, finish=lambda results: wrap(inner(results))
        )

    def run_scalar(self) -> Any:
        """Solve the lanes one at a time with the one-lane drivers and finish."""
        return self.finish([run_lane_scalar(lane) for lane in self.lanes])


def run_lane_scalar(lane: LaneSpec) -> Union[DCResult, DCSweepResult, TransientResult]:
    """Solve one lane spec through its one-lane driver."""
    if isinstance(lane, SweepLaneSpec):
        return dc_sweep(
            lane.circuit,
            lane.source_name,
            lane.values,
            initial_voltages=lane.initial_voltages,
            options=lane.options,
            gmin_s=lane.gmin_s,
        )
    if isinstance(lane, OperatingPointLaneSpec):
        return dc_operating_point(
            lane.circuit,
            initial_voltages=lane.initial_voltages,
            options=lane.options,
            gmin_s=lane.gmin_s,
            source_overrides=lane.source_overrides,
        )
    return lane.solver.run(
        initial_voltages=lane.initial_voltages,
        stop_condition=lane.stop_condition,
    )


def solve_prepared(items: Sequence[PreparedWork]) -> List[Any]:
    """Solve many prepared measurements with their lanes batched jointly.

    All sweep lanes across all items go into one :func:`batch_dc_sweep`
    call (likewise operating points and transients), so same-topology
    work from *different* items stacks into shared lockstep groups — the
    batching is global over the chunk, not per measurement.

    Returns one entry per item: the ``finish`` value, or the exception
    that item hit (its first failed lane, or what ``finish`` raised).
    Items never poison each other.
    """
    sweep_refs: List[Tuple[int, int]] = []
    op_refs: List[Tuple[int, int]] = []
    transient_refs: List[Tuple[int, int]] = []
    sweep_specs: List[SweepLaneSpec] = []
    op_specs: List[OperatingPointLaneSpec] = []
    transient_specs: List[TransientLaneSpec] = []
    lane_results: List[List[Any]] = []
    for item_index, item in enumerate(items):
        lane_results.append([None] * len(item.lanes))
        for lane_index, lane in enumerate(item.lanes):
            if isinstance(lane, SweepLaneSpec):
                sweep_refs.append((item_index, lane_index))
                sweep_specs.append(lane)
            elif isinstance(lane, OperatingPointLaneSpec):
                op_refs.append((item_index, lane_index))
                op_specs.append(lane)
            else:
                transient_refs.append((item_index, lane_index))
                transient_specs.append(lane)
    for refs, outcomes in (
        (sweep_refs, batch_dc_sweep(sweep_specs) if sweep_specs else []),
        (op_refs, batch_dc_operating_points(op_specs) if op_specs else []),
        (transient_refs, batch_run_transients(transient_specs) if transient_specs else []),
    ):
        for (item_index, lane_index), outcome in zip(refs, outcomes):
            lane_results[item_index][lane_index] = outcome

    results: List[Any] = []
    for item, outcomes in zip(items, lane_results):
        failed = next(
            (o for o in outcomes if isinstance(o, BaseException)), None
        )
        if failed is not None:
            results.append(failed)
            continue
        try:
            results.append(item.finish(outcomes))
        except Exception as exc:  # noqa: BLE001 - item isolation by design
            results.append(exc)
    return results
