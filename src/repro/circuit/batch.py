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

DC lanes: the group engine advances every active lane's current Newton
target by one iteration per tick, so a lane deep inside a fold rescue
iterates in the same vectorised tick as a lane cruising along its sweep —
nothing serialises.  Robustness state stays per lane: converged lanes
freeze, damping and step limiting are per-lane arrays, and the gmin
variants a rescue needs are cheap
:meth:`~repro.circuit.mna.MNAAssembler.clone_with_gmin` clones.  Lanes
above the dense-solver size threshold (and lanes under an active rescue
escalation) take the one-lane driver, counted in
``SolverStats.scalar_fallbacks``.

Transient lanes: the adaptive step controller makes time points
lane-specific, so the driver gathers every lane's pending stamp request
into one tick of fixed array work — one solution-buffer fill, one kernel
call, one residual scatter and one stamp selection over tables
concatenated once per set of live lanes — and keeps the linear solves on
each lane's own :class:`~repro.circuit.mna.CachedFactorSolver` (sparse
``splu``).  Heterogeneous topologies batch fine because only the
element-wise kernel and the disjoint per-lane scatters are shared.
Stacking small transient lanes into dense solves like the DC group was
ruled out: a dense LAPACK LU pivots and sums in a different order from
SuperLU's COLAMD-ordered LU, so the records would move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
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
    ConvergenceError,
    DCResult,
    DCSweepResult,
    NewtonOptions,
    NewtonResult,
    NewtonTarget,
    _AssemblerCache,
    _gen_dc_sweep,
    _gen_operating_point,
    dc_operating_point,
    dc_sweep,
    rescue_level,
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

    The solver is constructed by the caller (it owns the Jacobian-template
    donation policy); the batch driver only orchestrates its time loop.
    """

    solver: TransientSolver
    initial_voltages: Optional[Dict[str, float]] = None
    stop_condition: Optional[StopCondition] = None


_DCGen = Generator[NewtonTarget, NewtonResult, Union[DCResult, DCSweepResult]]


# -- DC lockstep engine -----------------------------------------------------------------
#
# All lanes of a group share one structural shape, so each tick evaluates
# the active lanes' stamps in one kernel call and solves their Jacobians
# in one batched dense solve.  Per-lane control state (damping, previous
# residual, iteration count, singular flag) lives in flat arrays indexed
# by lane; the lane generators of dc.py supply each lane's targets.


class _DCLane:
    """One generator-driven DC lane and its captured outcome."""

    __slots__ = ("index", "gen", "base", "options", "outcome")

    def __init__(
        self,
        index: int,
        gen: _DCGen,
        base: MNAAssembler,
        options: NewtonOptions,
    ) -> None:
        self.index = index
        self.gen = gen
        self.base = base
        self.options = options
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
    """Lockstep Newton over one structurally identical set of lanes."""

    def __init__(self, lanes: List[_DCLane]) -> None:
        self.lanes = lanes
        solver_stats().batch_lanes += len(lanes)
        first = lanes[0].base
        self.size = first.size
        self.n_nodes = first.n_nodes
        self.n_devices = first.batch_plan().n_devices
        plans = [lane.base.batch_plan() for lane in lanes]
        # Per-lane gather/scatter tables.  Lanes share lengths (the
        # structural key) but not necessarily index patterns, so every
        # table is 2-D and gathered with take_along_axis per tick.  The
        # tables are gmin-independent, so one set serves every target a
        # lane's rescue ladder produces.
        self.drain_idx = np.stack([p.drain_idx for p in plans])
        self.gate_idx = np.stack([p.gate_idx for p in plans])
        self.source_idx = np.stack([p.source_idx for p in plans])
        self.res_pos = np.stack([p.res_pos for p in plans])
        self.res_dev = np.stack([p.res_dev for p in plans])
        self.res_sign = np.stack([p.res_sign for p in plans])
        self.stamp_flat = np.stack([p.stamp_flat for p in plans])
        self.stamp_pick = np.stack([p.stamp_pick for p in plans])
        self.stamp_sign = np.stack([p.stamp_sign for p in plans])
        self.stamp_dev = np.stack([p.stamp_dev for p in plans])
        self.p_polarity = np.stack([p.params.polarity for p in plans])
        self.p_vth = np.stack([p.params.vth_v for p in plans])
        self.p_k = np.stack([p.params.k_a for p in plans])
        self.p_alpha = np.stack([p.params.alpha for p in plans])
        self.p_lambda = np.stack([p.params.lambda_per_v for p in plans])
        opts = [lane.options for lane in lanes]
        self.abs_tol = np.array([o.abs_tolerance_a for o in opts])
        self.rel_tol = np.array([o.rel_tolerance for o in opts])
        self.damping0 = np.array([o.damping for o in opts])
        self.vstep_limit = np.array([o.max_voltage_step_v for o in opts])
        self.max_iter = np.array([o.max_iterations for o in opts], dtype=np.int64)

        n = len(lanes)
        self.g_stack = np.zeros((n, self.size, self.size))
        self.x = np.zeros((n, self.size))
        self.b = np.zeros((n, self.size))
        self.damping = self.damping0.copy()
        self.prev_res = np.full(n, np.nan)
        self.iter = np.zeros(n, dtype=np.int64)
        self.singular = np.zeros(n, dtype=bool)
        self.last_mr = np.full(n, np.inf)
        #: Static gather tables keyed by the active-lane tuple.  The active
        #: set only changes when a lane finishes its whole analysis, so the
        #: per-tick index gathers amortise to nothing.  Only gmin- and
        #: state-independent plan data may live here — x, b and g_stack
        #: change per target and are gathered fresh each tick.
        self._tables: Dict[bytes, Dict[str, object]] = {}
        self.active: List[int] = []
        for i in range(n):
            if self._resume(i, None):
                self.active.append(i)
        #: The active set as an index array, rebuilt lazily — it only
        #: changes when a lane finishes its whole analysis.
        self._act_arr = np.asarray(self.active, dtype=np.int64)
        self._act_dirty = False
        #: Scratch for the extended kernel-eval state; the trailing
        #: column is the implicit ground entry and must stay zero.
        self._x_ext = np.zeros((n, self.size + 1))

    # -- lane transitions ---------------------------------------------------------

    def _resume(self, i: int, result: Optional[NewtonResult]) -> bool:
        """Advance lane ``i``'s generator; install its next Newton target.

        Returns ``False`` when the generator finished (result or exception
        captured as the lane outcome).
        """
        lane = self.lanes[i]
        try:
            target = lane.gen.send(result)
        except StopIteration as done:
            lane.outcome = done.value
            return False
        except Exception as exc:  # noqa: BLE001 - lane isolation by design
            lane.outcome = exc
            return False
        # Lockstep lanes run at escalation level 0 (the entry points demote
        # rescued lanes), where every target carries the lane's options.
        assembler, b, x0, _options = target
        self.g_stack[i] = assembler.dense_system().g_dense
        self.b[i] = b
        self.x[i] = x0
        self.damping[i] = self.damping0[i]
        self.prev_res[i] = np.nan
        self.iter[i] = 0
        self.singular[i] = False
        self.last_mr[i] = np.inf
        return True

    def _resolve(self, i: int, converged: bool, iterations: int) -> None:
        """Report lane ``i``'s finished target back to its generator."""
        result: NewtonResult = (
            self.x[i].copy(),
            int(iterations),
            converged,
            float(self.last_mr[i]),
            bool(self.singular[i]),
        )
        if not self._resume(i, result):
            self.active.remove(i)
            self._act_dirty = True

    # -- batched helpers ----------------------------------------------------------

    def _tables_for(self, act: np.ndarray) -> Dict[str, object]:
        """Static gather tables for one set of lanes (memoised).

        The main tick always passes the full active set, whose tuple is
        stable across target transitions; secondary-check subsets slice
        these tables positionally instead of re-gathering.
        """
        key = act.tobytes()
        tbl = self._tables.get(key)
        if tbl is None:
            if len(self._tables) > 64:
                self._tables.clear()
            na = act.size
            tbl = {
                "rows": np.arange(na)[:, None],
                "drain": self.drain_idx[act],
                "gate": self.gate_idx[act],
                "source": self.source_idx[act],
                "res_dev": self.res_dev[act],
                "res_sign": self.res_sign[act],
                "res_pos": self.res_pos[act],
                "res_flat": (
                    self.res_pos[act] + (np.arange(na) * self.size)[:, None]
                ).reshape(-1),
                "stamp_dev": self.stamp_dev[act],
                "stamp_pick": self.stamp_pick[act],
                "stamp_sign": self.stamp_sign[act],
                "stamp_flat": self.stamp_flat[act],
                "p_polarity": self.p_polarity[act],
                "p_vth": self.p_vth[act],
                "p_k": self.p_k[act],
                "p_alpha": self.p_alpha[act],
                "p_lambda": self.p_lambda[act],
            }
            tbl["params_full"] = self._params_from(tbl, slice(None))
            self._tables[key] = tbl
        return tbl

    @staticmethod
    def _params_from(tbl: Dict[str, object], sel) -> DeviceParams:
        return DeviceParams(
            polarity=tbl["p_polarity"][sel].reshape(-1),
            vth_v=tbl["p_vth"][sel].reshape(-1),
            k_a=tbl["p_k"][sel].reshape(-1),
            alpha=tbl["p_alpha"][sel].reshape(-1),
            lambda_per_v=tbl["p_lambda"][sel].reshape(-1),
        )

    def _eval_devices(
        self, act: np.ndarray, x_sel: np.ndarray, sel=slice(None)
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kernel-evaluate the devices of ``act[sel]`` lanes at ``x_sel``."""
        stats = solver_stats()
        n_sel = x_sel.shape[0]
        stats.stamp_evals += 1
        stats.stamp_device_evals += n_sel * self.n_devices
        tbl = self._tables_for(act)
        x_ext = self._x_ext[:n_sel]
        x_ext[:, :-1] = x_sel
        rows = tbl["rows"][:n_sel]
        vd = x_ext[rows, tbl["drain"][sel]]
        vg = x_ext[rows, tbl["gate"][sel]]
        vs = x_ext[rows, tbl["source"][sel]]
        params = (
            tbl["params_full"]
            if isinstance(sel, slice)
            else self._params_from(tbl, sel)
        )
        ids, gm, gds = batch_operating_points(
            vd.reshape(-1),
            vg.reshape(-1),
            vs.reshape(-1),
            params,
        )
        shape = (n_sel, self.n_devices)
        return ids.reshape(shape), gm.reshape(shape), gds.reshape(shape)

    def _residual(
        self, act: np.ndarray, x_sel: np.ndarray, ids: np.ndarray, sel=slice(None)
    ) -> np.ndarray:
        """``G·x + I_nl(x) − b`` per lane, matching the scalar op order."""
        # bincount accumulates equal indices sequentially in input order,
        # reproducing the scalar per-device "+ids at drain, −ids at source"
        # emission sequence bitwise.
        tbl = self._tables_for(act)
        n_sel = x_sel.shape[0]
        rows = tbl["rows"][:n_sel]
        weights = ids[rows, tbl["res_dev"][sel]] * tbl["res_sign"][sel]
        if isinstance(sel, slice):
            flat = tbl["res_flat"]
        else:
            flat = (
                tbl["res_pos"][sel] + (np.arange(n_sel) * self.size)[:, None]
            ).reshape(-1)
        res_nl = np.bincount(
            flat,
            weights=weights.reshape(-1),
            minlength=n_sel * self.size,
        ).reshape(n_sel, self.size)
        lane_idx = act[sel]
        g_dot_x = np.matmul(self.g_stack[lane_idx], x_sel[:, :, None])[:, :, 0]
        return g_dot_x + res_nl - self.b[lane_idx]

    def _stamp_values(
        self, act: np.ndarray, gm: np.ndarray, gds: np.ndarray
    ) -> np.ndarray:
        """Jacobian stamp values in scalar emission order, per lane."""
        tbl = self._tables_for(act)
        rows = tbl["rows"]
        dev = tbl["stamp_dev"]
        gds_e = gds[rows, dev]
        gm_e = gm[rows, dev]
        # BatchPlan's pick/sign decomposition of the scalar stamp values.
        picked = np.choose(tbl["stamp_pick"], (gds_e, gm_e, gds_e + gm_e))
        return picked * tbl["stamp_sign"]

    def _matrices(
        self, act: np.ndarray, cont: np.ndarray, stamp_values: np.ndarray
    ) -> np.ndarray:
        """Dense Jacobians of the ``act[cont]`` lanes."""
        tbl = self._tables_for(act)
        n_sel = stamp_values.shape[0]
        flat = tbl["stamp_flat"][cont] + (
            np.arange(n_sel) * self.size * self.size
        )[:, None]
        scatter = np.bincount(
            flat.reshape(-1),
            weights=stamp_values.reshape(-1),
            minlength=n_sel * self.size * self.size,
        ).reshape(n_sel, self.size, self.size)
        return self.g_stack[act[cont]] + scatter

    # -- the tick ----------------------------------------------------------------

    def run(self) -> None:
        while self.active:
            self._tick()

    def _tick(self) -> None:
        stats = solver_stats()
        if self._act_dirty:
            self._act_arr = np.asarray(self.active, dtype=np.int64)
            self._act_dirty = False
        act = self._act_arr
        stats.batch_ticks += 1
        stats.batch_lane_iterations += act.size
        stats.batch_lane_slots += len(self.lanes)
        self.iter[act] += 1
        x_act = self.x[act]
        ids, gm, gds = self._eval_devices(act, x_act)
        residual = self._residual(act, x_act, ids)
        max_res = np.abs(residual).max(axis=1)
        self.last_mr[act] = max_res
        for pos in np.nonzero(max_res < self.abs_tol[act])[0]:
            i = int(act[pos])
            self._resolve(i, True, int(self.iter[i]))

        cont = max_res >= self.abs_tol[act]
        # NaN residuals fall through to the solve exactly as the scalar
        # loop does (NaN < tol and NaN >= prev are both False).
        cont |= np.isnan(max_res)
        if not cont.any():
            return
        idx = act[cont]
        x_c = x_act[cont]
        res_c = residual[cont]
        mr_c = max_res[cont]

        has_prev = ~np.isnan(self.prev_res[idx])
        d = self.damping[idx]
        with np.errstate(invalid="ignore"):
            worse = mr_c >= self.prev_res[idx]
        stepped = np.where(
            worse,
            np.maximum(d * 0.5, self.damping0[idx] / 256.0),
            np.minimum(d * 1.5, self.damping0[idx]),
        )
        self.damping[idx] = np.where(has_prev, stepped, d)
        self.prev_res[idx] = mr_c

        stamp_values = self._stamp_values(act, gm, gds)[cont]
        matrices = self._matrices(act, cont, stamp_values)
        stats.factorizations += idx.size
        stats.dense_solves += idx.size
        singular = np.zeros(idx.size, dtype=bool)
        try:
            delta = np.linalg.solve(matrices, -res_c[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular lane poisons the stacked call; redo per lane
            # (bitwise identical to the batched solve) and mark offenders.
            delta = np.zeros((idx.size, self.size))
            for j in range(idx.size):
                try:
                    delta[j] = np.linalg.solve(matrices[j], -res_c[j])
                except np.linalg.LinAlgError:
                    singular[j] = True
        for j in np.nonzero(singular)[0]:
            i = int(idx[j])
            # The scalar loop reports the pre-solve iterate and residual
            # and lets the caller's gmin ladder regularise and retry.
            self.singular[i] = True
            self._resolve(i, False, int(self.iter[i]))
        if singular.any():
            keep = ~singular
            idx = idx[keep]
            if idx.size == 0:
                return
            x_c = x_c[keep]
            delta = delta[keep]

        node_delta = delta[:, : self.n_nodes]
        max_step = np.abs(node_delta).max(axis=1)
        limit = self.vstep_limit[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                (max_step > limit) & (limit > 0.0),
                self.damping[idx] * (limit / max_step),
                self.damping[idx],
            )
        x_new = x_c + scale[:, None] * delta
        self.x[idx] = x_new

        # Secondary convergence check on the update (scalar loop's "helps
        # linear circuits finish in one extra iteration" branch).
        x_node_max = np.abs(x_new[:, : self.n_nodes]).max(axis=1)
        with np.errstate(invalid="ignore"):
            update_small = max_step * scale < self.rel_tol[idx] * np.maximum(
                1.0, x_node_max
            )
        still = np.ones(idx.size, dtype=bool)
        if update_small.any():
            sub = idx[update_small]
            sub_pos = np.nonzero(cont)[0][update_small]
            ids2, _gm2, _gds2 = self._eval_devices(
                act, x_new[update_small], sub_pos
            )
            res2 = self._residual(act, x_new[update_small], ids2, sub_pos)
            mr2 = np.abs(res2).max(axis=1)
            # The scalar path overwrites max_residual here whether or not
            # the check passes.
            self.last_mr[sub] = mr2
            passed = mr2 < self.abs_tol[sub] * 10.0
            for j in np.nonzero(passed)[0]:
                self._resolve(int(sub[j]), True, int(self.iter[int(sub[j])]))
            keep = np.ones(idx.size, dtype=bool)
            keep[np.nonzero(update_small)[0][passed]] = False
            still = keep

        for i in idx[still]:
            i = int(i)
            if self.iter[i] >= self.max_iter[i]:
                self._resolve(i, False, int(self.max_iter[i]))


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


def batch_dc_sweep(specs: Sequence[SweepLaneSpec]) -> List[LaneOutcome]:
    """Run many :func:`~repro.circuit.dc.dc_sweep` calls in lockstep.

    Returns one outcome per spec, in order: a
    :class:`~repro.circuit.dc.DCSweepResult` bitwise identical to the
    scalar call, or the exception the scalar call would have raised.
    Lanes above the dense-solver threshold and every lane under an active
    rescue escalation run the scalar path directly.
    """
    outcomes: List[Optional[LaneOutcome]] = [None] * len(specs)
    lanes: List[_DCLane] = []
    stats = solver_stats()
    for index, spec in enumerate(specs):
        try:
            grid = np.asarray(list(spec.values), dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ConvergenceError("a DC sweep needs at least one source value")
            options = spec.options if spec.options is not None else NewtonOptions()
            assembler = MNAAssembler(spec.circuit, gmin_s=spec.gmin_s)
            assembler.branch_index(spec.source_name)
            if rescue_level() or not assembler.use_dense_solver:
                stats.scalar_fallbacks += 1
                outcomes[index] = dc_sweep(
                    spec.circuit,
                    spec.source_name,
                    spec.values,
                    initial_voltages=spec.initial_voltages,
                    options=spec.options,
                    gmin_s=spec.gmin_s,
                )
                continue
            cache = _AssemblerCache(assembler)
            lanes.append(
                _DCLane(
                    index,
                    _gen_dc_sweep(
                        cache,
                        spec.source_name,
                        grid,
                        spec.initial_voltages,
                        options,
                        spec.gmin_s,
                        kind="batch_dc",
                    ),
                    assembler,
                    options,
                )
            )
        except Exception as exc:  # noqa: BLE001 - lane isolation by design
            outcomes[index] = exc
    _run_dc_lockstep(lanes)
    for lane in lanes:
        outcomes[lane.index] = lane.outcome
    return outcomes


def batch_dc_operating_points(
    specs: Sequence[OperatingPointLaneSpec],
) -> List[LaneOutcome]:
    """Run many :func:`~repro.circuit.dc.dc_operating_point` calls in lockstep.

    Every Newton solve of every lane — including those deep inside the
    gmin/source-stepping/pseudo-transient rescue ladder — runs in the
    shared lockstep tick; results and iteration counts match the scalar
    calls exactly.
    """
    outcomes: List[Optional[LaneOutcome]] = [None] * len(specs)
    lanes: List[_DCLane] = []
    stats = solver_stats()
    for index, spec in enumerate(specs):
        try:
            options = spec.options if spec.options is not None else NewtonOptions()
            assembler = MNAAssembler(spec.circuit, gmin_s=spec.gmin_s)
            if rescue_level() or not assembler.use_dense_solver:
                stats.scalar_fallbacks += 1
                outcomes[index] = dc_operating_point(
                    spec.circuit,
                    initial_voltages=spec.initial_voltages,
                    options=spec.options,
                    gmin_s=spec.gmin_s,
                    source_overrides=spec.source_overrides,
                )
                continue
            cache = _AssemblerCache(assembler)
            lanes.append(
                _DCLane(
                    index,
                    _gen_operating_point(
                        cache,
                        spec.initial_voltages,
                        options,
                        spec.gmin_s,
                        spec.source_overrides,
                        kind="batch_dc",
                    ),
                    assembler,
                    options,
                )
            )
        except Exception as exc:  # noqa: BLE001 - lane isolation by design
            outcomes[index] = exc
    _run_dc_lockstep(lanes)
    for lane in lanes:
        outcomes[lane.index] = lane.outcome
    return outcomes


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
