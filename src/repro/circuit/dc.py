"""DC operating-point and swept-source (continuation) analysis.

Newton-Raphson on the static MNA system

    F(x) = G·x + I_nl(x) − b = 0

with a damped update and two continuation fallbacks for stubborn circuits:

* **gmin stepping** — a large gmin makes the system nearly linear; it is
  then reduced in decades while re-converging (the standard SPICE
  strategy);
* **source stepping** — every independent source is ramped from zero to
  its full value, re-converging at each step from the previous solution.
  This is what rescues bistable circuits (the cross-coupled SRAM cell)
  started from a flat 0 V guess, where plain Newton and gmin stepping can
  both stall on the unstable ridge between the two states.

:func:`dc_sweep` builds on the same machinery: it sweeps the DC value of
one voltage source across a grid, warm-starting every point from the
previous solution.  That continuation is what the SRAM noise-margin
butterfly curves are traced with.

One control flow, two servicers.  The rescue ladder and the sweep
continuation are written once, as *lane generators*
(:func:`_gen_operating_point`, :func:`_gen_dc_sweep`): wherever they need
a Newton solve they yield a target ``(assembler, b, x0, options)`` and
receive ``(x, iterations, converged, max_residual, singular)`` back.
:func:`dc_operating_point` and :func:`dc_sweep` are one-lane drivers that
answer every target with :func:`_newton_solve`; the lockstep engine of
:mod:`repro.circuit.batch` answers the targets of many lanes at once with
one vectorised Newton iteration per tick.  The servicers differ only in
how they run the Newton iteration, so both tiers walk the same ladder,
enter the same rungs and count the same iterations.

Every lane assembles its circuit once: one :class:`_AssemblerCache` (the
binding and the gmin variants its rescues bind from the same record)
serves a sweep's first point, its continuation points and every rescue.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..obs.convergence import record_convergence, record_rescue
from ..obs.trace import span
from .mna import CachedFactorSolver, MNAAssembler, MNAError
from .netlist import Circuit


class ConvergenceError(RuntimeError):
    """Raised when the DC operating point cannot be found."""


# -- retry rescue ladder ----------------------------------------------------------------
#
# When the campaign engine retries a failed work item it escalates the
# solver's robustness instead of repeating the identical attempt: a
# larger Newton iteration budget, and a small deterministic jitter on the
# caller's initial guess so a retry does not start on exactly the
# unstable ridge that defeated the first attempt.  The escalation level
# is thread-local state (set via :func:`solver_rescue`) rather than a
# parameter, because the solver sits many call layers below the retry
# loop (campaign -> operation -> simulator -> transient/DC) and every
# intermediate layer would otherwise have to forward it.

_rescue_state = threading.local()


def rescue_level() -> int:
    """The active escalation level (0 = normal solve, no escalation)."""
    return getattr(_rescue_state, "level", 0)


def _rescue_seed() -> int:
    return getattr(_rescue_state, "seed", 0)


@contextmanager
def solver_rescue(level: int, seed: int = 0) -> Iterator[None]:
    """Escalate solver robustness for the body (used by item retries).

    ``level`` scales the Newton iteration budget by ``1 + level`` (DC)
    and the transient step budget likewise, and perturbs user-supplied
    initial guesses by up to ``5 mV × level`` with an rng seeded from
    ``seed`` — deterministic per (seed, level), so retries are
    reproducible.  Level 0 restores normal behaviour.
    """
    previous = (rescue_level(), _rescue_seed())
    _rescue_state.level = max(0, int(level))
    _rescue_state.seed = int(seed)
    try:
        yield
    finally:
        _rescue_state.level, _rescue_state.seed = previous


def _perturbed_initial_voltages(
    initial_voltages: Optional[Dict[str, float]],
) -> Optional[Dict[str, float]]:
    level = rescue_level()
    if not level or not initial_voltages:
        return initial_voltages
    rng = np.random.default_rng((_rescue_seed() * 1_000_003 + level) % 2**32)
    jitter_v = 0.005 * level
    return {
        name: float(value) + float(rng.uniform(-jitter_v, jitter_v))
        for name, value in sorted(initial_voltages.items())
    }


@dataclass
class DCResult:
    """Result of a DC operating-point analysis."""

    voltages: Dict[str, float]
    iterations: int
    converged: bool
    max_residual_a: float

    def voltage(self, node: str) -> float:
        try:
            return self.voltages[node]
        except KeyError:
            raise MNAError(f"node {node!r} not in the DC solution") from None


@dataclass
class NewtonOptions:
    """Newton-iteration tuning knobs shared by the DC and transient solvers."""

    max_iterations: int = 100
    abs_tolerance_a: float = 1e-9
    rel_tolerance: float = 1e-6
    damping: float = 1.0
    max_voltage_step_v: float = 0.3


#: A Newton target a lane generator yields: solve ``G x + I_nl(x) = b``
#: from ``x0`` with ``options``.
NewtonTarget = Tuple[MNAAssembler, np.ndarray, np.ndarray, NewtonOptions]
#: What a servicer sends back: (x, iterations, converged, max_residual,
#: singular), where ``singular`` marks an exactly singular Jacobian.
NewtonResult = Tuple[np.ndarray, int, bool, float, bool]


def _newton_solve(
    assembler: MNAAssembler,
    b: np.ndarray,
    x0: np.ndarray,
    options: NewtonOptions,
) -> NewtonResult:
    """Newton iteration on ``G x + I_nl(x) = b`` starting from ``x0``.

    The linear solves go through the dense backend for small systems
    (bitwise-shared with the batched solver tier) and through a
    :class:`CachedFactorSolver` above the dense threshold, where the LU
    factorisation of ``G`` is reused whenever the device stamps are
    unchanged.
    """
    dense = assembler.dense_system() if assembler.use_dense_solver else None
    solver = None if dense is not None else CachedFactorSolver(assembler)
    x = x0.copy()
    max_residual = float("inf")
    # Adaptive damping: a full Newton step can limit-cycle across the kinks
    # of the compact model (the linear/saturation hand-off) without the
    # residual ever dropping below tolerance.  Halving the step whenever
    # the residual stops improving breaks the cycle; the damping recovers
    # geometrically once progress resumes.
    damping = options.damping
    previous_residual: Optional[float] = None
    for iteration in range(1, options.max_iterations + 1):
        stamp = assembler.nonlinear_stamp(x)
        g_dot_x = dense.g_dense @ x if dense is not None else assembler.g_dot(x)
        residual = g_dot_x + stamp.residual - b
        max_residual = float(np.max(np.abs(residual))) if residual.size else 0.0
        if max_residual < options.abs_tolerance_a:
            return x, iteration, True, max_residual, False
        if previous_residual is not None:
            if max_residual >= previous_residual:
                damping = max(damping * 0.5, options.damping / 256.0)
            else:
                damping = min(damping * 1.5, options.damping)
        previous_residual = max_residual
        try:
            if dense is not None:
                delta = dense.solve(np.asarray(stamp.values), -residual)
            else:
                delta = solver.solve(0.0, stamp, -residual)
        except (RuntimeError, np.linalg.LinAlgError):
            # Exactly singular Jacobian at this gmin: report non-convergence
            # so the caller's gmin-stepping fallback can regularise and retry
            # instead of aborting the whole operating-point search.  The
            # singular flag lets the final ConvergenceError say so, which
            # is what failure classification keys on.
            return x, iteration, False, max_residual, True
        delta = np.asarray(delta).ravel()
        # Limit the per-iteration voltage step for robustness.
        node_delta = delta[: assembler.n_nodes]
        max_step = float(np.max(np.abs(node_delta))) if node_delta.size else 0.0
        scale = damping
        if max_step > options.max_voltage_step_v > 0.0:
            scale *= options.max_voltage_step_v / max_step
        x = x + scale * delta
        # Convergence on the update as well (helps linear circuits finish in
        # one extra iteration).
        if max_step * scale < options.rel_tolerance * max(1.0, float(np.max(np.abs(x[: assembler.n_nodes]), initial=0.0))):
            stamp = assembler.nonlinear_stamp(x)
            g_dot_x = dense.g_dense @ x if dense is not None else assembler.g_dot(x)
            residual = g_dot_x + stamp.residual - b
            max_residual = float(np.max(np.abs(residual))) if residual.size else 0.0
            if max_residual < options.abs_tolerance_a * 10.0:
                return x, iteration, True, max_residual, False
    return x, options.max_iterations, False, max_residual, False


def _source_vector_with_overrides(
    assembler: MNAAssembler,
    source_overrides: Optional[Mapping[str, float]],
) -> np.ndarray:
    """The t=0 source vector with selected voltage sources overridden.

    ``source_overrides`` maps voltage-source *names* to DC values; the
    overridden value replaces the source's own waveform value.  This is the
    hook the swept-source analysis uses, so a sweep never has to rebuild
    the circuit per point.
    """
    b = assembler.source_vector(0.0)
    if source_overrides:
        for name, value in source_overrides.items():
            b[assembler.branch_index(name)] = float(value)
    return b


class _AssemblerCache:
    """Per-circuit cache of gmin variants of one base binding.

    The rescue ladders revisit a handful of gmin values; each variant
    binds the base's :class:`~repro.circuit.mna.TopologyRecord` to the
    base's element values at another gmin (the record's structure is
    shared, only ``G``'s triplet values are recomputed), built once and
    memoised together with its dense backend.
    """

    def __init__(self, base: MNAAssembler) -> None:
        self.base = base
        self._variants: Dict[float, MNAAssembler] = {base.gmin_s: base}

    def get(self, gmin_s: float) -> MNAAssembler:
        variant = self._variants.get(gmin_s)
        if variant is None:
            base = self.base
            variant = base.record.bind(base.resistances, base.capacitances, gmin_s)
            self._variants[gmin_s] = variant
        return variant


#: A rung's return: (solution or None, iterations, max residual of the
#: rung's last solve of the original system — baseline gmin, full sources,
#: no pseudo-transient anchor — or None if it made none, assembler of the
#: solution, singular seen).
_RungResult = Tuple[Optional[np.ndarray], int, Optional[float], MNAAssembler, bool]
_Rung = Generator[NewtonTarget, NewtonResult, _RungResult]


def _gen_source_stepping(
    cache: _AssemblerCache,
    b_full: np.ndarray,
    options: NewtonOptions,
    gmin_s: float,
) -> _Rung:
    """Ramp every independent source from zero to full value (continuation).

    Starts from the all-off state (``x = 0`` solves the system exactly at
    ``b = 0``) and ramps ``b`` to its full value, re-converging at every
    step from the previous one — the sources enter the MNA system only
    through ``b``, so scaling ``b`` scales every independent source
    together and the ramp follows a physical turn-on trajectory.  A step
    that fails is retried with the increment halved (up to a bounded
    number of refinements), which lets the ramp creep past fold points
    where a coarse step would jump over the surviving solution branch.
    The solution is ``None`` when even the refined ramp fails.
    """
    assembler = cache.get(gmin_s)
    current = np.zeros(assembler.size)
    total_iterations = 0
    max_residual: Optional[float] = None
    saw_singular = False
    alpha = 0.0
    step = 0.1
    min_step = 1.0 / 1024.0
    while alpha < 1.0:
        attempt = min(1.0, alpha + step)
        candidate, iterations, converged, residual, singular = yield (
            assembler,
            attempt * b_full,
            current,
            options,
        )
        saw_singular |= singular
        total_iterations += iterations
        if attempt == 1.0:
            max_residual = residual
        if converged:
            current = candidate
            alpha = attempt
            step = min(step * 2.0, 0.1)
            continue
        step /= 2.0
        if step < min_step:
            return None, total_iterations, max_residual, assembler, saw_singular
    return current, total_iterations, max_residual, assembler, saw_singular


def _gen_pseudo_transient(
    cache: _AssemblerCache,
    b_full: np.ndarray,
    x0: np.ndarray,
    options: NewtonOptions,
    gmin_s: float,
) -> _Rung:
    """Pseudo-transient continuation: anchor Newton to the previous iterate.

    Each level solves ``F(x) + g_pt·(x − x_anchor) = 0`` — the backward-
    Euler step of a fictitious grounded capacitor at every node — and the
    anchor conductance ``g_pt`` decays by decades towards zero.  Unlike
    plain Newton or source stepping, this follows the *dynamics* of the
    circuit, so it walks across fold points (where one branch of a
    bistable circuit ceases to exist) onto the surviving branch instead of
    diverging.  The final level solves the original system exactly.
    """
    x = x0.copy()
    total_iterations = 0
    max_residual: Optional[float] = None
    saw_singular = False
    g_pt = 1e-2
    for _outer in range(200):
        assembler = cache.get(gmin_s + g_pt)
        b_pt = b_full.copy()
        b_pt[: assembler.n_nodes] += g_pt * x[: assembler.n_nodes]
        solution, iterations, converged, _residual, singular = yield (
            assembler,
            b_pt,
            x,
            options,
        )
        saw_singular |= singular
        total_iterations += iterations
        if not converged:
            # Pseudo-step too large (too small an anchor): tighten it.
            g_pt *= 10.0
            if g_pt > 1e4:
                return None, total_iterations, max_residual, assembler, saw_singular
            continue
        x = solution
        # Switched evolution/relaxation: grow the pseudo-step as long as
        # the anchored solves succeed, then finish with the exact system.
        g_pt *= 0.1
        if g_pt < 1e-12:
            assembler = cache.get(gmin_s)
            solution, iterations, converged, max_residual, singular = yield (
                assembler,
                b_full,
                x,
                options,
            )
            saw_singular |= singular
            total_iterations += iterations
            if converged:
                return solution, total_iterations, max_residual, assembler, saw_singular
            # The exact solve still bounced: keep evolving from here with
            # a fresh, tighter pseudo-step.
            g_pt = 1e-4
    return None, total_iterations, max_residual, assembler, saw_singular


def _gen_operating_point(
    cache: _AssemblerCache,
    initial_voltages: Optional[Dict[str, float]],
    options: NewtonOptions,
    gmin_s: float,
    source_overrides: Optional[Mapping[str, float]],
    kind: str = "dc",
) -> Generator[NewtonTarget, NewtonResult, DCResult]:
    """The operating-point rescue ladder of one lane.

    Plain Newton at the baseline gmin, then gmin stepping, source stepping
    and pseudo-transient continuation.  The active
    :func:`solver_rescue` escalation applies at every entry, nested ones
    included: the Newton budget scales by ``1 + level`` and the initial
    guess is jittered.  ``kind`` labels the rescue-stage counter.
    """
    level = rescue_level()
    if level:
        options = replace(
            options, max_iterations=options.max_iterations * (1 + level)
        )
        initial_voltages = _perturbed_initial_voltages(initial_voltages)
    saw_singular = False
    # Max residual of the last solve of the original system (baseline
    # gmin, full sources, no pseudo-transient anchor) — what an exhausted
    # ladder reports.  Plain Newton always makes one.
    max_residual = float("inf")
    for gmin_attempt in (gmin_s, gmin_s * 1e3, gmin_s * 1e6):
        if gmin_attempt != gmin_s:
            record_rescue(kind, "gmin_step")
        assembler = cache.get(gmin_attempt)
        b = _source_vector_with_overrides(assembler, source_overrides)
        # initial_solution leaves the voltage-source branch entries zero,
        # so the first iteration does not start from a wildly
        # inconsistent point.
        x0 = assembler.initial_solution(initial_voltages)
        solution, iterations, converged, residual, singular = yield (
            assembler,
            b,
            x0,
            options,
        )
        saw_singular |= singular
        if gmin_attempt == gmin_s:
            max_residual = residual
        if converged and gmin_attempt == gmin_s:
            return DCResult(
                voltages=assembler.solution_to_dict(solution),
                iterations=iterations,
                converged=True,
                max_residual_a=max_residual,
            )
        if converged:
            # Found a solution at elevated gmin: walk gmin back down using
            # the converged solution as the new starting point.
            current = solution
            for step_gmin in (gmin_attempt / 10.0, gmin_attempt / 100.0, gmin_s):
                step_assembler = cache.get(step_gmin)
                b = _source_vector_with_overrides(step_assembler, source_overrides)
                current, iterations, converged, residual, singular = yield (
                    step_assembler,
                    b,
                    current,
                    options,
                )
                saw_singular |= singular
                if not converged:
                    break
            if step_gmin == gmin_s:
                max_residual = residual
            if converged:
                return DCResult(
                    voltages=step_assembler.solution_to_dict(current),
                    iterations=iterations,
                    converged=True,
                    max_residual_a=max_residual,
                )

    # Fallback: source stepping at the baseline gmin.  The ramp tracks a
    # physical turn-on trajectory, so bistable circuits land in a consistent
    # state instead of oscillating around the unstable ridge.
    assembler = cache.get(gmin_s)
    b_full = _source_vector_with_overrides(assembler, source_overrides)
    record_rescue(kind, "source_step")
    solution, iterations, exact_residual, step_assembler, singular = yield from (
        _gen_source_stepping(cache, b_full, options, gmin_s)
    )
    saw_singular |= singular
    if exact_residual is not None:
        max_residual = exact_residual
    if solution is not None:
        return DCResult(
            voltages=step_assembler.solution_to_dict(solution),
            iterations=iterations,
            converged=True,
            max_residual_a=max_residual,
        )

    # Last resort: pseudo-transient continuation from the caller's guess
    # (needed when the guessed state has ceased to exist — e.g. just past
    # the fold of a bistable cell — and Newton must cross onto the
    # surviving branch).
    x0 = assembler.initial_solution(initial_voltages)
    record_rescue(kind, "pseudo_transient")
    solution, iterations, exact_residual, pt_assembler, singular = yield from (
        _gen_pseudo_transient(cache, b_full, x0, options, gmin_s)
    )
    saw_singular |= singular
    if exact_residual is not None:
        max_residual = exact_residual
    if solution is not None:
        return DCResult(
            voltages=pt_assembler.solution_to_dict(solution),
            iterations=iterations,
            converged=True,
            max_residual_a=max_residual,
        )

    singular_note = (
        " after a singular Jacobian was encountered" if saw_singular else ""
    )
    raise ConvergenceError(
        f"DC operating point did not converge{singular_note} "
        f"(last max residual {max_residual:.3e} A)"
    )


def _solve_lane(lane: Generator[NewtonTarget, NewtonResult, Any]) -> Any:
    """Drive one lane generator, answering every target with :func:`_newton_solve`."""
    result: Optional[NewtonResult] = None
    while True:
        try:
            target = lane.send(result)
        except StopIteration as done:
            return done.value
        result = _newton_solve(*target)


def dc_operating_point(
    circuit: Circuit,
    initial_voltages: Optional[Dict[str, float]] = None,
    options: Optional[NewtonOptions] = None,
    gmin_s: float = 1e-12,
    source_overrides: Optional[Mapping[str, float]] = None,
) -> DCResult:
    """Find the DC operating point of a circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve; capacitors are open in DC.
    initial_voltages:
        Optional initial guess per node (greatly helps bistable circuits
        such as the SRAM cell pick the intended state).
    options:
        Newton options.
    gmin_s:
        Baseline gmin; the gmin-stepping fallback starts three decades
        higher when plain Newton fails, and source stepping is the last
        resort after the gmin ladder is exhausted.
    source_overrides:
        Optional mapping of voltage-source names to DC values that replace
        the sources' own waveform values (used by :func:`dc_sweep`).
    """
    return _solve_operating_point(
        _AssemblerCache(MNAAssembler(circuit, gmin_s=gmin_s)),
        initial_voltages,
        options if options is not None else NewtonOptions(),
        gmin_s,
        source_overrides,
    )


def _solve_operating_point(
    cache: _AssemblerCache,
    initial_voltages: Optional[Dict[str, float]],
    options: NewtonOptions,
    gmin_s: float,
    source_overrides: Optional[Mapping[str, float]],
) -> DCResult:
    """The one-lane operating point of ``cache``'s circuit, in a ``solver.dc`` span."""
    with span("solver.dc") as dc_span:
        try:
            result = _solve_lane(
                _gen_operating_point(
                    cache, initial_voltages, options, gmin_s, source_overrides
                )
            )
        except ConvergenceError:
            record_convergence("dc", 0, False)
            raise
        dc_span.annotate(iterations=result.iterations, converged=result.converged)
        record_convergence("dc", result.iterations, result.converged)
        return result


@dataclass
class DCSweepResult:
    """Result of a swept-source DC analysis.

    Attributes
    ----------
    source_name:
        The swept voltage source.
    values:
        The swept DC values, in sweep order.
    voltages:
        Mapping node name → array of DC voltages, one per sweep point.
    iterations_total:
        Newton iterations summed over the whole sweep.
    """

    source_name: str
    values: np.ndarray
    voltages: Dict[str, np.ndarray]
    iterations_total: int

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise MNAError(f"node {node!r} not in the DC sweep") from None

    def crossing_value(
        self, node: str, level_v: float, direction: str = "falling"
    ) -> Optional[float]:
        """First swept-source value at which ``node`` crosses ``level_v``.

        Linear interpolation between bracketing sweep points; ``None`` when
        the node never crosses the level.  Used to locate trip points
        (e.g. the write-margin flip) on a continuation sweep.
        """
        if direction not in ("rising", "falling"):
            raise MNAError("direction must be 'rising' or 'falling'")
        waveform = self.voltage(node)
        for index in range(1, len(self.values)):
            previous, current = waveform[index - 1], waveform[index]
            if direction == "falling" and previous > level_v >= current:
                pass
            elif direction == "rising" and previous < level_v <= current:
                pass
            else:
                continue
            fraction = (level_v - previous) / (current - previous)
            return float(
                self.values[index - 1]
                + fraction * (self.values[index] - self.values[index - 1])
            )
        return None


def _gen_dc_sweep(
    cache: _AssemblerCache,
    source_name: str,
    grid: np.ndarray,
    initial_voltages: Optional[Dict[str, float]],
    options: NewtonOptions,
    gmin_s: float,
    kind: str = "dc",
    first: Optional[DCResult] = None,
) -> Generator[NewtonTarget, NewtonResult, DCSweepResult]:
    """The continuation sweep of one lane.

    ``first`` is the already-solved first point, when the caller solved it
    itself; otherwise the sweep starts with the operating-point ladder.
    Continuation points keep the caller's unescalated ``options``.
    """
    assembler = cache.base
    if first is None:
        first = yield from _gen_operating_point(
            cache,
            initial_voltages,
            options,
            gmin_s,
            {source_name: float(grid[0])},
            kind,
        )
    node_names = assembler.node_names
    iterations_total = first.iterations

    current = assembler.initial_solution(
        {node: first.voltages[node] for node in node_names}
    )
    # Per-point invariants: b0 is the t=0 source vector and the node
    # indices never change.  The history is recorded as node-voltage
    # snapshots and split per node at the end (a pure float64 passthrough).
    b0 = assembler.source_vector(0.0)
    branch = assembler.branch_index(source_name)
    node_pos = np.array(
        [assembler.index_of(node) for node in node_names], dtype=np.int64
    )
    snapshots: List[np.ndarray] = [current[node_pos]]
    for value in grid[1:]:
        b = b0.copy()
        b[branch] = float(value)
        solution, iterations, converged, _residual, _singular = yield (
            assembler,
            b,
            current,
            options,
        )
        iterations_total += iterations
        if not converged:
            # Warm start lost the branch (possible right at a fold).  The
            # branch-faithful rescue is pseudo-transient continuation
            # anchored at the previous point: it relaxes along the circuit
            # dynamics, so it stays on the current branch while it exists
            # and crosses onto the surviving one exactly when it folds —
            # unlike the gmin ladder, which can hop branches early.  The
            # full ladder is the last resort.
            record_rescue(f"{kind}_sweep", "sweep_point")
            solution, iterations, _residual, _asm, _singular = yield from (
                _gen_pseudo_transient(cache, b, current, options, gmin_s)
            )
            if solution is None:
                point = yield from _gen_operating_point(
                    cache,
                    {node: float(current[assembler.index_of(node)]) for node in node_names},
                    options,
                    gmin_s,
                    {source_name: float(value)},
                    kind,
                )
                iterations += point.iterations
                solution = assembler.initial_solution(
                    {node: point.voltages[node] for node in node_names}
                )
            iterations_total += iterations
        current = solution
        snapshots.append(current[node_pos])

    stacked = np.stack(snapshots)
    return DCSweepResult(
        source_name=source_name,
        values=grid,
        voltages={
            node: np.ascontiguousarray(stacked[:, k])
            for k, node in enumerate(node_names)
        },
        iterations_total=iterations_total,
    )


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float],
    initial_voltages: Optional[Dict[str, float]] = None,
    options: Optional[NewtonOptions] = None,
    gmin_s: float = 1e-12,
) -> DCSweepResult:
    """Sweep the DC value of one voltage source, with continuation.

    The first point is solved with the full robustness ladder of
    :func:`dc_operating_point`; every following point warm-starts Newton
    from the previous solution (the continuation that lets the butterfly
    sweeps walk through the steep VTC transition without losing the
    branch).  A point that fails the warm start falls back to
    pseudo-transient continuation and then the full ladder before the
    sweep gives up.

    Parameters
    ----------
    circuit:
        The circuit; must contain a voltage source named ``source_name``.
    source_name:
        The voltage source whose DC value is swept (its own waveform value
        is ignored).
    values:
        The sweep grid, visited in order (continuation follows the order,
        so a monotone grid behaves like a slow physical ramp).
    initial_voltages:
        Optional initial guess for the *first* point.
    options, gmin_s:
        Newton knobs shared with :func:`dc_operating_point`.
    """
    grid = _sweep_grid(values)
    return _solve_sweep(
        _AssemblerCache(MNAAssembler(circuit, gmin_s=gmin_s)),
        source_name,
        grid,
        initial_voltages,
        options if options is not None else NewtonOptions(),
        gmin_s,
    )


def _sweep_grid(values: Sequence[float]) -> np.ndarray:
    """A sweep's source values as a float array (raises if there are none)."""
    grid = np.asarray(list(values), dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConvergenceError("a DC sweep needs at least one source value")
    return grid


def _solve_sweep(
    cache: _AssemblerCache,
    source_name: str,
    grid: np.ndarray,
    initial_voltages: Optional[Dict[str, float]],
    options: NewtonOptions,
    gmin_s: float,
) -> DCSweepResult:
    """The one-lane sweep of ``cache``'s circuit, in a ``solver.dc_sweep`` span."""
    with span("solver.dc_sweep", points=int(grid.size)) as sweep_span:
        cache.base.branch_index(source_name)  # raises early for a bad source name
        # The first point is solved on its own so it keeps its own
        # solver.dc span and convergence observation; it shares the
        # sweep's assembler and gmin variants.
        first = _solve_operating_point(
            cache, initial_voltages, options, gmin_s, {source_name: float(grid[0])}
        )
        result = _solve_lane(
            _gen_dc_sweep(
                cache, source_name, grid, initial_voltages, options, gmin_s, first=first
            )
        )
        sweep_span.annotate(iterations=result.iterations_total)
        record_convergence("dc_sweep", result.iterations_total, True)
        return result
