"""Transient analysis.

A backward-Euler (optionally trapezoidal) time-stepping solver with Newton
iteration at every step and a simple adaptive step-size controller:

* a step that converges quickly lets the next step grow;
* a step that fails to converge is retried with half the step size;
* an optional stop condition (a callable on the node voltages) ends the
  simulation early — the SRAM read harness uses it to stop as soon as the
  sense threshold is reached instead of simulating a fixed window.

Backward Euler is the default because the bit-line discharge is a heavily
damped RC problem where BE's numerical damping is harmless and its
robustness is welcome; trapezoidal integration is available for accuracy
studies (see the integration-method ablation bench).

One control flow, two servicers.  The time loop is written once, as the
lane generator :func:`_transient_lane`, which yields the iterate wherever
it needs the nonlinear device stamp and receives the stamp back.
:meth:`TransientSolver.run` answers every request with
:meth:`~repro.circuit.mna.MNAAssembler.nonlinear_stamp`; the batched tier
(:func:`repro.circuit.batch.batch_run_transients`) gathers the pending
requests of many lanes into one vectorised device-kernel call per tick.
The linear solves stay on each lane's own
:class:`~repro.circuit.mna.CachedFactorSolver` in both cases.

A solver runs on a circuit's own assembler or on a
:class:`~repro.circuit.mna.TopologyRecord` bound to one corner's values.
A lane builds no scipy matrix except the CSC its solver hands to
``splu``: ``C·x_prev``, ``(G + c_factor·C)·x`` and the trapezoidal
``G·x_prev`` are summed from the record's index arrays with
``np.bincount``, in scipy's matvec order.

Recording costs no per-node work per step: the recorded nodes' indices
are resolved once per lane (a node named twice is recorded once), every
accepted solution vector is kept, and the waveforms are gathered from
them once when the lane ends.  A stop condition sees a read-only
``{node: volts}`` mapping over the accepted solution
(:class:`_StepVoltages`), which converts only the nodes it reads.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

import numpy as np

from ..obs.convergence import record_convergence, record_step_rejections
from ..obs.trace import span
from .dc import ConvergenceError, NewtonOptions, rescue_level
from .mna import CachedFactorSolver, MNAAssembler, NonlinearStamp
from .netlist import Circuit
from .waveform import TransientResult

#: Signature of an early-stop predicate: (time_s, node voltages) → bool.
StopCondition = Callable[[float, Mapping[str, float]], bool]


class _StepVoltages(Mapping):
    """Read-only voltages of the recorded nodes in one accepted solution.

    ``index`` maps each recorded node to its place in ``x``; ground maps
    past the end of ``x`` and reads 0.0.  A node that is not recorded
    raises :class:`KeyError`, as a missing dict key does.
    """

    def __init__(self, index: Dict[str, int], x: np.ndarray) -> None:
        self._index, self._x = index, x

    def __getitem__(self, node: str) -> float:
        position = self._index[node]
        return float(self._x[position]) if position < self._x.size else 0.0

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass
class TransientOptions:
    """Tuning knobs of the transient solver."""

    t_stop_s: float = 1e-9
    dt_initial_s: float = 1e-13
    dt_min_s: float = 1e-16
    dt_max_s: float = 5e-12
    dt_growth: float = 1.3
    dt_shrink: float = 0.5
    method: str = "backward-euler"          # or "trapezoidal"
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    max_steps: int = 200_000
    record_nodes: Optional[List[str]] = None  # None = record every node

    def __post_init__(self) -> None:
        if self.t_stop_s <= 0.0:
            raise ValueError("t_stop must be positive")
        if not 0.0 < self.dt_min_s <= self.dt_initial_s <= self.dt_max_s:
            raise ValueError(
                "time steps must satisfy 0 < dt_min <= dt_initial <= dt_max"
            )
        if self.dt_growth <= 1.0:
            raise ValueError("dt_growth must exceed 1")
        if not 0.0 < self.dt_shrink < 1.0:
            raise ValueError("dt_shrink must be in (0, 1)")
        if self.method not in ("backward-euler", "trapezoidal"):
            raise ValueError("method must be 'backward-euler' or 'trapezoidal'")


class TransientSolver:
    """Time-domain solver for a fixed circuit or a bound topology record.

    ``circuit`` is a :class:`Circuit` (assembled here at ``gmin_s``) or an
    already bound :class:`MNAAssembler`, which brings its own gmin.
    """

    def __init__(self, circuit: Union[Circuit, MNAAssembler],
                 options: Optional[TransientOptions] = None,
                 gmin_s: float = 1e-12) -> None:
        self.options = options if options is not None else TransientOptions()
        self.assembler = (
            circuit
            if isinstance(circuit, MNAAssembler)
            else MNAAssembler(circuit, gmin_s=gmin_s)
        )
        # Shared factorisation cache: the LU of (G + C/dt) is reused across
        # iterations and steps until dt or the device stamps change.
        self.solver_cache = CachedFactorSolver(self.assembler)

    def run(
        self,
        initial_voltages: Optional[Dict[str, float]] = None,
        stop_condition: Optional[StopCondition] = None,
    ) -> TransientResult:
        """Run the transient analysis.

        Parameters
        ----------
        initial_voltages:
            Node voltages at ``t = 0`` (UIC-style start).  Nodes not listed
            start at 0 V; voltage-source nodes are driven from the first
            step onwards regardless.
        stop_condition:
            Optional predicate evaluated after every accepted step; the
            simulation ends as soon as it returns true.
        """
        # One span for the whole analysis: the Newton loop fires thousands
        # of times per run, so per-step spans would swamp the trace.
        # Convergence telemetry follows the same rule — one histogram
        # observation and one rejection-counter add per run, never per
        # step.
        with span("solver.transient") as tr_span:
            lane = _transient_lane(self, initial_voltages, stop_condition)
            stamp: Optional[NonlinearStamp] = None
            try:
                while True:
                    stamp = self.assembler.nonlinear_stamp(lane.send(stamp))
            except StopIteration as done:
                result, rejections = done.value
            except ConvergenceError:
                record_convergence("transient", 0, False)
                raise
            record_step_rejections("transient", rejections)
            steps = len(result.times_s) - 1
            tr_span.annotate(
                steps=steps, rejected=rejections, stop=result.stop_reason
            )
            record_convergence("transient", steps, True)
            return result


def _transient_lane(
    solver: TransientSolver,
    initial_voltages: Optional[Dict[str, float]],
    stop_condition: Optional[StopCondition],
) -> Generator[np.ndarray, NonlinearStamp, Tuple[TransientResult, int]]:
    """The time loop of one lane; returns (result, rejected steps).

    Yields the iterate ``x`` wherever the implicit step needs the
    nonlinear device stamp at ``x`` and expects that stamp sent back.
    """
    options = solver.options
    assembler = solver.assembler
    newton = options.newton
    cache = solver.solver_cache

    x = assembler.initial_solution(initial_voltages)
    # Each recorded node once, in first-mention order; its index resolves
    # here (raising early for typos), with ground reading the zero that
    # extends the solution vector at index ``size``.  By default every
    # node is recorded, in MNA order.
    if options.record_nodes is None:
        record_nodes = assembler.node_names
        record_index = np.arange(assembler.n_nodes)
    else:
        record_nodes = list(dict.fromkeys(options.record_nodes))
        record_index = np.array(
            [
                assembler.size if index is None else index
                for index in map(assembler.index_of, record_nodes)
            ],
            dtype=np.int64,
        )
    stop_index = dict(zip(record_nodes, record_index.tolist()))

    times: List[float] = [0.0]
    # Accepted solution vectors; the waveforms are gathered once at the end.
    states: List[np.ndarray] = [x]

    time_s = 0.0
    dt_s = options.dt_initial_s
    stop_reason = "tstop"
    steps = 0
    rejections = 0
    # Set when a time step hits an exactly singular system; surfaces in
    # the ConvergenceError message so failures classify correctly.
    singular_seen = False
    # Item-retry rescue: each escalation level buys a larger accepted-
    # step budget and a lower dt floor, so a retry of an item that died
    # on budget exhaustion or step underflow actually tries harder.
    level = rescue_level()
    max_steps = options.max_steps * (1 + level)
    dt_min_s = options.dt_min_s / (10.0 ** level)

    # ``steps`` counts *accepted* steps only: a rejected (non-converged)
    # step is retried at half the size without consuming budget, so
    # step-halving near stiff corners cannot exhaust ``max_steps``
    # spuriously.  Rejections are still bounded — each one shrinks dt
    # and the solver raises once dt falls below ``dt_min_s``.
    while time_s < options.t_stop_s:
        if steps >= max_steps:
            raise ConvergenceError(
                f"transient exceeded {max_steps} accepted steps "
                f"before t_stop (reached t={time_s:.3e} s of "
                f"{options.t_stop_s:.3e} s)"
            )
        dt_s = min(dt_s, options.t_stop_s - time_s)

        # -- one implicit step from x to time_s + dt_s ----------------------------
        step_time_s = time_s + dt_s
        # C·x_prev as a vector op — no per-step sparse scalar division.
        c_dot_prev_over_dt = assembler.c_dot(x) / dt_s
        b_now = assembler.source_vector(step_time_s)
        if options.method == "trapezoidal":
            # Trapezoidal: C (x−x_prev)/dt = −0.5 [f(x, t) + f(x_prev, t_prev)]
            # Rearranged into Newton form with an extra history term.
            c_factor = 2.0 / dt_s
            b_prev = assembler.source_vector(step_time_s - dt_s)
            stamp_prev = yield x
            history_term = (
                c_dot_prev_over_dt * 2.0
                - assembler.g_dot(x)
                - stamp_prev.residual
                + b_prev
            )
            rhs_const = b_now + history_term
        else:
            c_factor = 1.0 / dt_s
            rhs_const = b_now + c_dot_prev_over_dt
        static_data = cache.static_data(c_factor)

        solution: Optional[np.ndarray] = None
        x_iter = x.copy()
        for _iteration in range(newton.max_iterations):
            stamp = yield x_iter
            residual = (
                cache.dot(static_data, x_iter) + stamp.residual - rhs_const
            )
            max_residual = (
                float(np.max(np.abs(residual))) if residual.size else 0.0
            )
            if max_residual < newton.abs_tolerance_a:
                solution = x_iter
                break
            try:
                delta = cache.solve(c_factor, stamp, -residual)
            except RuntimeError:
                singular_seen = True
                break
            delta = np.asarray(delta).ravel()
            if not np.all(np.isfinite(delta)):
                break
            node_delta = delta[: assembler.n_nodes]
            max_step = (
                float(np.max(np.abs(node_delta))) if node_delta.size else 0.0
            )
            scale = 1.0
            if max_step > newton.max_voltage_step_v > 0.0:
                scale = newton.max_voltage_step_v / max_step
            x_iter = x_iter + scale * delta
        else:
            # Budget exhausted: one last residual check with the final iterate.
            stamp = yield x_iter
            residual = (
                cache.dot(static_data, x_iter) + stamp.residual - rhs_const
            )
            if float(np.max(np.abs(residual))) < newton.abs_tolerance_a * 100.0:
                solution = x_iter

        if solution is None:
            rejections += 1
            dt_s *= options.dt_shrink
            if dt_s < dt_min_s:
                singular_note = (
                    " after a singular Jacobian was encountered"
                    if singular_seen
                    else ""
                )
                raise ConvergenceError(
                    f"transient step at t={time_s:.3e} s failed below the "
                    f"minimum step size ({dt_min_s:.1e} s){singular_note}"
                )
            continue

        steps += 1
        time_s += dt_s
        x = solution
        times.append(time_s)
        states.append(x)

        if stop_condition is not None:
            if stop_condition(time_s, _StepVoltages(stop_index, x)):
                stop_reason = "stop-condition"
                break

        dt_s = min(dt_s * options.dt_growth, options.dt_max_s)

    table = np.zeros((assembler.size + 1, len(states)))
    np.stack(states, axis=1, out=table[:-1])
    waveforms = table[record_index]
    result = TransientResult(
        times_s=np.asarray(times),
        voltages=dict(zip(record_nodes, waveforms)),
        converged=True,
        stop_reason=stop_reason,
    )
    return result, rejections


def run_transient(
    circuit: Circuit,
    options: Optional[TransientOptions] = None,
    initial_voltages: Optional[Dict[str, float]] = None,
    stop_condition: Optional[StopCondition] = None,
) -> TransientResult:
    """Convenience wrapper: build a solver and run it once."""
    solver = TransientSolver(circuit, options=options)
    return solver.run(initial_voltages=initial_voltages, stop_condition=stop_condition)
