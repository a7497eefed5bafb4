"""Solver convergence telemetry: histograms, rescue counters, lane gauges.

PR 8's registry counts *what* the solver tier did (factorizations,
stamp evals); this module records *how convergence behaved* while it
did it:

* ``repro_solver_iterations`` — iterations-to-converge histograms,
  labelled by solver kind (``dc``, ``dc_sweep``, ``transient``,
  ``batch_dc``, ``batch_dc_sweep``) and, for batched lanes, by lane
  group size;
* ``repro_solver_converged_total`` / ``repro_solver_nonconverged_total``
  — solve outcomes under the same labels;
* ``repro_solver_rescue_total`` — entries into the robustness ladder
  (``gmin_step``, ``source_step``, ``pseudo_transient``,
  ``sweep_point``), the events that explain why a solve cost what it
  did;
* ``repro_solver_step_rejections_total`` — transient dt-halvings (the
  step controller's damping events);
* lane-efficiency gauges derived from :class:`SolverStats` deltas —
  ``repro_solver_lane_occupancy`` (active-lane fraction per tick) and
  ``repro_solver_scalar_fallback_rate`` (lanes demoted per lane
  launched).

Everything here must stay cheap enough to be always-on: hooks fire per
*solve* (or per lane), never per Newton iteration.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .metrics import MetricsRegistry, registry

__all__ = [
    "ITERATION_BUCKETS",
    "lane_group_label",
    "record_convergence",
    "record_lane_stats",
    "record_rescue",
    "record_step_rejections",
]

#: Fixed iteration buckets (like the latency buckets: chosen once so
#: histograms from different runs always merge).  Newton on these
#: circuits converges in single digits; the tail buckets catch rescue
#: ladders and sweeps, which report *summed* iterations.
ITERATION_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    3.0,
    4.0,
    6.0,
    8.0,
    12.0,
    16.0,
    24.0,
    32.0,
    64.0,
    128.0,
    512.0,
    2048.0,
)


def lane_group_label(n_lanes: int) -> str:
    """Bucket a lockstep group's size into a bounded label set."""
    if n_lanes <= 8:
        return "1-8"
    if n_lanes <= 32:
        return "9-32"
    if n_lanes <= 128:
        return "33-128"
    return "129+"


def record_convergence(
    kind: str,
    iterations: int,
    converged: bool,
    lane_group: Optional[str] = None,
    reg: Optional[MetricsRegistry] = None,
) -> None:
    """Record one finished solve's iteration count and outcome."""
    reg = reg if reg is not None else registry()
    labels: Dict[str, str] = {"kind": str(kind)}
    if lane_group is not None:
        labels["lane_group"] = str(lane_group)
    reg.observe(
        "repro_solver_iterations",
        float(iterations),
        buckets=ITERATION_BUCKETS,
        **labels,
    )
    name = (
        "repro_solver_converged_total"
        if converged
        else "repro_solver_nonconverged_total"
    )
    reg.inc(name, **labels)


def record_rescue(kind: str, stage: str, reg: Optional[MetricsRegistry] = None) -> None:
    """Count one entry into a robustness-ladder stage."""
    reg = reg if reg is not None else registry()
    reg.inc("repro_solver_rescue_total", kind=str(kind), stage=str(stage))


def record_step_rejections(
    kind: str, count: int, reg: Optional[MetricsRegistry] = None
) -> None:
    """Count rejected (dt-halved) steps of one transient run."""
    if count:
        reg = reg if reg is not None else registry()
        reg.inc("repro_solver_step_rejections_total", float(count), kind=str(kind))


def record_lane_stats(
    delta: Mapping[str, int], reg: Optional[MetricsRegistry] = None
) -> None:
    """Set lane-efficiency gauges from a :meth:`SolverStats.as_dict` delta.

    ``batch_lane_iterations / batch_lane_slots`` is the active-lane
    fraction over the delta window (1.0 = every lane of every tick still
    converging; low values mean stragglers kept mostly-idle ticks
    alive).  ``scalar_fallbacks / batch_lanes`` is the demotion rate.
    """
    reg = reg if reg is not None else registry()
    slots = float(delta.get("batch_lane_slots", 0) or 0)
    if slots > 0:
        reg.set_gauge(
            "repro_solver_lane_occupancy",
            float(delta.get("batch_lane_iterations", 0)) / slots,
        )
    lanes = float(delta.get("batch_lanes", 0) or 0)
    fallbacks = float(delta.get("scalar_fallbacks", 0) or 0)
    if lanes > 0 or fallbacks > 0:
        reg.set_gauge(
            "repro_solver_scalar_fallback_rate",
            fallbacks / (lanes + fallbacks) if (lanes + fallbacks) else 0.0,
        )

