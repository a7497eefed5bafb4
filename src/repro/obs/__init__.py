"""Unified observability layer: metrics, tracing, and performance introspection.

The stack's telemetry used to live on three disconnected islands — the
solver's :class:`~repro.circuit.mna.SolverStats` counters, the service
layer's cache/queue dicts and the typed failure records.  This package
pulls every number into one place:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms, with adapters that
  absorb the existing islands into one ``repro_*`` namespace and a
  Prometheus text-exposition renderer (``GET /v1/metrics``);
* :mod:`repro.obs.trace` — structured span tracing
  (``with span("campaign.chunk", item=key): ...``) emitting append-only
  JSONL, with cross-process collection (pool workers write
  ``trace-<pid>.jsonl``, the parent merges on chunk commit) and a
  Chrome-trace exporter so any run opens in ``chrome://tracing``;
* :mod:`repro.obs.profile` — a stdlib-only sampling profiler (a
  background thread walking ``sys._current_frames()`` at ~101 Hz) that
  writes folded/collapsed flamegraph stacks rooted at the active span
  (``phase:<span>;mod.func;...``), with the same cross-process
  collection scheme as tracing;
* :mod:`repro.obs.convergence` — solver convergence telemetry:
  iterations-to-converge histograms, rescue/rejection counters and
  lane-efficiency gauges, all exported through the registry;
* :mod:`repro.obs.history` — append-only benchmark history with a
  noise-aware regression gate (median baseline, MAD tolerance) used by
  ``benchmarks/run_benchmarks.py --record/--check``;
* :mod:`repro.obs.dashboard` — the ``repro top`` live terminal
  dashboard over ``/v1/metrics`` and ``/v1/healthz``.

Tracing and profiling are **off by default** and fingerprint-neutral:
enabling them never changes a record, only records where the wall-clock
time went.
"""

from .convergence import (
    record_convergence,
    record_lane_stats,
    record_rescue,
    record_step_rejections,
)
from .history import (
    BENCH_SCHEMA_VERSION,
    REGRESSION_EXIT_CODE,
    append_entry,
    check_metrics,
    format_findings,
    has_regressions,
    history_path,
    load_entries,
    validate_report,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
    absorb_cache_stats,
    absorb_queue_stats,
    cumulate,
    histogram_quantile,
    observe_item_wall,
    record_item_failure,
    record_solver_delta,
    registry,
    reset_registry,
)
from .profile import (
    SamplingProfiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    enable_worker_profiling,
    merge_folded,
    phase_totals,
    read_folded,
    top_frames,
    top_stacks,
)
from .trace import (
    Tracer,
    active_tracer,
    campaign_attribution,
    current_trace_ids,
    disable_tracing,
    enable_tracing,
    enable_worker_tracing,
    read_trace,
    span,
    to_chrome_trace,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "REGRESSION_EXIT_CODE",
    "SamplingProfiler",
    "Tracer",
    "absorb_cache_stats",
    "absorb_queue_stats",
    "active_profiler",
    "active_tracer",
    "append_entry",
    "campaign_attribution",
    "check_metrics",
    "cumulate",
    "current_trace_ids",
    "disable_profiling",
    "disable_tracing",
    "enable_profiling",
    "enable_tracing",
    "enable_worker_profiling",
    "enable_worker_tracing",
    "format_findings",
    "has_regressions",
    "histogram_quantile",
    "history_path",
    "load_entries",
    "merge_folded",
    "observe_item_wall",
    "phase_totals",
    "read_folded",
    "read_trace",
    "record_convergence",
    "record_item_failure",
    "record_lane_stats",
    "record_rescue",
    "record_solver_delta",
    "record_step_rejections",
    "registry",
    "reset_registry",
    "span",
    "to_chrome_trace",
    "top_frames",
    "top_stacks",
    "validate_report",
]
