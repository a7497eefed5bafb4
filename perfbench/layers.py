"""Outside-in layer tracing: timed wrappers around the program's public calls.

:class:`Recorder` patches each entry of :data:`TARGETS` with a wrapper
that opens a span (name, start, end, parent, thread, run id) around the
original call and restores the originals on :meth:`Recorder.uninstall`.
Spans stay in memory until the run ends.  A span's *self time* is its
duration minus the durations of its child spans on the same thread, so a
workload's layer self times add up to the traced wall they cover.

The spans named in :data:`COUNTED_SPANS` also snapshot the calling
thread's ``repro.circuit.mna.solver_stats()`` around the call, which
gives the solver counters of every solve on the thread that did it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, attribute path).  A module-level function is
#: patched where its callers look it up, so some functions appear once
#: per importing module.  ``Class.*`` methods are patched on the class
#: and on every subclass of it that overrides them.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "repro.cli", "main"),
    ("api.run", "repro.cli", "run_experiment"),
    ("api.run", "repro.api", "run"),
    ("spec.load", "repro.api", "load_spec"),
    ("spec.load", "repro.cli", "load_spec"),
    ("spec.load", "repro.service.server", "load_spec"),
    ("api.serialise", "repro.api", "ResultSet.to_json"),
    ("api.serialise", "repro.api", "ResultSet.from_dict"),
    ("api.serialise", "repro.service.server", "render_result"),
    ("worst_case.search", "repro.core.worst_case", "WorstCaseStudy.find_worst_corner"),
    ("extraction.extract", "repro.extraction.lpe", "ParameterizedLPE.extract_with_patterning"),
    ("extraction.extract", "repro.extraction.lpe", "ParameterizedLPE.nominal_extraction"),
    ("montecarlo.pilot", "repro.core.montecarlo", "MonteCarloTdpStudy.column_variation_samples_batch"),
    ("campaign.run", "repro.core.campaign", "SimulationCampaign.run"),
    ("campaign.prepare", "repro.core.campaign", "CampaignWorkerState.prepare_item"),
    ("operations.prepare", "repro.core.operations", "Operation.prepare_value_with_variation"),
    ("batch.solve", "repro.core.campaign", "solve_prepared"),
    ("batch.solve", "repro.highsigma.study", "solve_prepared"),
    ("batch.dc_sweep", "repro.circuit.batch", "batch_dc_sweep"),
    ("batch.dc_op", "repro.circuit.batch", "batch_dc_operating_points"),
    ("batch.transient", "repro.circuit.batch", "batch_run_transients"),
    ("mosfet.kernel", "repro.circuit.batch", "batch_operating_points"),
    ("mna.sparse", "repro.circuit.mna", "CachedFactorSolver.solve"),
    ("highsigma.rows", "repro.highsigma.study", "HighSigmaYieldStudy.rows"),
    ("queue.submit", "repro.service.queue", "ExperimentQueue.submit"),
    ("cache.get", "repro.service.cache", "ResultCache.get"),
    ("cache.put", "repro.service.cache", "ResultCache.put"),
    ("journal.append", "repro.service.journal", "JobJournal.record_submitted"),
    ("journal.append", "repro.service.journal", "JobJournal.record_terminal"),
)

#: Spans that carry the solver-counter delta of their thread.
COUNTED_SPANS = frozenset({"campaign.run", "highsigma.rows"})

#: Span name -> per-layer time metric (its self time).  ``cli.import``
#: is opened by the traced CLI child around ``import repro.cli``.
TIME_METRICS: Dict[str, str] = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "api.run": "api.self_s",
    "spec.load": "spec.load_s",
    "api.serialise": "api.serialise_s",
    "worst_case.search": "worst_case.search_s",
    "extraction.extract": "extraction.extract_s",
    "montecarlo.pilot": "montecarlo.pilot_s",
    "campaign.run": "campaign.self_s",
    "campaign.prepare": "campaign.prepare_s",
    "operations.prepare": "operations.prepare_s",
    "batch.solve": "batch.finish_s",
    "batch.dc_sweep": "batch.dc_sweep_s",
    "batch.dc_op": "batch.dc_op_s",
    "batch.transient": "batch.transient_s",
    "mosfet.kernel": "mosfet.kernel_s",
    "mna.sparse": "mna.sparse_s",
    "highsigma.rows": "highsigma.self_s",
    "queue.submit": "queue.submit_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "journal.append": "journal.append_s",
}

#: Span name -> per-layer call-count metric.
CALL_COUNTS: Dict[str, str] = {
    "worst_case.search": "worst_case.searches",
    "extraction.extract": "extraction.calls",
    "campaign.prepare": "campaign.items",
    "operations.prepare": "operations.prepared",
}

#: Solver counter -> per-layer count metric.
SOLVER_COUNTS: Dict[str, str] = {
    "batch_ticks": "batch.ticks",
    "batch_lanes": "batch.lanes",
    "batch_lane_iterations": "batch.lane_iterations",
    "batch_lane_slots": "batch.lane_slots",
    "scalar_fallbacks": "batch.scalar_fallbacks",
    "stamp_device_evals": "mosfet.device_evals",
    "sparse_solves": "mna.sparse_solves",
    "dense_solves": "mna.dense_solves",
    "factorizations": "mna.factorizations",
    "refactorizations": "mna.refactorizations",
}

# Span record layout (lists are cheaper than objects on the hot path).
NAME, START, END, PARENT, THREAD, RUN, COUNTERS = range(7)


class Recorder:
    """In-memory span store plus the patching of :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._solver_stats: Optional[Callable[[], Any]] = None

    # -- spans --------------------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), self.run_id, None]
        if name in COUNTED_SPANS and self._solver_stats is not None:
            record[COUNTERS] = self._solver_stats().as_dict()
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        record = self.spans[index]
        record[END] = time.perf_counter()
        self._stack().pop()
        before = record[COUNTERS]
        if before is not None:
            after = self._solver_stats().as_dict()
            record[COUNTERS] = {key: after[key] - before.get(key, 0) for key in after}

    def _wrap(self, name: str, function: Callable) -> Callable:
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.end(index)

        return traced

    # -- patching -----------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; idempotent per recorder."""
        if self._patched:
            return
        from repro.circuit.mna import solver_stats

        self._solver_stats = solver_stats
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            owners = [owner]
            if inspect.isclass(owner):
                module = importlib.import_module(module_name)
                owners += [
                    value
                    for value in vars(module).values()
                    if inspect.isclass(value)
                    and value is not owner
                    and issubclass(value, owner)
                    and attribute in vars(value)
                ]
            for target in owners:
                self._patch(target, attribute, name)

    def _patch(self, owner: Any, attribute: str, name: str) -> None:
        raw = vars(owner)[attribute] if inspect.isclass(owner) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(name, raw.__func__))
        else:
            replacement = self._wrap(name, raw)
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._patched):
            setattr(owner, attribute, raw)
        self._patched.clear()


# -- analysis ------------------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Self time of each span: its duration minus its children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def layer_totals(spans: Sequence[list], selected: Iterable[int]) -> Dict[str, float]:
    """Per-layer self-time totals, call counts and solver counters.

    ``spans`` is a whole recorder's span list (parent indices refer into
    it); ``selected`` are the indices of the spans to account.
    """
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for index in selected:
        span = spans[index]
        name = span[NAME]
        if name in TIME_METRICS:
            totals[TIME_METRICS[name]] += own[index]
        if name in CALL_COUNTS:
            totals[CALL_COUNTS[name]] += 1
        counters = span[COUNTERS]
        if isinstance(counters, dict):
            for key, metric in SOLVER_COUNTS.items():
                totals[metric] += counters.get(key, 0)
    return dict(totals)
