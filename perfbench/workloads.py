"""The benchmark's three workloads: ``doe4``, ``yield_hs`` and ``service``.

Each workload is a closed loop with one client and the serial backend:
the next operation starts only when the previous one has returned.

* ``doe4`` — ``python -m repro run <spec> --format json`` over the
  paper's DOE (four operations × 16/64/256/1024 × LELELE/SADP/EUV), one
  fresh interpreter per operation.
* ``yield_hs`` — in-process ``repro.api.run`` of the shipped high-sigma
  spec with the circuit model.
* ``service`` — an in-process ``ExperimentServer`` driven over HTTP by
  one ``ExperimentClient``; each pass sends a seeded sequence over fresh
  ``smoke.json`` variants, so every pass has the same cold/warm mix.

A workload records the seconds and time window of each operation and
setup in :class:`Run`; :meth:`Run.finish` normalises them by the host
speed probe's readings in that window (see :mod:`probe`).

A traced run (``trace=True``) alternates untraced and traced operations:
the untraced ones give the tracing overhead, the traced ones the layer
self times of :mod:`layers`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import resource
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import common
import layers
from common import BENCH_DIR, EXAMPLES, median, percentile, run_child
from probe import SpeedProbe

#: Fresh-process setup repetitions per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seconds an in-process operation may take before it counts as failed.
OP_TIMEOUT_S = 90.0
#: Client poll interval while a cold service job computes.
POLL_S = 0.01
#: Service mix: requests per pass over this many fresh variants.
SERVICE_REQUESTS = 240
SERVICE_VARIANTS = 12
#: ``repro submit --wait`` children per service run (cache hits).
SUBMIT_CHILDREN = 2

DOE_OPERATIONS = ("read", "write", "hold_snm", "read_snm")

#: Every per-layer metric and its unit; a traced run reports all of them,
#: with 0 for a layer the workload never enters.
PER_LAYER: Dict[str, str] = {
    "cli.start_s": "s",
    "cli.import_s": "s",
    "cli.modules": "count",
    "cli.self_s": "s",
    "cli.exit_s": "s",
    "cli.submit_s": "s",
    "spec.load_s": "s",
    "api.self_s": "s",
    "api.serialise_s": "s",
    "worst_case.search_s": "s",
    "worst_case.searches": "count",
    "extraction.extract_s": "s",
    "extraction.calls": "count",
    "montecarlo.pilot_s": "s",
    "campaign.prepare_s": "s",
    "campaign.items": "count",
    "campaign.self_s": "s",
    "operations.prepare_s": "s",
    "operations.prepared": "count",
    "batch.dc_sweep_s": "s",
    "batch.dc_op_s": "s",
    "batch.transient_s": "s",
    "batch.finish_s": "s",
    "batch.ticks": "count",
    "batch.lanes": "count",
    "batch.lane_iterations": "count",
    "batch.lane_slots": "count",
    "batch.occupancy": "ratio",
    "batch.scalar_fallbacks": "count",
    "mosfet.kernel_s": "s",
    "mosfet.device_evals": "count",
    "mna.sparse_s": "s",
    "mna.sparse_solves": "count",
    "mna.dense_solves": "count",
    "mna.factorizations": "count",
    "mna.refactorizations": "count",
    "highsigma.self_s": "s",
    "highsigma.calls": "count",
    "highsigma.promoted": "count",
    "server.transport_ms": "ms",
    "queue.submit_ms": "ms",
    "cache.get_ms": "ms",
    "journal.append_ms": "ms",
    "cache.put_ms": "ms",
    "server.compute_ms": "ms",
    "server.poll_lag_ms": "ms",
    "cache.hit_ratio": "ratio",
    "service.warm_p95_ms": "ms",
    "service.cold_p50_ms": "ms",
    "trace.wall_s": "s",
    "trace.uncovered_share": "ratio",
    "trace.overhead_s": "s",
    "host.loop_before_ms": "ms",
    "host.loop_after_ms": "ms",
    "host.slowdown": "ratio",
}

#: Layer self times that together make up a traced operation's wall.
LAYER_TIMES = tuple(m for m in layers.TIME_METRICS.values() if m in PER_LAYER) + (
    "cli.start_s",
    "cli.exit_s",
)

#: Count metrics that every per-layer output carries.
COUNT_METRICS = (
    tuple(layers.CALL_COUNTS.values())
    + tuple(layers.SOLVER_COUNTS.values())
    + ("cli.modules", "highsigma.calls", "highsigma.promoted")
)


def exec_seed(seed: int, offset: int = 0) -> int:
    """The spec's ``execution.seed`` derived from the workload seed."""
    return (seed * 1_000_003 + offset) % (2**31)


def digest(records: Sequence[Dict[str, Any]]) -> str:
    """Hash of the records, ignoring walls and batch provenance."""
    stripped = [
        {k: v for k, v in record.items() if k != "wall_s" and not k.startswith("batch")}
        for record in records
    ]
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`OpTimeout` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """Bookkeeping of one workload run: operations, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.attempted = 0
        self.failures: List[str] = []
        self.checks: Dict[str, Tuple[bool, str]] = {}
        self.end_to_end: Dict[str, Tuple[float, str, int]] = {}
        self.per_layer: Dict[str, Tuple[float, str, int]] = {}
        self.info: Dict[str, Any] = {}
        self.spans: List[list] = []
        self._counts: Dict[str, Dict[str, float]] = {}
        #: The run's host speed probe, started and stopped by the caller.
        self.probe: Optional[SpeedProbe] = None
        #: (seconds, window start, window end) of every successful untraced
        #: operation and of every setup; the window's host slowdown
        #: normalises the seconds.
        self.walls: List[Tuple[float, float, float]] = []
        self.setups: List[Tuple[float, float, float]] = []
        self.rss_mb = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and all(ok for ok, _ in self.checks.values())

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record an output check; the first failure of a name sticks."""
        if self.checks.get(name, (True, ""))[0]:
            self.checks[name] = (bool(ok), detail)
        return bool(ok)

    def operation(self, checks: Sequence[Tuple[str, bool, str]]) -> bool:
        """Account one attempted operation; it fails if any check fails."""
        self.attempted += 1
        ok = True
        for name, passed, detail in checks:
            ok = self.check(name, passed, detail) and ok
        if not ok:
            bad = [f"{name}: {detail}" for name, passed, detail in checks if not passed]
            self.failures.append("; ".join(bad))
        return ok

    def counts_repeat(self, kind: str, counts: Dict[str, float]) -> Tuple[str, bool, str]:
        """Check that ``counts`` equal the first counts seen for ``kind``."""
        first = self._counts.setdefault(kind, dict(counts))
        differing = sorted(k for k in set(first) | set(counts) if first.get(k) != counts.get(k))
        return ("counts_repeat", not differing, f"{kind} differs in {differing}")

    def e2e(self, name: str, value: float, unit: str, samples: int) -> None:
        self.end_to_end[name] = (float(value), unit, int(samples))

    def layer(self, name: str, value: float, unit: str, samples: int) -> None:
        self.per_layer[name] = (float(value), unit, int(samples))

    def raw_walls(self) -> List[float]:
        return [seconds for seconds, _, _ in self.walls]

    def finish(self) -> None:
        """The end-to-end metrics every workload reports, once the probe stopped.

        ``wall_s`` and ``setup_s`` are medians of host-normalised seconds
        (see :mod:`probe`); the raw medians go to the report.
        """
        probe = self.probe
        self.check("speed_probe", bool(probe.readings), "the host speed probe returned no readings")
        for metric, samples in (("wall_s", self.walls), ("setup_s", self.setups)):
            if samples:
                scaled = [probe.normalised(*sample) for sample in samples]
                raw = [seconds for seconds, _, _ in samples]
                self.e2e(metric, median(scaled), "s", len(samples))
                self.info[f"raw_{metric}"] = median(raw)
                self.info[f"{metric}_range"] = (min(scaled), percentile(scaled, 25), percentile(scaled, 75), max(scaled))
        self.info["slowdown"] = probe.slowdown()
        self.e2e("peak_rss_mb", self.rss_mb, "MB", 1)
        if self.attempted:
            self.e2e("success_ratio", 1.0 - self.failed / self.attempted, "ratio", self.attempted)
        if self.trace:
            self.layer("host.slowdown", probe.slowdown(), "ratio", len(probe.readings))


class Window:
    """The measurement window: operations start only while they still fit.

    The first ``minimum`` operations always run; after that an operation
    starts only if one as long as the last one ends before the window
    closes, so a run overshoots ``seconds`` by little.
    """

    def __init__(self, seconds: float, minimum: int) -> None:
        self.stop = time.perf_counter() + seconds
        self.minimum = minimum
        self.durations: List[float] = []

    def more(self) -> bool:
        if len(self.durations) < self.minimum:
            return True
        return time.perf_counter() + self.durations[-1] <= self.stop

    def __iter__(self) -> Iterator[int]:
        index = 0
        while self.more():
            started = time.perf_counter()
            yield index
            self.durations.append(time.perf_counter() - started)
            index += 1


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class LayerLedger:
    """Per-operation layer totals of the traced operations of one run."""

    def __init__(self) -> None:
        self.ops: List[Dict[str, float]] = []
        self.walls: List[float] = []

    def add(self, totals: Dict[str, float], wall_s: float) -> None:
        self.ops.append(totals)
        self.walls.append(wall_s)

    def mean(self, metric: str) -> float:
        if not self.ops:
            return 0.0
        return sum(op.get(metric, 0.0) for op in self.ops) / len(self.ops)

    def report(self, run: Run, untraced_walls: Sequence[float]) -> None:
        """Emit every per-layer time and count, coverage and overhead."""
        n = len(self.ops)
        for metric in LAYER_TIMES:
            run.layer(metric, self.mean(metric), "s", n)
        for metric in COUNT_METRICS:
            run.layer(metric, self.ops[0].get(metric, 0.0) if self.ops else 0.0, "count", n)
        slots = self.mean("batch.lane_slots")
        run.layer(
            "batch.occupancy",
            self.mean("batch.lane_iterations") / slots if slots else 0.0,
            "ratio",
            n,
        )
        covered = sum(op.get(metric, 0.0) for op in self.ops for metric in LAYER_TIMES)
        wall = sum(self.walls)
        run.layer("trace.wall_s", median(self.walls) if self.walls else 0.0, "s", n)
        run.layer("trace.uncovered_share", 1.0 - covered / wall if wall else 0.0, "ratio", n)
        overhead = (
            median(self.walls) - median(untraced_walls)
            if self.walls and untraced_walls
            else 0.0
        )
        run.layer("trace.overhead_s", overhead, "s", n)


def time_setup_probes(run: Run) -> None:
    """Time the workload's setup in fresh processes (spawn → ready)."""
    for _ in range(SETUP_SAMPLES):
        argv = [str(BENCH_DIR / "run.py"), "--setup-probe", run.name, "--seed", str(run.seed)]
        if run.tiny:
            argv.append("--tiny")
        child = run_child(argv)
        ready = [line for line in child.stdout.splitlines() if line.startswith("ready ")]
        ok = child.ok and len(ready) == 1
        run.check("setup_probe", ok, child.stderr[-300:])
        end = float(ready[0].split()[1]) if ok else child.ended
        run.setups.append((end - child.started, child.started, end))


def traced_child(argv: Sequence[str], spans_path: Path) -> Tuple[common.ChildResult, Optional[dict]]:
    """Run ``repro <argv>`` as a traced CLI child; returns its spans."""
    child = run_child([str(BENCH_DIR / "traced_cli.py"), "--spans", str(spans_path), "--", *argv])
    try:
        payload = json.loads(spans_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = None
    return child, payload


def child_totals(payload: dict, child: common.ChildResult) -> Dict[str, float]:
    """Layer totals of a traced child, with interpreter start-up and exit."""
    spans = payload["spans"]
    totals = layers.layer_totals(spans, range(len(spans)))
    totals["cli.modules"] = payload["modules"]
    totals["cli.start_s"] = payload["started"] - child.started
    totals["cli.exit_s"] = child.ended - payload["returned"]
    return totals


# -- doe4 ------------------------------------------------------------------------------------


def doe4_spec(seed: int, tiny: bool) -> Dict[str, Any]:
    spec = json.loads((EXAMPLES / "smoke.json").read_text(encoding="utf-8"))
    spec["kind"] = "operations"
    spec["operation"]["operations"] = list(DOE_OPERATIONS)
    spec["array"]["sizes"] = [16] if tiny else [16, 64, 256, 1024]
    spec["execution"].update(
        backend="serial", solver="batched", workers=1, seed=exec_seed(seed)
    )
    return spec


def doe4_checks(
    child: common.ChildResult, expected: int, reference: Dict[str, str]
) -> List[Tuple[str, bool, str]]:
    checks = [("exit_code", child.ok, f"exit {child.returncode}: {child.stderr[-300:]}")]
    try:
        document = json.loads(child.stdout)
        records = document["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return checks + [("parse", False, str(exc))]
    failures = [r for r in records if r.get("record") == "failure"]
    found = digest(records)
    reference.setdefault("digest", found)
    return checks + [
        ("record_count", len(records) == expected, f"{len(records)} records, expected {expected}"),
        ("no_failure_rows", not failures and document.get("n_failures") == 0, f"{len(failures)} failure rows"),
        ("finite", common.all_finite(records), "non-finite value"),
        ("records_identical", found == reference["digest"], f"digest {found} != {reference['digest']}"),
    ]


def run_doe4(run: Run) -> None:
    tmp = common.make_tempdir("doe4")
    try:
        spec_path = tmp / "doe4.json"
        for _ in range(SETUP_SAMPLES):
            started = time.perf_counter()
            spec = doe4_spec(run.seed, run.tiny)
            spec_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
            warm = run_child(["-c", "import repro.cli"])
            run.setups.append((warm.ended - started, started, warm.ended))
            run.check("warmup_child", warm.ok, warm.stderr[-300:])

        expected = len(DOE_OPERATIONS) * len(spec["array"]["sizes"]) * len(spec["array"]["options"])
        argv = ["run", str(spec_path), "--format", "json"]
        ledger = LayerLedger()
        reference: Dict[str, str] = {}
        for index in Window(run.seconds, 2 if run.trace else 1):
            if run.trace and index % 2 == 1:
                child, payload = traced_child(argv, tmp / f"spans-{index}.json")
                checks = doe4_checks(child, expected, reference)
                if payload is None:
                    checks.append(("spans", False, "traced child wrote no spans"))
                else:
                    totals = child_totals(payload, child)
                    checks.append(run.counts_repeat("doe4", {m: totals.get(m, 0) for m in COUNT_METRICS}))
                    ledger.add(totals, child.wall_s)
                    run.spans.extend([*span[:5], index, span[6]] for span in payload["spans"])
                run.operation(checks)
            else:
                child = run_child(["-m", "repro", *argv])
                if run.operation(doe4_checks(child, expected, reference)):
                    run.walls.append((child.wall_s, child.started, child.ended))
        run.info["records_digest"] = reference.get("digest")
        # Reaped children only: the speed probe is still running.
        run.rss_mb = rss_mb(resource.RUSAGE_CHILDREN)
        if run.trace:
            ledger.report(run, run.raw_walls())
    finally:
        common.remove_tree(tmp)


# -- yield_hs --------------------------------------------------------------------------------


def yield_hs_spec(seed: int, tiny: bool) -> Dict[str, Any]:
    spec = json.loads((EXAMPLES / "yield_hs.json").read_text(encoding="utf-8"))
    spec["high_sigma"]["model"] = "circuit"
    spec["execution"].update(backend="serial", solver="batched", workers=1, seed=exec_seed(seed))
    if tiny:
        spec["array"]["options"] = ["LELELE"]
        spec["array"]["overlay_budgets_nm"] = [3.0]
    return spec


def setup_yield_hs(seed: int, tiny: bool):
    """Imports and spec generation; returns (api module, validated spec)."""
    from repro import api

    return api, api.load_spec(yield_hs_spec(seed, tiny))


def yield_hs_checks(result, spec, tiny: bool, reference: Dict[str, str]) -> List[Tuple[str, bool, str]]:
    records = result.records
    expected = 2 if tiny else 12  # corners x sigma levels (3 and 6)
    deep = [r for r in records if r["sigma_level"] >= 6.0]
    bad_ci = [
        r for r in deep
        if not (math.isfinite(r["ci_low"]) and math.isfinite(r["ci_high"]) and 0.0 < r["ci_low"] < r["ci_high"])
    ]
    low_ess = [r for r in records if not r["ess"] >= r["n_proposals"] / 8.0]
    calls = result.meta["high_sigma"]["total_simulator_calls"]
    found = digest(records)
    reference.setdefault("digest", found)
    return [
        ("record_count", len(records) == expected, f"{len(records)} rows, expected {expected}"),
        ("ci_6sigma_finite", bool(deep) and not bad_ci, f"{len(bad_ci)} bad 6-sigma intervals"),
        ("ess_floor", not low_ess, f"{len(low_ess)} rows below proposals/8"),
        ("call_budget", calls <= spec.high_sigma.max_calls, f"{calls} calls"),
        ("finite", common.all_finite(records), "non-finite value"),
        ("records_identical", found == reference["digest"], f"digest {found} != {reference['digest']}"),
    ]


def run_yield_hs(run: Run) -> None:
    from repro.circuit.mna import solver_stats

    time_setup_probes(run)
    api, spec = setup_yield_hs(run.seed, run.tiny)
    recorder = layers.Recorder()
    ledger = LayerLedger()
    reference: Dict[str, str] = {}
    for index in Window(run.seconds, 2 if run.trace else 1):
        traced = run.trace and index % 2 == 1
        recorder.run_id = index
        first_span = len(recorder.spans)
        if traced:
            recorder.install()
        before = solver_stats().as_dict()
        started = time.perf_counter()
        try:
            with deadline(OP_TIMEOUT_S):
                result = api.run(spec)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            run.operation([("api_run", False, f"{type(exc).__name__}: {exc}")])
            continue
        finally:
            wall = time.perf_counter() - started
            recorder.uninstall()
        after = solver_stats().as_dict()
        high_sigma = result.meta["high_sigma"]
        counts = {metric: after[key] - before[key] for key, metric in layers.SOLVER_COUNTS.items()}
        counts["highsigma.calls"] = high_sigma["total_simulator_calls"]
        counts["highsigma.promoted"] = high_sigma["total_promoted"]
        checks = yield_hs_checks(result, spec, run.tiny, reference)
        checks.append(run.counts_repeat("yield_hs", counts))
        if traced:
            totals = layers.layer_totals(recorder.spans, range(first_span, len(recorder.spans)))
            # The solver counters come from the solving thread (the
            # ``highsigma.rows`` span); they must match the untraced delta.
            traced_counts = {m: totals.get(m, 0) for m in layers.SOLVER_COUNTS.values()}
            solver_only = {m: counts[m] for m in layers.SOLVER_COUNTS.values()}
            checks.append(("span_counters", traced_counts == solver_only, "span counters differ from thread delta"))
            ledger.add({**totals, **counts}, wall)
        if run.operation(checks) and not traced:
            run.walls.append((wall, started, started + wall))
    run.spans = recorder.spans
    run.info["records_digest"] = reference.get("digest")
    run.rss_mb = rss_mb(resource.RUSAGE_SELF)
    if run.trace:
        ledger.report(run, run.raw_walls())


# -- service ---------------------------------------------------------------------------------


def service_variants(seed: int, pass_index: int, tiny: bool) -> List[Dict[str, Any]]:
    base = json.loads((EXAMPLES / "smoke.json").read_text(encoding="utf-8"))
    variants = []
    for i in range(3 if tiny else SERVICE_VARIANTS):
        spec = json.loads(json.dumps(base))
        spec["execution"].update(
            backend="serial", solver="batched", workers=1,
            seed=exec_seed(seed, 1 + pass_index * 1000 + i),
        )
        variants.append(spec)
    return variants


def request_sequence(seed: int, pass_index: int, n_variants: int, n_requests: int) -> List[int]:
    """Every variant at least once, the rest drawn uniformly, shuffled."""
    rng = random.Random(exec_seed(seed, pass_index))
    order = list(range(n_variants)) + [rng.randrange(n_variants) for _ in range(n_requests - n_variants)]
    rng.shuffle(order)
    return order


class ServiceSetup:
    """Server on an ephemeral 127.0.0.1 port over a temp cache dir."""

    def __init__(self, seed: int, tiny: bool) -> None:
        from repro import api
        from repro.service.client import ExperimentClient
        from repro.service.server import ExperimentServer

        self.api = api
        self.tmp = common.make_tempdir("service")
        self.server = None
        try:
            self.variant_files = []
            for i, spec in enumerate(service_variants(seed, 0, tiny)):
                path = self.tmp / f"variant-{i}.json"
                path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
                self.variant_files.append(path)
            self.server = ExperimentServer(
                host="127.0.0.1", port=0, cache_dir=self.tmp / "cache", workers=1
            ).start()
            self.client = ExperimentClient(self.server.url, timeout_s=30.0, max_retries=0)
            if self.client.health().get("status") != "ok":
                raise common.BenchError("server health check failed")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        common.remove_tree(self.tmp)


class Request:
    __slots__ = ("variant", "cold", "cached", "start", "end", "submitted_at", "finished_at", "seen_at", "body")


def service_pass(
    run: Run, setup: ServiceSetup, pass_index: int, first_bodies: Dict[Tuple[int, int], str]
) -> List[Request]:
    specs = [setup.api.load_spec(s) for s in service_variants(run.seed, pass_index, run.tiny)]
    n_requests = 12 if run.tiny else SERVICE_REQUESTS
    seen = set()
    requests = []
    client = setup.client
    for variant in request_sequence(run.seed, pass_index, len(specs), n_requests):
        request = Request()
        request.variant = variant
        request.cold = variant not in seen
        seen.add(variant)
        request.start = time.perf_counter()
        try:
            ticket = client.submit(specs[variant])
            status = client.wait(ticket["id"], timeout_s=OP_TIMEOUT_S, poll_s=POLL_S)
            request.seen_at = time.time()
            request.body = client.result_text(ticket["id"], fmt="json")
        except Exception as exc:  # noqa: BLE001 - HTTP or job errors count as failures
            request.end = time.perf_counter()
            run.operation([("http", False, f"{type(exc).__name__}: {exc}")])
            continue
        request.end = time.perf_counter()
        request.cached = bool(ticket["cached"])
        request.submitted_at = status["submitted_at"]
        request.finished_at = status["finished_at"]
        key = (pass_index, variant)
        if request.cold:
            first_bodies[key] = request.body
            try:
                document = json.loads(request.body)
                valid = document["n_failures"] == 0 and document["n_records"] > 0 and common.all_finite(document["records"])
            except (ValueError, KeyError, TypeError):
                valid = False
            checks = [
                ("cold_computes", not request.cached, "first request of a variant hit the cache"),
                ("cold_result", valid, "cold result has failures or bad values"),
            ]
        else:
            checks = [
                ("warm_cached", request.cached, "repeat was not served from cache"),
                ("warm_identical", request.body == first_bodies.get(key), "repeat bytes differ from first response"),
            ]
        if run.operation(checks):
            requests.append(request)
    return requests


#: Server-side spans of the request path (handler threads).
FRONT_SPANS = ("spec.load", "queue.submit", "cache.get", "journal.append", "api.serialise")


class ServiceLedger:
    """Server-side split of the traced service round trips."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.compute = LayerLedger()
        self.samples: Dict[str, List[float]] = {}
        self.traced_warm: List[float] = []
        self.wall = 0.0
        self.covered = 0.0

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def account(self, spans: Sequence[list], first_span: int, requests: Sequence["Request"]) -> None:
        """Attribute each request's server-side spans by time window.

        One closed-loop client means everything the server does between a
        request's start and end is that request's work.  A warm round
        trip is its handler spans plus transport, the remainder; a cold
        one adds the job's compute wall and the client's poll lag.
        """
        # The queue names its worker threads ``repro-job_<n>``.
        jobs = {t.ident for t in threading.enumerate() if t.name.startswith("repro-job")}
        client = threading.get_ident()
        server = sorted(
            (i for i in range(first_span, len(spans)) if spans[i][layers.THREAD] != client),
            key=lambda i: spans[i][layers.START],
        )
        cursor = 0
        for request in requests:
            mine = []
            while cursor < len(server) and spans[server[cursor]][layers.START] <= request.end:
                if spans[server[cursor]][layers.START] >= request.start:
                    mine.append(server[cursor])
                cursor += 1
            front = layers.layer_totals(spans, [i for i in mine if spans[i][layers.THREAD] not in jobs])
            front_s = sum(front.get(layers.TIME_METRICS[name], 0.0) for name in FRONT_SPANS)
            rt = request.end - request.start
            self.wall += rt
            if request.cold:
                job = layers.layer_totals(spans, [i for i in mine if spans[i][layers.THREAD] in jobs])
                counts = {metric: job.get(metric, 0.0) for metric in COUNT_METRICS}
                self.run.check(*self.run.counts_repeat("service_cold", counts))
                compute = request.finished_at - request.submitted_at
                lag = max(0.0, request.seen_at - request.finished_at)
                self.compute.add(job, compute)
                self.add("server.compute_ms", compute * 1e3)
                self.add("server.poll_lag_ms", lag * 1e3)
                self.add("cache.put_ms", job.get("cache.put_s", 0.0) * 1e3)
                self.covered += front_s + compute + lag
            else:
                self.traced_warm.append(rt)
                for name in ("queue.submit", "cache.get", "journal.append"):
                    metric = layers.TIME_METRICS[name]
                    self.add(metric[:-2] + "_ms", front.get(metric, 0.0) * 1e3)
                self.add("spec.load_s", front.get("spec.load_s", 0.0))
                self.add("api.serialise_s", front.get("api.serialise_s", 0.0))
                self.add("server.transport_ms", (rt - front_s) * 1e3)
                self.covered += rt

    def report(self, untraced_warm: Sequence[float]) -> None:
        run = self.run
        # Compute layers are per cold request (the job thread's spans).
        self.compute.report(run, [])
        for metric, values in self.samples.items():
            run.layer(metric, sum(values) / len(values), PER_LAYER[metric], len(values))
        n = len(self.traced_warm)
        run.layer("trace.wall_s", median(self.traced_warm) if n else 0.0, "s", n)
        run.layer("trace.uncovered_share", 1.0 - self.covered / self.wall if self.wall else 0.0, "ratio", n)
        overhead = median(self.traced_warm) - median(untraced_warm) if n and untraced_warm else 0.0
        run.layer("trace.overhead_s", overhead, "s", n)


def submit_child(
    run: Run, setup: ServiceSetup, index: int, reference: str, spans_path: Optional[Path]
) -> Tuple[bool, common.ChildResult, Optional[dict]]:
    """One ``repro submit --wait`` child on a cached variant."""
    argv = [
        "submit", str(setup.variant_files[index]),
        "--url", setup.server.url, "--wait", "--format", "json",
        "--timeout", str(OP_TIMEOUT_S),
    ]
    payload = None
    if spans_path is not None:
        child, payload = traced_child(argv, spans_path)
    else:
        child = run_child(["-m", "repro", *argv])
    try:
        same = json.loads(child.stdout)["records"] == json.loads(reference)["records"]
    except (ValueError, KeyError, TypeError):
        same = False
    checks = [
        ("exit_code", child.ok, f"submit exit {child.returncode}: {child.stderr[-300:]}"),
        ("submit_records", same, "repro submit returned different records"),
    ]
    if spans_path is not None and payload is None:
        checks.append(("spans", False, "traced child wrote no spans"))
    return run.operation(checks), child, payload


def run_service(run: Run) -> None:
    time_setup_probes(run)
    setup = ServiceSetup(run.seed, run.tiny)
    recorder = layers.Recorder()
    try:
        first_bodies: Dict[Tuple[int, int], str] = {}
        cold: List[float] = []
        submit_walls: List[float] = []
        hit_ratios: List[float] = []
        traced = ServiceLedger(run)
        for pass_index in Window(run.seconds, 2 if run.trace else 1):
            tracing = run.trace and pass_index % 2 == 1
            recorder.run_id = pass_index
            first_span = len(recorder.spans)
            before = setup.server.queue.stats()
            if tracing:
                recorder.install()
            pass_start = time.perf_counter()
            try:
                requests = service_pass(run, setup, pass_index, first_bodies)
            finally:
                pass_end = time.perf_counter()
                recorder.uninstall()
            after = setup.server.queue.stats()
            submitted = after["submitted"] - before["submitted"]
            hit_ratios.append((after["cache_hits"] - before["cache_hits"]) / max(submitted, 1))
            if tracing:
                traced.account(recorder.spans, first_span, requests)
            else:
                # A warm round trip is normalised by its whole pass's slowdown.
                run.walls.extend((r.end - r.start, pass_start, pass_end) for r in requests if not r.cold)
                cold.extend(r.end - r.start for r in requests if r.cold)
            if pass_index == 0:
                # The server keeps every job it has answered, so its memory
                # grows with each pass; peak RSS is read after the same
                # amount of work in every run: this first pass.
                run.rss_mb = rss_mb(resource.RUSAGE_SELF)
                # CLI clients on cache hits, once the first pass is stored.
                for index in range(1 if run.tiny else SUBMIT_CHILDREN):
                    ok, child, _ = submit_child(run, setup, index, first_bodies.get((0, index), ""), None)
                    if ok:
                        submit_walls.append(child.wall_s)
                if run.trace:
                    ok, child, payload = submit_child(
                        run, setup, 0, first_bodies.get((0, 0), ""), setup.tmp / "submit-spans.json"
                    )
                    if ok and payload is not None:
                        totals = child_totals(payload, child)
                        for metric in ("cli.start_s", "cli.import_s", "cli.exit_s", "cli.modules"):
                            traced.add(metric, totals.get(metric, 0.0))
        run.check("hit_ratio_fixed", len(set(hit_ratios)) == 1, f"hit ratios {sorted(set(hit_ratios))}")
        run.info["final_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
        warm = run.raw_walls()
        # p95 only with at least ten samples beyond it.
        run.info["warm_p95_ms"] = (percentile(warm, 95) * 1e3, len(warm)) if len(warm) >= 200 else None
        run.info["cold_p50_ms"] = (median(cold) * 1e3, len(cold)) if cold else None
        run.info["cli_submit_s"] = (median(submit_walls), len(submit_walls)) if submit_walls else None
        run.info["poll_interval_s"] = POLL_S
        if run.trace:
            traced.report(warm)
            run.layer("cache.hit_ratio", hit_ratios[0], "ratio", len(hit_ratios))
            if run.info["warm_p95_ms"]:
                run.layer("service.warm_p95_ms", run.info["warm_p95_ms"][0], "ms", len(warm))
            if cold:
                run.layer("service.cold_p50_ms", median(cold) * 1e3, "ms", len(cold))
            if submit_walls:
                run.layer("cli.submit_s", median(submit_walls), "s", len(submit_walls))
        run.spans = recorder.spans
    finally:
        setup.close()


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "doe4": run_doe4,
    "yield_hs": run_yield_hs,
    "service": run_service,
}


#: Workloads whose setup is timed in probe children (doe4 times its
#: warm-up ``import repro.cli`` children instead).
PROBED = ("yield_hs", "service")


def setup_probe(name: str, seed: int, tiny: bool) -> None:
    """Child side of :func:`time_setup_probes`: set up, report, tear down."""
    if name == "yield_hs":
        setup_yield_hs(seed, tiny)
        print(f"ready {time.perf_counter()!r}", flush=True)
        return
    setup = ServiceSetup(seed, tiny)
    print(f"ready {time.perf_counter()!r}", flush=True)
    setup.close()
