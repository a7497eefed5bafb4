"""Repository benchmark: end-to-end walls and outside-in per-layer traces.

Usage, from anywhere (the program is imported from ``<checkout>/src``)::

    python3 perfbench/run.py --workload doe4 --seed 1 --seconds 30 --trace 0

Workloads (see :mod:`workloads`): ``doe4`` (``repro run`` of the paper's
four-operation DOE, one fresh interpreter per operation), ``yield_hs``
(in-process high-sigma study with the circuit model) and ``service`` (an
in-process experiment server driven by one closed-loop HTTP client).

The run is pinned to one CPU with single-threaded BLAS, and a host speed
probe (:mod:`probe`) shares that CPU.  The end-to-end times ``wall_s``
and ``setup_s`` are host-normalised: each operation's or setup's seconds
divided by the probe's slowdown over its own time window, so the host
drifting between speed regimes does not read as a regression.  The raw
medians and the run's slowdown are printed beside them.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics: layer self times (raw seconds), counts, the share of
the traced wall no layer covers, the tracing overhead and the slowdown.

Output: a report of every metric with its unit, sample count and the
output checks, a ``provenance`` line, then as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 whenever a result was printed; a checkout without the program's
sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# Bytecode of the benchmark's own modules goes under .bench_build too.
sys.pycache_prefix = str(Path(__file__).resolve().parent.parent / ".bench_build" / "pycache")

import common  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

#: End-to-end metrics every workload reports with tracing off.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--setup-probe", choices=workloads.PROBED, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _terminate(signum, frame):
    # Unwind through every ``finally``: the server shuts down, children
    # are reaped by subprocess.run and temp dirs are removed.
    raise SystemExit(128 + signum)


def report_lines(run: workloads.Run) -> List[str]:
    lines = [f"perfbench {run.name} seed={run.seed} seconds={run.seconds:g} trace={int(run.trace)}"]
    for name, (value, unit, samples) in run.end_to_end.items():
        lines.append(f"  {name:<24} {value:>14.6g} {unit:<6} n={samples}")
    for name in ("wall_s", "setup_s"):
        if f"{name}_range" in run.info:
            lines.append(
                f"  {name} min/p25/p75/max  " + " / ".join(f"{v:.6g}" for v in run.info[f"{name}_range"])
                + f"; raw median {run.info[f'raw_{name}']:.6g} s"
            )
    kinds = ", ".join(f"{name} {value:.3g}" for name, value in run.probe.kind_slowdowns().items())
    lines.append(
        f"  host slowdown {run.info['slowdown']:.4g} ({kinds}) over {len(run.probe.readings)} probe"
        " readings; wall_s and setup_s are normalised by it, window by window"
    )
    if "final_rss_mb" in run.info:
        lines.append(f"  peak_rss_mb at run end   {run.info['final_rss_mb']:.6g} MB (server keeps every job)")
    for key in ("warm_p95_ms", "cold_p50_ms", "cli_submit_s"):
        entry = run.info.get(key)
        if entry:
            lines.append(f"  {key:<24} {entry[0]:>14.6g} {'':<6} n={entry[1]}")
    if "poll_interval_s" in run.info:
        lines.append(f"  (service poll interval {run.info['poll_interval_s']:g} s)")
    if run.trace:
        # Every declared layer, with n=0 where the workload never enters it.
        for name, unit in workloads.PER_LAYER.items():
            value, _, samples = run.per_layer.get(name, (0.0, unit, 0))
            lines.append(f"  {name:<24} {value:>14.6g} {unit:<6} n={samples}")
    for name, (ok, detail) in sorted(run.checks.items()):
        lines.append(f"  check {name:<20} {'ok' if ok else 'FAILED: ' + detail}")
    lines.append(f"  operations attempted={run.attempted} failed={run.failed}")
    for failure in run.failures[:5]:
        lines.append(f"  failure: {failure}")
    if run.info.get("records_digest"):
        lines.append(f"  records digest {run.info['records_digest']}")
    lines.append(
        "  host loop before/after: "
        f"{run.info['loop_before_ms']:.1f} / {run.info['loop_after_ms']:.1f} ms (not gated)"
    )
    return lines


def result(run: workloads.Run) -> Dict[str, object]:
    if run.trace:
        metrics = {
            name: {"value": run.per_layer.get(name, (0.0,))[0], "unit": unit}
            for name, unit in workloads.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": run.end_to_end[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
            if name in run.end_to_end
        }
    correct = run.correct and len(metrics) == len(workloads.PER_LAYER if run.trace else END_TO_END)
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        common.require_tree()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.use_source_tree()
    signal.signal(signal.SIGTERM, _terminate)
    if args.setup_probe:
        workloads.setup_probe(args.setup_probe, args.seed, args.tiny)
        return 0

    common.pin_to_one_cpu()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    run.probe = SpeedProbe(sys.executable, common.child_env())
    try:
        run.info["loop_before_ms"] = common.drift_loop_ms()
        workloads.WORKLOADS[args.workload](run)
        run.info["loop_after_ms"] = common.drift_loop_ms()
    finally:
        run.probe.stop()
    run.finish()
    if run.trace:
        run.layer("host.loop_before_ms", run.info["loop_before_ms"], "ms", 1)
        run.layer("host.loop_after_ms", run.info["loop_after_ms"], "ms", 1)
        trace_dir = common.BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{run.name}-seed{run.seed}.jsonl", "w", encoding="utf-8") as handle:
            for span in run.spans:
                handle.write(common.dump_line({"span": span}) + "\n")
    unknown = set(run.per_layer) - set(workloads.PER_LAYER)
    if unknown:
        raise AssertionError(f"undeclared per-layer metrics {sorted(unknown)}")

    print("\n".join(report_lines(run)))
    print("provenance " + common.dump_line(common.provenance(args.seed)))
    print(common.dump_line(result(run)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
