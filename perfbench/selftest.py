"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs (doe4 at size 16, yield_hs on one
corner, service with a few requests), untraced once and traced twice at
one seed, and checks that:

* ``BENCHMARK.json`` declares exactly the metrics the benchmark emits;
* every metric is emitted with its declared unit and a sample count;
* every output check passes and no operation failed;
* every count metric repeats exactly between the two traced runs;
* the traced layers cover at least 95% of the traced wall;
* a directory holding only ``BENCHMARK.json`` and the benchmark exits
  non-zero without printing a result.

Exits 0 when all of them hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.pycache_prefix = str(Path(__file__).resolve().parent.parent / ".bench_build" / "pycache")

import common  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402

SEED = 7
REPORT_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+n=(\d+)$")


def bench(workload: str, trace: int, cwd: Path = common.ROOT) -> Tuple[int, str, dict, Dict[str, Tuple[str, int]]]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, cwd=str(cwd), capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    reported = {}
    for line in lines:
        match = REPORT_LINE.match(line)
        if match:
            reported[match.group(1)] = (match.group(3), int(match.group(4)))
    return done.returncode, done.stdout + done.stderr, result, reported


def expect(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_declared(problems: List[str]) -> None:
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect(problems, e2e == END_TO_END, f"BENCHMARK.json end_to_end {e2e} != {END_TO_END}")
    expect(problems, layer == workloads.PER_LAYER, "BENCHMARK.json per_layer differs from PER_LAYER")
    names = {w["name"] for w in declared["workloads"]}
    expect(problems, names == set(workloads.WORKLOADS), f"workloads {names}")


def check_run(problems: List[str], label: str, run, declared: Dict[str, str]) -> dict:
    code, output, result, reported = run
    expect(problems, code == 0, f"{label}: exit {code}\n{output[-2000:]}")
    expect(problems, result.get("correct") is True, f"{label}: not correct\n{output[-2000:]}")
    expect(problems, result.get("failed") == 0 and result.get("attempted", 0) >= 1, f"{label}: failed ops")
    metrics = result.get("metrics", {})
    expect(problems, set(metrics) == set(declared), f"{label}: metrics {sorted(set(declared) ^ set(metrics))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        expect(problems, entry.get("unit") == unit, f"{label}: {name} unit {entry.get('unit')} != {unit}")
        expect(problems, isinstance(entry.get("value"), (int, float)), f"{label}: {name} has no value")
        expect(problems, name in reported, f"{label}: {name} missing from the report")
        if declared is END_TO_END:
            expect(problems, reported.get(name, ("", 0))[1] >= 1, f"{label}: {name} has no samples")
    return metrics


def main() -> int:
    problems: List[str] = []
    check_declared(problems)
    counts = [name for name, unit in workloads.PER_LAYER.items() if unit == "count"] + ["cache.hit_ratio"]
    for workload in workloads.WORKLOADS:
        check_run(problems, f"{workload} trace=0", bench(workload, 0), END_TO_END)
        first = check_run(problems, f"{workload} trace=1 #1", bench(workload, 1), workloads.PER_LAYER)
        second = check_run(problems, f"{workload} trace=1 #2", bench(workload, 1), workloads.PER_LAYER)
        for name in counts:
            a, b = first.get(name, {}).get("value"), second.get(name, {}).get("value")
            expect(problems, a == b, f"{workload}: count {name} differs between runs ({a} vs {b})")
        for metrics in (first, second):
            uncovered = metrics.get("trace.uncovered_share", {}).get("value", 1.0)
            expect(problems, uncovered <= 0.05, f"{workload}: layers leave {uncovered:.1%} of the traced wall uncovered")
        print(f"selftest: {workload} done", flush=True)

    bare = common.make_tempdir("bare")
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(common.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, output, result, _ = bench("doe4", 0, cwd=bare)
        expect(problems, code != 0 and not result, f"bare directory: exit {code}, result {result}")
    finally:
        common.remove_tree(bare)

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
