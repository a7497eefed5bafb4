"""Shared plumbing of the benchmark: hermetic paths, children, statistics.

Everything the benchmark writes goes under ``<checkout>/.bench_build``:
compiled bytecode (``pycache/``), per-run temp dirs and trace files.
Nothing under ``src/``, ``examples/`` or the committed bench files is
ever written.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples" / "specs"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"

#: Seconds a single child process may run before it is killed and the
#: operation counted as failed.
CHILD_TIMEOUT_S = 90.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing tree, broken environment)."""


def require_tree() -> None:
    """Fail fast unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}; run from a full checkout")
    for name in ("smoke.json", "yield_hs.json"):
        if not (EXAMPLES / name).is_file():
            raise BenchError(f"missing input spec {EXAMPLES / name}")


def use_source_tree() -> None:
    """Import ``repro`` from ``src/``; cache bytecode under ``.bench_build``."""
    PYCACHE.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: BLAS and OpenMP pools of one thread: the work runs on one CPU.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_to_one_cpu() -> None:
    """Run this process, its children and their threads on one CPU.

    The speed probe then times the CPU the work runs on, and the service's
    server and client threads hand off without cross-CPU wake-ups, which
    on a small shared host made warm round trips ~25% slower and their
    run-to-run spread ~2.5x wider.  Must run before numpy is imported.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(SINGLE_THREAD_ENV)


def child_env() -> Dict[str, str]:
    """Environment of every child: ``src`` first on the path, no faults."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Bytecode is cached under .bench_build whatever the caller's
    # setting, so start-up is measured as an installed program sees it.
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_FAULTS", None)
    return env


def make_tempdir(tag: str) -> Path:
    BUILD.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=BUILD))


def remove_tree(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


class ChildResult:
    """Outcome of one child process: exit code, output and spawn→exit wall.

    ``started``/``ended`` are ``time.perf_counter()`` readings; on Linux
    that clock is CLOCK_MONOTONIC, shared with the child's own readings.
    """

    def __init__(self, returncode: int, stdout: str, stderr: str, started: float):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.started = started
        self.ended = time.perf_counter()
        self.wall_s = self.ended - started

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def run_child(argv: Sequence[str], timeout_s: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``python argv...`` to completion; a timeout kills it (exit -9)."""
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=str(ROOT),
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the child.
        return ChildResult(-9, "", f"timed out after {timeout_s:g} s: {exc}", started)
    return ChildResult(done.returncode, done.stdout, done.stderr, started)


# -- statistics ------------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return float(ordered[rank])


def all_finite(records: Sequence[Dict[str, Any]]) -> bool:
    """Every numeric value of every record is finite."""
    for record in records:
        for value in record.values():
            if isinstance(value, float) and not math.isfinite(value):
                return False
    return True


# -- host drift and provenance ---------------------------------------------------------------


def drift_loop_ms() -> float:
    """Wall of a fixed pure-Python loop; compares host speed across runs."""
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


def _blas_info() -> Dict[str, Any]:
    try:
        import numpy

        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # noqa: BLE001 - provenance is best effort
        return {"error": f"{type(exc).__name__}: {exc}"}


def _git_commit() -> Optional[str]:
    # Only the checkout's own repository: git must not walk up past it.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    threads = {
        key: os.environ.get(key)
        for key in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    }
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_threads_env": threads,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def dump_line(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
