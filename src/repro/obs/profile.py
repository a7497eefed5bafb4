"""Stdlib-only sampling profiler with folded-stack (flamegraph) output.

A background thread walks ``sys._current_frames()`` at ~101 Hz (a prime
rate, so sampling cannot phase-lock with millisecond-periodic work) and
aggregates each thread's stack into the collapsed/folded format that
``flamegraph.pl``, speedscope and friends consume directly::

    phase:item.measure;campaign._measure;batch.run_scalar;dc.dc_sweep;dc._solve_lane 412

The first frame of every folded stack is the sampled thread's innermost
*open span* (``phase:<name>``, or ``phase:(no-span)``), read from the
per-thread span stacks kept by :mod:`repro.obs.trace` — that is what
lets ``repro report --flame`` cross-check hot frames against span
attribution.  While the profiler is on, span stacks are maintained even
with tracing off (:func:`repro.obs.trace.set_stack_tracking`), so
``--profile`` alone is enough for phase-attributed samples.

Cross-process collection mirrors tracing's worker protocol: campaign
pool workers start their own profiler via the same pool-initializer
hook (:func:`enable_worker_profiling`), each periodically rewriting its
*aggregate* to ``<path>.workers/profile-<pid>.folded`` (atomic replace,
so a torn read is impossible and a killed worker leaves its last whole
aggregate).  The parent sums every worker file into its own samples
when profiling is disabled.  Unlike the trace protocol these files are
cumulative aggregates, not append logs — they are read once, at the
end, never drained incrementally.

Pure stdlib; sampling overhead is a few tens of microseconds per tick
against a ~9.9 ms period (the obs bench gates it at <=5% on the full
ops DOE).
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.results import atomic_write_text
from . import trace as _trace

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "active_profiler",
    "disable_profiling",
    "enable_profiling",
    "enable_worker_profiling",
    "merge_folded",
    "phase_totals",
    "read_folded",
    "top_frames",
    "top_stacks",
]

#: Default sampling rate.  Prime, per flamegraph lore: a 100 Hz sampler
#: phase-locks with anything periodic at 10 ms and silently aliases.
DEFAULT_HZ = 101.0

#: Maximum frames walked per sampled stack (runaway-recursion guard).
MAX_STACK_DEPTH = 128

_PHASE_PREFIX = "phase:"
_NO_PHASE = "(no-span)"


def _frame_label(frame: Any) -> str:
    """``module.function`` label for one frame (file stem, not path)."""
    code = frame.f_code
    stem = Path(code.co_filename).stem or "?"
    return f"{stem}.{code.co_name}"


class SamplingProfiler:
    """Background-thread sampler aggregating folded stacks in memory.

    ``worker_dir`` set → parent mode: :meth:`stop` additionally sums
    every ``profile-*.folded`` aggregate found there.  ``flush_every_s``
    > 0 → the sampling loop periodically rewrites ``path`` with the
    current aggregate (worker mode relies on this, since pool children
    get no orderly shutdown hook).
    """

    def __init__(
        self,
        path: Union[str, Path],
        hz: float = DEFAULT_HZ,
        worker_dir: Optional[Union[str, Path]] = None,
        flush_every_s: float = 0.5,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.path = Path(path)
        self.interval_s = 1.0 / float(hz)
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self.flush_every_s = float(flush_every_s)
        #: folded stack -> number of samples observed in *this* process.
        self.samples: Counter = Counter()
        #: sampling-loop iterations that captured at least one stack.
        self.sample_ticks = 0
        #: worker aggregate files merged by the final :meth:`stop`.
        self.merged_workers = 0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        _trace.set_stack_tracking(True)
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling, merge worker aggregates, write the final file."""
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=5.0)
            self._thread = None
            _trace.set_stack_tracking(False)
        self.merge_workers()
        self.flush()
        return self

    # -- sampling --------------------------------------------------------

    def _loop(self) -> None:
        next_flush = (
            time.monotonic() + self.flush_every_s if self.flush_every_s > 0 else None
        )
        while not self._stop_event.wait(self.interval_s):
            self._sample_once()
            if next_flush is not None and time.monotonic() >= next_flush:
                self.flush()
                next_flush = time.monotonic() + self.flush_every_s

    def _sample_once(self) -> int:
        own = threading.get_ident()
        span_stacks = _trace.active_span_stacks()
        frames = sys._current_frames()
        captured = 0
        for tid, frame in frames.items():
            if tid == own:
                continue
            parts: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                parts.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not parts:
                continue
            parts.reverse()
            open_spans = span_stacks.get(tid)
            phase = open_spans[-1] if open_spans else _NO_PHASE
            folded = ";".join([_PHASE_PREFIX + phase] + parts)
            with self._lock:
                self.samples[folded] += 1
            captured += 1
        if captured:
            self.sample_ticks += 1
        return captured

    # -- output ----------------------------------------------------------

    def folded(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.samples)

    def flush(self) -> None:
        """Atomically rewrite ``path`` with the current aggregate."""
        with self._lock:
            items = sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))
        text = "".join(f"{stack} {count}\n" for stack, count in items)
        try:
            atomic_write_text(self.path, text)
        except OSError:
            pass

    def merge_workers(self) -> int:
        """Sum every worker aggregate into this profiler's samples.

        Each worker file is a cumulative aggregate, so each is consumed
        exactly once; records merged are returned.
        """
        if self.worker_dir is None:
            return 0
        merged = 0
        try:
            paths = sorted(self.worker_dir.glob("profile-*.folded"))
        except OSError:
            return 0
        for worker_path in paths:
            worker_samples = read_folded(worker_path)
            if not worker_samples:
                continue
            with self._lock:
                self.samples.update(worker_samples)
            merged += sum(worker_samples.values())
            self.merged_workers += 1
            try:
                worker_path.unlink()
            except OSError:
                pass
        try:
            self.worker_dir.rmdir()
        except OSError:
            pass
        return merged


# ---------------------------------------------------------------------------
# Module-level switch (default off), mirroring trace.py
# ---------------------------------------------------------------------------

_active: Optional[SamplingProfiler] = None


def active_profiler() -> Optional[SamplingProfiler]:
    return _active


def enable_profiling(path: Union[str, Path], hz: float = DEFAULT_HZ) -> SamplingProfiler:
    """Start sampling this process to ``path`` (folded/collapsed format).

    A sibling ``<path>.workers/`` directory is prepared so campaign pool
    workers can contribute their own samples; stale worker aggregates
    from an earlier run are removed first.
    """
    global _active
    if _active is not None:
        disable_profiling()
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    worker_dir = target.parent / (target.name + ".workers")
    worker_dir.mkdir(parents=True, exist_ok=True)
    for stale in worker_dir.glob("profile-*.folded"):
        try:
            stale.unlink()
        except OSError:
            pass
    _active = SamplingProfiler(target, hz=hz, worker_dir=worker_dir)
    _active.start()
    return _active


def disable_profiling() -> Optional[SamplingProfiler]:
    """Stop sampling; merges worker aggregates and writes the final file."""
    global _active
    profiler = _active
    _active = None
    if profiler is not None:
        profiler.stop()
    return profiler


def enable_worker_profiling(
    worker_dir: Union[str, Path], hz: float = DEFAULT_HZ
) -> SamplingProfiler:
    """Start this pool worker's own sampler under the parent's worker dir.

    Called from the campaign pool initializer (the same hook worker
    tracing uses).  The worker keeps rewriting its aggregate every flush
    interval because forked children get no reliable atexit; the parent
    reads whatever whole aggregate survived.  atexit is still registered
    for the start methods that do run it.
    """
    global _active
    target = Path(worker_dir) / f"profile-{os.getpid()}.folded"
    profiler = SamplingProfiler(target, hz=hz, worker_dir=None)
    _active = profiler.start()
    atexit.register(profiler.stop)
    return profiler


def _clear_inherited_profiler() -> None:
    """Drop a profiler object inherited across ``fork`` without stopping it.

    The parent's sampling thread did not survive the fork; the child
    must simply forget the object (stopping it would rewrite the
    parent's output file from a stale copy).
    """
    global _active
    _active = None


# ---------------------------------------------------------------------------
# Folded-file helpers
# ---------------------------------------------------------------------------


def read_folded(path: Union[str, Path]) -> Dict[str, int]:
    """Parse a folded-stacks file; unparsable lines are skipped."""
    samples: Dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return samples
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        try:
            samples[stack] = samples.get(stack, 0) + int(count)
        except ValueError:
            continue
    return samples


def merge_folded(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Sum several folded aggregates (fixed frame labels make this exact)."""
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    return dict(total)


def phase_totals(samples: Dict[str, int]) -> Dict[str, int]:
    """Samples per ``phase:`` root, descending."""
    totals: Counter = Counter()
    for stack, count in samples.items():
        root = stack.split(";", 1)[0]
        phase = root[len(_PHASE_PREFIX):] if root.startswith(_PHASE_PREFIX) else _NO_PHASE
        totals[phase] += count
    return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


def top_frames(samples: Dict[str, int], n: int = 15) -> List[Tuple[str, int]]:
    """The hottest *leaf* frames (where samples actually landed)."""
    leaves: Counter = Counter()
    for stack, count in samples.items():
        frames = stack.split(";")
        leaf = frames[-1]
        if leaf.startswith(_PHASE_PREFIX):
            continue
        leaves[leaf] += count
    return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def top_stacks(samples: Dict[str, int], n: int = 10) -> List[Tuple[str, int]]:
    """The hottest whole folded stacks, descending."""
    return sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
