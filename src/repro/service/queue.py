"""Async job manager over the declarative experiment API.

:class:`ExperimentQueue` gives the service layer submit / status /
result / cancel semantics on top of :func:`repro.api.run`:

* jobs run on a bounded thread pool; each job executes through the exact
  same code path as a direct ``run(spec)`` call — the spec's executor
  backend still resolves to the campaign's chunked, crc32-seeded process
  pool — so queued results keep the library's parity guarantees
  (``rtol <= 1e-12`` against the pre-spec engines);
* identical in-flight experiments coalesce: a second submission whose
  spec has the same content fingerprint attaches to the computation
  already running instead of starting a new one (each submission keeps
  its own job id and status);
* an optional :class:`~repro.service.cache.ResultCache` short-circuits
  submissions whose fingerprint is already stored — the job is born
  ``done`` and marked ``cached`` — and absorbs fresh results for the
  next submission;
* an optional :class:`~repro.service.journal.JobJournal` makes the queue
  durable: every submission is journaled (fsynced) before dispatch and
  marked terminal when it settles, and :meth:`ExperimentQueue.recover`
  resubmits whatever a dead process left unfinished — completed work
  re-serves from the cache, so a ``kill -9`` costs at most the jobs that
  were mid-solve, re-executed;
* an optional per-job deadline (``job_timeout_s``) fails runaway jobs so
  one pathological spec cannot pin a worker forever, and
  :meth:`ExperimentQueue.drain` waits for in-flight work during a
  graceful shutdown.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import thread as _futures_thread
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import api
from ..api import ResultSet
from ..core.spec import ExperimentSpec, SpecError
from ..obs.trace import span
from .cache import ResultCache
from .journal import JobJournal

__all__ = ["ExperimentQueue", "Job", "JobError", "JobState"]


class JobError(KeyError):
    """Raised for unknown job ids and results requested too early."""


class JobState:
    """Lifecycle states of a job (plain strings, JSON-ready)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submission: identity, lifecycle and (eventually) its result."""

    id: str
    fingerprint: str
    kind: str
    state: str = JobState.QUEUED
    cached: bool = False
    coalesced: bool = False
    submitted_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[ResultSet] = None
    #: WAL token of this submission (``None`` when the queue is not durable).
    journal_token: Optional[str] = None

    def to_status(self) -> Dict[str, Any]:
        """JSON-ready status view (no records — fetch the result for those)."""
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "n_records": None if self.result is None else len(self.result),
        }


class ExperimentQueue:
    """Submit / status / result / cancel over a worker pool.

    ``workers`` bounds how many experiments compute concurrently in this
    process; within each experiment the spec's own execution backend
    still applies (a ``process``-backend spec fans out further through
    the campaign pool).
    """

    def __init__(
        self,
        workers: int = 2,
        cache: Optional[ResultCache] = None,
        runner: Callable[..., ResultSet] = api.run,
        journal: Optional[JobJournal] = None,
        job_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if job_timeout_s is not None and job_timeout_s <= 0.0:
            raise ValueError("job_timeout_s must be positive when set")
        self.cache = cache
        self.journal = journal
        self.job_timeout_s = job_timeout_s
        self._runner = runner
        self._executor = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="repro-job"
        )
        # Re-entrant: Future.cancel() and add_done_callback() on a
        # completed future invoke the settle callback synchronously in
        # the calling thread, which may already hold this lock.
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._futures: Dict[str, Future] = {}          # job id -> shared future
        self._inflight: Dict[str, Future] = {}          # fingerprint -> future
        self._inflight_jobs: Dict[str, List[str]] = {}  # fingerprint -> job ids
        self._ids = itertools.count(1)
        self._timers: Dict[str, threading.Timer] = {}  # fingerprint -> deadline
        self._counters = {
            "submitted": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "recovered": 0,
            "timeouts": 0,
        }

    # -- submission ---------------------------------------------------------------------

    def submit(self, spec: ExperimentSpec) -> Job:
        """Enqueue one experiment; returns its (snapshot) :class:`Job`.

        Resolution order: cache hit → born ``done``; identical in-flight
        fingerprint → attach to the running computation; otherwise a new
        computation starts on the pool.
        """
        spec = api.load_spec(spec)
        fingerprint = spec.fingerprint()
        with span("service.submit", kind=spec.kind, fingerprint=fingerprint):
            return self._submit(spec, fingerprint)

    def _submit(self, spec: ExperimentSpec, fingerprint: str) -> Job:
        # The cache read (disk I/O + ResultSet deserialisation) happens
        # outside the queue lock so concurrent submissions and status
        # polls never serialise behind it.  The benign race — another
        # submitter completing between this miss and the lock — resolves
        # to coalescing or a same-content recompute, never wrong data.
        hit = None if self.cache is None else self.cache.get(spec)
        with self._lock:
            job = Job(
                id=f"job-{next(self._ids):06d}",
                fingerprint=fingerprint,
                kind=spec.kind,
            )
            self._jobs[job.id] = job
            self._counters["submitted"] += 1
            # WAL semantics: the submission is durable *before* anything
            # observable happens, so a crash at any later point leaves a
            # journaled obligation that recovery will honour.
            if self.journal is not None:
                job.journal_token = self.journal.record_submitted(fingerprint, spec)

            if hit is not None:
                job.state = JobState.DONE
                job.cached = True
                job.result = hit
                job.finished_at = time.time()
                self._counters["cache_hits"] += 1
                self._counters["completed"] += 1
                self._journal_terminal(job)
                return self._snapshot(job)

            future = self._inflight.get(fingerprint)
            if future is not None:
                job.coalesced = True
                self._counters["coalesced"] += 1
                peers = self._inflight_jobs.get(fingerprint, [])
                if any(
                    self._jobs[peer].state == JobState.RUNNING for peer in peers
                ):
                    job.state = JobState.RUNNING
            else:
                future = self._executor.submit(self._compute, spec, fingerprint)
                self._inflight[fingerprint] = future
                self._inflight_jobs[fingerprint] = []
                if self.job_timeout_s is not None:
                    timer = threading.Timer(
                        self.job_timeout_s, self._expire, args=(fingerprint,)
                    )
                    timer.daemon = True
                    self._timers[fingerprint] = timer
                    timer.start()
            self._inflight_jobs[fingerprint].append(job.id)
            self._futures[job.id] = future
            future.add_done_callback(self._make_settler(job.id))
            return self._snapshot(job)

    def _compute(self, spec: ExperimentSpec, fingerprint: str) -> ResultSet:
        with self._lock:
            for job_id in list(self._inflight_jobs.get(fingerprint, [])):
                job = self._jobs.get(job_id)
                if job is not None and job.state == JobState.QUEUED:
                    job.state = JobState.RUNNING
        with span("service.compute", kind=spec.kind, fingerprint=fingerprint):
            result = self._runner(spec)
        # Partial results (failure rows under skip/retry policies) are not
        # cached: the fingerprint is failure-policy-neutral, so a cached
        # partial would be served to callers entitled to a complete one.
        if self.cache is not None and not getattr(result, "failures", None):
            try:
                self.cache.put(spec, result)
            except OSError:
                # A broken cache (disk full, directory removed) must not
                # discard a fully computed result — only the entry is lost.
                pass
        return result

    def _make_settler(self, job_id: str) -> Callable[[Future], None]:
        def settle(future: Future) -> None:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state in JobState.TERMINAL:
                    return
                job.finished_at = time.time()
                if future.cancelled():
                    job.state = JobState.CANCELLED
                    self._counters["cancelled"] += 1
                else:
                    error = future.exception()
                    if error is not None:
                        job.state = JobState.FAILED
                        job.error = f"{type(error).__name__}: {error}"
                        self._counters["failed"] += 1
                    else:
                        job.state = JobState.DONE
                        job.result = future.result()
                        self._counters["completed"] += 1
                self._journal_terminal(job)
                self._release_inflight(job.fingerprint, job_id)

        return settle

    def _journal_terminal(self, job: Job) -> None:
        if self.journal is None or job.journal_token is None:
            return
        try:
            self.journal.record_terminal(job.journal_token, job.state, error=job.error)
        except OSError:
            # A failed terminal append only means the job replays (as a
            # cache hit) on the next restart; never fail the job over it.
            pass

    def _release_inflight(self, fingerprint: str, job_id: str) -> None:
        jobs = self._inflight_jobs.get(fingerprint)
        if jobs is None:
            return
        if job_id in jobs:
            jobs.remove(job_id)
        if not jobs:
            self._inflight.pop(fingerprint, None)
            self._inflight_jobs.pop(fingerprint, None)
            timer = self._timers.pop(fingerprint, None)
            if timer is not None:
                timer.cancel()

    def _expire(self, fingerprint: str) -> None:
        """Deadline callback: fail every submission of a runaway computation.

        The worker thread itself cannot be killed (CPython offers no safe
        way); the computation keeps running but its jobs turn ``failed``,
        its journal obligations settle, and its eventual result is
        discarded by the settle callback's terminal-state guard.
        """
        with self._lock:
            future = self._inflight.get(fingerprint)
            if future is None:
                return
            for job_id in list(self._inflight_jobs.get(fingerprint, [])):
                job = self._jobs.get(job_id)
                if job is None or job.state in JobState.TERMINAL:
                    continue
                job.state = JobState.FAILED
                job.error = f"deadline exceeded after {self.job_timeout_s:g} s"
                job.finished_at = time.time()
                self._counters["failed"] += 1
                self._counters["timeouts"] += 1
                self._journal_terminal(job)
                self._futures.pop(job_id, None)
            self._inflight.pop(fingerprint, None)
            self._inflight_jobs.pop(fingerprint, None)
            self._timers.pop(fingerprint, None)
            future.cancel()

    # -- queries ------------------------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobError(f"unknown job id {job_id!r}") from None

    def _snapshot(self, job: Job) -> Job:
        return Job(**{name: getattr(job, name) for name in job.__dataclass_fields__})

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-ready status of one job (raises :class:`JobError` if unknown)."""
        with self._lock:
            return self._job(job_id).to_status()

    def result(self, job_id: str, timeout: Optional[float] = None) -> ResultSet:
        """The job's ResultSet, waiting up to ``timeout`` for completion.

        ``timeout=0`` polls; a job that failed re-raises its error as
        :class:`JobError`.
        """
        with self._lock:
            job = self._job(job_id)
            if job.state == JobState.DONE and job.result is not None:
                return job.result
            if job.state == JobState.FAILED:
                raise JobError(f"job {job_id} failed: {job.error}")
            if job.state == JobState.CANCELLED:
                raise JobError(f"job {job_id} was cancelled")
            future = self._futures.get(job_id)
        if future is None:
            raise JobError(f"job {job_id} has no pending computation")
        try:
            result = future.result(timeout=timeout)
        except CancelledError:
            raise JobError(f"job {job_id} was cancelled") from None
        except FutureTimeoutError:
            # Not the builtin TimeoutError before Python 3.11; re-raise so
            # "still computing" never masquerades as "computation failed".
            raise
        except Exception as exc:
            raise JobError(f"job {job_id} failed: {type(exc).__name__}: {exc}") from exc
        finally:
            if future.done():
                # A finished future wakes result() waiters before it runs
                # its done-callbacks; settle here (idempotent) so the job
                # is terminal and journaled by the time result() returns.
                self._make_settler(job_id)(future)
        return result

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns whether the submission is cancelled.

        A job that shares its computation with other live submissions
        detaches without touching the shared future; the last attached
        submission also attempts to cancel the computation itself (which
        only succeeds while it is still queued on the pool).
        """
        with self._lock:
            job = self._job(job_id)
            if job.state in JobState.TERMINAL:
                return job.state == JobState.CANCELLED
            future = self._futures.get(job_id)
            peers = [
                peer
                for peer in self._inflight_jobs.get(job.fingerprint, [])
                if peer != job_id
            ]
            if peers:
                # Other live submissions share this computation: detach
                # this one without touching the shared future (possible
                # even while the computation runs).
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                self._counters["cancelled"] += 1
                self._journal_terminal(job)
                self._release_inflight(job.fingerprint, job_id)
                self._futures.pop(job_id, None)
                return True
            if job.state == JobState.RUNNING:
                return False
            if future is not None and future.cancel():
                # cancel() ran the settle callback synchronously (the
                # lock is re-entrant), which did the state bookkeeping.
                self._futures.pop(job_id, None)
                return True
            return False

    def jobs(self) -> List[Dict[str, Any]]:
        """Status views of every known job, newest first."""
        with self._lock:
            return [
                job.to_status()
                for job in sorted(
                    self._jobs.values(), key=lambda j: j.id, reverse=True
                )
            ]

    def stats(self) -> Dict[str, Any]:
        """Lifetime counters plus the in-flight gauge (``/v1/healthz``)."""
        with self._lock:
            payload: Dict[str, Any] = dict(self._counters)
            payload["in_flight"] = len(self._inflight)
            payload["jobs"] = len(self._jobs)
        if self.journal is not None:
            payload["journal"] = self.journal.stats_dict()
        return payload

    # -- durability ---------------------------------------------------------------------

    def recover(self) -> int:
        """Resubmit every journaled-but-unfinished job; returns how many.

        Called once at startup, before the HTTP listener opens.  Each
        outstanding WAL entry is resubmitted under a *fresh* token and
        only then marked ``recovered`` — a crash between the two steps
        merely replays the entry once more next restart, where the
        result cache (or in-flight coalescing) dedupes it.  Entries
        whose journaled spec no longer validates are marked
        ``unreplayable`` rather than wedging recovery forever.  Finishes
        with :meth:`JobJournal.compact` so the WAL stays bounded.
        """
        if self.journal is None:
            return 0
        recovered = 0
        for entry in self.journal.replay():
            try:
                spec = ExperimentSpec.from_dict(entry.spec)
            except SpecError as exc:
                self.journal.record_terminal(
                    entry.token, "unreplayable", error=str(exc)
                )
                continue
            self.submit(spec)
            self.journal.record_terminal(entry.token, "recovered")
            recovered += 1
        with self._lock:
            self._counters["recovered"] += recovered
        self.journal.compact()
        return recovered

    def drain(self, timeout_s: float, poll_s: float = 0.05) -> bool:
        """Wait up to ``timeout_s`` for in-flight work; True when idle.

        Polls rather than joining the pool so a graceful shutdown can
        give up after its budget: undrained jobs stay journaled, and the
        next start's :meth:`recover` re-executes them.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        while True:
            with self._lock:
                if not self._inflight:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)

    # -- lifecycle ----------------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; ``wait=False`` abandons in-flight jobs.

        A no-wait shutdown detaches the workers from
        ``concurrent.futures``' atexit join so that hook cannot hold the
        process hostage until a running experiment finishes.  The worker
        threads themselves are non-daemon, so a caller that must exit
        with work still in flight (``repro serve`` on Ctrl-C) has to
        hard-exit after calling this.
        """
        with self._lock:
            timers = list(self._timers.values())
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        if not wait:
            for worker in list(getattr(self._executor, "_threads", ())):
                _futures_thread._threads_queues.pop(worker, None)

    def __enter__(self) -> "ExperimentQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
