"""Typed failure records and solver-error classification.

One ``ConvergenceError`` in one work item used to abort a whole campaign.
This module is the vocabulary of the fault-tolerance layer that fixes
that: a solver error is *classified* into a stable category string,
wrapped in a typed, JSON-ready :class:`ItemFailure` record, and — under
the ``skip`` and ``retry`` failure policies — becomes an error row in a
partial result set instead of an exception.

Classification is message/type based on purpose: the solver tier raises
one exception family (:class:`~repro.circuit.dc.ConvergenceError`) for
many distinct causes, and the cause determines whether a retry is worth
anything (a step-budget exhaustion often converges with an escalated
budget; a structurally singular system never will).

=================  ======================================================
category           meaning
=================  ======================================================
step_budget        transient exceeded its accepted-step budget
step_underflow     transient step size collapsed below ``dt_min_s``
singular_jacobian  an exactly singular Jacobian / MNA system
dc_convergence     the DC rescue ladder (gmin, source stepping,
                   pseudo-transient) was exhausted
convergence        any other solver non-convergence
timeout            the per-item deadline expired (:func:`item_deadline`)
worker_crash       the item's pool worker died (possibly poison input)
injected           a fault-injection harness fault (testing only)
unexpected         anything else the execution wrapper caught
=================  ======================================================
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, Mapping, Optional

from ..circuit.dc import ConvergenceError
from ..circuit.mna import MNAError

__all__ = [
    "FAILURE_POLICIES",
    "ItemFailure",
    "ItemTimeoutError",
    "classify_error",
    "deadline_applies",
    "item_deadline",
]

#: Per-item failure policies of the campaign engine (and ``api.run``):
#: ``fail_fast`` re-raises the first failure (the pre-fault-tolerance
#: behaviour), ``skip`` records it and moves on, ``retry`` re-attempts
#: with capped exponential backoff and an escalated rescue ladder before
#: recording it.
FAILURE_POLICIES = ("fail_fast", "skip", "retry")


class ItemTimeoutError(Exception):
    """Raised inside :func:`item_deadline` when a work item overruns.

    Not a ``RuntimeError``: the solvers read ``RuntimeError`` from a
    linear solve as a singular step and carry on, which would swallow a
    deadline that fires inside the solve.
    """


@dataclass(frozen=True)
class ItemFailure:
    """One failed work item, classified and JSON-ready.

    ``stage`` says where the failure surfaced (``solver`` for an
    exception inside the item's own computation, ``worker`` for a pool
    process that died while holding the item).  ``attempts`` counts every
    try, including the first.
    """

    key: str
    classification: str
    error_type: str
    message: str
    attempts: int = 1
    stage: str = "solver"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ItemFailure":
        names = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown ItemFailure fields: {sorted(unknown)}")
        return cls(**dict(payload))  # type: ignore[arg-type]

    def to_record(self) -> Dict[str, object]:
        """The error row of this failure in a ``ResultSet`` (flat, with a
        ``record`` discriminator like every other record family)."""
        return {"record": "failure", **self.to_dict()}

    @classmethod
    def from_exception(
        cls,
        key: str,
        error: BaseException,
        attempts: int = 1,
        stage: str = "solver",
    ) -> "ItemFailure":
        return cls(
            key=key,
            classification=classify_error(error),
            error_type=type(error).__name__,
            message=str(error)[:500],
            attempts=attempts,
            stage=stage,
        )


def classify_error(error: BaseException) -> str:
    """Stable category string of a solver/execution error (see module doc)."""
    marker = getattr(error, "failure_classification", None)
    if isinstance(marker, str) and marker:
        return marker
    if isinstance(error, ItemTimeoutError):
        return "timeout"
    message = str(error)
    lowered = message.lower()
    if "singular" in lowered or isinstance(error, MNAError):
        return "singular_jacobian"
    if "accepted steps" in message:
        return "step_budget"
    if "minimum step size" in message:
        return "step_underflow"
    if isinstance(error, ConvergenceError):
        if "DC operating point" in message:
            return "dc_convergence"
        return "convergence"
    return "unexpected"


def deadline_applies(timeout_s: Optional[float]) -> bool:
    """Whether :func:`item_deadline` arms an alarm for ``timeout_s`` here."""
    return (
        bool(timeout_s)
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def item_deadline(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`ItemTimeoutError` if the body overruns ``timeout_s``.

    Implemented with ``SIGALRM``/``setitimer``, which can interrupt a
    NumPy/SciPy solve mid-flight — a cooperative check cannot, and a
    runaway Newton loop never reaches cooperative checkpoints.  The alarm
    only works on the main thread of a process (campaign pool workers and
    the serial CLI path); elsewhere — e.g. the experiment queue's worker
    threads, which enforce deadlines at the job tier instead — the guard
    degrades to a no-op rather than failing.
    """
    if not deadline_applies(timeout_s):
        yield
        return

    def _expire(signum, frame):  # pragma: no cover - exercised via alarm
        raise ItemTimeoutError(
            f"work item exceeded its {timeout_s:g} s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
