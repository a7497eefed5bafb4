"""Batched, multiprocess campaign engine for the simulation pipeline.

The paper's simulated half (Fig. 4 worst-case penalties, Tables II–III
formula validation and the operation suite's worst-case rows) is computed
here and nowhere else.  :class:`SimulationCampaign` turns the DOE into an
explicit work list — one :class:`CampaignItem` per (scenario × array size
× worst-case corner), plus one nominal item per distinct simulation
configuration — and executes it in-process or through a process pool:

* the per-option worst corners are searched once per overlay budget in the
  driver and embedded in the items, so workers only print, extract and
  simulate;
* items are grouped into chunks by ``(array size, simulation key)`` so a
  worker's layout / extraction / Jacobian-structure caches amortise across
  the chunk, and chunks are scheduled longest-first;
* every item carries a deterministic seed derived with the same crc32
  scheme as the Monte-Carlo engine, so any future stochastic scenario axis
  stays reproducible across process boundaries;
* records can be persisted to a disk store (one JSON file per item) and a
  rerun skips everything already recorded — a long campaign resumes where
  it stopped.

Every item runs through one loop, :meth:`CampaignWorkerState.run_chunks`:
prepare every chunk (layout → extraction → lane specs), solve attempt 0
of all prepared items, then yield each chunk's outcomes for commit.  The
serial path calls it with all chunks; each pool worker calls it with its
own chunk.  Attempt 0 is one joint solve of every prepared item's
lanes, unless the campaign has a per-item deadline: then each item is
solved on its own under it.  Every retry is a fresh preparation plus a
one-lane solve.

Scenario diversity is a first-class axis: overlay-budget sweeps, stored
value 0/1, VSS strap-interval variants and backward-Euler versus
trapezoidal integration all cross with the DOE grid.  The default single
scenario is the paper's: ``WorstCaseStudy.figure4``/``operation_rows`` and
``FormulaValidation.table2``/``table3`` are one-scenario campaigns
(``WorstCaseStudy.campaign``), the golden corpus (``tests/golden/``)
freezes the records bit for bit, and ``tests/test_campaign.py`` checks
that a process pool yields the same rows as a serial run.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..circuit.batch import PreparedWork, solve_prepared
from ..circuit.dc import ConvergenceError, solver_rescue
from ..circuit.mna import MNAError, solver_stats
from ..obs import metrics as obs_metrics
from ..obs.profile import (
    _clear_inherited_profiler,
    active_profiler,
    enable_worker_profiling,
)
from ..obs.trace import (
    _clear_inherited_tracer,
    active_tracer,
    enable_worker_tracing,
    span,
)
from ..technology.node import TechnologyNode
from ..testing import faults
from ..variability.doe import StudyDOE, paper_doe
from .analytical import AnalyticalDelayModel
from .failures import (
    FAILURE_POLICIES,
    ItemFailure,
    ItemTimeoutError,
    deadline_applies,
    item_deadline,
)
from .operations import (
    OPERATION_NAMES,
    OperationError,
    OperationMeasurement,
    OperationSimulators,
    create_operation,
)
from .results import (
    FormulaVsSimulationTdRow,
    FormulaVsSimulationTdpRow,
    OperationImpactRow,
    WorstCaseTdRow,
)
from .worst_case import WorstCaseStudy

#: Transient methods a scenario may select.
CAMPAIGN_METHODS = ("backward-euler", "trapezoidal")

#: Short method tags used in item keys and file names.
_METHOD_TAGS = {"backward-euler": "be", "trapezoidal": "trap"}


class CampaignError(RuntimeError):
    """Raised when a campaign cannot be configured, run or resumed."""


class CampaignExecutionError(CampaignError):
    """A work item failed under ``failure_policy="fail_fast"``.

    Carries the typed :class:`~repro.core.failures.ItemFailure` so callers
    (and the CLI's error path) can report what failed and why without
    parsing the message.
    """

    def __init__(self, failure: ItemFailure) -> None:
        super().__init__(
            f"campaign item {failure.key!r} failed "
            f"({failure.classification} after {failure.attempts} "
            f"attempt{'s' if failure.attempts != 1 else ''}): {failure.message}"
        )
        self.failure = failure

    def __reduce__(self):
        # Default exception pickling would re-call __init__ with the
        # formatted message; reconstruct from the failure instead so the
        # typed record survives the pool's process boundary.
        return (CampaignExecutionError, (self.failure,))


#: Exceptions the execution wrapper treats as *item* failures (isolated,
#: classified, retried) rather than campaign bugs (propagated).
_ITEM_ERRORS = (
    ConvergenceError,
    MNAError,
    OperationError,
    ItemTimeoutError,
    FloatingPointError,
    ZeroDivisionError,
)


@dataclass(frozen=True)
class CampaignScenario:
    """One simulation scenario: everything varied besides the DOE grid.

    Parameters
    ----------
    label:
        Unique name of the scenario (also used in item keys and store file
        names, so it is restricted to ``[A-Za-z0-9._-]``).
    overlay_three_sigma_nm:
        LE overlay budget override; ``None`` keeps the node's budget.  Only
        affects the worst-corner search (litho-etch options).
    stored_value:
        Logic value stored on the accessed cell's Q node (0 discharges BL,
        the paper's case; 1 discharges BLB).
    vss_strap_interval_cells:
        VSS strap pitch of the array (see :class:`ReadPathSimulator`).
    method:
        Transient integration method, ``"backward-euler"`` or
        ``"trapezoidal"``.
    """

    label: str = "paper"
    overlay_three_sigma_nm: Optional[float] = None
    stored_value: int = 0
    vss_strap_interval_cells: int = 256
    method: str = "backward-euler"
    #: The SRAM operation this scenario measures (the operation axis):
    #: ``read`` (the paper's td), ``write``, ``hold_snm`` or ``read_snm``.
    operation: str = "read"

    def __post_init__(self) -> None:
        if self.operation not in OPERATION_NAMES:
            raise CampaignError(
                f"operation must be one of {OPERATION_NAMES}, got {self.operation!r}"
            )
        if not self.label or not all(
            ch.isalnum() or ch in "._-" for ch in self.label
        ):
            raise CampaignError(
                f"scenario label {self.label!r} must be non-empty and use only "
                "letters, digits, '.', '_' or '-'"
            )
        if self.overlay_three_sigma_nm is not None and self.overlay_three_sigma_nm <= 0.0:
            raise CampaignError("the overlay budget must be positive")
        if self.stored_value not in (0, 1):
            raise CampaignError("stored_value must be 0 or 1")
        if self.vss_strap_interval_cells < 1:
            raise CampaignError("the VSS strap interval must be at least one cell")
        if self.method not in CAMPAIGN_METHODS:
            raise CampaignError(f"method must be one of {CAMPAIGN_METHODS}")

    @property
    def sim_key(self) -> str:
        """Key of the simulation configuration (everything the *nominal*
        measurement depends on — the overlay budget only moves corners).
        Read scenarios keep the pre-operation-axis key format, so stores
        and record keys from read-only campaigns stay stable."""
        base = (
            f"sv{self.stored_value}"
            f"-strap{self.vss_strap_interval_cells}"
            f"-{_METHOD_TAGS[self.method]}"
        )
        if self.operation == "read":
            return base
        return f"{self.operation}-{base}"

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CampaignItem:
    """One unit of campaign work: a single read simulation."""

    kind: str                                   # "nominal" or "corner"
    n_wordlines: int
    scenario: CampaignScenario
    seed: int
    option_name: Optional[str] = None
    #: Worst-corner parameter assignment, sorted name→value pairs.
    corner_parameters: Tuple[Tuple[str, float], ...] = ()
    #: Bit-line / VSS RC ratios of the corner (feed the formula rows).
    corner_rvar: float = 1.0
    corner_cvar: float = 1.0
    corner_vss_rvar: float = 1.0

    @property
    def key(self) -> str:
        if self.kind == "nominal":
            return f"n{self.n_wordlines}-nominal-{self.scenario.sim_key}"
        return f"n{self.n_wordlines}-{self.option_name}-{self.scenario.label}"

    @property
    def chunk_key(self) -> Tuple[int, str]:
        """Items sharing a chunk share layouts, extractions and templates."""
        return (self.n_wordlines, self.scenario.sim_key)


@dataclass(frozen=True)
class CampaignRecord:
    """Everything one completed item produced, JSON-serialisable."""

    key: str
    kind: str
    n_wordlines: int
    option_name: Optional[str]
    scenario_label: str
    sim_key: str
    overlay_three_sigma_nm: Optional[float]
    stored_value: int
    vss_strap_interval_cells: int
    method: str
    seed: int
    td_s: float
    wordline_time_s: float
    sense_time_s: float
    stop_reason: str
    bitline_resistance_ohm: float
    bitline_capacitance_f: float
    vss_rail_resistance_ohm: float
    corner_parameters: Dict[str, float] = field(default_factory=dict)
    corner_rvar: float = 1.0
    corner_cvar: float = 1.0
    corner_vss_rvar: float = 1.0
    wall_s: float = 0.0
    #: Operation-axis fields: the operation name, its primary scalar and
    #: that scalar's unit ("s" for delays, "V" for margins).  For read
    #: records ``value`` equals ``td_s``.
    operation: str = "read"
    value: float = 0.0
    unit: str = "s"
    #: Execution provenance (``compare=False``: whether a record came from
    #: the joint solve (``batched``) or a one-lane attempt (``scalar``) —
    #: and how wide its batch was — is bookkeeping like ``wall_s``, never
    #: part of record identity; the parity suite compares the two paths'
    #: records for full equality).  The joint solve's
    #: solver counters are kept once per run, in
    #: :attr:`SimulationCampaign.last_run_stats`.
    solver: str = field(default="scalar", compare=False)
    batch_size: int = field(default=0, compare=False)

    @property
    def td_ps(self) -> float:
        return self.td_s * 1e12

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignRecord":
        names = {f.name for f in cls.__dataclass_fields__.values()}
        data = dict(payload)
        # Records once carried a copy of their joint solve's counters;
        # stores written then still resume.
        data.pop("batch_stats", None)
        unknown = set(data) - names
        if unknown:
            raise CampaignError(f"unknown campaign record fields: {sorted(unknown)}")
        # Stores written before the operation axis carry no value/unit/
        # operation: they are read records whose primary value is td_s, so
        # backfill rather than defaulting value to 0 (which would poison
        # the penalty computation on resume).
        if "value" not in data:
            data.setdefault("operation", "read")
            data.setdefault("unit", "s")
            data["value"] = data.get("td_s", 0.0)
        return cls(**data)  # type: ignore[arg-type]


def _record_from_measurement(
    item: CampaignItem,
    measurement: OperationMeasurement,
    wall_s: float,
    solver: str = "scalar",
    batch_size: int = 0,
) -> CampaignRecord:
    scenario = item.scenario
    return CampaignRecord(
        key=item.key,
        kind=item.kind,
        n_wordlines=item.n_wordlines,
        option_name=item.option_name,
        scenario_label=scenario.label,
        sim_key=scenario.sim_key,
        overlay_three_sigma_nm=scenario.overlay_three_sigma_nm,
        stored_value=scenario.stored_value,
        vss_strap_interval_cells=scenario.vss_strap_interval_cells,
        method=scenario.method,
        seed=item.seed,
        td_s=measurement.td_s,
        wordline_time_s=measurement.wordline_time_s,
        sense_time_s=measurement.sense_time_s,
        stop_reason=measurement.stop_reason,
        bitline_resistance_ohm=measurement.bitline_resistance_ohm,
        bitline_capacitance_f=measurement.bitline_capacitance_f,
        vss_rail_resistance_ohm=measurement.vss_rail_resistance_ohm,
        corner_parameters=dict(item.corner_parameters),
        corner_rvar=item.corner_rvar,
        corner_cvar=item.corner_cvar,
        corner_vss_rvar=item.corner_vss_rvar,
        wall_s=wall_s,
        operation=measurement.operation,
        value=measurement.value,
        unit=measurement.unit,
        solver=solver,
        batch_size=batch_size,
    )


class CampaignResults:
    """The records a campaign run produced, in work-list order.

    Under the ``skip``/``retry`` failure policies the results may be
    *partial*: ``failures`` lists the typed :class:`ItemFailure` record of
    every item that produced no :class:`CampaignRecord`.  Strict lookups
    (:meth:`record`, :meth:`nominal`) still raise on a missing key;
    :meth:`get` is the tolerant twin the partial-aware views use.
    """

    def __init__(
        self,
        records: Sequence[CampaignRecord],
        failures: Sequence[ItemFailure] = (),
    ) -> None:
        self.records: List[CampaignRecord] = list(records)
        self.failures: List[ItemFailure] = list(failures)
        self._by_key: Dict[str, CampaignRecord] = {
            record.key: record for record in self.records
        }

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def record(self, key: str) -> CampaignRecord:
        try:
            return self._by_key[key]
        except KeyError:
            raise CampaignError(f"no campaign record with key {key!r}") from None

    def get(self, key: str) -> Optional[CampaignRecord]:
        """The record with this key, or ``None`` when the item failed."""
        return self._by_key.get(key)

    def nominal(self, sim_key: str, n_wordlines: int) -> CampaignRecord:
        return self.record(f"n{n_wordlines}-nominal-{sim_key}")

    def corner(
        self, scenario_label: str, option_name: str, n_wordlines: int
    ) -> CampaignRecord:
        return self.record(f"n{n_wordlines}-{option_name}-{scenario_label}")

    def penalty_percent_for(self, record: CampaignRecord) -> Optional[float]:
        """Relative impact (%) of a corner record versus its scenario's
        nominal; ``None`` for nominal records.

        For delay operations this is the paper's tdp; for margin
        operations a negative number means the margin shrank.
        """
        if record.kind != "corner":
            return None
        nominal = self.nominal(record.sim_key, record.n_wordlines)
        if nominal.value == 0.0:
            raise CampaignError("nominal value must be nonzero")
        return (record.value / nominal.value - 1.0) * 100.0

    def penalty_percent(
        self, scenario: CampaignScenario, option_name: str, n_wordlines: int
    ) -> float:
        """Simulated tdp (%) of one option/size/scenario versus its nominal."""
        return self.penalty_percent_for(
            self.corner(scenario.label, option_name, n_wordlines)
        )


class CampaignStore:
    """Disk-backed result store: one JSON file per completed item.

    Layout::

        <directory>/campaign.json     # campaign signature + metadata
        <directory>/items/<key>.json  # one CampaignRecord each

    A rerun against the same directory loads every stored record and skips
    the corresponding items; a signature mismatch (different DOE, scenario
    set or seed) raises instead of silently mixing incompatible runs.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.items_dir = self.directory / "items"

    @property
    def metadata_path(self) -> Path:
        return self.directory / "campaign.json"

    @staticmethod
    def _normalized_signature(signature: Mapping[str, object]) -> Dict[str, object]:
        """A signature with pre-operation-axis scenario dicts upgraded.

        Stores written before the operation axis describe the same (read)
        campaign as one whose scenarios all say ``operation: "read"``, so
        the comparison treats the two as equal instead of rejecting old
        stores.  Likewise, stores written before the declarative spec
        layer carry no ``schema_version``; they are definitionally
        version-1 stores, so the comparison backfills ``1`` rather than
        rejecting them — while a store stamped with a *different* version
        still mismatches and is refused.
        """
        payload = dict(signature)
        payload.setdefault("schema_version", 1)
        scenarios = payload.get("scenarios")
        if isinstance(scenarios, list):
            payload["scenarios"] = [
                {"operation": "read", **scenario} if isinstance(scenario, dict) else scenario
                for scenario in scenarios
            ]
        return payload

    def prepare(self, signature: Mapping[str, object]) -> None:
        """Create the store (or validate an existing one) for a signature."""
        self.items_dir.mkdir(parents=True, exist_ok=True)
        if self.metadata_path.exists():
            existing = json.loads(self.metadata_path.read_text(encoding="utf-8"))
            if self._normalized_signature(
                existing.get("signature", {})
            ) != self._normalized_signature(signature):
                raise CampaignError(
                    f"store {self.directory} belongs to a different campaign; "
                    "use a fresh --store directory or matching settings"
                )
            return
        payload = {
            "format": "repro-campaign-store-v1",
            "created_unix": int(time.time()),
            "signature": dict(signature),
        }
        self._atomic_write(self.metadata_path, payload)

    def load_records(self) -> Dict[str, CampaignRecord]:
        records: Dict[str, CampaignRecord] = {}
        if not self.items_dir.is_dir():
            return records
        for path in sorted(self.items_dir.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = CampaignRecord.from_dict(payload)
            records[record.key] = record
        return records

    def save_record(self, record: CampaignRecord) -> None:
        self._atomic_write(self.items_dir / f"{record.key}.json", record.to_dict())

    @staticmethod
    def _atomic_write(path: Path, payload: Mapping[str, object]) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        tmp.replace(path)


#: One item's attempt-0 preparation: the item, its lane set (or the item
#: error preparation raised) and the preparation wall.
_Prepared = Tuple[CampaignItem, Union[PreparedWork, BaseException], float]
_Outcome = Union[CampaignRecord, ItemFailure]


class CampaignWorkerState:
    """Per-process simulation state: one simulator bundle per configuration.

    All bundles share the geometry caches (layouts, nominal and printed
    extractions, Jacobian structures) of the first one created, so a chunk
    of items touching the same array size extracts each layout once no
    matter how many scenario variants — or operations — visit it.
    """

    def __init__(
        self,
        node: TechnologyNode,
        n_bitline_pairs: int,
        max_segments: int,
        failure_policy: str = "fail_fast",
        max_retries: int = 2,
        item_timeout_s: Optional[float] = None,
        retry_backoff_s: float = 0.05,
        in_pool_worker: bool = False,
    ) -> None:
        self.node = node
        self.n_bitline_pairs = n_bitline_pairs
        self.max_segments = max_segments
        self.failure_policy = failure_policy
        self.max_retries = max_retries
        self.item_timeout_s = item_timeout_s
        self.retry_backoff_s = retry_backoff_s
        self.in_pool_worker = in_pool_worker
        self._bundles: Dict[Tuple[int, str], OperationSimulators] = {}
        self._options: Dict[str, object] = {}

    def _simulators_for(self, scenario: CampaignScenario) -> OperationSimulators:
        # The bundle depends only on the strap interval and the transient
        # method; operation and stored value are per-call arguments, so
        # every operation of a scenario family shares one geometry stack.
        key = (scenario.vss_strap_interval_cells, scenario.method)
        bundle = self._bundles.get(key)
        if bundle is None:
            bundle = OperationSimulators(
                self.node,
                n_bitline_pairs=self.n_bitline_pairs,
                max_segments=self.max_segments,
                vss_strap_interval_cells=scenario.vss_strap_interval_cells,
                transient_method=scenario.method,
            )
            if self._bundles:
                bundle.adopt_shared_caches(next(iter(self._bundles.values())))
            self._bundles[key] = bundle
        return bundle

    def _option_for(self, option_name: str):
        option = self._options.get(option_name)
        if option is None:
            from ..patterning import create_option

            option = create_option(option_name)
            self._options[option_name] = option
        return option

    def prepare_item(self, item: CampaignItem) -> Tuple[PreparedWork, float]:
        """Build the item's lane set and its prep wall; every attempt starts here."""
        simulators = self._simulators_for(item.scenario)
        operation = create_operation(item.scenario.operation)
        started = time.perf_counter()
        with span(
            "item.prepare",
            item=item.key,
            operation=item.scenario.operation,
            kind=item.kind,
        ):
            if item.kind == "nominal":
                prepared = operation.prepare_nominal(
                    simulators,
                    item.n_wordlines,
                    stored_value=item.scenario.stored_value,
                )
            elif item.kind == "corner":
                prepared = operation.prepare_with_patterning(
                    simulators,
                    item.n_wordlines,
                    self._option_for(item.option_name),
                    dict(item.corner_parameters),
                    stored_value=item.scenario.stored_value,
                )
            else:
                raise CampaignError(f"unknown campaign item kind {item.kind!r}")
        return prepared, time.perf_counter() - started

    def run_chunks(
        self, chunks: Sequence[Sequence[CampaignItem]]
    ) -> Iterator[List[_Outcome]]:
        """The campaign's one execution loop: prepare → solve → commit.

        Prepares every chunk (circuits and lane specs), solves attempt 0
        of every prepared item, then yields each chunk's outcomes in order
        for the caller to commit.  The serial path passes all chunks, a
        pool worker its own one.  Attempt 0 is one joint
        :func:`solve_prepared` call (same-topology lanes stack across
        chunks) or, when ``item_timeout_s`` is set and its alarm can fire
        here (:func:`~repro.core.failures.deadline_applies`), one solve per
        item under that deadline, since an alarm cannot stop one item
        inside a joint solve.  An item whose attempt 0 failed goes to
        :meth:`_retry`.  If preparation raises a non-item error (a bug),
        the chunks prepared before it are still solved and yielded before
        it propagates.
        """
        prepared: List[List[_Prepared]] = []
        try:
            for chunk in chunks:
                with span("campaign.prepare", items=len(chunk)):
                    prepared.append([self._prepare_first(item) for item in chunk])
        except BaseException:
            yield from self._solve(prepared)
            raise
        yield from self._solve(prepared)

    def _prepare_first(self, item: CampaignItem) -> _Prepared:
        """Attempt 0's preparation; an item error is kept for the retry ladder."""
        faults.maybe_crash_worker(item.key, self.in_pool_worker)
        started = time.perf_counter()
        try:
            faults.check_solver(item.key, 0)
            return (item, *self.prepare_item(item))
        except _ITEM_ERRORS as exc:
            return item, exc, time.perf_counter() - started

    def _solve(self, prepared: List[List[_Prepared]]) -> Iterator[List[_Outcome]]:
        """Solve attempt 0 of the prepared items; yield per-chunk outcomes."""
        if deadline_applies(self.item_timeout_s):
            first_attempt = self._solve_alone
        else:
            first_attempt = self._joint_solve(prepared)
        for entries in prepared:
            with span("campaign.chunk", items=len(entries), first=entries[0][0].key):
                outcomes = [
                    self._retry(item, work)
                    if isinstance(work, BaseException)
                    else first_attempt(item, work, prep_wall)
                    for item, work, prep_wall in entries
                ]
            yield outcomes

    def _joint_solve(
        self, prepared: List[List[_Prepared]]
    ) -> Callable[[CampaignItem, PreparedWork, float], _Outcome]:
        """Solve every prepared item's lanes in one call (no deadline applies).

        Returns the per-item continuation that turns the item's result
        into its record — ``wall_s`` is its preparation plus an equal
        share of the joint solve — or sends the item to :meth:`_retry`.
        """
        works = [
            work
            for entries in prepared
            for _, work, _ in entries
            if isinstance(work, PreparedWork)
        ]
        stats_before = solver_stats().snapshot()
        batch_started = time.perf_counter()
        with span(
            "campaign.joint_solve", chunks=len(prepared), works=len(works)
        ) as solve_span:
            results = iter(solve_prepared(works))
            batch_wall = time.perf_counter() - batch_started
            batch_stats = solver_stats().delta_since(stats_before).as_dict()
            batch_size = sum(1 for work in works if work.lanes)
            solve_span.annotate(
                batch_size=batch_size,
                solver_stats={k: v for k, v in batch_stats.items() if v},
            )
        share = batch_wall / batch_size if batch_size else 0.0

        def first_attempt(item, work, prep_wall) -> _Outcome:
            result = next(results)
            if isinstance(result, BaseException):
                if not isinstance(result, _ITEM_ERRORS):
                    raise result
                return self._retry(item, result)
            return _record_from_measurement(
                item,
                result,
                prep_wall + (share if work.lanes else 0.0),
                solver="batched",
                batch_size=batch_size,
            )

        return first_attempt

    def _solve_alone(
        self, item: CampaignItem, work: PreparedWork, prep_wall: float
    ) -> _Outcome:
        """Attempt 0 under a deadline: the item's own one-lane solve."""
        try:
            with item_deadline(self.item_timeout_s):
                return self._measure(item, work, prep_wall)
        except _ITEM_ERRORS as exc:
            return self._retry(item, exc)

    def _measure(
        self, item: CampaignItem, work: PreparedWork, prep_wall: float
    ) -> CampaignRecord:
        """Solve one prepared item with the one-lane drivers into its record."""
        started = time.perf_counter()
        with span(
            "item.measure",
            item=item.key,
            operation=item.scenario.operation,
            kind=item.kind,
        ):
            measurement = work.run_scalar()
        return _record_from_measurement(
            item, measurement, prep_wall + (time.perf_counter() - started)
        )

    def _retry(self, item: CampaignItem, last_error: BaseException) -> _Outcome:
        """Attempts 1.. of an item whose attempt 0 failed: record, failure or raise.

        Every retry is :meth:`prepare_item` plus a one-lane solve under
        the item deadline, so a retried record says ``solver="scalar"``.
        Attempt schedule under ``retry``: the first
        retry repeats the attempt unchanged (a transient fault — an
        injected one, or a machine-level hiccup — then reproduces the
        fault-free result bit-for-bit), later retries escalate the solver
        rescue ladder (:func:`~repro.circuit.dc.solver_rescue`: bigger
        Newton/step budgets, jittered start points) with capped
        exponential backoff between attempts.  Solver errors are
        classified into a typed :class:`ItemFailure`; ``fail_fast``
        raises it wrapped in :class:`CampaignExecutionError` instead of
        returning it.
        """
        attempts = 1 + (self.max_retries if self.failure_policy == "retry" else 0)
        for attempt in range(1, attempts):
            time.sleep(min(self.retry_backoff_s * (2.0 ** (attempt - 1)), 2.0))
            try:
                with solver_rescue(attempt - 1, seed=item.seed):
                    with item_deadline(self.item_timeout_s):
                        faults.check_solver(item.key, attempt)
                        return self._measure(item, *self.prepare_item(item))
            except _ITEM_ERRORS as exc:
                last_error = exc
        failure = ItemFailure.from_exception(
            item.key, last_error, attempts=attempts
        )
        if self.failure_policy == "fail_fast":
            raise CampaignExecutionError(failure) from last_error
        return failure


#: Per-process worker state installed by the pool initializer (the node is
#: pickled once per worker, and each worker's caches amortise across its
#: chunks — the same pattern as the Monte-Carlo engine).
_worker_state: Optional[CampaignWorkerState] = None


def _init_campaign_worker(
    node: TechnologyNode,
    n_bitline_pairs: int,
    max_segments: int,
    failure_policy: str = "fail_fast",
    max_retries: int = 2,
    item_timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.05,
    trace_worker_dir: Optional[str] = None,
    profile_worker_dir: Optional[str] = None,
) -> None:
    global _worker_state
    # A forked worker inherits the parent's tracer object; two processes
    # appending to one file would interleave torn records, so the worker
    # either gets its own trace-<pid>.jsonl (merged by the parent on
    # chunk commit) or stops emitting entirely.  Same story for the
    # sampling profiler: the worker samples into its own
    # profile-<pid>.folded (summed by the parent at stop).
    if trace_worker_dir is not None:
        enable_worker_tracing(trace_worker_dir)
    else:
        _clear_inherited_tracer()
    if profile_worker_dir is not None:
        enable_worker_profiling(profile_worker_dir)
    else:
        _clear_inherited_profiler()
    _worker_state = CampaignWorkerState(
        node,
        n_bitline_pairs,
        max_segments,
        failure_policy=failure_policy,
        max_retries=max_retries,
        item_timeout_s=item_timeout_s,
        retry_backoff_s=retry_backoff_s,
        in_pool_worker=True,
    )


def _run_chunk_worker(
    items: Sequence[CampaignItem],
) -> Tuple[List[_Outcome], Dict[str, int]]:
    """One chunk through the worker's loop, plus the solver counters it cost.

    Solver counters are per thread, so the parent folds the returned delta
    into its own before committing the outcomes.
    """
    stats_before = solver_stats().snapshot()
    (outcomes,) = _worker_state.run_chunks([items])
    return outcomes, solver_stats().delta_since(stats_before).as_dict()


class SimulationCampaign:
    """Batched, cached, multiprocess driver of the simulated experiments.

    Parameters
    ----------
    node:
        Technology node (its overlay budget is the default for scenarios
        that do not override it).
    doe:
        Experiment grid; the paper's by default.
    scenarios:
        Scenario axes to cross with the DOE; defaults to the single paper
        scenario.  Labels must be unique.
    worst_case:
        Optional pre-built worst-case study for the node-default overlay
        budget, shared so its corner-search cache is not repeated.
    store_dir:
        Optional directory for the disk-backed result store; reruns skip
        every item already recorded there.
    seed:
        Base seed of the per-item crc32 stream.
    max_segments:
        RC-ladder sections per bit line (see :class:`ReadPathSimulator`).
    signature_extra:
        Extra key/value pairs merged into :meth:`signature` (and therefore
        verified by the store).  The declarative spec layer uses this to
        stamp campaign stores with the spec ``schema_version`` so a store
        written under a different schema is rejected on resume.
    failure_policy:
        What a failed work item does to the campaign: ``fail_fast``
        aborts the run (:class:`CampaignExecutionError`), ``skip``
        records the typed :class:`ItemFailure` and continues, ``retry``
        re-attempts with backoff and an escalated rescue ladder first.
        Failure knobs are deliberately *not* part of :meth:`signature` —
        they change how items execute, never what a record contains, so
        a store resumed under a different policy stays valid.
    max_retries:
        Extra attempts per item under ``retry`` (total attempts is
        ``1 + max_retries``).
    item_timeout_s:
        Optional wall-clock deadline per item attempt (SIGALRM-based, so
        it can cut a runaway solve; see
        :func:`~repro.core.failures.item_deadline` for where it applies).
        Without it, attempt 0 stacks same-topology Newton/transient work
        across all items into jointly-vectorized solves; with it, each
        item is solved on its own under the deadline (on a thread where
        the alarm cannot fire, the joint solve runs).  Records are
        bitwise identical either way.
    retry_backoff_s:
        Base of the capped exponential backoff between attempts.
    """

    def __init__(
        self,
        node: TechnologyNode,
        doe: Optional[StudyDOE] = None,
        scenarios: Optional[Sequence[CampaignScenario]] = None,
        worst_case: Optional[WorstCaseStudy] = None,
        store_dir: Optional[Path] = None,
        seed: int = 2015,
        max_segments: int = 64,
        signature_extra: Optional[Mapping[str, object]] = None,
        failure_policy: str = "fail_fast",
        max_retries: int = 2,
        item_timeout_s: Optional[float] = None,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.node = node
        self.doe = doe if doe is not None else paper_doe()
        self.scenarios: Tuple[CampaignScenario, ...] = tuple(
            scenarios if scenarios is not None else (CampaignScenario(),)
        )
        if not self.scenarios:
            raise CampaignError("the campaign needs at least one scenario")
        labels = [scenario.label for scenario in self.scenarios]
        if len(set(labels)) != len(labels):
            raise CampaignError(f"scenario labels must be unique, got {labels}")
        self.seed = seed
        self.max_segments = max_segments
        if failure_policy not in FAILURE_POLICIES:
            raise CampaignError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if max_retries < 0:
            raise CampaignError("max_retries must be non-negative")
        if item_timeout_s is not None and item_timeout_s <= 0.0:
            raise CampaignError("item_timeout_s must be positive when set")
        self.failure_policy = failure_policy
        self.max_retries = int(max_retries)
        self.item_timeout_s = item_timeout_s
        self.retry_backoff_s = float(retry_backoff_s)
        #: Solver-counter deltas of the most recent ``run()`` —
        #: factorizations, stamp evaluations, batch ticks and so on.
        #: Pool workers return their chunk's delta with its outcomes and
        #: the parent folds it into its own counters, so pool runs
        #: report the same lane counts as serial runs.
        self.last_run_stats: Dict[str, int] = {}
        self.signature_extra: Dict[str, object] = (
            dict(signature_extra) if signature_extra is not None else {}
        )
        self.store = CampaignStore(store_dir) if store_dir is not None else None
        self._worst_case_by_overlay: Dict[Optional[float], WorstCaseStudy] = {}
        if worst_case is not None:
            self._worst_case_by_overlay[None] = worst_case
        #: In-memory record memo: repeated ``run()`` calls (e.g. fig4 then
        #: table2 then table3 through the same campaign) only simulate the
        #: first time, mirroring the disk store's resume semantics.
        self._memo: Dict[str, CampaignRecord] = {}
        #: Typed failures of the most recent attempts, keyed by item key.
        #: Not persisted to the store: a rerun retries failed items.
        self._failures: Dict[str, ItemFailure] = {}
        self._local_state: Optional[CampaignWorkerState] = None

    @classmethod
    def from_spec(cls, spec) -> "SimulationCampaign":
        """Build a campaign from an :class:`~repro.core.spec.ExperimentSpec`.

        The declarative twin of the constructor: technology, DOE,
        scenarios, seed, store and ladder resolution all come from the
        spec document, and the spec's ``schema_version`` is stamped into
        the store signature.  Prefer :func:`repro.api.run` — this hook
        exists for callers that need the campaign object itself.
        """
        return cls(
            spec.technology.build(),
            doe=spec.array.to_doe(),
            scenarios=[scenario.to_scenario() for scenario in spec.scenarios],
            store_dir=(
                Path(spec.execution.store_dir)
                if spec.execution.store_dir is not None
                else None
            ),
            seed=spec.execution.seed,
            max_segments=spec.execution.max_segments,
            signature_extra={"schema_version": spec.schema_version},
            failure_policy=spec.execution.failure_policy,
            max_retries=spec.execution.max_retries,
            item_timeout_s=spec.execution.timeout_s,
        )

    # -- corner search (driver side) ---------------------------------------------------

    def worst_case_for(self, overlay_three_sigma_nm: Optional[float]) -> WorstCaseStudy:
        """The worst-case study of one overlay budget (corner-search cache)."""
        study = self._worst_case_by_overlay.get(overlay_three_sigma_nm)
        if study is None:
            node = self.node
            if overlay_three_sigma_nm is not None:
                node = node.with_variations(
                    node.variations.for_overlay(overlay_three_sigma_nm)
                )
            study = WorstCaseStudy(node, doe=self.doe)
            self._worst_case_by_overlay[overlay_three_sigma_nm] = study
        return study

    # -- work-list enumeration ----------------------------------------------------------

    def _seed_for(self, key: str) -> int:
        # crc32 rather than hash(): stable across interpreter invocations
        # and hash-seed randomisation (the Monte-Carlo engine's scheme), so
        # pool workers and the serial path derive identical streams.
        return zlib.crc32(f"{self.seed}/{key}".encode()) % (2**31)

    def work_items(
        self, kinds: Optional[Sequence[str]] = None
    ) -> List[CampaignItem]:
        """Enumerate the campaign items, nominals deduplicated by sim key.

        ``kinds`` restricts the enumeration (``("nominal",)`` skips the
        corner items *and* the per-option corner search entirely — the
        Table II path needs only nominals).
        """
        chosen_kinds = set(kinds) if kinds is not None else {"nominal", "corner"}
        unknown = chosen_kinds - {"nominal", "corner"}
        if unknown:
            raise CampaignError(f"unknown item kinds: {sorted(unknown)}")
        items: List[CampaignItem] = []
        seen_nominals: set = set()
        for scenario in self.scenarios:
            for size in self.doe.array_sizes:
                nominal_key = (scenario.sim_key, size)
                if "nominal" in chosen_kinds and nominal_key not in seen_nominals:
                    seen_nominals.add(nominal_key)
                    nominal = CampaignItem(
                        kind="nominal",
                        n_wordlines=size,
                        # Nominal columns are overlay-independent (the
                        # budget only moves corners), so the shared record
                        # carries a neutral scenario named after the sim
                        # key rather than whichever sweep point came first.
                        scenario=replace(
                            scenario,
                            label=scenario.sim_key,
                            overlay_three_sigma_nm=None,
                        ),
                        seed=0,
                    )
                    items.append(replace(nominal, seed=self._seed_for(nominal.key)))
                if "corner" not in chosen_kinds:
                    continue
                worst_case = self.worst_case_for(scenario.overlay_three_sigma_nm)
                for option_name in self.doe.option_names:
                    corner = worst_case.find_worst_corner(option_name)
                    item = CampaignItem(
                        kind="corner",
                        n_wordlines=size,
                        scenario=scenario,
                        seed=0,
                        option_name=option_name,
                        corner_parameters=tuple(
                            sorted(
                                (name, float(value))
                                for name, value in corner.parameters.items()
                            )
                        ),
                        corner_rvar=corner.bitline_variation.rvar,
                        corner_cvar=corner.bitline_variation.cvar,
                        corner_vss_rvar=corner.vss_variation.rvar,
                    )
                    items.append(replace(item, seed=self._seed_for(item.key)))
        return items

    def signature(self) -> Dict[str, object]:
        """Identity of this campaign, stored and verified by the store."""
        signature: Dict[str, object] = dict(self.signature_extra)
        signature.update({
            "array_sizes": list(self.doe.array_sizes),
            "option_names": list(self.doe.option_names),
            "n_bitline_pairs": self.doe.n_bitline_pairs,
            "scenarios": [scenario.as_dict() for scenario in self.scenarios],
            "seed": self.seed,
            "max_segments": self.max_segments,
            "node": (
                f"{self.node.name}"
                f"/ol{self.node.variations.litho_etch.overlay.three_sigma_nm:g}"
            ),
        })
        return signature

    # -- execution ---------------------------------------------------------------------

    @staticmethod
    def _chunks(items: Sequence[CampaignItem]) -> List[List[CampaignItem]]:
        grouped: Dict[Tuple[int, str], List[CampaignItem]] = {}
        for item in items:
            grouped.setdefault(item.chunk_key, []).append(item)
        # Longest (biggest array, most items) chunks first: simulation cost
        # grows with the array size, so LPT-style ordering keeps the pool
        # balanced.
        return sorted(
            grouped.values(),
            key=lambda chunk: (chunk[0].n_wordlines * len(chunk), len(chunk)),
            reverse=True,
        )

    @staticmethod
    def available_cpus() -> int:
        """CPUs this process may actually run on (affinity-aware)."""
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1

    def _commit(self, outcomes: Sequence[_Outcome]) -> None:
        """Checkpoint finished outcomes into the memo (and the store).

        Failures land in the in-memory failure map only — persisting them
        would turn a transient machine problem into a permanent store
        entry; this way a rerun retries exactly the failed items.

        Commit is also the observability checkpoint: each outcome feeds
        the metrics registry (item wall-time histogram, per-operation and
        failure counters), and any pool-worker trace files are merged
        into the main trace here — the same granularity at which results
        become durable.
        """
        with span("campaign.commit", outcomes=len(outcomes)):
            for outcome in outcomes:
                if isinstance(outcome, ItemFailure):
                    obs_metrics.record_item_failure(outcome.classification)
                    self._failures[outcome.key] = outcome
                    continue
                obs_metrics.registry().inc(
                    "repro_items_total", operation=outcome.operation
                )
                obs_metrics.observe_item_wall(outcome.wall_s, outcome.operation)
                self._failures.pop(outcome.key, None)
                self._memo[outcome.key] = outcome
                if self.store is not None:
                    self.store.save_record(outcome)
            tracer = active_tracer()
            if tracer is not None:
                tracer.merge_workers()

    def _worker_initargs(self) -> tuple:
        tracer = active_tracer()
        trace_worker_dir = (
            str(tracer.worker_dir)
            if tracer is not None and tracer.worker_dir is not None
            else None
        )
        profiler = active_profiler()
        profile_worker_dir = (
            str(profiler.worker_dir)
            if profiler is not None and profiler.worker_dir is not None
            else None
        )
        return (
            self.node,
            self.doe.n_bitline_pairs,
            self.max_segments,
            self.failure_policy,
            self.max_retries,
            self.item_timeout_s,
            self.retry_backoff_s,
            trace_worker_dir,
            profile_worker_dir,
        )

    def _requeue_lost(
        self,
        lost: Sequence[Sequence[CampaignItem]],
        crash_counts: Dict[str, int],
    ) -> List[List[CampaignItem]]:
        """Items to resubmit after a pool break, poison items quarantined.

        A broken pool loses *every* in-flight chunk, not just the one
        whose worker died, so the culprit cannot be identified from the
        break alone.  Each lost item is charged one crash and resubmitted
        as a singleton chunk; :meth:`_run_pool` then switches to
        isolation mode (one chunk per pool), where a second break charges
        the true culprit alone — and two charges quarantine it as poison,
        recorded as a typed ``worker_crash`` failure and never run again.
        """
        requeued: List[List[CampaignItem]] = []
        for chunk in lost:
            for item in chunk:
                if item.key in self._memo:
                    continue
                count = crash_counts.get(item.key, 0) + 1
                crash_counts[item.key] = count
                if count >= 2:
                    failure = ItemFailure(
                        key=item.key,
                        classification="worker_crash",
                        error_type="BrokenProcessPool",
                        message=(
                            "a pool worker died twice while holding this "
                            "item; quarantined as poison"
                        ),
                        attempts=count,
                        stage="worker",
                    )
                    if self.failure_policy == "fail_fast":
                        raise CampaignExecutionError(failure)
                    self._failures[item.key] = failure
                else:
                    requeued.append([item])
        return requeued

    def _run_pool(self, chunks: List[List[CampaignItem]], effective: int) -> None:
        """Fan chunks out over a process pool, surviving dead workers.

        A worker killed mid-chunk (OOM, segfault, an injected crash)
        breaks the whole ``ProcessPoolExecutor``; the executor cannot be
        reused, so the pool is rebuilt and the lost chunks re-executed
        (see :meth:`_requeue_lost` for the poison bookkeeping).  Chunks
        that completed before the break stay committed either way.

        After the first break the run switches to *isolation mode*: one
        chunk per pool.  A shared break cannot tell the poison item from
        innocent chunks that happened to be in flight, so the first
        charge is collective — but every later charge must be precise,
        or a fast-crashing poison item would repeatedly drag its
        neighbours over the quarantine threshold.  Isolation pays one
        pool spin-up per remaining chunk, which only matters on the
        already-rare crash path.
        """
        crash_counts: Dict[str, int] = {}
        pending = list(chunks)
        isolate = False
        while pending:
            if isolate:
                batch, pending = [pending[0]], pending[1:]
            else:
                batch, pending = pending, []
            lost: List[List[CampaignItem]] = []
            with ProcessPoolExecutor(
                max_workers=min(effective, len(batch)),
                initializer=_init_campaign_worker,
                initargs=self._worker_initargs(),
            ) as pool:
                futures = {
                    pool.submit(_run_chunk_worker, chunk): chunk
                    for chunk in batch
                }
                for future in as_completed(futures):
                    try:
                        outcomes, stats_delta = future.result()
                    except BrokenExecutor:
                        lost.append(futures[future])
                        continue
                    stats = solver_stats()
                    for key, value in stats_delta.items():
                        setattr(stats, key, getattr(stats, key) + value)
                    self._commit(outcomes)
            if lost:
                isolate = True
                pending = self._requeue_lost(lost, crash_counts) + pending

    def run(
        self,
        workers: Optional[int] = None,
        clamp_to_cpus: bool = True,
        kinds: Optional[Sequence[str]] = None,
    ) -> CampaignResults:
        """Execute the campaign and return every record in work-list order.

        ``workers`` > 1 fans the chunks out over a process pool; the
        records are identical to a serial run (everything downstream of the
        corner search is a deterministic function of the item).  Completed
        items — from the in-memory memo or the disk store — are skipped,
        and finished chunks are checkpointed as they complete, so an
        interrupted or failing campaign resumes from the last finished
        chunk rather than from the previous run.

        ``workers`` is a request, not a mandate: by default it is clamped
        to the CPUs the process may run on (``-j``-style semantics), and
        when no parallelism is available the campaign runs in-process
        rather than paying pool overhead for nothing.  Pass
        ``clamp_to_cpus=False`` to force the pool regardless (used by the
        cross-process determinism tests).  ``kinds`` restricts the run to
        a subset of item kinds (see :meth:`work_items`).

        Under ``failure_policy="skip"``/``"retry"`` the results may be
        partial: items that failed every attempt (or were quarantined as
        poison after killing two pool workers) come back as typed
        :attr:`CampaignResults.failures` instead of records, and a later
        ``run()`` retries exactly those items.
        """
        items = self.work_items(kinds=kinds)
        if self.store is not None:
            self.store.prepare(self.signature())
            for key, record in self.store.load_records().items():
                self._memo.setdefault(key, record)
        pending = [item for item in items if item.key not in self._memo]
        for item in pending:
            self._failures.pop(item.key, None)
        chunks = self._chunks(pending)

        effective = workers if workers is not None else 1
        if clamp_to_cpus:
            effective = min(effective, self.available_cpus())

        self.last_run_stats = {}
        stats_before = solver_stats().snapshot()
        with span(
            "campaign.run", pending=len(pending), chunks=len(chunks)
        ) as run_span:
            if effective > 1 and len(chunks) > 1:
                with span("campaign.pool", workers=effective, chunks=len(chunks)):
                    self._run_pool(chunks, effective)
            else:
                if self._local_state is None:
                    self._local_state = CampaignWorkerState(
                        self.node,
                        self.doe.n_bitline_pairs,
                        self.max_segments,
                        failure_policy=self.failure_policy,
                        max_retries=self.max_retries,
                        item_timeout_s=self.item_timeout_s,
                        retry_backoff_s=self.retry_backoff_s,
                    )
                for outcomes in self._local_state.run_chunks(chunks):
                    self._commit(outcomes)
            self.last_run_stats = solver_stats().delta_since(stats_before).as_dict()
            run_span.annotate(
                solver_stats={k: v for k, v in self.last_run_stats.items() if v}
            )
        tracer = active_tracer()
        if tracer is not None:
            tracer.merge_workers()

        return CampaignResults(
            [self._memo[item.key] for item in items if item.key in self._memo],
            failures=[
                self._failures[item.key]
                for item in items
                if item.key in self._failures
            ],
        )

    # -- experiment views ---------------------------------------------------------------

    def _scenario_or_default(
        self, scenario: Optional[CampaignScenario]
    ) -> CampaignScenario:
        chosen = scenario if scenario is not None else self.scenarios[0]
        if chosen not in self.scenarios:
            raise CampaignError(f"scenario {chosen.label!r} is not part of this campaign")
        return chosen

    def operation_rows(
        self,
        results: CampaignResults,
        scenario: Optional[CampaignScenario] = None,
    ) -> List[OperationImpactRow]:
        """Operation-suite rows: nominal value + per-option impact (%).

        Works for any operation scenario (including read, where the
        impacts are exactly the Fig. 4 tdp values).  Partial-result
        aware: a size whose nominal item failed is omitted entirely, and
        a failed corner item just drops its option from that row — the
        typed failures stay visible in ``results.failures``.
        """
        chosen = self._scenario_or_default(scenario)
        rows: List[OperationImpactRow] = []
        for size in self.doe.array_sizes:
            nominal = results.get(f"n{size}-nominal-{chosen.sim_key}")
            if nominal is None:
                continue
            deltas = {
                option_name: results.penalty_percent(chosen, option_name, size)
                for option_name in self.doe.option_names
                if results.get(f"n{size}-{option_name}-{chosen.label}") is not None
            }
            rows.append(
                OperationImpactRow(
                    operation=chosen.operation,
                    array_label=f"{self.doe.n_bitline_pairs}x{size}",
                    n_wordlines=size,
                    nominal_value=nominal.value,
                    unit=nominal.unit,
                    delta_percent_by_option=deltas,
                )
            )
        return rows

    def figure4_rows(
        self,
        results: CampaignResults,
        scenario: Optional[CampaignScenario] = None,
    ) -> List[WorstCaseTdRow]:
        """Fig. 4 rows (nominal td + per-option tdp) from campaign records."""
        chosen = self._scenario_or_default(scenario)
        if chosen.operation != "read":
            raise CampaignError(
                "Fig. 4 rows are defined for read scenarios; use operation_rows "
                f"for {chosen.operation!r}"
            )
        rows: List[WorstCaseTdRow] = []
        for size in self.doe.array_sizes:
            nominal = results.nominal(chosen.sim_key, size)
            penalties = {
                option_name: results.penalty_percent(chosen, option_name, size)
                for option_name in self.doe.option_names
            }
            rows.append(
                WorstCaseTdRow(
                    array_label=f"{self.doe.n_bitline_pairs}x{size}",
                    n_wordlines=size,
                    nominal_td_ps=nominal.td_ps,
                    tdp_percent_by_option=penalties,
                )
            )
        return rows

    def table2_rows(
        self,
        results: CampaignResults,
        model: AnalyticalDelayModel,
        scenario: Optional[CampaignScenario] = None,
    ) -> List[FormulaVsSimulationTdRow]:
        """Table II rows (simulated versus formula nominal td)."""
        chosen = self._scenario_or_default(scenario)
        if chosen.operation != "read":
            raise CampaignError("Table II rows are defined for read scenarios")
        return [
            FormulaVsSimulationTdRow(
                array_label=f"{self.doe.n_bitline_pairs}x{size}",
                n_wordlines=size,
                simulation_td_s=results.nominal(chosen.sim_key, size).td_s,
                formula_td_s=model.td_nominal_s(size),
            )
            for size in self.doe.array_sizes
        ]

    def table3_rows(
        self,
        results: CampaignResults,
        model: AnalyticalDelayModel,
        scenario: Optional[CampaignScenario] = None,
    ) -> List[FormulaVsSimulationTdpRow]:
        """Table III rows (simulation and formula tdp, interleaved per size)."""
        chosen = self._scenario_or_default(scenario)
        if chosen.operation != "read":
            raise CampaignError("Table III rows are defined for read scenarios")
        rows: List[FormulaVsSimulationTdpRow] = []
        for size in self.doe.array_sizes:
            simulated: Dict[str, float] = {}
            formula: Dict[str, float] = {}
            for option_name in self.doe.option_names:
                record = results.corner(chosen.label, option_name, size)
                simulated[option_name] = results.penalty_percent(
                    chosen, option_name, size
                )
                formula[option_name] = model.tdp_percent(
                    size, record.corner_rvar, record.corner_cvar
                )
            label = f"{self.doe.n_bitline_pairs}x{size}"
            rows.append(
                FormulaVsSimulationTdpRow(
                    method="simulation",
                    array_label=label,
                    n_wordlines=size,
                    tdp_percent_by_option=simulated,
                )
            )
            rows.append(
                FormulaVsSimulationTdpRow(
                    method="formula",
                    array_label=label,
                    n_wordlines=size,
                    tdp_percent_by_option=formula,
                )
            )
        return rows


    def report_dict(self, results: CampaignResults) -> Dict[str, object]:
        """JSON-ready report: the campaign signature plus every record."""
        return {
            "campaign": self.signature(),
            "n_records": len(results),
            "records": [record.to_dict() for record in results],
        }


def scenario_grid(
    overlay_budgets_nm: Sequence[Optional[float]] = (None,),
    stored_values: Sequence[int] = (0,),
    strap_intervals: Sequence[int] = (256,),
    methods: Sequence[str] = ("backward-euler",),
    operations: Sequence[str] = ("read",),
) -> List[CampaignScenario]:
    """Cross scenario axes into labelled :class:`CampaignScenario` objects.

    Labels are derived from the non-default axis values (``"paper"`` when
    every axis is at its default), so a sweep produces self-describing
    store keys such as ``"write-ol5nm"`` or ``"ol5nm-sv1-trap"``.
    """
    scenarios: List[CampaignScenario] = []
    for operation in operations:
        for overlay in overlay_budgets_nm:
            for stored_value in stored_values:
                for strap in strap_intervals:
                    for method in methods:
                        parts: List[str] = []
                        if operation != "read":
                            parts.append(operation)
                        if overlay is not None:
                            parts.append(f"ol{overlay:g}nm")
                        if stored_value != 0:
                            parts.append(f"sv{stored_value}")
                        if strap != 256:
                            parts.append(f"strap{strap}")
                        if method != "backward-euler":
                            parts.append(_METHOD_TAGS[method])
                        scenarios.append(
                            CampaignScenario(
                                label="-".join(parts) if parts else "paper",
                                overlay_three_sigma_nm=overlay,
                                stored_value=stored_value,
                                vss_strap_interval_cells=strap,
                                method=method,
                                operation=operation,
                            )
                        )
    return scenarios
