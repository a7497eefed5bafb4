"""The declarative front door: ``run(spec) -> ResultSet``.

Every study in the library — the batched simulation campaign, the
worst-case corner search, the operation suite, the Monte-Carlo σ studies
and the yield analysis — is reachable through one call::

    from repro.api import run
    from repro.core.spec import ExperimentSpec

    result = run(ExperimentSpec(kind="campaign"))
    print(result.to_text())

:func:`run` accepts an :class:`~repro.core.spec.ExperimentSpec`, a
mapping, a JSON string or a path to a JSON file, dispatches on the spec's
``kind`` and returns a :class:`ResultSet` — one uniform record container
with ``rows()``, ``to_json()``, ``to_csv()`` and unit-aware table
rendering (``to_text()``) regardless of which engine produced the data.

Execution is pluggable through the spec's ``execution.backend``:
``serial`` runs in-process, ``process`` fans work out over the campaign's
chunked process pool, and ``auto`` sizes the pool to the CPUs the process
may run on.  Seeding is crc32-per-item in every backend, so the records
are bit-identical across all three (the parity suite pins the campaign
path at ``rtol <= 1e-12`` against the pre-spec engines).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Union,
)

from .circuit.mna import solver_stats
from .core.campaign import CampaignError, SimulationCampaign
from .core.failures import FAILURE_POLICIES
from .core.montecarlo import MonteCarloTdpStudy
from .core.spec import (
    EXECUTION_BACKENDS,
    EXPERIMENT_KINDS,
    ExecutionSpec,
    ExperimentSpec,
    ScenarioSpec,
    SpecError,
    scenario_spec_grid,
)
from .core.worst_case import WorstCaseStudy
from .core.yield_analysis import ReadTimeYieldAnalysis
from .obs import convergence as obs_convergence
from .obs import metrics as obs_metrics
from .obs.trace import span

__all__ = [
    "EXECUTOR_BACKENDS",
    "ResultCacheProtocol",
    "ResultSet",
    "load_spec",
    "resolve_workers",
    "run",
]


@dataclass
class ResultSet:
    """Uniform result container of every declarative experiment.

    ``records`` is a list of flat, JSON-ready dictionaries — one per
    measurement — whatever engine produced them.  ``meta`` carries
    kind-specific headers (the campaign signature, the yield requirement).
    ``payload`` holds the engine's typed rows so the reporting layer can
    render unit-aware tables without re-deriving them; it is not part of
    the serialised form.

    A result may be *partial*: under the ``skip``/``retry`` failure
    policies, items that failed every attempt appear as error rows
    (``record == "failure"``, see
    :meth:`~repro.core.failures.ItemFailure.to_record`) among the
    records, and :attr:`failures` lists exactly those rows.  Because
    failure rows are ordinary records, partiality survives every
    serialisation round trip for free.
    """

    spec: ExperimentSpec
    records: List[Dict[str, Any]]
    meta: Dict[str, Any] = field(default_factory=dict)
    payload: Any = None

    @property
    def kind(self) -> str:
        return self.spec.kind

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def rows(self) -> List[Dict[str, Any]]:
        """The flat records, one dictionary per measurement."""
        return list(self.records)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """The typed error rows of a partial result (empty when complete)."""
        return [
            record for record in self.records if record.get("record") == "failure"
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready report: spec, kind metadata and every record."""
        payload: Dict[str, Any] = {
            "schema_version": self.spec.schema_version,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
        }
        payload.update(self.meta)
        payload["n_records"] = len(self.records)
        payload["n_failures"] = len(self.failures)
        payload["records"] = [dict(record) for record in self.records]
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    #: ``to_dict`` keys that are not kind-specific metadata.
    _RESERVED_KEYS = frozenset(
        {"schema_version", "kind", "spec", "n_records", "n_failures", "records"}
    )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ResultSet":
        """Rebuild a ResultSet from its :meth:`to_dict` form.

        The persistence round trip of the result cache and the HTTP
        client: records and metadata come back exactly as serialised
        (JSON preserves float bit patterns via ``repr`` round-tripping),
        the spec is revalidated through
        :class:`~repro.core.spec.ExperimentSpec`, and ``payload`` is
        ``None`` — deserialised results render through the generic
        record table instead of the typed per-study formatters.
        """
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"a serialised ResultSet must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        try:
            spec = ExperimentSpec.from_dict(payload["spec"])
            records = payload["records"]
        except KeyError as exc:
            raise SpecError(f"serialised ResultSet is missing {exc}") from None
        if not isinstance(records, list):
            raise SpecError("serialised ResultSet records must be a list")
        meta = {
            key: value
            for key, value in payload.items()
            if key not in cls._RESERVED_KEYS
        }
        return cls(spec=spec, records=[dict(r) for r in records], meta=meta)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"serialised ResultSet is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def to_csv(self) -> str:
        """The records as CSV.

        Campaign results keep the campaign engine's established column
        layout; every other kind uses the union of record keys in
        first-appearance order, with nested values JSON-encoded and cells
        quoted per RFC 4180 (stdlib ``csv``), so the output stays
        losslessly parseable.
        """
        from .reporting.tables import format_campaign_csv, record_headers

        # A partial campaign falls through to the generic layout: the
        # campaign CSV's fixed columns have no home for failure rows, and
        # silently dropping them would make a partial export look whole.
        if self.kind == "campaign" and self.payload is not None and not self.failures:
            return format_campaign_csv(self.payload)
        headers = record_headers(self.records)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        for record in self.records:
            cells = []
            for key in headers:
                value = record.get(key, "")
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True)
                cells.append("" if value is None else value)
            writer.writerow(cells)
        return buffer.getvalue().rstrip("\n")

    def to_text(self) -> str:
        """Unit-aware plain-text tables (via :mod:`repro.reporting.tables`)."""
        from .reporting.tables import format_result_set

        return format_result_set(self)


class ResultCacheProtocol(Protocol):
    """What :func:`run` needs from a result cache (see
    :class:`repro.service.cache.ResultCache` for the shipped one)."""

    def get(self, spec: ExperimentSpec) -> Optional[ResultSet]: ...

    def put(self, spec: ExperimentSpec, result: ResultSet) -> None: ...


# -- executor backends -----------------------------------------------------------------------


def _serial_workers(execution: ExecutionSpec) -> int:
    return 1


def _process_workers(execution: ExecutionSpec) -> int:
    return execution.workers


def _auto_workers(execution: ExecutionSpec) -> int:
    return SimulationCampaign.available_cpus()


#: Pluggable executor backends: name → worker-count resolver.  All three
#: drive the same chunked, crc32-seeded execution path, so the backend
#: changes wall-clock time, never results.
EXECUTOR_BACKENDS: Dict[str, Callable[[ExecutionSpec], int]] = {
    "serial": _serial_workers,
    "process": _process_workers,
    "auto": _auto_workers,
}

assert set(EXECUTOR_BACKENDS) == set(EXECUTION_BACKENDS)


def resolve_workers(execution: ExecutionSpec) -> int:
    """Worker-process count the spec's executor backend asks for."""
    try:
        backend = EXECUTOR_BACKENDS[execution.backend]
    except KeyError:
        raise SpecError(
            f"unknown execution backend {execution.backend!r}; "
            f"available: {sorted(EXECUTOR_BACKENDS)}"
        ) from None
    return max(1, int(backend(execution)))


# -- spec loading ----------------------------------------------------------------------------


SpecSource = Union[ExperimentSpec, Mapping[str, Any], str, os.PathLike]


def load_spec(source: SpecSource) -> ExperimentSpec:
    """Coerce any spec source into a validated :class:`ExperimentSpec`.

    Accepts an already-built spec (returned as is), a mapping, a JSON
    string, or a filesystem path to a JSON document (anything ending in
    ``.json`` or naming an existing file is treated as a path).
    """
    if isinstance(source, ExperimentSpec):
        return source
    if isinstance(source, Mapping):
        return ExperimentSpec.from_dict(source)
    if isinstance(source, os.PathLike) or (
        isinstance(source, str)
        and (source.endswith(".json") or os.path.exists(source))
    ):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from None
        return ExperimentSpec.from_json(text)
    if isinstance(source, str):
        return ExperimentSpec.from_json(source)
    raise SpecError(f"cannot load a spec from {type(source).__name__}")


# -- kind runners ----------------------------------------------------------------------------


def _run_campaign(spec: ExperimentSpec, workers: int) -> ResultSet:
    campaign = SimulationCampaign.from_spec(spec)
    results = campaign.run(workers=workers)
    records = []
    for record in results:
        row = record.to_dict()
        try:
            row["impact_percent"] = results.penalty_percent_for(record)
        except CampaignError:
            # The corner survived but its nominal twin failed: the record
            # stands on its own, the relative impact is uncomputable.
            row["impact_percent"] = None
        records.append(row)
    records.extend(failure.to_record() for failure in results.failures)
    meta: Dict[str, Any] = {"campaign": campaign.signature()}
    if campaign.last_run_stats:
        meta["solver_stats"] = dict(campaign.last_run_stats)
    return ResultSet(
        spec=spec,
        records=records,
        meta=meta,
        payload=results,
    )


def _run_worst_case(spec: ExperimentSpec, workers: int) -> ResultSet:
    study = WorstCaseStudy.from_spec(spec)
    rows = study.table1()
    return ResultSet(
        spec=spec,
        records=[row.to_record() for row in rows],
        payload=rows,
    )


def _operations_scenarios(spec: ExperimentSpec):
    """The scenario list an ``operations`` experiment simulates.

    With the default (untouched) scenario section, one scenario per
    requested operation is derived so all operations share a single
    campaign's layouts, extractions and printed corners.  An explicit
    scenario section is honoured as written — its operations must then
    match ``operation.operations``, so a spec can never silently measure
    something other than what either section says.
    """
    if spec.scenarios == (ScenarioSpec(),):
        return spec.with_scenarios(
            scenario_spec_grid(operations=spec.operation.operations)
        )
    scenario_operations = sorted({s.operation for s in spec.scenarios})
    requested = sorted(set(spec.operation.operations))
    if scenario_operations != requested:
        raise SpecError(
            "an operations spec with explicit scenarios must cover exactly "
            f"operation.operations: scenarios measure {scenario_operations}, "
            f"operations request {requested}"
        )
    return spec


def _run_operations(spec: ExperimentSpec, workers: int) -> ResultSet:
    campaign = SimulationCampaign.from_spec(_operations_scenarios(spec))
    results = campaign.run(workers=workers)
    impact = {
        scenario.label: campaign.operation_rows(results, scenario)
        for scenario in campaign.scenarios
    }
    sigma = {}
    if spec.operation.mc_sigma:
        mc = MonteCarloTdpStudy.from_spec(spec)
        sigma = {
            name: mc.sigma_rows(
                name, n_wordlines=spec.operation.n_wordlines, workers=workers
            )
            for name in spec.operation.operations
        }
    records: List[Dict[str, Any]] = []
    for rows in impact.values():
        for row in rows:
            records.extend(row.to_records())
    for rows in sigma.values():
        records.extend(row.to_record() for row in rows)
    records.extend(failure.to_record() for failure in results.failures)
    return ResultSet(
        spec=spec,
        records=records,
        payload={"impact": impact, "sigma": sigma},
    )


def _run_monte_carlo(spec: ExperimentSpec, workers: int) -> ResultSet:
    mc = MonteCarloTdpStudy.from_spec(spec)
    sections = {
        name: mc.sigma_rows(
            name, n_wordlines=spec.operation.n_wordlines, workers=workers
        )
        for name in spec.operation.operations
    }
    records = [row.to_record() for rows in sections.values() for row in rows]
    return ResultSet(spec=spec, records=records, payload=sections)


def _run_yield(spec: ExperimentSpec, workers: int) -> ResultSet:
    analysis = ReadTimeYieldAnalysis(MonteCarloTdpStudy.from_spec(spec))
    rows = analysis.compliance_table(
        budget_percent=spec.operation.budget_percent,
        n_wordlines=spec.operation.n_wordlines,
        workers=workers,
    )
    requirement = analysis.required_overlay_for_target(
        budget_percent=spec.operation.budget_percent,
        target_ppm=spec.operation.target_ppm,
        n_wordlines=spec.operation.n_wordlines,
    )
    return ResultSet(
        spec=spec,
        records=[row.to_record() for row in rows],
        meta={"requirement": requirement.to_dict()},
        payload=(rows, requirement),
    )


def _run_yield_hs(spec: ExperimentSpec, workers: int) -> ResultSet:
    from .highsigma import HighSigmaYieldStudy

    study = HighSigmaYieldStudy.from_spec(spec)
    rows = study.rows()
    meta = {
        "high_sigma": {
            "operation": study.operation_name,
            "model": study.model,
            "fail_direction": study.fail_direction,
            "sigma_levels": list(study.sigma_levels),
            "total_simulator_calls": study.total_simulator_calls,
            "total_promoted": sum(row.n_promoted for row in rows),
            "total_proposals": sum(row.n_proposals for row in rows),
        }
    }
    return ResultSet(
        spec=spec,
        records=[row.to_record() for row in rows],
        meta=meta,
        payload=rows,
    )


_RUNNERS: Dict[str, Callable[[ExperimentSpec, int], ResultSet]] = {
    "campaign": _run_campaign,
    "worst_case": _run_worst_case,
    "operations": _run_operations,
    "monte_carlo": _run_monte_carlo,
    "yield": _run_yield,
    "yield_hs": _run_yield_hs,
}

assert set(_RUNNERS) == set(EXPERIMENT_KINDS)


def run(
    spec: SpecSource,
    workers: Optional[int] = None,
    cache: Optional["ResultCacheProtocol"] = None,
    failure_policy: Optional[str] = None,
) -> ResultSet:
    """Run the experiment a spec describes and return its :class:`ResultSet`.

    Parameters
    ----------
    spec:
        Anything :func:`load_spec` accepts: an
        :class:`~repro.core.spec.ExperimentSpec`, a mapping, a JSON
        string or a path to a spec file.
    workers:
        Optional override of the worker count the spec's executor backend
        would resolve (the CLI's ``--workers`` hook).  The records do not
        depend on it.
    cache:
        Optional :class:`~repro.service.cache.ResultCache`.  When given,
        a result stored under the spec's content fingerprint is returned
        without recomputation, and fresh results are stored on the way
        out — every kind (campaign, worst-case, operations, Monte-Carlo,
        yield) dedupes transparently.  Cached results carry the records
        byte-for-byte but no typed ``payload``.  A *partial* result (one
        with failure rows) is never cached: the fingerprint is neutral to
        the failure knobs, so caching it would serve the partial result
        to callers who would have computed a complete one.
    failure_policy:
        Optional override of ``execution.failure_policy`` (the CLI's
        ``--failure-policy`` hook).  Fingerprint-neutral, like
        ``workers``.
    """
    chosen = load_spec(spec)
    if failure_policy is not None:
        if failure_policy not in FAILURE_POLICIES:
            raise SpecError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        chosen = chosen.with_execution(
            ExecutionSpec.from_dict(
                {**chosen.execution.to_dict(), "failure_policy": failure_policy}
            )
        )
    if cache is not None:
        hit = cache.get(chosen)
        if hit is not None:
            obs_metrics.registry().inc(
                "repro_runs_total", kind=chosen.kind, source="cache"
            )
            return hit
    effective = workers if workers is not None else resolve_workers(chosen.execution)
    stats_before = solver_stats().as_dict()
    with span("api.run", kind=chosen.kind, workers=max(1, int(effective))):
        result = _RUNNERS[chosen.kind](chosen, max(1, int(effective)))
    solver_delta = {
        key: value - stats_before.get(key, 0)
        for key, value in solver_stats().as_dict().items()
    }
    obs_metrics.record_solver_delta(solver_delta)
    obs_convergence.record_lane_stats(solver_delta)
    obs_metrics.registry().inc(
        "repro_runs_total", kind=chosen.kind, source="computed"
    )
    if cache is not None and not result.failures:
        cache.put(chosen, result)
    return result
