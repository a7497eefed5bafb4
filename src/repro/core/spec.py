"""Declarative, serialisable experiment descriptions.

Three PRs in, the repo could run its studies through four different front
doors (:class:`MultiPatterningSRAMStudy`, :class:`SimulationCampaign`,
:class:`MonteCarloTdpStudy`, :class:`WorstCaseStudy`), each with its own
constructor and return shape.  This module replaces that coupling with a
single typed description that the engines consume: a frozen, versioned
:class:`ExperimentSpec` composed of

* :class:`TechnologySpec` — which node and overlay budget to build;
* :class:`ArraySpec`      — the DOE grid (sizes, options, word length,
  overlay sweep);
* :class:`ScenarioSpec`   — one campaign scenario (operation, stored
  value, strap interval, integration method, overlay override);
* :class:`OperationSpec`  — measurement settings of the operation /
  Monte-Carlo / yield layers (operations, samples, budgets);
* :class:`ExecutionSpec`  — how to execute (backend, workers, seed,
  result store, RC-ladder resolution).

Every spec is a frozen dataclass with strict validation at construction,
``to_dict``/``from_dict`` converters that reject unknown keys, and a
lossless JSON round trip — ``ExperimentSpec.from_json(spec.to_json()) ==
spec`` holds for every valid spec.  ``schema_version`` is embedded so
stored specs (and campaign stores created from them) stay refusable or
migratable when the schema evolves.

Because a spec is pure data, scenarios can be generated, sharded, stored
and replayed at scale without touching Python constructors: every new
scenario axis is a data change, not a code change.  The runtime entry
point is :func:`repro.api.run`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..technology.node import TechnologyNode, n10
from ..variability.doe import DOEError, StudyDOE
from .campaign import CAMPAIGN_METHODS, CampaignScenario
from .failures import FAILURE_POLICIES
from .operations import OPERATION_NAMES, ensure_operation

#: Version of the spec schema; bumped on incompatible layout changes.
#: ``from_dict`` refuses payloads written for a different version, and the
#: campaign store embeds the version in its signature so stale stores are
#: rejected instead of silently mixed.
SCHEMA_VERSION = 1

#: Experiment kinds :func:`repro.api.run` can dispatch.
EXPERIMENT_KINDS = (
    "campaign",
    "worst_case",
    "operations",
    "monte_carlo",
    "yield",
    "yield_hs",
)

#: Metric models a ``yield_hs`` experiment may evaluate failures on:
#: the paper's analytical tdp formula (read only), a calibrated
#: operation response surface, or real batched circuit solves.
HIGH_SIGMA_MODELS = ("analytical", "surface", "circuit")

#: Executor backends of :class:`ExecutionSpec` (resolved by ``repro.api``).
EXECUTION_BACKENDS = ("serial", "process", "auto")

#: Execution fields excluded from the canonical fingerprint.  They steer
#: where and how fast a spec runs, never which records it produces (the
#: backend-parity suite pins this), so two specs differing only in these
#: fields are the same experiment to the result cache.  ``seed`` and
#: ``max_segments`` DO enter the fingerprint: both change the records.
#: The failure knobs are neutral too: they change whether a run survives
#: an item failure, never what a successful record contains (and partial
#: results are never cached, so they cannot poison a fingerprint).
FINGERPRINT_NEUTRAL_EXECUTION_FIELDS = (
    "backend",
    "workers",
    "store_dir",
    "failure_policy",
    "max_retries",
    "timeout_s",
)


class SpecError(ValueError):
    """Raised for invalid, unknown or non-round-trippable spec payloads."""


#: Node factories addressable from a :class:`TechnologySpec`.
NODE_FACTORIES: Dict[str, Callable[[float], TechnologyNode]] = {
    "n10": lambda overlay: n10(overlay_three_sigma_nm=overlay),
}


def _check_unknown(cls: type, payload: Mapping[str, Any]) -> None:
    known = {spec_field.name for spec_field in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise SpecError(
            f"unknown {cls.__name__} fields: {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )


def _require_mapping(payload: Any, name: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise SpecError(f"{name} must be a JSON object, got {type(payload).__name__}")
    return payload


def _coerce_int(value: Any, name: str) -> int:
    if isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be an integer, got {value!r}") from None


def _coerce_float(value: Any, name: str) -> float:
    if isinstance(value, bool):
        raise SpecError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a number, got {value!r}") from None


def _float_tuple(values: Any, name: str) -> Tuple[float, ...]:
    if isinstance(values, (str, Mapping)):
        # Iterating a string would silently misparse "16" as (1.0, 6.0).
        raise SpecError(f"{name} must be a sequence of numbers, got {values!r}")
    try:
        return tuple(float(value) for value in values)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a sequence of numbers, got {values!r}") from None


def _int_tuple(values: Any, name: str) -> Tuple[int, ...]:
    if isinstance(values, (str, Mapping)):
        raise SpecError(f"{name} must be a sequence of integers, got {values!r}")
    try:
        return tuple(int(value) for value in values)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a sequence of integers, got {values!r}") from None


def _str_tuple(values: Any, name: str) -> Tuple[str, ...]:
    if isinstance(values, str):
        raise SpecError(f"{name} must be a sequence of strings, not a bare string")
    try:
        return tuple(str(value) for value in values)
    except TypeError:
        raise SpecError(f"{name} must be a sequence of strings, got {values!r}") from None


@dataclass(frozen=True)
class TechnologySpec:
    """Which technology node to build and at which overlay budget."""

    node: str = "n10"
    overlay_three_sigma_nm: float = 8.0

    def __post_init__(self) -> None:
        if self.node not in NODE_FACTORIES:
            raise SpecError(
                f"unknown technology node {self.node!r}; "
                f"available: {sorted(NODE_FACTORIES)}"
            )
        if not self.overlay_three_sigma_nm > 0.0:
            raise SpecError("overlay_three_sigma_nm must be positive")

    def build(self) -> TechnologyNode:
        """Instantiate the node this spec describes."""
        return NODE_FACTORIES[self.node](float(self.overlay_three_sigma_nm))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "overlay_three_sigma_nm": self.overlay_three_sigma_nm,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TechnologySpec":
        payload = _require_mapping(payload, "technology")
        _check_unknown(cls, payload)
        data = dict(payload)
        if "overlay_three_sigma_nm" in data:
            data["overlay_three_sigma_nm"] = _coerce_float(
                data["overlay_three_sigma_nm"], "technology.overlay_three_sigma_nm"
            )
        return cls(**data)


@dataclass(frozen=True)
class ArraySpec:
    """The DOE grid: array sizes, patterning options, word length, overlay sweep."""

    sizes: Tuple[int, ...] = (16, 64, 256, 1024)
    options: Tuple[str, ...] = ("LELELE", "SADP", "EUV")
    n_bitline_pairs: int = 10
    overlay_budgets_nm: Tuple[float, ...] = (3.0, 5.0, 7.0, 8.0)

    def __post_init__(self) -> None:
        # StudyDOE owns the grid invariants; surface its complaints as
        # spec errors so callers see one error type for one bad document.
        try:
            self.to_doe()
        except DOEError as exc:
            raise SpecError(str(exc)) from None

    def to_doe(self) -> StudyDOE:
        return StudyDOE(
            array_sizes=self.sizes,
            option_names=self.options,
            n_bitline_pairs=self.n_bitline_pairs,
            overlay_budgets_nm=self.overlay_budgets_nm,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sizes": list(self.sizes),
            "options": list(self.options),
            "n_bitline_pairs": self.n_bitline_pairs,
            "overlay_budgets_nm": list(self.overlay_budgets_nm),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArraySpec":
        payload = _require_mapping(payload, "array")
        _check_unknown(cls, payload)
        data = dict(payload)
        if "sizes" in data:
            data["sizes"] = _int_tuple(data["sizes"], "array.sizes")
        if "options" in data:
            data["options"] = _str_tuple(data["options"], "array.options")
        if "n_bitline_pairs" in data:
            data["n_bitline_pairs"] = _coerce_int(
                data["n_bitline_pairs"], "array.n_bitline_pairs"
            )
        if "overlay_budgets_nm" in data:
            data["overlay_budgets_nm"] = _float_tuple(
                data["overlay_budgets_nm"], "array.overlay_budgets_nm"
            )
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """One campaign scenario — the serialisable twin of
    :class:`~repro.core.campaign.CampaignScenario`."""

    label: str = "paper"
    operation: str = "read"
    overlay_three_sigma_nm: Optional[float] = None
    stored_value: int = 0
    vss_strap_interval_cells: int = 256
    method: str = "backward-euler"

    def __post_init__(self) -> None:
        ensure_operation(self.operation, error=SpecError)
        if not self.label or not all(ch.isalnum() or ch in "._-" for ch in self.label):
            raise SpecError(
                f"scenario label {self.label!r} must be non-empty and use only "
                "letters, digits, '.', '_' or '-'"
            )
        if self.overlay_three_sigma_nm is not None and not self.overlay_three_sigma_nm > 0.0:
            raise SpecError("scenario overlay_three_sigma_nm must be positive")
        if self.stored_value not in (0, 1):
            raise SpecError("scenario stored_value must be 0 or 1")
        if self.vss_strap_interval_cells < 1:
            raise SpecError("scenario vss_strap_interval_cells must be at least 1")
        if self.method not in CAMPAIGN_METHODS:
            raise SpecError(f"scenario method must be one of {CAMPAIGN_METHODS}")

    def to_scenario(self) -> CampaignScenario:
        return CampaignScenario(
            label=self.label,
            overlay_three_sigma_nm=self.overlay_three_sigma_nm,
            stored_value=self.stored_value,
            vss_strap_interval_cells=self.vss_strap_interval_cells,
            method=self.method,
            operation=self.operation,
        )

    @classmethod
    def from_scenario(cls, scenario: CampaignScenario) -> "ScenarioSpec":
        return cls(
            label=scenario.label,
            operation=scenario.operation,
            overlay_three_sigma_nm=scenario.overlay_three_sigma_nm,
            stored_value=scenario.stored_value,
            vss_strap_interval_cells=scenario.vss_strap_interval_cells,
            method=scenario.method,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "operation": self.operation,
            "overlay_three_sigma_nm": self.overlay_three_sigma_nm,
            "stored_value": self.stored_value,
            "vss_strap_interval_cells": self.vss_strap_interval_cells,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        payload = _require_mapping(payload, "scenario")
        _check_unknown(cls, payload)
        data = dict(payload)
        if data.get("overlay_three_sigma_nm") is not None:
            data["overlay_three_sigma_nm"] = _coerce_float(
                data["overlay_three_sigma_nm"], "scenario.overlay_three_sigma_nm"
            )
        for name in ("stored_value", "vss_strap_interval_cells"):
            if name in data:
                data[name] = _coerce_int(data[name], f"scenario.{name}")
        return cls(**data)


@dataclass(frozen=True)
class OperationSpec:
    """Measurement settings of the operation, Monte-Carlo and yield layers.

    ``operations`` selects which SRAM operations an ``operations`` or
    ``monte_carlo`` experiment measures; ``samples``/``n_wordlines``
    parameterise the Monte-Carlo engine; ``mc_sigma`` adds the
    Monte-Carlo σ tables to an ``operations`` experiment; and
    ``budget_percent``/``target_ppm`` are the ``yield`` experiment's
    spec-compliance knobs.
    """

    operations: Tuple[str, ...] = ("read",)
    samples: int = 500
    n_wordlines: int = 64
    mc_sigma: bool = False
    budget_percent: float = 10.0
    target_ppm: float = 100.0

    def __post_init__(self) -> None:
        if not self.operations:
            raise SpecError("operation.operations needs at least one operation")
        for name in self.operations:
            ensure_operation(name, error=SpecError)
        if len(set(self.operations)) != len(self.operations):
            raise SpecError(f"operation.operations must be unique, got {self.operations}")
        if self.samples < 2:
            raise SpecError("operation.samples must be at least 2")
        if self.n_wordlines < 1:
            raise SpecError("operation.n_wordlines must be positive")
        if not self.budget_percent > 0.0:
            raise SpecError("operation.budget_percent must be positive")
        if not self.target_ppm > 0.0:
            raise SpecError("operation.target_ppm must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operations": list(self.operations),
            "samples": self.samples,
            "n_wordlines": self.n_wordlines,
            "mc_sigma": self.mc_sigma,
            "budget_percent": self.budget_percent,
            "target_ppm": self.target_ppm,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OperationSpec":
        payload = _require_mapping(payload, "operation")
        _check_unknown(cls, payload)
        data = dict(payload)
        if "operations" in data:
            data["operations"] = _str_tuple(data["operations"], "operation.operations")
        for name in ("samples", "n_wordlines"):
            if name in data:
                data[name] = _coerce_int(data[name], f"operation.{name}")
        for name in ("budget_percent", "target_ppm"):
            if name in data:
                data[name] = _coerce_float(data[name], f"operation.{name}")
        if "mc_sigma" in data:
            data["mc_sigma"] = bool(data["mc_sigma"])
        return cls(**data)


@dataclass(frozen=True)
class HighSigmaSpec:
    """Settings of the ``yield_hs`` high-sigma yield experiment.

    ``sigma_levels`` name the tail depths to estimate (thresholds are
    ``mean ± level·std`` of the metric's corner distribution unless
    ``threshold_percent`` pins one absolute threshold); ``proposals`` is
    the importance-sampling draw count per level; ``max_calls`` caps the
    real metric evaluations (surrogate fit + promoted solves) per
    corner; ``mc_samples``/``mc_max_sigma`` steer the brute-force
    Monte-Carlo cross-check that serves as the parity oracle at low
    sigma.
    """

    operation: str = "read"
    model: str = "analytical"
    sigma_levels: Tuple[float, ...] = (3.0, 6.0)
    threshold_percent: Optional[float] = None
    proposals: int = 4000
    pilot_samples: int = 512
    surrogate_initial: int = 32
    band_sigma: float = 2.0
    mc_samples: int = 20000
    mc_max_sigma: float = 3.5
    max_calls: int = 100000
    confidence: float = 0.95

    def __post_init__(self) -> None:
        ensure_operation(self.operation, error=SpecError)
        if self.model not in HIGH_SIGMA_MODELS:
            raise SpecError(
                f"high_sigma.model must be one of {HIGH_SIGMA_MODELS}, "
                f"got {self.model!r}"
            )
        if self.model == "analytical" and self.operation != "read":
            raise SpecError(
                "high_sigma.model 'analytical' only covers the read "
                "operation; use 'surface' or 'circuit' for "
                f"{self.operation!r}"
            )
        if not self.sigma_levels:
            raise SpecError("high_sigma.sigma_levels needs at least one level")
        if any(level <= 0.0 for level in self.sigma_levels):
            raise SpecError("high_sigma.sigma_levels must be positive")
        if len(set(self.sigma_levels)) != len(self.sigma_levels):
            raise SpecError(
                f"high_sigma.sigma_levels must be unique, got {self.sigma_levels}"
            )
        if self.proposals < 100:
            raise SpecError("high_sigma.proposals must be at least 100")
        if self.pilot_samples < 2:
            raise SpecError("high_sigma.pilot_samples must be at least 2")
        if self.surrogate_initial < 1:
            raise SpecError("high_sigma.surrogate_initial must be positive")
        if not self.band_sigma >= 0.0:
            raise SpecError("high_sigma.band_sigma must be non-negative")
        if self.mc_samples < 2:
            raise SpecError("high_sigma.mc_samples must be at least 2")
        if not self.mc_max_sigma >= 0.0:
            raise SpecError("high_sigma.mc_max_sigma must be non-negative")
        if self.max_calls < 1:
            raise SpecError("high_sigma.max_calls must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise SpecError("high_sigma.confidence must be within (0, 1)")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operation": self.operation,
            "model": self.model,
            "sigma_levels": list(self.sigma_levels),
            "threshold_percent": self.threshold_percent,
            "proposals": self.proposals,
            "pilot_samples": self.pilot_samples,
            "surrogate_initial": self.surrogate_initial,
            "band_sigma": self.band_sigma,
            "mc_samples": self.mc_samples,
            "mc_max_sigma": self.mc_max_sigma,
            "max_calls": self.max_calls,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HighSigmaSpec":
        payload = _require_mapping(payload, "high_sigma")
        _check_unknown(cls, payload)
        data = dict(payload)
        if "sigma_levels" in data:
            data["sigma_levels"] = _float_tuple(
                data["sigma_levels"], "high_sigma.sigma_levels"
            )
        if data.get("threshold_percent") is not None:
            data["threshold_percent"] = _coerce_float(
                data["threshold_percent"], "high_sigma.threshold_percent"
            )
        for name in ("proposals", "pilot_samples", "surrogate_initial", "mc_samples", "max_calls"):
            if name in data:
                data[name] = _coerce_int(data[name], f"high_sigma.{name}")
        for name in ("band_sigma", "mc_max_sigma", "confidence"):
            if name in data:
                data[name] = _coerce_float(data[name], f"high_sigma.{name}")
        return cls(**data)


@dataclass(frozen=True)
class ExecutionSpec:
    """How to execute: backend, worker count, seed, store, ladder resolution.

    ``backend`` selects the executor (see :data:`EXECUTION_BACKENDS`):
    ``serial`` runs in-process, ``process`` fans work out over
    ``workers`` processes through the campaign's chunked pool, and
    ``auto`` sizes the pool to the CPUs the process may run on.  Seeding
    stays crc32-per-item regardless of the backend, so results are
    bit-identical across all three.
    """

    backend: str = "serial"
    workers: int = 1
    seed: int = 2015
    store_dir: Optional[str] = None
    max_segments: int = 64
    #: Per-item failure policy (see :data:`FAILURE_POLICIES`): fail_fast
    #: aborts on the first failed item, skip records it as a typed error
    #: row, retry re-attempts with backoff + rescue escalation first.
    failure_policy: str = "fail_fast"
    #: Extra attempts per item under ``failure_policy="retry"``.
    max_retries: int = 2
    #: Optional wall-clock deadline per item attempt, in seconds.  A
    #: campaign with a deadline solves each item on its own, so the
    #: deadline bounds attempt 0 too; records are the same either way.
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise SpecError(
                f"execution.backend must be one of {EXECUTION_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.workers < 1:
            raise SpecError("execution.workers must be at least 1")
        if self.max_segments < 1:
            raise SpecError("execution.max_segments must be positive")
        if self.failure_policy not in FAILURE_POLICIES:
            raise SpecError(
                f"execution.failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.max_retries < 0:
            raise SpecError("execution.max_retries must be non-negative")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise SpecError("execution.timeout_s must be positive when set")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "seed": self.seed,
            "store_dir": self.store_dir,
            "max_segments": self.max_segments,
            "failure_policy": self.failure_policy,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionSpec":
        payload = _require_mapping(payload, "execution")
        data = dict(payload)
        # Documents from when the solver tier was a setting still load;
        # how attempt 0 is solved now follows from ``timeout_s`` alone.
        if data.get("solver") in ("scalar", "batched"):
            del data["solver"]
        _check_unknown(cls, data)
        for name in ("workers", "seed", "max_segments", "max_retries"):
            if name in data:
                data[name] = _coerce_int(data[name], f"execution.{name}")
        if data.get("timeout_s") is not None:
            data["timeout_s"] = _coerce_float(data["timeout_s"], "execution.timeout_s")
        if data.get("store_dir") is not None:
            data["store_dir"] = str(data["store_dir"])
        return cls(**data)


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, serialisable experiment description.

    ``kind`` selects the engine :func:`repro.api.run` dispatches to:

    =============  =====================================================
    kind           what runs
    =============  =====================================================
    campaign       the batched scenario × DOE simulation campaign
    worst_case     the ±3σ corner search (Table I records)
    operations     worst-case impact tables of one or more operations
                   (read = Fig. 4, write, hold_snm, read_snm), plus
                   optional Monte-Carlo σ tables (``mc_sigma``)
    monte_carlo    Monte-Carlo σ of the per-operation impact (Table IV)
    yield          spec-compliance / overlay-requirement analysis
    yield_hs       high-sigma yield: surrogate-screened importance
                   sampling with a brute-force cross-check at low sigma
    =============  =====================================================
    """

    kind: str = "campaign"
    schema_version: int = SCHEMA_VERSION
    technology: TechnologySpec = field(default_factory=TechnologySpec)
    array: ArraySpec = field(default_factory=ArraySpec)
    scenarios: Tuple[ScenarioSpec, ...] = field(default_factory=lambda: (ScenarioSpec(),))
    operation: OperationSpec = field(default_factory=OperationSpec)
    high_sigma: HighSigmaSpec = field(default_factory=HighSigmaSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise SpecError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if self.schema_version != SCHEMA_VERSION:
            raise SpecError(
                f"schema_version {self.schema_version!r} is not supported by this "
                f"version of repro (expected {SCHEMA_VERSION}); regenerate the spec "
                "with `repro spec dump` or migrate it"
            )
        if not isinstance(self.scenarios, tuple):
            object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise SpecError("the spec needs at least one scenario")
        labels = [scenario.label for scenario in self.scenarios]
        if len(set(labels)) != len(labels):
            raise SpecError(f"scenario labels must be unique, got {labels}")

    # -- serialisation ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "technology": self.technology.to_dict(),
            "array": self.array.to_dict(),
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "operation": self.operation.to_dict(),
            "high_sigma": self.high_sigma.to_dict(),
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        payload = _require_mapping(payload, "experiment spec")
        _check_unknown(cls, payload)
        data = dict(payload)
        if "schema_version" in data:
            data["schema_version"] = _coerce_int(data["schema_version"], "schema_version")
        if "technology" in data:
            data["technology"] = TechnologySpec.from_dict(data["technology"])
        if "array" in data:
            data["array"] = ArraySpec.from_dict(data["array"])
        if "scenarios" in data:
            scenarios = data["scenarios"]
            if isinstance(scenarios, (str, Mapping)):
                raise SpecError("scenarios must be a list of scenario objects")
            data["scenarios"] = tuple(
                ScenarioSpec.from_dict(scenario) for scenario in scenarios
            )
        if "operation" in data:
            data["operation"] = OperationSpec.from_dict(data["operation"])
        if "high_sigma" in data:
            data["high_sigma"] = HighSigmaSpec.from_dict(data["high_sigma"])
        if "execution" in data:
            data["execution"] = ExecutionSpec.from_dict(data["execution"])
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    # -- content addressing -------------------------------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The fingerprint payload: ``to_dict()`` minus result-neutral keys.

        ``schema_version`` stays in, so a schema bump re-addresses every
        experiment; the execution fields in
        :data:`FINGERPRINT_NEUTRAL_EXECUTION_FIELDS` drop out, so the
        same study run serially or on eight workers hits the same cache
        entry.  The ``high_sigma`` section only participates for
        ``yield_hs`` experiments — no other kind reads it, so keeping it
        out preserves every pre-existing fingerprint (and hence every
        cached result) across the schema's growth.
        """
        payload = self.to_dict()
        for name in FINGERPRINT_NEUTRAL_EXECUTION_FIELDS:
            payload["execution"].pop(name)
        if self.kind != "yield_hs":
            payload.pop("high_sigma")
        return payload

    def fingerprint(self) -> str:
        """Content address of this experiment (hex SHA-256).

        Hashes the canonical JSON (sorted keys, minimal separators) of
        :meth:`canonical_dict`; equal experiments — however their spec
        documents were formatted or which executor they name — share one
        fingerprint.
        """
        text = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- construction helpers -----------------------------------------------------------

    def with_scenarios(self, scenarios: Sequence[ScenarioSpec]) -> "ExperimentSpec":
        """A copy of this spec with the scenario list replaced."""
        from dataclasses import replace

        return replace(self, scenarios=tuple(scenarios))

    def with_execution(self, execution: ExecutionSpec) -> "ExperimentSpec":
        """A copy of this spec with the execution section replaced."""
        from dataclasses import replace

        return replace(self, execution=execution)

    def describe(self) -> str:
        """One human line: kind, grid shape and execution settings."""
        return (
            f"{self.kind} spec (schema v{self.schema_version}): "
            f"node={self.technology.node}"
            f"@OL{self.technology.overlay_three_sigma_nm:g}nm, "
            f"sizes={list(self.array.sizes)}, "
            f"options={list(self.array.options)}, "
            f"scenarios={[scenario.label for scenario in self.scenarios]}, "
            f"operations={list(self.operation.operations)}, "
            f"backend={self.execution.backend}/{self.execution.workers}w, "
            f"seed={self.execution.seed}"
        )


def spec_fingerprint(spec: "ExperimentSpec") -> str:
    """Module-level alias of :meth:`ExperimentSpec.fingerprint`."""
    return spec.fingerprint()


def scenario_spec_grid(
    overlay_budgets_nm: Sequence[Optional[float]] = (None,),
    stored_values: Sequence[int] = (0,),
    strap_intervals: Sequence[int] = (256,),
    methods: Sequence[str] = ("backward-euler",),
    operations: Sequence[str] = ("read",),
) -> Tuple[ScenarioSpec, ...]:
    """Cross scenario axes into :class:`ScenarioSpec` tuples.

    The serialisable twin of
    :func:`~repro.core.campaign.scenario_grid` — same axes, same
    self-describing labels — so spec documents and in-memory campaigns
    name their scenarios identically.
    """
    from .campaign import scenario_grid

    return tuple(
        ScenarioSpec.from_scenario(scenario)
        for scenario in scenario_grid(
            overlay_budgets_nm=overlay_budgets_nm,
            stored_values=stored_values,
            strap_intervals=strap_intervals,
            methods=methods,
            operations=operations,
        )
    )
