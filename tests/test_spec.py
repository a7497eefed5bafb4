"""Tests of the declarative spec layer (repro.core.spec).

Covers the golden checked-in spec documents (one per SRAM operation),
the lossless JSON round trip, strict validation, the spec↔engine
bridges and the campaign store's schema-version handling.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.campaign import CampaignError, CampaignScenario, CampaignStore, scenario_grid
from repro.core.spec import (
    EXPERIMENT_KINDS,
    SCHEMA_VERSION,
    ArraySpec,
    ExecutionSpec,
    ExperimentSpec,
    OperationSpec,
    ScenarioSpec,
    SpecError,
    TechnologySpec,
    scenario_spec_grid,
)
from repro.core.study import MultiPatterningSRAMStudy

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
GOLDEN_SPECS = sorted(GOLDEN_DIR.glob("*.json"))


class TestGoldenSpecs:
    def test_golden_directory_covers_every_operation(self):
        names = {path.stem for path in GOLDEN_SPECS}
        assert {"smoke", "read", "write", "hold_snm", "read_snm", "yield_hs"} <= names

    @pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
    def test_golden_spec_round_trips_losslessly(self, path):
        spec = ExperimentSpec.from_json(path.read_text(encoding="utf-8"))
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.schema_version == SCHEMA_VERSION

    @pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
    def test_golden_file_is_the_canonical_serialisation(self, path):
        text = path.read_text(encoding="utf-8")
        assert ExperimentSpec.from_json(text).to_json() == text

    def test_golden_operations_span_all_four(self):
        operations = set()
        for path in GOLDEN_SPECS:
            spec = ExperimentSpec.from_json(path.read_text(encoding="utf-8"))
            operations.update(spec.operation.operations)
            operations.update(s.operation for s in spec.scenarios)
        assert operations >= {"read", "write", "hold_snm", "read_snm"}


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_round_trips(self, kind):
        spec = ExperimentSpec(
            kind=kind,
            technology=TechnologySpec(overlay_three_sigma_nm=5.0),
            array=ArraySpec(sizes=(16, 64), overlay_budgets_nm=(3.0, 8.0)),
            scenarios=scenario_spec_grid(stored_values=(0, 1)),
            operation=OperationSpec(
                operations=("write", "read"), samples=64, mc_sigma=True
            ),
            execution=ExecutionSpec(
                backend="process", workers=3, seed=7, store_dir="runs/x"
            ),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_json_integers_and_floats_coerce_stably(self):
        payload = json.loads(ExperimentSpec().to_json())
        payload["technology"]["overlay_three_sigma_nm"] = 8  # int instead of float
        spec = ExperimentSpec.from_dict(payload)
        assert spec == ExperimentSpec()

    def test_scenario_lists_become_tuples(self):
        spec = ExperimentSpec(scenarios=[ScenarioSpec()])
        assert isinstance(spec.scenarios, tuple)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            ExperimentSpec(kind="erase")

    def test_foreign_schema_version_rejected(self):
        with pytest.raises(SpecError, match="schema_version"):
            ExperimentSpec(schema_version=SCHEMA_VERSION + 1)

    def test_unknown_top_level_key_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["flux_capacitor"] = True
        with pytest.raises(SpecError, match="flux_capacitor"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_nested_key_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["execution"]["threads"] = 8
        with pytest.raises(SpecError, match="threads"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_operation_rejected(self):
        with pytest.raises(SpecError, match="unknown operation"):
            OperationSpec(operations=("erase",))

    @pytest.mark.parametrize("tier", ("scalar", "batched"))
    def test_legacy_solver_tier_key_is_dropped(self, tier):
        # Documents from when the campaign's solver tier was a setting
        # still load, as the same experiment.
        payload = ExperimentSpec().to_dict()
        payload["execution"]["solver"] = tier
        spec = ExperimentSpec.from_dict(payload)
        assert spec == ExperimentSpec()
        assert "solver" not in spec.to_dict()["execution"]
        assert spec.fingerprint() == ExperimentSpec().fingerprint()

    def test_unknown_solver_value_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["execution"]["solver"] = "gpu"
        with pytest.raises(SpecError, match="solver"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            ExecutionSpec(backend="quantum")

    def test_unknown_node_rejected(self):
        with pytest.raises(SpecError, match="node"):
            TechnologySpec(node="n3")

    def test_duplicate_scenario_labels_rejected(self):
        with pytest.raises(SpecError, match="unique"):
            ExperimentSpec(scenarios=(ScenarioSpec(), ScenarioSpec()))

    def test_empty_scenarios_rejected(self):
        with pytest.raises(SpecError, match="scenario"):
            ExperimentSpec(scenarios=())

    def test_bad_stored_value_rejected(self):
        with pytest.raises(SpecError, match="stored_value"):
            ScenarioSpec(stored_value=2)

    def test_bad_array_rejected(self):
        with pytest.raises(SpecError):
            ArraySpec(sizes=())

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            ExperimentSpec.from_json("{not json")


class TestBridges:
    def test_scenario_spec_matches_campaign_scenario(self):
        spec = ScenarioSpec(
            label="x", operation="write", stored_value=1, method="trapezoidal"
        )
        scenario = spec.to_scenario()
        assert isinstance(scenario, CampaignScenario)
        assert scenario.sim_key == "write-sv1-strap256-trap"
        assert ScenarioSpec.from_scenario(scenario) == spec

    def test_scenario_spec_grid_mirrors_scenario_grid_labels(self):
        kwargs = dict(
            overlay_budgets_nm=(None, 5.0),
            stored_values=(0, 1),
            operations=("read", "write"),
        )
        spec_labels = [s.label for s in scenario_spec_grid(**kwargs)]
        engine_labels = [s.label for s in scenario_grid(**kwargs)]
        assert spec_labels == engine_labels

    def test_technology_spec_builds_the_requested_overlay(self):
        node = TechnologySpec(overlay_three_sigma_nm=5.0).build()
        assert node.variations.litho_etch.overlay.three_sigma_nm == 5.0

    def test_array_spec_to_doe(self):
        doe = ArraySpec(sizes=(16,), options=("EUV",)).to_doe()
        assert doe.array_sizes == (16,)
        assert doe.option_names == ("EUV",)

    def test_study_to_spec_from_spec_round_trip(self, node):
        study = MultiPatterningSRAMStudy(node, monte_carlo_samples=64, seed=9)
        spec = study.to_spec(kind="monte_carlo")
        again = MultiPatterningSRAMStudy.from_spec(spec)
        assert again.doe == study.doe
        assert again.monte_carlo_samples == 64
        assert again.seed == 9
        assert (
            again.node.variations.litho_etch.overlay.three_sigma_nm
            == node.variations.litho_etch.overlay.three_sigma_nm
        )


class TestStoreSchemaVersion:
    SIGNATURE = {"array_sizes": [16], "seed": 2015}

    def test_store_rejects_mismatching_schema_version(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.prepare({**self.SIGNATURE, "schema_version": SCHEMA_VERSION})
        with pytest.raises(CampaignError, match="different campaign"):
            CampaignStore(tmp_path / "store").prepare(
                {**self.SIGNATURE, "schema_version": SCHEMA_VERSION + 1}
            )

    def test_pre_spec_store_backfills_version_one(self, tmp_path):
        # Stores written before the spec layer carry no schema_version;
        # they are definitionally version-1 stores and must keep resuming.
        store = CampaignStore(tmp_path / "store")
        store.prepare(dict(self.SIGNATURE))
        CampaignStore(tmp_path / "store").prepare(
            {**self.SIGNATURE, "schema_version": 1}
        )

    def test_spec_stamped_store_resumes_under_same_version(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.prepare({**self.SIGNATURE, "schema_version": SCHEMA_VERSION})
        CampaignStore(tmp_path / "store").prepare(
            {**self.SIGNATURE, "schema_version": SCHEMA_VERSION}
        )


class TestStrictCoercion:
    def test_scalar_string_sizes_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["array"]["sizes"] = "16"  # would iterate to (1, 6)
        with pytest.raises(SpecError, match="sequence of integers"):
            ExperimentSpec.from_dict(payload)

    def test_scalar_string_overlay_budgets_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["array"]["overlay_budgets_nm"] = "8.0"
        with pytest.raises(SpecError, match="sequence of numbers"):
            ExperimentSpec.from_dict(payload)

    def test_scalar_string_operations_rejected(self):
        payload = ExperimentSpec().to_dict()
        payload["operation"]["operations"] = "read"
        with pytest.raises(SpecError, match="bare string"):
            ExperimentSpec.from_dict(payload)


class TestScalarCoercionErrors:
    """Bad scalar values raise SpecError (exit-2 material), not bare
    ValueError tracebacks."""

    def test_non_numeric_samples_rejected_as_spec_error(self):
        payload = ExperimentSpec().to_dict()
        payload["operation"]["samples"] = "many"
        with pytest.raises(SpecError, match="operation.samples"):
            ExperimentSpec.from_dict(payload)

    def test_non_numeric_overlay_rejected_as_spec_error(self):
        payload = ExperimentSpec().to_dict()
        payload["technology"]["overlay_three_sigma_nm"] = "eight"
        with pytest.raises(SpecError, match="technology.overlay_three_sigma_nm"):
            ExperimentSpec.from_dict(payload)

    def test_non_numeric_schema_version_rejected_as_spec_error(self):
        payload = ExperimentSpec().to_dict()
        payload["schema_version"] = "one"
        with pytest.raises(SpecError, match="schema_version"):
            ExperimentSpec.from_dict(payload)

    def test_non_numeric_workers_rejected_as_spec_error(self):
        payload = ExperimentSpec().to_dict()
        payload["execution"]["workers"] = [2]
        with pytest.raises(SpecError, match="execution.workers"):
            ExperimentSpec.from_dict(payload)

    def test_non_numeric_stored_value_rejected_as_spec_error(self):
        payload = ExperimentSpec().to_dict()
        payload["scenarios"][0]["stored_value"] = "zero"
        with pytest.raises(SpecError, match="scenario.stored_value"):
            ExperimentSpec.from_dict(payload)
