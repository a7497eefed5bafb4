"""Tests of the simulation campaign engine.

The paper's Fig. 4 / Table II / Table III rows come only from the
campaign engine: ``WorstCaseStudy.figure4`` and
``FormulaValidation.table2/table3`` are serial one-scenario campaigns,
and the golden corpus (``tests/golden/``) freezes their records.  The
parity pin here is that a process pool changes nothing — everything
downstream of the corner search is a deterministic function of the work
item, so the engine may cache and parallelise freely but never drift.
"""

import json

import pytest

from repro.core.campaign import (
    CampaignError,
    CampaignScenario,
    CampaignStore,
    CampaignWorkerState,
    SimulationCampaign,
    scenario_grid,
)
from repro.core.validation import FormulaValidation
from repro.core.worst_case import WorstCaseStudy
from repro.variability.doe import StudyDOE

SIZES = (16, 64)


@pytest.fixture(scope="module")
def doe():
    return StudyDOE(array_sizes=SIZES)


@pytest.fixture(scope="module")
def serial_rows(node, doe, analytical_model):
    """Fig. 4 / Table II / Table III rows through the public entry points."""
    worst_case = WorstCaseStudy(node, doe=doe)
    validation = FormulaValidation(
        node, doe=doe, model=analytical_model, worst_case=worst_case
    )
    return {
        "figure4": worst_case.figure4(),
        "table2": validation.table2(),
        "table3": validation.table3(),
    }


class TestCampaignParity:
    def test_pool_rows_equal_serial_rows(
        self, node, doe, analytical_model, serial_rows
    ):
        campaign = SimulationCampaign(node, doe=doe)
        # clamp_to_cpus=False: exercise the real process pool even on
        # single-core CI runners.
        results = campaign.run(workers=2, clamp_to_cpus=False)
        assert campaign.figure4_rows(results) == serial_rows["figure4"]
        assert campaign.table2_rows(results, analytical_model) == serial_rows["table2"]
        assert campaign.table3_rows(results, analytical_model) == serial_rows["table3"]

    def test_parallel_records_equal_serial_records(self, node, doe):
        serial_campaign = SimulationCampaign(node, doe=doe)
        serial = serial_campaign.run()
        parallel_campaign = SimulationCampaign(node, doe=doe)
        parallel = parallel_campaign.run(workers=2, clamp_to_cpus=False)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.td_s == b.td_s                 # bit-identical, not just close
            assert a.seed == b.seed
        # Pool workers return their solver counters with their outcomes,
        # so both runs report the same lane work (tick counts differ: the
        # pool batches per chunk, the serial path across chunks).
        for counter in ("batch_lanes", "batch_lane_iterations"):
            assert serial_campaign.last_run_stats[counter] > 0
            assert parallel_campaign.last_run_stats.get(counter) == (
                serial_campaign.last_run_stats[counter]
            )


class TestWorkItems:
    def test_paper_campaign_work_list_shape(self, node, doe):
        campaign = SimulationCampaign(node, doe=doe)
        items = campaign.work_items()
        # One nominal per size plus one corner per (size, option).
        assert len(items) == len(SIZES) * (1 + len(doe.option_names))
        assert len({item.key for item in items}) == len(items)

    def test_nominals_deduplicated_across_overlay_scenarios(self, node):
        scenarios = scenario_grid(overlay_budgets_nm=(3.0, 8.0))
        campaign = SimulationCampaign(
            node, doe=StudyDOE(array_sizes=(16,)), scenarios=scenarios
        )
        items = campaign.work_items()
        nominals = [item for item in items if item.kind == "nominal"]
        # Overlay only moves corners; both scenarios share one nominal.
        assert len(nominals) == 1
        assert len(items) == 1 + 2 * 3

    def test_item_seeds_follow_crc32_scheme(self, node, doe):
        import zlib

        campaign = SimulationCampaign(node, doe=doe, seed=7)
        for item in campaign.work_items():
            expected = zlib.crc32(f"7/{item.key}".encode()) % (2 ** 31)
            assert item.seed == expected

    def test_scenario_validation(self):
        with pytest.raises(CampaignError):
            CampaignScenario(label="bad label")
        with pytest.raises(CampaignError):
            CampaignScenario(stored_value=2)
        with pytest.raises(CampaignError):
            CampaignScenario(method="gear2")
        with pytest.raises(CampaignError):
            CampaignScenario(vss_strap_interval_cells=0)

    def test_duplicate_scenario_labels_rejected(self, node):
        with pytest.raises(CampaignError, match="unique"):
            SimulationCampaign(
                node,
                scenarios=(CampaignScenario(), CampaignScenario(method="trapezoidal")),
            )


class TestScenarioAxes:
    def test_stored_value_changes_the_simulation(self, node):
        doe = StudyDOE(array_sizes=(16,))
        scenarios = scenario_grid(stored_values=(0, 1))
        campaign = SimulationCampaign(node, doe=doe, scenarios=scenarios)
        results = campaign.run()
        sv0 = results.nominal("sv0-strap256-be", 16)
        sv1 = results.nominal("sv1-strap256-be", 16)
        assert sv0.td_s != sv1.td_s
        assert sv0.td_s == pytest.approx(sv1.td_s, rel=0.2)

    def test_trapezoidal_scenario_close_to_backward_euler(self, node):
        doe = StudyDOE(array_sizes=(16,))
        scenarios = scenario_grid(methods=("backward-euler", "trapezoidal"))
        campaign = SimulationCampaign(node, doe=doe, scenarios=scenarios)
        results = campaign.run()
        be = results.nominal("sv0-strap256-be", 16)
        trap = results.nominal("sv0-strap256-trap", 16)
        assert trap.method == "trapezoidal"
        assert trap.td_s == pytest.approx(be.td_s, rel=0.1)

    def test_overlay_sweep_moves_le3_corner_only(self, node):
        doe = StudyDOE(array_sizes=(16,))
        scenarios = scenario_grid(overlay_budgets_nm=(3.0, 8.0))
        campaign = SimulationCampaign(node, doe=doe, scenarios=scenarios)
        results = campaign.run()
        le3_tight = results.corner("ol3nm", "LELELE", 16)
        le3_loose = results.corner("ol8nm", "LELELE", 16)
        assert le3_tight.td_s < le3_loose.td_s
        euv_tight = results.corner("ol3nm", "EUV", 16)
        euv_loose = results.corner("ol8nm", "EUV", 16)
        assert euv_tight.td_s == euv_loose.td_s

    def test_scenario_grid_labels(self):
        labels = [s.label for s in scenario_grid(
            overlay_budgets_nm=(None, 5.0), methods=("backward-euler", "trapezoidal")
        )]
        assert labels == ["paper", "trap", "ol5nm", "ol5nm-trap"]


class TestStoreAndResume:
    def test_store_round_trip_and_resume_skips_work(self, node, tmp_path, monkeypatch):
        doe = StudyDOE(array_sizes=(16,))
        first = SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store")
        results = first.run()
        files = sorted((tmp_path / "store" / "items").glob("*.json"))
        assert len(files) == len(results)

        # A fresh campaign over the same store must not simulate anything.
        def boom(self, item):  # pragma: no cover - failing path
            raise AssertionError("resume re-simulated a completed item")

        monkeypatch.setattr(CampaignWorkerState, "prepare_item", boom)
        resumed = SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store")
        replay = resumed.run()
        assert [r.td_s for r in replay] == [r.td_s for r in results]
        assert [r.key for r in replay] == [r.key for r in results]

    def test_partial_store_resumes_only_missing_items(self, node, tmp_path):
        doe = StudyDOE(array_sizes=(16,))
        campaign = SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store")
        results = campaign.run()
        # Drop one record from the store and rerun: only that item recomputes.
        victim = (tmp_path / "store" / "items" / f"{results.records[-1].key}.json")
        victim.unlink()
        again = SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store")
        replay = again.run()
        assert [r.td_s for r in replay] == [r.td_s for r in results]
        assert victim.exists()

    def test_legacy_store_without_operation_fields_resumes(self, node, tmp_path, monkeypatch):
        """A store written before the operation axis (no operation/value/
        unit in records, no 'operation' in the scenario signature) must
        resume cleanly as a read campaign."""
        doe = StudyDOE(array_sizes=(16,))
        store_dir = tmp_path / "store"
        results = SimulationCampaign(node, doe=doe, store_dir=store_dir).run()

        # Rewrite the store the way the pre-operation-axis code did.
        meta_path = store_dir / "campaign.json"
        meta = json.loads(meta_path.read_text())
        for scenario in meta["signature"]["scenarios"]:
            del scenario["operation"]
        meta_path.write_text(json.dumps(meta))
        for item in (store_dir / "items").glob("*.json"):
            payload = json.loads(item.read_text())
            for field in ("operation", "value", "unit"):
                del payload[field]
            item.write_text(json.dumps(payload))

        monkeypatch.setattr(
            CampaignWorkerState,
            "prepare_item",
            lambda self, item: pytest.fail("legacy resume re-simulated an item"),
        )
        resumed = SimulationCampaign(node, doe=doe, store_dir=store_dir)
        replay = resumed.run()
        assert [r.td_s for r in replay] == [r.td_s for r in results]
        for record in replay:
            assert record.operation == "read"
            assert record.value == record.td_s
        corner = next(r for r in replay if r.kind == "corner")
        assert replay.penalty_percent_for(corner) is not None

    def test_legacy_store_with_batch_stats_resumes(self, node, tmp_path, monkeypatch):
        """Records written while they still copied the joint solve's
        counters carry a ``batch_stats`` field; such a store must resume
        without re-simulating anything."""
        doe = StudyDOE(array_sizes=(16,))
        store_dir = tmp_path / "store"
        results = SimulationCampaign(node, doe=doe, store_dir=store_dir).run()
        for item in (store_dir / "items").glob("*.json"):
            payload = json.loads(item.read_text())
            assert "batch_stats" not in payload
            payload["batch_stats"] = {"batch_ticks": 7, "dense_solves": 11}
            item.write_text(json.dumps(payload))

        monkeypatch.setattr(
            CampaignWorkerState,
            "prepare_item",
            lambda self, item: pytest.fail("legacy resume re-simulated an item"),
        )
        replay = SimulationCampaign(node, doe=doe, store_dir=store_dir).run()
        assert replay.records == results.records

    def test_signature_mismatch_rejected(self, node, tmp_path):
        doe = StudyDOE(array_sizes=(16,))
        SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store").run()
        other = SimulationCampaign(
            node, doe=StudyDOE(array_sizes=(16, 64)), store_dir=tmp_path / "store"
        )
        with pytest.raises(CampaignError, match="different campaign"):
            other.run()

    def test_store_metadata_is_json(self, node, tmp_path):
        doe = StudyDOE(array_sizes=(16,))
        SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store").run()
        meta = json.loads((tmp_path / "store" / "campaign.json").read_text())
        assert meta["format"] == "repro-campaign-store-v1"
        assert meta["signature"]["array_sizes"] == [16]

    def test_failure_mid_campaign_keeps_finished_chunks(
        self, node, tmp_path, monkeypatch
    ):
        doe = StudyDOE(array_sizes=(16, 64))
        campaign = SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store")
        true_prepare_item = CampaignWorkerState.prepare_item

        # Every attempt of every item starts with its preparation, with
        # or without a per-item deadline.
        def failing_prepare_item(self, item):
            if item.n_wordlines == 16:               # the second (smaller) chunk
                raise RuntimeError("injected mid-campaign failure")
            return true_prepare_item(self, item)

        monkeypatch.setattr(CampaignWorkerState, "prepare_item", failing_prepare_item)
        with pytest.raises(RuntimeError, match="injected"):
            campaign.run()
        # The chunk that finished before the failure is checkpointed...
        saved = {p.stem for p in (tmp_path / "store" / "items").glob("*.json")}
        assert any(key.startswith("n64-") for key in saved)
        assert not any(key.startswith("n16-") for key in saved)
        # ...and a rerun only simulates the unfinished items.
        monkeypatch.setattr(CampaignWorkerState, "prepare_item", true_prepare_item)
        resumed = SimulationCampaign(node, doe=doe, store_dir=tmp_path / "store")
        assert len(resumed.run()) == 8

    def test_nominal_only_run_skips_corner_search(self, node, monkeypatch):
        doe = StudyDOE(array_sizes=(16,))
        campaign = SimulationCampaign(node, doe=doe)
        monkeypatch.setattr(
            WorstCaseStudy,
            "find_worst_corner",
            lambda self, name: pytest.fail("nominal-only run searched corners"),
        )
        results = campaign.run(kinds=("nominal",))
        assert len(results) == 1
        assert results.records[0].kind == "nominal"

    def test_unknown_kind_rejected(self, node):
        campaign = SimulationCampaign(node, doe=StudyDOE(array_sizes=(16,)))
        with pytest.raises(CampaignError, match="unknown item kinds"):
            campaign.work_items(kinds=("bogus",))

    def test_nominal_records_are_overlay_neutral(self, node):
        scenarios = scenario_grid(overlay_budgets_nm=(3.0, 8.0))
        campaign = SimulationCampaign(
            node, doe=StudyDOE(array_sizes=(16,)), scenarios=scenarios
        )
        results = campaign.run()
        nominal = results.nominal("sv0-strap256-be", 16)
        # Overlay only moves corners: the shared nominal must not claim the
        # first sweep point's budget or label.
        assert nominal.overlay_three_sigma_nm is None
        assert nominal.scenario_label == "sv0-strap256-be"

    def test_memoized_rerun_without_store(self, node, monkeypatch):
        doe = StudyDOE(array_sizes=(16,))
        campaign = SimulationCampaign(node, doe=doe)
        first = campaign.run()
        monkeypatch.setattr(
            CampaignWorkerState,
            "prepare_item",
            lambda self, item: pytest.fail("memoized rerun re-simulated"),
        )
        second = campaign.run()
        assert [r.key for r in second] == [r.key for r in first]


class TestResultsAccess:
    def test_unknown_key_raises_campaign_error(self, node):
        doe = StudyDOE(array_sizes=(16,))
        results = SimulationCampaign(node, doe=doe).run()
        with pytest.raises(CampaignError, match="no campaign record"):
            results.record("n999-nominal-sv0-strap256-be")

    def test_report_dict_shape(self, node):
        doe = StudyDOE(array_sizes=(16,))
        campaign = SimulationCampaign(node, doe=doe)
        report = campaign.report_dict(campaign.run())
        assert report["n_records"] == 4
        assert {r["kind"] for r in report["records"]} == {"nominal", "corner"}
        json.dumps(report)                          # must be JSON-serialisable
