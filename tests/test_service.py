"""Tests of the service layer (repro.service).

The acceptance bar: a cache hit returns bit-identical rows, identical
in-flight submissions coalesce into one computation, and a full HTTP
round trip (submit → wait → fetch) reproduces a direct ``api.run`` at
``rtol <= 1e-12`` for at least two experiment kinds.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.api import ResultSet, run
from repro.core.spec import (
    SCHEMA_VERSION,
    ArraySpec,
    ExecutionSpec,
    ExperimentSpec,
    OperationSpec,
    SpecError,
    spec_fingerprint,
)
from repro.core.results import atomic_write_text
from repro.service.cache import ResultCache
from repro.service.client import ExperimentClient, ServiceError
from repro.service.queue import ExperimentQueue, JobError, JobState
from repro.service.server import ExperimentServer


def campaign_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(
        kind="campaign", array=ArraySpec(sizes=(16,)), **overrides
    )


def worst_case_spec() -> ExperimentSpec:
    return ExperimentSpec(kind="worst_case", array=ArraySpec(sizes=(16,)))


def tiny_result(spec: ExperimentSpec, value: float = 1.0) -> ResultSet:
    """A synthetic ResultSet for queue/cache plumbing tests."""
    return ResultSet(
        spec=spec,
        records=[{"record": "stub", "value": value, "nested": {"a": [1, 2]}}],
        meta={"stub": True},
    )


def wait_until(predicate, timeout_s=5.0, interval_s=0.01):
    """Poll until ``predicate()`` is truthy (the settle callbacks run on
    worker threads, slightly after ``result()`` returns)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval_s)
    return True


def assert_records_match(actual, reference, rtol=1e-12):
    """Element-wise record parity; ``wall_s`` is wall-clock, not physics."""
    assert len(actual) == len(reference)
    for got, want in zip(actual, reference):
        want = json.loads(json.dumps(want))  # tuples -> lists, like the wire
        assert set(got) == set(want)
        for key, expected in want.items():
            if key == "wall_s":
                continue
            value = got[key]
            if isinstance(expected, float) and not isinstance(expected, bool):
                np.testing.assert_allclose(value, expected, rtol=rtol)
            else:
                assert value == expected, (key, value, expected)


# -- fingerprints ------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_and_hex(self):
        spec = campaign_spec()
        assert spec.fingerprint() == spec.fingerprint() == spec_fingerprint(spec)
        assert len(spec.fingerprint()) == 64
        int(spec.fingerprint(), 16)

    def test_execution_placement_is_neutral(self):
        serial = campaign_spec(execution=ExecutionSpec(backend="serial"))
        pooled = campaign_spec(
            execution=ExecutionSpec(backend="process", workers=8, store_dir="runs/x")
        )
        assert serial.fingerprint() == pooled.fingerprint()

    def test_result_bearing_fields_change_it(self):
        base = campaign_spec()
        assert base.fingerprint() != campaign_spec(
            execution=ExecutionSpec(seed=7)
        ).fingerprint()
        assert base.fingerprint() != campaign_spec(
            execution=ExecutionSpec(max_segments=32)
        ).fingerprint()
        assert base.fingerprint() != worst_case_spec().fingerprint()
        assert base.fingerprint() != campaign_spec(
            operation=OperationSpec(samples=100)
        ).fingerprint()

    def test_canonical_dict_keeps_schema_version(self):
        payload = campaign_spec().canonical_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "backend" not in payload["execution"]
        assert "seed" in payload["execution"]


# -- ResultSet persistence ---------------------------------------------------------------


class TestResultSetRoundTrip:
    def test_from_dict_restores_records_meta_and_spec(self):
        spec = campaign_spec()
        original = tiny_result(spec, value=0.1 + 0.2)
        restored = ResultSet.from_json(original.to_json())
        assert restored.spec == spec
        assert restored.records == original.records
        assert restored.meta["stub"] is True
        assert restored.payload is None
        assert restored.to_dict() == original.to_dict()

    def test_float_bits_survive(self):
        value = 5.381559323179346e-12
        restored = ResultSet.from_json(tiny_result(campaign_spec(), value).to_json())
        assert restored.records[0]["value"] == value  # exact, not approximate

    def test_payload_free_text_rendering(self):
        restored = ResultSet.from_json(tiny_result(campaign_spec()).to_json())
        text = restored.to_text()
        assert "record" in text and "stub" in text

    def test_malformed_payloads_rejected(self):
        with pytest.raises(SpecError):
            ResultSet.from_json("not json")
        with pytest.raises(SpecError):
            ResultSet.from_dict({"records": []})
        with pytest.raises(SpecError):
            ResultSet.from_dict(
                {"spec": campaign_spec().to_dict(), "records": "nope"}
            )


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]  # no tmp litter


# -- the result cache --------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        assert cache.get(spec) is None
        result = tiny_result(spec, value=1.0 / 3.0)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.records == result.records  # bit-identical through JSON
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_schema_version_mismatch_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        cache.put(spec, tiny_result(spec))
        entry = cache.path_for(spec.fingerprint())
        payload = json.loads(entry.read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        entry.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not entry.exists()
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        cache.put(spec, tiny_result(spec))
        entry = cache.path_for(spec.fingerprint())
        entry.write_text("{ torn")
        assert cache.get(spec) is None
        # Quarantined, not deleted: the corrupt bytes survive for
        # post-mortems under .json.corrupt, invisible to the store.
        quarantined = entry.with_name(entry.name + ".corrupt")
        assert not entry.exists()
        assert quarantined.read_text() == "{ torn"
        assert cache.stats.quarantined == 1
        assert cache.stats.invalidations == 0
        assert cache.stats.misses == 1
        assert len(cache) == 0
        # The next get is a plain miss and the next put repopulates.
        cache.put(spec, tiny_result(spec))
        assert cache.get(spec) is not None

    def test_lru_eviction_prefers_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        specs = [
            campaign_spec(execution=ExecutionSpec(seed=seed)) for seed in (1, 2, 3)
        ]
        cache.put(specs[0], tiny_result(specs[0]))
        time.sleep(0.02)
        cache.put(specs[1], tiny_result(specs[1]))
        time.sleep(0.02)
        # Touch the oldest so the middle entry becomes LRU.
        assert cache.get(specs[0]) is not None
        time.sleep(0.02)
        cache.put(specs[2], tiny_result(specs[2]))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(specs[1]) is None      # evicted
        assert cache.get(specs[0]) is not None  # kept (recently used)
        assert cache.get(specs[2]) is not None  # kept (just written)

    def test_clear_and_stats_dict(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        cache.put(spec, tiny_result(spec))
        stats = cache.stats_dict()
        assert stats["entries"] == 1 and stats["max_entries"] == 256
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_api_run_uses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(kind="worst_case", array=ArraySpec(sizes=(16,)))
        first = run(spec, cache=cache)
        assert cache.stats.stores == 1
        second = run(spec, cache=cache)
        assert cache.stats.hits == 1
        assert second.payload is None
        assert_records_match(second.records, first.records)


# -- the job queue -----------------------------------------------------------------------


class TestExperimentQueue:
    def test_submit_runs_and_returns_result(self):
        spec = campaign_spec()
        with ExperimentQueue(workers=1, runner=lambda s: tiny_result(s, 42.0)) as queue:
            job = queue.submit(spec)
            assert job.fingerprint == spec.fingerprint()
            result = queue.result(job.id, timeout=5)
            assert result.records[0]["value"] == 42.0
            assert queue.status(job.id)["state"] == JobState.DONE
            assert queue.status(job.id)["n_records"] == 1

    def test_result_returns_only_a_settled_job(self, monkeypatch):
        # concurrent.futures wakes result() waiters before it runs the
        # done-callbacks; a slow settle callback must not let result()
        # return while the job still reads "running".
        make_settler = ExperimentQueue._make_settler

        def slow_settler(self, job_id):
            settle = make_settler(self, job_id)

            def slowly(future):
                time.sleep(0.2)
                settle(future)

            return slowly

        monkeypatch.setattr(ExperimentQueue, "_make_settler", slow_settler)
        with ExperimentQueue(workers=1, runner=lambda s: tiny_result(s, 5.0)) as queue:
            job = queue.submit(campaign_spec())
            assert queue.result(job.id, timeout=5).records[0]["value"] == 5.0
            assert queue.status(job.id)["state"] == JobState.DONE

    def test_identical_inflight_submissions_coalesce(self):
        release = threading.Event()
        started = threading.Event()
        calls = []

        def slow_runner(spec):
            calls.append(spec.fingerprint())
            started.set()
            release.wait(timeout=10)
            return tiny_result(spec, 7.0)

        spec = campaign_spec()
        with ExperimentQueue(workers=2, runner=slow_runner) as queue:
            first = queue.submit(spec)
            assert started.wait(timeout=5)
            second = queue.submit(spec)
            third = queue.submit(campaign_spec(execution=ExecutionSpec(seed=9)))
            assert second.coalesced and not first.coalesced and not third.coalesced
            release.set()
            a = queue.result(first.id, timeout=10)
            b = queue.result(second.id, timeout=10)
            assert a is b  # one computation, shared result
            queue.result(third.id, timeout=10)
            assert wait_until(lambda: queue.stats()["completed"] == 3)
            stats = queue.stats()
        assert calls.count(spec.fingerprint()) == 1
        assert stats["coalesced"] == 1 and stats["submitted"] == 3

    def test_cache_short_circuits_submission(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        cache.put(spec, tiny_result(spec, 3.0))

        def forbidden(spec):
            raise AssertionError("cached submission must not compute")

        with ExperimentQueue(workers=1, cache=cache, runner=forbidden) as queue:
            job = queue.submit(spec)
            assert job.cached and job.state == JobState.DONE
            assert queue.result(job.id).records[0]["value"] == 3.0
            assert queue.stats()["cache_hits"] == 1

    def test_fresh_results_land_in_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        with ExperimentQueue(workers=1, cache=cache, runner=tiny_result) as queue:
            queue.result(queue.submit(spec).id, timeout=5)
            second = queue.submit(spec)
            assert second.cached

    def test_failed_job_reports_its_error(self):
        def boom(spec):
            raise RuntimeError("solver exploded")

        with ExperimentQueue(workers=1, runner=boom) as queue:
            job = queue.submit(campaign_spec())
            with pytest.raises(JobError, match="solver exploded"):
                queue.result(job.id, timeout=5)
            status = queue.status(job.id)
            assert status["state"] == JobState.FAILED
            assert "solver exploded" in status["error"]
            assert queue.stats()["failed"] == 1

    def test_unknown_job_id(self):
        with ExperimentQueue(workers=1, runner=tiny_result) as queue:
            with pytest.raises(JobError):
                queue.status("job-999999")
            with pytest.raises(JobError):
                queue.result("job-999999")

    def test_cancel_queued_job(self):
        release = threading.Event()

        def slow_runner(spec):
            release.wait(timeout=10)
            return tiny_result(spec)

        with ExperimentQueue(workers=1, runner=slow_runner) as queue:
            blocker = queue.submit(campaign_spec())
            queued = queue.submit(campaign_spec(execution=ExecutionSpec(seed=5)))
            assert queue.cancel(queued.id) is True
            assert queue.status(queued.id)["state"] == JobState.CANCELLED
            with pytest.raises(JobError, match="cancelled"):
                queue.result(queued.id)
            release.set()
            queue.result(blocker.id, timeout=10)
            assert queue.stats()["cancelled"] == 1

    def test_cancelling_a_coalesced_job_keeps_the_shared_computation(self):
        release = threading.Event()
        started = threading.Event()

        def slow_runner(spec):
            started.set()
            release.wait(timeout=10)
            return tiny_result(spec, 11.0)

        spec = campaign_spec()
        with ExperimentQueue(workers=1, runner=slow_runner) as queue:
            first = queue.submit(spec)
            assert started.wait(timeout=5)
            second = queue.submit(spec)
            assert queue.cancel(second.id) is True
            release.set()
            assert queue.result(first.id, timeout=10).records[0]["value"] == 11.0


# -- the HTTP server ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with ExperimentServer(
        cache_dir=tmp_path_factory.mktemp("service-cache"), workers=2
    ) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ExperimentClient(server.url, timeout_s=30.0)


class TestServerRoundTrip:
    @pytest.mark.parametrize(
        "spec_factory", [campaign_spec, worst_case_spec], ids=["campaign", "worst_case"]
    )
    def test_parity_with_direct_run(self, client, spec_factory):
        spec = spec_factory()
        direct = run(spec)
        remote = client.run(spec, timeout_s=120.0)
        assert remote.kind == spec.kind
        assert remote.spec == spec
        assert_records_match(remote.records, direct.records)

    def test_second_submission_is_a_cache_hit(self, client):
        spec = campaign_spec()
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=120.0)
        second = client.submit(spec)
        assert second["cached"] is True
        assert second["state"] == "done"
        assert_records_match(
            client.result_set(second["id"]).records,
            client.result_set(first["id"]).records,
            rtol=0,  # served bytes are identical, not merely close
        )

    def test_result_formats(self, client):
        spec = worst_case_spec()
        ticket = client.submit(spec)
        client.wait(ticket["id"], timeout_s=60.0)
        as_json = client.result_text(ticket["id"], fmt="json")
        as_csv = client.result_text(ticket["id"], fmt="csv")
        as_text = client.result_text(ticket["id"], fmt="text")
        payload = json.loads(as_json)
        assert payload["kind"] == "worst_case" and payload["n_records"] > 0
        assert as_csv.splitlines()[0].startswith("record,")
        assert "worst_corner" in as_text
        with pytest.raises(ServiceError, match="unknown result format"):
            client.result_text(ticket["id"], fmt="yaml")

    def test_identical_bytes_for_cached_and_fresh_responses(self, client):
        spec = campaign_spec()
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=120.0)
        second = client.submit(spec)
        for fmt in ("json", "csv", "text"):
            assert client.result_text(first["id"], fmt) == client.result_text(
                second["id"], fmt
            )

    def test_healthz_reports_cache_and_queue(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["cache"]) >= {"hits", "misses", "stores", "entries"}
        assert set(health["queue"]) >= {"submitted", "completed", "in_flight"}

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-424242")
        assert err.value.status == 404

    def test_invalid_spec_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request_json(
                "/v1/experiments", method="POST", body='{"kind": "bogus"}'
            )
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request_json("/v1/experiments", method="POST", body="{ torn")
        assert err.value.status == 400

    def test_job_listing(self, client):
        jobs = client._request_json("/v1/experiments")["jobs"]
        assert jobs and all("state" in job for job in jobs)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request_json("/v1/nope")
        assert err.value.status == 404


# -- fault tolerance: retries, drops, truncation, restart recovery -----------------------


class TestClientRetries:
    def test_unreachable_server_reports_every_attempt(self):
        client = ExperimentClient(
            "http://127.0.0.1:9", timeout_s=0.5, max_retries=2, backoff_s=0.001
        )
        with pytest.raises(ServiceError, match="after 3 attempts"):
            client.health()

    def test_zero_retries_is_single_shot(self):
        client = ExperimentClient(
            "http://127.0.0.1:9", timeout_s=0.5, max_retries=0
        )
        with pytest.raises(ServiceError, match="after 1 attempt"):
            client.health()

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError):
            ExperimentClient(max_retries=-1)
        with pytest.raises(ValueError):
            ExperimentClient(backoff_s=-0.1)

    def test_http_errors_are_not_retried(self, client):
        # The server answered: surface its message immediately (a retry
        # would repeat the same 400).
        with pytest.raises(ServiceError) as err:
            client._request_json(
                "/v1/experiments", method="POST", body='{"kind": "bogus"}'
            )
        assert err.value.status == 400

    def test_dropped_response_is_retried_transparently(self, tmp_path):
        from repro.testing import FaultPlan
        from repro.testing.faults import injected

        with ExperimentServer(workers=1) as server:
            retrying = ExperimentClient(
                server.url, timeout_s=10.0, max_retries=2, backoff_s=0.01
            )
            plan = FaultPlan(state_dir=str(tmp_path / "faults"), http_drop_first=1)
            with injected(plan):
                # First response severed mid-request; the retry succeeds
                # and coalesces/dedupes on the server side.
                health = retrying.health()
            assert health["status"] == "ok"

    def test_dropped_response_without_retries_fails(self, tmp_path):
        from repro.testing import FaultPlan
        from repro.testing.faults import injected

        with ExperimentServer(workers=1) as server:
            single_shot = ExperimentClient(server.url, timeout_s=10.0, max_retries=0)
            plan = FaultPlan(state_dir=str(tmp_path / "faults"), http_drop_first=1)
            with injected(plan):
                with pytest.raises(ServiceError, match="after 1 attempt"):
                    single_shot.health()


class TestCacheTruncationFault:
    def test_truncated_put_is_quarantined_on_read(self, tmp_path):
        from repro.testing import FaultPlan
        from repro.testing.faults import injected

        cache = ResultCache(tmp_path)
        spec = campaign_spec()
        plan = FaultPlan(cache_truncate_fingerprints=(spec.fingerprint(),))
        with injected(plan):
            cache.put(spec, tiny_result(spec))
        # The stored entry was torn mid-write; reading it quarantines.
        assert cache.get(spec) is None
        assert cache.stats.quarantined == 1
        corrupt = list(tmp_path.glob("*.json.corrupt"))
        assert len(corrupt) == 1


class TestServerDurability:
    def test_restart_recovers_journaled_jobs_byte_identically(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = campaign_spec()
        # A dead server journaled this submission and was killed -9
        # before computing it.
        from repro.service.journal import JobJournal

        JobJournal(cache_dir / "journal.jsonl").record_submitted(
            spec.fingerprint(), spec
        )
        with ExperimentServer(cache_dir=cache_dir, workers=1) as server:
            assert server.recovered == 1
            recovered_client = ExperimentClient(server.url, timeout_s=30.0)
            # The recovered job is visible and completes.
            jobs = server.queue.jobs()
            assert len(jobs) == 1
            recovered_client.wait(jobs[0]["id"], timeout_s=120.0)
            recovered_bytes = recovered_client.result_text(jobs[0]["id"], fmt="json")
            # A fresh submission of the same spec re-serves the recovered
            # computation from the cache, byte-identically.
            ticket = recovered_client.submit(spec)
            assert ticket["cached"] is True
            assert (
                recovered_client.result_text(ticket["id"], fmt="json")
                == recovered_bytes
            )
            # And the journal is settled: nothing outstanding remains.
            health = recovered_client.health()
            assert health["queue"]["recovered"] == 1
            assert health["queue"]["journal"]["outstanding"] == 0
        # Parity with a direct run (the recovered records are the real
        # computation, not a placeholder).
        direct = run(spec)
        assert_records_match(
            ResultSet.from_json(recovered_bytes).records, direct.records
        )

    def test_journal_defaults_beside_the_cache(self, tmp_path):
        with ExperimentServer(cache_dir=tmp_path / "cache", workers=1) as server:
            assert server.journal is not None
            assert server.journal.path == tmp_path / "cache" / "journal.jsonl"
        with ExperimentServer(workers=1) as server:
            assert server.journal is None

    def test_stop_serving_then_drain_completes_inflight_work(self, tmp_path):
        with ExperimentServer(cache_dir=tmp_path / "cache", workers=1) as server:
            submitting = ExperimentClient(server.url, timeout_s=30.0)
            ticket = submitting.submit(campaign_spec())
            server.stop_serving()
            # Listener closed, but the in-flight job still completes
            # within the drain budget and settles its journal obligation.
            assert server.drain(timeout_s=120.0) is True
            assert server.queue.status(ticket["id"])["state"] == "done"
            assert server.journal.outstanding_count() == 0
