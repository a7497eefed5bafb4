"""Tests of the fault-injection harness and the campaign failure policies.

The chaos acceptance bar of the fault-tolerance layer: with injected
faults active, ``retry`` reproduces the fault-free records bit-for-bit
for transient faults, ``skip`` isolates the failing items into typed
error rows while every survivor stays bit-identical, pool-worker crashes
are recovered by re-executing the lost chunks, and a twice-crashing
poison item is quarantined instead of crashing workers forever.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest

from repro.core.campaign import (
    CampaignExecutionError,
    SimulationCampaign,
    scenario_grid,
)
from repro.testing import FaultPlan, FaultPlanError, InjectedSolverFault, faults
from repro.testing.faults import FAULTS_ENV, active_plan, injected
from repro.variability.doe import StudyDOE


def nominal_campaign(**overrides) -> SimulationCampaign:
    """A tiny two-chunk campaign (two stored values, one size, nominals)."""
    from repro.technology import n10

    defaults = dict(
        doe=StudyDOE(array_sizes=(16,)),
        scenarios=scenario_grid(stored_values=(0, 1)),
    )
    defaults.update(overrides)
    return SimulationCampaign(n10(), **defaults)


def strip_wall(record):
    """wall_s is wall-clock, not physics; everything else must match."""
    return replace(record, wall_s=0.0)


@pytest.fixture()
def fault_free_records():
    results = nominal_campaign().run(kinds=("nominal",))
    assert not results.failures
    return {record.key: strip_wall(record) for record in results.records}


class TestFaultPlan:
    def test_env_round_trip(self):
        plan = FaultPlan(seed=7, solver_fail_keys=("a", "b"), solver_fail_rate=0.25)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(solver_fail_rate=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(solver_fail_attempts=0)
        with pytest.raises(FaultPlanError):
            FaultPlan(worker_crash_keys=("k",))  # needs state_dir
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"bogus": 1})

    def test_hash_rate_is_deterministic(self):
        plan = FaultPlan(seed=3, solver_fail_rate=0.5)
        first = [plan.hits_solver(f"item-{i}") for i in range(64)]
        assert first == [plan.hits_solver(f"item-{i}") for i in range(64)]
        assert any(first) and not all(first)

    def test_active_plan_absent_and_malformed(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() is None
        monkeypatch.setenv(FAULTS_ENV, "{not json")
        with pytest.raises(FaultPlanError):
            active_plan()

    def test_injected_restores_environment(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        with injected(FaultPlan(seed=1)) as plan:
            assert active_plan() == plan
        assert FAULTS_ENV not in os.environ

    def test_hooks_are_noops_without_a_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        faults.check_solver("any-key")
        faults.maybe_crash_worker("any-key", in_pool_worker=True)
        assert faults.maybe_truncate_cache("fp", "text") == "text"
        assert faults.http_fault() is None


class TestFailurePolicies:
    def test_fail_fast_raises_the_typed_failure(self, fault_free_records):
        campaign = nominal_campaign(failure_policy="fail_fast")
        target = campaign.work_items(kinds=("nominal",))[0].key
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=99)):
            with pytest.raises(CampaignExecutionError) as excinfo:
                campaign.run(kinds=("nominal",))
        assert excinfo.value.failure.key == target
        assert excinfo.value.failure.classification == "injected"

    def test_skip_isolates_the_failure_and_survivors_are_bit_identical(
        self, fault_free_records
    ):
        campaign = nominal_campaign(failure_policy="skip")
        items = campaign.work_items(kinds=("nominal",))
        target = items[0].key
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=99)):
            results = campaign.run(kinds=("nominal",))
        assert [f.key for f in results.failures] == [target]
        failure = results.failures[0]
        assert failure.classification == "injected"
        assert failure.error_type == "InjectedSolverFault"
        assert failure.attempts == 1
        survivors = {record.key: strip_wall(record) for record in results.records}
        assert set(survivors) == set(fault_free_records) - {target}
        for key, record in survivors.items():
            assert record == fault_free_records[key]

    def test_retry_recovers_a_transient_fault_bit_identically(
        self, fault_free_records
    ):
        campaign = nominal_campaign(
            failure_policy="retry", max_retries=2, retry_backoff_s=0.001
        )
        target = campaign.work_items(kinds=("nominal",))[0].key
        # solver_fail_attempts=1: the fault fires on attempt 0 only, so
        # the first retry re-runs clean at rescue level 0 and must
        # reproduce the fault-free record bit-for-bit.
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=1)):
            results = campaign.run(kinds=("nominal",))
        assert not results.failures
        produced = {record.key: strip_wall(record) for record in results.records}
        assert produced == fault_free_records

    def test_retry_exhaustion_counts_every_attempt(self):
        campaign = nominal_campaign(
            failure_policy="retry", max_retries=2, retry_backoff_s=0.001
        )
        target = campaign.work_items(kinds=("nominal",))[0].key
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=99)):
            results = campaign.run(kinds=("nominal",))
        assert [f.key for f in results.failures] == [target]
        assert results.failures[0].attempts == 3

    def test_failed_items_are_retried_by_the_next_run(self, fault_free_records):
        campaign = nominal_campaign(failure_policy="skip")
        target = campaign.work_items(kinds=("nominal",))[0].key
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=99)):
            partial = campaign.run(kinds=("nominal",))
        assert partial.failures
        # Fault cleared: the same campaign object re-runs only the failed
        # item (the survivor is memoised) and completes.
        complete = campaign.run(kinds=("nominal",))
        assert not complete.failures
        produced = {record.key: strip_wall(record) for record in complete.records}
        assert produced == fault_free_records

    def test_invalid_policy_rejected(self):
        from repro.core.campaign import CampaignError

        with pytest.raises(CampaignError):
            nominal_campaign(failure_policy="explode")
        with pytest.raises(CampaignError):
            nominal_campaign(max_retries=-1)
        with pytest.raises(CampaignError):
            nominal_campaign(item_timeout_s=0.0)


class TestWorkerCrashRecovery:
    def test_lost_chunks_are_reexecuted_once(self, tmp_path, fault_free_records):
        campaign = nominal_campaign(failure_policy="skip")
        target = campaign.work_items(kinds=("nominal",))[0].key
        plan = FaultPlan(
            state_dir=str(tmp_path / "faults"),
            worker_crash_keys=(target,),
            worker_crash_limit=1,
        )
        with injected(plan):
            results = campaign.run(
                workers=2, clamp_to_cpus=False, kinds=("nominal",)
            )
        # One worker died holding the item; the rebuilt pool re-executed
        # the lost chunks and every record still matches fault-free.
        assert not results.failures
        produced = {record.key: strip_wall(record) for record in results.records}
        assert produced == fault_free_records

    def test_poison_item_is_quarantined(self, tmp_path, fault_free_records):
        campaign = nominal_campaign(failure_policy="skip")
        target = campaign.work_items(kinds=("nominal",))[0].key
        plan = FaultPlan(
            state_dir=str(tmp_path / "faults"),
            worker_crash_keys=(target,),
            worker_crash_limit=2,
        )
        with injected(plan):
            results = campaign.run(
                workers=2, clamp_to_cpus=False, kinds=("nominal",)
            )
        assert [f.key for f in results.failures] == [target]
        failure = results.failures[0]
        assert failure.classification == "worker_crash"
        assert failure.stage == "worker"
        assert failure.attempts == 2
        survivors = {record.key: strip_wall(record) for record in results.records}
        assert set(survivors) == set(fault_free_records) - {target}
        for key, record in survivors.items():
            assert record == fault_free_records[key]


#: A per-item deadline that never fires: it selects the one-item-at-a-time
#: path for attempt 0, the oracle of the joint solve.
PER_ITEM_DEADLINE_S = 3600.0


class TestBatchQuarantine:
    """Failure isolation inside the joint solve.

    Without a per-item deadline a whole campaign chunk is solved jointly,
    so the fault-injection contract tightens: a fault hitting one item of
    the batch must quarantine exactly that item (its batch slot counts as
    attempt 0), while the surviving batch mates keep their jointly-solved
    records bit-identical to the per-item path's.
    """

    def _campaign(self, **overrides):
        from repro.technology import n10

        defaults = dict(
            doe=StudyDOE(array_sizes=(16,)),
            scenarios=scenario_grid(operations=("read_snm",)),
        )
        defaults.update(overrides)
        return SimulationCampaign(n10(), **defaults)

    def test_fault_in_batch_quarantines_only_that_item(self):
        oracle = self._campaign(item_timeout_s=PER_ITEM_DEADLINE_S).run()
        assert not oracle.failures
        scalar_records = {r.key: strip_wall(r) for r in oracle.records}

        campaign = self._campaign(failure_policy="skip")
        items = campaign.work_items()
        assert len(items) >= 4  # nominal + the three paper options, one chunk
        target = next(item.key for item in items if item.kind == "corner")
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=99)):
            results = campaign.run()

        assert [f.key for f in results.failures] == [target]
        failure = results.failures[0]
        assert failure.classification == "injected"
        assert failure.attempts == 1  # the batch slot was the only attempt
        survivors = {r.key: strip_wall(r) for r in results.records}
        assert set(survivors) == set(scalar_records) - {target}
        for key, record in survivors.items():
            assert record == scalar_records[key]
        # The survivors really were solved jointly, minus the quarantined
        # item: the batch shrank by one.
        for record in results.records:
            assert record.solver == "batched"
            assert record.batch_size == len(items) - 1

    def test_transient_fault_in_batch_recovers_via_scalar_retry(self):
        oracle = self._campaign(item_timeout_s=PER_ITEM_DEADLINE_S).run()
        scalar_records = {r.key: strip_wall(r) for r in oracle.records}

        campaign = self._campaign(
            failure_policy="retry", max_retries=2, retry_backoff_s=0.001
        )
        target = campaign.work_items()[0].key
        # The fault fires on the batch attempt (attempt 0) only; the item
        # drops to the scalar retry ladder and attempt 1 re-runs clean.
        with injected(FaultPlan(solver_fail_keys=(target,), solver_fail_attempts=1)):
            results = campaign.run()
        assert not results.failures
        produced = {r.key: strip_wall(r) for r in results.records}
        assert produced == scalar_records
        by_key = {r.key: r for r in results.records}
        assert by_key[target].solver == "scalar"  # rescued off-batch
        survivors = [r for r in results.records if r.key != target]
        assert survivors and all(r.solver == "batched" for r in survivors)


class TestItemDeadlineInCampaign:
    def test_deadline_bounds_attempt_zero(self):
        # Every 16-cell nominal solve takes several milliseconds, so a
        # 1 ms deadline must cut each item's first (and only) attempt,
        # whatever its operation.
        from repro.technology import n10

        campaign = SimulationCampaign(
            n10(),
            doe=StudyDOE(array_sizes=(16,)),
            scenarios=scenario_grid(
                operations=("read", "write", "hold_snm", "read_snm")
            ),
            failure_policy="skip",
            max_retries=0,
            item_timeout_s=0.001,
        )
        results = campaign.run(kinds=("nominal",))
        assert not results.records
        assert len(results.failures) == 4
        for failure in results.failures:
            assert failure.classification == "timeout"
            assert failure.attempts == 1

    def test_off_the_main_thread_the_joint_solve_runs(self, fault_free_records):
        # SIGALRM cannot fire on another thread (the service's queue
        # threads), so there the deadline selects nothing and the items
        # are solved jointly, to the same records.
        campaign = nominal_campaign(item_timeout_s=0.001)
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(campaign.run(kinds=("nominal",)))
        )
        thread.start()
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        (results,) = outcome
        assert not results.failures
        assert {record.solver for record in results.records} == {"batched"}
        produced = {record.key: strip_wall(record) for record in results.records}
        assert produced == fault_free_records


class TestInjectedSolverFault:
    def test_is_a_convergence_error_with_marker(self):
        from repro.circuit.dc import ConvergenceError

        error = InjectedSolverFault("synthetic")
        assert isinstance(error, ConvergenceError)
        assert error.failure_classification == "injected"
