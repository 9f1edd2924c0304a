"""InvariantChecker, the structural audit, and the fault-state fold."""

from __future__ import annotations

import pytest

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    CACHE_RESIZE,
    CELL_FAIL,
    CELL_RECOVER,
    LINK_DEGRADE,
    LINK_RESTORE,
    MOBILITY_SET,
    FaultEvent,
    ScenarioSpec,
    WorkloadPhase,
)
from repro.sim.invariants import (
    InvariantChecker,
    InvariantViolation,
    audit_fault_state,
    audit_simulator,
    expected_fault_state,
)
from repro.sim.placement import PlacementSpec
from repro.sim.request import COMPLETED, DROPPED, LOCAL_HIT, UNSET, Request


def make_request(request_id=1, status=COMPLETED, arrival=1.0, completion=2.0, outcome=LOCAL_HIT):
    request = Request(
        request_id=request_id,
        user_id="user_0",
        domain="domain_0",
        model_key="general/domain_0",
        arrival_time=arrival,
        num_tokens=16,
        cell="cell_0",
    )
    request.status = status
    request.cache_outcome = outcome if status == COMPLETED else ""
    request.completion_time = completion if status == COMPLETED else UNSET
    return request


def tiny_spec(events=(), name="inv_spec", **overrides):
    settings = dict(
        name=name,
        description="invariant unit spec",
        phases=(WorkloadPhase(name="p0", duration_s=2.0),),
        events=tuple(events),
        num_cells=3,
        num_domains=4,
        num_users=12,
        base_rate=120.0,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


class TestInvariantChecker:
    def test_counts_terminal_events(self):
        checker = InvariantChecker()
        checker(make_request(request_id=1))
        checker(make_request(request_id=2, status=DROPPED))
        assert checker.completed == 1
        assert checker.dropped == 1
        assert checker.terminal == 2

    def test_rejects_completion_without_timestamp(self):
        checker = InvariantChecker()
        request = make_request()
        request.completion_time = UNSET
        with pytest.raises(InvariantViolation, match="without a completion time"):
            checker(request)

    def test_rejects_completion_before_arrival(self):
        with pytest.raises(InvariantViolation, match="before arriving"):
            InvariantChecker()(make_request(arrival=5.0, completion=4.0))

    def test_rejects_unknown_cache_outcome(self):
        request = make_request()
        request.cache_outcome = "telepathy"
        with pytest.raises(InvariantViolation, match="cache outcome"):
            InvariantChecker()(request)

    def test_rejects_drop_with_completion_time(self):
        request = make_request(status=DROPPED)
        request.completion_time = 3.0
        with pytest.raises(InvariantViolation, match="carries a completion time"):
            InvariantChecker()(request)

    def test_rejects_non_terminal_status(self):
        request = make_request()
        request.status = "queued"
        with pytest.raises(InvariantViolation, match="non-terminal"):
            InvariantChecker()(request)

    def test_rejects_double_termination(self):
        checker = InvariantChecker()
        checker(make_request(request_id=7))
        with pytest.raises(InvariantViolation, match="twice"):
            checker(make_request(request_id=7))

    def test_chains_inner_hook(self):
        seen = []
        checker = InvariantChecker(inner=seen.append)
        request = make_request()
        checker(request)
        assert seen == [request]

    def test_merge_sums_counts(self):
        left, right = InvariantChecker(), InvariantChecker()
        left(make_request(request_id=1))
        right(make_request(request_id=2))
        right(make_request(request_id=3, status=DROPPED))
        left.merge(right)
        assert left.completed == 2
        assert left.dropped == 1
        assert left.terminal == 3

    def test_merge_rejects_cross_shard_duplicates(self):
        left, right = InvariantChecker(), InvariantChecker()
        left(make_request(request_id=5))
        right(make_request(request_id=5))
        with pytest.raises(InvariantViolation, match="two shards"):
            left.merge(right)

    def test_clone_empty_is_fresh(self):
        checker = InvariantChecker()
        checker(make_request())
        clone = checker.clone_empty()
        assert clone.terminal == 0 and clone.inner is None


class TestVerifyReport:
    def run_with_checker(self, backend="serial", shards=None):
        box = {}

        def wrap(collector):
            box["checker"] = InvariantChecker(inner=collector)
            return box["checker"]

        result = run_scenario(tiny_spec(), seed=0, backend=backend, shards=shards, wrap_hook=wrap)
        return result, box["checker"]

    def test_clean_run_passes(self):
        result, checker = self.run_with_checker()
        issued = int(result.summary["requests"])
        assert issued > 0
        checker.verify_report(result.report, issued=issued)

    def test_clean_sharded_run_passes(self):
        result, checker = self.run_with_checker(backend="sharded", shards=2)
        checker.verify_report(result.report, issued=int(result.summary["requests"]))

    def test_mismatched_issue_count_rejected(self):
        result, checker = self.run_with_checker()
        with pytest.raises(InvariantViolation, match="conservation"):
            checker.verify_report(result.report, issued=int(result.summary["requests"]) + 1)

    def test_tampered_report_rejected(self):
        result, checker = self.run_with_checker()
        checker.completed -= 1
        checker.dropped += 1
        with pytest.raises(InvariantViolation):
            checker.verify_report(result.report, issued=int(result.summary["requests"]))


class TestAuditSimulator:
    def test_clean_replay_passes(self):
        result = run_scenario(tiny_spec(), seed=0, backend="serial")
        audit_simulator(result.simulator)
        result.simulator.audit_invariants()  # the method form is equivalent

    @pytest.mark.parametrize("prewarm", [False, True])
    @pytest.mark.parametrize("policy", ["naive", "shortest-queue", "max-flow"])
    def test_clean_placed_replay_passes(self, policy, prewarm):
        spec = tiny_spec(placement=PlacementSpec(policy=policy, prewarm=prewarm))
        audit_simulator(run_scenario(spec, seed=0, backend="serial").simulator)

    def test_leaked_pin_detected(self):
        result = run_scenario(tiny_spec(), seed=0, backend="serial")
        sim = result.simulator
        cell = next(c for c in sim.cells.values() if len(c.cache) > 0)
        cell.cache.pin(cell.cache.keys()[0])
        with pytest.raises(InvariantViolation, match="leaked pins"):
            audit_simulator(sim)

    def test_corrupted_byte_accounting_detected(self):
        result = run_scenario(tiny_spec(), seed=0, backend="serial")
        sim = result.simulator
        cell = next(iter(sim.cells.values()))
        cell.cache._used_bytes += 1
        with pytest.raises(InvariantViolation):
            audit_simulator(sim)

    def test_dead_cell_with_entries_detected(self):
        events = [FaultEvent(time_s=1.5, kind=CELL_FAIL, cell="cell_0")]
        result = run_scenario(tiny_spec(events=events), seed=0, backend="serial")
        sim = result.simulator
        dead = sim.cells["cell_0"]
        assert dead.failed and len(dead.cache) == 0
        audit_simulator(sim)
        alive = next(c for c in sim.cells.values() if not c.failed and len(c.cache) > 0)
        entry = alive.cache.entries()[0]
        dead.cache.put(entry)
        with pytest.raises(InvariantViolation, match="dead cell"):
            audit_simulator(sim)

    def test_stranded_batch_detected(self):
        result = run_scenario(tiny_spec(), seed=0, backend="serial")
        sim = result.simulator
        cell = next(iter(sim.cells.values()))
        cell.batcher.add(make_request(), flops=1.0, now=0.0)
        with pytest.raises(InvariantViolation, match="open batch"):
            audit_simulator(sim)

    def test_over_budget_needs_explicit_allowance(self):
        result = run_scenario(tiny_spec(), seed=0, backend="serial")
        sim = result.simulator
        cell = next(c for c in sim.cells.values() if len(c.cache) > 0)
        # Force the budget below usage the way resize-under-pins legally can.
        key = cell.cache.keys()[0]
        cell.cache.pin(key)
        cell.cache.resize(1)
        cell.cache.unpin(key)
        assert cell.cache.used_bytes > cell.cache.capacity_bytes
        with pytest.raises(InvariantViolation, match="over budget"):
            audit_simulator(sim)
        audit_simulator(sim, allow_over_budget=True)

    def test_placed_drops_release_their_counters(self):
        # Every request is placed at cell_0, the only cell up, and waits on
        # its cold cloud fetches; when cell_0 fails too, those placed
        # requests have nowhere to go and drop, as does every later arrival.
        events = [
            FaultEvent(time_s=0.0, kind=CELL_FAIL, cell="cell_1"),
            FaultEvent(time_s=0.0, kind=CELL_FAIL, cell="cell_2"),
            FaultEvent(time_s=1.0, kind=CELL_FAIL, cell="cell_0"),
        ]
        spec = tiny_spec(events=events, placement=PlacementSpec(policy="shortest-queue"))
        result = run_scenario(spec, seed=0, backend="serial")
        assert result.report.cloud_bytes > 0
        assert result.report.dropped == int(result.summary["requests"]) > 0
        audit_simulator(result.simulator)

    def test_leaked_placement_counter_detected(self):
        spec = tiny_spec(placement=PlacementSpec(policy="shortest-queue"))
        sim = run_scenario(spec, seed=0, backend="serial").simulator
        sim._placement.outstanding["cell_0"] += 1
        with pytest.raises(InvariantViolation, match="placement outstanding"):
            audit_simulator(sim)


class TestExpectedFaultState:
    def test_repeated_degrade_folds_to_last_factor(self):
        events = [
            FaultEvent(time_s=0.5, kind=LINK_DEGRADE, cell="cell_1", factor=4.0),
            FaultEvent(time_s=1.0, kind=LINK_DEGRADE, cell="cell_1", factor=2.0),
        ]
        state = expected_fault_state(tiny_spec(events=events))
        assert state.downlink_factor["cell_1"] == 2.0  # not 8.0: never compounds
        assert state.downlink_factor["cell_0"] == 1.0

    def test_restore_resets_factor(self):
        events = [
            FaultEvent(time_s=0.5, kind=LINK_DEGRADE, cell=None, factor=8.0),
            FaultEvent(time_s=1.0, kind=LINK_RESTORE, cell="cell_2"),
        ]
        state = expected_fault_state(tiny_spec(events=events))
        assert state.downlink_factor["cell_2"] == 1.0
        assert state.downlink_factor["cell_0"] == 8.0

    def test_fail_recover_fail_leaves_cell_failed(self):
        events = [
            FaultEvent(time_s=0.5, kind=CELL_FAIL, cell="cell_0"),
            FaultEvent(time_s=1.0, kind=CELL_RECOVER, cell="cell_0"),
            FaultEvent(time_s=1.5, kind=CELL_FAIL, cell="cell_0"),
        ]
        state = expected_fault_state(tiny_spec(events=events))
        assert state.failed == frozenset({"cell_0"})

    def test_shrink_flag_tracks_downsizes_only(self):
        grow = [FaultEvent(time_s=0.5, kind=CACHE_RESIZE, cell=None, factor=2.0)]
        assert not expected_fault_state(tiny_spec(events=grow)).shrank_cache
        shrink = [FaultEvent(time_s=0.5, kind=CACHE_RESIZE, cell="cell_0", factor=0.25)]
        state = expected_fault_state(tiny_spec(events=shrink))
        assert state.shrank_cache
        base = int(tiny_spec().cache_capacity_mb * 1024 * 1024)
        assert state.capacity_bytes["cell_0"] == base // 4
        assert state.capacity_bytes["cell_1"] == base

    def test_mobility_set_records_final_probability(self):
        events = [
            FaultEvent(time_s=0.5, kind=MOBILITY_SET, value=0.5),
            FaultEvent(time_s=1.0, kind=MOBILITY_SET, value=0.1),
        ]
        state = expected_fault_state(tiny_spec(events=events))
        assert state.handover_probability == 0.1
        assert expected_fault_state(tiny_spec()).handover_probability is None


class TestAuditFaultState:
    def test_timeline_end_state_matches_engine(self):
        events = [
            FaultEvent(time_s=0.5, kind=LINK_DEGRADE, cell="cell_1", factor=4.0),
            FaultEvent(time_s=1.0, kind=CELL_FAIL, cell="cell_0"),
            FaultEvent(time_s=1.5, kind=CACHE_RESIZE, cell="cell_2", factor=0.5),
        ]
        spec = tiny_spec(events=events)
        result = run_scenario(spec, seed=0, backend="serial")
        audit_fault_state(result.simulator, spec)

    def test_compounding_degrade_detected(self, monkeypatch):
        from repro.sim.simulator import MultiCellSimulator

        def compounding(self, name, factor):
            self._downlink_time[name] = self._downlink_time[name] * factor

        monkeypatch.setattr(MultiCellSimulator, "degrade_downlink", compounding)
        events = [
            FaultEvent(time_s=0.5, kind=LINK_DEGRADE, cell="cell_1", factor=2.0),
            FaultEvent(time_s=1.0, kind=LINK_DEGRADE, cell="cell_1", factor=2.0),
        ]
        spec = tiny_spec(events=events)
        result = run_scenario(spec, seed=0, backend="serial")
        with pytest.raises(InvariantViolation, match="never compound"):
            audit_fault_state(result.simulator, spec)

    def test_unrecovered_failure_mismatch_detected(self, monkeypatch):
        from repro.sim.simulator import MultiCellSimulator

        monkeypatch.setattr(MultiCellSimulator, "recover_cell", lambda self, name: None)
        events = [
            FaultEvent(time_s=0.5, kind=CELL_FAIL, cell="cell_0"),
            FaultEvent(time_s=1.0, kind=CELL_RECOVER, cell="cell_0"),
        ]
        spec = tiny_spec(events=events)
        result = run_scenario(spec, seed=0, backend="serial")
        with pytest.raises(InvariantViolation, match="alive"):
            audit_fault_state(result.simulator, spec)
