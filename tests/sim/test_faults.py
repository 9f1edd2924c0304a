"""Fault-injection unit tests: failure, recovery, wipes, link and capacity events."""

from __future__ import annotations

import pytest

from repro.caching import SemanticModelCache, general_model_key
from repro.caching.entry import GENERAL_MODEL, CacheEntry
from repro.exceptions import CacheError
from repro.sim import (
    BatchingConfig,
    CellConfig,
    MobilityConfig,
    MultiCellSimulator,
    SimulatorConfig,
    default_catalogue,
)
from repro.sim.request import COMPLETED, DROPPED
from repro.workloads import ArrivalTraceGenerator

DOMAINS = [f"domain_{index}" for index in range(6)]


def make_simulator(
    num_cells=3,
    batching=None,
    mobility=None,
    cache_capacity=48 * 1024 * 1024,
    seed=0,
):
    cells = [
        CellConfig(name=f"cell_{index}", cache_capacity_bytes=cache_capacity)
        for index in range(num_cells)
    ]
    config = SimulatorConfig(
        batching=batching or BatchingConfig(),
        mobility=mobility or MobilityConfig(handover_probability=0.0),
    )
    return MultiCellSimulator(cells, default_catalogue(DOMAINS, seed=seed), config=config, seed=seed)


def entry(key="general/domain_0", size=1024, pinned=0):
    item = CacheEntry(key=key, kind=GENERAL_MODEL, domain="domain_0", size_bytes=size)
    item.pin_count = pinned
    return item


class TestCacheWipe:
    def test_wipe_drops_everything_unpinned(self):
        cache = SemanticModelCache(10_000)
        cache.put(entry("a", 1000))
        cache.put(entry("b", 2000))
        wiped = cache.wipe()
        assert {e.key for e in wiped} == {"a", "b"}
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.statistics.wipes == 2
        cache.assert_consistent()

    def test_wipe_preserves_pinned_entries(self):
        cache = SemanticModelCache(10_000)
        cache.put(entry("a", 1000))
        cache.put(entry("b", 2000))
        cache.pin("b")
        wiped = cache.wipe()
        assert [e.key for e in wiped] == ["a"]
        assert cache.peek("b") is not None
        assert cache.used_bytes == 2000
        assert cache.pinned_bytes == 2000
        # The surviving pin is still released normally afterwards.
        cache.unpin("b")
        assert cache.pinned_bytes == 0
        cache.assert_consistent()

    def test_wipe_is_not_an_eviction(self):
        cache = SemanticModelCache(10_000)
        cache.put(entry("a", 1000))
        cache.wipe()
        assert cache.statistics.evictions == 0
        assert cache.statistics.bytes_evicted == 0


class TestCacheResize:
    def test_shrink_evicts_down_to_budget(self):
        cache = SemanticModelCache(10_000)
        cache.put(entry("a", 4000))
        cache.put(entry("b", 4000))
        evicted = cache.resize(5000)
        assert len(evicted) == 1
        assert cache.used_bytes <= 5000
        assert cache.capacity_bytes == 5000
        assert cache.statistics.evictions == 1
        cache.assert_consistent()

    def test_grow_never_evicts(self):
        cache = SemanticModelCache(5000)
        cache.put(entry("a", 4000))
        assert cache.resize(50_000) == []
        assert cache.capacity_bytes == 50_000
        assert cache.peek("a") is not None

    def test_pinned_entries_survive_an_impossible_shrink(self):
        cache = SemanticModelCache(10_000)
        cache.put(entry("a", 4000))
        cache.put(entry("b", 4000))
        cache.pin("a")
        cache.pin("b")
        assert cache.resize(1000) == []  # nothing evictable
        assert cache.used_bytes == 8000  # over-full but intact
        cache.unpin("a")
        cache.unpin("b")
        cache.assert_consistent()

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            SemanticModelCache(1000).resize(-1)


def warm_up(simulator, num_requests=200, rate=200.0, num_users=20):
    """Replay a short healthy prefix so caches are warm; returns the clock."""
    generator = ArrivalTraceGenerator(DOMAINS, num_users=num_users, rate=rate, seed=1)
    simulator.replay(generator.generate(num_requests))
    return simulator.engine.now


class TestCellFailure:
    def test_failed_cell_arrivals_fail_over_and_complete(self):
        simulator = make_simulator(num_cells=3)
        end = warm_up(simulator)
        simulator.fail_cell("cell_1")
        report_before = simulator.cells["cell_1"].stats.completed
        # New arrivals for every user: none lands on cell_1, nothing is lost.
        for index in range(60):
            simulator.submit(end + 1.0 + index * 0.01, f"user_{index % 20}", "domain_0")
        report = simulator.run()
        assert report.dropped == 0
        assert simulator.cells["cell_1"].stats.completed == report_before
        failovers = sum(cell.stats.failovers for cell in simulator.cells.values())
        assert failovers > 0
        assert all(request.status == COMPLETED for request in simulator.requests)

    def test_failure_mid_batch_rehomes_queued_requests(self):
        # A huge batch-size and long timeout guarantee requests are waiting in
        # the batcher when the failure hits.
        simulator = make_simulator(
            num_cells=2,
            batching=BatchingConfig(max_batch_size=64, max_wait_s=5.0, amortization=0.4),
        )
        cell = simulator.cells["cell_0"]
        # Preload the model so arrivals go straight to the batch queue.
        key = general_model_key("domain_0")
        spec = simulator.catalogue["domain_0"]
        cell.cache.put(
            CacheEntry(key=key, kind=GENERAL_MODEL, domain="domain_0", size_bytes=spec.size_bytes)
        )
        for index in range(5):
            simulator.submit(0.001 + index * 0.0001, f"user_{index}", "domain_0")
        # Users are placed uniformly at first sight; pin them to cell_0.
        for index in range(5):
            simulator.mobility.place(f"user_{index}", "cell_0")
        simulator.engine.schedule_at(0.01, lambda sim: simulator.fail_cell("cell_0"))
        report = simulator.run()
        assert report.dropped == 0
        assert len(cell.batcher) == 0
        assert cell.stats.completed == 0  # the batch never ran where it queued
        assert simulator.cells["cell_1"].stats.failovers == 5
        assert all(request.status == COMPLETED for request in simulator.requests)
        assert all(request.cell == "cell_1" for request in simulator.requests)

    def test_failure_wipes_cache_cold_for_recovery(self):
        simulator = make_simulator(num_cells=2)
        warm_up(simulator)
        cell = simulator.cells["cell_0"]
        assert len(cell.cache) > 0
        simulator.fail_cell("cell_0")
        assert len(cell.cache) == 0
        simulator.recover_cell("cell_0")
        assert simulator.alive_cells() == ["cell_0", "cell_1"]
        assert len(cell.cache) == 0  # cold restart

    def test_recovery_readmits_users_and_models(self):
        simulator = make_simulator(num_cells=2)
        end = warm_up(simulator)
        simulator.fail_cell("cell_0")
        simulator.recover_cell("cell_0")
        hits_before = simulator.cells["cell_0"].stats.hits
        # user pinned to the recovered cell misses cold, then hits warm.
        simulator.mobility.place("user_3", "cell_0")
        simulator.submit(end + 1.0, "user_3", "domain_0")
        simulator.run()
        simulator.submit(end + 2.0, "user_3", "domain_0")
        report = simulator.run()
        assert report.dropped == 0
        assert len(simulator.cells["cell_0"].cache) > 0
        assert simulator.cells["cell_0"].stats.hits > hits_before

    def test_all_cells_failed_drops_with_accounting(self):
        simulator = make_simulator(num_cells=2)
        end = warm_up(simulator)
        simulator.fail_cell("cell_0")
        simulator.fail_cell("cell_1")
        simulator.submit(end + 1.0, "user_0", "domain_0")
        report = simulator.run()
        assert report.dropped == 1
        dropped_requests = [r for r in simulator.requests if r.status == DROPPED]
        assert len(dropped_requests) == 1
        assert report.completed == sum(c.stats.completed for c in simulator.cells.values())

    def test_fetch_completing_on_failed_cell_admits_nothing(self):
        simulator = make_simulator(num_cells=2)
        # One request arrives at cell_0, misses, and starts a cloud fetch;
        # the cell dies before the fetch lands.
        simulator.mobility.place("user_0", "cell_0")
        simulator.submit(0.001, "user_0", "domain_0")
        simulator.engine.schedule_at(0.002, lambda sim: simulator.fail_cell("cell_0"))
        report = simulator.run()
        assert len(simulator.cells["cell_0"].cache) == 0
        assert report.dropped == 0  # the waiter was re-homed at failure time
        assert simulator.requests[0].status == COMPLETED
        assert simulator.requests[0].cell == "cell_1"

    def test_transfer_pinned_entry_is_dropped_when_its_pin_releases(self):
        # cell_1 is the pinned transfer source of an in-flight neighbor fetch
        # when it fails: the entry must survive until the copy lands, then
        # complete the wipe — a later recovery must be cold, not warm.
        simulator = make_simulator(num_cells=3)
        key = general_model_key("domain_0")
        spec = simulator.catalogue["domain_0"]
        source = simulator.cells["cell_1"]
        source.cache.put(
            CacheEntry(key=key, kind=GENERAL_MODEL, domain="domain_0", size_bytes=spec.size_bytes)
        )
        simulator.mobility.place("user_0", "cell_0")
        simulator.submit(0.001, "user_0", "domain_0")  # neighbor fetch pins cell_1's copy

        def fail_source(sim):
            assert source.cache.peek(key).pinned  # transfer still in flight
            simulator.fail_cell("cell_1")
            assert source.cache.peek(key) is not None  # pin protects it

        simulator.engine.schedule_at(0.0015, fail_source)
        report = simulator.run()
        assert report.dropped == 0
        assert source.cache.peek(key) is None  # unpin completed the wipe
        simulator.recover_cell("cell_1")
        assert len(source.cache) == 0  # cold restart, not warm

    def test_fetch_spanning_an_outage_admits_nothing_after_recovery(self):
        # A cloud fetch starts, the cell fails AND recovers before it lands:
        # the stale fetch must neither warm the cold cache nor serve the
        # waiters of the fresh post-recovery fetch for the same model.
        simulator = make_simulator(num_cells=2)
        simulator.mobility.place("user_0", "cell_0")
        simulator.mobility.place("user_1", "cell_0")
        simulator.submit(0.001, "user_0", "domain_0")  # slow cloud fetch
        simulator.engine.schedule_at(0.01, lambda sim: simulator.fail_cell("cell_0"))
        simulator.engine.schedule_at(0.02, lambda sim: simulator.recover_cell("cell_0"))
        simulator.submit(0.03, "user_1", "domain_0")  # fresh fetch, epoch bumped
        report = simulator.run()
        assert report.dropped == 0
        assert all(request.status == COMPLETED for request in simulator.requests)
        # The second request waited for its *own* fetch, not the stale one.
        spec = simulator.catalogue["domain_0"]
        own_delay = spec.build_cost_s + simulator.costs.transfer_time(
            "cloud", "cell_0", spec.size_bytes
        )
        assert simulator.requests[1].fetch_done_time == pytest.approx(0.03 + own_delay)

    def test_recover_cell_is_a_no_op_on_a_healthy_cell(self):
        simulator = make_simulator(num_cells=2)
        warm_up(simulator)
        resident = len(simulator.cells["cell_0"].cache)
        assert resident > 0
        simulator.recover_cell("cell_0")
        assert len(simulator.cells["cell_0"].cache) == resident

    def test_failed_cell_is_not_a_cooperative_source(self):
        simulator = make_simulator(num_cells=3)
        key = general_model_key("domain_0")
        spec = simulator.catalogue["domain_0"]
        # Only cell_2 holds the model.
        simulator.cells["cell_2"].cache.put(
            CacheEntry(key=key, kind=GENERAL_MODEL, domain="domain_0", size_bytes=spec.size_bytes)
        )
        cell_0 = simulator.cells["cell_0"]
        name, source = simulator._find_source(cell_0, key)
        assert name == "cell_2" and source is simulator.cells["cell_2"]
        # Flag the holder as failed without wiping, to isolate the guard.
        simulator.cells["cell_2"].failed = True
        assert simulator._find_source(cell_0, key) == (None, None)


class TestLinkAndCapacityEvents:
    def test_degrade_scales_from_baseline_not_compounding(self):
        simulator = make_simulator()
        base = simulator._downlink_time["cell_0"]
        simulator.degrade_downlink("cell_0", 8.0)
        simulator.degrade_downlink("cell_0", 8.0)
        assert simulator._downlink_time["cell_0"] == pytest.approx(8.0 * base)
        simulator.restore_downlink("cell_0")
        assert simulator._downlink_time["cell_0"] == pytest.approx(base)

    def test_degraded_downlink_slows_completions(self):
        fast = make_simulator(seed=3)
        slow = make_simulator(seed=3)
        slow.degrade_downlink("cell_0", 50.0)
        slow.degrade_downlink("cell_1", 50.0)
        slow.degrade_downlink("cell_2", 50.0)
        for simulator in (fast, slow):
            generator = ArrivalTraceGenerator(DOMAINS, num_users=10, rate=100.0, seed=7)
            simulator.replay(generator.generate(300))
        assert slow.latency.summary()["mean_s"] > fast.latency.summary()["mean_s"]

    def test_resize_cell_cache_applies_to_live_cache(self):
        simulator = make_simulator()
        warm_up(simulator)
        cell = simulator.cells["cell_0"]
        used_before = cell.cache.used_bytes
        assert used_before > 0
        simulator.resize_cell_cache("cell_0", 1024)
        assert cell.cache.capacity_bytes == 1024
        assert cell.cache.used_bytes <= 1024

    def test_set_handover_probability_mid_run(self):
        simulator = make_simulator(mobility=MobilityConfig(handover_probability=0.0))
        warm_up(simulator)
        handovers_before = sum(cell.stats.handovers_in for cell in simulator.cells.values())
        assert handovers_before == 0
        simulator.set_handover_probability(1.0)
        end = 10_000.0
        for index in range(50):
            simulator.submit(end + index * 0.01, f"user_{index % 20}", "domain_0")
        simulator.run()
        assert sum(cell.stats.handovers_in for cell in simulator.cells.values()) > 0
