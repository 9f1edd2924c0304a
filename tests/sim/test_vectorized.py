"""Cohort-boundary contract of the vectorized event kernel.

Every test replays the same hand-built trace through the serial reference
engine and through :class:`~repro.sim.vectorized.VectorizedSimulator` with
``cross_check=False`` (so the compared output genuinely comes from the numpy
kernel), then asserts equality event-for-event: report fields, engine
counters, cache contents and statistics, the latency reservoir's internal
state, and — when requests are retained — every per-request stamp.  The
cases target exactly the places where cohort batching could diverge from
the serial heap: same-timestamp arrivals spanning multiple cells, fault
barriers landing mid-cohort, zero-length cohorts around phase edges, and
``retain_requests=False`` replays.

The cross-check tests at the end run with ``cross_check=True`` on both of its
paths: the shadow kernel replay in the spawned helper process, and the
in-process shadow used on one-core hosts or when no helper can be started.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.sim.vectorized.simulator as vectorized_module
from repro.scenarios.catalog import catalog
from repro.scenarios.runner import run_catalog
from repro.sim.batching import BatchingConfig
from repro.sim.metrics import LatencyRecorder, SimulationReport
from repro.sim.multicell import CellConfig, MobilityConfig, default_catalogue
from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
from repro.sim.vectorized import VectorizedSimulator
from repro.workloads import ArrivalTraceGenerator
from repro.workloads.traces import RequestTrace

DOMAINS = [f"domain_{index}" for index in range(6)]

REQUEST_STAMPS = (
    "request_id",
    "user_id",
    "domain",
    "model_key",
    "arrival_time",
    "num_tokens",
    "cell",
    "status",
    "cache_outcome",
    "handover",
    "lookup_time",
    "fetch_done_time",
    "enqueue_time",
    "compute_start_time",
    "compute_done_time",
    "completion_time",
)


def build(
    cls, retain=False, handover_probability=0.1, capacity_mb=96, latency_reservoir=100_000, **kwargs
):
    cells = [
        CellConfig(name=f"cell_{index}", cache_capacity_bytes=capacity_mb * 1024 * 1024)
        for index in range(3)
    ]
    catalogue = default_catalogue(DOMAINS, seed=3)
    config = SimulatorConfig(
        batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01, amortization=0.4),
        mobility=MobilityConfig(handover_probability=handover_probability),
        retain_requests=retain,
        latency_reservoir=latency_reservoir,
    )
    return cls(cells, catalogue, config=config, seed=11, **kwargs)


def cohort_trace(num_cohorts=40, cohort_size=15, spacing_s=0.05):
    """Arrivals in exact same-timestamp cohorts, users spread over every cell."""
    n = num_cohorts * cohort_size
    timestamps = np.repeat(np.arange(num_cohorts, dtype=np.float64) * spacing_s, cohort_size)
    users = (np.arange(n, dtype=np.int64) * 7) % 30
    domains = (np.arange(n, dtype=np.int64) * 5) % len(DOMAINS)
    return RequestTrace.from_columns(timestamps, users, domains, DOMAINS)


def assert_equivalent(serial, vectorized, serial_report, vectorized_report, retain):
    """Full-state equality between a serial run and a vectorized run."""
    assert vectorized.fallback_reason is None
    for field in (
        "completed",
        "duration_s",
        "events_processed",
        "latency",
        "total_compute_busy_s",
        "backhaul_bytes",
        "cloud_bytes",
        "dropped",
        "cells",
    ):
        assert getattr(vectorized_report, field) == getattr(serial_report, field), field
    assert vectorized.engine.now == serial.engine.now
    assert vectorized.engine._sequence == serial.engine._sequence
    assert vectorized.engine.events_processed == serial.engine.events_processed
    assert np.array_equal(vectorized.latency._values(), serial.latency._values())
    assert vectorized.latency._sum == serial.latency._sum
    assert vectorized.latency._max == serial.latency._max
    assert vectorized.mobility._user_cell == serial.mobility._user_cell
    assert (
        vectorized.mobility.rng.bit_generator.state
        == serial.mobility.rng.bit_generator.state
    )
    for name, cell in serial.cells.items():
        other = vectorized.cells[name]
        assert other.cache.statistics == cell.cache.statistics, name
        assert list(other.cache._entries) == list(cell.cache._entries), name
        assert other.cache.clock == cell.cache.clock, name
        assert other.batcher.generation == cell.batcher.generation, name
        assert other.server.compute.busy_time == cell.server.compute.busy_time, name
        assert other.server.compute.completed_tasks == cell.server.compute.completed_tasks
    if retain:
        assert len(vectorized.requests) == len(serial.requests)
        for left, right in zip(serial.requests, vectorized.requests):
            for stamp in REQUEST_STAMPS:
                assert getattr(right, stamp) == getattr(left, stamp), stamp
    vectorized.audit_invariants()


def run_pair(trace, retain=False, schedule=(), **build_kwargs):
    serial = build(MultiCellSimulator, retain=retain, **build_kwargs)
    vectorized = build(
        VectorizedSimulator, retain=retain, cross_check=False, **build_kwargs
    )
    for time_s, calls, label in schedule:
        serial.schedule_calls(time_s, calls, label=label)
        vectorized.schedule_calls(time_s, calls, label=label)
    serial_report = serial.replay(trace)
    vectorized_report = vectorized.replay(trace)
    assert_equivalent(serial, vectorized, serial_report, vectorized_report, retain)
    return serial_report, vectorized_report


@pytest.mark.parametrize("retain", [False, True])
def test_same_timestamp_cohorts_span_cells(retain):
    """Dense same-timestamp cohorts hitting all three cells stay bit-identical."""
    run_pair(cohort_trace(), retain=retain)


@pytest.mark.parametrize("retain", [False, True])
def test_fault_barriers_mid_cohort(retain):
    """Timeline barriers landing exactly on cohort timestamps stay ordered.

    Each scheduled batch ties with a whole arrival cohort at the same
    simulated time; pre-run timeline events hold earlier sequence numbers, so
    the barrier must fire before any tied arrival — in both engines.
    """
    schedule = [
        (0.25, [("wipe_cell_cache", ("cell_1",))], "wipe"),
        (0.50, [("resize_cell_cache", ("cell_0", 16 * 1024 * 1024))], "resize"),
        (0.75, [("degrade_downlink", ("cell_2", 8.0))], "degrade"),
        (1.00, [("set_handover_probability", (0.5,))], "mobility"),
        (1.25, [("restore_downlink", ("cell_2",))], "restore"),
        (1.50, [("set_handover_probability", (0.0,))], "mobility-off"),
    ]
    run_pair(cohort_trace(), retain=retain, schedule=schedule)


def test_zero_length_cohorts_around_edges():
    """Barriers with no tied arrivals: before the first, in gaps, after the last."""
    timestamps = np.array([0.5, 0.5, 0.5, 2.0, 2.0, 4.0], dtype=np.float64)
    users = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    domains = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    trace = RequestTrace.from_columns(timestamps, users, domains, DOMAINS)
    schedule = [
        (0.1, [("wipe_cell_cache", ("cell_0",))], "before-first"),
        (1.0, [("set_handover_probability", (0.9,))], "gap"),
        (3.0, [("degrade_downlink", ("cell_1", 4.0))], "gap-2"),
        (10.0, [("restore_downlink", ("cell_1",))], "after-last"),
    ]
    run_pair(trace, schedule=schedule)


def test_stacked_same_time_barriers():
    """Several fault batches at one timestamp fire in scheduling order."""
    schedule = [
        (0.5, [("wipe_cell_cache", ("cell_0",))], "first"),
        (0.5, [("resize_cell_cache", ("cell_0", 8 * 1024 * 1024))], "second"),
        (0.5, [("set_handover_probability", (0.3,))], "third"),
    ]
    run_pair(cohort_trace(), schedule=schedule)


@pytest.mark.parametrize("probability", [0.0, 0.35, 1.0])
def test_handover_probability_extremes(probability):
    """The mobility pre-pass covers never/sometimes/always handover streams."""
    run_pair(cohort_trace(), handover_probability=probability)


def test_single_cell_deployment():
    """num_cells == 1 exercises the degenerate mobility draw path."""
    cells = [CellConfig(name="cell_0", cache_capacity_bytes=64 * 1024 * 1024)]
    catalogue = default_catalogue(DOMAINS, seed=3)
    config = SimulatorConfig(
        batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01, amortization=0.4),
        mobility=MobilityConfig(handover_probability=0.2),
        retain_requests=False,
    )
    trace = cohort_trace()
    serial = MultiCellSimulator([cells[0]], catalogue, config=config, seed=11)
    vectorized = VectorizedSimulator(
        [cells[0]], catalogue, config=config, seed=11, cross_check=False
    )
    serial_report = serial.replay(trace)
    vectorized_report = vectorized.replay(trace)
    assert_equivalent(serial, vectorized, serial_report, vectorized_report, retain=False)


def test_unsupported_timeline_falls_back_to_serial():
    """A fail_cell timeline is not vectorizable: silent, bit-identical fallback."""
    schedule = [
        (0.5, [("fail_cell", ("cell_1",))], "outage"),
        (1.5, [("recover_cell", ("cell_1",))], "recovery"),
    ]
    serial = build(MultiCellSimulator)
    vectorized = build(VectorizedSimulator, cross_check=False)
    for time_s, calls, label in schedule:
        serial.schedule_calls(time_s, calls, label=label)
        vectorized.schedule_calls(time_s, calls, label=label)
    trace = cohort_trace()
    serial_report = serial.replay(trace)
    vectorized_report = vectorized.replay(trace)
    assert vectorized.fallback_reason is not None
    assert "fail_cell" in vectorized.fallback_reason
    for field in ("completed", "events_processed", "latency", "cells", "dropped"):
        assert getattr(vectorized_report, field) == getattr(serial_report, field), field


# ---------------------------------------------------------------------- #
# Cross-check (cross_check=True), on the helper and the in-process paths
# ---------------------------------------------------------------------- #
# Substitutes for ``_shadow_replay``: module-level, so the spawned helper can
# unpickle them by reference and runs them itself.
shadow_replay = vectorized_module._shadow_replay


def failing_shadow_replay(job):
    raise RuntimeError("injected kernel fault")


def skewed_shadow_replay(job):
    report = shadow_replay(job)
    return dataclasses.replace(report, completed=report.completed + 1)


def dying_shadow_replay(job):
    if multiprocessing.parent_process() is not None:  # inside the helper
        os._exit(1)
    return shadow_replay(job)


@pytest.fixture
def verdicts():
    VectorizedSimulator._validated.clear()
    yield VectorizedSimulator._validated
    VectorizedSimulator._validated.clear()


@pytest.fixture(params=["helper", "in-process"])
def cross_check_path(request, monkeypatch, verdicts):
    """Pin the cross-check path regardless of the host's core count."""
    cpus = 2 if request.param == "helper" else 1
    monkeypatch.setattr(vectorized_module, "available_cpus", lambda: cpus)
    return request.param


@pytest.fixture
def helper_path(monkeypatch, verdicts):
    monkeypatch.setattr(vectorized_module, "available_cpus", lambda: 2)


def assert_same_report(report, reference):
    assert VectorizedSimulator._reports_equal(report, reference)


def assert_live_helper():
    pid, pool = vectorized_module._helper
    assert pid == os.getpid() and pool is not None


def test_divergence_triggers_silent_serial_fallback(cross_check_path, monkeypatch, verdicts):
    """cross_check=True quarantines a signature whose kernel run diverges."""
    if cross_check_path == "helper":
        monkeypatch.setattr(vectorized_module, "_shadow_replay", failing_shadow_replay)
    else:
        def broken(sim, trace, hook, timeline):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(VectorizedSimulator, "_replay_fast", staticmethod(broken))
    serial_report = build(MultiCellSimulator).replay(cohort_trace())
    vectorized = build(VectorizedSimulator)
    vectorized_report = vectorized.replay(cohort_trace())
    for field in ("completed", "events_processed", "latency", "cells"):
        assert getattr(vectorized_report, field) == getattr(serial_report, field), field
    assert verdicts and all(verdict is False for verdict in verdicts.values())
    assert vectorized.fallback_reason == "cross-check divergence; serial result returned"
    if cross_check_path == "helper":
        assert_live_helper()


def test_cross_check_validates_then_reuses_kernel(cross_check_path, verdicts):
    """First replay of a fresh signature cross-checks; the verdict is cached."""
    serial_report = build(MultiCellSimulator).replay(cohort_trace())
    first = build(VectorizedSimulator).replay(cohort_trace())
    assert dict(verdicts) and all(verdicts.values())
    second = build(VectorizedSimulator).replay(cohort_trace())
    for report in (first, second):
        for field in ("completed", "events_processed", "latency", "cells"):
            assert getattr(report, field) == getattr(serial_report, field), field
    assert len(verdicts) == 1


#: Latency summary of :func:`test_reservoir_overflow_replay_is_pinned`'s
#: replay, as drawing one reservoir slot per overflow record produced it.
OVERFLOW_SUMMARY = {
    "mean_s": 0.12058733274612903,
    "p50_s": 0.014974622395705461,
    "p95_s": 0.7021723477132163,
    "p99_s": 1.2226508125883262,
    "max_s": 1.5679357634582383,
}


@pytest.mark.parametrize("retain", [False, True])
def test_reservoir_overflow_replay_is_pinned(retain, cross_check_path, verdicts):
    """3000 completions through a 256-sample reservoir: the overflow path.

    No committed golden row exceeds the default 100k reservoir, so this pins
    the reservoir-sampled summary, and the kernel (``record_many`` when
    untracked, per-request ``record`` when retaining) must match serial with
    the cross-check off and on.
    """
    trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(3000)
    serial = build(MultiCellSimulator, retain=retain, latency_reservoir=256)
    serial_report = serial.replay(trace)
    assert not serial.latency.exact and serial.latency.retained == 256
    assert serial_report.latency == OVERFLOW_SUMMARY
    kernel = build(VectorizedSimulator, retain=retain, latency_reservoir=256, cross_check=False)
    assert_equivalent(serial, kernel, serial_report, kernel.replay(trace), retain)
    checked = build(VectorizedSimulator, retain=retain, latency_reservoir=256)
    assert_same_report(checked.replay(trace), serial_report)
    assert list(verdicts.values()) == [True]


def test_generator_seed_matches_serial(cross_check_path, verdicts):
    """A Generator seed is shared with the wrapped simulator, not the shadow.

    The shadow replays from a copy of the generator's state, so the kernel
    cannot advance the stream the serial replay reads; and the signature
    keys on that state, so an equal generator reuses the verdict.
    """
    cells = [CellConfig(name=f"cell_{index}") for index in range(4)]
    catalogue = default_catalogue(DOMAINS, seed=0)
    trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(5000)
    reports = []
    for _ in range(2):
        serial = MultiCellSimulator(cells, catalogue, seed=np.random.default_rng(7))
        vectorized = VectorizedSimulator(cells, catalogue, seed=np.random.default_rng(7))
        reports.append((serial.replay(trace), vectorized.replay(trace)))
        assert vectorized.fallback_reason is None
        assert (
            vectorized.mobility.rng.bit_generator.state
            == serial.mobility.rng.bit_generator.state
        )
    for serial_report, vectorized_report in reports:
        assert_same_report(vectorized_report, serial_report)
    assert list(verdicts.values()) == [True]


def test_helper_report_differing_from_serial_fails_the_check(helper_path, monkeypatch, verdicts):
    """A helper report that differs from serial: verdict False, serial returned."""
    monkeypatch.setattr(vectorized_module, "_shadow_replay", skewed_shadow_replay)
    serial_report = build(MultiCellSimulator).replay(cohort_trace())
    vectorized = build(VectorizedSimulator)
    report = vectorized.replay(cohort_trace())
    assert_same_report(report, serial_report)
    assert list(verdicts.values()) == [False]
    assert vectorized.fallback_reason == "cross-check divergence; serial result returned"
    assert_live_helper()


@pytest.mark.parametrize("failure", ["pool creation", "pool breaks"])
def test_helper_failure_degrades_to_in_process(failure, helper_path, monkeypatch, verdicts):
    """No usable helper: the shadow runs in-process, same report and verdict."""
    monkeypatch.setattr(vectorized_module, "_helper", None)
    if failure == "pool creation":
        def no_pool(*args, **kwargs):
            raise OSError("no multiprocessing primitives")

        monkeypatch.setattr(vectorized_module, "ProcessPoolExecutor", no_pool)
    else:
        monkeypatch.setattr(vectorized_module, "_shadow_replay", dying_shadow_replay)
    serial_report = build(MultiCellSimulator).replay(cohort_trace())
    vectorized = build(VectorizedSimulator)
    report = vectorized.replay(cohort_trace())
    assert_same_report(report, serial_report)
    assert vectorized.fallback_reason is None
    assert list(verdicts.values()) == [True]
    # The process stays on the in-process shadow.
    assert vectorized_module._helper == (os.getpid(), None)
    assert vectorized_module._submit_shadow(()) is None


def test_unpicklable_job_runs_in_process(helper_path, monkeypatch, verdicts):
    """A job the helper cannot receive runs in-process; the helper stays."""

    class LocalCell(CellConfig):  # local classes do not pickle
        pass

    calls = []

    def recording_shadow_replay(job):
        calls.append(os.getpid())
        return shadow_replay(job)

    monkeypatch.setattr(vectorized_module, "_shadow_replay", recording_shadow_replay)
    cells = [LocalCell(name=f"cell_{index}") for index in range(3)]
    catalogue = default_catalogue(DOMAINS, seed=3)
    serial_report = MultiCellSimulator(cells, catalogue, seed=11).replay(cohort_trace())
    report = VectorizedSimulator(cells, catalogue, seed=11).replay(cohort_trace())
    assert_same_report(report, serial_report)
    assert calls == [os.getpid()]
    assert list(verdicts.values()) == [True]
    assert_live_helper()


def test_serial_failure_still_reads_the_helper_report(helper_path, monkeypatch, verdicts):
    """The serial replay raising while the helper's job is pending."""
    collected = []
    submit = vectorized_module._submit_shadow

    def recording_submit(job):
        collect = submit(job)
        assert collect is not None

        def recording_collect():
            collected.append(collect())
            return collected[-1]

        return recording_collect

    def failing_replay(trace):
        raise RuntimeError("injected serial fault")

    monkeypatch.setattr(vectorized_module, "_submit_shadow", recording_submit)
    vectorized = build(VectorizedSimulator)
    monkeypatch.setattr(vectorized._inner, "replay", failing_replay)
    with pytest.raises(RuntimeError, match="injected serial fault"):
        vectorized.replay(cohort_trace())
    assert len(collected) == 1 and isinstance(collected[0], SimulationReport)
    assert not verdicts
    assert_live_helper()


#: Replays catalog rows on the vectorized backend with ``--jobs 2`` (forked
#: pool workers, each starting its own helper) and prints the tables.
PARALLEL_ROWS = """
import json, sys
import repro.sim.vectorized.simulator as vectorized_module
from repro.scenarios.catalog import catalog
from repro.scenarios.runner import run_catalog

vectorized_module.available_cpus = lambda: 2
specs = [catalog()[name] for name in sys.argv[1:]]
tables = run_catalog(specs, seed=0, scale=0.05, jobs=2, backend="vectorized")
print(json.dumps({name: table.rows for name, table in tables.items()}))
"""


def test_parallel_runner_rows_match_jobs_1(helper_path):
    """Vectorized rows under ParallelRunner(jobs=2) equal jobs=1, in bounded time."""
    names = ["steady_state", "link_brownout", "cache_cold_restart"]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-c", PARALLEL_ROWS, *names],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("jobs=2 vectorized rows did not finish in 120 s")
    assert process.returncode == 0, stderr.decode()
    specs = [catalog()[name] for name in names]
    tables = run_catalog(specs, seed=0, scale=0.05, jobs=1, backend="vectorized")
    expected = json.loads(json.dumps({name: table.rows for name, table in tables.items()}))
    assert json.loads(stdout) == expected


def test_record_many_is_bit_identical_to_scalar_records():
    """Batch recording folds exactly like scalar ``+=`` — including overflow."""
    values = np.random.default_rng(5).random(700) * 3.0
    scalar = LatencyRecorder(reservoir_size=256, seed=9)
    batched = LatencyRecorder(reservoir_size=256, seed=9)
    for value in values:
        scalar.record(float(value))
    batched.record_many(values[:100])
    batched.record_many(values[100:100])  # empty batch is a no-op
    batched.record_many(values[100:])
    assert batched._count == scalar._count
    assert batched._sum == scalar._sum
    assert batched._max == scalar._max
    assert np.array_equal(batched._values(), scalar._values())


def test_block_rng_draws_match_scalar_draws():
    """``Generator.random(n)`` consumes the stream exactly like n scalar draws.

    The mobility pre-pass rewinds the bit-generator state and re-draws a
    block of the exact consumed length; this pins the numpy contract it
    relies on.
    """
    block_rng = np.random.default_rng(42)
    scalar_rng = np.random.default_rng(42)
    block = block_rng.random(257)
    scalars = np.array([scalar_rng.random() for _ in range(257)])
    assert np.array_equal(block, scalars)
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    state = block_rng.bit_generator.state
    first = block_rng.random(100)
    block_rng.bit_generator.state = state
    assert np.array_equal(block_rng.random(100), first)
