"""Micro and macro performance benchmarks with plain-dict results.

Every benchmark here deliberately uses only long-standing APIs (module
``eval()`` inference, cache get/put, ``Simulation`` scheduling,
``MultiCellSimulator.replay``), so the same harness can also be run against
an older checkout for an A/B on one host.  Absolute rates describe the host
they were measured on; only ratios taken within one run (the in-run gates,
``speedup_vs_serial``) compare across hosts.

All workloads are seeded and deterministic; only wall-clock varies between
runs.  Micro benchmarks report the best of ``repeats`` rounds to damp
scheduler noise.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

#: Workload sizes at ``scale=1.0``; the CI smoke job runs at ``scale=0.1``.
TENSOR_INFERENCE_PASSES = 40
TENSOR_TRAIN_STEPS = 12
CODEC_TRAIN_EPOCHS = 8
CACHE_OPERATIONS = 40_000
ENGINE_EVENTS = 60_000
E9_REQUESTS = 50_000
TRACE_REQUESTS = 400_000
SUITE_REQUESTS_PER_ROW = 12_500
COHORT_OPERATIONS = 200_000
LATENCY_RECORDS = 200_000

#: Gate of ``latency_record``: an overflow record (one reservoir slot draw)
#: may cost at most this many fill records.
LATENCY_RECORD_MAX_RATIO = 4.0


def _best_of(function: Callable[[], Dict[str, float]], repeats: int) -> Dict[str, float]:
    """Run ``function`` ``repeats`` times, keep the round with the lowest wall."""
    best: Dict[str, float] = {}
    for _ in range(max(repeats, 1)):
        result = function()
        if not best or result["wall_s"] < best["wall_s"]:
            best = result
    return best


def bench_tensor_inference(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Eval-mode semantic-encoder forward passes per second.

    This is the codec hot path an edge server pays per request: the module is
    in ``eval()`` mode, so revisions with an inference fast path (no autograd
    tape) get credit for it while older revisions simply run their normal
    forward.
    """
    from repro.semantic.config import CodecConfig
    from repro.semantic.encoder import SemanticEncoder

    passes = max(int(TENSOR_INFERENCE_PASSES * scale), 3)
    config = CodecConfig(architecture="mlp", embedding_dim=32, hidden_dim=64, feature_dim=16, seed=0)
    encoder = SemanticEncoder(vocab_size=200, config=config)
    encoder.eval()
    rng = np.random.default_rng(0)
    token_ids = rng.integers(1, 200, size=(64, 16))
    try:  # graph-captured replay when this revision has the runtime
        runner = encoder.compile()
    except AttributeError:
        runner = encoder

    def round_() -> Dict[str, float]:
        started = time.perf_counter()
        for _ in range(passes):
            runner(token_ids)
        wall = time.perf_counter() - started
        return {"wall_s": wall, "passes": float(passes), "passes_per_sec": passes / wall}

    return _best_of(round_, repeats)


def bench_tensor_training(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Forward+backward+Adam steps per second (the tape path must not regress).

    The workload (model, data, update rule) is unchanged across revisions so
    steps/sec stays comparable; revisions with the graph runtime replay the
    captured step program instead of rebuilding the closure tape — producing
    bit-identical parameters.  Note this MLP at batch 64 is BLAS-bound, which
    caps the achievable speedup well below the small-batch codec workloads
    (see :func:`bench_codec_training` for the end-to-end training hot path).
    """
    from repro.nn import Adam, MLP, Tensor, mse_loss

    steps = max(int(TENSOR_TRAIN_STEPS * scale), 2)
    model = MLP(32, [64, 64], 16, seed=0)
    optimizer = Adam(model.parameters(), 1e-3)
    rng = np.random.default_rng(0)
    input_array = rng.normal(size=(64, 32))
    target_array = rng.normal(size=(64, 16))
    inputs = Tensor(input_array)
    targets = Tensor(target_array)
    try:  # graph-captured step when this revision has the runtime
        from repro.nn.graph import CompiledTrainStep

        compiled = CompiledTrainStep(
            lambda inputs, targets: mse_loss(model(Tensor(inputs)), Tensor(targets)),
            model.parameters(),
        )
    except ImportError:
        compiled = None

    def round_() -> Dict[str, float]:
        started = time.perf_counter()
        for _ in range(steps):
            optimizer.zero_grad()
            if compiled is not None:
                compiled(inputs=input_array, targets=target_array)
            else:
                loss = mse_loss(model(inputs), targets)
                loss.backward()
            optimizer.step()
        wall = time.perf_counter() - started
        return {"wall_s": wall, "steps": float(steps), "steps_per_sec": steps / wall}

    return _best_of(round_, repeats)


def bench_codec_training(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """End-to-end ``SemanticCodec.train`` steps per second (the e1/e2/e3 shape).

    This is the workload that dominates the experiment suite's wall clock:
    joint encoder/decoder training with cross-entropy, gradient clipping and
    Adam at the suite's own shapes (mlp codec, batch 16, max_length 16).
    Vocabulary construction is excluded from the timed region.  Older
    revisions run their eager loop; graph-runtime revisions trace each batch
    signature once and replay it — bit-identical either way, which is pinned
    by the committed experiment tables.
    """
    from repro.semantic import CodecConfig, SemanticCodec

    # Floored at the full epoch count (the round still takes well under a
    # second): with fewer steps the one-off capture cost (trace + build +
    # bitwise verify, a few ms) dwarfs the steps being measured and the
    # number stops reflecting steady-state training.
    epochs = max(int(CODEC_TRAIN_EPOCHS * scale), CODEC_TRAIN_EPOCHS)
    rng = np.random.default_rng(0)
    words = [f"word{index}" for index in range(80)]
    sentences = [
        " ".join(rng.choice(words, size=int(rng.integers(4, 12))))
        for _ in range(64)
    ]
    config = CodecConfig(architecture="mlp", seed=0)
    batches_per_epoch = (len(sentences) + config.batch_size - 1) // config.batch_size
    steps = epochs * batches_per_epoch

    def round_() -> Dict[str, float]:
        codec = SemanticCodec.from_corpus(sentences, config=config, domain="bench")
        started = time.perf_counter()
        codec.train(sentences, epochs=epochs, seed=0)
        wall = time.perf_counter() - started
        return {"wall_s": wall, "steps": float(steps), "steps_per_sec": steps / wall}

    return _best_of(round_, repeats)


def _cache_workload(policy: str, operations: int) -> Dict[str, float]:
    from repro.caching.cache import SemanticModelCache
    from repro.caching.entry import CacheEntry, GENERAL_MODEL

    num_keys = 4000
    entry_size = 1000
    capacity = 1_000_000  # ~1000 resident entries, so eviction scans matter.
    cache = SemanticModelCache(capacity, policy=policy)
    rng = np.random.default_rng(0)
    # Zipf-flavoured key stream: popular head, long tail.
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = 1.0 / ranks**0.8
    weights /= weights.sum()
    keys = rng.choice(num_keys, size=operations, p=weights)

    started = time.perf_counter()
    for step, key_index in enumerate(keys):
        key = f"general/d{key_index}"
        now = float(step)
        if cache.get(key, now=now) is None:
            cache.put(
                CacheEntry(
                    key=key,
                    kind=GENERAL_MODEL,
                    domain=f"d{key_index}",
                    size_bytes=entry_size,
                ),
                now=now,
            )
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "operations": float(operations),
        "ops_per_sec": operations / wall,
        "hit_ratio": cache.statistics.hit_ratio,
        "evictions": float(cache.statistics.evictions),
    }


def bench_cache(scale: float = 1.0, repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Get/put throughput of a ~1000-entry cache under LRU and LFU eviction."""
    operations = max(int(CACHE_OPERATIONS * scale), 1000)
    return {
        policy: _best_of(lambda p=policy: _cache_workload(p, operations), repeats)
        for policy in ("lru", "lfu")
    }


def bench_engine(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Raw event-queue throughput: pre-scheduled storm plus rescheduling chains.

    Half the events are scheduled up front (deep-heap behaviour), and each of
    those reschedules one follow-up while running (the steady-state pattern of
    the multi-cell replay).
    """
    from repro.sim.engine import Simulation

    initial = max(int(ENGINE_EVENTS * scale) // 2, 500)
    rng = np.random.default_rng(0)
    delays = rng.random(initial) * 100.0
    followups = rng.random(initial) * 10.0

    def round_() -> Dict[str, float]:
        simulation = Simulation(trace=False)

        def action(sim: Simulation, index: int) -> None:
            sim.schedule(followups[index], lambda s: None)

        started = time.perf_counter()
        for index in range(initial):
            simulation.schedule(delays[index], lambda s, i=index: action(s, i))
        simulation.run()
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "events": float(simulation.events_processed),
            "events_per_sec": simulation.events_processed / wall,
        }

    return _best_of(round_, repeats)


def _e9_replay(scale: float, repeats: int, batching) -> Dict[str, float]:
    """Wall clock of one E9 row (4 cells, 50k Poisson requests) under ``batching``.

    Trace generation is excluded from the timed region: the benchmark isolates
    the simulator (engine + caches + batching + links), which is the hot path
    the ROADMAP cares about.  The latency percentiles and hit ratio are
    reported so regressions in *behaviour* (not just speed) stand out.
    """
    from repro.sim.multicell import CellConfig, default_catalogue
    from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
    from repro.workloads.generator import ArrivalTraceGenerator

    num_requests = max(int(E9_REQUESTS * scale), 1000)
    domains = [f"domain_{index}" for index in range(12)]
    generator = ArrivalTraceGenerator(
        domains,
        num_users=500,
        zipf_exponent=0.9,
        profile="poisson",
        rate=5000.0,
        period_s=max(num_requests / 5000.0, 1.0),
        seed=0,
    )
    trace = generator.generate(num_requests)
    config = SimulatorConfig(batching=batching)

    def round_() -> Dict[str, float]:
        cells = [CellConfig(name=f"cell_{index}") for index in range(4)]
        catalogue = default_catalogue(domains, seed=0)
        simulator = MultiCellSimulator(cells, catalogue, config=config, seed=0)
        started = time.perf_counter()
        report = simulator.replay(trace)
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "requests": float(num_requests),
            "completed": float(report.completed),
            "events": float(report.events_processed),
            "events_per_sec": report.events_processed / wall,
            "requests_per_sec_wall": num_requests / wall,
            "hit_ratio": report.hit_ratio,
            "p50_ms": report.latency["p50_s"] * 1000.0,
            "p95_ms": report.latency["p95_s"] * 1000.0,
            "p99_ms": report.latency["p99_s"] * 1000.0,
        }

    return _best_of(round_, repeats)


def bench_e9_replay(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """End-to-end wall clock of one E9 row: 4 cells, 50k Poisson requests, batch-8."""
    from repro.sim.batching import BatchingConfig

    batching = BatchingConfig(max_batch_size=8, max_wait_s=0.005, amortization=0.4)
    return _e9_replay(scale, repeats, batching)


def bench_e9_replay_unbatched(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """The :func:`bench_e9_replay` row with e9's unbatched policy.

    Every request is its own batch, so the per-batch chain (close, execute,
    post the completion) runs once per request: e9's unbatched rows take most
    of its replay time.  Recorded as a trajectory, not gated.
    """
    from repro.sim.batching import BatchingConfig

    batching = BatchingConfig(max_batch_size=1, max_wait_s=0.0, amortization=1.0)
    return _e9_replay(scale, repeats, batching)


def bench_e9_replay_vectorized(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """The E9 replay through the vectorized cohort kernel, vs serial in-process.

    Same workload as :func:`bench_e9_replay` but with ``retain_requests=False``
    for *both* engines — the fault-free, no-observer hot path the kernel
    targets.  The serial engine is measured in the same process and round
    structure, so ``speedup_vs_serial`` is a like-for-like ratio on this host
    rather than a cross-file comparison.  Revisions without the vectorized
    backend fall back to the serial engine (speedup ~1.0), keeping the row
    well-defined against older checkouts.
    """
    from repro.sim.batching import BatchingConfig
    from repro.sim.multicell import CellConfig, default_catalogue
    from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
    from repro.workloads.generator import ArrivalTraceGenerator

    try:
        from repro.sim.vectorized import VectorizedSimulator
    except ImportError:  # pre-vectorized revisions: serial reference
        VectorizedSimulator = None

    num_requests = max(int(E9_REQUESTS * scale), 1000)
    domains = [f"domain_{index}" for index in range(12)]
    generator = ArrivalTraceGenerator(
        domains,
        num_users=500,
        zipf_exponent=0.9,
        profile="poisson",
        rate=5000.0,
        period_s=max(num_requests / 5000.0, 1.0),
        seed=0,
    )
    trace = generator.generate(num_requests)
    config = SimulatorConfig(
        batching=BatchingConfig(max_batch_size=8, max_wait_s=0.005, amortization=0.4),
        retain_requests=False,
    )

    def replay_round(build) -> Dict[str, float]:
        cells = [CellConfig(name=f"cell_{index}") for index in range(4)]
        catalogue = default_catalogue(domains, seed=0)
        simulator = build(cells, catalogue)
        started = time.perf_counter()
        report = simulator.replay(trace)
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "completed": float(report.completed),
            "events": float(report.events_processed),
            "events_per_sec": report.events_processed / wall,
            "hit_ratio": report.hit_ratio,
        }

    def serial_build(cells, catalogue):
        return MultiCellSimulator(cells, catalogue, config=config, seed=0)

    def vectorized_build(cells, catalogue):
        if VectorizedSimulator is None:
            return serial_build(cells, catalogue)
        return VectorizedSimulator(cells, catalogue, config=config, seed=0, cross_check=False)

    serial = _best_of(lambda: replay_round(serial_build), repeats)
    vectorized = _best_of(lambda: replay_round(vectorized_build), repeats)
    assert vectorized["completed"] == serial["completed"]
    assert vectorized["events"] == serial["events"]
    return {
        **vectorized,
        "requests": float(num_requests),
        "serial_wall_s": serial["wall_s"],
        "serial_events_per_sec": serial["events_per_sec"],
        "speedup_vs_serial": serial["wall_s"] / vectorized["wall_s"],
    }


def bench_cohort_kernel(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Cohort-kernel primitives in isolation, per element of columnar input.

    Times the two numpy stages every vectorized replay pays once per trace:
    the arrival pre-pass feed (first-occurrence scatter-min over the user
    column plus ``searchsorted`` cohort splits) and the batch latency append
    (``LatencyRecorder.record_many`` in completion-fan-out-sized chunks;
    falls back to scalar ``record`` on revisions without the batch path).
    """
    from repro.sim.metrics import LatencyRecorder

    operations = max(int(COHORT_OPERATIONS * scale), 10_000)
    rng = np.random.default_rng(0)
    users = rng.integers(0, 500, size=operations)
    timestamps = np.sort(rng.random(operations) * 100.0)
    latencies = rng.random(operations) * 0.25
    boundaries = np.arange(0.0, 100.0, 0.5)
    chunk = 4096

    def round_() -> Dict[str, float]:
        recorder = LatencyRecorder(reservoir_size=operations)
        record_many = getattr(recorder, "record_many", None)
        started = time.perf_counter()
        first_occurrence = np.full(500, operations, dtype=np.int64)
        np.minimum.at(first_occurrence, users, np.arange(operations))
        splits = np.searchsorted(timestamps, boundaries, side="left")
        for start in range(0, operations, chunk):
            block = latencies[start : start + chunk]
            if record_many is not None:
                record_many(block)
            else:
                for value in block.tolist():
                    recorder.record(value)
        wall = time.perf_counter() - started
        assert len(recorder) == operations and splits[-1] <= operations
        assert int(first_occurrence.min()) >= 0
        return {
            "wall_s": wall,
            "operations": float(operations),
            "ops_per_sec": operations / wall,
        }

    return _best_of(round_, repeats)


def bench_latency_record(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """ns per ``LatencyRecorder.record`` below and above the reservoir threshold.

    One recorder takes ``n`` records that fill its ``n``-sample reservoir,
    then ``n`` more that each draw a replacement slot; both halves record
    the same values in the same run.  ``overflow_over_fill`` divides the
    best overflow time by the best fill time over ``repeats`` rounds, so it
    compares the two paths on one host and is gated on every host.
    """
    from repro.sim.metrics import LatencyRecorder

    records = max(int(LATENCY_RECORDS * scale), 20_000)
    values = (np.random.default_rng(0).random(records) * 0.25).tolist()

    def timed(record) -> float:
        started = time.perf_counter()
        for value in values:
            record(value)
        return time.perf_counter() - started

    fill_s = overflow_s = float("inf")
    for _ in range(max(repeats, 1)):
        recorder = LatencyRecorder(reservoir_size=records)
        fill_s = min(fill_s, timed(recorder.record))
        overflow_s = min(overflow_s, timed(recorder.record))
        assert len(recorder) == 2 * records and not recorder.exact
    return {
        "wall_s": fill_s + overflow_s,
        "records": float(2 * records),
        "records_per_sec": 2 * records / (fill_s + overflow_s),
        "fill_ns_per_record": fill_s / records * 1e9,
        "overflow_ns_per_record": overflow_s / records * 1e9,
        "overflow_over_fill": overflow_s / fill_s,
    }


def bench_trace_generation(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Arrival-trace generation throughput plus the columnar summary helpers.

    ``ArrivalTraceGenerator.generate`` is the outer bottleneck of every large
    replay: at millions of requests, building one Python object per request
    dominates wall time and memory.  The benchmark times generation of a
    Poisson trace followed by ``domain_counts()`` (the summary pass the
    experiments run), so revisions that keep the trace columnar get credit
    while older object-per-request revisions simply run their normal path.
    """
    from repro.workloads.generator import ArrivalTraceGenerator

    num_requests = max(int(TRACE_REQUESTS * scale), 5000)
    domains = [f"domain_{index}" for index in range(12)]

    def round_() -> Dict[str, float]:
        generator = ArrivalTraceGenerator(
            domains, num_users=500, zipf_exponent=0.9, profile="poisson", rate=5000.0, seed=0
        )
        started = time.perf_counter()
        trace = generator.generate(num_requests)
        counts = trace.domain_counts()
        wall = time.perf_counter() - started
        assert len(trace) == num_requests and sum(counts.values()) == num_requests
        return {
            "wall_s": wall,
            "requests": float(num_requests),
            "requests_per_sec": num_requests / wall,
        }

    return _best_of(round_, repeats)


def _suite_parallel_row(payload: Dict[str, object]) -> Dict[str, float]:
    """One independent (profile x batching) replay row of the parallel-suite bench.

    Module-level so a process pool can dispatch it by reference; takes only
    picklable primitives and returns a plain dict.
    """
    from repro.sim.batching import BatchingConfig
    from repro.sim.multicell import CellConfig, default_catalogue
    from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
    from repro.workloads.generator import ArrivalTraceGenerator

    domains = [f"domain_{index}" for index in range(12)]
    generator = ArrivalTraceGenerator(
        domains,
        num_users=500,
        zipf_exponent=0.9,
        profile=str(payload["profile"]),
        rate=float(payload["rate"]),
        seed=int(payload["seed"]),
    )
    trace = generator.generate(int(payload["num_requests"]))
    config = SimulatorConfig(
        batching=BatchingConfig(
            max_batch_size=int(payload["max_batch_size"]),
            max_wait_s=float(payload["max_wait_s"]),
            amortization=float(payload["amortization"]),
        )
    )
    cells = [CellConfig(name=f"cell_{index}") for index in range(4)]
    catalogue = default_catalogue(domains, seed=int(payload["seed"]))
    simulator = MultiCellSimulator(cells, catalogue, config=config, seed=int(payload["seed"]))
    report = simulator.replay(trace)
    return {"completed": float(report.completed), "hit_ratio": report.hit_ratio}


def bench_suite_parallel(scale: float = 1.0, repeats: int = 1, jobs: int = 0) -> Dict[str, float]:
    """Wall clock of a bundle of independent replay rows fanned across a pool.

    The work unit is the E9 row shape — generate a trace, replay it through a
    4-cell deployment — which is exactly what the experiment runtime fans out
    under ``--jobs``.  Revisions without the runtime subsystem run the rows
    serially.  ``jobs=0`` picks ``min(4, cpu_count)``.
    """
    import os

    num_requests = max(int(SUITE_REQUESTS_PER_ROW * scale), 1000)
    payloads = [
        {
            "profile": "poisson",
            "rate": 5000.0,
            "seed": seed,
            "num_requests": num_requests,
            "max_batch_size": batch,
            "max_wait_s": 0.005 if batch > 1 else 0.0,
            "amortization": 0.4 if batch > 1 else 1.0,
        }
        for seed in (0, 1)
        for batch in (1, 8)
    ]
    if jobs <= 0:
        jobs = min(4, os.cpu_count() or 1)
    try:
        from repro.runtime import ParallelRunner

        runner = ParallelRunner(jobs=jobs)
        mapper, effective_jobs = runner.map, runner.jobs
    except ImportError:  # pre-runtime revisions: serial reference
        mapper, effective_jobs = (lambda fn, items: [fn(item) for item in items]), 1

    def round_() -> Dict[str, float]:
        started = time.perf_counter()
        rows = mapper(_suite_parallel_row, payloads)
        wall = time.perf_counter() - started
        completed = sum(row["completed"] for row in rows)
        assert completed == float(len(payloads) * num_requests)
        return {
            "wall_s": wall,
            "rows": float(len(payloads)),
            "requests": completed,
            "requests_per_sec": completed / wall,
            "jobs": float(effective_jobs),
        }

    return _best_of(round_, repeats)


def run_all(scale: float = 1.0, repeats: int = 3) -> Dict[str, object]:
    """Run every benchmark and return one nested result dict."""
    return {
        "scale": scale,
        "tensor_inference": bench_tensor_inference(scale, repeats),
        "tensor_training": bench_tensor_training(scale, repeats),
        "codec_training": bench_codec_training(scale, max(repeats - 1, 1)),
        "cache": bench_cache(scale, repeats),
        "sim_engine": bench_engine(scale, repeats),
        "e9_replay": bench_e9_replay(scale, max(repeats - 1, 1)),
        "e9_replay_unbatched": bench_e9_replay_unbatched(scale, max(repeats - 1, 1)),
        "e9_replay_vectorized": bench_e9_replay_vectorized(scale, repeats),
        "cohort_kernel": bench_cohort_kernel(scale, repeats),
        "latency_record": bench_latency_record(scale, repeats),
        "trace_generation": bench_trace_generation(scale, repeats),
        "suite_parallel": bench_suite_parallel(scale, max(repeats - 2, 1)),
    }
