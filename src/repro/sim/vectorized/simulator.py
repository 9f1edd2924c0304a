"""Vectorized event-kernel backend: numpy cohort replay of the sim hot path.

:class:`VectorizedSimulator` implements the :class:`~repro.sim.backend.
SimBackend` surface by wrapping a real serial
:class:`~repro.sim.simulator.MultiCellSimulator` and replacing only its
*event loop*.  The wrapped simulator's live objects — the per-cell
:class:`~repro.caching.cache.SemanticModelCache` (and its eviction policy),
the :class:`~repro.edge.resources.ComputeResource`, the mobility RNG, the
latency reservoir — are driven directly, so every policy decision, counter
and floating-point operation happens in the exact same order as the serial
reference.  What the kernel removes is the per-event Python overhead: closure
allocation, ``Request`` materialization on the no-observer path, scalar
latency recording, and the engine's generic heap dispatch.

The cohort structure:

* **Arrival admission** runs straight off the columnar
  :class:`~repro.workloads.traces.RequestTrace` arrays.  Mobility is resolved
  for *all* arrivals in a deterministic pre-pass that replicates the serial
  RNG draw order exactly (same generator, same stream positions), leaving the
  per-arrival loop free of RNG calls.
* **Completion fan-out** accumulates (completion time, cohort) pairs and
  feeds the latency reservoir with one vectorized append per replay
  (:meth:`~repro.sim.metrics.LatencyRecorder.record_many`), bit-identical to
  the serial per-request ``record`` calls.
* **Timeline events** (``schedule_calls`` fault batches) are lowered as
  cohort barriers: the kernel pauses at the exact heap position the serial
  engine would, then invokes the *real* fault methods on the wrapped
  simulator.

Determinism contract: the serial engine remains the bit-identity reference.
On every freshly-seen (deployment, config, trace, timeline) signature the
backend replays **both** engines — serial on the wrapped simulator (that
report is returned), the kernel on a shadow deployment built from the same
constructor arguments — and compares the full reports field by field.  Any
divergence marks the signature bad and silently pins it to the serial path.
Ineligible shapes (resilience policies, cell fail/recover timelines,
unseeded runs, warm simulators) fall back to the serial path entirely, so
results are *always* exactly the serial engine's.

The shadow replay runs in one long-lived helper process (spawned at the first
validation of each process) while the serial replay runs in the caller, so a
fresh signature costs about max(serial, kernel) wall clock instead of their
sum.  On a one-core host, or where no helper process can be started or the
helper breaks, the shadow runs in-process as before; the verdict is the same
either way and stays in this process.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.util import Finalize
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching.cache import CacheStatistics
from repro.caching.entry import CacheEntry, GENERAL_MODEL
from repro.sim.metrics import CellStats, SimulationReport
from repro.sim.multicell import CLOUD, CellConfig, ModelSpec
from repro.sim.request import (
    CLOUD_FETCH,
    COALESCED,
    COMPLETED,
    FETCHING,
    LOCAL_HIT,
    NEIGHBOR_FETCH,
    QUEUED,
    Request,
)
from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
from repro.exceptions import SimulationError
from repro.runtime.parallel import available_cpus
from repro.utils.rng import SeedLike
from repro.workloads.traces import RequestTrace, require_trace

#: Timeline methods the kernel can lower as cohort barriers.  ``fail_cell`` /
#: ``recover_cell`` re-route in-flight work through the failover chain, which
#: is inherently scalar — those timelines take the serial path.
SUPPORTED_TIMELINE_CALLS = frozenset(
    {
        "wipe_cell_cache",
        "resize_cell_cache",
        "degrade_downlink",
        "restore_downlink",
        "set_handover_probability",
    }
)

# Heap event kinds (payload tuples are (time, seq, kind, ...)); seq values are
# unique, so heap comparisons never reach the payload.
_EV_TIMELINE = 0
_EV_LOOKUP = 1
_EV_TIMEOUT = 2
_EV_FETCH = 3
_EV_COMPLETE = 4

#: Mobility pre-pass fixpoint chunk: bounds worst-case fixpoint iterations
#: (successes per chunk) while keeping each iteration a small-array op.
_MOBILITY_CHUNK = 8192


class VectorizedSimulator:
    """Numpy cohort replay of the multi-cell simulator (third backend).

    Wraps a real :class:`MultiCellSimulator`; every attribute not overridden
    here (``cells``, ``engine``, ``latency``, fault methods, ``report`` …)
    delegates to it, so the wrapper satisfies the full backend protocol and
    post-run audits inspect genuine state.
    """

    backend_name = "vectorized"

    #: Class-level verdict cache: signature -> True (kernel bit-identical to
    #: serial on this shape) / False (diverged; pinned to serial).
    _validated: Dict[str, bool] = {}

    def __init__(
        self,
        cells: Sequence[CellConfig],
        catalogue: Dict[str, ModelSpec],
        config: Optional[SimulatorConfig] = None,
        seed: SeedLike = None,
        cross_check: bool = True,
    ) -> None:
        self._inner = MultiCellSimulator(cells, catalogue, config=config, seed=seed)
        self._cell_configs = list(cells)
        self._catalogue_arg = dict(catalogue)
        self._config_arg = config
        self._seed = seed
        self._cross_check = bool(cross_check)
        #: Recorded ``schedule_calls`` batches, in scheduling order (their
        #: engine sequence numbers are 1..K on a fresh simulator).
        self._timeline: List[Tuple[float, Tuple[Tuple[str, tuple], ...], str]] = []
        #: Why the most recent replay took the serial path (``None`` when the
        #: kernel ran).  Diagnostic only; results are identical either way.
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Delegation
    # ------------------------------------------------------------------ #
    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    @property
    def on_request_end(self) -> Optional[Callable[[Request], None]]:
        return self._inner.on_request_end

    @on_request_end.setter
    def on_request_end(self, hook: Optional[Callable[[Request], None]]) -> None:
        self._inner.on_request_end = hook

    def schedule_calls(self, time_s: float, calls: Sequence[tuple], label: str = "") -> None:
        """Record the fault batch for the kernel and forward it to the engine."""
        recorded = tuple((method_name, tuple(args)) for method_name, args in calls)
        self._timeline.append((float(time_s), recorded, label))
        self._inner.schedule_calls(time_s, calls, label=label)

    def run(self) -> SimulationReport:
        report = self._inner.run()
        self._timeline.clear()
        return report

    # ------------------------------------------------------------------ #
    # Replay entry point
    # ------------------------------------------------------------------ #
    def replay(self, trace: RequestTrace) -> SimulationReport:
        require_trace(trace)
        blocker = self._fast_path_blocker(trace)
        if blocker is not None:
            self.fallback_reason = blocker
            report = self._inner.replay(trace)
            self._timeline.clear()
            return report
        self.fallback_reason = None
        if self._cross_check:
            signature = self._signature(trace)
            verdict = VectorizedSimulator._validated.get(signature)
            if verdict is None:
                return self._validate(trace, signature)
            if verdict is False:
                self.fallback_reason = "cross-check divergence recorded for this signature"
                report = self._inner.replay(trace)
                self._timeline.clear()
                return report
        timeline = list(self._timeline)
        self._timeline.clear()
        return self._replay_fast(
            self._inner, trace, hook=self._inner.on_request_end, timeline=timeline
        )

    # ------------------------------------------------------------------ #
    # Eligibility
    # ------------------------------------------------------------------ #
    def _fast_path_blocker(self, trace) -> Optional[str]:
        """Why this replay cannot take the kernel (``None`` when it can)."""
        if len(trace.timestamps) == 0:
            return "empty trace"
        if float(np.min(trace.timestamps)) < self._inner.engine.now:
            return "trace starts before the engine clock"
        if self._seed is None:
            return "unseeded simulators are not shadow-reproducible"
        inner = self._inner
        if inner._resilience is not None:
            return "resilience policies take the serial per-request path"
        if inner._placement is not None:
            return "placement policies take the serial per-request path"
        for _, calls, _ in self._timeline:
            for method_name, _args in calls:
                if method_name not in SUPPORTED_TIMELINE_CALLS:
                    return f"timeline call {method_name!r} is not vectorizable"
        engine = inner.engine
        if engine._sequence != len(self._timeline) or engine.pending() != len(self._timeline):
            return "engine holds events not scheduled through schedule_calls"
        if not self._is_fresh():
            return "simulator state is not fresh"
        return None

    def _is_fresh(self) -> bool:
        """Whether the wrapped simulator is in its just-constructed state.

        The kernel itself only needs *consistent* state, but the cross-check
        shadow is built from constructor arguments, so validation is only
        meaningful from a fresh start; warm or hand-mutated simulators take
        the serial path.
        """
        inner = self._inner
        if (
            inner.engine.now != 0.0
            or inner.engine.events_processed != 0
            or inner._request_counter != 0
            or inner._completed_total != 0
            or len(inner.latency) != 0
            or inner.requests
            or inner.backhaul_bytes != 0.0
            or inner.cloud_bytes != 0.0
            or inner.mobility._user_cell
            or inner.mobility._probability != inner.config.mobility.handover_probability
            or inner._downlink_time != inner._downlink_base
        ):
            return False
        for cell in inner.cells.values():
            if (
                cell.failed
                or cell.inflight
                or len(cell.batcher)
                or cell.batcher.generation != 0
                or len(cell.cache) != 0
                or cell.cache.statistics != CacheStatistics()
                or cell.stats != CellStats(name=cell.name)
                or cell.server.compute.busy_time != 0.0
            ):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Cross-check
    # ------------------------------------------------------------------ #
    def _signature(self, trace: RequestTrace) -> str:
        """Digest of everything that determines a replay's result."""
        digest = hashlib.blake2b(digest_size=16)

        def feed(text: str) -> None:
            digest.update(text.encode())
            digest.update(b"\x00")

        feed("vectorized-kernel-v1")
        seed = self._seed
        # A Generator's repr names its address; its stream state is what the
        # replay depends on.
        feed(repr(seed.bit_generator.state if isinstance(seed, np.random.Generator) else seed))
        feed(repr(self._inner.config))
        for cell_config in self._cell_configs:
            feed(repr(cell_config))
        for domain in self._catalogue_arg:
            feed(repr((domain, self._catalogue_arg[domain])))
        for entry in self._timeline:
            feed(repr(entry))
        for array in (trace.timestamps, trace.user_indices, trace.domain_indices):
            digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(b"\x00")
        feed(repr(tuple(trace.domain_names)))
        return digest.hexdigest()

    def _validate(self, trace: RequestTrace, signature: str) -> SimulationReport:
        """First sight of this signature: run both engines, compare, record.

        The serial replay runs on the wrapped simulator — with the caller's
        observer hook, and its report is what the caller receives — so a
        validation replay is externally indistinguishable from a plain serial
        one.  The kernel runs hook-less on a shadow deployment built from the
        same constructor arguments, in the helper process while the serial
        replay runs, or in-process first when there is no helper.
        """
        # The shadow gets its own copy of a Generator seed: sharing it would
        # let one replay advance the stream the other reads.
        job = (
            self._cell_configs,
            self._catalogue_arg,
            self._config_arg,
            copy.deepcopy(self._seed),
            trace,
            list(self._timeline),
        )
        collect = _submit_shadow(job)
        if collect is None:
            fast_report = _shadow_or_none(job)
            serial_report = self._inner.replay(trace)
        else:
            try:
                serial_report = self._inner.replay(trace)
            finally:
                # Read the helper's report even if the serial replay raised,
                # so no job outlives this call.
                fast_report = collect()
        self._timeline.clear()
        verdict = fast_report is not None and self._reports_equal(serial_report, fast_report)
        VectorizedSimulator._validated[signature] = verdict
        if not verdict:
            self.fallback_reason = "cross-check divergence; serial result returned"
        return serial_report

    @staticmethod
    def _reports_equal(a: SimulationReport, b: SimulationReport) -> bool:
        """Exact field-by-field equality, wall-clock excluded."""
        if (
            a.completed != b.completed
            or a.duration_s != b.duration_s
            or a.events_processed != b.events_processed
            or a.backhaul_bytes != b.backhaul_bytes
            or a.cloud_bytes != b.cloud_bytes
            or a.dropped != b.dropped
            or a.shed != b.shed
            or a.deadline_exceeded != b.deadline_exceeded
            or a.total_compute_busy_s != b.total_compute_busy_s
            or a.latency != b.latency
        ):
            return False
        if set(a.cells) != set(b.cells):
            return False
        return all(a.cells[name] == b.cells[name] for name in a.cells)

    # ------------------------------------------------------------------ #
    # Mobility pre-pass
    # ------------------------------------------------------------------ #
    @staticmethod
    def _mobility_prepass(
        sim: MultiCellSimulator,
        sorted_times: np.ndarray,
        users: np.ndarray,
        probability_schedule: Sequence[Tuple[float, float]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve mobility for every arrival, replicating serial draw order.

        Returns ``(cell_index, moved)`` per arrival (in sorted order).  The
        serial engine consumes, per arrival: one ``integers(num_cells)`` draw
        on first sight of a user, then — with two or more cells — exactly one
        ``random()`` draw, plus one more for the step direction when the
        handover fires on three or more cells.  This pre-pass issues the same
        draws from the same generator in the same order: first-sight draws
        are scalar at their exact stream positions, and the ``random()`` runs
        between them are drawn as blocks.  Variable-length consumption (the
        direction draws) is resolved by a per-chunk fixpoint; the generator
        state is then rewound and advanced by the exact count consumed, so
        every later draw sits at the serial stream position.
        """
        mobility = sim.mobility
        # Reading ``rng`` syncs the model's block draws to the scalar position.
        rng = mobility.rng
        num_cells = mobility._num_cells
        n = len(users)
        moved = np.zeros(n, dtype=bool)
        steps = np.zeros(n, dtype=np.int64)

        # Per-arrival handover probability: piecewise-constant from the
        # timeline barriers.  A barrier scheduled at time t fires before any
        # arrival at t (its sequence number is below the run boundary), so
        # the left split side is exact.
        p_arr = np.full(n, mobility._probability, dtype=np.float64)
        for barrier_time, probability in probability_schedule:
            first = int(np.searchsorted(sorted_times, barrier_time, side="left"))
            p_arr[first:] = probability

        # Initial ring index per user: -1 marks "not yet placed".
        max_user = int(users.max())
        initial_ring = np.full(max_user + 1, -1, dtype=np.int64)
        if mobility._user_cell:
            ring_of = mobility._ring_index
            for label, cell_name in mobility._user_cell.items():
                if label.startswith("user_"):
                    try:
                        user = int(label[5:])
                    except ValueError:
                        continue
                    if 0 <= user <= max_user:
                        initial_ring[user] = ring_of[cell_name]

        # First occurrence of each not-yet-placed user (cheaper than
        # np.unique: one scatter-min instead of a full sort).
        first_occurrence = np.full(max_user + 1, n, dtype=np.int64)
        np.minimum.at(first_occurrence, users, np.arange(n, dtype=np.int64))
        sighted = (first_occurrence < n) & (initial_ring < 0)
        sight_positions = np.sort(first_occurrence[sighted])
        sight_users = np.flatnonzero(sighted)[np.argsort(first_occurrence[sighted])]

        if num_cells == 1:
            # First sight still consumes one integers() draw (always 0);
            # resolve() then returns before any random() draw.
            for _ in range(len(sight_positions)):
                int(rng.integers(num_cells))
            cell_index = np.zeros(n, dtype=np.int64)
            VectorizedSimulator._write_final_cells(mobility, users, cell_index)
            return cell_index, moved

        # Segments of the random() stream between first-sight draws.
        segments: List[Tuple[int, int, int]] = []
        bounds = sight_positions.tolist() + [n]
        if bounds[0] > 0:
            segments.append((0, bounds[0], -1))
        for index, user in enumerate(sight_users.tolist()):
            segments.append((int(bounds[index]), int(bounds[index + 1]), user))

        for start, end, sight_user in segments:
            if sight_user >= 0:
                initial_ring[sight_user] = int(rng.integers(num_cells))
            if end == start:
                continue
            if num_cells == 2:
                # Exactly one draw per arrival; the step is always +1 and
                # consumes nothing.
                block = rng.random(end - start)
                fired = block < p_arr[start:end]
                moved[start:end] = fired
                steps[start:end][fired] = 1
                continue
            position = start
            while position < end:
                chunk_end = min(position + _MOBILITY_CHUNK, end)
                count = chunk_end - position
                thresholds = p_arr[position:chunk_end]
                state = rng.bit_generator.state
                buffer = rng.random(count)
                base_index = np.arange(count, dtype=np.int64)
                shifts = np.zeros(count, dtype=np.int64)
                while True:
                    stream_index = base_index + shifts
                    needed = int(stream_index[-1]) + 2
                    if len(buffer) < needed:
                        buffer = np.concatenate([buffer, rng.random(needed - len(buffer))])
                    fired = buffer[stream_index] < thresholds
                    new_shifts = np.zeros(count, dtype=np.int64)
                    new_shifts[1:] = np.cumsum(fired[:-1])
                    if np.array_equal(new_shifts, shifts):
                        break
                    shifts = new_shifts
                directions = buffer[stream_index + 1]
                chunk_steps = np.where(directions < 0.5, 1, -1)
                moved[position:chunk_end] = fired
                applied = np.zeros(count, dtype=np.int64)
                applied[fired] = chunk_steps[fired]
                steps[position:chunk_end] = applied
                # Rewind and advance by the exact serial consumption so every
                # later draw (next chunk, next first-sight) lines up.
                consumed = count + int(fired.sum())
                rng.bit_generator.state = state
                rng.random(consumed)
                position = chunk_end

        # Serving cell per arrival: within each user's arrival run, the ring
        # index walks by the (signed) step of every fired handover including
        # the arrival's own — resolve() returns the *new* cell on a move.
        user_order = np.argsort(users, kind="stable")
        users_grouped = users[user_order]
        steps_grouped = steps[user_order]
        cumulative = np.cumsum(steps_grouped)
        group_start = np.ones(n, dtype=bool)
        group_start[1:] = users_grouped[1:] != users_grouped[:-1]
        starts = np.flatnonzero(group_start)
        prior = np.where(starts > 0, cumulative[starts - 1], 0)
        group_lengths = np.diff(np.append(starts, n))
        local_walk = cumulative - np.repeat(prior, group_lengths)
        ring_grouped = (initial_ring[users_grouped] + local_walk) % num_cells
        cell_index = np.empty(n, dtype=np.int64)
        cell_index[user_order] = ring_grouped
        VectorizedSimulator._write_final_cells(mobility, users, cell_index)
        return cell_index, moved

    @staticmethod
    def _write_final_cells(mobility, users, cell_index) -> None:
        """Leave ``mobility`` holding each trace user's final serving cell."""
        cell_names = mobility.cell_names
        user_cell = mobility._user_cell
        last_position = np.full(int(users.max()) + 1, -1, dtype=np.int64)
        np.maximum.at(last_position, users, np.arange(len(users), dtype=np.int64))
        for user in np.flatnonzero(last_position >= 0).tolist():
            user_cell[f"user_{user}"] = cell_names[cell_index[last_position[user]]]

    # ------------------------------------------------------------------ #
    # The kernel
    # ------------------------------------------------------------------ #
    @staticmethod
    def _replay_fast(
        sim: MultiCellSimulator,
        trace: RequestTrace,
        hook: Optional[Callable[[Request], None]],
        timeline: Sequence[Tuple[float, Tuple[Tuple[str, tuple], ...], str]],
    ) -> SimulationReport:
        """Replay ``trace`` on ``sim`` through the cohort kernel.

        Mirrors the serial engine exactly: every event the serial engine
        would post gets the same (time, sequence) heap key here, the stream
        merge uses the same boundary tie-break, and all stateful objects
        (caches, policies, compute resources, the mobility RNG) are the
        wrapped simulator's own, called in the serial order.
        """
        started = time.perf_counter()
        timestamps = trace.timestamps
        domain_names = trace.domain_names

        # Per-domain constant tables (indexed by trace domain index).
        keys: List[str] = []
        flops_of: List[float] = []
        size_of: List[int] = []
        build_of: List[float] = []
        spec_domain: List[str] = []
        for name in domain_names:
            info = sim._domain_info.get(name)
            if info is None:
                raise SimulationError(f"domain {name!r} is not in the model catalogue")
            keys.append(info[0])
            flops_of.append(info[1])
            size_of.append(info[2].size_bytes)
            build_of.append(info[2].build_cost_s)
            spec_domain.append(info[2].domain)

        n = len(timestamps)
        if np.any(timestamps[1:] < timestamps[:-1]):
            order = np.argsort(timestamps, kind="stable")
            sorted_times = timestamps[order]
            users = trace.user_indices[order]
            domains = trace.domain_indices[order]
        else:
            order = None
            sorted_times = timestamps
            users = trace.user_indices
            domains = trace.domain_indices

        if float(sorted_times[0]) < sim.engine.now:
            raise SimulationError(
                f"stream starts at {sorted_times[0]} before current time {sim.engine.now}"
            )

        # Probability barriers apply in heap order — (time, sequence), not
        # scheduling order — matching how the serial engine fires them.
        keyed_schedule: List[Tuple[float, int, float]] = []
        for seq_index, (barrier_time, calls, _label) in enumerate(timeline):
            for method_name, args in calls:
                if method_name == "set_handover_probability":
                    keyed_schedule.append((barrier_time, seq_index, args[0]))
        keyed_schedule.sort(key=lambda item: (item[0], item[1]))
        probability_schedule = [(item[0], item[2]) for item in keyed_schedule]

        cell_of_arrival, moved_flags = VectorizedSimulator._mobility_prepass(
            sim, sorted_times, users, probability_schedule
        )

        # ---------------- scalar tables for the event loop ---------------- #
        cells = list(sim.cells.values())
        cell_names = [cell.name for cell in cells]
        cell_count = len(cells)
        index_of_cell = {name: index for index, name in enumerate(cell_names)}
        caches = [cell.cache for cell in cells]
        entry_maps = [cell.cache._entries for cell in cells]
        on_access = [cell.cache.policy.on_access for cell in cells]
        inflight_maps = [cell.inflight for cell in cells]
        neighbor_indices = [
            [index_of_cell[neighbor.name] for neighbor in cell.neighbor_order]
            for cell in cells
        ]
        compute_enqueue = [cell.server.compute.enqueue for cell in cells]
        costs = sim.costs
        pair_cost = [
            [
                (0.0, 0.0) if src == dst else costs.cost(cell_names[src], cell_names[dst])
                for dst in range(cell_count)
            ]
            for src in range(cell_count)
        ]
        cloud_cost = [costs.cost(CLOUD, name) for name in cell_names]
        downlink = [sim._downlink_time[name] for name in cell_names]

        config = sim.config
        amortization = config.batching.amortization
        max_batch = config.batching.max_batch_size
        max_wait = config.batching.max_wait_s
        handover_delay = config.mobility.handover_delay_s
        num_tokens = config.num_tokens
        retain = config.retain_requests
        track = retain or hook is not None

        times_list = sorted_times.tolist()
        domain_list = domains.tolist()
        cell_list = cell_of_arrival.tolist()
        moved_list = moved_flags.tolist()
        # Per-arrival constant tables (one numpy gather each) so the event
        # loop never chases domain indirections.
        key_list = np.asarray(keys, dtype=object)[domains].tolist()
        flops_list = np.asarray(flops_of, dtype=np.float64)[domains].tolist()
        entry_get = [mapping.get for mapping in entry_maps]

        base = sim._request_counter
        sim._request_counter = base + n
        request_objects: List[Optional[Request]] = [None] * n if track else []
        if track:
            users_list = users.tolist()
            positions = order.tolist() if order is not None else None
            user_labels = [f"user_{index}" for index in range(int(users.max()) + 1)]
            retained_requests = sim.requests
        record_latency = sim.latency.record

        # Per-cell counters, merged into the real stats objects at the end
        # (all are plain integer adds, so deferral is order-insensitive).
        hits_count = [0] * cell_count
        coalesced_count = [0] * cell_count
        neighbor_count = [0] * cell_count
        cloud_count = [0] * cell_count
        handover_count = [0] * cell_count
        completed_count = [0] * cell_count
        batches_count = [0] * cell_count
        batched_requests_count = [0] * cell_count
        rejection_count = [0] * cell_count
        last_touch = [cell.cache.clock for cell in cells]

        # Open-batch mirror (the real BatchAccumulator stays empty; its
        # generation counter is synced at the end).
        batch_items: List[List[int]] = [[] for _ in range(cell_count)]
        batch_flops: List[List[float]] = [[] for _ in range(cell_count)]
        batch_generation = [cell.batcher.generation for cell in cells]

        # Completion fan-out accumulators (fast mode): cohorts are flattened
        # once into the reservoir after the loop.
        flat_completions: List[int] = []
        completion_times: List[float] = []
        completion_sizes: List[int] = []

        backhaul_bytes = sim.backhaul_bytes
        cloud_bytes = sim.cloud_bytes
        completed_total = 0
        last_completion = sim._last_completion

        heap: List[tuple] = [
            (barrier_time, index + 1, _EV_TIMELINE, calls)
            for index, (barrier_time, calls, _label) in enumerate(timeline)
        ]
        heapq.heapify(heap)
        heap_push = heapq.heappush
        heap_pop = heapq.heappop
        boundary = len(timeline)
        sequence = boundary
        events_processed = 0
        now = sim.engine.now

        def do_enqueue(arrival: int, cell_index: int, now: float) -> None:
            nonlocal sequence
            if track:
                request = request_objects[arrival]
                request.status = QUEUED
                request.enqueue_time = now
            items = batch_items[cell_index]
            items.append(arrival)
            batch_flops[cell_index].append(flops_list[arrival])
            if len(items) >= max_batch or max_wait == 0.0:
                do_execute(cell_index, now)
            elif len(items) == 1:
                sequence += 1
                heap_push(
                    heap,
                    (now + max_wait, sequence, _EV_TIMEOUT, cell_index, batch_generation[cell_index]),
                )

        def do_execute(cell_index: int, now: float) -> None:
            nonlocal sequence
            items = batch_items[cell_index]
            flop_values = batch_flops[cell_index]
            # batch_flops(flop_values, amortization), inlined — sum() folds
            # left-to-right exactly like the accumulator's Python sum.
            total = sum(flop_values)
            largest = max(flop_values)
            flops = largest + amortization * (total - largest)
            batch_items[cell_index] = []
            batch_flops[cell_index] = []
            batch_generation[cell_index] += 1
            start, finish = compute_enqueue[cell_index](now, flops)
            batches_count[cell_index] += 1
            batched_requests_count[cell_index] += len(items)
            if track:
                for arrival in items:
                    request = request_objects[arrival]
                    request.compute_start_time = start
                    request.compute_done_time = finish
            sequence += 1
            heap_push(
                heap,
                (now + (finish + downlink[cell_index] - now), sequence, _EV_COMPLETE, cell_index, items),
            )

        def do_lookup(arrival: int, cell_index: int, now: float) -> None:
            key = key_list[arrival]
            if track:
                request_objects[arrival].lookup_time = now
            entry = entry_get[cell_index](key)
            if entry is not None:
                # cache.get(key, now), inlined: the clock is globally
                # monotone, so the stamp is exactly `now`.
                entry.last_access_time = now
                entry.access_count += 1
                on_access[cell_index](entry, now)
                hits_count[cell_index] += 1
                last_touch[cell_index] = now
                if track:
                    request_objects[arrival].cache_outcome = LOCAL_HIT
                do_enqueue(arrival, cell_index, now)
                return
            do_miss(arrival, cell_index, now, key)

        def do_miss(arrival: int, cell_index: int, now: float, key: str) -> None:
            nonlocal sequence, backhaul_bytes, cloud_bytes
            domain = domain_list[arrival]
            last_touch[cell_index] = now
            inflight = inflight_maps[cell_index]
            waiters = inflight.get(key)
            if waiters is not None:
                coalesced_count[cell_index] += 1
                if track:
                    request = request_objects[arrival]
                    request.cache_outcome = COALESCED
                    request.status = FETCHING
                waiters.append(arrival)
                return
            if track:
                request_objects[arrival].status = FETCHING
            inflight[key] = [arrival]
            source = -1
            for neighbor in neighbor_indices[cell_index]:
                if key in entry_maps[neighbor]:
                    source = neighbor
                    break
            size = size_of[domain]
            sequence += 1
            if source >= 0:
                neighbor_count[cell_index] += 1
                if track:
                    request_objects[arrival].cache_outcome = NEIGHBOR_FETCH
                caches[source].pin(key)
                propagation, per_byte = pair_cost[source][cell_index]
                delay = propagation + size * per_byte
                backhaul_bytes += size
            else:
                cloud_count[cell_index] += 1
                if track:
                    request_objects[arrival].cache_outcome = CLOUD_FETCH
                propagation, per_byte = cloud_cost[cell_index]
                delay = build_of[domain] + (propagation + size * per_byte)
                cloud_bytes += size
            heap_push(heap, (now + delay, sequence, _EV_FETCH, cell_index, domain, source))

        arrival = 0
        while True:
            if arrival < n:
                arrival_time = times_list[arrival]
                if heap:
                    head = heap[0]
                    head_time = head[0]
                    if head_time < arrival_time or (
                        head_time == arrival_time and head[1] <= boundary
                    ):
                        event = heap_pop(heap)
                    else:
                        event = None
                else:
                    event = None
                if event is None:
                    now = arrival_time
                    events_processed += 1
                    cell_index = cell_list[arrival]
                    if track:
                        position = arrival if positions is None else positions[arrival]
                        domain = domain_list[arrival]
                        request = Request(
                            base + position + 1,
                            user_labels[users_list[arrival]],
                            domain_names[domain],
                            keys[domain],
                            now,
                            num_tokens,
                        )
                        request_objects[arrival] = request
                        if retain:
                            retained_requests.append(request)
                        request.cell = cell_names[cell_index]
                        if moved_list[arrival]:
                            request.handover = True
                            handover_count[cell_index] += 1
                            if handover_delay > 0:
                                sequence += 1
                                heap_push(
                                    heap,
                                    (now + handover_delay, sequence, _EV_LOOKUP, arrival, cell_index),
                                )
                                arrival += 1
                                continue
                        do_lookup(arrival, cell_index, now)
                        arrival += 1
                        continue
                    # -------- hot no-observer arrival path, fully inlined ----
                    if moved_list[arrival]:
                        handover_count[cell_index] += 1
                        if handover_delay > 0:
                            sequence += 1
                            heap_push(
                                heap,
                                (now + handover_delay, sequence, _EV_LOOKUP, arrival, cell_index),
                            )
                            arrival += 1
                            continue
                    key = key_list[arrival]
                    entry = entry_get[cell_index](key)
                    if entry is not None:
                        entry.last_access_time = now
                        entry.access_count += 1
                        on_access[cell_index](entry, now)
                        hits_count[cell_index] += 1
                        last_touch[cell_index] = now
                        items = batch_items[cell_index]
                        items.append(arrival)
                        batch_flops[cell_index].append(flops_list[arrival])
                        size = len(items)
                        if size >= max_batch or max_wait == 0.0:
                            do_execute(cell_index, now)
                        elif size == 1:
                            sequence += 1
                            heap_push(
                                heap,
                                (
                                    now + max_wait,
                                    sequence,
                                    _EV_TIMEOUT,
                                    cell_index,
                                    batch_generation[cell_index],
                                ),
                            )
                    else:
                        do_miss(arrival, cell_index, now, key)
                    arrival += 1
                    continue
            elif heap:
                event = heap_pop(heap)
            else:
                break
            now = event[0]
            events_processed += 1
            kind = event[2]
            if kind == _EV_COMPLETE:
                cell_index = event[3]
                items = event[4]
                if track:
                    for index in items:
                        request = request_objects[index]
                        request.completion_time = now
                        request.status = COMPLETED
                        record_latency(now - request.arrival_time)
                        if hook is not None:
                            hook(request)
                else:
                    flat_completions.extend(items)
                    completion_times.append(now)
                    completion_sizes.append(len(items))
                completed_count[cell_index] += len(items)
                completed_total += len(items)
                last_completion = now
            elif kind == _EV_TIMEOUT:
                cell_index = event[3]
                if event[4] == batch_generation[cell_index] and batch_items[cell_index]:
                    do_execute(cell_index, now)
            elif kind == _EV_FETCH:
                cell_index = event[3]
                domain = event[4]
                source = event[5]
                key = keys[domain]
                if source >= 0:
                    caches[source].unpin(key)
                cache = caches[cell_index]
                if size_of[domain] <= cache.capacity_bytes:
                    cache.put(
                        CacheEntry(
                            key=key,
                            kind=GENERAL_MODEL,
                            domain=spec_domain[domain],
                            size_bytes=size_of[domain],
                            build_cost_s=build_of[domain],
                        ),
                        now=now,
                    )
                else:
                    rejection_count[cell_index] += 1
                for waiter in inflight_maps[cell_index].pop(key, ()):
                    if track:
                        request_objects[waiter].fetch_done_time = now
                    do_enqueue(waiter, cell_index, now)
            elif kind == _EV_LOOKUP:
                do_lookup(event[3], event[4], now)
            else:  # _EV_TIMELINE barrier
                sim.engine.now = now
                for method_name, args in event[3]:
                    getattr(sim, method_name)(*args)
                downlink = [sim._downlink_time[name] for name in cell_names]

        # ---------------- completion fan-out (fast mode) ---------------- #
        if not track and completion_times:
            latencies = np.repeat(
                np.asarray(completion_times, dtype=np.float64),
                completion_sizes,
            ) - sorted_times[np.asarray(flat_completions, dtype=np.intp)]
            sim.latency.record_many(latencies)

        # ---------------- state sync onto the wrapped simulator ---------- #
        engine = sim.engine
        engine.now = now
        engine._sequence = sequence
        engine.events_processed += events_processed
        engine._queue.clear()
        engine._live = 0
        for cell_index, cell in enumerate(cells):
            stats = cell.stats
            stats.hits += hits_count[cell_index]
            stats.coalesced += coalesced_count[cell_index]
            stats.neighbor_fetches += neighbor_count[cell_index]
            stats.cloud_fetches += cloud_count[cell_index]
            stats.handovers_in += handover_count[cell_index]
            stats.completed += completed_count[cell_index]
            stats.batches += batches_count[cell_index]
            stats.batched_requests += batched_requests_count[cell_index]
            cache_stats = cell.cache.statistics
            cache_stats.hits += hits_count[cell_index]
            cache_stats.misses += (
                coalesced_count[cell_index]
                + neighbor_count[cell_index]
                + cloud_count[cell_index]
            )
            cache_stats.rejections += rejection_count[cell_index]
            cell.batcher.generation = batch_generation[cell_index]
            cell.cache.advance_clock(last_touch[cell_index])
        sim.backhaul_bytes = backhaul_bytes
        sim.cloud_bytes = cloud_bytes
        sim._completed_total += completed_total
        sim._last_completion = last_completion
        return sim.report(wall_clock_s=time.perf_counter() - started)


# ---------------------------------------------------------------------- #
# Cross-check helper process
# ---------------------------------------------------------------------- #
#: ``(pid, pool)`` for the process that started the helper; the pool is
#: ``None`` once the helper could not start or broke, which leaves that
#: process on the in-process shadow for good.  Keyed to the pid so a forked
#: child (a ``ParallelRunner`` worker) starts its own helper rather than
#: submitting to its parent's.
_helper: Optional[Tuple[int, Optional[ProcessPoolExecutor]]] = None


def _shadow_replay(job: tuple) -> SimulationReport:
    """The shadow half of a cross-check, in the helper or in-process.

    ``job`` holds the constructor arguments, the trace and the timeline; the
    kernel replays hook-less on a deployment built from them.
    """
    cells, catalogue, config, seed, trace, timeline = job
    shadow = MultiCellSimulator(cells, catalogue, config=config, seed=seed)
    return VectorizedSimulator._replay_fast(shadow, trace, hook=None, timeline=timeline)


def _shadow_or_none(job: tuple) -> Optional[SimulationReport]:
    """The in-process shadow's report, or ``None`` when it raised (a failed check)."""
    try:
        return _shadow_replay(job)
    except Exception:
        return None


class _Pickled:
    """A job pickled up front that unpickles as the job itself.

    The pool's feeder thread then only copies bytes, and the helper holds the
    rebuilt job, not its bytes, while the replay runs.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def __reduce__(self):
        return pickle.loads, (self.payload,)


def _submit_shadow(job: tuple) -> Optional[Callable[[], Optional[SimulationReport]]]:
    """Start the shadow replay of ``job`` in the helper.

    Returns the call that waits for its report, or ``None`` when the shadow
    must run in-process: on a one-core host (the rule the sharded backend's
    ``auto`` driver uses), when the helper cannot be started — the same
    degradation as :class:`~repro.runtime.parallel.ParallelRunner` — or when
    the job does not pickle.  The job is pickled here, before the caller's
    serial replay starts mutating state.
    """
    if available_cpus() == 1:
        return None
    pool = _helper_pool()
    if pool is None:
        return None
    try:
        pickled = _Pickled(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return None  # e.g. a locally defined CellConfig subclass
    try:
        future = pool.submit(_shadow_replay, pickled)
    except (OSError, BrokenProcessPool):
        _stop_helper(wait=False)
        return None

    def collect() -> Optional[SimulationReport]:
        try:
            return future.result()
        except BrokenProcessPool:
            _stop_helper(wait=False)
            return _shadow_or_none(pickle.loads(pickled.payload))
        except Exception:
            return None

    return collect


def _helper_pool() -> Optional[ProcessPoolExecutor]:
    """This process's helper pool, created on first use (``None``: none)."""
    global _helper
    pid = os.getpid()
    if _helper is None or _helper[0] != pid:
        try:
            pool = ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_exit_with_owner,
            )
        except (ImportError, OSError, PermissionError):
            pool = None
        _helper = (pid, pool)
        if pool is not None:
            # A forked worker's exit joins its child processes, so the helper
            # must be stopped first, and before the pool queues' own
            # finalizers (priority 10) close the queue the stop travels on.
            Finalize(None, _stop_helper, exitpriority=20)
    return _helper[1]


def _stop_helper(wait: bool = True) -> None:
    """Shut this process's helper down; its later shadows run in-process."""
    global _helper
    if _helper is not None and _helper[0] == os.getpid() and _helper[1] is not None:
        _helper[1].shutdown(wait=wait)
    _helper = (os.getpid(), None)


def _exit_with_owner() -> None:
    """Helper initializer: exit when the owning process dies, never linger."""
    owner = multiprocessing.parent_process()
    if owner is not None:
        threading.Thread(target=_exit_after, args=(owner,), daemon=True).start()


def _exit_after(owner) -> None:
    owner.join()
    os._exit(0)
