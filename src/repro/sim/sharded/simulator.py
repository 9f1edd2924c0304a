"""The sharded backend facade: partition, plan, drive, merge.

:class:`ShardedSimulator` implements the :class:`~repro.sim.backend.SimBackend`
surface by splitting the ring into contiguous cell segments
(:func:`~repro.sim.sharded.partition.partition_cells`), resolving every
request's serving cell in the deterministic mobility pre-pass
(:func:`~repro.sim.sharded.partition.plan_mobility`), and advancing one
:class:`~repro.sim.sharded.shard.ShardSimulator` per segment in lockstep
**conservative time windows**.  The default window is the minimum backhaul
fetch latency — the fastest any cross-shard effect (a cooperative fetch from
a remote cell) can propagate — so deferring cross-shard state to window
barriers never reorders anything that could have interacted sooner.

Two drivers execute the identical window loop:

``inline``
    Every shard lives in this process; windows advance round-robin.  Used
    for ``driver="auto"`` on single-core hosts, and by tests asserting
    driver-independence.

``process``
    One forked worker per shard, strict-lockstep message exchange through
    pipes each window.  The coordinator routes exactly the messages the
    inline driver routes, in the same order, so both drivers produce
    identical results — parallelism is purely a wall-clock knob, as
    everywhere else in this repo.

``num_shards=1`` delegates to the serial engine outright, making the
single-shard sharded backend **byte-identical** to ``backend="serial"``.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.runtime.parallel import available_cpus, _preferred_context
from repro.sim.invariants import InvariantViolation
from repro.sim.metrics import LatencyRecorder, SimulationReport
from repro.sim.multicell import (
    Cell,
    CellConfig,
    ModelSpec,
    PathCostCache,
    build_multicell_topology,
    order_neighbors,
)
from repro.sim.sharded.partition import (
    FaultTimelineView,
    partition_cells,
    plan_mobility,
)
from repro.sim.placement import PlacementSpec
from repro.sim.resilience import ResiliencePolicy
from repro.sim.sharded.shard import ShardSimulator, WindowMessage
from repro.sim.simulator import MultiCellSimulator, SimulatorConfig
from repro.utils.rng import SeedLike
from repro.workloads.traces import RequestTrace

#: Driver choices for :class:`ShardedConfig`.
DRIVERS = ("auto", "inline", "process")


@dataclass(frozen=True)
class ShardedConfig:
    """Execution knobs of the sharded backend.

    Attributes
    ----------
    num_shards:
        Worker count; clamped to the cell count.  ``1`` delegates to the
        serial engine (byte-identical results).
    window_s:
        Conservative window length; ``None`` derives the minimum backhaul
        fetch latency from the catalogue (smallest model over one backhaul
        hop).  The window is part of the sharded backend's semantics: golden
        tables pin results at the derived default.
    max_forward_hops:
        Cross-shard failover forwards a request carries before it is
        dropped; bounds pathological outage chains.
    driver:
        ``auto`` picks ``process`` on multi-core hosts, ``inline``
        otherwise; both produce identical results.
    worker_timeout_s:
        Liveness guard of the process driver: the longest the coordinator
        waits for any shard's reply to one window step (or finalize) before
        raising :class:`~repro.exceptions.SimulationError` naming the shard
        and window.  A worker that dies outright is detected immediately,
        without waiting out the timeout.  ``None`` disables the guard
        (blocking receives, the pre-guard behaviour).
    """

    num_shards: int = 2
    window_s: Optional[float] = None
    max_forward_hops: int = 4
    driver: str = "auto"
    worker_timeout_s: Optional[float] = 120.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.window_s is not None and self.window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {self.window_s}")
        if self.max_forward_hops < 1:
            raise ConfigurationError(
                f"max_forward_hops must be >= 1, got {self.max_forward_hops}"
            )
        if self.driver not in DRIVERS:
            raise ConfigurationError(f"driver must be one of {DRIVERS}, got {self.driver!r}")
        if self.worker_timeout_s is not None and self.worker_timeout_s <= 0:
            raise ConfigurationError(
                f"worker_timeout_s must be positive or None, got {self.worker_timeout_s}"
            )


class _ProcessDriverUnavailable(Exception):
    """Pool creation failed (sandboxed host); fall back to the inline driver.

    Deliberately narrow: only raised for *setup* failures, never for a worker
    that died or hung mid-replay — those are real errors the liveness guard
    must surface, not silently re-run inline.
    """


def _check_hook(hook, driver: str) -> None:
    """Reject, before any worker starts, an observer the shards cannot carry.

    Every shard observes through ``hook.clone_empty()`` and the coordinator
    folds the clones back with ``hook.merge``; the process driver also
    pickles each clone back from its worker at the last window.
    """
    if hook is None:
        return
    if not (hasattr(hook, "clone_empty") and hasattr(hook, "merge")):
        raise ConfigurationError(
            "the sharded backend needs an on_request_end hook with "
            "clone_empty()/merge(other) (per-shard observation, deterministic merge)"
        )
    if driver == "process":
        try:
            pickle.dumps(hook.clone_empty())
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise ConfigurationError(
                "the process driver pickles each shard's hook back to the coordinator, "
                f"but {type(hook).__qualname__}.clone_empty() does not pickle: {error}"
            ) from error


def _build_shard(payload: Dict[str, object]) -> ShardSimulator:
    """Construct one shard from its (picklable) payload dict."""
    return ShardSimulator(**payload)


def _shard_worker(pipe, payload: Dict[str, object]) -> None:
    """Process-driver worker: one shard, strict-lockstep window protocol."""
    try:
        shard = _build_shard(payload)
        while True:
            command = pipe.recv()
            if command[0] == "step":
                _, until, incoming = command
                shard.deliver(incoming)
                pipe.send(("ok", shard.advance_to(until)))
            elif command[0] == "finalize":
                pipe.send(("ok", shard.finalize()))
                break
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown shard command {command[0]!r}")
    except BaseException as error:  # pragma: no cover - forwarded to coordinator
        try:
            pipe.send(("error", repr(error)))
        except Exception:
            pass
        raise
    finally:
        pipe.close()


class ShardedSimulator:
    """Multi-core replay of the multi-cell deployment (SimBackend)."""

    backend_name = "sharded"

    def __init__(
        self,
        cells: Sequence[CellConfig],
        catalogue: Dict[str, ModelSpec],
        config: Optional[SimulatorConfig] = None,
        seed: SeedLike = None,
        sharded: Optional[ShardedConfig] = None,
    ) -> None:
        if not cells:
            raise ConfigurationError("at least one cell is required")
        if not catalogue:
            raise ConfigurationError("the model catalogue must not be empty")
        self.config = config or SimulatorConfig()
        self.sharded = sharded or ShardedConfig()
        self.catalogue = dict(catalogue)
        self._cell_configs = list(cells)
        self._seed = seed
        #: Inert per-cell state for pre-replay introspection; after a replay
        #: each cell's ``stats`` holds the merged per-cell counters.
        self.cells: Dict[str, Cell] = {
            cell_config.name: Cell(cell_config, self.config.batching) for cell_config in cells
        }
        if len(self.cells) != len(cells):
            raise ConfigurationError("cell names must be unique")
        self.topology = build_multicell_topology(
            list(self.cells), backhaul=self.config.backhaul, wan=self.config.wan
        )
        self.costs = PathCostCache(self.topology)
        order_neighbors(list(self.cells.values()), self.costs)
        self.on_request_end = None
        self._timeline: List[Tuple[float, Tuple[Tuple[str, tuple], ...], str]] = []
        self._report: Optional[SimulationReport] = None
        self._serial_delegate: Optional[MultiCellSimulator] = None
        self._replayed = False
        self._issued: Optional[int] = None
        self._resilience: Optional[ResiliencePolicy] = None
        self._resilience_seed = 0
        self._placement: Optional[PlacementSpec] = None
        #: Why the last replay left the sharded fast path (None = it didn't).
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Resilience
    # ------------------------------------------------------------------ #
    def configure_resilience(self, policy, seed: int = 0) -> None:
        """Install a :class:`~repro.sim.resilience.ResiliencePolicy` (or None).

        The policy is pure data: it is recorded here and shipped verbatim to
        every shard at replay time, so each shard applies the exact decision
        rules the serial engine would — the deterministic jitter hash keys on
        (seed, user, arrival, attempt), none of which depend on sharding.
        """
        if self._replayed:
            raise SimulationError(
                "the sharded backend needs its resilience policy before replay()"
            )
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            policy = ResiliencePolicy.from_dict(dict(policy))
        if policy is not None and not policy.active:
            policy = None
        self._resilience = policy
        self._resilience_seed = int(seed)

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def configure_placement(self, spec) -> None:
        """Install a :class:`~repro.sim.placement.PlacementSpec` (or None).

        Placement policies route *globally* — every dispatch decision can
        consult every cell's queue and cache — which contradicts the window
        lockstep's shard-local views, so a placed replay falls back to the
        serial engine with a recorded :attr:`fallback_reason` (the same
        contract as the vectorized backend's blockers).
        """
        if self._replayed:
            raise SimulationError(
                "the sharded backend needs its placement policy before replay()"
            )
        if spec is not None and not isinstance(spec, PlacementSpec):
            spec = PlacementSpec.from_dict(dict(spec))
        self._placement = spec

    def placement_summary(self):
        """Placement counters of the last replay (from the serial delegate)."""
        if self._serial_delegate is None:
            return None
        return self._serial_delegate.placement_summary()

    # ------------------------------------------------------------------ #
    # Fault API (recorded, broadcast to every shard at replay time)
    # ------------------------------------------------------------------ #
    def schedule_calls(self, time_s: float, calls: Sequence[tuple], label: str = "") -> None:
        """Record ordered fault calls to fire at ``time_s`` in every shard.

        The sharded backend needs the complete fault timeline *before* the
        replay: the mobility pre-pass resolves outage re-homes from it, and
        every shard schedules it on its own engine so the global
        alive/failed view stays consistent without messaging.
        """
        if self._replayed:
            raise SimulationError(
                "the sharded backend needs its fault timeline before replay()"
            )
        self._timeline.append((float(time_s), tuple((m, tuple(a)) for m, a in calls), label))

    def _record(self, method: str, *args: object) -> None:
        self.schedule_calls(0.0, [(method, args)], label=f"direct:{method}")

    # Direct fault calls are recorded at t=0 (the sharded replay is one-shot;
    # mid-run mutation goes through schedule_calls timelines).
    def fail_cell(self, name: str) -> None:
        self._record("fail_cell", name)

    def recover_cell(self, name: str) -> None:
        self._record("recover_cell", name)

    def wipe_cell_cache(self, name: str) -> int:
        self._record("wipe_cell_cache", name)
        return 0

    def resize_cell_cache(self, name: str, capacity_bytes: int) -> None:
        self._record("resize_cell_cache", name, capacity_bytes)

    def degrade_downlink(self, name: str, factor: float) -> None:
        self._record("degrade_downlink", name, factor)

    def restore_downlink(self, name: str) -> None:
        self._record("restore_downlink", name)

    def set_handover_probability(self, probability: float) -> None:
        self._record("set_handover_probability", probability)

    def alive_cells(self) -> List[str]:
        """Cell names not failed at t=0 by the recorded timeline."""
        faults = FaultTimelineView(
            [(t, calls) for t, calls, _ in self._timeline],
            self.config.mobility.handover_probability,
        )
        return [name for name in self.cells if not faults.failed_at(name, 0.0)]

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def window_s(self) -> float:
        """The conservative window actually used (configured or derived)."""
        if self.sharded.window_s is not None:
            return self.sharded.window_s
        min_size = min(spec.size_bytes for spec in self.catalogue.values())
        derived = self.config.backhaul.transfer_time(min_size)
        return derived if derived > 0 else 0.01

    def replay(self, trace, run: bool = True) -> SimulationReport:
        """Partition, plan, and replay ``trace`` across the shards."""
        if not run:
            raise ConfigurationError("the sharded backend only supports replay(run=True)")
        if self._replayed:
            raise SimulationError("the sharded backend is one-shot; build a fresh instance")
        started = time.perf_counter()
        num_shards = min(self.sharded.num_shards, len(self.cells))
        if self._placement is not None:
            self.fallback_reason = (
                "placement policies route globally across cells; "
                "delegating to the serial engine"
            )
            return self._replay_serial(trace, started)
        if num_shards == 1:
            return self._replay_serial(trace, started)
        driver = self.sharded.driver
        if driver == "auto":
            driver = "process" if available_cpus() > 1 else "inline"
        hook = self.on_request_end
        _check_hook(hook, driver)
        self._replayed = True
        columns = self._extract_columns(trace)
        sorted_times, user_codes, user_labels, domain_codes, domain_names = columns
        self._issued = len(sorted_times)
        over_budget_ok = self._timeline_shrinks_cache()
        cell_names = list(self.cells)
        faults = FaultTimelineView(
            [(t, calls) for t, calls, _ in self._timeline],
            self.config.mobility.handover_probability,
        )
        neighbor_names = {
            name: [other.name for other in cell.neighbor_order]
            for name, cell in self.cells.items()
        }
        seed_root = int(self._seed) if self._seed is not None else 0
        plan_cells, plan_flags = plan_mobility(
            sorted_times,
            user_labels,
            user_codes,
            cell_names,
            seed_root,
            faults,
            neighbor_names,
        )
        segments = partition_cells(cell_names, num_shards)
        shard_of_cell = np.empty(len(cell_names), dtype=np.int64)
        for shard_index, segment in enumerate(segments):
            for name in segment:
                shard_of_cell[cell_names.index(name)] = shard_index
        request_shards = shard_of_cell[plan_cells]
        request_ids = np.arange(1, len(sorted_times) + 1, dtype=np.int64)
        payloads: List[Dict[str, object]] = []
        for shard_index, segment in enumerate(segments):
            mask = request_shards == shard_index
            payloads.append(
                dict(
                    cell_configs=self._cell_configs,
                    catalogue=self.catalogue,
                    config=self.config,
                    shard_index=shard_index,
                    owned=segment,
                    times=sorted_times[mask],
                    user_codes=user_codes[mask],
                    user_labels=user_labels,
                    domain_codes=domain_codes[mask],
                    domain_names=domain_names,
                    plan_cells=plan_cells[mask],
                    plan_flags=plan_flags[mask],
                    request_ids=request_ids[mask],
                    forward_id_base=(shard_index + 1) * 10**12,
                    timeline=self._timeline,
                    max_forward_hops=self.sharded.max_forward_hops,
                    on_request_end=None if hook is None else hook.clone_empty(),
                    audit_over_budget=over_budget_ok,
                    resilience=self._resilience,
                    resilience_seed=self._resilience_seed,
                )
            )
        window = self.window_s()
        if driver == "process":
            try:
                results = self._drive_process(payloads, window)
            except _ProcessDriverUnavailable:
                # No usable multiprocessing primitives (sandboxes); the
                # inline driver produces identical results by construction.
                results = self._drive_inline(payloads, window)
        else:
            results = self._drive_inline(payloads, window)
        return self._merge(results, time.perf_counter() - started)

    def _timeline_shrinks_cache(self) -> bool:
        """Whether any scheduled resize lowers a cell's budget (fold order).

        A shrink below live pins legally leaves that cache over-full at
        quiescence, so the per-shard audit must tolerate it; without a shrink
        an over-budget cache is an invariant violation.
        """
        capacity = {name: cell.cache.capacity_bytes for name, cell in self.cells.items()}
        for _, calls, _ in sorted(self._timeline, key=lambda item: item[0]):
            for method, args in calls:
                if method == "resize_cell_cache":
                    name, new_capacity = args[0], int(args[1])
                    if new_capacity < capacity.get(name, 0):
                        return True
                    capacity[name] = new_capacity
        return False

    def _replay_serial(self, trace, started: float) -> SimulationReport:
        """``num_shards=1``: delegate to the serial engine, byte-identically."""
        self._replayed = True
        delegate = MultiCellSimulator(
            self._cell_configs, self.catalogue, config=self.config, seed=self._seed
        )
        delegate.on_request_end = self.on_request_end
        if self._resilience is not None:
            delegate.configure_resilience(self._resilience, seed=self._resilience_seed)
        if self._placement is not None:
            delegate.configure_placement(self._placement)
        for time_s, calls, label in self._timeline:
            delegate.schedule_calls(time_s, calls, label=label)
        report = delegate.replay(trace)
        self._serial_delegate = delegate
        self.cells = delegate.cells
        self._report = replace(report, wall_clock_s=time.perf_counter() - started)
        return self._report

    def _extract_columns(self, trace):
        """Sorted columnar view of any trace (arrays or objects)."""
        if isinstance(trace, RequestTrace) and trace.is_columnar:
            timestamps = np.asarray(trace.timestamps, dtype=np.float64)
            user_codes = np.asarray(trace.user_indices, dtype=np.int64)
            domain_codes = np.asarray(trace.domain_indices, dtype=np.int64)
            domain_names = list(trace.domain_names)
            max_user = int(user_codes.max()) + 1 if len(user_codes) else 0
            user_labels = [f"user_{index}" for index in range(max_user)]
        else:
            times_list: List[float] = []
            user_labels = []
            user_index: Dict[str, int] = {}
            domain_names = []
            domain_index: Dict[str, int] = {}
            user_code_list: List[int] = []
            domain_code_list: List[int] = []
            for item in trace:
                times_list.append(float(item.timestamp))
                code = user_index.setdefault(item.user_id, len(user_labels))
                if code == len(user_labels):
                    user_labels.append(item.user_id)
                user_code_list.append(code)
                dcode = domain_index.setdefault(item.domain, len(domain_names))
                if dcode == len(domain_names):
                    domain_names.append(item.domain)
                domain_code_list.append(dcode)
            timestamps = np.asarray(times_list, dtype=np.float64)
            user_codes = np.asarray(user_code_list, dtype=np.int64)
            domain_codes = np.asarray(domain_code_list, dtype=np.int64)
        for name in domain_names:
            if name not in self.catalogue:
                raise SimulationError(f"domain {name!r} is not in the model catalogue")
        if len(timestamps) > 1 and bool(np.any(timestamps[1:] < timestamps[:-1])):
            order = np.argsort(timestamps, kind="stable")
            timestamps = timestamps[order]
            user_codes = user_codes[order]
            domain_codes = domain_codes[order]
        return timestamps, user_codes, user_labels, domain_codes, domain_names

    # ------------------------------------------------------------------ #
    # Drivers (identical window loop, different execution substrate)
    # ------------------------------------------------------------------ #
    def _drive_inline(self, payloads: List[Dict[str, object]], window: float):
        shards = [_build_shard(payload) for payload in payloads]
        incoming: List[List[WindowMessage]] = [[] for _ in shards]
        until = window
        while True:
            outgoing: List[WindowMessage] = []
            for index, shard in enumerate(shards):
                shard.deliver(incoming[index])
                outgoing.append(shard.advance_to(until))
            if all(m.done for m in outgoing) and not any(m.forwards for m in outgoing):
                break
            incoming = self._route(outgoing, len(shards))
            until += window
        return [shard.finalize() for shard in shards]

    def _drive_process(self, payloads: List[Dict[str, object]], window: float):
        parents = []
        processes = []
        try:
            context = _preferred_context()
            for payload in payloads:
                parent, child = context.Pipe()
                process = context.Process(
                    target=_shard_worker, args=(child, payload), daemon=True
                )
                process.start()
                child.close()
                parents.append(parent)
                processes.append(process)
        except (ImportError, OSError, PermissionError) as error:
            for parent in parents:
                parent.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
            raise _ProcessDriverUnavailable(str(error)) from error
        try:
            incoming: List[List[WindowMessage]] = [[] for _ in payloads]
            until = window
            window_index = 1
            while True:
                for index, parent in enumerate(parents):
                    self._send(
                        parent, processes[index], index, window_index,
                        ("step", until, incoming[index]),
                    )
                outgoing = [
                    self._receive(parents[index], processes[index], index, window_index)
                    for index in range(len(parents))
                ]
                if all(m.done for m in outgoing) and not any(m.forwards for m in outgoing):
                    break
                incoming = self._route(outgoing, len(parents))
                until += window
                window_index += 1
            for index, parent in enumerate(parents):
                self._send(parent, processes[index], index, window_index, ("finalize",))
            return [
                self._receive(parents[index], processes[index], index, window_index)
                for index in range(len(parents))
            ]
        finally:
            for parent in parents:
                parent.close()
            for process in processes:
                # Short grace: healthy workers exit as soon as their pipe
                # closes; a hung one is terminated rather than waited out.
                process.join(timeout=2)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)

    @staticmethod
    def _send(parent, process, shard_index: int, window_index: int, message) -> None:
        try:
            parent.send(message)
        except (BrokenPipeError, OSError) as error:
            raise SimulationError(
                f"shard {shard_index} worker died before window {window_index} "
                f"(exit code {process.exitcode})"
            ) from error

    def _receive(self, parent, process, shard_index: int, window_index: int):
        """One guarded reply: bounded wait, dead-worker detection, error unwrap."""
        timeout = self.sharded.worker_timeout_s
        if timeout is not None:
            deadline = time.monotonic() + timeout
            while not parent.poll(0.05):
                if not process.is_alive() and not parent.poll(0):
                    raise SimulationError(
                        f"shard {shard_index} worker died mid-replay at window "
                        f"{window_index} (exit code {process.exitcode})"
                    )
                if time.monotonic() >= deadline:
                    raise SimulationError(
                        f"shard {shard_index} worker unresponsive for {timeout:g}s at "
                        f"window {window_index}; raise ShardedConfig.worker_timeout_s "
                        "if one window genuinely takes this long"
                    )
        try:
            status, value = parent.recv()
        except (EOFError, OSError) as error:
            raise SimulationError(
                f"shard {shard_index} worker died mid-replay at window {window_index} "
                f"(exit code {process.exitcode})"
            ) from error
        if status != "ok":
            raise SimulationError(
                f"shard {shard_index} worker failed at window {window_index}: {value}"
            )
        return value

    @staticmethod
    def _route(outgoing: List[WindowMessage], num_shards: int) -> List[List[WindowMessage]]:
        """Every shard receives every other shard's message, in shard order."""
        return [
            [message for message in outgoing if message.shard != index]
            for index in range(num_shards)
        ]

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    def _merge(self, results, wall_clock_s: float) -> SimulationReport:
        results = sorted(results, key=lambda result: result.shard)
        latency = LatencyRecorder(reservoir_size=self.config.latency_reservoir)
        for result in results:
            latency.absorb(result.latency)
        stats_by_cell: Dict[str, object] = {}
        for result in results:
            stats_by_cell.update(result.cell_stats)
        cells = {name: stats_by_cell[name] for name in self.cells}
        for name, stats in cells.items():
            self.cells[name].stats = stats
        hook = self.on_request_end
        if hook is not None:
            for result in results:
                hook.merge(result.hook)
        completed = sum(result.completed for result in results)
        dropped = sum(stats.dropped for stats in cells.values())
        shed = sum(getattr(stats, "shed", 0) for stats in cells.values())
        deadline_exceeded = sum(
            getattr(stats, "deadline_exceeded", 0) for stats in cells.values()
        )
        terminal = completed + dropped + shed + deadline_exceeded
        if self._issued is not None and terminal != self._issued:
            # Merge-time conservation audit: every issued request terminates
            # exactly once globally (forward chains are hop-capped into a
            # drop; hedged twins share one logical terminal), so this holds
            # exactly — a miss means lost or duplicated work somewhere in the
            # window/barrier machinery.
            raise InvariantViolation(
                f"sharded merge broke request conservation: {self._issued} issued "
                f"but {completed} completed + {dropped} dropped + {shed} shed + "
                f"{deadline_exceeded} deadline_exceeded across {len(results)} shards"
            )
        self._report = SimulationReport(
            completed=completed,
            duration_s=max(result.last_completion for result in results),
            wall_clock_s=wall_clock_s,
            events_processed=sum(result.events_processed for result in results),
            latency=latency.summary(),
            cells=cells,
            total_compute_busy_s=sum(result.compute_busy_s for result in results),
            backhaul_bytes=sum(result.backhaul_bytes for result in results),
            cloud_bytes=sum(result.cloud_bytes for result in results),
            dropped=dropped,
            shed=shed,
            deadline_exceeded=deadline_exceeded,
        )
        return self._report

    def report(self, wall_clock_s: float) -> SimulationReport:
        """The last replay's report (a zeroed report before any replay)."""
        if self._report is not None:
            return self._report
        return SimulationReport(
            completed=0,
            duration_s=0.0,
            wall_clock_s=wall_clock_s,
            events_processed=0,
            latency=LatencyRecorder().summary(),
            cells={name: cell.stats for name, cell in self.cells.items()},
        )
