"""One shard of the partitioned replay: an engine over a slice of the ring.

A :class:`ShardSimulator` is a :class:`~repro.sim.simulator.MultiCellSimulator`
built over the **full** deployment — global topology, global path costs,
global neighbour order, global fault timeline — but *serving* only the cells
its shard owns.  Non-owned cells exist as lightweight replicas: their
``failed`` flag tracks the broadcast fault timeline (every shard schedules
the identical timeline on its own engine, so the global alive/failed view
is consistent without any messaging), their caches stay empty, and their
*contents* are known through the cross-shard cache directory updated at
window barriers.

Cross-shard interaction is confined to two message kinds exchanged at each
barrier (:class:`WindowMessage`):

* **directory deltas** — the sorted key set of every owned cell whose cache
  changed during the window.  Remote shards consult the directory when a
  miss looks for a cooperative source beyond the shard boundary; the fetch
  is charged the exact global backhaul cost, without pinning the remote
  entry (the directory may be up to one window stale — that staleness bound
  is the conservative-window contract).
* **failover forwards** — a request whose failover target lives on another
  shard travels there as data and re-enters the lifecycle at the barrier,
  hop-capped so pathological outage chains terminate.

Within a window the shard is just the serial engine: same event heap, same
lifecycle, same fault methods.  Everything the serial engine pins down
(batching, coalescing, epoch-guarded fetches) is inherited, not rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Simulation
from repro.sim.metrics import CellStats, LatencyRecorder
from repro.sim.multicell import CellConfig, ModelSpec
from repro.sim.request import FORWARDED, Request
from repro.sim.sharded.partition import FAILOVER_HANDOVER, MOBILITY_HANDOVER, NO_HANDOVER
from repro.sim.simulator import FAILED_OVER, MultiCellSimulator, SimulatorConfig

_EMPTY: FrozenSet[str] = frozenset()

#: The arrival step's ``moved`` marker for each plan flag.
_MOVED = {NO_HANDOVER: None, MOBILITY_HANDOVER: True, FAILOVER_HANDOVER: FAILED_OVER}


@dataclass(frozen=True)
class Forward:
    """A request re-homed across the shard boundary, travelling as data."""

    cell: str
    user_id: str
    domain: str
    arrival_time: float
    hops: int


@dataclass
class WindowMessage:
    """Everything one shard tells the others at a window barrier."""

    shard: int
    window: int
    #: Stream exhausted and event heap empty (forwards may still revive it).
    done: bool
    #: ``(cell_name, sorted key tuple)`` for owned cells whose cache changed.
    directory_updates: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)
    forwards: List[Forward] = field(default_factory=list)


@dataclass
class ShardResult:
    """A finished shard's contribution to the merged report."""

    shard: int
    owned: List[str]
    cell_stats: Dict[str, CellStats]
    completed: int
    last_completion: float
    events_processed: int
    latency: LatencyRecorder
    backhaul_bytes: float
    cloud_bytes: float
    compute_busy_s: float
    hook: object = None


class ShardSimulator(MultiCellSimulator):
    """The per-worker simulator: full deployment, owned-slice replay."""

    backend_name = "sharded"

    def __init__(
        self,
        cell_configs: Sequence[CellConfig],
        catalogue: Dict[str, ModelSpec],
        config: Optional[SimulatorConfig],
        shard_index: int,
        owned: Sequence[str],
        times: np.ndarray,
        user_codes: np.ndarray,
        user_labels: Sequence[str],
        domain_codes: np.ndarray,
        domain_names: Sequence[str],
        plan_cells: np.ndarray,
        plan_flags: np.ndarray,
        request_ids: np.ndarray,
        forward_id_base: int,
        timeline: Sequence[Tuple[float, Sequence[Tuple[str, tuple]], str]],
        max_forward_hops: int,
        on_request_end=None,
        audit_over_budget: bool = False,
        resilience=None,
        resilience_seed: int = 0,
    ) -> None:
        config = config or SimulatorConfig()
        # Requests cannot be meaningfully retained per shard (the facade owns
        # no merged request list), and the shard's mobility model is never
        # consulted — the plan already resolved every serving cell.
        super().__init__(
            cell_configs, catalogue, config=replace(config, retain_requests=False), seed=0
        )
        self.index = shard_index
        self._owned_order = list(owned)
        self._owned = frozenset(owned)
        self._times = times
        self._user_codes = user_codes
        self._user_labels = list(user_labels)
        self._domain_codes = domain_codes
        self._plan_cell_names = list(self.cells)
        self._plan_cells = plan_cells
        self._plan_flags = plan_flags
        self._request_ids = request_ids
        self._forward_counter = forward_id_base
        self._max_forward_hops = max_forward_hops
        self._domain_keys = [self._domain_info[name][0] for name in domain_names]
        self._domain_name_list = list(domain_names)
        self.on_request_end = on_request_end
        self._next_index = 0
        self._window = 0
        self._forwards: List[Forward] = []
        self._forward_hops: Dict[int, int] = {}
        self._directory: Dict[str, FrozenSet[str]] = {}
        self._last_sent: Dict[str, Tuple[str, ...]] = {name: () for name in self._owned_order}
        self._audit_over_budget = audit_over_budget
        # The policy travels as pure data in the shard payload; every shard
        # seeds the identical jitter hash, so retry timing matches the serial
        # engine's exactly for the same (user, arrival, attempt).
        self.configure_resilience(resilience, seed=resilience_seed)
        for time_s, calls, label in timeline:
            self.schedule_calls(time_s, calls, label=label)
        # Captured once, after the timeline is on the heap: fault events keep
        # their pre-replay sequence numbers across every window, so a fault at
        # time t always fires before an arrival stamped exactly t — the same
        # tie-break the serial engine applies for its whole (single) run.
        self._boundary = self.engine._sequence

    # ------------------------------------------------------------------ #
    # Window loop
    # ------------------------------------------------------------------ #
    def advance_to(self, until: float) -> WindowMessage:
        """Run owned events up to ``until`` and emit this window's message."""
        _, self._next_index = self.engine.run_stream_window(
            self._times,
            self._stream_item,
            start_index=self._next_index,
            until=until,
            boundary=self._boundary,
        )
        updates: List[Tuple[str, Tuple[str, ...]]] = []
        for name in self._owned_order:
            keys = tuple(sorted(self.cells[name].cache.keys()))
            if keys != self._last_sent[name]:
                self._last_sent[name] = keys
                updates.append((name, keys))
        forwards = self._forwards
        self._forwards = []
        self._window += 1
        done = self._next_index >= len(self._times) and self.engine.pending() == 0
        return WindowMessage(
            shard=self.index,
            window=self._window,
            done=done,
            directory_updates=updates,
            forwards=forwards,
        )

    def deliver(self, messages: Sequence[WindowMessage]) -> None:
        """Apply the other shards' barrier messages (in shard-index order).

        Directory updates replace the remote cell's known key set; forwards
        addressed to owned cells re-enter the request lifecycle at the
        barrier time.  The caller fixes the message order, which fixes the
        forward-processing order, which keeps the replay deterministic.
        """
        owned = self._owned
        for message in messages:
            for name, keys in message.directory_updates:
                if name not in owned:
                    self._directory[name] = frozenset(keys)
            for forward in message.forwards:
                if forward.cell in owned:
                    self._accept_forward(forward)

    def _stream_item(self, sim: Simulation, index: int) -> None:
        cell = self.cells[self._plan_cell_names[self._plan_cells[index]]]
        domain_code = self._domain_codes[index]
        request = Request(
            int(self._request_ids[index]),
            self._user_labels[self._user_codes[index]],
            self._domain_name_list[domain_code],
            self._domain_keys[domain_code],
            sim.now,
            self.config.num_tokens,
        )
        request.cell = cell.name
        # A cell planned onto while down (no alive candidate existed at
        # planning time, or it died within a handover window) fails the
        # request over inside the arrival step.
        self._arrive(request, cell, _MOVED[self._plan_flags[index]])

    def _accept_forward(self, forward: Forward) -> None:
        """Re-enter a cross-shard failover at the barrier (now = window end).

        The continuation is a fresh request with its own hedge window, and a
        handover even when it fails over (or drops) on arrival.
        """
        cell = self.cells[forward.cell]
        self._forward_counter += 1
        request = Request(
            self._forward_counter,
            forward.user_id,
            forward.domain,
            self._domain_info[forward.domain][0],
            forward.arrival_time,
            self.config.num_tokens,
        )
        request.handover = True
        request.cell = cell.name
        self._forward_hops[request.request_id] = forward.hops
        self._arrive(request, cell, FAILED_OVER)

    # ------------------------------------------------------------------ #
    # Lifecycle overrides
    # ------------------------------------------------------------------ #
    def _failover(self, request: Request, from_cell) -> None:
        """Serial failover, extended across the shard boundary.

        The first routable candidate in the (global) neighbour order wins, as
        in the serial engine — every shard applies the same fault timeline,
        so remote ``failed`` flags are exact, not stale.  An owned winner is
        handled locally by the shared hand-over (whose ``mobility.place``
        touches only this shard's mobility model, which nothing consults: the
        plan fixed every serving cell); a remote winner turns the request
        into a :class:`Forward` delivered at the next barrier, unless its hop
        budget is spent.  The hop budget is per attempt: a retry after
        backoff starts a fresh chain, bounded by ``max_retries`` overall.

        Hedge twins never forward (their candidates are owned cells only, see
        :meth:`_hedge_candidates`): the primary is still live here, and a
        cross-shard continuation could terminate the logical request twice.
        When a primary whose twin is still in flight forwards, the local pair
        is resolved by fiat — the remote continuation owns the terminal, so
        the twin's eventual outcome is suppressed.  When the twin has already
        won, the primary is the cancelled loser: de-counted here and never
        forwarded.
        """
        fallback = self._failover_target(request, from_cell)
        hops = self._forward_hops.pop(request.request_id, 0)
        if fallback is None or hops >= self._max_forward_hops:
            self._drop_or_retry(request, from_cell)
            return
        if fallback.name in self._owned:
            self._forward_hops[request.request_id] = hops
            self._hand_over(request, fallback)
            return
        self._unadmit(request)
        pair = self._hedge_pairs.get(request.request_id)
        if pair is not None:
            pair[1] -= 1
            won = pair[0]
            pair[0] = True
            if pair[1] <= 0:
                del self._hedge_pairs[request.request_id]
            if won:
                return
        request.status = FORWARDED
        self._forwards.append(
            Forward(
                cell=fallback.name,
                user_id=request.user_id,
                domain=request.domain,
                arrival_time=request.arrival_time,
                hops=hops + 1,
            )
        )

    def _hedge_candidates(self, cell) -> Sequence:
        """Hedge targets must be owned: the twin's pair state lives here."""
        owned = self._owned
        return [neighbor for neighbor in cell.neighbor_order if neighbor.name in owned]

    def _find_source(self, cell, key: str):
        """Cooperative-source search across owned caches *and* the directory.

        Walks the global neighbour order exactly like the serial engine;
        owned neighbours are checked live, remote neighbours through the
        directory.  A remote hit is charged the exact global backhaul cost
        but holds no pin — the remote entry may be evicted (or the directory
        may be one window stale) while the copy is in flight, in which case
        the model still arrives: the source held it within the last window,
        which is the conservative-window guarantee.
        """
        owned = self._owned
        directory = self._directory
        for neighbor in cell.neighbor_order:
            if neighbor.failed:
                continue
            name = neighbor.name
            if name in owned:
                if neighbor.cache.peek(key) is not None:
                    return name, neighbor
            elif key in directory.get(name, _EMPTY):
                return name, None
        return None, None

    def fail_cell(self, name: str) -> None:
        super().fail_cell(name)
        if name not in self._owned:
            # The owner's barrier delta will confirm the wipe; clear eagerly
            # so no fetch targets a cache known to be gone.
            self._directory[name] = _EMPTY

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    def finalize(self) -> ShardResult:
        """Collect this shard's owned-cell results for the merged report.

        Finalization runs the structural engine audit first (cache byte
        accounting, no leaked pins, nothing stranded, dead cells hold
        nothing): every shard proves its slice healthy before the facade
        merges anything, and a violation surfaces as this shard's error
        rather than a corrupted merged report.
        """
        self.audit_invariants(allow_over_budget=self._audit_over_budget)
        owned_cells = [self.cells[name] for name in self._owned_order]
        return ShardResult(
            shard=self.index,
            owned=list(self._owned_order),
            cell_stats={cell.name: cell.stats for cell in owned_cells},
            completed=self._completed_total,
            last_completion=self._last_completion,
            events_processed=self.engine.events_processed,
            latency=self.latency,
            backhaul_bytes=self.backhaul_bytes,
            cloud_bytes=self.cloud_bytes,
            compute_busy_s=sum(cell.server.compute.busy_time for cell in owned_cells),
            hook=self.on_request_end,
        )
