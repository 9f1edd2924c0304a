"""The multi-cell discrete-event request simulator.

Drives the existing edge substrate — :class:`~repro.edge.server.EdgeServer`
compute accounting, :class:`~repro.caching.cache.SemanticModelCache` model
caching, :class:`~repro.edge.network.LinkSpec` transfer costs — as pluggable
service stages behind a single global event queue, instead of the synchronous
per-call execution the small E7/E8 sweeps use.  One process replays hundreds
of thousands of requests.

Request lifecycle (see :mod:`repro.sim.request`), one pipeline for every
configuration:

1. **Arrival** (``_arrive``) — the mobility model resolves the serving cell;
   a down cell fails the request over, a handover charges a control-plane
   delay, and a placement policy may route the request to another cell.
2. **Cache lookup** (``_lookup``, ``_fetch``) — hit: straight to the batch
   queue.  Miss: if a fetch for the same model is already in flight at this
   cell the request *coalesces* onto it; otherwise the cell fetches the
   model from the nearest neighbour cell holding it (backhaul transfer,
   source entry pinned against eviction for the duration) or, failing that,
   from the cloud (WAN transfer plus the model's rebuild cost).
3. **Batching** (``_enqueue``) — requests accumulate per cell until the
   batch-size or batch-timeout boundary closes the batch
   (:mod:`repro.sim.batching`).
4. **Encode + transmit** (``_execute_batch``) — the batch runs on the cell's
   edge server with amortized FLOPs, then each request's semantic features
   cross the downlink.
5. **Completion** (``_complete``) — latency is recorded, per-cell counters
   updated.

A request whose cell fails takes the one failover step (``_failover``); one
with nowhere left to go takes the one terminal-failure step
(``_drop_or_retry`` / ``_finish_failure``).  The optional policy layers are
checks inside these stages on their ``None``-able state, not copies of them:
resilience adds the hedge timer and breaker check at arrival, admission and
shedding at lookup, the deadline at enqueue, retries at the terminal step and
hedge settlement at completion; placement routes at arrival and keeps its
per-cell counters through failover, completion and drops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching.entry import CacheEntry, GENERAL_MODEL, general_model_key
from repro.edge.network import LinkSpec
from repro.edge.resources import encode_flops
from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.batching import Batch, BatchingConfig
from repro.sim.engine import STREAM_BLOCK, Simulation
from repro.sim.metrics import LatencyRecorder, SimulationReport
from repro.sim.multicell import (
    CLOUD,
    DEFAULT_BACKHAUL,
    DEFAULT_WAN,
    Cell,
    CellConfig,
    MobilityConfig,
    MobilityModel,
    ModelSpec,
    PathCostCache,
    build_multicell_topology,
    default_catalogue,
    order_neighbors,
)
from repro.sim.request import (
    CLOUD_FETCH,
    COALESCED,
    COMPLETED,
    DEADLINE_EXCEEDED,
    DROPPED,
    FETCHING,
    FORWARDED,
    LOCAL_HIT,
    NEIGHBOR_FETCH,
    QUEUED,
    SHED,
    TERMINAL_STATUSES,
    Request,
)
from repro.sim.placement import PlacementRuntime, PlacementSpec
from repro.sim.resilience import CircuitBreaker, ResiliencePolicy
from repro.utils.rng import SeedLike
from repro.workloads.traces import RequestTrace, require_trace

#: ``moved`` marker of an arrival that is also a failover (the sharded
#: backend's planned failovers and forwarded continuations): besides the
#: handover, the arrival step counts one failover at the serving cell.
FAILED_OVER = object()


@dataclass(frozen=True)
class _Arrivals:
    """Time-sorted arrivals of a replay, as its block-fed loop reads them.

    Arrival ``i`` is trace row ``order[i]`` (row ``i`` when ``order`` is
    ``None``, i.e. the trace was already sorted) and gets request id
    ``first_id + row``.  ``boundary`` is the engine sequence number at the
    replay's start: heap events scheduled up to it run before an arrival
    with the same timestamp, later ones after it.
    """

    times: np.ndarray
    order: Optional[np.ndarray]
    first_id: int
    user_indices: np.ndarray
    domain_indices: np.ndarray
    domain_names: Tuple[str, ...]
    keys: List[str]
    boundary: int


@dataclass(frozen=True)
class SimulatorConfig:
    """Cross-cell knobs of the simulator."""

    batching: BatchingConfig = field(default_factory=BatchingConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    backhaul: LinkSpec = DEFAULT_BACKHAUL
    wan: LinkSpec = DEFAULT_WAN
    #: Semantic feature payload sent back over the downlink per request.
    feature_bytes: float = 48.0
    #: Message length assumed for the encode FLOP cost.
    num_tokens: int = 12
    #: Latency samples kept in memory; percentiles are exact up to this count
    #: and reservoir-sampled beyond it (see :class:`~repro.sim.metrics.LatencyRecorder`).
    latency_reservoir: int = 100_000
    #: Keep every :class:`~repro.sim.request.Request` on ``simulator.requests``
    #: after completion.  Required for post-run per-request analysis; turn off
    #: for multi-million-request replays so memory stays flat (reports are
    #: unaffected — they are built from incremental counters).
    retain_requests: bool = True

    def __post_init__(self) -> None:
        if self.feature_bytes < 0:
            raise ConfigurationError(f"feature_bytes must be non-negative, got {self.feature_bytes}")
        if self.num_tokens < 1:
            raise ConfigurationError(f"num_tokens must be >= 1, got {self.num_tokens}")
        if self.latency_reservoir < 1:
            raise ConfigurationError(f"latency_reservoir must be >= 1, got {self.latency_reservoir}")


class MultiCellSimulator:
    """Replays request traces through a multi-cell edge deployment.

    This is the **serial reference backend** of the :class:`~repro.sim.backend.
    SimBackend` API: one process, one event heap, bit-identity pinned by every
    committed result table.  Other backends (``repro.sim.sharded``) implement
    the same surface — replay, fault injection, the ``on_request_end`` hook,
    report assembly — with their own execution strategy.
    """

    #: Registry name of this backend (see :mod:`repro.sim.backend`).
    backend_name = "serial"

    def __init__(
        self,
        cells: Sequence[CellConfig],
        catalogue: Dict[str, ModelSpec],
        config: Optional[SimulatorConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        if not cells:
            raise ConfigurationError("at least one cell is required")
        if not catalogue:
            raise ConfigurationError("the model catalogue must not be empty")
        self.config = config or SimulatorConfig()
        self.catalogue = dict(catalogue)
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
        self.mobility = MobilityModel(list(self.cells), self.config.mobility, seed=seed)
        self.engine = Simulation(trace=False)
        self.latency = LatencyRecorder(reservoir_size=self.config.latency_reservoir)
        self.requests: List[Request] = []
        self.backhaul_bytes = 0.0
        self.cloud_bytes = 0.0
        self._request_counter = 0
        #: A replay that raised: its arrivals and the index of the first one
        #: undelivered, which run() resumes from.
        self._tail: Optional[Tuple[_Arrivals, int]] = None
        # Completion counters maintained incrementally so report() does not
        # rescan every request (events complete in time order, so the last
        # completion timestamp is the run duration).
        self._completed_total = 0
        self._last_completion = 0.0
        # Per-domain constants resolved once instead of per request: the cache
        # key, the encode FLOP cost at the configured token count, and the spec.
        self._domain_info: Dict[str, tuple[str, float, ModelSpec]] = {
            domain: (
                general_model_key(domain),
                encode_flops(spec.parameters, self.config.num_tokens),
                spec,
            )
            for domain, spec in self.catalogue.items()
        }
        # Downlink transmit time of one feature payload is constant per cell
        # (until a link-degradation fault scales it; the baseline is kept so
        # restore_downlink is exact, not a division).
        self._downlink_time: Dict[str, float] = {
            name: cell.downlink.transfer_time(self.config.feature_bytes)
            for name, cell in self.cells.items()
        }
        self._downlink_base: Dict[str, float] = dict(self._downlink_time)
        #: Optional observer called once per request at its terminal event
        #: (completion or drop).  Scenario measurement windows hang off this;
        #: ``None`` (the default) costs one predicate per completion.
        self.on_request_end: Optional[Callable[[Request], None]] = None
        # Resilience state (see configure_resilience).  ``None`` policy means
        # every resilience hook below is a single dead predicate — the
        # no-policy replay stays byte-identical to the pre-resilience engine.
        self._resilience: Optional[ResiliencePolicy] = None
        self._resilience_seed = 0
        #: Outstanding admitted requests per cell (load-shedding accounting).
        self._outstanding: Dict[str, int] = {}
        #: Per-cell circuit breakers, created lazily when the policy uses them.
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Hedge pair state per logical request id: ``[resolved, pending]``.
        self._hedge_pairs: Dict[int, List] = {}
        # Placement state (see configure_placement).  ``None`` means every
        # placement hook below is a single dead predicate — the no-placement
        # replay stays byte-identical to the pre-placement engine.
        self._placement: Optional[PlacementRuntime] = None

    # ------------------------------------------------------------------ #
    # Resilience
    # ------------------------------------------------------------------ #
    def configure_resilience(
        self, policy: Optional[ResiliencePolicy | dict], seed: int = 0
    ) -> None:
        """Install (or clear) the request-level resilience policy.

        ``policy`` may be a :class:`~repro.sim.resilience.ResiliencePolicy`,
        an equivalent dict, or ``None``; a policy with every mechanism off is
        normalized to ``None`` so the hot path keeps its single dead
        predicate.  ``seed`` keys the deterministic backoff jitter — both
        backends must pass the same value (the scenario runner derives it
        from the spec's SeedTree) for identical retry timing.  Call before
        :meth:`replay`; the policy applies to every subsequently processed
        request.
        """
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            policy = ResiliencePolicy.from_dict(policy)
        if policy is not None and not policy.active:
            policy = None
        if policy is not None and self._placement is not None:
            raise ConfigurationError(
                "resilience and placement policies are mutually exclusive; "
                "clear one before configuring the other"
            )
        self._resilience = policy
        self._resilience_seed = int(seed)
        self._outstanding = {name: 0 for name in self.cells}
        self._breakers = {}
        self._hedge_pairs = {}

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def configure_placement(
        self, spec: Optional[PlacementSpec | dict]
    ) -> None:
        """Install (or clear) the global request-placement policy.

        ``spec`` may be a :class:`~repro.sim.placement.PlacementSpec`, an
        equivalent dict, or ``None``.  Placement and resilience are mutually
        exclusive in this engine (global routing and per-request hedging/
        retry re-homing would fight over the same requests); configuring one
        while the other is active raises.  Call before :meth:`replay` — the
        runtime estimates demand (and applies the offline prewarm plan) from
        the replayed trace.
        """
        if spec is not None and not isinstance(spec, PlacementSpec):
            spec = PlacementSpec.from_dict(spec)
        if spec is not None and self._resilience is not None:
            raise ConfigurationError(
                "resilience and placement policies are mutually exclusive; "
                "clear one before configuring the other"
            )
        self._placement = PlacementRuntime(spec) if spec is not None else None

    def placement_summary(self) -> Optional[Dict[str, int]]:
        """Placement counters of the last replay, or ``None`` when unplaced."""
        if self._placement is None:
            return None
        return self._placement.summary()

    def _breaker(self, cell: Cell) -> CircuitBreaker:
        breaker = self._breakers.get(cell.name)
        if breaker is None:
            breaker = CircuitBreaker(self._resilience)
            self._breakers[cell.name] = breaker
        return breaker

    def _breaker_open(self, cell: Cell) -> bool:
        """Whether routing to ``cell`` is currently rejected by its breaker.

        A half-open breaker admits a bounded number of probes; the probe slot
        is consumed here, so callers must only ask about cells they will
        actually route to when admitted.
        """
        policy = self._resilience
        if policy is None or policy.breaker_window <= 0:
            return False
        breaker = self._breaker(cell)
        allowed = breaker.allows(self.engine.now)
        cell.stats.breaker_transitions = breaker.transitions
        return not allowed

    def _breaker_record(self, cell: Cell, ok: bool) -> None:
        policy = self._resilience
        if policy is None or policy.breaker_window <= 0:
            return
        breaker = self._breaker(cell)
        breaker.record(ok, self.engine.now)
        cell.stats.breaker_transitions = breaker.transitions

    def _admit(self, request: Request, cell: Cell) -> bool:
        """Move ``request`` onto ``cell``'s outstanding queue, shedding at the cap.

        Re-homed requests (failover, retry) release their previous cell's
        slot first, so the counters track where work actually sits.
        """
        outstanding = self._outstanding
        prev = request.admitted_cell
        if prev == cell.name:
            return True
        if prev:
            outstanding[prev] -= 1
            request.admitted_cell = ""
        depth = self._resilience.shed_queue_depth
        if depth is not None and outstanding[cell.name] >= depth:
            self._finish_failure(request, cell, SHED)
            return False
        outstanding[cell.name] += 1
        request.admitted_cell = cell.name
        return True

    def _unadmit(self, request: Request) -> None:
        prev = request.admitted_cell
        if prev:
            self._outstanding[prev] -= 1
            request.admitted_cell = ""

    def _finish_failure(self, request: Request, cell: Cell, status: str) -> None:
        """Terminate one physical request attempt with a failure status.

        The one terminal-failure step of the lifecycle: drops (with or
        without a policy), sheds and deadline expiries all end here, and it
        releases whatever the request holds — its admission slot and its
        placed-queue counter.

        Hedge-aware: while the request's twin is still in flight the logical
        request may yet succeed, so this half is suppressed (no terminal
        event, no counters) — only the last unresolved half emits the
        failure.  Exactly one terminal per logical request id, always.

        Shedding does **not** feed the circuit breaker: a full admission
        queue is back-pressure the policy itself created, not evidence the
        cell is unhealthy — counting it would let overload trip breakers,
        re-home the whole load onto the next cell, and cascade every
        breaker open in turn.
        """
        if status != SHED:
            self._breaker_record(cell, False)
        pair = self._hedge_pairs.get(request.request_id)
        if pair is not None:
            pair[1] -= 1
            if pair[0] or pair[1] > 0:
                self._unadmit(request)
                if pair[1] <= 0:
                    del self._hedge_pairs[request.request_id]
                return
            pair[0] = True
            del self._hedge_pairs[request.request_id]
        self._unadmit(request)
        if self._placement is not None:
            self._placement.release(request)
        request.status = status
        if status == DROPPED:
            cell.stats.dropped += 1
        elif status == SHED:
            cell.stats.shed += 1
        else:
            cell.stats.deadline_exceeded += 1
        hook = self.on_request_end
        if hook is not None:
            hook(request)

    def _drop_or_retry(self, request: Request, from_cell: Cell) -> None:
        """No route was found for ``request``: drop it, or schedule a retry.

        Without a policy this is always a drop.  Retries re-fire after
        exponential backoff with hash-derived jitter (zero RNG consumption;
        see :func:`repro.sim.resilience.jitter_fraction`) and re-home via the
        normal failover scan.  Hedge twins never retry — their primary
        carries the retry budget.
        """
        policy = self._resilience
        if policy is None or request.is_hedge or request.attempts >= policy.max_retries:
            self._finish_failure(request, from_cell, DROPPED)
            return
        attempt = request.attempts
        request.attempts = attempt + 1
        from_cell.stats.retries += 1
        self._unadmit(request)
        delay = policy.backoff_s(
            attempt, self._resilience_seed, request.user_id, request.arrival_time
        )
        self.engine.post(delay, self._retry, request)

    def _retry(self, request: Request) -> None:
        policy = self._resilience
        cell = self.cells[request.cell]
        if (
            policy.deadline_s is not None
            and self.engine.now - request.arrival_time >= policy.deadline_s
        ):
            self._finish_failure(request, cell, DEADLINE_EXCEEDED)
            return
        # The cell that refused us may have recovered during the backoff;
        # otherwise scan for the next-nearest alive, breaker-closed cell.
        if not cell.failed and not self._breaker_open(cell):
            self._lookup(request, cell)
            return
        self._failover(request, cell)

    def _hedge_candidates(self, cell: Cell) -> Sequence[Cell]:
        """Cells eligible as hedge targets, nearest first (overridable).

        Also the failover candidates of a hedge twin: a twin may only run
        where its pair state lives.
        """
        return cell.neighbor_order

    def _maybe_hedge(self, request: Request) -> None:
        """Hedge timer: launch a duplicate if the request is still unfinished."""
        status = request.status
        if status in TERMINAL_STATUSES or status == FORWARDED:
            return
        if request.request_id in self._hedge_pairs:
            return
        cell = self.cells.get(request.cell)
        if cell is None:
            return
        target: Optional[Cell] = None
        for neighbor in self._hedge_candidates(cell):
            if (
                neighbor.name != request.cell
                and not neighbor.failed
                and not self._breaker_open(neighbor)
            ):
                target = neighbor
                break
        if target is None:
            return
        twin = Request(
            request.request_id,
            request.user_id,
            request.domain,
            request.model_key,
            request.arrival_time,
            request.num_tokens,
        )
        twin.is_hedge = True
        twin.cell = target.name
        self._hedge_pairs[request.request_id] = [False, 2]
        target.stats.hedges += 1
        self._lookup(twin, target)

    def _settle_hedges(self, cell: Cell, requests: List[Request]) -> List[Request]:
        """Policy bookkeeping of a finished batch; returns the requests that complete.

        Each physical finish is a breaker success and releases its admission
        slot.  The first half of a hedge pair to finish wins; a half whose
        twin already won is the cancelled loser and is de-counted entirely.
        """
        pairs = self._hedge_pairs
        winners: List[Request] = []
        for request in requests:
            self._breaker_record(cell, True)
            self._unadmit(request)
            pair = pairs.get(request.request_id)
            if pair is not None:
                pair[1] -= 1
                won = pair[0]
                pair[0] = True
                if pair[1] <= 0:
                    del pairs[request.request_id]
                if won:
                    continue
                if request.is_hedge:
                    cell.stats.hedge_wins += 1
            winners.append(request)
        return winners

    # ------------------------------------------------------------------ #
    # Trace replay
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        num_cells: int,
        domain_names: Sequence[str],
        config: Optional[SimulatorConfig] = None,
        seed: SeedLike = None,
        **cell_kwargs: object,
    ) -> "MultiCellSimulator":
        """Convenience constructor: ``num_cells`` identical cells, default catalogue."""
        if num_cells < 1:
            raise ConfigurationError(f"num_cells must be >= 1, got {num_cells}")
        cell_configs = [CellConfig(name=f"cell_{index}", **cell_kwargs) for index in range(num_cells)]
        catalogue = default_catalogue(domain_names, seed=seed)
        return cls(cell_configs, catalogue, config=config, seed=seed)

    def _make_request(self, timestamp: float, user_id: str, domain: str) -> Request:
        info = self._domain_info.get(domain)
        if info is None:
            raise SimulationError(f"domain {domain!r} is not in the model catalogue")
        self._request_counter += 1
        request = Request(
            request_id=self._request_counter,
            user_id=user_id,
            domain=domain,
            model_key=info[0],
            arrival_time=timestamp,
            num_tokens=self.config.num_tokens,
        )
        if self.config.retain_requests:
            self.requests.append(request)
        return request

    def submit(self, timestamp: float, user_id: str, domain: str) -> Request:
        """Schedule one request's arrival (before or during :meth:`run`)."""
        request = self._make_request(timestamp, user_id, domain)
        self.engine.schedule_at(timestamp, lambda sim, r=request: self._on_arrival(r))
        return request

    def replay(self, trace: RequestTrace) -> SimulationReport:
        """Replay every trace request to completion and return the report.

        ``trace`` must be a :class:`~repro.workloads.traces.RequestTrace`;
        anything else raises ``TypeError`` before any event runs.  Arrivals
        are *not* pre-scheduled on the event heap: the engine merges the
        sorted arrival times into its pop loop, so the heap only ever holds
        the genuinely concurrent work (in-flight fetches, batch timers,
        completions).  Processing order, request ids (trace position) and tie
        order (trace order) are identical to :meth:`submit` of every request
        in trace order followed by :meth:`run`.  One
        :class:`~repro.sim.request.Request` is built per arrival inside the
        merge, so replaying millions of requests never holds more request
        objects than are in flight (unless ``retain_requests`` keeps them).

        If the replay raises, its undelivered arrivals stay pending:
        :meth:`run` resumes them, and replaying another trace first raises
        :class:`~repro.exceptions.SimulationError`.
        """
        require_trace(trace)
        if self._tail is not None:
            pending, start = self._tail
            raise SimulationError(
                f"{len(pending.times) - start} arrivals of an interrupted replay are pending; "
                "call run() to resume them before replaying another trace"
            )
        keys: List[str] = []
        for name in trace.domain_names:
            info = self._domain_info.get(name)
            if info is None:
                raise SimulationError(f"domain {name!r} is not in the model catalogue")
            keys.append(info[0])
        times = trace.timestamps
        if np.any(times[1:] < times[:-1]):
            order = np.argsort(times, kind="stable")
            times = times[order]
        else:
            order = None
        if len(times) and times[0] < self.engine.now:
            raise SimulationError(f"trace starts at {times[0]} before current time {self.engine.now}")
        if self._placement is not None:
            # Demand estimation + offline prewarm happen before the first
            # arrival, and only for a trace that passed the checks above;
            # the runtime is idempotent so chained replays keep the first
            # trace's plan.
            self._placement.prepare(self, trace)
        first_id = self._request_counter + 1
        self._request_counter += len(times)
        arrivals = _Arrivals(
            times,
            order,
            first_id,
            trace.user_indices,
            trace.domain_indices,
            trace.domain_names,
            keys,
            self.engine._sequence,
        )
        try:
            return self._feed(arrivals)
        finally:
            self.mobility.sync()

    def _feed(self, arrivals: _Arrivals, start: int = 0) -> SimulationReport:
        """Run the engine with arrivals ``start`` onward merged in; return the report.

        The block-fed loop of every replay, and of :meth:`run` resuming an
        interrupted one.  If the run raises, ``self._tail`` keeps the
        arrivals and the index of the first one undelivered.
        """
        started = time.perf_counter()
        times = arrivals.times
        order = arrivals.order
        first_id = arrivals.first_id
        user_indices = arrivals.user_indices
        domain_indices = arrivals.domain_indices
        domain_names = arrivals.domain_names
        keys = arrivals.keys
        num_arrivals = len(times)
        num_tokens = self.config.num_tokens
        retain = self.config.retain_requests
        requests_list = self.requests
        resolve = self.mobility.resolve
        cells = self.cells
        arrive = self._arrive
        # Per-request string formatting hoisted out of the event loop: the
        # label table is num_users entries, not num_requests.
        label_array = np.array(
            [f"user_{index}" for index in range(int(user_indices.max(initial=-1)) + 1)],
            dtype=object,
        )

        def arrival_blocks() -> Iterator[Iterable[Tuple[int, str, int]]]:
            # (request id, user label, domain index) per arrival in time
            # order, converted to Python values one bounded block at a time
            # (one tolist() per column per block, not a numpy scalar per
            # column per arrival), so memory stays flat at any trace length.
            for low in range(start, num_arrivals, STREAM_BLOCK):
                high = min(low + STREAM_BLOCK, num_arrivals)
                if order is None:
                    rows = slice(low, high)
                    ids: Iterable[int] = range(first_id + low, first_id + high)
                else:
                    rows = order[low:high]
                    ids = (rows + first_id).tolist()
                yield zip(
                    ids,
                    label_array[user_indices[rows]].tolist(),
                    domain_indices[rows].tolist(),
                )

        # The engine calls back once per index, in index order, so the
        # callback walks the blocks with one iterator.
        next_arrival = chain.from_iterable(arrival_blocks()).__next__
        delivered = start

        def on_stream_item(sim: Simulation, index: int) -> None:
            nonlocal delivered
            # Marked delivered before processing: an arrival whose own
            # handling raises is consumed either way, like a popped event.
            delivered = index + 1
            request_id, user_id, domain_index = next_arrival()
            # sim.now is exactly float(times[index]) — the engine set the
            # clock to this arrival before invoking the callback.
            request = Request(
                request_id,
                user_id,
                domain_names[domain_index],
                keys[domain_index],
                sim.now,
                num_tokens,
            )
            if retain:
                requests_list.append(request)
            cell_name, moved = resolve(user_id)
            request.cell = cell_name
            arrive(request, cells[cell_name], moved)

        try:
            self.engine.run_stream_window(
                times, on_stream_item, start_index=start, boundary=arrivals.boundary
            )
        except BaseException:
            if delivered < num_arrivals:
                self._tail = (arrivals, delivered)
            raise
        return self.report(wall_clock_s=time.perf_counter() - started)

    def run(self) -> SimulationReport:
        """Process all scheduled events and return the run's report.

        After a replay that raised, this first resumes the replay's
        undelivered arrivals, with the request ids and tie order the replay
        would have given them.  Whether it returns or raises, the run ends
        with the mobility generator synced to its scalar draw position (see
        :class:`~repro.sim.multicell.MobilityModel`).
        """
        tail, self._tail = self._tail, None
        try:
            if tail is not None:
                return self._feed(*tail)
            started = time.perf_counter()
            self.engine.run()
            return self.report(wall_clock_s=time.perf_counter() - started)
        finally:
            self.mobility.sync()

    # ------------------------------------------------------------------ #
    # Lifecycle stages
    # ------------------------------------------------------------------ #
    def _on_arrival(self, request: Request) -> None:
        """Arrival of a submitted request: resolve its cell."""
        cell_name, moved = self.mobility.resolve(request.user_id)
        request.cell = cell_name
        placement = self._placement
        if placement is not None and not placement.prepared:
            # submit()/run() path without a replay(): no trace to estimate
            # demand from, prepare with live state only.
            placement.prepare(self, None)
        self._arrive(request, self.cells[cell_name], moved)

    def _arrive(self, request: Request, cell: Cell, moved) -> None:
        """Arrival stage: hedge timer, failover check, handover, routing.

        ``cell`` is the serving cell and ``moved`` the mobility verdict:
        ``None`` when the user stayed put, else any marker of the move
        (:data:`FAILED_OVER` also counts the arrival as a failover).  A
        serving cell that is down — or, under a resilience policy, whose
        breaker is open — fails the request over.  A placement policy routes
        it after ``mobility.resolve`` and consumes no RNG, so a ``naive``
        placement replay is metric-identical to no placement at all; serving
        away from the serving cell charges the backhaul for the request
        payload (``forward_bytes``) on top of any handover delay, while the
        response downlink is billed at the executing cell as usual.
        """
        policy = self._resilience
        if policy is not None:
            if policy.hedge_delay_s is not None:
                self.engine.post(policy.hedge_delay_s, self._maybe_hedge, request)
            if cell.failed or self._breaker_open(cell):
                self._failover(request, cell)
                return
        elif cell.failed:
            # The serving cell is down: hand the user over to the nearest
            # alive neighbour (this also re-homes the user for later arrivals).
            self._failover(request, cell)
            return
        if moved is None and self._placement is None:
            # Neither a handover nor a routing decision: straight to lookup.
            self._lookup(request, cell)
            return
        delay = 0.0
        if moved is not None:
            request.handover = True
            cell.stats.handovers_in += 1
            if moved is FAILED_OVER:
                cell.stats.failovers += 1
            delay = self.config.mobility.handover_delay_s
        placement = self._placement
        if placement is not None:
            target = placement.route(self, request, cell)
            if target is not cell:
                request.cell = target.name
                placement.forwards += 1
                forward_bytes = placement.spec.forward_bytes
                if forward_bytes > 0:
                    delay += self.costs.transfer_time(cell.name, target.name, forward_bytes)
                    self.backhaul_bytes += forward_bytes
                cell = target
            placement.admit(request, cell.name)
        if delay > 0:
            self.engine.post(delay, self._lookup, request, cell)
            return
        self._lookup(request, cell)

    def _failover(self, request: Request, from_cell: Cell) -> None:
        """Re-home ``request`` from a failed cell to the nearest routable cell.

        If no candidate is left the request takes the terminal-failure step:
        a drop (the only way a request ever terminates unserved without a
        policy), or a retry decision under a resilience policy.
        """
        fallback = self._failover_target(request, from_cell)
        if fallback is None:
            self._drop_or_retry(request, from_cell)
        else:
            self._hand_over(request, fallback)

    def _failover_target(self, request: Request, from_cell: Cell) -> Optional[Cell]:
        """The first alive, breaker-closed candidate, nearest first.

        Candidates are the failed cell's backhaul-reachable neighbours in
        increasing transfer-cost order (the cooperative-fetch ordering); a
        hedge twin scans :meth:`_hedge_candidates` instead.  Breakers are
        consulted in candidate order, stopping at the first routable cell.
        """
        candidates = (
            self._hedge_candidates(from_cell) if request.is_hedge else from_cell.neighbor_order
        )
        for neighbor in candidates:
            if not neighbor.failed and not self._breaker_open(neighbor):
                return neighbor
        return None

    def _hand_over(self, request: Request, fallback: Cell) -> None:
        """Move a failed-over request to ``fallback`` and look it up there.

        A failure handover charges the same control-plane delay as a mobility
        handover and re-homes the user for later arrivals — except for hedge
        twins, whose primary owns the user's placement.
        """
        request.handover = True
        request.cell = fallback.name
        fallback.stats.handovers_in += 1
        fallback.stats.failovers += 1
        if self._placement is not None:
            self._placement.rehome(request, fallback.name)
        if not request.is_hedge:
            self.mobility.place(request.user_id, fallback.name)
        delay = self.config.mobility.handover_delay_s
        if delay > 0:
            self.engine.post(delay, self._lookup, request, fallback)
        else:
            self._lookup(request, fallback)

    def _lookup(self, request: Request, cell: Cell) -> None:
        """Lookup stage: hit, coalesce onto an in-flight fetch, or start one."""
        if cell.failed:
            # The cell went down while this request was in a handover delay
            # (or mid-failover chain); keep falling over until an alive cell
            # answers or every candidate is gone.
            self._failover(request, cell)
            return
        if self._resilience is not None and not self._admit(request, cell):
            return  # shed at admission; _admit emitted the terminal
        now = self.engine.now
        request.lookup_time = now
        key = request.model_key
        entry = cell.cache.get(key, now=now)
        if entry is not None:
            cell.stats.hits += 1
            request.cache_outcome = LOCAL_HIT
            self._enqueue(request, cell)
            return
        waiters = cell.inflight.get(key)
        if waiters is not None:
            # A fetch for this model is already in flight; ride along.
            cell.stats.coalesced += 1
            request.cache_outcome = COALESCED
            request.status = FETCHING
            waiters.append(request)
            return
        request.status = FETCHING
        cell.inflight[key] = [request]
        self._fetch(request, cell, key)

    def _fetch(self, request: Request, cell: Cell, key: str) -> None:
        """Fetch stage of a fresh miss (its waiter list is already registered).

        The model comes from the cooperative source :meth:`_find_source`
        names — a backhaul copy, with the source entry pinned against
        eviction until it lands — or from the cloud (WAN transfer plus the
        model's rebuild cost).  Either way the fetch is one engine event.
        """
        spec = self._domain_info[request.domain][2]
        source_name, source = self._find_source(cell, key)
        if source_name is not None:
            cell.stats.neighbor_fetches += 1
            request.cache_outcome = NEIGHBOR_FETCH
            if source is not None:
                source.cache.pin(key)
            delay = self.costs.transfer_time(source_name, cell.name, spec.size_bytes)
            self.backhaul_bytes += spec.size_bytes
        else:
            cell.stats.cloud_fetches += 1
            request.cache_outcome = CLOUD_FETCH
            delay = spec.build_cost_s + self.costs.transfer_time(CLOUD, cell.name, spec.size_bytes)
            self.cloud_bytes += spec.size_bytes
        self.engine.post(delay, self._fetch_done, cell, key, spec, source, cell.failure_epoch)

    def _find_source(self, cell: Cell, key: str) -> Tuple[Optional[str], Optional[Cell]]:
        """Cooperative source of a miss at ``cell``: ``(name, cell to pin)``.

        The nearest alive neighbour holding ``key``, or ``(None, None)`` to
        fetch from the cloud.  Overridable: a backend that knows of caches it
        does not serve (the sharded directory) names a source with no cell
        to pin.
        """
        for neighbor in cell.neighbor_order:
            if not neighbor.failed and neighbor.cache.peek(key) is not None:
                return neighbor.name, neighbor
        return None, None

    def _fetch_done(
        self, cell: Cell, key: str, spec: ModelSpec, source: Optional[Cell], epoch: int = 0
    ) -> None:
        now = self.engine.now
        if source is not None:
            source_entry = source.cache.unpin(key)
            if source.failed and not source_entry.pinned:
                # The source died mid-transfer: the pin kept the payload alive
                # for this copy, and its release completes the failure wipe —
                # otherwise the entry would outlive the outage and recover warm.
                source.cache.remove(key)
                source.cache.statistics.wipes += 1
        if cell.failed or epoch != cell.failure_epoch:
            # The destination died while the model was in flight (and possibly
            # recovered since).  The bytes were already spent and the source
            # pin is released above; this fetch's waiters were failed over at
            # failure time, so nothing is admitted and nobody is served —
            # in particular not the waiters of any *newer* fetch for the same
            # key started after recovery, whose own completion is still due.
            return
        if spec.size_bytes <= cell.cache.capacity_bytes:
            entry = CacheEntry(
                key=key,
                kind=GENERAL_MODEL,
                domain=spec.domain,
                size_bytes=spec.size_bytes,
                build_cost_s=spec.build_cost_s,
            )
            # May still be rejected (everything pinned); the waiting requests
            # proceed with the freshly fetched model either way.
            cell.cache.put(entry, now=now)
        else:
            # Model too large for this cell's cache: use it transiently.
            cell.cache.statistics.rejections += 1
        for request in cell.inflight.pop(key, []):
            request.fetch_done_time = now
            self._enqueue(request, cell)

    def _enqueue(self, request: Request, cell: Cell) -> None:
        now = self.engine.now
        policy = self._resilience
        if (
            policy is not None
            and policy.deadline_s is not None
            and now - request.arrival_time >= policy.deadline_s
        ):
            # Budget spent before batching: finish now instead of occupying
            # a batch slot with work nobody is waiting for.
            self._finish_failure(request, cell, DEADLINE_EXCEEDED)
            return
        request.status = QUEUED
        request.enqueue_time = now
        flops = self._domain_info[request.domain][1]
        batch = cell.batcher.add(request, flops, now)
        if batch is not None:
            self._execute_batch(cell, batch)
        elif len(cell.batcher) == 1:
            self.engine.post(
                self.config.batching.max_wait_s, self._batch_timeout, cell, cell.batcher.generation
            )

    def _batch_timeout(self, cell: Cell, generation: int) -> None:
        if cell.batcher.generation != generation:
            return  # The batch already closed on the size boundary.
        batch = cell.batcher.flush()
        if batch is not None:
            self._execute_batch(cell, batch)

    def _execute_batch(self, cell: Cell, batch: Batch) -> None:
        now = self.engine.now
        # Enqueue on the compute resource directly rather than via
        # EdgeServer.execute: the latter retains a TaskResult per call, which
        # a 100k+-request replay has no use for (memory stays flat instead).
        start, finish = cell.server.compute.enqueue(now, batch.flops)
        items = batch.items
        cell.stats.batches += 1
        cell.stats.batched_requests += len(items)
        for request in items:
            request.compute_start_time = start
            request.compute_done_time = finish
        self.engine.post(
            finish + self._downlink_time[cell.name] - now, self._complete, cell, items
        )

    def _complete(self, cell: Cell, requests: List[Request]) -> None:
        if self._resilience is not None:
            requests = self._settle_hedges(cell, requests)
            if not requests:
                return
        now = self.engine.now
        record = self.latency.record
        hook = self.on_request_end
        placement = self._placement
        for request in requests:
            request.completion_time = now
            request.status = COMPLETED
            record(now - request.arrival_time)
            if placement is not None:
                placement.release(request)
            if hook is not None:
                hook(request)
        cell.stats.completed += len(requests)
        self._completed_total += len(requests)
        self._last_completion = now

    # ------------------------------------------------------------------ #
    # Fault injection (timed mid-run mutations)
    # ------------------------------------------------------------------ #
    # Scenario timelines (:mod:`repro.scenarios`) schedule these through
    # ``engine.schedule_at``; they are also directly callable between runs.
    # None of them consumes randomness, so a fault-free run's RNG streams are
    # untouched and a faulted run is exactly as deterministic as the spec.
    def fail_cell(self, name: str) -> None:
        """Take a cell down: wipe its cache, hand over everything it holds.

        Requests waiting in the cell's batch queue and requests parked on its
        in-flight fetches are failed over to the nearest alive neighbour (or
        dropped if none exists).  The cache loses every unpinned entry — a
        later :meth:`recover_cell` is a cold restart.  Requests already past
        the encode stage (completion events in flight) complete normally:
        their features were already transmitted.
        """
        cell = self.cells[name]
        if cell.failed:
            return
        cell.failed = True
        cell.failure_epoch += 1
        now = self.engine.now
        cell.cache.wipe(now=now)
        # Flush (rather than drop) the open batch so its requests are re-homed;
        # the generation bump turns any pending batch-timeout into a no-op.
        batch = cell.batcher.flush()
        displaced: List[Request] = list(batch.items) if batch is not None else []
        for waiters in cell.inflight.values():
            displaced.extend(waiters)
        cell.inflight.clear()
        for request in displaced:
            self._failover(request, cell)

    def recover_cell(self, name: str) -> None:
        """Bring a failed cell back (cache cold — it was wiped at failure).

        Entries that survived the failure wipe only because a neighbour's copy
        was in flight are dropped when that pin releases (see ``_fetch_done``);
        the wipe here catches any such survivor whose pin released after a
        second failure window, keeping the cold-restart invariant.  The one
        deliberate exception: an entry still pinned *right now* (its transfer
        outlived the whole outage) stays, because pins are never broken.
        """
        cell = self.cells[name]
        if cell.failed:
            cell.cache.wipe(now=self.engine.now)
            cell.failed = False

    def alive_cells(self) -> List[str]:
        """Names of the cells currently up."""
        return [name for name, cell in self.cells.items() if not cell.failed]

    def wipe_cell_cache(self, name: str) -> int:
        """Cold-restart one cell's cache without downtime; returns entries dropped.

        Pinned entries (transfer sources with a copy in flight) survive — see
        :meth:`~repro.caching.cache.SemanticModelCache.wipe`.
        """
        return len(self.cells[name].cache.wipe(now=self.engine.now))

    def degrade_downlink(self, name: str, factor: float) -> None:
        """Scale one cell's per-request downlink time by ``factor`` (>= 1 slows).

        The factor applies to the healthy baseline, so repeated degradations
        replace each other instead of compounding.
        """
        if factor <= 0:
            raise ConfigurationError(f"factor must be positive, got {factor}")
        self._downlink_time[name] = self._downlink_base[name] * factor

    def restore_downlink(self, name: str) -> None:
        """Reset one cell's downlink to its healthy baseline."""
        self._downlink_time[name] = self._downlink_base[name]

    def resize_cell_cache(self, name: str, capacity_bytes: int) -> None:
        """Change one cell's cache budget mid-run, evicting down to it if shrunk."""
        self.cells[name].cache.resize(capacity_bytes, now=self.engine.now)

    def set_handover_probability(self, probability: float) -> None:
        """Change the mobility model's handover probability mid-run."""
        self.mobility.set_handover_probability(probability)

    def schedule_calls(
        self,
        time_s: float,
        calls: Sequence[tuple],
        label: str = "",
    ) -> None:
        """Schedule a batch of named method calls at simulation time ``time_s``.

        ``calls`` is an ordered sequence of ``(method_name, args)`` pairs
        applied back-to-back inside **one** engine event.  This is the
        backend-agnostic fault API: scenario timelines describe faults as
        data, and each backend decides how to execute them — the serial
        engine as a single heap event (identical to the historical closure
        scheduling, so committed tables stay byte-identical), the sharded
        backend by recording the timeline and broadcasting it to every shard
        before replay.
        """

        def apply(sim: Simulation, batch=tuple(calls)) -> None:
            for method_name, args in batch:
                getattr(self, method_name)(*args)

        self.engine.schedule_at(time_s, apply, label=label)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def audit_invariants(self, allow_over_budget: bool = False) -> None:
        """Post-replay structural audit (see :func:`repro.sim.invariants.audit_simulator`).

        Raises :class:`~repro.sim.invariants.InvariantViolation` if the run
        left the engine in an impossible state: drifted cache accounting,
        leaked pins, stranded fetches or batches, entries on dead cells.
        ``allow_over_budget`` permits the one legal over-full end state — a
        cache whose budget shrank below its live pins mid-run.
        """
        from repro.sim.invariants import audit_simulator

        audit_simulator(self, allow_over_budget=allow_over_budget)

    def report(self, wall_clock_s: float) -> SimulationReport:
        """Build the :class:`SimulationReport` for everything run so far."""
        return SimulationReport(
            completed=self._completed_total,
            duration_s=self._last_completion,
            wall_clock_s=wall_clock_s,
            events_processed=self.engine.events_processed,
            latency=self.latency.summary(),
            cells={name: cell.stats for name, cell in self.cells.items()},
            total_compute_busy_s=sum(cell.server.compute.busy_time for cell in self.cells.values()),
            backhaul_bytes=self.backhaul_bytes,
            cloud_bytes=self.cloud_bytes,
            dropped=sum(cell.stats.dropped for cell in self.cells.values()),
            shed=sum(cell.stats.shed for cell in self.cells.values()),
            deadline_exceeded=sum(
                cell.stats.deadline_exceeded for cell in self.cells.values()
            ),
        )
