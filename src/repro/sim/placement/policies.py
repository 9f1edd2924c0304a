"""Global request-placement policies.

These sit beside the per-batch :mod:`repro.edge.scheduler` policies — the
``ClusterScheduler`` family decides *how work drains once queued at a node*;
a placement policy decides *which cell each arriving request queues at* in
the first place.  They share the same :class:`~repro.utils.registry.Registry`
idiom so both families are configured by name.

All three policies are RNG-free and are invoked **after**
``MobilityModel.resolve`` has established the serving cell, so enabling any
of them leaves every random stream of the replay untouched (see
``docs/scheduling.md`` for the full determinism contract).

``naive``
    Serve at the serving cell.  Byte-identical metrics to running with no
    placement at all; kept as an explicit arm so e12 can price the machinery.
``shortest-queue``
    Serve at the reachable cell with the fewest outstanding placed requests,
    preferring the serving cell on ties, then its neighbours in backhaul
    order.  Greedy and demand-blind: balances queues but scatters each
    domain's requests across cells, diluting cache locality.
``max-flow``
    Every :attr:`~repro.sim.placement.spec.PlacementSpec.refresh_s` seconds,
    solve a min-cost flow of the previous window's observed ``(origin,
    domain)`` demand over the cell flow network (serve capacities from FLOPs
    minus queue depth, arc costs from backhaul forwarding plus expected miss
    penalties against the planned/observed cache contents).  Dispatch
    realizes the fractional plan with a deterministic largest-remainder
    rotation.  Consolidating each domain onto few cells is what buys the
    hit-ratio (and hence latency) edge over ``shortest-queue`` under
    pressure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.caching.entry import general_model_key
from repro.edge.resources import encode_flops
from repro.sim.multicell import CLOUD, Cell
from repro.sim.placement.network import (
    RoutingPlan,
    concentrate_demand,
    solve_cache_placement,
    solve_routing,
)
from repro.sim.placement.optimizer import trace_domain_counts
from repro.utils.registry import Registry
from repro.workloads.traces import RequestTrace

placement_registry: Registry["PlacementPolicy"] = Registry("placement-policy")

_MICROSECONDS = 1_000_000.0


class PlacementPolicy:
    """Interface: pick the cell an arriving request should be served at."""

    name = "base"

    def prepare(self, runtime, simulator, trace: Optional[RequestTrace]) -> None:
        """One-time hook before the first arrival of a replay."""

    def route(self, runtime, simulator, request, serving: Cell) -> Cell:
        """Return the target cell for ``request`` (``serving`` is alive)."""
        raise NotImplementedError


@placement_registry.register("naive")
class NaivePlacement(PlacementPolicy):
    """Always serve at the serving cell (the engine's historical behaviour)."""

    name = "naive"

    def route(self, runtime, simulator, request, serving: Cell) -> Cell:
        return serving


@placement_registry.register("shortest-queue")
class ShortestQueuePlacement(PlacementPolicy):
    """Serve at the least-loaded reachable cell, serving cell first on ties."""

    name = "shortest-queue"

    def route(self, runtime, simulator, request, serving: Cell) -> Cell:
        outstanding = runtime.outstanding
        best = serving
        best_depth = outstanding.get(serving.name, 0)
        for neighbor in serving.neighbor_order:
            if neighbor.failed:
                continue
            depth = outstanding.get(neighbor.name, 0)
            if depth < best_depth:
                best = neighbor
                best_depth = depth
        return best


@placement_registry.register("max-flow")
class MaxFlowPlacement(PlacementPolicy):
    """Windowed min-cost-flow routing of demand over the cell flow network."""

    name = "max-flow"

    def __init__(self) -> None:
        self._plan: RoutingPlan = {}
        #: Dispatch state realizing fractional shares: totals per (origin,
        #: domain) and per-target sent counts, reset at every solve.
        self._dispatched: Dict[Tuple[str, str], int] = {}
        self._sent: Dict[Tuple[str, str, str], int] = {}
        #: Demand observed since the last solve, keyed by (origin, domain).
        self._window: Dict[Tuple[str, str], int] = {}
        self._trace_counts: Dict[str, int] = {}
        self._trace_span_s = 0.0
        self._next_solve: Optional[float] = None
        #: Per-cell domain sets the cache plan wants resident (steering targets).
        self._cache_targets: Dict[str, frozenset] = {}

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def prepare(self, runtime, simulator, trace: Optional[RequestTrace]) -> None:
        self._trace_counts = trace_domain_counts(trace)
        self._trace_span_s = _trace_span(trace)
        refresh = runtime.spec.refresh_s
        # The first window has no observations yet: seed it with the trace's
        # aggregate demand scaled down to one window and split uniformly
        # across cells (the expectation of uniform user placement — no RNG
        # stream is consumed or peeked).
        scale = refresh / self._trace_span_s if self._trace_span_s > 0 else 1.0
        seed_counts = {
            domain: max(1, int(round(count * scale)))
            for domain, count in self._trace_counts.items()
            if count > 0
        }
        cells = sorted(simulator.cells)
        seed_demand = {
            (origin, domain): max(1, int(round(count / len(cells))))
            for domain, count in seed_counts.items()
            for origin in cells
        }
        self._solve(runtime, simulator, seed_demand)
        self._next_solve = refresh

    def _solve(
        self, runtime, simulator, demand: Dict[Tuple[str, str], int]
    ) -> None:
        """Re-plan routing (and the cache-steering targets) from ``demand``."""
        cells = sorted(simulator.cells)
        counts: Dict[str, float] = {}
        for (_origin, domain), amount in demand.items():
            counts[domain] = counts.get(domain, 0.0) + amount
        sizes = {d: spec.size_bytes for d, spec in simulator.catalogue.items()}
        capacities_bytes = {
            name: simulator.cells[name].cache.capacity_bytes for name in cells
        }
        cache_plan = solve_cache_placement(
            concentrate_demand(counts, cells), sizes, capacities_bytes
        )
        self._cache_targets = {
            cell: frozenset(domains) for cell, domains in cache_plan.items()
        }
        serve_slots = self._serve_slots(runtime, simulator, counts, cells)
        cost = self._cost_function(runtime, simulator)
        self._plan = solve_routing(demand, serve_slots, cost)
        self._dispatched = {}
        self._sent = {}
        runtime.solves += 1

    def _serve_slots(
        self, runtime, simulator, counts: Dict[str, float], cells: List[str]
    ) -> Dict[str, int]:
        """Window serve capacity per cell: FLOPs throughput minus queue depth."""
        num_tokens = simulator.config.num_tokens
        weighted = 0.0
        total = 0.0
        for domain, count in counts.items():
            spec = simulator.catalogue.get(domain)
            if spec is None:
                continue
            weighted += count * encode_flops(spec.parameters, num_tokens)
            total += count
        mean_flops = weighted / total if total > 0 else 1.0
        refresh = runtime.spec.refresh_s
        slots: Dict[str, int] = {}
        for name in cells:
            cell = simulator.cells[name]
            if cell.failed:
                slots[name] = 0
                continue
            throughput = cell.server.compute.flops_per_second * refresh / mean_flops
            backlog = runtime.outstanding.get(name, 0)
            slots[name] = max(0, int(throughput) - backlog)
        return slots

    def _cost_function(self, runtime, simulator):
        """Integer-microsecond arc cost: forward time + expected miss penalty."""
        forward_bytes = runtime.spec.forward_bytes
        costs = simulator.costs
        catalogue = simulator.catalogue
        cells = simulator.cells
        cache_targets = self._cache_targets

        def route_cost_us(origin: str, domain: str, target: str) -> int:
            micros = 0.0
            if target != origin and forward_bytes > 0:
                micros += costs.transfer_time(origin, target, forward_bytes) * _MICROSECONDS
            spec = catalogue.get(domain)
            if spec is not None:
                cell = cells[target]
                key = general_model_key(domain)
                resident = cell.cache.peek(key) is not None
                planned = domain in cache_targets.get(target, ())
                if not resident and not planned:
                    micros += (
                        spec.build_cost_s
                        + costs.transfer_time(CLOUD, target, spec.size_bytes)
                    ) * _MICROSECONDS
            return int(round(micros))

        return route_cost_us

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def route(self, runtime, simulator, request, serving: Cell) -> Cell:
        now = simulator.engine.now
        if self._next_solve is not None and now >= self._next_solve:
            window = self._window or self._seed_from_trace(simulator)
            self._solve(runtime, simulator, window)
            self._window = {}
            refresh = runtime.spec.refresh_s
            while self._next_solve <= now:
                self._next_solve += refresh
        key = (serving.name, request.domain)
        self._window[key] = self._window.get(key, 0) + 1
        shares = self._plan.get(key)
        if not shares:
            return serving
        # Largest-remainder realization: route the (total+1)-th request to the
        # target whose realized count lags its fractional share the most.
        total = self._dispatched.get(key, 0)
        weight_sum = sum(weight for _target, weight in shares)
        best: Optional[Cell] = None
        best_name = ""
        best_score = float("-inf")
        for target_name, weight in shares:
            cell = simulator.cells.get(target_name)
            if cell is None or cell.failed:
                continue
            sent = self._sent.get((key[0], key[1], target_name), 0)
            score = weight * (total + 1) / weight_sum - sent
            if score > best_score:
                best = cell
                best_name = target_name
                best_score = score
        if best is None:
            return serving
        self._dispatched[key] = total + 1
        sent_key = (key[0], key[1], best_name)
        self._sent[sent_key] = self._sent.get(sent_key, 0) + 1
        return best

    def _seed_from_trace(self, simulator) -> Dict[Tuple[str, str], int]:
        """Fallback window demand when a window saw no arrivals at all."""
        cells = sorted(simulator.cells)
        if not cells or not self._trace_counts:
            return {}
        return {
            (origin, domain): max(1, int(round(count / len(cells))))
            for domain, count in self._trace_counts.items()
            for origin in cells
        }


def _trace_span(trace: Optional[RequestTrace]) -> float:
    """Arrival span of ``trace`` in seconds (0.0 when unknown)."""
    if trace is None or len(trace) == 0:
        return 0.0
    timestamps = trace.timestamps
    return float(timestamps.max() - timestamps.min())


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a registered placement policy by name."""
    return placement_registry.create(name)
