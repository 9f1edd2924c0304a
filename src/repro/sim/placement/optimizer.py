"""Offline cache-placement optimizer ("which semantic models at which cells").

Given the demand a replay is about to serve, decide — before the first
arrival — which general semantic models each cell should already hold, and
pre-load them.  Online policies (LRU/LFU/semantic-popularity) pay the
cold-start fetch storm and then chase the workload; the offline plan sees the
whole trace's demand matrix at once, so its hit ratio upper-bounds what any
online policy of the same cache size can reach and anchors the e12 tables.

The optimization itself is :func:`repro.sim.placement.network.solve_cache_placement`
— min-cost flow in kilobyte units over the demand matrix.  This module owns
the simulator-facing glue: estimating the demand matrix from a trace and
applying a plan to live caches.

Demand estimation deliberately splits each domain's trace-wide request count
uniformly across cells.  That equals the *expectation* of the mobility
model's uniform user placement without consuming or peeking at any RNG
stream — prewarming must not perturb the replay's randomness (the
determinism contract in ``docs/scheduling.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.caching.entry import CacheEntry, GENERAL_MODEL, general_model_key
from repro.sim.placement.network import solve_cache_placement
from repro.workloads.traces import RequestTrace


def trace_domain_counts(trace: Optional[RequestTrace]) -> Dict[str, int]:
    """Per-domain request counts of ``trace`` (empty when unavailable)."""
    if trace is not None and len(trace) > 0:
        return trace.domain_counts()
    return {}


def uniform_demand_matrix(
    domain_counts: Dict[str, int], cells: List[str]
) -> Dict[Tuple[str, str], float]:
    """Split aggregate domain counts uniformly across ``cells``."""
    if not cells:
        return {}
    share = 1.0 / len(cells)
    return {
        (cell, domain): count * share
        for domain, count in domain_counts.items()
        if count > 0
        for cell in cells
    }


def plan_cache_placement(simulator, trace: Optional[RequestTrace]) -> Dict[str, List[str]]:
    """Solve the offline placement for ``simulator`` against ``trace``."""
    counts = trace_domain_counts(trace)
    cells = sorted(simulator.cells)
    demand = uniform_demand_matrix(counts, cells)
    sizes = {domain: spec.size_bytes for domain, spec in simulator.catalogue.items()}
    capacities = {
        name: simulator.cells[name].cache.capacity_bytes for name in cells
    }
    return solve_cache_placement(demand, sizes, capacities)


def apply_prewarm(simulator, plan: Dict[str, List[str]]) -> Tuple[int, int]:
    """Pre-load ``plan``'s models into the simulator's caches at t=0.

    Returns ``(models placed, bytes placed)``.  The plan is capacity-feasible
    by construction (the flow solve rounds sizes up and capacities down to
    whole KB), so insertion order cannot force the cache policy to evict an
    earlier prewarmed entry; entries the policy still rejects (zero-capacity
    caches) are simply skipped.
    """
    placed = 0
    placed_bytes = 0
    now = simulator.engine.now
    for cell_name in sorted(plan):
        cell = simulator.cells.get(cell_name)
        if cell is None:
            continue
        for domain in plan[cell_name]:
            spec = simulator.catalogue.get(domain)
            if spec is None:
                continue
            key = general_model_key(domain)
            if cell.cache.peek(key) is not None:
                continue
            if spec.size_bytes > cell.cache.capacity_bytes:
                continue
            cell.cache.put(
                CacheEntry(
                    key=key,
                    kind=GENERAL_MODEL,
                    domain=domain,
                    size_bytes=spec.size_bytes,
                    build_cost_s=spec.build_cost_s,
                ),
                now=now,
            )
            if cell.cache.peek(key) is not None:
                placed += 1
                placed_bytes += spec.size_bytes
    return placed, placed_bytes
