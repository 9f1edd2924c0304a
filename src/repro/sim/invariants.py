"""Engine invariants: the properties every backend must preserve, as code.

The scenario fuzzer (:mod:`repro.scenarios.fuzz`) samples adversarial
workloads; this module is the judge it drives them through.  Three pieces:

* :class:`InvariantChecker` — an ``on_request_end`` hook that validates every
  terminal request as it happens (terminal status, timestamp ordering, no
  double termination) and keeps exact terminal counts for the end-of-replay
  conservation check.  It is mergeable (``clone_empty``/``merge``), so it
  rides through the sharded backend unchanged, and it can chain an inner
  hook (the scenario runner's :class:`~repro.scenarios.measure.PhaseCollector`)
  so observation and checking share one attachment point.
* :func:`audit_simulator` — a post-replay structural audit of a live engine
  (the serial backend, or one shard): cache byte accounting, no leaked pins,
  no stranded in-flight fetches or open batches, dead cells hold nothing.
* :func:`expected_fault_state` / :func:`audit_fault_state` — fold a
  :class:`~repro.scenarios.spec.ScenarioSpec` fault timeline into the
  end-of-run state it implies (failed flags, downlink factors, cache
  budgets) and compare against the engine.  Repeated ``degrade_downlink``
  events in the timeline directly exercise the never-compounds contract.

Violations raise :class:`InvariantViolation` (a
:class:`~repro.exceptions.SimulationError`), so a fuzzer or test sees one
exception type whichever layer caught the bug.

The checker keeps one set entry per terminal request to detect double
termination — attach it to bounded replays (fuzz cases, tests), not to
multi-million-request production runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Set

from repro.exceptions import CacheError, SimulationError
from repro.sim.request import (
    CACHE_OUTCOMES,
    COMPLETED,
    DEADLINE_EXCEEDED,
    DROPPED,
    SHED,
    UNSET,
    Request,
)


class InvariantViolation(SimulationError):
    """An engine invariant did not hold (the bug, not the workload, is wrong)."""


class InvariantChecker:
    """Terminal-event watchdog attachable via ``on_request_end``.

    Parameters
    ----------
    inner:
        Optional hook called after the checks pass, so one attachment point
        serves both measurement and verification (the scenario runner chains
        its :class:`~repro.scenarios.measure.PhaseCollector` here).  For the
        sharded backend the inner hook must itself be mergeable.
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.completed = 0
        self.dropped = 0
        self.shed = 0
        self.deadline_exceeded = 0
        self._seen: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Hook protocol
    # ------------------------------------------------------------------ #
    def __call__(self, request: Request) -> None:
        status = request.status
        if status == COMPLETED:
            if request.completion_time == UNSET:
                raise InvariantViolation(
                    f"request {request.request_id} completed without a completion time"
                )
            if request.completion_time < request.arrival_time:
                raise InvariantViolation(
                    f"request {request.request_id} completed at "
                    f"{request.completion_time} before arriving at {request.arrival_time}"
                )
            if request.cache_outcome not in CACHE_OUTCOMES:
                raise InvariantViolation(
                    f"completed request {request.request_id} has cache outcome "
                    f"{request.cache_outcome!r} (expected one of {CACHE_OUTCOMES})"
                )
            self.completed += 1
        elif status == DROPPED:
            if request.completion_time != UNSET:
                raise InvariantViolation(
                    f"dropped request {request.request_id} carries a completion time "
                    f"({request.completion_time})"
                )
            self.dropped += 1
        elif status == SHED or status == DEADLINE_EXCEEDED:
            if request.completion_time != UNSET:
                raise InvariantViolation(
                    f"{status} request {request.request_id} carries a completion "
                    f"time ({request.completion_time})"
                )
            if status == SHED:
                self.shed += 1
            else:
                self.deadline_exceeded += 1
        else:
            raise InvariantViolation(
                f"terminal hook saw request {request.request_id} in non-terminal "
                f"status {status!r}"
            )
        if request.request_id in self._seen:
            raise InvariantViolation(
                f"request {request.request_id} reached a terminal event twice"
            )
        self._seen.add(request.request_id)
        if self.inner is not None:
            self.inner(request)

    @property
    def terminal(self) -> int:
        """Terminal events observed (completions, drops, sheds, deadline expiries)."""
        return self.completed + self.dropped + self.shed + self.deadline_exceeded

    # ------------------------------------------------------------------ #
    # Mergeable-hook protocol (sharded backend)
    # ------------------------------------------------------------------ #
    def clone_empty(self) -> "InvariantChecker":
        """A fresh checker for one shard (inner hook cloned alongside)."""
        inner = None if self.inner is None else self.inner.clone_empty()
        return InvariantChecker(inner=inner)

    def merge(self, other: "InvariantChecker") -> None:
        """Fold one shard's observations in; shards must not share requests."""
        overlap = self._seen & other._seen
        if overlap:
            raise InvariantViolation(
                f"{len(overlap)} request ids reached terminal events on two shards "
                f"(e.g. {sorted(overlap)[:3]})"
            )
        self._seen |= other._seen
        self.completed += other.completed
        self.dropped += other.dropped
        self.shed += other.shed
        self.deadline_exceeded += other.deadline_exceeded
        if self.inner is not None and other.inner is not None:
            self.inner.merge(other.inner)

    # ------------------------------------------------------------------ #
    # End-of-replay conservation
    # ------------------------------------------------------------------ #
    def verify_report(self, report, issued: int) -> None:
        """Check request conservation against the merged report.

        ``completed + dropped + shed + deadline_exceeded == issued`` must
        hold **exactly** on every backend — the sharded engine terminates
        each forward chain exactly once, and hedged duplicates are de-counted
        to one terminal per logical request, so conservation is not a
        tolerance check.
        """
        if self.terminal != issued:
            raise InvariantViolation(
                f"request conservation broken: {issued} issued but "
                f"{self.completed} completed + {self.dropped} dropped + "
                f"{self.shed} shed + {self.deadline_exceeded} deadline_exceeded "
                f"= {self.terminal} terminal events"
            )
        if report.completed != self.completed:
            raise InvariantViolation(
                f"report says {report.completed} completed but the terminal hook "
                f"saw {self.completed}"
            )
        if report.dropped != self.dropped:
            raise InvariantViolation(
                f"report says {report.dropped} dropped but the terminal hook "
                f"saw {self.dropped}"
            )
        cells_completed = sum(stats.completed for stats in report.cells.values())
        if cells_completed != report.completed:
            raise InvariantViolation(
                f"per-cell completed counters sum to {cells_completed}, "
                f"report says {report.completed}"
            )
        cells_dropped = sum(stats.dropped for stats in report.cells.values())
        if cells_dropped != report.dropped:
            raise InvariantViolation(
                f"per-cell dropped counters sum to {cells_dropped}, "
                f"report says {report.dropped}"
            )
        for kind, hook_count in (
            ("shed", self.shed),
            ("deadline_exceeded", self.deadline_exceeded),
        ):
            report_count = getattr(report, kind, 0)
            if report_count != hook_count:
                raise InvariantViolation(
                    f"report says {report_count} {kind} but the terminal hook "
                    f"saw {hook_count}"
                )
            cells_count = sum(getattr(stats, kind, 0) for stats in report.cells.values())
            if cells_count != report_count:
                raise InvariantViolation(
                    f"per-cell {kind} counters sum to {cells_count}, "
                    f"report says {report_count}"
                )


def audit_simulator(sim, allow_over_budget: bool = False) -> None:
    """Structural post-replay audit of one live engine.

    ``sim`` is a :class:`~repro.sim.simulator.MultiCellSimulator` (or one
    shard of the sharded backend — shards are subclasses and call this from
    ``finalize``).  At quiescence:

    * every cache's incremental byte accounting matches a full re-sum
      (:meth:`~repro.caching.cache.SemanticModelCache.assert_consistent`);
    * no pins are leaked — every transfer that pinned a source entry has
      released it;
    * no cell holds stranded in-flight fetches or an open batch;
    * a cell that is down holds no cache entries (failure wipes, and the
      epoch guard blocks admissions while dead);
    * no cache is over its byte budget, unless the run shrank a budget below
      live pins (``allow_over_budget`` — the documented resize-under-pins
      semantics leave the cache over-full rather than break a pin);
    * per-cell counters are non-negative, their completion sum matches the
      engine total, and the latency recorder saw exactly one sample per
      completion;
    * the policy layers hold nothing: resilience's admission counters and
      hedge pairs, and placement's per-cell placed-queue counters, are all
      back at zero.
    """
    for name, cell in sim.cells.items():
        cache = cell.cache
        try:
            cache.assert_consistent()
        except CacheError as error:
            raise InvariantViolation(f"cell {name}: {error}") from error
        leaked = [entry.key for entry in cache.entries() if entry.pinned]
        if leaked:
            raise InvariantViolation(
                f"cell {name} leaked pins on {leaked} after quiescence"
            )
        if cache.pinned_bytes != 0:
            raise InvariantViolation(
                f"cell {name} reports {cache.pinned_bytes} pinned bytes with no "
                "pinned entries"
            )
        if cell.inflight:
            raise InvariantViolation(
                f"cell {name} has stranded in-flight fetches for "
                f"{sorted(cell.inflight)}"
            )
        if len(cell.batcher):
            raise InvariantViolation(
                f"cell {name} still holds an open batch of {len(cell.batcher)} "
                "requests after quiescence"
            )
        if cell.failed and len(cache) > 0:
            raise InvariantViolation(
                f"dead cell {name} holds {len(cache)} cache entries "
                f"({sorted(cache.keys())[:3]}...)"
            )
        if cache.used_bytes > cache.capacity_bytes and not allow_over_budget:
            raise InvariantViolation(
                f"cell {name} cache is over budget ({cache.used_bytes} B used, "
                f"{cache.capacity_bytes} B capacity) with no shrink-under-pins "
                "in the timeline"
            )
        for field in fields(cell.stats):
            value = getattr(cell.stats, field.name)
            if isinstance(value, int) and value < 0:
                raise InvariantViolation(
                    f"cell {name} counter {field.name} went negative ({value})"
                )
    if sim.engine.pending() != 0:
        raise InvariantViolation(
            f"event heap still holds {sim.engine.pending()} events after the replay"
        )
    cells_completed = sum(cell.stats.completed for cell in sim.cells.values())
    if cells_completed != sim._completed_total:
        raise InvariantViolation(
            f"per-cell completions sum to {cells_completed}, engine counted "
            f"{sim._completed_total}"
        )
    if len(sim.latency) != sim._completed_total:
        raise InvariantViolation(
            f"latency recorder holds {len(sim.latency)} samples for "
            f"{sim._completed_total} completions"
        )
    if getattr(sim, "_resilience", None) is not None:
        stuck = {name: count for name, count in sim._outstanding.items() if count != 0}
        if stuck:
            raise InvariantViolation(
                f"outstanding-queue counters non-zero after quiescence: {stuck}"
            )
        if sim._hedge_pairs:
            raise InvariantViolation(
                f"{len(sim._hedge_pairs)} hedge pairs unresolved after quiescence "
                f"(e.g. {sorted(sim._hedge_pairs)[:3]})"
            )
    placement = getattr(sim, "_placement", None)
    if placement is not None:
        stuck = {name: count for name, count in placement.outstanding.items() if count != 0}
        if stuck:
            raise InvariantViolation(
                f"placement outstanding counters non-zero after quiescence: {stuck}"
            )


@dataclass(frozen=True)
class FaultEndState:
    """The deployment state a fault timeline implies once it has all fired."""

    failed: frozenset
    #: Per-cell downlink factor relative to the healthy baseline.
    downlink_factor: Dict[str, float]
    #: Per-cell cache budget in bytes.
    capacity_bytes: Dict[str, int]
    #: Final handover probability (``None`` when the timeline never set it).
    handover_probability: Optional[float]
    #: Whether any resize lowered a cell's budget below its then-current value
    #: (the one legal source of an over-budget cache at quiescence).
    shrank_cache: bool


def expected_fault_state(spec) -> FaultEndState:
    """Fold ``spec``'s fault timeline into its implied end-of-run state.

    Events fold in time order with ties kept in spec order — exactly the
    order every backend fires them (pre-run heap events at equal timestamps
    pop in scheduling order).
    """
    # Local import: repro.scenarios imports the sim package, not vice versa.
    from repro.scenarios.spec import (
        CACHE_RESIZE,
        CELL_FAIL,
        CELL_RECOVER,
        LINK_DEGRADE,
        LINK_RESTORE,
        MOBILITY_SET,
    )

    cell_names = [f"cell_{index}" for index in range(spec.num_cells)]
    base_capacity = int(spec.cache_capacity_mb * 1024 * 1024)
    failed = set()
    factor = {name: 1.0 for name in cell_names}
    capacity = {name: base_capacity for name in cell_names}
    handover: Optional[float] = None
    shrank = False
    for event in sorted(spec.events, key=lambda event: event.time_s):
        targets = [event.cell] if event.cell is not None else cell_names
        if event.kind == CELL_FAIL:
            failed.add(event.cell)
        elif event.kind == CELL_RECOVER:
            failed.discard(event.cell)
        elif event.kind == LINK_DEGRADE:
            for name in targets:
                factor[name] = event.factor
        elif event.kind == LINK_RESTORE:
            for name in targets:
                factor[name] = 1.0
        elif event.kind == CACHE_RESIZE:
            new_capacity = int(spec.cache_capacity_mb * 1024 * 1024 * event.factor)
            for name in targets:
                if new_capacity < capacity[name]:
                    shrank = True
                capacity[name] = new_capacity
        elif event.kind == MOBILITY_SET:
            handover = event.value
    return FaultEndState(
        failed=frozenset(failed),
        downlink_factor=factor,
        capacity_bytes=capacity,
        handover_probability=handover,
        shrank_cache=shrank,
    )


def audit_fault_state(sim, spec) -> None:
    """Check a serial engine's end state against the folded timeline.

    Directly exercises the fault-application contracts: failures and
    recoveries land on the right cells, ``resize`` budgets stick, and —
    because repeated ``link_degrade`` events fold to the *last* factor, not
    the product — downlink degradation never compounds.
    """
    state = expected_fault_state(spec)
    for name, cell in sim.cells.items():
        expected_failed = name in state.failed
        if cell.failed != expected_failed:
            raise InvariantViolation(
                f"cell {name} ended {'failed' if cell.failed else 'alive'}; the "
                f"timeline implies {'failed' if expected_failed else 'alive'}"
            )
        if cell.cache.capacity_bytes != state.capacity_bytes[name]:
            raise InvariantViolation(
                f"cell {name} cache budget is {cell.cache.capacity_bytes} B; the "
                f"timeline implies {state.capacity_bytes[name]} B"
            )
    downlink = getattr(sim, "_downlink_time", None)
    baseline = getattr(sim, "_downlink_base", None)
    if downlink is not None and baseline is not None:
        for name, base in baseline.items():
            expected = base * state.downlink_factor[name]
            if not math.isclose(downlink[name], expected, rel_tol=1e-12, abs_tol=0.0):
                raise InvariantViolation(
                    f"cell {name} downlink time is {downlink[name]!r}; the timeline "
                    f"implies {expected!r} (factor {state.downlink_factor[name]}) — "
                    "degradation must replace, never compound"
                )


__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "audit_simulator",
    "expected_fault_state",
    "audit_fault_state",
    "FaultEndState",
]
