"""Latency accounting and the report a simulation run produces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.utils.rng import BlockDraws


def _slot_draws(generator: np.random.Generator, position: int, count: int) -> np.ndarray:
    """Algorithm-R slots for the records whose running counts start at ``position``."""
    return generator.integers(0, np.arange(position, position + count))


class LatencyRecorder:
    """Accumulates completion latencies and summarizes their distribution.

    Memory is bounded: up to ``reservoir_size`` samples are kept.  While the
    number of recorded latencies stays at or below that threshold every sample
    is retained, so percentiles are **exact** — the default threshold of
    100 000 covers every committed experiment row.  Beyond it the recorder
    switches to uniform reservoir sampling (Vitter's algorithm R with a seeded
    generator, so runs stay reproducible): a 1M-request replay then costs the
    same memory as a 100k one, with percentiles becoming tight estimates.
    Mean, max and count are always exact regardless of length.

    The replacement slots are drawn in blocks (:class:`~repro.utils.rng.
    BlockDraws`): one ``integers(0, np.arange(count, count + n))`` call
    returns the same slots as ``n`` scalar ``integers(0, count)`` draws, so
    samples are bit-identical to drawing one slot per record.
    """

    def __init__(self, reservoir_size: int = 100_000, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        self._capacity = reservoir_size
        self._samples = np.empty(reservoir_size, dtype=np.float64)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._seed = seed
        self._rng: np.random.Generator | None = None  # created on first overflow
        #: Slot stream, started at the first overflow record and again after
        #: an :meth:`absorb`, whose records start at a new running count.
        self._slots: BlockDraws | None = None
        #: Recorded latencies not retained by an :meth:`absorb` merge; the
        #: next sample goes to index ``count - offset``.
        self._offset = 0

    def record(self, latency_s: float) -> None:
        """Record one completed request's latency."""
        count = self._count
        self._count = count + 1
        self._sum += latency_s
        if latency_s > self._max:
            self._max = latency_s
        index = count - self._offset
        if index < self._capacity:
            self._samples[index] = latency_s
            return
        slots = self._slots
        if slots is None:
            slots = self._start_slots(count + 1)
        slot = slots.next()
        if slot < self._capacity:
            self._samples[slot] = latency_s

    def _start_slots(self, position: int) -> BlockDraws:
        """Start the slot stream at the record whose running count is ``position``."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        self._slots = BlockDraws(self._rng, _slot_draws, position=position)
        return self._slots

    def __len__(self) -> int:
        return self._count

    def record_many(self, latencies_s: np.ndarray) -> None:
        """Record a batch of latencies, bit-identical to repeated :meth:`record`.

        The region that fits in the reservoir is appended with one slice
        assignment; the running sum is folded left-to-right with
        ``np.add.accumulate`` (the same sequential order as scalar ``+=``, so
        the float result is the same bits).  The overflow tail draws all its
        slots in one call and scatters into the reservoir with the last
        writer winning, as the scalar replacements would.
        """
        values = np.ascontiguousarray(latencies_s, dtype=np.float64)
        count = len(values)
        if count == 0:
            return
        start = self._count
        fit = min(count, max(self._capacity - (start - self._offset), 0))
        if fit:
            index = start - self._offset
            self._samples[index : index + fit] = values[:fit]
        self._count = start + count
        self._sum = float(np.add.accumulate(np.concatenate(([self._sum], values)))[-1])
        peak = float(values.max())
        if peak > self._max:
            self._max = peak
        if fit == count:
            return
        slots = self._slots
        if slots is None:
            slots = self._start_slots(start + fit + 1)
        tail_slots = slots.take(count - fit)
        replaced = np.flatnonzero(tail_slots < self._capacity)
        # Reversed, np.unique's first index per slot is the last writer's.
        targets, last = np.unique(tail_slots[replaced][::-1], return_index=True)
        self._samples[targets] = values[fit:][replaced[len(replaced) - 1 - last]]

    def absorb(self, other: "LatencyRecorder") -> None:
        """Merge another recorder's distribution into this one, deterministically.

        The sharded backend records latencies per shard and merges at the end.
        Exact counters (count, sum, max) add exactly.  Retained samples are
        concatenated; when the union exceeds this recorder's capacity it is
        down-sampled at evenly spaced indices — a deterministic, order-stable
        reduction, so merged percentiles are exact whenever every input was
        exact and the union fits, and tight reservoir-style estimates beyond
        that.  Merge order must be deterministic (shard-index order) for
        byte-stable results, which the sharded drivers guarantee.  Later
        records append after the merged samples until the reservoir is full,
        then replace as usual.
        """
        if other._count == 0:
            return
        mine = np.copy(self._values())
        theirs = other._values()
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        self._count += other._count
        union = np.concatenate([mine, theirs]) if len(mine) else np.copy(theirs)
        if len(union) > self._capacity:
            keep = np.linspace(0, len(union) - 1, self._capacity).round().astype(np.int64)
            union = union[keep]
        self._samples[: len(union)] = union
        self._offset = self._count - len(union)
        if self._slots is not None:
            self._slots.sync()
            self._slots = None

    @property
    def retained(self) -> int:
        """Number of samples currently held (== count while exact)."""
        return min(self._count - self._offset, self._capacity)

    @property
    def exact(self) -> bool:
        """Whether every recorded sample is retained (percentiles are exact)."""
        return self._count == self.retained

    def _values(self) -> np.ndarray:
        return self._samples[: self.retained]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile latency in seconds (0 when empty)."""
        if self._count == 0:
            return 0.0
        return float(np.percentile(self._values(), q))

    def summary(self) -> Dict[str, float]:
        """Mean and p50/p95/p99 latency in seconds."""
        if self._count == 0:
            return {"mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
        values = self._values()
        p50, p95, p99 = np.percentile(values, [50, 95, 99])
        return {
            "mean_s": float(values.mean()) if self.exact else self._sum / self._count,
            "p50_s": float(p50),
            "p95_s": float(p95),
            "p99_s": float(p99),
            "max_s": self._max,
        }


@dataclass
class CellStats:
    """Per-cell counters collected during a run."""

    name: str
    hits: int = 0
    neighbor_fetches: int = 0
    cloud_fetches: int = 0
    coalesced: int = 0
    handovers_in: int = 0
    completed: int = 0
    batches: int = 0
    batched_requests: int = 0
    #: Requests re-homed to this cell because their serving cell had failed
    #: (a subset of ``handovers_in``; only non-zero under fault injection).
    failovers: int = 0
    #: Requests this cell had to drop because no alive cell was reachable.
    dropped: int = 0
    #: Resilience counters; all stay 0 unless a :class:`ResiliencePolicy`
    #: is configured on the simulator.
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    breaker_transitions: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups served by this cell."""
        return self.hits + self.neighbor_fetches + self.cloud_fetches + self.coalesced

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the cell's own cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests per executed batch."""
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches


@dataclass
class SimulationReport:
    """Everything a run of the multi-cell simulator measured."""

    completed: int
    duration_s: float
    wall_clock_s: float
    events_processed: int
    latency: Dict[str, float]
    cells: Dict[str, CellStats] = field(default_factory=dict)
    total_compute_busy_s: float = 0.0
    backhaul_bytes: float = 0.0
    cloud_bytes: float = 0.0
    #: Requests dropped because no alive cell could serve them (fault
    #: injection only; always 0 in a healthy deployment).
    dropped: int = 0
    #: Requests rejected by load shedding / expired deadlines; non-zero only
    #: under a resilience policy.
    shed: int = 0
    deadline_exceeded: int = 0

    @property
    def requests_per_sec(self) -> float:
        """Completed requests per simulated second."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def events_per_wall_sec(self) -> float:
        """Engine speed: events processed per wall-clock second."""
        if self.wall_clock_s <= 0:
            return 0.0
        return self.events_processed / self.wall_clock_s

    @property
    def hit_ratio(self) -> float:
        """Local-hit ratio aggregated over all cells."""
        lookups = sum(stats.lookups for stats in self.cells.values())
        if lookups == 0:
            return 0.0
        return sum(stats.hits for stats in self.cells.values()) / lookups

    @property
    def mean_batch_size(self) -> float:
        """Mean batch size aggregated over all cells."""
        batches = sum(stats.batches for stats in self.cells.values())
        if batches == 0:
            return 0.0
        return sum(stats.batched_requests for stats in self.cells.values()) / batches
