"""Request batching at edge servers.

Batching the encode step amortizes per-invocation overhead (weight loads,
kernel launches) across requests: the first request of a batch pays the full
FLOP cost and every additional request pays only an ``amortization`` fraction
of its own cost.  A batch closes when it reaches ``max_batch_size`` or when
``max_wait_s`` elapses after the batch opened, whichever comes first — the
classic throughput/latency knob.

The accumulator itself is engine-agnostic (it never touches the event queue):
the simulator asks it what to do and schedules the timeout flush itself, which
keeps the boundary conditions unit-testable without a running simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the per-cell batch accumulator.

    ``max_batch_size=1`` (or ``max_wait_s=0``) degrades to unbatched
    per-request execution, which is the baseline the experiments compare
    against.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.005
    amortization: float = 0.4

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_s < 0:
            raise ConfigurationError(f"max_wait_s must be non-negative, got {self.max_wait_s}")
        if not 0.0 < self.amortization <= 1.0:
            raise ConfigurationError(f"amortization must be in (0, 1], got {self.amortization}")


def batch_flops(per_item_flops: List[float], amortization: float) -> float:
    """Amortized FLOP cost of executing the given items as one batch.

    The most expensive item pays full price; every other item pays an
    ``amortization`` fraction of its own cost.  A singleton batch therefore
    costs exactly its item, and amortization 1.0 reproduces unbatched totals.
    """
    if not per_item_flops:
        return 0.0
    total = sum(per_item_flops)
    largest = max(per_item_flops)
    return largest + amortization * (total - largest)


@dataclass
class Batch:
    """A closed batch ready to execute: the items and their amortized cost."""

    items: List[Any]
    flops: float
    opened_at: float

    def __len__(self) -> int:
        return len(self.items)


class BatchAccumulator:
    """Collects items until a size or deadline boundary closes the batch."""

    def __init__(self, config: Optional[BatchingConfig] = None) -> None:
        self.config = config or BatchingConfig()
        self._items: List[Any] = []
        self._flops: List[float] = []
        self._opened_at: float = 0.0
        # Boundary knobs hoisted to plain attributes: add() runs once per
        # request in the replay hot loop.
        self._max_size = self.config.max_batch_size
        self._max_wait = self.config.max_wait_s
        #: Every addition closes its own batch (unbatched execution).
        self._singleton = self._max_size == 1 or self._max_wait == 0.0
        #: Absolute deadline of the currently open batch (None when empty).
        self.deadline: Optional[float] = None
        #: Bumped on every flush; timeout events compare generations so a
        #: stale timer never flushes a newer batch.
        self.generation: int = 0

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: Any, flops: float, now: float) -> Optional[Batch]:
        """Add ``item``; returns the closed batch if this addition filled it.

        When the returned value is ``None`` and ``len(self) == 1``, the
        caller should arrange a flush at :attr:`deadline`.

        Under unbatched execution (``max_batch_size == 1`` or ``max_wait_s
        == 0``) the one-item batch is returned directly, without the open
        batch's lists or :meth:`flush`: its cost ``batch_flops([flops], a)``
        is ``flops`` itself (for any finite ``flops``), and the generation
        still bumps once per batch.
        """
        if self._singleton:
            self.generation += 1
            return Batch([item], flops, now)
        items = self._items
        if not items:
            self._opened_at = now
            self.deadline = now + self._max_wait
        items.append(item)
        self._flops.append(flops)
        if len(items) >= self._max_size or self._max_wait == 0.0:
            return self.flush()
        return None

    def flush(self) -> Optional[Batch]:
        """Close and return the open batch (``None`` when nothing is pending)."""
        if not self._items:
            return None
        batch = Batch(
            items=self._items,
            flops=batch_flops(self._flops, self.config.amortization),
            opened_at=self._opened_at,
        )
        self._items = []
        self._flops = []
        self.deadline = None
        self.generation += 1
        return batch
