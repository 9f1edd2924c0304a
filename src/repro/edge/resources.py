"""Compute and storage resource models for edge servers and mobile devices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.exceptions import SchedulingError


@dataclass
class ComputeResource:
    """A processing resource measured in floating-point operations per second.

    The semantic encode/decode tasks carry FLOP estimates derived from their
    model sizes; dividing by ``flops_per_second`` gives the service time used
    by the discrete-event scheduler.
    """

    name: str
    flops_per_second: float
    utilization_window: float = 1.0
    busy_until: float = 0.0
    completed_tasks: int = 0
    busy_time: float = 0.0

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0:
            raise ValueError(f"flops_per_second must be positive, got {self.flops_per_second}")

    def service_time(self, flops: float) -> float:
        """Time in seconds to execute ``flops`` operations."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        return flops / self.flops_per_second

    def enqueue(self, now: float, flops: float) -> tuple[float, float]:
        """Reserve the resource for a task arriving at ``now``.

        Returns ``(start_time, finish_time)`` accounting for queueing behind
        earlier tasks (single-server FIFO discipline).
        """
        # service_time() inlined: this runs once per batch in a replay.  The
        # conditional is max(now, busy_until) with the same tie rule: the
        # first argument wins unless the second is greater.
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        duration = flops / self.flops_per_second
        finish = start + duration
        self.busy_until = finish
        self.completed_tasks += 1
        self.busy_time += duration
        return start, finish

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` seconds the resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)


@dataclass
class StorageResource:
    """Byte-budgeted storage tracking named allocations (cached models)."""

    name: str
    capacity_bytes: int
    _allocations: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {self.capacity_bytes}")

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self.used_bytes

    def can_fit(self, size_bytes: int) -> bool:
        """Whether an allocation of ``size_bytes`` would fit right now."""
        return size_bytes <= self.free_bytes

    def allocate(self, key: str, size_bytes: int) -> None:
        """Reserve ``size_bytes`` under ``key``; raises if it does not fit."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        if key in self._allocations:
            raise SchedulingError(f"allocation {key!r} already exists")
        if not self.can_fit(size_bytes):
            raise SchedulingError(
                f"storage {self.name!r} cannot fit {size_bytes} bytes (free={self.free_bytes})"
            )
        self._allocations[key] = size_bytes

    def release(self, key: str) -> int:
        """Free the allocation under ``key`` and return its size."""
        if key not in self._allocations:
            raise SchedulingError(f"allocation {key!r} does not exist")
        return self._allocations.pop(key)

    def holds(self, key: str) -> bool:
        """Whether an allocation named ``key`` exists."""
        return key in self._allocations

    def allocations(self) -> Dict[str, int]:
        """Copy of the current allocation map."""
        return dict(self._allocations)


#: Rough FLOPs required per model parameter for one forward pass of one token.
FLOPS_PER_PARAMETER_FORWARD = 2.0
#: Training (forward + backward) costs roughly 3x the forward pass.
FLOPS_PER_PARAMETER_TRAIN = 6.0


def encode_flops(num_parameters: int, num_tokens: int) -> float:
    """FLOPs to run a semantic encoder of ``num_parameters`` over ``num_tokens``."""
    return FLOPS_PER_PARAMETER_FORWARD * num_parameters * max(num_tokens, 1)


def decode_flops(num_parameters: int, num_tokens: int) -> float:
    """FLOPs to run a semantic decoder of ``num_parameters`` over ``num_tokens``."""
    return FLOPS_PER_PARAMETER_FORWARD * num_parameters * max(num_tokens, 1)


def train_step_flops(num_parameters: int, num_tokens: int) -> float:
    """FLOPs for one gradient step of a codec over ``num_tokens``."""
    return FLOPS_PER_PARAMETER_TRAIN * num_parameters * max(num_tokens, 1)
