"""The ``SimBackend`` API: one simulator surface, many execution strategies.

Everything above the simulator — scenario timelines (:mod:`repro.scenarios`),
the e-experiments (:mod:`repro.experiments`), both CLIs — drives a replay
through the small protocol defined here instead of reaching into
:class:`~repro.sim.simulator.MultiCellSimulator` directly.  A backend is
anything that can

* **replay** a request trace and hand back a
  :class:`~repro.sim.metrics.SimulationReport`,
* expose **per-cell state** (the ``cells`` mapping of live
  :class:`~repro.sim.multicell.Cell` objects, or a merged equivalent),
* apply the **fault vocabulary** (``fail_cell``, ``wipe_cell_cache``,
  ``resize_cell_cache``, ``degrade_downlink``, …) at scheduled simulation
  times via :meth:`SimBackend.schedule_calls`,
* invoke the **``on_request_end``** hook once per request at its terminal
  event (completion or drop), and
* **assemble the report** from whatever it executed.

Two backends ship today:

``serial``
    :class:`~repro.sim.simulator.MultiCellSimulator` itself — one process,
    one event heap, the bit-identity reference every committed result table
    pins.

``sharded``
    :class:`~repro.sim.sharded.ShardedSimulator` — cells partitioned across
    fork-pool workers advancing in conservative time windows (see
    :mod:`repro.sim.sharded`).  Deterministic under its own semantics and
    pinned by its own golden tables; statistically equivalent to serial, not
    byte-identical.

``vectorized``
    :class:`~repro.sim.vectorized.VectorizedSimulator` — the serial
    semantics replayed through a numpy cohort kernel (see
    :mod:`repro.sim.vectorized`).  Bit-identical to serial: every fresh
    (deployment, config, trace, timeline) signature is cross-checked against
    the serial engine, and ineligible shapes (resilience policies, cell
    outage timelines) silently take the serial path.

Backend selection is spelled identically everywhere: a ``--backend`` CLI
flag on both entry points, overridable by the ``REPRO_BACKEND`` environment
variable (explicit flags beat the environment).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Protocol, Sequence, runtime_checkable

from repro.exceptions import ConfigurationError
from repro.sim.metrics import SimulationReport
from repro.sim.multicell import Cell, CellConfig, ModelSpec
from repro.sim.request import Request

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV = "REPRO_BACKEND"

#: Name of the default (reference) backend.
DEFAULT_BACKEND = "serial"


@runtime_checkable
class SimBackend(Protocol):
    """Structural interface every simulator backend satisfies.

    :class:`~repro.sim.simulator.MultiCellSimulator` is the reference
    implementation; :class:`~repro.sim.sharded.ShardedSimulator` the first
    alternative.  The protocol is ``runtime_checkable`` so tests can assert
    conformance with ``isinstance``.
    """

    #: Registry name ("serial", "sharded", ...).
    backend_name: str

    #: Per-cell live state, keyed by cell name.
    cells: Dict[str, Cell]

    #: Called once per request at its terminal event (completion or drop).
    on_request_end: Optional[Callable[[Request], None]]

    def replay(self, trace) -> SimulationReport:
        """Replay a :class:`~repro.workloads.traces.RequestTrace` to completion.

        Returns the run's report; anything but a ``RequestTrace`` raises
        ``TypeError`` before any event runs.
        """
        ...

    def schedule_calls(self, time_s: float, calls: Sequence[tuple], label: str = "") -> None:
        """Schedule ordered ``(method_name, args)`` fault calls at ``time_s``."""
        ...

    def report(self, wall_clock_s: float) -> SimulationReport:
        """Assemble the report for everything run so far."""
        ...

    # Fault vocabulary -------------------------------------------------- #
    def fail_cell(self, name: str) -> None: ...

    def recover_cell(self, name: str) -> None: ...

    def wipe_cell_cache(self, name: str) -> int: ...

    def resize_cell_cache(self, name: str, capacity_bytes: int) -> None: ...

    def degrade_downlink(self, name: str, factor: float) -> None: ...

    def restore_downlink(self, name: str) -> None: ...

    def set_handover_probability(self, probability: float) -> None: ...

    def alive_cells(self) -> list: ...

    # Resilience -------------------------------------------------------- #
    def configure_resilience(self, policy, seed: int = 0) -> None:
        """Install a request-level :class:`~repro.sim.resilience.ResiliencePolicy`.

        Must be called before :meth:`replay`; ``None`` (or an all-off policy)
        restores the exact pre-resilience behaviour.  Every backend executes
        the same pure-data policy — the sharded backend ships it to each
        shard so both engines make identical decisions.
        """
        ...

    # Placement --------------------------------------------------------- #
    def configure_placement(self, spec) -> None:
        """Install a global :class:`~repro.sim.placement.PlacementSpec`.

        Must be called before :meth:`replay`; ``None`` restores the exact
        unplaced behaviour.  The serial engine executes placement natively;
        the sharded and vectorized backends fall back to the serial path with
        a recorded ``fallback_reason`` (global routing contradicts their
        shard-local / cohort-batched structure).
        """
        ...

    def placement_summary(self) -> Optional[dict]:
        """Placement counters of the last replay (``None`` when unplaced)."""
        ...


#: A backend factory: ``(cells, catalogue, config, seed, **options) -> SimBackend``.
BackendFactory = Callable[..., SimBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend factory under ``name``."""
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> list:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def resolve_backend_name(requested: Optional[str] = None) -> str:
    """The backend to use: explicit request > ``REPRO_BACKEND`` > ``serial``.

    An explicit CLI flag always wins; the environment variable only fills in
    when the caller passed ``None`` (flag left at its default).
    """
    if requested:
        return requested
    return os.environ.get(BACKEND_ENV, "").strip() or DEFAULT_BACKEND


def create_backend(
    name: Optional[str],
    cells: Sequence[CellConfig],
    catalogue: Dict[str, ModelSpec],
    config=None,
    seed=None,
    **options,
) -> SimBackend:
    """Instantiate the backend ``name`` resolves to over the given deployment.

    ``options`` are backend-specific knobs (e.g. ``shards=4`` for the sharded
    backend); factories reject options they do not understand.
    """
    resolved = resolve_backend_name(name)
    factory = _REGISTRY.get(resolved)
    if factory is None:
        raise ConfigurationError(
            f"unknown simulator backend {resolved!r}; available: {', '.join(available_backends())}"
        )
    return factory(cells, catalogue, config=config, seed=seed, **options)


def _serial_factory(cells, catalogue, config=None, seed=None, **options) -> SimBackend:
    from repro.sim.simulator import MultiCellSimulator

    # The serial engine has no backend-specific knobs; `shards` and
    # `worker_timeout` are accepted (and ignored / must be 1-or-unset) so
    # callers can pass a uniform option set whatever backend is selected.
    shards = options.pop("shards", None)
    options.pop("worker_timeout", None)
    if options:
        raise ConfigurationError(f"serial backend got unknown options: {sorted(options)}")
    if shards not in (None, 1):
        raise ConfigurationError(f"serial backend is single-process; got shards={shards}")
    return MultiCellSimulator(cells, catalogue, config=config, seed=seed)


def _sharded_factory(cells, catalogue, config=None, seed=None, **options) -> SimBackend:
    from repro.sim.sharded import ShardedConfig, ShardedSimulator

    shards = options.pop("shards", None)
    sharded_config = options.pop("sharded_config", None)
    worker_timeout = options.pop("worker_timeout", None)
    if options:
        raise ConfigurationError(f"sharded backend got unknown options: {sorted(options)}")
    if sharded_config is None:
        kwargs = {} if shards is None else {"num_shards": int(shards)}
        if worker_timeout is not None:
            kwargs["worker_timeout_s"] = float(worker_timeout)
        sharded_config = ShardedConfig(**kwargs)
    elif shards is not None or worker_timeout is not None:
        raise ConfigurationError(
            "pass either sharded_config or shards/worker_timeout, not both"
        )
    return ShardedSimulator(cells, catalogue, config=config, seed=seed, sharded=sharded_config)


def _vectorized_factory(cells, catalogue, config=None, seed=None, **options) -> SimBackend:
    from repro.sim.vectorized import VectorizedSimulator

    # Accept the uniform option set (see _serial_factory) plus the kernel's
    # own `cross_check` knob: True (default) validates every fresh signature
    # against the serial engine; False trusts the kernel (differential tests
    # use this so the compared result genuinely comes from the kernel).
    shards = options.pop("shards", None)
    options.pop("worker_timeout", None)
    cross_check = options.pop("cross_check", True)
    if options:
        raise ConfigurationError(f"vectorized backend got unknown options: {sorted(options)}")
    if shards not in (None, 1):
        raise ConfigurationError(f"vectorized backend is single-process; got shards={shards}")
    return VectorizedSimulator(
        cells, catalogue, config=config, seed=seed, cross_check=cross_check
    )


register_backend("serial", _serial_factory)
register_backend("sharded", _sharded_factory)
register_backend("vectorized", _vectorized_factory)
