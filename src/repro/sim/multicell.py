"""Multi-cell edge deployment: cells, backhaul topology, mobility, model catalogue.

A *cell* is one base-station site: an :class:`~repro.edge.server.EdgeServer`,
the :class:`~repro.caching.cache.SemanticModelCache` living in its storage, a
batch accumulator for the encode step, and a wireless downlink to its users.
Cells are joined in a ring over the backhaul and each has a WAN link to the
cloud model repository, so a cache miss can be served cooperatively from a
neighbour cell (cheap) before falling back to the cloud (expensive rebuild).

Users move: the :class:`MobilityModel` keeps each user's current cell and
hands them over to a random neighbour with a configurable probability per
request, charging a control-plane handover delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching.cache import SemanticModelCache
from repro.edge.network import LinkSpec, NetworkTopology
from repro.edge.server import EdgeServer
from repro.exceptions import ConfigurationError
from repro.sim.batching import BatchAccumulator, BatchingConfig
from repro.sim.metrics import CellStats
from repro.utils.rng import BlockDraws, SeedLike, new_rng

#: Node name of the cloud model repository in the backhaul topology.
CLOUD = "cloud"

#: Default link characteristics shared by the topology builder and
#: :class:`~repro.sim.simulator.SimulatorConfig` (single source of truth).
DEFAULT_BACKHAUL = LinkSpec(1e9, 0.002)
DEFAULT_WAN = LinkSpec(500e6, 0.02)


@dataclass(frozen=True)
class ModelSpec:
    """Size and establishment cost of one domain's semantic model."""

    domain: str
    size_bytes: int
    build_cost_s: float
    parameters: int = 4_000_000

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.build_cost_s < 0:
            raise ConfigurationError(f"build_cost_s must be non-negative, got {self.build_cost_s}")


def default_catalogue(
    domain_names: Sequence[str],
    seed: SeedLike = None,
    size_mb_range: Tuple[float, float] = (2.0, 12.0),
    build_cost_range_s: Tuple[float, float] = (0.5, 2.0),
) -> Dict[str, ModelSpec]:
    """Reproducible synthetic per-domain model sizes and rebuild costs."""
    rng = new_rng(seed)
    catalogue: Dict[str, ModelSpec] = {}
    for domain in domain_names:
        size_mb = float(rng.uniform(*size_mb_range))
        catalogue[domain] = ModelSpec(
            domain=domain,
            size_bytes=int(size_mb * 1024 * 1024),
            build_cost_s=float(rng.uniform(*build_cost_range_s)),
        )
    return catalogue


@dataclass(frozen=True)
class CellConfig:
    """Static description of one cell used to build the deployment."""

    name: str
    edge_flops_per_second: float = 200e9
    cache_capacity_bytes: int = 48 * 1024 * 1024
    cache_policy: str = "lru"
    downlink: LinkSpec = field(default_factory=lambda: LinkSpec(20e6, 0.005))


class Cell:
    """One live cell of the deployment (server + cache + batcher + stats)."""

    def __init__(self, config: CellConfig, batching: BatchingConfig) -> None:
        self.name = config.name
        self.server = EdgeServer(
            config.name,
            flops_per_second=config.edge_flops_per_second,
            storage_bytes=max(config.cache_capacity_bytes, 1),
        )
        self.cache = SemanticModelCache(config.cache_capacity_bytes, policy=config.cache_policy)
        self.batcher = BatchAccumulator(batching)
        self.downlink = config.downlink
        self.stats = CellStats(name=config.name)
        #: Requests waiting on an in-flight fetch, keyed by model key.
        self.inflight: Dict[str, List[object]] = {}
        #: Other cells ordered by increasing backhaul cost (set by the deployment).
        self.neighbor_order: List["Cell"] = []
        #: Whether the cell is currently down (fault injection); a failed cell
        #: serves no arrivals, admits nothing to its cache, and is skipped as a
        #: cooperative fetch source.
        self.failed: bool = False
        #: Bumped on every failure.  Model fetches capture it when they start
        #: and are discarded on completion if it moved — a fetch that was in
        #: flight across an outage must not admit a model into the cold
        #: post-recovery cache or serve a newer fetch's waiters.
        self.failure_epoch: int = 0


@dataclass(frozen=True)
class MobilityConfig:
    """User movement knobs."""

    handover_probability: float = 0.02
    handover_delay_s: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.handover_probability <= 1.0:
            raise ConfigurationError(
                f"handover_probability must be in [0, 1], got {self.handover_probability}"
            )
        if self.handover_delay_s < 0:
            raise ConfigurationError(
                f"handover_delay_s must be non-negative, got {self.handover_delay_s}"
            )


def _uniform_draws(generator: np.random.Generator, position: int, count: int) -> np.ndarray:
    """``count`` successive ``Generator.random()`` values."""
    return generator.random(count)


class MobilityModel:
    """Tracks each user's serving cell and samples random-neighbour handovers.

    ``cell_names`` must be in ring order (the order
    :func:`build_multicell_topology` uses), so a handover moves the user to
    one of the two topologically adjacent cells — not an arbitrary teleport
    across the deployment.

    The per-arrival ``random()`` draws are served from blocks
    (:class:`~repro.utils.rng.BlockDraws`), bit-identically to scalar draws,
    so the generator runs up to one block ahead between syncs.  It is synced
    back to the scalar position before every other draw (first-sight
    placement), on every read of :attr:`rng`, and by :meth:`sync`, which the
    simulator calls at the end of every replay — so a ``Generator`` passed as
    ``seed`` never reads ahead of the draws actually made.
    """

    def __init__(self, cell_names: Sequence[str], config: MobilityConfig, seed: SeedLike = None) -> None:
        if not cell_names:
            raise ConfigurationError("at least one cell is required")
        self.cell_names = list(cell_names)
        self.config = config
        self._draws = BlockDraws(new_rng(seed), _uniform_draws)
        self._user_cell: Dict[str, str] = {}
        self._ring_index = {name: index for index, name in enumerate(self.cell_names)}
        # Hot-path constants hoisted out of per-request attribute chases.
        self._num_cells = len(self.cell_names)
        self._probability = config.handover_probability
        self._random = self._draws.next

    @property
    def rng(self) -> np.random.Generator:
        """The mobility generator, synced to the scalar draw position."""
        return self._draws.sync()

    def sync(self) -> None:
        """Rewind the generator to where scalar draws would have left it."""
        self._draws.sync()

    def cell_of(self, user_id: str) -> str:
        """The user's current serving cell (assigned uniformly on first sight)."""
        cell = self._user_cell.get(user_id)
        if cell is None:
            cell = self.cell_names[int(self.rng.integers(len(self.cell_names)))]
            self._user_cell[user_id] = cell
        return cell

    def place(self, user_id: str, cell_name: str) -> None:
        """Pin ``user_id`` to ``cell_name`` without consuming the RNG stream.

        Used by failure-driven handovers: the simulator re-homes a user to a
        chosen alive cell, which must not disturb the random-handover draws of
        every later arrival.
        """
        if cell_name not in self._ring_index:
            raise ConfigurationError(f"unknown cell {cell_name!r}")
        self._user_cell[user_id] = cell_name

    def set_handover_probability(self, probability: float) -> None:
        """Change the per-arrival handover probability mid-run (mobility storms).

        Both the hot-path copy and the public ``config`` move, so readers of
        either always agree on the live value.
        """
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"handover_probability must be in [0, 1], got {probability}")
        self._probability = probability
        self.config = replace(self.config, handover_probability=probability)

    def maybe_move(self, user_id: str) -> Optional[Tuple[str, str]]:
        """Move the user to a random ring neighbour with the configured probability.

        Returns ``(old_cell, new_cell)`` when a handover happened, else ``None``.
        """
        return self.resolve(user_id)[1]

    def resolve(self, user_id: str) -> Tuple[str, Optional[Tuple[str, str]]]:
        """Place the user and sample a handover in one call.

        Returns ``(serving_cell, moved)`` where ``moved`` is the
        ``(old_cell, new_cell)`` pair when a handover happened, else ``None``.
        Consumes the RNG stream exactly like ``cell_of`` + ``maybe_move``
        (same draws, same order), but with a single user lookup — this is the
        per-arrival hot path of the multi-cell replay.
        """
        user_cell = self._user_cell
        current = user_cell.get(user_id)
        if current is None:
            current = self.cell_names[int(self.rng.integers(self._num_cells))]
            user_cell[user_id] = current
        if self._num_cells < 2 or self._random() >= self._probability:
            return current, None
        step = 1 if self._num_cells == 2 or self._random() < 0.5 else -1
        new = self.cell_names[(self._ring_index[current] + step) % self._num_cells]
        user_cell[user_id] = new
        return new, (current, new)


def build_multicell_topology(
    cell_names: Sequence[str],
    backhaul: Optional[LinkSpec] = None,
    wan: Optional[LinkSpec] = None,
) -> NetworkTopology:
    """Ring of cells over the backhaul, each with a WAN link to the cloud."""
    if not cell_names:
        raise ConfigurationError("at least one cell is required")
    backhaul = backhaul or DEFAULT_BACKHAUL
    wan = wan or DEFAULT_WAN
    topology = NetworkTopology()
    topology.add_node(CLOUD, kind="cloud")
    for name in cell_names:
        topology.add_node(name, kind="edge")
        topology.add_link(name, CLOUD, wan)
    if len(cell_names) > 1:
        for a, b in zip(cell_names, cell_names[1:]):
            topology.add_link(a, b, backhaul)
        if len(cell_names) > 2:
            topology.add_link(cell_names[-1], cell_names[0], backhaul)
    return topology


class PathCostCache:
    """Constant-time transfer costs over a fixed topology.

    :meth:`NetworkTopology.transfer_time` reruns shortest-path routing per
    call, which is far too slow for hundreds of thousands of fetches; this
    cache resolves each (source, destination) pair once and reduces a
    transfer to ``propagation + bytes * seconds_per_byte``.
    """

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology
        self._costs: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._transit: Dict[Tuple[str, str], frozenset] = {}

    def cost(self, source: str, destination: str) -> Tuple[float, float]:
        """``(propagation_s, seconds_per_byte)`` along the cached path."""
        key = (source, destination)
        cached = self._costs.get(key)
        if cached is None:
            propagation = 0.0
            per_byte = 0.0
            hops = self.topology.path(source, destination)
            for a, b in zip(hops[:-1], hops[1:]):
                spec = self.topology.link(a, b)
                propagation += spec.propagation_delay_s
                per_byte += 8.0 / spec.bandwidth_bps
            transit = frozenset(hops[1:-1])
            self._costs[key] = (propagation, per_byte)
            self._costs[(destination, source)] = (propagation, per_byte)
            self._transit[key] = transit
            self._transit[(destination, source)] = transit
            return propagation, per_byte
        return cached

    def transits(self, source: str, destination: str, node: str) -> bool:
        """Whether the cached path between the pair passes through ``node``."""
        if source == destination:
            return False
        self.cost(source, destination)
        return node in self._transit[(source, destination)]

    def transfer_time(self, source: str, destination: str, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` between two nodes."""
        if source == destination:
            return 0.0
        propagation, per_byte = self.cost(source, destination)
        return propagation + num_bytes * per_byte


def order_neighbors(cells: Sequence[Cell], costs: PathCostCache) -> None:
    """Populate each cell's ``neighbor_order`` by increasing backhaul latency.

    Cells whose shortest path runs *through the cloud node* (possible for
    distant pairs in a large ring, where two WAN hops beat many backhaul
    hops) are excluded: a transfer from them would not be a cooperative
    backhaul fetch at all, so those misses fall back to the cloud directly
    and are accounted as such.
    """
    reference_bytes = 1024 * 1024.0
    for cell in cells:
        others = [
            other
            for other in cells
            if other is not cell and not costs.transits(other.name, cell.name, CLOUD)
        ]
        others.sort(key=lambda other: costs.transfer_time(other.name, cell.name, reference_bytes))
        cell.neighbor_order = list(others)
