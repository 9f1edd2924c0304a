"""Block-drawn randomness is bit-identical to one scalar draw per use.

:class:`~repro.sim.metrics.LatencyRecorder` draws its reservoir slots and
:class:`~repro.sim.multicell.MobilityModel` its handover coins in blocks
(:class:`~repro.utils.rng.BlockDraws`).  Each is checked here against a
scalar reference kept in this module — the draw-per-use algorithm the block
paths replace — on samples, counters, the bits of the running sum, and the
generator's end state.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import LatencyRecorder
from repro.sim.multicell import CellConfig, MobilityConfig, MobilityModel, default_catalogue
from repro.sim.simulator import MultiCellSimulator
from repro.sim.vectorized import VectorizedSimulator
from repro.utils.rng import BLOCK_SIZE, FIRST_BLOCK_SIZE, BlockDraws
from repro.workloads import ArrivalTraceGenerator

DOMAINS = [f"domain_{index}" for index in range(6)]


class ScalarRecorder:
    """Reference reservoir: one scalar ``integers(0, count)`` draw per overflow.

    Records append until the reservoir is full, then replace by Vitter's
    algorithm R; an absorb keeps the evenly spaced down-sample of the union.
    """

    def __init__(self, reservoir_size: int, seed: int) -> None:
        self.capacity = reservoir_size
        self.samples = np.empty(reservoir_size, dtype=np.float64)
        self.retained = 0
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.seed = seed
        self.rng = None

    def record(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if self.retained < self.capacity:
            self.samples[self.retained] = value
            self.retained += 1
            return
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        slot = int(self.rng.integers(0, self.count))
        if slot < self.capacity:
            self.samples[slot] = value

    def values(self) -> np.ndarray:
        return self.samples[: self.retained]

    def absorb(self, other: "ScalarRecorder") -> None:
        if other.count == 0:
            return
        union = np.concatenate([self.values(), other.values()])
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        self.count += other.count
        if len(union) > self.capacity:
            union = union[np.linspace(0, len(union) - 1, self.capacity).round().astype(np.int64)]
        self.samples[: len(union)] = union
        self.retained = len(union)


def assert_same_recorder(block: LatencyRecorder, reference: ScalarRecorder) -> None:
    assert block._values().tobytes() == reference.values().tobytes()
    assert block.retained == reference.retained
    assert block.exact == (reference.count == reference.retained)
    assert len(block) == reference.count
    assert block._sum.hex() == reference.sum.hex()
    assert block._max.hex() == reference.max.hex()


def assert_same_generator(block: LatencyRecorder, reference: ScalarRecorder) -> None:
    if block._slots is not None:
        block._slots.sync()
    if reference.rng is None:
        assert block._rng is None
    else:
        assert block._rng.bit_generator.state == reference.rng.bit_generator.state


def fill(cls, capacity: int, seed: int, values) -> object:
    recorder = cls(capacity, seed)
    for value in values:
        recorder.record(value)
    return recorder


def apply(block: LatencyRecorder, reference: ScalarRecorder, kind: str, payload) -> None:
    if kind == "record":
        block.record(payload)
        reference.record(payload)
    elif kind == "record_many":
        block.record_many(np.asarray(payload, dtype=np.float64))
        for value in payload:
            reference.record(value)
    else:
        capacity, seed, values = payload
        block.absorb(fill(LatencyRecorder, capacity, seed, values))
        reference.absorb(fill(ScalarRecorder, capacity, seed, values))


latencies = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
operations = st.one_of(
    st.tuples(st.just("record"), latencies),
    st.tuples(st.just("record_many"), st.lists(latencies, max_size=300)),
    st.tuples(
        st.just("absorb"),
        st.tuples(st.integers(1, 64), st.integers(0, 3), st.lists(latencies, max_size=150)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(0, 3), st.lists(operations, max_size=12))
def test_recorder_matches_scalar_reference(capacity, seed, steps):
    """record / record_many / absorb interleavings across the threshold."""
    block = LatencyRecorder(reservoir_size=capacity, seed=seed)
    reference = ScalarRecorder(capacity, seed)
    for kind, payload in steps:
        apply(block, reference, kind, payload)
        assert_same_recorder(block, reference)
    assert_same_generator(block, reference)


@pytest.mark.parametrize("capacity", [1, 7, 64])
def test_recorder_matches_reference_across_many_blocks(capacity):
    """Thousands of overflow draws: partial blocks, refills and syncs interleave."""
    rng = np.random.default_rng(capacity)
    block = LatencyRecorder(reservoir_size=capacity, seed=5)
    reference = ScalarRecorder(capacity, 5)
    for step in range(400):
        kind = ("record", "record", "record_many", "absorb")[int(rng.integers(4))]
        if kind == "record":
            payload = float(rng.random())
        elif kind == "record_many":
            payload = rng.random(int(rng.integers(0, 120))).tolist()
        else:
            payload = (int(rng.integers(1, 64)), step % 3, rng.random(int(rng.integers(0, 40))).tolist())
        apply(block, reference, kind, payload)
    assert len(block) > 5000
    assert_same_recorder(block, reference)
    assert_same_generator(block, reference)


def test_record_after_absorb_keeps_the_new_sample():
    """Samples recorded after a merge count toward the percentiles."""
    other = LatencyRecorder()
    for value in (1.0, 2.0, 3.0):
        other.record(value)
    merged = LatencyRecorder()
    merged.absorb(other)
    merged.record(100.0)
    assert len(merged) == 4 and merged.retained == 4 and merged.exact
    assert merged.summary()["p95_s"] > 3.0
    assert merged.summary()["max_s"] == 100.0
    assert merged.summary()["mean_s"] == 26.5


def test_recorder_pickles_mid_block():
    """A pickled recorder (a sharded shard's) continues the same draws."""
    values = np.random.default_rng(2).random(900)
    whole = LatencyRecorder(reservoir_size=16, seed=4)
    for value in values.tolist():
        whole.record(value)
    split = LatencyRecorder(reservoir_size=16, seed=4)
    for value in values[:300].tolist():
        split.record(value)
    split = pickle.loads(pickle.dumps(split))
    split = copy.deepcopy(split)
    for value in values[300:].tolist():
        split.record(value)
    assert split._values().tobytes() == whole._values().tobytes()


def test_block_draws_take_and_next_interleave_like_scalar_draws():
    generator = np.random.default_rng(9)
    draws = BlockDraws(np.random.default_rng(9), lambda g, position, count: g.random(count))
    served = []
    for size in (3, 0, 300, 5, 700, 1, 256):
        served.extend(draws.next() for _ in range(size))
        served.extend(draws.take(size).tolist())
    assert served == [generator.random() for _ in range(len(served))]
    assert draws.sync().bit_generator.state == generator.bit_generator.state


def test_blocks_grow_after_a_sync_without_changing_the_values():
    """Refills double from FIRST_BLOCK_SIZE to BLOCK_SIZE; a sync restarts them."""
    sizes = []

    def draw(generator, position, count):
        sizes.append(count)
        return generator.random(count)

    reference = np.random.default_rng(11)
    draws = BlockDraws(np.random.default_rng(11), draw)
    served = [draws.next() for _ in range(2 * BLOCK_SIZE)]
    grown = [FIRST_BLOCK_SIZE]
    while grown[-1] < BLOCK_SIZE:
        grown.append(min(2 * grown[-1], BLOCK_SIZE))
    assert sizes[: len(grown)] == grown and set(sizes[len(grown) :]) == {BLOCK_SIZE}
    sizes.clear()
    draws.sync()  # mid-block: restores the saved state and redraws the consumed values
    served.append(draws.next())
    assert sizes[-1] == FIRST_BLOCK_SIZE
    assert served == [reference.random() for _ in range(len(served))]
    assert draws.sync().bit_generator.state == reference.bit_generator.state


def test_mobility_pickles_mid_block_while_blocks_grow():
    """A pickled mobility model continues the same coins after a sync."""
    names = [f"cell_{index}" for index in range(3)]
    users = [f"user_{index % 7}" for index in range(400)]
    whole = MobilityModel(names, MobilityConfig(handover_probability=0.3), seed=21)
    expected = [whole.resolve(user) for user in users]
    split = MobilityModel(names, MobilityConfig(handover_probability=0.3), seed=21)
    # The first sight of user_6 syncs at arrival 6; 20 arrivals later the
    # model sits inside its second, still growing block.
    served = [split.resolve(user) for user in users[:27]]
    split = copy.deepcopy(pickle.loads(pickle.dumps(split)))
    served.extend(split.resolve(user) for user in users[27:])
    assert served == expected
    assert split.rng.bit_generator.state == whole.rng.bit_generator.state


# ---------------------------------------------------------------------- #
# Mobility
# ---------------------------------------------------------------------- #
class ScalarMobility:
    """Reference mobility model: one scalar generator call per draw."""

    def __init__(self, cell_names, probability: float, seed) -> None:
        self.cell_names = list(cell_names)
        self.probability = probability
        self.rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
        self.user_cell = {}

    def cell_of(self, user: str) -> str:
        if user not in self.user_cell:
            self.user_cell[user] = self.cell_names[int(self.rng.integers(len(self.cell_names)))]
        return self.user_cell[user]

    def resolve(self, user: str):
        count = len(self.cell_names)
        current = self.cell_of(user)
        if count < 2 or self.rng.random() >= self.probability:
            return current, None
        step = 1 if count == 2 or self.rng.random() < 0.5 else -1
        new = self.cell_names[(self.cell_names.index(current) + step) % count]
        self.user_cell[user] = new
        return new, (current, new)


@pytest.mark.parametrize("num_cells", [1, 2, 3, 5])
def test_mobility_matches_scalar_reference(num_cells):
    """resolve / cell_of / place / probability changes / rng reads, interleaved."""
    names = [f"cell_{index}" for index in range(num_cells)]
    model = MobilityModel(names, MobilityConfig(handover_probability=0.3), seed=13)
    reference = ScalarMobility(names, 0.3, 13)
    ops = np.random.default_rng(num_cells)
    for _ in range(6000):
        kind = int(ops.integers(100))
        user = f"user_{int(ops.integers(200))}"
        if kind < 80:
            assert model.resolve(user) == reference.resolve(user)
        elif kind < 88:
            assert model.cell_of(user) == reference.cell_of(user)
        elif kind < 93:
            cell = names[int(ops.integers(num_cells))]
            model.place(user, cell)
            reference.user_cell[user] = cell
        elif kind < 96:
            probability = (0.0, 0.3, 0.9, 1.0)[int(ops.integers(4))]
            model.set_handover_probability(probability)
            reference.probability = probability
        else:
            assert model.rng.random() == reference.rng.random()
    assert model._user_cell == reference.user_cell
    assert model.rng.bit_generator.state == reference.rng.bit_generator.state


def scalar_position(seed: int, users, num_cells: int, probability: float) -> dict:
    """Generator state after scalar mobility draws for ``users`` in arrival order."""
    reference = ScalarMobility([f"cell_{index}" for index in range(num_cells)], probability, seed)
    for user in users:
        reference.resolve(user)
    return reference.rng.bit_generator.state


def generator_replay(backend, trace, hook=None):
    generator = np.random.default_rng(7)
    cells = [CellConfig(name=f"cell_{index}") for index in range(3)]
    catalogue = default_catalogue(DOMAINS, seed=0)
    if backend == "vectorized":
        simulator = VectorizedSimulator(cells, catalogue, seed=generator, cross_check=False)
    else:
        simulator = MultiCellSimulator(cells, catalogue, seed=generator)
    simulator.on_request_end = hook
    return generator, simulator


def replay_or_submit(simulator, trace, columnar):
    """Replay the columnar trace, or submit its requests one by one and run()."""
    if columnar:
        return simulator.replay(trace)
    for request in trace:
        simulator.submit(request.timestamp, request.user_id, request.domain)
    return simulator.run()


@pytest.mark.parametrize(
    "backend, columnar", [("serial", True), ("serial", False), ("vectorized", True)]
)
def test_generator_seed_sits_at_scalar_position_after_replay(backend, columnar):
    trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(2000)
    generator, simulator = generator_replay(backend, trace)
    replay_or_submit(simulator, trace, columnar)
    users = [request.user_id for request in trace]
    assert generator.bit_generator.state == scalar_position(7, users, 3, 0.02)


@pytest.mark.parametrize("columnar", [True, False])
def test_generator_seed_sits_at_scalar_position_after_a_raising_replay(columnar):
    trace = ArrivalTraceGenerator(DOMAINS, num_users=40, rate=500.0, seed=3).generate(2000)
    calls = 0

    def hook(request):
        nonlocal calls
        calls += 1
        if calls == 700:
            raise RuntimeError("observer failed")

    generator, simulator = generator_replay("serial", trace, hook)
    with pytest.raises(RuntimeError, match="observer failed"):
        replay_or_submit(simulator, trace, columnar)
    if columnar:
        _, delivered = simulator._tail
    else:
        delivered = sum(1 for request in simulator.requests if request.cell)
    assert 700 <= delivered < len(trace)
    users = [request.user_id for request in trace][:delivered]
    assert generator.bit_generator.state == scalar_position(7, users, 3, 0.02)
