"""Deterministic random-number-generation helpers.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralising the conversion here keeps
experiments reproducible: a single top-level seed deterministically derives
the seeds of every sub-component through :func:`spawn_rng`.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Values :class:`BlockDraws` draws per generator call, once grown.
BLOCK_SIZE = 256
#: Size of :class:`BlockDraws`' first block after a sync; each refill doubles
#: it up to :data:`BLOCK_SIZE`.
FIRST_BLOCK_SIZE = 16


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` seed, or an existing
        generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, count: int = 1) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Child streams are statistically independent of each other and of the
    parent, which lets one experiment seed drive many components without
    accidental correlation.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


class BlockDraws:
    """Serves one generator's scalar draws from blocks drawn in one call each.

    A scalar numpy draw costs about 1 µs of call overhead (3 µs for
    ``integers``), which dominates a per-event hot path.  This helper draws
    up to :data:`BLOCK_SIZE` values at once and hands them out one at a time,
    bit-identically: ``draw(generator, position, count)`` must return what
    ``count`` successive scalar draws would, starting at stream position
    ``position`` (the constructor's ``position`` plus the values served so
    far), and leave the generator where they would.  ``Generator.random(
    count)`` does, and so does ``Generator.integers(0, highs)`` with an
    array of per-draw bounds.

    The generator runs up to one block ahead of the values served.
    :meth:`sync` rewinds it to the exact position the scalar draws would have
    left it at and drops the rest of the block; call it before anything else
    draws from or reads the generator.  A sync wastes the dropped values and
    costs a redraw of the consumed ones, so the first block after a sync (or
    construction) holds :data:`FIRST_BLOCK_SIZE` values and each refill
    doubles the size up to :data:`BLOCK_SIZE`: a caller that syncs often
    (the mobility model, at every first-sight user) draws small blocks, one
    that rarely syncs soon draws full ones.  The values served and the
    generator's synced state do not depend on the block sizes.
    """

    def __init__(
        self,
        generator: np.random.Generator,
        draw: Callable[[np.random.Generator, int, int], np.ndarray],
        position: int = 0,
    ) -> None:
        self.generator = generator
        self._draw = draw
        #: Stream position of the current block's first value.
        self._position = position
        #: Generator state from before the current block was drawn.
        self._state: Optional[dict] = None
        self._block: list = []
        self._cursor = iter(self._block)
        self._next_value = self._cursor.__next__
        #: Values the next refill draws.
        self._size = FIRST_BLOCK_SIZE

    def next(self):
        """The next value, exactly as the next scalar draw would return it."""
        try:
            return self._next_value()
        except StopIteration:
            return self._refill()

    def _refill(self):
        generator = self.generator
        position = self._position + len(self._block)
        state = generator.bit_generator.state
        size = self._size
        block = self._draw(generator, position, size).tolist()
        self._size = min(2 * size, BLOCK_SIZE)
        cursor = iter(block)
        self._position, self._state, self._block, self._cursor = position, state, block, cursor
        self._next_value = cursor.__next__
        return self._next_value()

    def sync(self) -> np.random.Generator:
        """Rewind the generator to the scalar position; returns the generator."""
        remaining = operator.length_hint(self._cursor)
        consumed = len(self._block) - remaining
        if remaining:
            self.generator.bit_generator.state = self._state
            if consumed:
                self._draw(self.generator, self._position, consumed)
        self._position += consumed
        self._block = []
        self._cursor = iter(self._block)
        self._next_value = self._cursor.__next__
        self._size = FIRST_BLOCK_SIZE
        return self.generator

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values as one array, drawn in a single call."""
        generator = self.sync()
        values = self._draw(generator, self._position, count)
        self._position += count
        return values


class RngMixin:
    """Mixin giving a class a lazily-created, seedable ``self.rng``."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng: Optional[np.random.Generator] = None
        self._seed = seed

    @property
    def rng(self) -> np.random.Generator:
        """The component's random generator, created on first access."""
        if self._rng is None:
            self._rng = new_rng(self._seed)
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Replace the generator with one derived from ``seed``."""
        self._seed = seed
        self._rng = new_rng(seed)
