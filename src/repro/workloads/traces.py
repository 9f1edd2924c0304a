"""Request traces with skewed (Zipf) domain popularity for caching studies.

Experiment E7 sweeps cache size against hit rate; the shape of that curve
depends on how skewed domain/model popularity is, which this module controls.

Traces are stored **columnar**: one numpy structured array holding arrival
time, user index and domain index per request, plus the domain-name lookup
table.  Generating and shipping a multi-million-request trace is therefore
array work — :class:`TraceRequest` objects are materialized lazily, one at a
time, only where a consumer actually iterates (and the simulator backends
bypass even that, reading the columns directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, new_rng

#: Columnar storage of one request per row.  ``user``/``domain`` are indices
#: into the trace's label tables; per-domain token/FLOPs/byte costs stay
#: factored through those same indices (see ``MultiCellSimulator``), so the
#: trace never repeats per-request strings or cost scalars.
TRACE_DTYPE = np.dtype([("timestamp", "f8"), ("user", "i4"), ("domain", "i4")])


def zipf_probabilities(num_items: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf probabilities for ranks ``1..num_items``."""
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


@dataclass(frozen=True)
class TraceRequest:
    """One request in a model-access trace."""

    timestamp: float
    user_id: str
    domain: str
    kind: str = "message"


class RequestTrace:
    """An ordered request trace: columnar storage, object view on demand.

    Built by :meth:`from_columns` (every generator does): a structured array
    (:data:`TRACE_DTYPE`) plus the domain-name table.  It is the one input
    every simulator backend replays (:func:`require_trace`).

    Iteration yields :class:`TraceRequest` values, materialized lazily one at
    a time, so iterating never builds the whole object list.  Summary helpers
    (:meth:`domain_counts`, :meth:`users`) run vectorized on the columns.
    """

    __slots__ = ("_columns", "_domain_names")

    def __init__(self, columns: np.ndarray, domain_names: Sequence[str]) -> None:
        if columns.dtype != TRACE_DTYPE:
            raise ValueError(f"trace columns must have dtype {TRACE_DTYPE}, got {columns.dtype}")
        self._columns = columns
        self._domain_names = tuple(domain_names)

    @classmethod
    def from_columns(
        cls,
        timestamps: np.ndarray,
        user_indices: np.ndarray,
        domain_indices: np.ndarray,
        domain_names: Sequence[str],
    ) -> "RequestTrace":
        """Build a trace from parallel per-request arrays."""
        num_requests = len(timestamps)
        if len(user_indices) != num_requests or len(domain_indices) != num_requests:
            raise ValueError("timestamps, user_indices and domain_indices must have equal length")
        columns = np.empty(num_requests, dtype=TRACE_DTYPE)
        columns["timestamp"] = timestamps
        columns["user"] = user_indices
        columns["domain"] = domain_indices
        return cls(columns, domain_names)

    # ------------------------------------------------------------------ #
    # Columnar accessors (the simulator's zero-copy fast path)
    # ------------------------------------------------------------------ #
    @property
    def timestamps(self) -> np.ndarray:
        """Arrival timestamps as a float64 array."""
        return self._columns["timestamp"]

    @property
    def user_indices(self) -> np.ndarray:
        """Per-request user index (``user_<i>``) array."""
        return self._columns["user"]

    @property
    def domain_indices(self) -> np.ndarray:
        """Per-request index into :attr:`domain_names`."""
        return self._columns["domain"]

    @property
    def domain_names(self) -> tuple:
        """Domain lookup table."""
        return self._domain_names

    # ------------------------------------------------------------------ #
    # Object view
    # ------------------------------------------------------------------ #
    def _materialize(self, index: int) -> TraceRequest:
        row = self._columns[index]
        return TraceRequest(
            timestamp=float(row["timestamp"]),
            user_id=f"user_{int(row['user'])}",
            domain=self._domain_names[int(row["domain"])],
        )

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[TraceRequest]:
        return (self._materialize(index) for index in range(len(self._columns)))

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def domains(self) -> List[str]:
        """Domain of every request, in order."""
        names = np.asarray(self._domain_names, dtype=object)
        return list(names[self._columns["domain"]])

    def domain_counts(self) -> Dict[str, int]:
        """Number of requests per domain, keyed in first-seen order."""
        indices = self._columns["domain"]
        if len(indices) == 0:
            return {}
        present, first_seen = np.unique(indices, return_index=True)
        counts = np.bincount(indices, minlength=len(self._domain_names))
        order = np.argsort(first_seen, kind="stable")
        return {self._domain_names[int(present[i])]: int(counts[present[i]]) for i in order}

    def users(self) -> List[str]:
        """Distinct users appearing in the trace, in first-seen order."""
        indices = self._columns["user"]
        if len(indices) == 0:
            return []
        present, first_seen = np.unique(indices, return_index=True)
        order = np.argsort(first_seen, kind="stable")
        return [f"user_{int(present[i])}" for i in order]


def require_trace(trace: object) -> None:
    """Raise ``TypeError`` unless ``trace`` is a :class:`RequestTrace`.

    The input check of every backend's ``replay``: it runs before any event
    or random draw, so a rejected call leaves the simulator untouched.
    """
    if not isinstance(trace, RequestTrace):
        raise TypeError(
            f"replay takes a RequestTrace, got {type(trace).__name__}; "
            "build one with RequestTrace.from_columns"
        )


def assemble_trace(
    timestamps: np.ndarray,
    domain_names: Sequence[str],
    probabilities: np.ndarray,
    num_users: int,
    rng: np.random.Generator,
) -> RequestTrace:
    """Attach Zipf-sampled domains and uniform users to arrival ``timestamps``.

    Shared tail of every trace generator: the arrival-time process varies
    (homogeneous Poisson, diurnal, ...), the domain/user sampling does not.
    The random draws are identical to the historical object-based assembler
    (``choice`` then ``integers``), so seeded traces are bit-compatible; only
    the storage changed from one object per request to three arrays.
    """
    num_requests = len(timestamps)
    domain_indices = rng.choice(len(domain_names), size=num_requests, p=probabilities)
    user_indices = rng.integers(0, num_users, size=num_requests)
    return RequestTrace.from_columns(
        np.asarray(timestamps, dtype=np.float64), user_indices, domain_indices, domain_names
    )


class ZipfTraceGenerator:
    """Generates request traces whose domain popularity follows a Zipf law.

    Parameters
    ----------
    domain_names:
        Candidate domains, ordered from most to least popular.
    exponent:
        Zipf skew; 0 gives uniform popularity, larger values concentrate
        requests on the first domains.
    arrival_rate:
        Mean number of requests per simulated second (Poisson arrivals).
    """

    def __init__(
        self,
        domain_names: Sequence[str],
        num_users: int = 10,
        exponent: float = 1.0,
        arrival_rate: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        if not domain_names:
            raise ValueError("domain_names must not be empty")
        if num_users <= 0:
            raise ValueError(f"num_users must be positive, got {num_users}")
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
        self.domain_names = list(domain_names)
        self.num_users = num_users
        self.exponent = exponent
        self.arrival_rate = arrival_rate
        self.rng = new_rng(seed)
        self._probabilities = zipf_probabilities(len(self.domain_names), exponent)

    @property
    def probabilities(self) -> np.ndarray:
        """Per-domain request probability used by the generator."""
        return self._probabilities.copy()

    def generate(self, num_requests: int) -> RequestTrace:
        """Sample ``num_requests`` Poisson-arriving requests."""
        if num_requests < 0:
            raise ValueError(f"num_requests must be non-negative, got {num_requests}")
        timestamps = np.cumsum(self.rng.exponential(1.0 / self.arrival_rate, size=num_requests))
        return assemble_trace(timestamps, self.domain_names, self._probabilities, self.num_users, self.rng)


@dataclass
class TopicDriftTrace:
    """A conversation trace with latent topic segments for selection tests.

    ``domains[i]`` is the true domain of turn ``i``; segments have
    geometrically-distributed lengths so the recent context is informative
    about the current domain.
    """

    domains: List[str]
    segment_boundaries: List[int]

    def __len__(self) -> int:
        return len(self.domains)


def generate_topic_drift_trace(
    domain_names: Sequence[str],
    num_turns: int,
    persistence: float = 0.85,
    seed: SeedLike = None,
) -> TopicDriftTrace:
    """Generate a domain-per-turn trace where topics persist across turns."""
    if not domain_names:
        raise ValueError("domain_names must not be empty")
    if not 0.0 <= persistence < 1.0:
        raise ValueError(f"persistence must be in [0, 1), got {persistence}")
    rng = new_rng(seed)
    domains: List[str] = []
    boundaries: List[int] = []
    current: Optional[str] = None
    for turn in range(num_turns):
        if current is None or rng.random() >= persistence:
            choices = [name for name in domain_names if name != current] or list(domain_names)
            current = choices[int(rng.integers(len(choices)))]
            boundaries.append(turn)
        domains.append(current)
    return TopicDriftTrace(domains=domains, segment_boundaries=boundaries)
