"""Property-tested search over adversarial workloads.

The curated catalog pins correctness where a human thought to look; this
module generates the scenarios nobody wrote.  A hypothesis strategy samples
random-but-valid :class:`~repro.scenarios.spec.ScenarioSpec`s — phase stacks
× fault timelines × topologies × cache policies/sizes × resilience policies
(deadlines, retries, hedging, breakers, shedding; ``None`` half the time so
the legacy path stays covered) — and :func:`check_case` drives each through
three invariant layers:

* **engine invariants** — an :class:`~repro.sim.invariants.InvariantChecker`
  chained through ``on_request_end`` (terminal-event sanity, exact request
  conservation) plus the post-replay structural audit and the folded
  fault-timeline end-state check (pin safety, cache accounting, dead cells
  hold nothing, downlink degradation never compounds);
* **determinism invariants** — the same spec + seed replayed twice must be
  byte-identical (compared on the serialized summary + per-phase rows), and
  ``--scale`` moves the request count exactly as specified without moving
  the fault timeline;
* **differential backend invariants** — serial vs sharded at several shard
  counts: conservation stays exact, headline metrics stay within the
  divergence taxonomy of ``docs/architecture.md`` (loosened for the small
  traces fuzz cases use); plus serial vs vectorized, where the contract is
  strict **byte-identity** — the numpy cohort kernel (or its silent serial
  fallback for ineligible shapes) must serialize to exactly the serial
  engine's summary and per-phase rows.

Every run is replayable from two integers: the harness seed (workload
synthesis + deployment, through the usual named SeedTree paths) and the
hypothesis generation seed derived from it (``SeedTree(seed).child("fuzz")
.seed("hypothesis")``).  Failing specs are shrunk by hypothesis and
serialized to the regression corpus (``tests/scenarios/regressions/*.json``),
where ``tests/scenarios/test_regressions.py`` replays them as ordinary
tier-1 tests forever after.

This module imports :mod:`hypothesis` (a test dependency) at import time;
the CLI imports it lazily and reports a friendly error when it is missing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hypothesis.strategies as st
from hypothesis import HealthCheck
from hypothesis import seed as hypothesis_seed
from hypothesis import given, settings
from hypothesis.reporting import current_reporter, with_reporter

from repro.caching.policies import available_policies
from repro.runtime import SeedTree
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import (
    CACHE_RESIZE,
    CACHE_WIPE,
    FAULT_KINDS,
    LINK_DEGRADE,
    LINK_RESTORE,
    MOBILITY_SET,
    FaultEvent,
    ScenarioSpec,
    WorkloadPhase,
)
from repro.sim.invariants import (
    InvariantChecker,
    InvariantViolation,
    audit_fault_state,
    audit_simulator,
    expected_fault_state,
)
from repro.sim.resilience import ResiliencePolicy
from repro.utils.serialization import to_json

#: Corpus file format tag (bump on incompatible layout changes).
REGRESSION_FORMAT = "repro-scenario-regression-v1"

#: Shard counts the differential layer exercises (clamped to the cell count).
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (2, 3)

#: Divergence bounds for serial-vs-sharded headline metrics are
#: **variance-calibrated**: per docs/architecture.md, the two backends draw
#: the deployment layout (user home cells, handover streams) independently,
#: so their headline metrics differ by the metric's own cross-seed variance —
#: which for adversarially tiny specs (12 users, a 2-model FIFO cache, one
#: hot Zipf domain) legitimately spans half the [0, 1] range.  Any flat
#: tolerance is therefore either vacuous or flaky under adversarial search.
#: Instead :func:`check_case` replays the spec serially at
#: ``DIFFERENTIAL_CALIBRATION_SEEDS`` extra layout seeds and requires each
#: sharded metric to land inside the observed serial envelope widened by a
#: margin: a fraction of the observed spread (``SPREAD_MARGIN``), plus an
#: absolute floor, plus — for the hit ratio — the per-user quantum
#: (one user's stream landing elsewhere moves the ratio by ``~1/num_users``).
#: Conservation is never a tolerance — it is checked exactly.
DIFFERENTIAL_CALIBRATION_SEEDS = 2
SPREAD_MARGIN = 0.75
HIT_RATIO_FLOOR = 0.1
HIT_RATIO_USER_QUANTA = 3.0
MEAN_ABS_FLOOR_MS = 30.0
MEAN_REL_MARGIN = 0.3
P95_ABS_FLOOR_MS = 60.0
P95_REL_MARGIN = 0.3
#: Latency margin for fetch-wait-bound specs.  Cross-shard neighbor fetches
#: do not exist — a shard whose only model replica lives across the partition
#: re-fetches from the cloud instead — so when the serial run leans on
#: neighbor fetches while a large share of requests coalesce onto in-flight
#: fetch waits, the sharded latency legitimately rises toward the cloud-wait
#: ceiling no matter the layout (triaged from the seed-1 nightly blowout,
#: promoted as ``corpus_crossshard_fetch_wait``: serial never exceeded 224ms
#: over 16 layout seeds while every sharded layout sat near 650ms, with the
#: serial run's 87 neighbor fetches collapsing to 2).  The envelope widens by
#: the observed coalesced share of the serial tail scale, and only in that
#: regime — specs that do not coalesce, or never neighbor-fetch, get nothing.
FETCH_WAIT_MARGIN = 1.0
#: Incomplete-mass margin for breaker-active policies whose breakers tripped.
#: Per-shard breaker views do not merely *reclassify* failures between kinds —
#: trip timing depends on which outcomes a view has seen, and an open breaker
#: gates admission itself, so the two backends gate different request
#: *volumes*, not just different labels.  The shift is bounded by the mass the
#: breakers actually gated, for which the serial incomplete scale is the
#: observable proxy (when breakers trip under a tight deadline, incompletes
#: are breaker-driven).  Triaged from the second seed-1 find: serial's single
#: global view gated 386–444 of 600 requests across layout seeds (transitions
#: swinging 3–12 — trip timing dominates), while 2-shard local views admitted
#: ~100 more through to completion (283 incomplete); promoted as
#: ``corpus_shardlocal_breaker_gate_g``, where the same spec diverges in the
#: *other* direction (sharded gates 526 vs serial 337–401) — the sign is
#: view-dependent, which is exactly the point.  Specs whose breakers never
#: trip on either backend get nothing.
BREAKER_GATE_MARGIN = 0.25


# --------------------------------------------------------------------- #
# Strategy space
# --------------------------------------------------------------------- #
@st.composite
def resilience_policies(draw) -> Optional[ResiliencePolicy]:
    """Random resilience policies over small menus; ``None`` half the time.

    The menus deliberately include the degenerate corners: a deadline shorter
    than most latencies (mass ``DEADLINE_EXCEEDED``), a hedge delay of 0.1s
    (twins in flight for nearly every slow request), a shed depth of 64
    (admission rejection under any burst), zero-jitter backoff (retry storms
    landing on the same tick).  ``None`` keeps half the corpus exercising the
    legacy byte-identity path under the same adversarial workloads.
    """
    if draw(st.booleans()):
        return None
    policy = ResiliencePolicy(
        deadline_s=draw(st.sampled_from((None, 0.5, 2.0))),
        max_retries=draw(st.sampled_from((0, 1, 3))),
        backoff_base_s=draw(st.sampled_from((0.05, 0.2))),
        backoff_jitter=draw(st.sampled_from((0.0, 0.5))),
        hedge_delay_s=draw(st.sampled_from((None, 0.1, 0.5))),
        breaker_window=draw(st.sampled_from((0, 20))),
        breaker_min_volume=5,
        breaker_open_s=0.5,
        shed_queue_depth=draw(st.sampled_from((None, 64))),
    )
    return policy if policy.active else None


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """Random-but-valid scenario specs, sized for sub-second replays.

    Durations, rates and pool sizes are drawn from small menus so a case
    stays a few hundred to a few thousand requests (the harness replays each
    spec four times), while the *structure* — phase stacks, stacked fault
    timelines including same-time batches, degenerate capacities, every
    registered eviction policy — ranges over the space the curated catalog
    never covers.  Fault times are drawn on a half-second grid on purpose:
    colliding timestamps (fault-vs-fault and fault-vs-arrival ties) are
    exactly the edge the event engine's ordering contract must survive.
    """
    num_cells = draw(st.integers(min_value=2, max_value=5))
    num_phases = draw(st.integers(min_value=1, max_value=3))
    phases = []
    for index in range(num_phases):
        phases.append(
            WorkloadPhase(
                name=f"phase_{index}",
                duration_s=float(draw(st.integers(min_value=1, max_value=2))),
                rate_multiplier=draw(st.sampled_from((0.5, 1.0, 2.0))),
                zipf_exponent=draw(st.sampled_from((None, 0.0, 0.7, 1.2))),
                domain_shift=draw(st.integers(min_value=0, max_value=3)),
                user_churn=draw(st.sampled_from((0.0, 0.25, 0.6))),
            )
        )
    total = sum(phase.duration_s for phase in phases)
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        time_s = draw(st.integers(min_value=0, max_value=int(total * 2))) * 0.5
        cell: Optional[str] = f"cell_{draw(st.integers(0, num_cells - 1))}"
        factor = 1.0
        value = None
        if kind == LINK_DEGRADE:
            factor = draw(st.sampled_from((0.5, 2.0, 8.0, 16.0)))
        elif kind == CACHE_RESIZE:
            # 1e-9 folds to a zero-byte budget: resize-to-zero mid-run.
            factor = draw(st.sampled_from((1e-9, 0.1, 0.5, 2.0)))
        elif kind == MOBILITY_SET:
            value = draw(st.sampled_from((0.0, 0.1, 0.5)))
        if kind == MOBILITY_SET:
            cell = None
        elif kind in (CACHE_WIPE, LINK_DEGRADE, LINK_RESTORE, CACHE_RESIZE):
            if draw(st.booleans()):
                cell = None  # all-cell fault
        events.append(FaultEvent(time_s=time_s, kind=kind, cell=cell, factor=factor, value=value))
    spec_fields = dict(
        description="fuzzed scenario",
        phases=tuple(phases),
        events=tuple(events),
        num_cells=num_cells,
        num_domains=draw(st.integers(min_value=3, max_value=10)),
        num_users=draw(st.integers(min_value=10, max_value=80)),
        base_rate=float(draw(st.sampled_from((120, 300, 600)))),
        zipf_exponent=draw(st.sampled_from((0.0, 0.6, 0.9, 1.3))),
        cache_policy=draw(st.sampled_from(tuple(available_policies()))),
        cache_capacity_mb=float(draw(st.sampled_from((2.0, 8.0, 24.0, 48.0)))),
        handover_probability=draw(st.sampled_from((0.0, 0.05, 0.2))),
        resilience=draw(resilience_policies()),
    )
    # The name embeds a content hash: the workload synthesizer draws its
    # streams through SeedTree paths that include the spec name, so distinct
    # fuzzed specs get independent streams while the same spec is always
    # exactly replayable.  The resilience policy is part of the hash even
    # though it is outside every seed path: two cases differing only in
    # policy are distinct corpus entries.
    digest_source = dict(
        spec_fields,
        phases=[asdict(p) for p in phases],
        events=[asdict(e) for e in events],
        resilience=None if spec_fields["resilience"] is None else spec_fields["resilience"].to_dict(),
    )
    digest = hashlib.sha1(
        json.dumps(digest_source, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:10]
    return ScenarioSpec(name=f"fuzz_{digest}", **spec_fields)


# --------------------------------------------------------------------- #
# The invariant harness
# --------------------------------------------------------------------- #
def _envelope(values: Sequence[float], margin: float) -> Tuple[float, float]:
    return min(values) - margin, max(values) + margin


def _run_checked(
    spec: ScenarioSpec,
    seed: int,
    scale: float,
    backend: str,
    shards: Optional[int] = None,
    backend_options: Optional[Dict[str, object]] = None,
) -> Tuple[ScenarioResult, InvariantChecker]:
    """One replay with the invariant checker chained in front of measurement."""
    box: Dict[str, InvariantChecker] = {}

    def wrap(collector):
        box["checker"] = InvariantChecker(inner=collector)
        return box["checker"]

    result = run_scenario(
        spec,
        seed=seed,
        scale=scale,
        backend=backend,
        shards=shards,
        wrap_hook=wrap,
        backend_options=backend_options,
    )
    checker = box["checker"]
    checker.verify_report(result.report, issued=int(result.summary["requests"]))
    return result, checker


def _signature(result: ScenarioResult) -> str:
    """Byte-comparable serialization of everything a run reports."""
    return to_json({"summary": result.summary, "phases": result.phases})


def _check_phase_consistency(result: ScenarioResult) -> None:
    """The per-phase windows must partition the run's terminal requests.

    The resilience terminals (``shed``, ``deadline_exceeded``) are included
    via ``row.get``/``getattr`` defaults: policy-free rows omit the columns
    and policy-free reports hold zeros, so the check degrades to the
    original two-way partition.
    """
    for kind in ("completed", "dropped", "shed", "deadline_exceeded"):
        phase_total = sum(int(row.get(kind, 0)) for row in result.phases)
        report_total = int(getattr(result.report, kind, 0))
        if phase_total != report_total:
            raise InvariantViolation(
                f"phase windows hold {phase_total} {kind} requests, the report "
                f"says {report_total}"
            )


def _incomplete(summary: Dict[str, object]) -> float:
    return (
        float(summary.get("dropped", 0))
        + float(summary.get("shed", 0))
        + float(summary.get("deadline_exceeded", 0))
    )


def _check_divergence(
    serial_summaries: Sequence[Dict[str, object]],
    sharded: Dict[str, object],
    issued: int,
    shards: int,
    num_users: int,
    policy=None,
) -> None:
    """Variance-calibrated serial-vs-sharded divergence on headline metrics.

    ``serial_summaries`` holds the reference run plus the calibration runs
    at alternate layout seeds; each sharded metric must fall inside that
    observed envelope widened by the documented margins.
    """
    label = f"shards={shards}"

    def check(key: str, margin: float, unit: str = "", value=None) -> None:
        extract = (lambda s: float(s[key])) if value is None else value
        values = [extract(summary) for summary in serial_summaries]
        spread = max(values) - min(values)
        lo, hi = _envelope(values, margin + SPREAD_MARGIN * spread)
        observed = extract(sharded)
        if not lo <= observed <= hi:
            raise InvariantViolation(
                f"{label}: {key} diverged beyond the calibrated serial envelope "
                f"({observed:.4f}{unit} sharded vs serial range "
                f"[{min(values):.4f}, {max(values):.4f}]{unit} "
                f"over {len(values)} layout seeds, margin {margin:.4f})"
            )

    # Hedging is shard-local (a twin only targets cells its shard owns), so
    # the sharded backend structurally hedges less, and every suppressed twin
    # is one admission serial made and sharded didn't — moving failure counts
    # by up to the hedge volume (docs/resilience.md, divergence notes).
    hedge_spread = max(
        (float(summary.get("hedges", 0)) for summary in serial_summaries), default=0.0
    )
    failure_margin = max(20.0, 0.05 * issued) + hedge_spread
    if policy is not None and policy.breaker_window > 0:
        # Per-shard breaker views legitimately *reclassify* failures between
        # kinds: a shard can forward a request toward a remote cell its local
        # breaker view still believes closed, ping-ponging into a hop-capped
        # drop that the serial engine (one consistent view) sheds or serves
        # instead.  The combined incomplete mass is the comparable quantity;
        # per-kind counts are not — and neither is any metric *conditioned on
        # the served population* (hit ratio, latency percentiles): breakers
        # gate which requests reach a cache lookup at all, and the two
        # backends gate structurally different subsets.  Conservation (exact)
        # plus the incomplete envelope is what cross-backend equivalence
        # means under a breaker policy.  And when the breakers actually
        # tripped, the gated *volume* itself is view-dependent (see
        # BREAKER_GATE_MARGIN), so the envelope widens by a fraction of the
        # serial incomplete scale.
        tripped = any(
            float(summary.get("breaker_transitions", 0)) > 0
            for summary in [*serial_summaries, sharded]
        )
        breaker_gate = (
            BREAKER_GATE_MARGIN * max(_incomplete(s) for s in serial_summaries)
            if tripped
            else 0.0
        )
        check("incomplete", margin=failure_margin + breaker_gate, value=_incomplete)
        return
    check("dropped", margin=failure_margin)
    for key in ("shed", "deadline_exceeded"):
        if key in sharded and all(key in summary for summary in serial_summaries):
            check(key, margin=failure_margin)
    check("hit_ratio", margin=max(HIT_RATIO_FLOOR, HIT_RATIO_USER_QUANTA / max(1, num_users)))
    # Fetch-wait widening (see FETCH_WAIT_MARGIN): only when the serial runs
    # both rely on neighbor fetches and coalesce a real share of requests
    # onto fetch waits does the cross-shard fetch gap move the latency needle.
    p95_scale = max(float(summary["p95_ms"]) for summary in serial_summaries)
    fetch_wait_ms = 0.0
    if any(float(summary.get("neighbor_fetches", 0)) > 0 for summary in serial_summaries):
        coalesced_share = max(
            float(summary.get("coalesced", 0)) for summary in serial_summaries
        ) / max(1, issued)
        fetch_wait_ms = FETCH_WAIT_MARGIN * coalesced_share * p95_scale
    mean_scale = max(float(summary["mean_ms"]) for summary in serial_summaries)
    check(
        "mean_ms",
        margin=max(MEAN_ABS_FLOOR_MS, MEAN_REL_MARGIN * mean_scale) + fetch_wait_ms,
        unit="ms",
    )
    check(
        "p95_ms",
        margin=max(P95_ABS_FLOOR_MS, P95_REL_MARGIN * p95_scale) + fetch_wait_ms,
        unit="ms",
    )


def check_case(
    spec: ScenarioSpec,
    seed: int = 0,
    scale: float = 1.0,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    differential: bool = True,
) -> None:
    """Drive one spec through every invariant layer; raise on any violation.

    Runs the spec serially twice (engine audit + byte-identity), then — with
    ``differential`` — through the sharded backend at each shard count
    (clamped to the cell count), checking exact conservation and
    variance-calibrated divergence against a serial envelope measured across
    ``DIFFERENTIAL_CALIBRATION_SEEDS + 1`` layout seeds.
    """
    serial, _ = _run_checked(spec, seed, scale, backend="serial")
    issued = int(serial.summary["requests"])
    if issued != spec.expected_requests(scale):
        raise InvariantViolation(
            f"synthesizer issued {issued} requests, the spec implies "
            f"{spec.expected_requests(scale)} at scale {scale}"
        )
    _check_phase_consistency(serial)
    state = expected_fault_state(spec)
    audit_simulator(serial.simulator, allow_over_budget=state.shrank_cache)
    audit_fault_state(serial.simulator, spec)
    # Determinism: the identical spec + seed must reproduce byte-identically.
    serial_again, _ = _run_checked(spec, seed, scale, backend="serial")
    if _signature(serial) != _signature(serial_again):
        raise InvariantViolation(
            f"serial replay of {spec.name} is not deterministic (same spec, same "
            f"seed, different serialized report)"
        )
    if not differential:
        return
    # Vectorized leg: unlike sharded, the vectorized backend promises strict
    # byte-identity — eligible shapes run the numpy cohort kernel, ineligible
    # ones silently take the serial path — so the check is exact signature
    # equality, not a calibrated envelope.  ``cross_check=False`` disables the
    # backend's own serial validation so the compared result genuinely comes
    # from the kernel.
    vectorized, _ = _run_checked(
        spec, seed, scale, backend="vectorized", backend_options={"cross_check": False}
    )
    _check_phase_consistency(vectorized)
    if _signature(vectorized) != _signature(serial):
        raise InvariantViolation(
            f"vectorized replay of {spec.name} is not byte-identical to the "
            f"serial engine (same spec, same seed, different serialized report)"
        )
    audit_simulator(vectorized.simulator, allow_over_budget=state.shrank_cache)
    audit_fault_state(vectorized.simulator, spec)
    # Calibration runs: the same spec under alternate layout seeds measures
    # the metric's own natural variance, which sizes the divergence envelope.
    serial_summaries = [serial.summary]
    for offset in range(1, DIFFERENTIAL_CALIBRATION_SEEDS + 1):
        calibration = run_scenario(spec, seed=seed + offset, scale=scale, backend="serial")
        serial_summaries.append(calibration.summary)
    seen = set()
    for requested in shard_counts:
        shards = min(int(requested), spec.num_cells)
        if shards < 2 or shards in seen:
            continue
        seen.add(shards)
        sharded, _ = _run_checked(spec, seed, scale, backend="sharded", shards=shards)
        _check_phase_consistency(sharded)
        completed = int(sharded.summary["completed"])
        dropped = int(sharded.summary["dropped"])
        shed = int(sharded.summary.get("shed", 0))
        deadline_exceeded = int(sharded.summary.get("deadline_exceeded", 0))
        if completed + dropped + shed + deadline_exceeded != issued:
            raise InvariantViolation(
                f"shards={shards}: conservation broken ({completed} completed + "
                f"{dropped} dropped + {shed} shed + {deadline_exceeded} "
                f"deadline_exceeded != {issued} issued)"
            )
        _check_divergence(
            serial_summaries,
            sharded.summary,
            issued,
            shards,
            spec.num_users,
            policy=spec.resilience,
        )


# --------------------------------------------------------------------- #
# Regression corpus
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RegressionCase:
    """One shrunk failing spec, with everything needed to replay it."""

    spec: ScenarioSpec
    seed: int
    scale: float
    shard_counts: Tuple[int, ...]
    differential: bool
    error: str
    found_by: str

    def replay(self) -> None:
        """Re-run this case through the full harness (raises if still broken)."""
        check_case(
            self.spec,
            seed=self.seed,
            scale=self.scale,
            shard_counts=self.shard_counts,
            differential=self.differential,
        )


def save_regression(
    directory, spec: ScenarioSpec, *, seed: int, scale: float,
    shard_counts: Sequence[int], differential: bool, error: str, found_by: str = "",
) -> Path:
    """Serialize a shrunk failing spec into the corpus directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec.name}.json"
    payload = {
        "format": REGRESSION_FORMAT,
        "spec": spec.to_dict(),
        "seed": seed,
        "scale": scale,
        "shard_counts": list(shard_counts),
        "differential": differential,
        "error": error,
        "found_by": found_by,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_regression(path) -> RegressionCase:
    """Parse one corpus file back into a replayable case."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != REGRESSION_FORMAT:
        raise ValueError(
            f"{path}: unknown regression format {payload.get('format')!r} "
            f"(expected {REGRESSION_FORMAT})"
        )
    return RegressionCase(
        spec=ScenarioSpec.from_dict(payload["spec"]),
        seed=int(payload["seed"]),
        scale=float(payload["scale"]),
        shard_counts=tuple(int(s) for s in payload.get("shard_counts", DEFAULT_SHARD_COUNTS)),
        differential=bool(payload.get("differential", True)),
        error=str(payload.get("error", "")),
        found_by=str(payload.get("found_by", "")),
    )


def iter_regressions(directory) -> List[Path]:
    """Corpus files under ``directory``, sorted for stable test ordering."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


# --------------------------------------------------------------------- #
# The fuzz driver
# --------------------------------------------------------------------- #
#: What Hypothesis reports when shrinking stops at its wall-clock cap
#: (``MAX_SHRINKING_SECONDS``, five minutes).
SHRINK_CAP_REPORT = "spent more than five minutes working to shrink"


@dataclass(frozen=True)
class FuzzOutcome:
    """What one fuzz run did and found."""

    cases: int
    executed: int
    seed: int
    hypothesis_seed: int
    failure_spec: Optional[ScenarioSpec]
    error: Optional[str]
    regression_path: Optional[Path]
    #: Shrinking stopped at Hypothesis's time cap, so the reported spec is
    #: not fully shrunk and how far shrinking got depends on host speed.
    shrink_capped: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def fuzz(
    cases: int,
    seed: int = 0,
    scale: float = 1.0,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    differential: bool = True,
    regressions_dir=None,
    found_by: str = "",
) -> FuzzOutcome:
    """Sample ``cases`` specs and drive each through :func:`check_case`.

    Generation is seeded from ``SeedTree(seed).child("fuzz").seed("hypothesis")``
    so the whole run replays from the one ``--seed`` value.  On a failure,
    hypothesis shrinks the spec to a minimal failing example, which is
    serialized into ``regressions_dir`` (when given) in the corpus format.
    The shrunk spec — not the original — is what gets reported and saved:
    the minimal example re-executes last during shrinking.  Shrinking has a
    wall-clock cap, so the same ``seed`` finds the same first failure but may
    shrink it to a different spec on a faster or slower host;
    ``shrink_capped`` says when the cap was hit.
    """
    generation_seed = SeedTree(seed).child("fuzz").seed("hypothesis")
    executed = 0
    last_failure: Dict[str, object] = {}

    @settings(
        max_examples=cases,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @hypothesis_seed(generation_seed)
    @given(spec=scenario_specs())
    def property_(spec: ScenarioSpec) -> None:
        nonlocal executed
        executed += 1
        try:
            check_case(
                spec,
                seed=seed,
                scale=scale,
                shard_counts=shard_counts,
                differential=differential,
            )
        except Exception as error:
            last_failure["spec"] = spec
            last_failure["error"] = f"{type(error).__name__}: {error}"
            raise

    forward = current_reporter()
    shrink_capped = False

    def reporter(text: str) -> None:
        nonlocal shrink_capped
        if SHRINK_CAP_REPORT in text:
            shrink_capped = True
        forward(text)

    try:
        with with_reporter(reporter):
            property_()
    except Exception:
        spec = last_failure["spec"]
        error = str(last_failure["error"])
        path = None
        if regressions_dir is not None:
            path = save_regression(
                regressions_dir,
                spec,
                seed=seed,
                scale=scale,
                shard_counts=shard_counts,
                differential=differential,
                error=error,
                found_by=found_by,
            )
        return FuzzOutcome(
            cases=cases,
            executed=executed,
            seed=seed,
            hypothesis_seed=generation_seed,
            failure_spec=spec,
            error=error,
            regression_path=path,
            shrink_capped=shrink_capped,
        )
    return FuzzOutcome(
        cases=cases,
        executed=executed,
        seed=seed,
        hypothesis_seed=generation_seed,
        failure_spec=None,
        error=None,
        regression_path=None,
    )


__all__ = [
    "DEFAULT_SHARD_COUNTS",
    "REGRESSION_FORMAT",
    "FuzzOutcome",
    "RegressionCase",
    "check_case",
    "fuzz",
    "iter_regressions",
    "load_regression",
    "resilience_policies",
    "save_regression",
    "scenario_specs",
]
