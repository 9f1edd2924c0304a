"""Benchmark E11: resilience policies under the adversarial scenario slice.

Replays the steady-state control, the flash crowd, the capacity crunch and
the total blackout under five resilience modes (none / deadline / retry /
retry+hedge / full), publishes the summary and per-phase tables under
``benchmarks/results/``, and asserts the layer's headline claims:

* retries with deterministic backoff convert >=90% of the blackout's
  baseline drops into completions (in fact all of them);
* load shedding + hedging give the full policy a completed-request p95
  *below* the unprotected baseline during the capacity crunch (and the
  flash crowd), at the cost of explicitly shed requests;
* request conservation is exact in every mode — the resilience terminals
  (SHED, DEADLINE_EXCEEDED) partition what used to be queueing, never
  losing or duplicating a request.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import run_experiment

MODES = ("none", "deadline", "retry", "retry_hedge", "full")
SCENARIOS = ("steady_state", "flash_crowd", "capacity_crunch", "total_blackout")


@pytest.mark.smoke
def test_bench_e11_resilience(benchmark, experiment_config, publish):
    tables = run_once(benchmark, run_experiment, "e11", experiment_config)
    summary = publish(tables["resilience"])
    phases = publish(tables["phases"])

    def srow(scenario, mode):
        return next(
            r for r in summary.rows if r["scenario"] == scenario and r["mode"] == mode
        )

    assert {row["mode"] for row in summary.rows} == set(MODES)
    assert {row["scenario"] for row in summary.rows} == set(SCENARIOS)
    assert len(summary.rows) == len(MODES) * len(SCENARIOS)

    for row in summary.rows:
        # Exact conservation: the four terminal kinds partition every issued
        # request, whatever the policy did (retries, hedge twins, breakers).
        terminal = (
            row["completed"] + row["dropped"] + row["shed"] + row["deadline_exceeded"]
        )
        assert terminal == row["requests"]
        assert 0.0 <= row["incomplete_ratio"] <= 1.0
        if row["mode"] == "none":
            # The disabled layer reports all-zero resilience activity.
            for column in ("shed", "deadline_exceeded", "retries", "hedges",
                           "hedge_wins", "breaker_transitions"):
                assert row[column] == 0
        assert row["hedge_wins"] <= row["hedges"]

    # Mode comparisons are paired: every mode replays the identical trace.
    for scenario in SCENARIOS:
        assert len({srow(scenario, mode)["requests"] for mode in MODES}) == 1

    # A policy that never fires is byte-identical to no policy: nothing in
    # the healthy control exceeds the deadline or needs a retry.
    control = srow("steady_state", "none")
    for mode in ("deadline", "retry"):
        assert srow("steady_state", mode)["p95_ms"] == control["p95_ms"]
        assert srow("steady_state", mode)["completed"] == control["completed"]

    # Headline claim 1 — the blackout: baseline mass-drops, retries recover
    # at least 90% of those drops (empirically: all of them), paid for in
    # tail latency; the full policy keeps the tail flat by shedding instead.
    baseline = srow("total_blackout", "none")
    assert baseline["dropped"] > 0.2 * baseline["requests"]
    for mode in ("retry", "retry_hedge"):
        row = srow("total_blackout", mode)
        assert row["dropped"] <= 0.1 * baseline["dropped"]
        assert row["retries"] > 0
        assert row["completed"] > baseline["completed"]
    assert srow("total_blackout", "retry")["p95_ms"] > baseline["p95_ms"]
    full_blackout = srow("total_blackout", "full")
    assert full_blackout["dropped"] == 0
    assert full_blackout["shed"] + full_blackout["deadline_exceeded"] > 0
    assert full_blackout["p95_ms"] < srow("total_blackout", "retry")["p95_ms"]

    # Headline claim 2 — the capacity crunch (and the flash crowd): load
    # shedding plus hedging buy a completed-request p95 below the
    # unprotected baseline, with the shed volume reported explicitly.
    for scenario in ("capacity_crunch", "flash_crowd"):
        none_row = srow(scenario, "none")
        full_row = srow(scenario, "full")
        assert full_row["shed"] > 0
        assert full_row["p95_ms"] < none_row["p95_ms"]
        assert full_row["dropped"] == 0

    # Hedging launches twins and some of them win.
    for scenario in SCENARIOS:
        hedged = srow(scenario, "retry_hedge")
        assert hedged["hedges"] > 0
        assert hedged["hedge_wins"] > 0

    # The per-phase rows of each (scenario, mode) pair account for exactly
    # the summary's terminals, per kind.
    for row in summary.rows:
        phase_rows = [
            r
            for r in phases.rows
            if r["scenario"] == row["scenario"] and r["mode"] == row["mode"]
        ]
        for kind in ("completed", "dropped", "shed", "deadline_exceeded"):
            assert sum(r.get(kind, 0) for r in phase_rows) == row[kind]

    # The blackout phase itself: baseline drops nearly everything that
    # arrives during it; retry completes it late instead.
    def blackout_phase(mode):
        return next(
            r
            for r in phases.rows
            if r["scenario"] == "total_blackout"
            and r["mode"] == mode
            and r["phase"] == "blackout"
        )

    assert blackout_phase("none")["dropped"] > 0
    assert blackout_phase("retry")["dropped"] == 0
    assert blackout_phase("retry")["completed"] == blackout_phase("none")["completed"] + blackout_phase("none")["dropped"]
