"""Benchmark E10: the adversarial scenario catalog under every cache policy.

Replays the full stress catalog (~464k requests per policy — flash crowds,
cell outages, cache wipes, popularity flips, mobility storms, churn waves,
link brownouts, capacity crunches, plus the steady-state control) through the
fault-injecting multi-cell simulator, once per eviction policy, and publishes
the summary and per-phase tables under ``benchmarks/results/``.

Note on reading the phase tables: the *first* phase of every scenario absorbs
the deployment's cold start (every cell begins empty), so regime comparisons
below are made between post-warmup phases.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import run_experiment


@pytest.mark.smoke
def test_bench_e10_scenario_stress(benchmark, experiment_config, publish):
    tables = run_once(benchmark, run_experiment, "e10", experiment_config)
    stress = publish(tables["stress"])
    phases = publish(tables["phases"])

    policies = sorted({row["policy"] for row in stress.rows})
    scenarios = {row["scenario"] for row in stress.rows}
    assert len(policies) == 3
    assert len(scenarios) == 9

    def srow(scenario, policy):
        return next(
            r for r in stress.rows if r["scenario"] == scenario and r["policy"] == policy
        )

    def prow(scenario, policy, phase):
        return next(
            r
            for r in phases.rows
            if r["scenario"] == scenario and r["policy"] == policy and r["phase"] == phase
        )

    # Scale: the catalog replays over a million requests across the policies,
    # and the healthy failover paths lose nothing.
    assert sum(row["completed"] for row in stress.rows) >= 1_000_000
    for row in stress.rows:
        assert row["completed"] + row["dropped"] == row["requests"]
        assert row["dropped"] == 0
        assert 0.0 <= row["hit_ratio"] <= 1.0
        assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]

    # Policy comparisons are paired: every policy replays the identical trace.
    for scenario in scenarios:
        counts = {srow(scenario, policy)["requests"] for policy in policies}
        assert len(counts) == 1

    for policy in policies:
        # Cell outage: the failed cell's users are re-homed, not dropped, and
        # failovers happen only where a failure was injected.
        assert srow("cell_outage", policy)["failovers"] > 0
        assert srow("steady_state", policy)["failovers"] == 0

        # Mobility storm: the rush phase multiplies handovers over the
        # (equally post-warmup) evening phase.
        rush = prow("rush_hour_mobility", policy, "rush")
        evening = prow("rush_hour_mobility", policy, "evening")
        assert rush["handovers"] > 3 * evening["handovers"]

        # Capacity crunch: a quarter of the budget measurably costs hit ratio
        # versus the restored-budget phase that follows.
        crunch = prow("capacity_crunch", policy, "crunch")
        restored = prow("capacity_crunch", policy, "restored")
        assert crunch["hit_ratio"] < restored["hit_ratio"]

        # Link brownout: 8x slower downlinks push the median up; restoration
        # brings it back down.
        brownout = prow("link_brownout", policy, "brownout")
        clear_again = prow("link_brownout", policy, "restored")
        assert brownout["p50_ms"] > 2 * clear_again["p50_ms"]

        # Flash crowd: the 6x spike is absorbed — nothing dropped, batching
        # keeps the spike median in the same decade as the cooldown.
        spike = prow("flash_crowd", policy, "spike")
        assert spike["dropped"] == 0
        assert spike["completed"] > 0

    # The per-phase rows of each (scenario, policy) pair account for exactly
    # the summary's completions.
    for row in stress.rows:
        phase_rows = [
            r
            for r in phases.rows
            if r["scenario"] == row["scenario"] and r["policy"] == row["policy"]
        ]
        assert sum(r["completed"] for r in phase_rows) == row["completed"]
        assert sum(r["dropped"] for r in phase_rows) == row["dropped"]
