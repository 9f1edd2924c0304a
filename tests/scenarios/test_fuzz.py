"""The scenario fuzzer: strategies, the invariant harness, corpus round-trips.

The expensive property search itself runs in CI's fuzz jobs; these tests pin
the harness *machinery*: generated specs are valid, a clean engine passes all
three invariant layers, a deliberately broken invariant is found / shrunk /
serialized, and the corpus format round-trips.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.scenarios.fuzz import (
    REGRESSION_FORMAT,
    check_case,
    fuzz,
    iter_regressions,
    load_regression,
    save_regression,
    scenario_specs,
)
from repro.scenarios.runner import run_catalog
from repro.scenarios.spec import (
    CACHE_RESIZE,
    CACHE_WIPE,
    CELL_FAIL,
    CELL_RECOVER,
    LINK_DEGRADE,
    FaultEvent,
    ScenarioSpec,
    WorkloadPhase,
)
from repro.sim.invariants import InvariantViolation
from repro.utils.serialization import to_json


def adversarial_spec():
    """A handcrafted stacked-fault spec exercising every harness layer."""
    return ScenarioSpec(
        name="fuzz_harness_fixture",
        description="handcrafted adversarial fixture",
        phases=(
            WorkloadPhase(name="calm", duration_s=1.0),
            WorkloadPhase(name="spike", duration_s=1.0, rate_multiplier=2.0, zipf_exponent=1.2),
        ),
        events=(
            FaultEvent(time_s=0.5, kind=CELL_FAIL, cell="cell_0"),
            FaultEvent(time_s=1.0, kind=LINK_DEGRADE, cell=None, factor=4.0),
            FaultEvent(time_s=1.0, kind=CACHE_WIPE, cell="cell_1"),
            FaultEvent(time_s=1.5, kind=CELL_RECOVER, cell="cell_0"),
            FaultEvent(time_s=1.5, kind=CACHE_RESIZE, cell="cell_2", factor=0.1),
        ),
        num_cells=3,
        num_domains=4,
        num_users=16,
        base_rate=150.0,
        cache_capacity_mb=8.0,
        handover_probability=0.1,
    )


class TestStrategy:
    @settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
    @given(spec=scenario_specs())
    def test_generated_specs_are_valid_and_bounded(self, spec):
        # Construction already ran ScenarioSpec validation; pin the sizing
        # contract the harness relies on (replays stay sub-second) and the
        # content-hash naming that keeps SeedTree paths unique per spec.
        assert spec.name.startswith("fuzz_")
        assert 1 <= spec.expected_requests(1.0) <= 10_000
        assert all(event.time_s <= 2 * spec.total_duration_s for event in spec.events)
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.to_json() == spec.to_json()


class TestCheckCase:
    def test_adversarial_spec_passes_all_layers(self):
        check_case(adversarial_spec(), seed=0, shard_counts=(2, 3))

    def test_scale_moves_rates_never_fault_times(self):
        # check_case asserts issued == expected_requests(scale) and audits
        # the fault end state, so a timeline that moved with --scale (or a
        # rate that didn't) fails at any scale.
        spec = adversarial_spec()
        assert spec.expected_requests(0.5) != spec.expected_requests(1.0)
        check_case(spec, seed=0, scale=0.5, differential=False)
        check_case(spec, seed=0, scale=2.0, differential=False)

    def test_shard_counts_clamped_to_cells(self):
        # shards=8 on a 3-cell spec clamps to 3; duplicates collapse.
        check_case(adversarial_spec(), seed=0, shard_counts=(8, 3))

    def test_jobs_identity_over_fuzz_specs(self):
        # Determinism across the process pool: the same rows through jobs=1
        # and jobs=2 serialize identically.
        spec = adversarial_spec()
        tables = [
            run_catalog([spec], seed=0, jobs=jobs, policies=["lru", "lfu"])
            for jobs in (1, 2)
        ]
        serialized = [
            to_json({name: table.rows for name, table in t.items()}) for t in tables
        ]
        assert serialized[0] == serialized[1]

    def test_broken_conservation_detected(self, monkeypatch):
        from repro.sim.simulator import MultiCellSimulator

        original = MultiCellSimulator.replay

        def lying_replay(self, trace):
            report = original(self, trace)
            object.__setattr__(report, "completed", report.completed + 1)
            return report

        monkeypatch.setattr(MultiCellSimulator, "replay", lying_replay)
        with pytest.raises(InvariantViolation):
            check_case(adversarial_spec(), seed=0, differential=False)


class TestFuzzDriver:
    def test_clean_run_reports_ok(self, tmp_path):
        outcome = fuzz(cases=5, seed=3, regressions_dir=tmp_path)
        assert outcome.ok
        assert outcome.executed == 5
        assert outcome.error is None and outcome.regression_path is None
        assert iter_regressions(tmp_path) == []

    def test_same_seed_same_generation(self):
        first = fuzz(cases=3, seed=11, differential=False)
        second = fuzz(cases=3, seed=11, differential=False)
        assert first.hypothesis_seed == second.hypothesis_seed
        assert first.ok and second.ok

    def test_broken_invariant_is_found_shrunk_and_replayable(self, tmp_path, monkeypatch):
        # Acceptance path: seed a bug (degrade applies a wrong factor, caught
        # by the fault-state audit on any spec with a link_degrade event),
        # fuzz until found, and require a shrunk spec in the corpus format
        # that replays clean once the bug is gone.
        from repro.sim.simulator import MultiCellSimulator

        def wrong_factor(self, name, factor):
            self._downlink_time[name] = self._downlink_base[name] * factor * 1.5

        monkeypatch.setattr(MultiCellSimulator, "degrade_downlink", wrong_factor)
        outcome = fuzz(cases=40, seed=0, differential=False, regressions_dir=tmp_path)
        assert not outcome.ok
        assert "InvariantViolation" in outcome.error
        assert outcome.regression_path is not None and outcome.regression_path.exists()
        # Shrunk: the minimal failing spec needs exactly one fault event.
        assert len(outcome.failure_spec.events) == 1
        assert outcome.failure_spec.events[0].kind == LINK_DEGRADE
        payload = json.loads(outcome.regression_path.read_text())
        assert payload["format"] == REGRESSION_FORMAT
        assert payload["error"] == outcome.error
        monkeypatch.undo()
        load_regression(outcome.regression_path).replay()

    @pytest.mark.parametrize("capped", [False, True])
    def test_shrink_cap_is_reported(self, monkeypatch, capped):
        # Every case fails at once, so shrinking finishes quickly unless the
        # cap is set to zero, which stops it at its first step.
        from hypothesis.internal.conjecture import engine

        import repro.scenarios.fuzz as fuzz_module

        def failing_case(spec, **kwargs):
            raise InvariantViolation("seeded failure")

        monkeypatch.setattr(fuzz_module, "check_case", failing_case)
        if capped:
            monkeypatch.setattr(engine, "MAX_SHRINKING_SECONDS", 0)
        outcome = fuzz(cases=5, seed=0, differential=False)
        assert not outcome.ok and "seeded failure" in outcome.error
        assert outcome.shrink_capped is capped


class TestRegressionCorpusFormat:
    def test_save_load_roundtrip(self, tmp_path):
        spec = adversarial_spec()
        path = save_regression(
            tmp_path,
            spec,
            seed=7,
            scale=0.5,
            shard_counts=(2, 3),
            differential=True,
            error="InvariantViolation: example",
            found_by="unit test",
        )
        case = load_regression(path)
        assert case.spec.to_json() == spec.to_json()
        assert case.seed == 7 and case.scale == 0.5
        assert case.shard_counts == (2, 3) and case.differential
        assert case.error == "InvariantViolation: example"
        assert iter_regressions(tmp_path) == [path]

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "someday-v9", "spec": {}}))
        with pytest.raises(ValueError, match="unknown regression format"):
            load_regression(path)

    def test_iter_regressions_on_missing_directory(self, tmp_path):
        assert iter_regressions(tmp_path / "absent") == []


class TestFuzzCli:
    def test_cli_smoke_serial(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        code = main(
            [
                "fuzz",
                "--cases", "2",
                "--seed", "1",
                "--backend", "serial",
                "--regressions-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: 2 cases" in out
        assert "hypothesis generation seed" in out

    @pytest.mark.parametrize("capped", [False, True])
    def test_cli_says_when_shrinking_hit_the_cap(self, tmp_path, capsys, monkeypatch, capped):
        import repro.scenarios.fuzz as fuzz_module
        from repro.scenarios.cli import main

        outcome = fuzz_module.FuzzOutcome(
            cases=2,
            executed=9,
            seed=4,
            hypothesis_seed=1,
            failure_spec=adversarial_spec(),
            error="InvariantViolation: example",
            regression_path=tmp_path / "case.json",
            shrink_capped=capped,
        )
        monkeypatch.setattr(fuzz_module, "fuzz", lambda **kwargs: outcome)
        assert main(["fuzz", "--cases", "2", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        assert ("five-minute cap" in out) is capped
        assert "--seed 4 regenerates the same cases; the shrunk spec can differ" in out

    def test_cli_rejects_bad_arguments(self):
        from repro.scenarios.cli import main

        with pytest.raises(SystemExit):
            main(["fuzz", "--cases", "0"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--shards", "1,2"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--shards", "two"])
