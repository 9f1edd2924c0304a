"""Tests of the end-to-end benchmark itself, at tiny scale (seconds in total)."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run as bench
from spans import SpanRecorder, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
GOLDEN = bench.GOLDEN_DIR / "e10_scenario_stress.json"


@pytest.fixture(scope="module")
def definitions():
    return bench.load_definitions()


def test_names_follow_the_grammar(definitions):
    benchmark = definitions["benchmark"]
    names = [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_matches_the_benchmark(definitions):
    benchmark = definitions["benchmark"]
    workloads = set(definitions["workloads"])
    assert workloads == {w["name"] for w in benchmark["workloads"]}
    assert list(definitions["layers"]) == [m["name"] for m in benchmark["per_layer"]]
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    for entry in definitions["layers"].values():
        assert entry["moves"] in end_to_end
        assert set(entry["on"]) <= workloads
    for definition in definitions["workloads"].values():
        assert not set(definition["exercises"]) & set(definition["bypasses"])


def test_a_tiny_untraced_run_emits_every_end_to_end_metric(definitions):
    result = bench.Run("catalog", seed=1, seconds=1, trace=False, scale=0.01).execute()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in definitions["benchmark"]["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_a_tiny_traced_leg_emits_every_per_layer_metric(definitions):
    result = bench.Run("catalog.vectorized", seed=1, seconds=1, trace=True, scale=0.01).execute()
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in definitions["benchmark"]["per_layer"]]
    assert list(result["metrics"]) == names
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["replay.events"] > values["hook.calls"] > 0
    assert values["replay.busy_s"] > values["replay.self_s"] > 0
    assert 0 < values["cache.hit_ratio"] < 1


def test_the_e9_traced_run_measures_its_sharded_side_leg():
    result = bench.Run("e9_scale", seed=1, seconds=1, trace=True, scale=0.01).execute()
    assert result["correct"] and result["failed"] == 0
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["sharded.windows"] > 0
    assert values["sharded.speedup_vs_serial"] > 0
    assert values["sharded.worker_cpu_s"] + values["sharded.idle_s"] > 0


def test_a_corrupted_row_is_counted_as_failed():
    data = GOLDEN.read_bytes()
    good = dict(rows=json.loads(data)["rows"], data=data)
    bad_rows = copy.deepcopy(good["rows"])
    bad_rows[3]["completed"] -= 1
    bad = {"e10_scenario_stress": dict(rows=bad_rows, data=json.dumps(bad_rows).encode())}

    tally = checks.Tally()
    checks.check_rows("leg", bad, tally)
    checks.check_conservation("leg", bad, tally)
    checks.check_same_rows("leg", bad, {"e10_scenario_stress": good}, tally)
    checks.check_goldens("leg", bad, bench.GOLDEN_DIR, tally)
    assert tally.attempted == len(bad_rows)
    assert tally.failed == 1
    assert len(tally.problems()) == 3

    clean = checks.Tally()
    checks.check_conservation("leg", {"e10_scenario_stress": good}, clean)
    checks.check_goldens("leg", {"e10_scenario_stress": good}, bench.GOLDEN_DIR, clean)
    assert clean.failed == 0


def test_self_time_subtracts_the_children_it_covers():
    recorder = SpanRecorder()
    parent = recorder.add("row", 0.0, 10.0, None)
    recorder.add("replay", 1.0, 5.0, parent)
    recorder.add("hook", 4.0, 7.0, parent)  # overlaps replay by one second
    own = self_times(recorder.spans)
    assert own[parent] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert completed.returncode != 0
    assert b'"metrics"' not in completed.stdout
