"""One benchmark leg: a fresh interpreter that runs one backend's calls.

Usage: ``python3 e2ebench/leg.py SPEC.json`` (``src`` on ``PYTHONPATH``).
``run.py`` writes the spec, spawns this process, and reads back
``result.json`` and the tables this process saves in the spec's ``out``
directory.  Every leg is its own process because the vectorized backend
caches its cross-check verdicts for the whole process: a second replay in one
interpreter would skip the serial shadow replay that every CLI run pays.

Modes:

``probe``
    Import and exit; the parent times spawn to import-finished.
``untraced``
    Time each ``repro.experiments.run_experiment`` call (the public entry
    point ``repro-experiment`` uses) and save its tables.
``traced``
    Call the finer public functions around each layer instead, recording a
    span per layer and the outcomes of every row, so the parent can attribute
    the wall clock and check the outcomes against the untraced leg.
"""

from __future__ import annotations

import inspect
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import ExperimentConfig, run_experiment  # registers every experiment
from repro.experiments import e9_multicell_scale as e9
from repro.experiments.e10_scenario_stress import POLICIES as CATALOG_POLICIES
from repro.experiments.harness import tables_of
from repro.scenarios.catalog import catalog
from repro.scenarios.measure import PhaseCollector
from repro.scenarios.runner import build_simulator, schedule_faults
from repro.scenarios.workload import synthesize_trace
from repro.sim.backend import create_backend
from repro.sim.multicell import CellConfig, default_catalogue
from repro.sim.simulator import SimulatorConfig
from repro.workloads.generator import ArrivalTraceGenerator

from spans import SpanRecorder, clock


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU seconds of this process's exited, waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class TimedHook:
    """Wraps an ``on_request_end`` observer, summing the time spent in it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.busy_s = 0.0
        self.calls = 0

    def __call__(self, request) -> None:
        started = time.perf_counter()
        self.inner(request)
        self.busy_s += time.perf_counter() - started
        self.calls += 1


def e9_plan(seed: int, scale: float) -> Tuple[dict, int]:
    """e9's own defaults (read from its signature) and its requests per row."""
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(e9.run).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    config = ExperimentConfig(seed=seed, scale=scale)
    return defaults, config.scaled(defaults["num_requests"], minimum=1000)


def outcome(report, requests: int) -> Dict[str, object]:
    """The modelled system's counters for one replay, named as the tables name them."""
    cells = list(report.cells.values())
    return dict(
        requests=requests,
        completed=report.completed,
        dropped=report.dropped,
        shed=report.shed,
        deadline_exceeded=report.deadline_exceeded,
        hit_ratio=report.hit_ratio,
        neighbor_fetches=sum(cell.neighbor_fetches for cell in cells),
        cloud_fetches=sum(cell.cloud_fetches for cell in cells),
        coalesced=sum(cell.coalesced for cell in cells),
        handovers=sum(cell.handovers_in for cell in cells),
        failovers=sum(cell.failovers for cell in cells),
        mean_batch_size=report.mean_batch_size,
        compute_busy_s=report.total_compute_busy_s,
        mean_ms=report.latency["mean_s"] * 1000.0,
        p50_ms=report.latency["p50_s"] * 1000.0,
        p95_ms=report.latency["p95_s"] * 1000.0,
        p99_ms=report.latency["p99_s"] * 1000.0,
        hits=sum(cell.hits for cell in cells),
        lookups=sum(cell.lookups for cell in cells),
        batches=sum(cell.batches for cell in cells),
        batched_requests=sum(cell.batched_requests for cell in cells),
        events=report.events_processed,
    )


def catalog_rows(seed: int, scale: float, backend: str, shards, options: dict):
    """e10's (scenario x policy) rows: key, trace maker, deployment maker."""
    for spec in catalog().values():
        for policy in CATALOG_POLICIES:
            row_spec = spec.with_policy(policy)

            def make_trace(row_spec=row_spec):
                return synthesize_trace(row_spec, seed=seed, scale=scale)

            def make_simulator(row_spec=row_spec):
                simulator = build_simulator(
                    row_spec, seed=seed, backend=backend, shards=shards, backend_options=options
                )
                simulator.on_request_end = TimedHook(PhaseCollector(row_spec))
                schedule_faults(simulator, row_spec)
                return simulator

            yield f"{spec.name}/{policy}", make_trace, make_simulator


def e9_rows(seed: int, scale: float, backend: str, shards, options: dict):
    """e9's (profile x batching) rows, built the way ``e9.run`` builds them."""
    defaults, requests = e9_plan(seed, scale)
    rate = float(defaults["arrival_rate"])
    domain_names = [f"domain_{index}" for index in range(defaults["num_domains"])]
    for profile in defaults["profiles"]:
        for policy_name, batching in e9.BATCHING_POLICIES.items():

            def make_trace(profile=profile):
                generator = ArrivalTraceGenerator(
                    domain_names,
                    num_users=defaults["num_users"],
                    zipf_exponent=defaults["zipf_exponent"],
                    profile=profile,
                    rate=rate if profile == "poisson" else 0.5 * rate,
                    peak_rate=None if profile == "poisson" else 1.5 * rate,
                    period_s=max(requests / rate, 1.0),
                    seed=seed,
                )
                return generator.generate(requests)

            def make_simulator(batching=batching):
                cells = [CellConfig(name=f"cell_{index}") for index in range(defaults["num_cells"])]
                return create_backend(
                    backend,
                    cells,
                    default_catalogue(domain_names, seed=seed),
                    config=SimulatorConfig(batching=batching, retain_requests=False),
                    seed=seed,
                    shards=shards,
                    **options,
                )

            yield f"{profile}/{policy_name}", make_trace, make_simulator


ROW_PLANS = {"catalog": catalog_rows, "e9": e9_rows}


def run_untraced(spec: dict, out: Path) -> dict:
    calls: List[dict] = []
    for experiment in spec["experiments"]:
        config = ExperimentConfig(
            seed=spec["seed"],
            scale=experiment["scale"],
            backend=spec["backend"],
            shards=spec.get("shards"),
        )
        started = time.perf_counter()
        output = run_experiment(experiment["name"], config)
        wall_s = time.perf_counter() - started
        tables = save_tables(output, out)
        call = dict(name=experiment["name"], wall_s=wall_s, rss_mb=peak_rss_mb(), tables=tables)
        if experiment["name"] == "e9":
            call["expected_requests"] = e9_plan(spec["seed"], experiment["scale"])[1]
        calls.append(call)
    return dict(calls=calls, wall_s=sum(call["wall_s"] for call in calls))


def run_traced_sim(spec: dict, recorder: SpanRecorder) -> dict:
    (experiment,) = spec["experiments"]
    plan = ROW_PLANS[spec["kind"]](
        spec["seed"],
        experiment["scale"],
        spec["backend"],
        spec.get("shards"),
        spec.get("backend_options") or {},
    )
    rows: List[dict] = []
    with recorder.span("calls") as calls_id:
        for key, make_trace, make_simulator in plan:
            with recorder.span("row", row=key):
                with recorder.span("tracegen", row=key):
                    trace = make_trace()
                with recorder.span("build", row=key):
                    simulator = make_simulator()
                cpu_before = children_cpu_s()
                with recorder.span("replay", row=key) as replay_id:
                    report = simulator.replay(trace)
                worker_cpu_s = children_cpu_s() - cpu_before
                hook = simulator.on_request_end
                if hook is not None:
                    # One span per row, not per request: the hook ran inside
                    # the replay, so its summed time sits within that span.
                    replay_start = recorder.spans[replay_id]["start"]
                    recorder.add(
                        "hook", replay_start, replay_start + hook.busy_s, replay_id,
                        row=key, calls=hook.calls, aggregate=True,
                    )
                with recorder.span("report", row=key):
                    row = dict(key=key, **outcome(report, len(trace)))
                    row["phases"] = [] if hook is None else hook.inner.rows()
                row["hook_calls"] = 0 if hook is None else hook.calls
                row["fallback"] = getattr(simulator, "fallback_reason", None)
                if spec["backend"] == "sharded":
                    replay = recorder.spans[replay_id]
                    row["sharded"] = dict(
                        shards=min(int(spec["shards"]), len(simulator.cells)),
                        windows=report.duration_s / simulator.window_s(),
                        worker_cpu_s=worker_cpu_s,
                        replay_wall_s=replay["end"] - replay["start"],
                    )
                rows.append(row)
    calls_span = recorder.spans[calls_id]
    return dict(rows=rows, wall_s=calls_span["end"] - calls_span["start"])


def run_traced_suite(spec: dict, recorder: SpanRecorder, out: Path) -> dict:
    outputs = []
    with recorder.span("calls") as calls_id:
        for experiment in spec["experiments"]:
            name = experiment["name"]
            config = ExperimentConfig(
                seed=spec["seed"], scale=experiment["scale"], backend=spec["backend"]
            )
            with recorder.span("row", row=name):
                with recorder.span(experiment["layer"], row=name):
                    outputs.append(run_experiment(name, config))
    calls_span = recorder.spans[calls_id]
    calls = [
        dict(name=experiment["name"], tables=save_tables(output, out))
        for experiment, output in zip(spec["experiments"], outputs)
    ]
    return dict(calls=calls, wall_s=calls_span["end"] - calls_span["start"])


def save_tables(output, out: Path) -> List[str]:
    """Persist each table through ``ResultTable.save_json`` (the golden format)."""
    names = []
    for table in tables_of(output):
        table.save_json(str(out / f"{table.name}.json"))
        names.append(table.name)
    return names


def main(argv: Optional[List[str]] = None) -> int:
    ready = clock()
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(argv[0]).read_text())
    out = Path(spec["out"])
    result: Dict[str, object] = dict(
        ready=ready,
        versions=dict(python=platform.python_version(), numpy=np.__version__),
    )
    if spec["mode"] == "untraced":
        result.update(run_untraced(spec, out))
    elif spec["mode"] == "traced":
        recorder = SpanRecorder()
        if spec["kind"] == "suite":
            result.update(run_traced_suite(spec, recorder, out))
        else:
            result.update(run_traced_sim(spec, recorder))
        result["spans"] = recorder.spans
    result["rss_mb"] = peak_rss_mb()
    result["children_cpu_s"] = children_cpu_s()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
