"""End-to-end benchmark: the wall clock a user of this repository sees.

Run from the repository root::

    python3 e2ebench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Each workload is a closed batch: one caller replays a fixed input, generated
from ``--seed``, to completion.  Arrivals are open-loop in simulated time; the
benchmark measures host time.  A workload runs one backend, its *measured*
leg, through ``repro.experiments.run_experiment``.  Every leg is a fresh
interpreter (see ``leg.py``) and uses no process pool except the sharded
backend's own workers.  ``e2ebench/workloads.json`` says what each workload
runs and which layers it exercises and bypasses.

``--trace 0`` reports the end-to-end metrics.  The measured leg replays the
``--seed`` input, then the next seeded inputs while another replay fits in
``--seconds`` (and at least the workload's ``inputs``); each metric is the
median over them.

``--trace 1`` reports the per-layer metrics.  On the ``--seed`` input it runs
the measured leg untraced and again traced, the serial engine as the
*reference* of a vectorized workload (its tables must equal the reference
field for field; the in-run speedup over it is printed), the workload's side
backends untraced and traced (the sharded backend on ``e9_scale``: checked
for conservation only, its divergence from serial printed), and the ledger
legs: the vectorized backend with ``cross_check=False`` and the codec
experiments under ``REPRO_GRAPH=0``.  Its spans are written to
``.e2ebench/traces/``.

Every run checks every row (see ``checks.py``), prints the host facts, and
ends with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.
A failed row makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from checks import (
    Tally,
    check_conservation,
    check_goldens,
    check_rows,
    check_same_rows,
    check_traced_rows,
    load_tables,
)
from spans import SpanRecorder, clock, graft, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEG = HERE / "leg.py"
GOLDEN_DIR = ROOT / "benchmarks" / "results"
WORK_DIR = ROOT / ".e2ebench"

#: Extra bare interpreter start-ups per run, so ``setup_s`` is a median.
SETUP_PROBES = 8
#: A leg that runs longer than this is killed and the run fails.
LEG_TIMEOUT_S = 170.0
#: The seed whose tables the committed goldens record.
GOLDEN_SEED = 0

SIM_LAYERS = ("tracegen", "build", "replay", "hook", "report")
SUITE_LAYERS = ("nn", "caching", "edge", "resilience", "placement")

#: The host fact ``sharded_driver`` of a run that starts no sharded leg.
NO_SHARDED_LEG = "no sharded leg"

#: Offset between the seeded inputs one run replays (pass 0 uses --seed).
INPUT_SEED_STRIDE = 1_000_003


def input_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th input; the first is ``seed`` itself."""
    return seed + index * INPUT_SEED_STRIDE


class LegFailure(Exception):
    """A leg process exited non-zero, timed out, or wrote no result."""


def available_cpus() -> int:
    return len(os.sched_getaffinity(0)) or 1


def load_definitions() -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    return dict(benchmark=benchmark, workloads=workloads["workloads"], layers=workloads["layers"])


def leg_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The leg's environment: ``src`` importable, no inherited ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class Run:
    """One invocation: launches the legs, checks them, derives the metrics.

    ``scale`` shrinks every experiment for the benchmark's own tests; the
    goldens record full scale, so they are compared only at ``scale=1.0``.
    """

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, scale: float = 1.0):
        definitions = load_definitions()
        self.definitions = definitions
        self.workload = workload
        self.definition = definitions["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.experiments = [
            dict(experiment, scale=experiment["scale"] * scale)
            for experiment in self.definition["experiments"]
        ]
        self.golden = scale == 1.0
        self.backend = self.definition["backend"]
        # A sharded leg runs nproc shards, but at least two so a one-core
        # host still shards (the backend clamps to the cell count).
        self.shards = max(2, available_cpus())
        self.tally = Tally()
        self.recorder = SpanRecorder()
        self.work = WORK_DIR / f"run-{os.getpid()}"
        self.workload_span: Optional[int] = None
        self.launched = 0
        self.versions: Dict[str, str] = {}
        self.sharded_driver = NO_SHARDED_LEG
        self.goldens_compared = 0
        self.lines: List[str] = []

    # ------------------------------------------------------------------ #
    # Legs
    # ------------------------------------------------------------------ #
    def launch(
        self,
        role: str,
        mode: str,
        backend: str,
        experiments: Optional[List[dict]] = None,
        env: Optional[Dict[str, str]] = None,
        backend_options: Optional[dict] = None,
        seed: Optional[int] = None,
    ) -> dict:
        """Spawn one leg process, wait for it, and return its result."""
        seed = self.seed if seed is None else seed
        self.launched += 1
        out = self.work / f"{self.launched:02d}-{role}"
        out.mkdir(parents=True)
        spec = dict(
            mode=mode,
            kind=self.definition["kind"],
            backend=backend,
            shards=self.shards if backend == "sharded" else None,
            backend_options=backend_options,
            experiments=self.experiments if experiments is None else experiments,
            seed=seed,
            out=str(out),
        )
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec))
        spawned = clock()
        process = subprocess.Popen(
            [sys.executable, str(LEG), str(spec_path)],
            env=leg_env(env),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=LEG_TIMEOUT_S)
        except BaseException as error:
            # Timed out or interrupted: take the leg and its shard workers down.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise LegFailure(f"{role} leg exceeded {LEG_TIMEOUT_S:.0f}s") from error
            raise
        exited = clock()
        result_path = out / "result.json"
        if process.returncode != 0 or not result_path.is_file():
            tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise LegFailure(f"{role} leg exited {process.returncode}: " + " | ".join(tail))
        result = json.loads(result_path.read_text())
        result.update(
            role=role, backend=backend, seed=seed, out=out, spawned=spawned, exited=exited
        )
        result["setup_s"] = result["ready"] - spawned
        self.versions = result["versions"]
        if backend == "sharded" and mode != "probe":
            # Forked shard workers are this leg's only children.
            self.sharded_driver = "process" if result["children_cpu_s"] > 0 else "inline"
        leg_id = self.recorder.add(
            "leg", spawned, exited, self.workload_span, role=role, backend=backend, mode=mode
        )
        self.recorder.add("setup", spawned, result["ready"], leg_id)
        if "spans" in result:
            graft(result.pop("spans"), leg_id, self.recorder)
        return result

    def tables(self, leg: dict, experiments: List[str]) -> Dict[str, dict]:
        """The tables a leg saved for the named experiments."""
        names = [name for call in leg["calls"] if call["name"] in experiments for name in call["tables"]]
        return load_tables(leg["out"], names)

    def check_leg(self, leg: dict, name: str) -> Dict[str, dict]:
        """Row checks every untraced leg gets; returns its tables."""
        golden_experiments = {e["name"] for e in self.experiments if e["golden"]}
        tables: Dict[str, dict] = {}
        for call in leg["calls"]:
            call_tables = load_tables(leg["out"], call["tables"])
            check_rows(name, call_tables, self.tally)
            check_conservation(name, call_tables, self.tally, call.get("expected_requests"))
            if self.golden and leg["seed"] == GOLDEN_SEED and call["name"] in golden_experiments:
                check_goldens(name, call_tables, GOLDEN_DIR, self.tally)
                self.goldens_compared += len(call_tables)
            tables.update(call_tables)
        return tables

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def untraced(self) -> Dict[str, float]:
        deadline = clock() + self.seconds
        setups = [self.launch("probe", "probe", self.backend)["setup_s"] for _ in range(SETUP_PROBES)]
        measured = [self.launch("measured", "untraced", self.backend)]
        self.check_leg(measured[0], "measured")
        # Further passes replay the next seeded inputs while another fits in
        # --seconds, and at least as many as the workload asks for.
        minimum = self.definition.get("inputs", 1)
        while len(measured) < minimum or (
            clock() + (measured[-1]["exited"] - measured[-1]["spawned"]) <= deadline
        ):
            index = len(measured)
            leg = self.launch("measured", "untraced", self.backend, seed=input_seed(self.seed, index))
            self.check_leg(leg, f"measured#{index + 1}")
            measured.append(leg)
        walls = [leg["wall_s"] for leg in measured]
        self.lines.append(
            f"measured {self.backend} leg x{len(measured)}: wall_s "
            + " ".join(f"{wall:.3f}" for wall in walls)
        )
        return {
            "setup_s": statistics.median(setups + [leg["setup_s"] for leg in measured]),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(leg["rss_mb"] for leg in measured),
        }

    def check_measured(self, measured: dict, reference: Optional[dict]) -> Dict[str, dict]:
        """Row checks, plus the field-for-field comparison when a reference ran."""
        tables = self.check_leg(measured, "measured")
        if reference is not None:
            reference_tables = self.check_leg(reference, "reference")
            check_same_rows("measured", tables, reference_tables, self.tally, suffix="_vectorized")
        return tables

    def sharded_side(self, serial: dict, serial_tables: Dict[str, dict]) -> dict:
        """The sharded side leg of an e9 workload: untraced, then traced.

        It is checked for conservation, and its traced rows against its own
        untraced tables, but not against serial; its divergence from serial
        is printed.  Returns the traced leg, with the untraced wall added.
        """
        untraced = self.launch("sharded", "untraced", "sharded")
        tables = self.check_leg(untraced, "sharded")
        self.compare_sharded(tables, serial_tables)
        self.lines.append(
            f"sharded speedup_vs_serial {serial['wall_s'] / untraced['wall_s']:.3f} "
            f"(sharded {untraced['wall_s']:.3f} s with {self.shards} shards, serial "
            f"{serial['wall_s']:.3f} s on the same input; not gated)"
        )
        traced = self.launch("sharded_traced", "traced", "sharded")
        check_traced_rows("sharded_traced", self.definition["kind"], traced["rows"], tables, self.tally)
        traced["untraced_wall_s"] = untraced["wall_s"]
        return traced

    def compare_sharded(self, tables: Dict[str, dict], reference: Dict[str, dict]) -> None:
        """Show the sharded backend's divergence from serial, row by row."""
        serial = {
            (row["profile"], row["batching"]): row
            for table in reference.values()
            for row in table["rows"]
            if "profile" in row and "cell" not in row
        }
        for table in tables.values():
            for row in table["rows"]:
                if "profile" in row and "cell" not in row:
                    other = serial[(row["profile"], row["batching"])]
                    self.lines.append(
                        f"sharded vs serial {row['profile']}/{row['batching']}: "
                        f"p95_ms {row['p95_ms']:.1f} vs {other['p95_ms']:.1f}, "
                        f"hit_ratio {row['hit_ratio']:.4f} vs {other['hit_ratio']:.4f}"
                    )

    def traced(self) -> Dict[str, float]:
        reference = None
        if self.definition.get("reference"):
            reference = self.launch("reference", "untraced", self.definition["reference"])
        measured = self.launch("measured", "untraced", self.backend)
        untraced_tables = self.check_measured(measured, reference)
        if reference:
            self.lines.append(
                f"speedup_vs_serial {reference['wall_s'] / measured['wall_s']:.3f} "
                f"({self.backend} {measured['wall_s']:.3f} s, serial {reference['wall_s']:.3f} s "
                "on the same input; not gated)"
            )
        traced = self.launch("traced", "traced", self.backend)
        kind = self.definition["kind"]
        cross_check_off = graph_on = graph_off = sharded = None
        if kind == "suite":
            check_same_rows("traced", self.check_leg(traced, "traced"), untraced_tables, self.tally)
            nn = [e for e in self.experiments if e["layer"] == "nn"]
            nn_names = [e["name"] for e in nn]
            graph_on = self.launch("graph_on", "untraced", self.backend, nn, env={"REPRO_GRAPH": "1"})
            graph_off = self.launch("graph_off", "untraced", self.backend, nn, env={"REPRO_GRAPH": "0"})
            for leg in (graph_on, graph_off):
                tables = self.check_leg(leg, leg["role"])
                check_same_rows(leg["role"], tables, self.tables(measured, nn_names), self.tally)
        else:
            check_traced_rows("traced", kind, traced["rows"], untraced_tables, self.tally)
            if "sharded" in self.definition.get("side_backends", ()):
                sharded = self.sharded_side(measured, untraced_tables)
            if self.backend == "vectorized":
                cross_check_off = self.launch(
                    "traced_cross_check_off", "traced", self.backend,
                    backend_options={"cross_check": False},
                )
                check_traced_rows(
                    "traced_cross_check_off", kind, cross_check_off["rows"], untraced_tables, self.tally
                )
        return self.layer_metrics(
            measured, reference, traced, cross_check_off, graph_on, graph_off, sharded
        )

    # ------------------------------------------------------------------ #
    # Per-layer metrics
    # ------------------------------------------------------------------ #
    def layer_metrics(
        self, measured, reference, traced, cross_check_off, graph_on, graph_off, sharded
    ):
        leg_spans = self.leg_spans(traced)
        totals = totals_by_name(leg_spans)

        def busy(name: str) -> float:
            return totals.get(name, {}).get("busy_s", 0.0)

        layer_self = sum(totals.get(name, {}).get("self_s", 0.0) for name in SIM_LAYERS + SUITE_LAYERS)
        rows = traced.get("rows", [])

        def total(field: str) -> float:
            return sum(row[field] for row in rows)

        events = total("events")
        replay_self = totals.get("replay", {}).get("self_s", 0.0)
        lookups, batches = total("lookups"), total("batches")
        shard_rows = [row["sharded"] for row in sharded["rows"]] if sharded else []
        worker_cpu = sum((entry["worker_cpu_s"] for entry in shard_rows), 0.0)
        metrics = {
            "tracegen.busy_s": busy("tracegen"),
            "build.busy_s": busy("build"),
            "replay.busy_s": busy("replay"),
            "replay.self_s": replay_self,
            "replay.events": events,
            "replay.ns_per_event": replay_self / events * 1e9 if events else 0.0,
            "hook.busy_s": busy("hook"),
            "hook.calls": total("hook_calls"),
            "report.busy_s": busy("report"),
            "vectorized.fallback_rows": sum(1 for row in rows if row["fallback"])
            if self.backend == "vectorized"
            else 0,
            "vectorized.cross_check_s": traced["wall_s"] - cross_check_off["wall_s"]
            if cross_check_off
            else 0.0,
            "sharded.windows": sum((entry["windows"] for entry in shard_rows), 0.0),
            "sharded.worker_cpu_s": worker_cpu,
            "sharded.idle_s": sum(e["shards"] * e["replay_wall_s"] for e in shard_rows) - worker_cpu,
            "sharded.speedup_vs_serial": measured["wall_s"] / sharded["untraced_wall_s"]
            if sharded
            else 0.0,
            "cache.hit_ratio": total("hits") / lookups if lookups else 0.0,
            "cache.neighbor_fetches": total("neighbor_fetches"),
            "cache.cloud_fetches": total("cloud_fetches"),
            "cache.coalesced": total("coalesced"),
            "batching.mean_batch_size": total("batched_requests") / batches if batches else 0.0,
            "mobility.handovers": total("handovers"),
            "failover.failovers": total("failovers"),
            "sim.dropped": total("dropped"),
            "nn.busy_s": busy("nn"),
            "graph.saved_s": graph_off["wall_s"] - graph_on["wall_s"] if graph_on else 0.0,
            "graph.rss_mb": graph_on["rss_mb"] - graph_off["rss_mb"] if graph_on else 0.0,
            "caching.busy_s": busy("caching"),
            "edge.busy_s": busy("edge"),
            "resilience.busy_s": busy("resilience"),
            "placement.busy_s": busy("placement"),
            "tracing.overhead_s": traced["wall_s"] - measured["wall_s"],
            "tracing.unattributed_s": traced["wall_s"] - layer_self,
            "speedup_vs_serial": reference["wall_s"] / measured["wall_s"] if reference else 1.0,
        }
        metrics.update(self.suite_counters(traced))
        parts = " + ".join(
            f"{name} {totals[name]['self_s']:.3f}"
            for name in SIM_LAYERS + SUITE_LAYERS
            if name in totals
        )
        self.lines.append(
            f"traced {self.backend} leg: wall {traced['wall_s']:.3f} s = {parts} "
            f"+ unattributed {metrics['tracing.unattributed_s']:.3f} (self times); "
            f"untraced wall {measured['wall_s']:.3f} s"
        )
        return metrics

    def leg_spans(self, traced: dict) -> List[dict]:
        """The spans recorded inside the traced leg's ``calls`` span."""
        spans = self.recorder.spans
        (calls,) = [
            span for span in spans
            if span["name"] == "calls" and spans[span["parent"]].get("role") == traced["role"]
        ]
        inside = {calls["id"]}
        for span in spans[calls["id"] + 1:]:
            if span["parent"] in inside:
                inside.add(span["id"])
        return [spans[index] for index in sorted(inside)]

    def suite_counters(self, traced: dict) -> Dict[str, float]:
        counters = {
            "resilience.retries": 0, "resilience.hedges": 0, "resilience.shed": 0,
            "placement.solves": 0, "placement.forwards": 0,
        }
        if "calls" not in traced:
            return counters
        layer_of = {e["name"]: e["layer"] for e in self.experiments}
        for call in traced["calls"]:
            for table in load_tables(traced["out"], call["tables"]).values():
                for row in table["rows"]:
                    if "phase" in row or "requests" not in row:
                        continue
                    if layer_of[call["name"]] == "resilience":
                        counters["resilience.retries"] += row.get("retries", 0)
                        counters["resilience.hedges"] += row.get("hedges", 0)
                        counters["resilience.shed"] += row.get("shed", 0)
                    elif layer_of[call["name"]] == "placement":
                        counters["placement.solves"] += row.get("placement_solves", 0)
                        counters["placement.forwards"] += row.get("placed_remote", 0)
        return counters

    # ------------------------------------------------------------------ #
    def execute(self) -> dict:
        """Run the workload; return the result object printed as the last line."""
        metrics: Dict[str, float] = {}
        try:
            with self.recorder.span(
                "workload", workload=self.workload, seed=self.seed, traced=self.trace
            ) as self.workload_span:
                metrics = self.traced() if self.trace else self.untraced()
        except LegFailure as error:
            self.tally.fail(("run",), str(error))
        finally:
            if self.trace:
                self.write_trace()
            shutil.rmtree(self.work, ignore_errors=True)
        section = "per_layer" if self.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in self.definitions["benchmark"][section]}
        return dict(
            correct=self.tally.failed == 0,
            attempted=max(self.tally.attempted, 1),
            failed=self.tally.failed,
            metrics={
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in metrics
            },
        )

    def host(self) -> dict:
        return dict(
            nproc=available_cpus(),
            python=self.versions.get("python", platform.python_version()),
            numpy=self.versions.get("numpy", "unknown"),
            sharded_driver=self.sharded_driver,
            shards=None if self.sharded_driver == NO_SHARDED_LEG else self.shards,
        )

    def write_trace(self) -> None:
        path = WORK_DIR / "traces" / f"{self.workload}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(dict(host=self.host(), workload=self.workload, seed=self.seed,
                            spans=self.recorder.spans))
        )
        self.lines.append(f"spans written to {path.relative_to(ROOT)}")


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running leg is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"e2ebench: no repro sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = sorted(load_definitions()["workloads"])
    args = parse_args(argv, workloads)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    print("host: " + json.dumps(run.host()))
    for line in run.lines:
        print(line)
    problems = run.tally.problems()
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(
        f"checks: {result['attempted']} rows attempted, {result['failed']} failed; "
        f"{run.goldens_compared} tables compared with their committed goldens"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
