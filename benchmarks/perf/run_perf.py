"""CLI entry point of the perf harness: measure, compare, persist.

Usage (from the repo root)::

    python benchmarks/perf/run_perf.py                  # full scale -> BENCH_perf.json
    python benchmarks/perf/run_perf.py --scale 0.1      # CI smoke scale
    python benchmarks/perf/run_perf.py --save-baseline  # refresh baseline.json
    python benchmarks/perf/run_perf.py --fail-below-ratio 0.7

``BENCH_perf.json`` records the committed baseline next to the fresh numbers
plus the derived speedups, so the perf trajectory of the repo is one file
diff away.  ``--fail-below-ratio R`` exits non-zero when the measured sim
events/sec drops below ``R`` times the baseline — the CI regression gate —
or when an in-run ratio gate fails (``latency_record``: an overflow record
costing more than ``LATENCY_RECORD_MAX_RATIO`` fill records).  The in-run
gates compare two measurements of the same run, so they arm on every host.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

try:  # Allow running from a checkout without installing the package.
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - environment-dependent
    sys.path.insert(0, str(REPO_ROOT / "src"))

if __package__ in (None, ""):  # executed as a script
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.harness import LATENCY_RECORD_MAX_RATIO, run_all  # noqa: E402

BASELINE_PATH = REPO_ROOT / "benchmarks" / "perf" / "baseline.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"


def _speedups(baseline: dict, current: dict) -> dict:
    """Ratios >1 mean the current tree is faster than the baseline."""

    def ratio(b: float, c: float) -> float:
        return c / b if b else 0.0

    speedups = {
        "tensor_inference_passes_per_sec": ratio(
            baseline["tensor_inference"]["passes_per_sec"], current["tensor_inference"]["passes_per_sec"]
        ),
        "tensor_training_steps_per_sec": ratio(
            baseline["tensor_training"]["steps_per_sec"], current["tensor_training"]["steps_per_sec"]
        ),
        "sim_engine_events_per_sec": ratio(
            baseline["sim_engine"]["events_per_sec"], current["sim_engine"]["events_per_sec"]
        ),
        "e9_replay_wall": ratio(current["e9_replay"]["wall_s"], baseline["e9_replay"]["wall_s"]),
        "e9_replay_events_per_sec": ratio(
            baseline["e9_replay"]["events_per_sec"], current["e9_replay"]["events_per_sec"]
        ),
    }
    for policy in ("lru", "lfu"):
        speedups[f"cache_{policy}_ops_per_sec"] = ratio(
            baseline["cache"][policy]["ops_per_sec"], current["cache"][policy]["ops_per_sec"]
        )
    # Sections added after the original baseline format: compare only when the
    # baseline file has them, so older baselines keep working.
    for section in ("trace_generation", "suite_parallel"):
        if section in baseline and section in current:
            speedups[f"{section}_requests_per_sec"] = ratio(
                baseline[section]["requests_per_sec"], current[section]["requests_per_sec"]
            )
    if "codec_training" in baseline and "codec_training" in current:
        speedups["codec_training_steps_per_sec"] = ratio(
            baseline["codec_training"]["steps_per_sec"], current["codec_training"]["steps_per_sec"]
        )
    if "e9_replay_vectorized" in baseline and "e9_replay_vectorized" in current:
        speedups["e9_replay_vectorized_events_per_sec"] = ratio(
            baseline["e9_replay_vectorized"]["events_per_sec"],
            current["e9_replay_vectorized"]["events_per_sec"],
        )
    if "cohort_kernel" in baseline and "cohort_kernel" in current:
        speedups["cohort_kernel_ops_per_sec"] = ratio(
            baseline["cohort_kernel"]["ops_per_sec"], current["cohort_kernel"]["ops_per_sec"]
        )
    return speedups


def _in_run_gate_failed(current: dict) -> bool:
    """Check the host-independent ratio gates; True when one fails."""
    ratio = current["latency_record"]["overflow_over_fill"]
    if ratio > LATENCY_RECORD_MAX_RATIO:
        print(
            f"PERF REGRESSION: latency_record overflow costs {ratio:.2f}x a fill record "
            f"(> {LATENCY_RECORD_MAX_RATIO:.1f}x gate)"
        )
        return True
    print(
        f"perf gate ok: latency_record overflow at {ratio:.2f}x a fill record "
        f"(gate {LATENCY_RECORD_MAX_RATIO:.1f}x)"
    )
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor (default 1.0)")
    parser.add_argument("--repeats", type=int, default=3, help="micro-benchmark rounds, best kept (default 3)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="result JSON path")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH, help="baseline JSON to compare against")
    parser.add_argument(
        "--save-baseline",
        action="store_true",
        help="write the measured numbers to the baseline path instead of comparing",
    )
    parser.add_argument(
        "--fail-below-ratio",
        type=float,
        default=None,
        metavar="R",
        help="exit 1 when current sim events/sec < R * baseline (regression gate)",
    )
    args = parser.parse_args(argv)

    current = run_all(scale=args.scale, repeats=args.repeats)
    current["python"] = platform.python_version()
    current["platform"] = platform.platform()
    current["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")

    if args.save_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    payload: dict = {"current": current}
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        payload["baseline"] = baseline
        payload["speedups_vs_baseline"] = _speedups(baseline, current)
        if baseline.get("scale") != current["scale"]:
            # Throughputs are still comparable across scales; walls are not.
            payload["speedups_vs_baseline"]["note"] = (
                f"baseline scale {baseline.get('scale')} != current scale {current['scale']}; "
                "wall-clock ratios are not like-for-like, per-second ratios are"
            )

    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {args.output}")
    sections = ("tensor_inference", "tensor_training", "codec_training", "sim_engine",
                "e9_replay", "e9_replay_unbatched", "e9_replay_vectorized", "cohort_kernel",
                "latency_record", "trace_generation", "suite_parallel")
    for section in sections:
        metrics = current[section]
        rate_key = next(key for key in metrics if key.endswith("_per_sec"))
        print(f"  {section:18s} {metrics[rate_key]:>14,.1f} {rate_key}")
    for policy in ("lru", "lfu"):
        print(f"  cache[{policy}]{'':9s} {current['cache'][policy]['ops_per_sec']:>14,.1f} ops_per_sec")
    if "speedups_vs_baseline" in payload:
        print("speedups vs baseline:")
        for key, value in sorted(payload["speedups_vs_baseline"].items()):
            if isinstance(value, float):
                print(f"  {key:36s} {value:6.2f}x")

    if args.fail_below_ratio is not None:
        in_run_failed = _in_run_gate_failed(current)
        if "baseline" not in payload:
            # An explicitly requested gate with nothing to compare against is
            # an error, not a silent pass — otherwise a lost baseline file
            # would turn the CI regression gate green forever.
            print(f"PERF GATE ERROR: baseline file {args.baseline} not found; nothing to compare against")
            return 2
        baseline = payload["baseline"]
        mismatches = [
            f"{field}: baseline {baseline.get(field)!r} != current {current[field]!r}"
            for field in ("platform", "python")
            if baseline.get(field) != current[field]
        ]
        if mismatches:
            # Absolute throughputs are only comparable on the machine and
            # interpreter that produced the baseline; on any other host the
            # gate would measure the hardware, not the code.  Skip loudly.
            print("PERF GATE SKIPPED: baseline was recorded on a different host")
            for line in mismatches:
                print(f"  {line}")
            print("  (re-record with --save-baseline on this host to re-arm the gate)")
            return 1 if in_run_failed else 0
        gate = args.fail_below_ratio
        gated = {
            "sim_engine": "sim_engine_events_per_sec",
            "tensor_training": "tensor_training_steps_per_sec",
            "tensor_inference": "tensor_inference_passes_per_sec",
        }
        for optional, key in (
            ("trace_generation", "trace_generation_requests_per_sec"),
            ("codec_training", "codec_training_steps_per_sec"),
            ("e9_replay_vectorized", "e9_replay_vectorized_events_per_sec"),
            ("cohort_kernel", "cohort_kernel_ops_per_sec"),
        ):
            if key in payload["speedups_vs_baseline"]:
                gated[optional] = key
        failed = False
        for section, key in gated.items():
            achieved = payload["speedups_vs_baseline"][key]
            if achieved < gate:
                print(f"PERF REGRESSION: {section} at {achieved:.2f}x of baseline (< {gate:.2f}x gate)")
                failed = True
            else:
                print(f"perf gate ok: {section} at {achieved:.2f}x of baseline (gate {gate:.2f}x)")
        if failed or in_run_failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
