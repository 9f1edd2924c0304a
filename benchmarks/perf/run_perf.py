"""CLI entry point of the perf harness: measure, gate, persist.

Usage (from the repo root)::

    python benchmarks/perf/run_perf.py                  # full scale -> BENCH_perf.json
    python benchmarks/perf/run_perf.py --scale 0.1      # CI smoke scale

``BENCH_perf.json`` records the fresh numbers with the host and interpreter
they were measured on.  Every invocation also checks the in-run ratio gates
and exits non-zero when one fails (``latency_record``: an overflow record
costing more than ``LATENCY_RECORD_MAX_RATIO`` fill records).  An in-run gate
compares two measurements of the same run, so it arms on every host.
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

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"


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
    args = parser.parse_args(argv)

    current = run_all(scale=args.scale, repeats=args.repeats)
    current["python"] = platform.python_version()
    current["platform"] = platform.platform()
    current["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")

    args.output.write_text(json.dumps({"current": current}, indent=2, sort_keys=True) + "\n")
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
    return 1 if _in_run_gate_failed(current) else 0


if __name__ == "__main__":
    raise SystemExit(main())
