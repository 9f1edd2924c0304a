"""Tracked micro/macro performance benchmarks.

Unlike the ``benchmarks/test_bench_*`` experiment tables (which regenerate the
paper's figures), this package measures *how fast the code itself runs*: tensor
inference passes, cache operations, raw event-engine throughput and the
E9 replay.  ``run_perf.py`` writes the numbers to ``BENCH_perf.json`` at the
repo root and fails when an in-run ratio gate fails.  The wall clock a user
sees end to end is measured by ``e2ebench/``.
"""

from benchmarks.perf.harness import run_all  # noqa: F401
