"""Command-line front end for the scenario engine.

Installed as the ``repro-scenario`` console script::

    repro-scenario list
    repro-scenario show flash_crowd
    repro-scenario run --all --scale 0.05
    repro-scenario run --all --scale 0.05 --backend sharded --shards 2
    repro-scenario run cell_outage flash_crowd --jobs 4 --output-dir results/
    repro-scenario compare cell_outage --policies lru,lfu,semantic-popularity

``run`` replays named scenarios (or the whole catalog) and prints the summary
and per-phase tables; ``compare`` runs one scenario under several cache
policies and pivots the headline metrics per policy.  Rows fan across the
parallel runtime with ``--jobs``; every table is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.experiments.cli import (
    add_shared_arguments,
    placement_from_args,
    validate_shared_arguments,
)
from repro.experiments.harness import save_output
from repro.metrics.reporting import ResultTable
from repro.scenarios.catalog import catalog, get_scenario, scenario_names
from repro.scenarios.runner import run_catalog


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-scenario`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Run declarative stress scenarios through the multi-cell simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the scenario catalog and exit")

    show = sub.add_parser("show", help="print one scenario's full JSON spec")
    show.add_argument("name", help="scenario name (see `repro-scenario list`)")

    def common(p: argparse.ArgumentParser) -> None:
        # --seed/--scale/--jobs/--backend/--shards are the shared repro flag
        # set (same semantics as repro-experiment); only the help strings are
        # specialized here.
        add_shared_arguments(
            p,
            scale_help="arrival-rate scale factor; the timeline (phases, fault "
            "times) never moves, only the request count (default 1.0)",
            jobs_help="worker processes for the (scenario x policy) rows; 0 = all "
            "cores; results are bit-identical to --jobs 1 (default 1)",
        )
        p.add_argument("--output-dir", default=None, help="directory to persist tables as JSON")
        p.add_argument(
            "--no-phases", action="store_true", help="print only the summary table"
        )

    run = sub.add_parser("run", help="run scenarios and print their result tables")
    run.add_argument("names", nargs="*", help="scenario names (default: requires --all)")
    run.add_argument("--all", action="store_true", help="run the whole catalog")
    run.add_argument(
        "--policy", default=None, help="override the cache policy of every scenario"
    )
    common(run)

    compare = sub.add_parser(
        "compare", help="run one scenario under several cache policies and pivot"
    )
    compare.add_argument("name", help="scenario to compare policies on")
    compare.add_argument(
        "--policies",
        default="lru,lfu,semantic-popularity",
        help="comma-separated cache policies (default lru,lfu,semantic-popularity)",
    )
    common(compare)

    fuzz = sub.add_parser(
        "fuzz",
        help="property-test random scenarios through the invariant harness",
        description=(
            "Sample random-but-valid scenario specs and drive each through the "
            "invariant harness (engine audits, determinism, three-way backend "
            "differential). A failing spec is shrunk to a minimal example and "
            "saved to the regression corpus. Requires the `hypothesis` test "
            "dependency."
        ),
    )
    fuzz.add_argument("--cases", type=int, default=50, help="specs to sample (default 50)")
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="harness seed; generation, workloads and deployments all derive "
        "from it, so one integer replays the whole run (default 0)",
    )
    fuzz.add_argument(
        "--scale", type=float, default=1.0, help="arrival-rate scale factor (default 1.0)"
    )
    fuzz.add_argument(
        "--backend",
        choices=("serial", "sharded", "vectorized"),
        default="sharded",
        help="'serial' runs the engine + determinism layers only; 'sharded' "
        "(default) or 'vectorized' adds the three-way differential layer "
        "(serial-vs-sharded divergence envelope + serial-vs-vectorized "
        "byte-identity)",
    )
    fuzz.add_argument(
        "--shards",
        default="2,3",
        help="comma-separated shard counts for the differential layer "
        "(clamped per spec to its cell count; default 2,3)",
    )
    fuzz.add_argument(
        "--regressions-dir",
        default="tests/scenarios/regressions",
        help="where shrunk failing specs are serialized "
        "(default tests/scenarios/regressions)",
    )
    return parser


def _print_tables(tables: List[ResultTable]) -> None:
    for table in tables:
        print(table.to_text())
        print()


def _run_fuzz(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``fuzz`` subcommand body (lazy-imports the hypothesis harness)."""
    try:
        from repro.scenarios import fuzz as fuzz_module
    except ImportError as error:
        parser.error(
            f"the fuzz harness needs the `hypothesis` test dependency ({error}); "
            "install the [dev] extra to use `repro-scenario fuzz`"
        )
    if args.cases < 1:
        parser.error(f"--cases must be >= 1, got {args.cases}")
    try:
        shard_counts = tuple(int(s) for s in args.shards.split(",") if s.strip())
    except ValueError:
        parser.error(f"--shards must be comma-separated integers, got {args.shards!r}")
    if not shard_counts or any(s < 2 for s in shard_counts):
        parser.error(f"--shards values must be >= 2, got {args.shards!r}")
    differential = args.backend in ("sharded", "vectorized")
    layers = (
        "engine + determinism + differential" if differential else "engine + determinism"
    )
    print(
        f"fuzzing {args.cases} scenario specs (seed {args.seed}, scale {args.scale}, "
        f"layers: {layers})"
    )
    outcome = fuzz_module.fuzz(
        cases=args.cases,
        seed=args.seed,
        scale=args.scale,
        shard_counts=shard_counts,
        differential=differential,
        regressions_dir=args.regressions_dir,
        found_by=f"repro-scenario fuzz --cases {args.cases} --seed {args.seed} "
        f"--backend {args.backend}",
    )
    print(f"hypothesis generation seed: {outcome.hypothesis_seed}")
    if outcome.ok:
        print(f"OK: {outcome.cases} cases, {outcome.executed} executions, no violations")
        return 0
    print(f"FAILED: {outcome.error}")
    print(f"shrunk failing spec: {outcome.failure_spec.name}")
    if outcome.shrink_capped:
        print(
            "shrinking stopped at hypothesis's five-minute cap: this spec is "
            "not fully shrunk, and how far shrinking gets depends on host speed"
        )
    if outcome.regression_path is not None:
        print(f"regression saved to {outcome.regression_path}")
        print(
            "replay it with: PYTHONPATH=src python -m pytest "
            "tests/scenarios/test_regressions.py, or re-run this exact command "
            f"(--seed {outcome.seed} regenerates the same cases; the shrunk spec "
            "can differ when shrinking hits the cap)"
        )
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        specs = catalog()
        width = max(len(name) for name in specs)
        for spec in specs.values():
            stamp = f"{len(spec.phases)} phases, {len(spec.events)} events"
            print(f"{spec.name.ljust(width)}  [{stamp}]  {spec.description}")
        return 0

    if args.command == "show":
        try:
            print(get_scenario(args.name).to_json())
        except KeyError as error:
            parser.error(str(error))
        return 0

    if args.command == "fuzz":
        return _run_fuzz(parser, args)

    validate_shared_arguments(parser, args)

    if args.command == "run":
        if args.all:
            names = scenario_names()
        elif args.names:
            names = list(args.names)
        else:
            parser.error("name at least one scenario or pass --all")
        try:
            specs = [get_scenario(name) for name in names]
        except KeyError as error:
            parser.error(str(error))
        policies = [args.policy] if args.policy else None
        tables = run_catalog(
            specs,
            seed=args.seed,
            scale=args.scale,
            jobs=args.jobs,
            policies=policies,
            backend=args.backend,
            shards=args.shards,
            worker_timeout=args.worker_timeout,
            placement=placement_from_args(args),
        )
        shown = [tables["summary"]] if args.no_phases else list(tables.values())
        _print_tables(shown)
        if args.output_dir:
            save_output("scenario", tables, args.output_dir)
            print(f"tables saved under {args.output_dir}")
        return 0

    # compare
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        parser.error(str(error))
    policies = [policy.strip() for policy in args.policies.split(",") if policy.strip()]
    if not policies:
        parser.error("--policies must name at least one policy")
    tables = run_catalog(
        [spec],
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        policies=policies,
        table_prefix=f"compare_{spec.name}",
        backend=args.backend,
        shards=args.shards,
        worker_timeout=args.worker_timeout,
        placement=placement_from_args(args),
    )
    pivot = ResultTable(
        name=f"{spec.name}_policy_comparison",
        description=f"Headline metrics of {spec.name!r} per cache policy.",
    )
    for row in tables["summary"].rows:
        # Every terminal kind that is *not* a completion counts as incomplete;
        # resilience-bearing specs report the ratio themselves, plain specs
        # derive it from the drop count so the pivot is always populated.
        incomplete = (
            row["dropped"] + row.get("shed", 0) + row.get("deadline_exceeded", 0)
        )
        terminal = row["completed"] + incomplete
        pivot.add_row(
            policy=row["policy"],
            completed=row["completed"],
            dropped=row["dropped"],
            incomplete_ratio=row.get(
                "incomplete_ratio", incomplete / terminal if terminal else 0.0
            ),
            p50_ms=row["p50_ms"],
            p95_ms=row["p95_ms"],
            hit_ratio=row["hit_ratio"],
            cloud_fetches=row["cloud_fetches"],
            backhaul_mb=row["backhaul_mb"],
        )
    _print_tables([pivot] if args.no_phases else [pivot, tables["phases"]])
    if args.output_dir:
        save_output(f"compare_{spec.name}", tables, args.output_dir)
        print(f"tables saved under {args.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
