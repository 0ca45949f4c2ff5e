"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``    -- run one deployment and print (or emit as JSON) its metrics.
- ``model``  -- evaluate the §4.3 performance model for a deployment.
- ``tune``   -- automatic configuration search (§8 future work).
- ``table``  -- regenerate Table 1 or Table 2.
- ``fig``    -- regenerate an evaluation figure's series (fig5..fig12).
- ``scenarios`` -- list / show / validate / run the declarative scenario
  packs checked in under ``scenarios/``.
- ``capacity`` -- sweep offered load through the workload engine and
  report how many users fit a topology (the saturation knee).
- ``perf``   -- run the hot-path microbenchmarks (BENCH_core.json).
- ``report`` -- run one deployment with observability on and emit its
  RunReport JSON (per-node utilization, saturation flags, phase spans).

Examples::

    python -m repro run --mode kauri --scenario global --n 100 --duration 60
    python -m repro model --n 400 --scenario global
    python -m repro tune --n 400 --scenario global --objective throughput
    python -m repro table 2
    python -m repro fig 12a
    python -m repro scenarios validate
    python -m repro scenarios run smoke --report run_report.json
    python -m repro perf --quick --check BENCH_core.json
    python -m repro report --mode kauri --n 100 --duration 30 --validate
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from repro.analysis import FIGURES, format_table
from repro.config import KB, SCENARIOS, ProtocolConfig, resilientdb_clusters
from repro.core.modes import MODES

#: Every registered mode, straight from the registry -- adding a ModeSpec
#: automatically surfaces it in ``run``/``report`` and in ``repro modes``.
MODE_CHOICES = sorted(MODES)


def _add_run_parser(subparsers) -> None:
    p = subparsers.add_parser("run", help="run one deployment")
    p.add_argument("--mode", default="kauri", choices=MODE_CHOICES)
    p.add_argument("--scenario", default="global",
                   choices=[*SCENARIOS, "heterogeneous"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--max-commits", type=int, default=None)
    p.add_argument("--block-size-kb", type=int, default=250)
    p.add_argument("--stretch", type=float, default=None,
                   help="pipelining stretch; default follows the model")
    p.add_argument("--adaptive-stretch", action="store_true",
                   help="adapt the stretch at runtime (§6 future work)")
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--lanes", type=int, default=1, help="uplink lanes per process")
    p.add_argument("--crash-leader-at", type=float, default=None,
                   help="crash the view-0 leader at this time")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the result as JSON")


def _cmd_run(args) -> int:
    from repro.runtime.cluster import Cluster
    from repro.runtime.experiment import run_experiment

    scenario = (
        resilientdb_clusters() if args.scenario == "heterogeneous" else args.scenario
    )
    crashes = []
    if args.crash_leader_at is not None:
        probe = Cluster(
            n=None if args.scenario == "heterogeneous" else args.n,
            mode=args.mode,
            scenario=scenario,
        )
        crashes = [(probe.policy.leader_of(0), args.crash_leader_at)]
    config = ProtocolConfig(
        block_size=args.block_size_kb * KB,
        stretch=args.stretch,
        adaptive_stretch=args.adaptive_stretch,
    )
    result = run_experiment(
        mode=args.mode,
        scenario=scenario,
        n=None if args.scenario == "heterogeneous" else args.n,
        duration=args.duration,
        max_commits=args.max_commits,
        height=args.height,
        seed=args.seed,
        config=config,
        crashes=crashes,
        uplink_lanes=args.lanes,
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(result), indent=2, default=str))
        return 0
    print(f"mode={result.mode} scenario={result.scenario} n={result.n}")
    print(f"simulated {result.duration:.1f}s, committed {result.committed_blocks} blocks")
    print(f"throughput : {result.throughput_txs:,.0f} tx/s "
          f"({result.throughput_blocks:.2f} blocks/s)")
    print(f"latency    : p50 {result.latency['p50']:.3f}s, "
          f"p95 {result.latency['p95']:.3f}s")
    print(f"view changes: {result.view_changes} (max view {result.max_view})")
    if result.fast_commits or result.fast_fallbacks:
        print(f"fast path  : {result.fast_commits} fast commits, "
              f"{result.fast_fallbacks} fallbacks")
    if result.cpu_saturated:
        print("NOTE: leader CPU saturated "
              f"(utilization {result.leader_cpu_utilization:.0%})")
    return 0


def _add_model_parser(subparsers) -> None:
    p = subparsers.add_parser("model", help="evaluate the §4.3 performance model")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--scenario", default="global", choices=list(SCENARIOS))
    p.add_argument("--block-size-kb", type=int, default=250)
    p.add_argument("--lanes", type=int, default=1)


def _cmd_model(args) -> int:
    from repro.config import default_root_fanout
    from repro.core.perfmodel import PerfModel
    from repro.crypto.costs import BLS_COSTS, SECP_COSTS

    params = SCENARIOS[args.scenario]
    block = args.block_size_kb * KB
    rows = []
    systems = [("hotstuff-secp (star)", 1, args.n - 1, SECP_COSTS)]
    for height in (2, 3):
        try:
            fanout = default_root_fanout(args.n, height)
            systems.append((f"kauri h={height}", height, fanout, BLS_COSTS))
        except Exception:
            continue
    for label, height, fanout, costs in systems:
        try:
            model = PerfModel.for_tree_shape(
                args.n, height, fanout, params, block, costs
            ) if height > 1 else PerfModel.for_star(args.n, params, block, costs)
        except Exception:
            continue
        rows.append(
            (
                label,
                fanout,
                round(model.sending_time * 1000, 1),
                round(model.processing_time * 1000, 1),
                round(model.remaining_time * 1000, 1),
                round(model.pipelining_stretch, 1),
                round(model.max_speedup, 1),
                round(model.instance_latency() * 1000, 0),
            )
        )
    print(
        format_table(
            ("System", "Fanout", "Send (ms)", "Proc (ms)", "Remain (ms)",
             "Stretch", "Max speedup", "Instance lat (ms)"),
            rows,
            title=f"Performance model: N={args.n}, {args.scenario}, "
                  f"{args.block_size_kb} KB blocks",
        )
    )
    return 0


def _add_tune_parser(subparsers) -> None:
    p = subparsers.add_parser("tune", help="automatic configuration search")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--scenario", default="global",
                   choices=[*SCENARIOS, "heterogeneous"])
    p.add_argument("--objective", default="throughput",
                   choices=["throughput", "latency", "balanced"])
    p.add_argument("--block-size-kb", type=int, default=250)


def _cmd_tune(args) -> int:
    from repro.core.autotune import tune_heterogeneous, tune_homogeneous

    config = ProtocolConfig(block_size=args.block_size_kb * KB)
    if args.scenario == "heterogeneous":
        placement = tune_heterogeneous(resilientdb_clusters(), config=config)
        print(f"leader cluster : {placement.leader_cluster}")
        print(f"tree root      : process {placement.tree.root}")
        print(f"stretch        : {placement.stretch:.1f}")
        print(f"expected round : {placement.expected_round_time * 1000:.0f} ms")
        return 0
    best = tune_homogeneous(
        args.n, SCENARIOS[args.scenario], config=config, objective=args.objective
    )
    print(f"recommended    : {best.describe()}")
    print(f"objective      : {args.objective}")
    return 0


def _add_table_parser(subparsers) -> None:
    p = subparsers.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", choices=["1", "2"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--measured", action="store_true",
                   help="table 2 only: simulate the grid through the sweep "
                        "engine and report measured vs expected speedups")
    p.add_argument("--scale", type=float, default=0.3,
                   help="horizon scale for --measured runs")
    _add_engine_args(p)


def _cmd_table(args) -> int:
    from repro.analysis.tables import (
        TABLE1_HEADERS,
        TABLE2_HEADERS,
        TABLE2_MEASURED_HEADERS,
        table1_rows,
        table2_measured_rows,
        table2_rows,
    )

    if args.number == "1":
        print(format_table(TABLE1_HEADERS, table1_rows(n=args.n), title="Table 1"))
    elif args.measured:
        rows = table2_measured_rows(
            scale=args.scale, jobs=args.jobs, use_cache=not args.no_cache
        )
        print(format_table(TABLE2_MEASURED_HEADERS, rows,
                           title="Table 2 (measured)"))
    else:
        print(format_table(TABLE2_HEADERS, table2_rows(), title="Table 2"))
    return 0


def _add_modes_parser(subparsers) -> None:
    subparsers.add_parser(
        "modes", help="list the registered protocol modes"
    )


def _cmd_modes(args) -> int:
    from repro.core.modes import PROTOCOLS

    rows = [
        (spec.name, spec.topology, spec.scheme, spec.pacing, spec.protocol,
         PROTOCOLS[spec.protocol]["kind"])
        for _, spec in sorted(MODES.items())
    ]
    print(format_table(
        ("Mode", "Topology", "Scheme", "Pacing", "Protocol", "Kind"),
        rows,
        title="Registered modes",
    ))
    return 0


#: Every figure the CLI can regenerate, straight from the FIGURES registry
#: in :mod:`repro.analysis.figures` -- adding a figure there automatically
#: surfaces it here, the way ``--mode`` choices derive from MODES.
FIG_CHOICES = list(FIGURES)


def _add_engine_args(p) -> None:
    """Sweep-engine knobs shared by grid-shaped commands."""
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes for independent cells "
                        "(default: $REPRO_SWEEP_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate; skip the on-disk result cache "
                        "under benchmarks/results/.cache/")


def _add_fig_parser(subparsers) -> None:
    p = subparsers.add_parser("fig", help="regenerate an evaluation figure")
    p.add_argument("figure", choices=FIG_CHOICES)
    p.add_argument("--scale", type=float, default=0.3,
                   help="horizon scale; 1.0 = benchmark depth (default 0.3)")
    _add_engine_args(p)


def _cmd_fig(args) -> int:
    from repro.analysis import (
        fig5_stretch_sweep,
        fig7_rtt_sweep,
        fig8_latency_bandwidth,
        fig9_throughput_latency,
        fig10_tree_height,
        fig11_heterogeneous,
        fig12_reconfiguration,
        fig_depth_scaling,
    )

    scale = args.scale
    engine = {"jobs": args.jobs, "use_cache": not args.no_cache}
    if args.figure == "depth":
        data = fig_depth_scaling(scale=scale, **engine)
        rows = [
            (label, n, ktx, lat, "SAT" if sat else "")
            for label, series in data.items()
            for n, ktx, lat, sat in series
        ]
        print(format_table(
            ("System", "N", "Ktx/s", "p50 lat (ms)", "CPU"),
            rows,
            title="Tree-depth scaling to N=1000 (beyond Figure 10)",
        ))
        return 0
    if args.figure == "3":
        from repro.analysis import extract_spans, max_concurrency, render_gantt
        from repro.net.trace import MessageTrace
        from repro.runtime.cluster import Cluster

        for mode in ("kauri", "hotstuff-bls", "kauri-np"):
            cluster = Cluster(n=31, mode=mode, scenario="regional")
            trace = MessageTrace(capacity=300_000)
            cluster.network.observers.append(trace)
            cluster.start()
            cluster.run(duration=60.0 * max(scale, 0.2), max_commits=30)
            spans = extract_spans(trace, cluster.policy.leader_of(0))
            print(f"\n--- {mode} (peak in-flight: {max_concurrency(spans)}) ---")
            print(render_gantt(spans[2:], max_rows=8))
        return 0
    if args.figure == "6":
        from repro.analysis import fig6_kudzu_headtohead, saturation_marker

        results = fig6_kudzu_headtohead(scale=scale, **engine)
        rows = [
            (r.mode, r.scenario, r.n,
             round(r.throughput_txs / 1000, 2),
             round(r.latency["p50"] * 1000, 0),
             r.fast_commits or "",
             saturation_marker(r))
            for r in results
        ]
        print(format_table(
            ("System", "Scenario", "N", "Ktx/s", "p50 lat (ms)",
             "Fast commits", "CPU"),
            rows,
            title="Figure 6: Kauri vs HotStuff-bls vs Kudzu",
        ))
        return 0
    if args.figure == "5":
        data = fig5_stretch_sweep(scale=scale, **engine)
        rows = [
            (f"{kb}KB", stretch, ktx)
            for kb, series in sorted(data.items())
            for stretch, ktx in series
        ]
        print(format_table(("Block", "Stretch", "Ktx/s"), rows, title="Figure 5"))
    elif args.figure == "7":
        data = fig7_rtt_sweep(scale=scale, **engine)
        rows = [
            (mode, rtt, ktx, stretch)
            for mode, series in data.items()
            for rtt, ktx, stretch in series
        ]
        print(format_table(("System", "RTT (ms)", "Ktx/s", "Stretch"), rows,
                           title="Figure 7"))
    elif args.figure == "8":
        data = fig8_latency_bandwidth(scale=scale, **engine)
        rows = [
            (mode, bw, lat)
            for mode, series in sorted(data.items())
            for bw, lat in series
        ]
        print(format_table(("System", "Mb/s", "p50 latency (ms)"), rows,
                           title="Figure 8"))
    elif args.figure == "9":
        data = fig9_throughput_latency(scale=scale, **engine)
        rows = [
            (mode, kb, ktx, lat)
            for mode, series in data.items()
            for kb, ktx, lat in series
        ]
        print(format_table(("System", "Block (KB)", "Ktx/s", "p50 lat (ms)"),
                           rows, title="Figure 9"))
    elif args.figure == "10":
        data = fig10_tree_height(scale=scale, **engine)
        rows = [
            (label, bw, ktx, lat, "SAT" if sat else "")
            for label, series in data.items()
            for bw, ktx, lat, sat in series
        ]
        print(format_table(("System", "Mb/s", "Ktx/s", "p50 lat (ms)", "CPU"),
                           rows, title="Figure 10"))
    elif args.figure == "11":
        results = fig11_heterogeneous(scale=scale, **engine)
        rows = [
            (r.mode, round(r.throughput_txs / 1000, 2),
             round(r.latency["p50"] * 1000, 0))
            for r in results
        ]
        print(format_table(("System", "Ktx/s", "p50 lat (ms)"), rows,
                           title="Figure 11"))
    else:
        case = {"12a": "leader", "12b": "three-leaders", "12c": "internal+leaders"}[
            args.figure
        ]
        scenario = "national" if args.figure == "12c" else "global"
        duration = {"12a": 100.0, "12b": 160.0, "12c": 700.0}[args.figure]
        run = fig12_reconfiguration(
            case, scenario=scenario, duration=duration, bucket=5.0
        )
        print(format_table(("t (s)", "tx/s"), run.timeseries,
                           title=f"Figure {args.figure}: {case}"))
        print(f"reconfigurations: {run.max_view}; "
              f"final topology: {'star' if run.final_is_star else 'tree'}; "
              f"recovery gap: {run.recovery_gap}")
    return 0


def _add_sweep_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "sweep", help="grid of runs over modes / sizes / block sizes"
    )
    p.add_argument("--modes", default="kauri,hotstuff-secp",
                   help="comma-separated mode list")
    p.add_argument("--sizes", default="31", help="comma-separated N list")
    p.add_argument("--block-sizes-kb", default="250",
                   help="comma-separated block sizes (KB)")
    p.add_argument("--scenario", default="global", choices=list(SCENARIOS))
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per cell; default adapts per cell")
    p.add_argument("--max-commits", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_engine_args(p)


def _cmd_sweep(args) -> int:
    from repro.analysis.figures import adaptive_duration
    from repro.runtime.sweep import ExperimentSpec, SweepRunner

    params = SCENARIOS[args.scenario]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    sizes = [int(s) for s in args.sizes.split(",")]
    blocks = [int(b) for b in args.block_sizes_kb.split(",")]
    specs = [
        ExperimentSpec(
            mode=mode,
            scenario=args.scenario,
            n=n,
            block_size=block_kb * KB,
            duration=(
                args.duration
                if args.duration is not None
                else adaptive_duration(mode, n, params, block_kb * KB)
            ),
            max_commits=args.max_commits,
            seed=args.seed,
        )
        for n in sizes
        for mode in modes
        for block_kb in blocks
    ]
    runner = SweepRunner(jobs=args.jobs, cache=not args.no_cache)
    results = runner.run(specs)
    if args.json:
        print(json.dumps(
            [dataclasses.asdict(r) for r in results], indent=2, default=str
        ))
        return 0
    rows = [
        (
            r.scenario,
            r.n,
            r.mode,
            r.block_size // KB,
            round(r.throughput_txs, 1),
            round(r.latency["p50"], 3),
            "SAT" if r.cpu_saturated else "",
        )
        for r in results
    ]
    print(
        format_table(
            ("Scenario", "N", "System", "Block KB", "tx/s", "p50 (s)", "CPU"),
            rows,
            title="Sweep",
        )
    )
    stats = runner.last_stats
    print(f"[{stats.backend} x{stats.jobs}: {stats.executed} simulated, "
          f"{stats.cache_hits} cached]")
    return 0


def _scenario_label(scenario) -> str:
    """Display name for a spec's scenario (str / NetworkParams / ClusterParams)."""
    return scenario if isinstance(scenario, str) else scenario.name


def _add_scenarios_parser(subparsers) -> None:
    from repro.scenarios import pack_names

    try:
        names = sorted(pack_names())
    except Exception:  # unreadable catalog dir: accept any name, fail late
        names = []
    # Empty catalog -> no choices restriction; load_pack gives the precise
    # "unknown pack" error (with the catalog location) at run time.
    choices = names or None
    p = subparsers.add_parser(
        "scenarios",
        help="list / show / validate / run declarative scenario packs",
    )
    sub = p.add_subparsers(dest="scenarios_command", required=True)
    sub.add_parser("list", help="list every pack in the catalog")
    show = sub.add_parser("show", help="show a pack's axes and compiled cells")
    show.add_argument("name", choices=choices, metavar="PACK")
    validate = sub.add_parser(
        "validate", help="dry-run compile packs; exit 1 on any error"
    )
    validate.add_argument("name", nargs="?", choices=choices, metavar="PACK",
                          help="one pack; default: every pack in the catalog")
    run = sub.add_parser("run", help="compile a pack and run its grid")
    run.add_argument("name", choices=choices, metavar="PACK")
    run.add_argument("--scale", type=float, default=1.0,
                     help="horizon/budget scale (default 1.0)")
    run.add_argument("--seed", type=int, default=None,
                     help="override every cell's seed")
    run.add_argument("--json", action="store_true",
                     help="emit the results as JSON")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="run with observability on and write the first "
                          "cell's RunReport JSON here")
    _add_engine_args(run)


def _cmd_scenarios(args) -> int:
    from repro.scenarios import (
        PackError,
        catalog,
        compile_pack,
        load_pack,
        load_pack_file,
        validate_pack,
    )

    if args.scenarios_command == "list":
        rows = []
        for name, path in catalog().items():
            pack = load_pack_file(path)
            grid = validate_pack(pack)
            rows.append(
                (name, len(grid.cells), " x ".join(pack.axis_names) or "-",
                 pack.title)
            )
        print(format_table(("Pack", "Cells", "Axes", "Title"), rows,
                           title="Scenario packs"))
        return 0

    if args.scenarios_command == "show":
        pack = load_pack(args.name)
        grid = compile_pack(pack)
        print(f"{pack.name}: {pack.title}")
        if pack.description:
            print(pack.description)
        print(f"source: {pack.source}")
        if pack.defaults:
            print("defaults: " + ", ".join(
                f"{key}={value!r}" for key, value in pack.defaults.items()
            ))
        for pgrid in pack.grids:
            for axis, values in pgrid.axes:
                print(f"axis {axis}: {len(values)} values")
        rows = [
            (
                cell.index,
                cell.label or "-",
                cell.spec.mode,
                _scenario_label(cell.spec.scenario),
                cell.spec.n,
                "-" if cell.spec.block_size is None
                else cell.spec.block_size // KB,
                round(cell.spec.duration, 1),
                cell.spec.max_commits,
            )
            for cell in grid.cells
        ]
        print(format_table(
            ("#", "Label", "Mode", "Scenario", "N", "Block KB",
             "Duration (s)", "Commits"),
            rows,
            title=f"{len(grid.cells)} cells at scale 1.0",
        ))
        return 0

    if args.scenarios_command == "validate":
        targets = (
            {args.name: catalog()[args.name]} if args.name else catalog()
        )
        failures = 0
        for name, path in targets.items():
            try:
                grid = validate_pack(load_pack_file(path))
            except PackError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}", file=sys.stderr)
            else:
                print(f"ok   {name} ({len(grid.cells)} cells)")
        if failures:
            print(f"{failures} of {len(targets)} packs failed validation",
                  file=sys.stderr)
            return 1
        print(f"all {len(targets)} packs validate")
        return 0

    # run
    from repro.runtime.sweep import SweepRunner

    grid = compile_pack(
        load_pack(args.name),
        scale=args.scale,
        seed=args.seed,
        observability=True if args.report else None,
    )
    runner = SweepRunner(jobs=args.jobs, cache=not args.no_cache)
    results = runner.run(grid.specs)
    if args.json:
        print(json.dumps(
            [dataclasses.asdict(r) for r in results], indent=2, default=str
        ))
    else:
        rows = [
            (
                cell.label or "-",
                r.mode,
                _scenario_label(r.scenario),
                r.n,
                round(r.throughput_txs / 1000, 2),
                round(r.latency["p50"] * 1000, 0),
                "SAT" if r.cpu_saturated else "",
            )
            for cell, r in zip(grid.cells, results)
        ]
        print(format_table(
            ("Label", "Mode", "Scenario", "N", "Ktx/s", "p50 lat (ms)", "CPU"),
            rows,
            title=f"{grid.pack.title} (scale {args.scale})",
        ))
        stats = runner.last_stats
        print(f"[{stats.backend} x{stats.jobs}: {stats.executed} simulated, "
              f"{stats.cache_hits} cached]")
    if args.report:
        from repro.obs import report_json, validate_report

        report = results[0].report
        with open(args.report, "w") as fh:
            fh.write(report_json(report))
        print(f"wrote {args.report}")
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}", file=sys.stderr)
            return 1
    return 0


def _add_capacity_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "capacity",
        help="how many users fit this topology: sweep offered load through "
             "the workload engine and report the saturation knee",
    )
    p.add_argument("--mode", default="kauri", choices=MODE_CHOICES)
    p.add_argument("--scenario", default="national", choices=list(SCENARIOS))
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--users", type=int, default=1_000_000,
                   help="target client population (the sweep's top load "
                        "level is --max-load-factor times this)")
    p.add_argument("--rate-per-user", type=float, default=0.001,
                   help="transactions per second per user")
    p.add_argument("--points", type=int, default=5,
                   help="load levels swept up to users * max-load-factor")
    p.add_argument("--max-load-factor", type=float, default=2.0)
    p.add_argument("--duration", type=float, default=15.0,
                   help="simulated seconds per load level")
    p.add_argument("--capacity-txs", type=int, default=None,
                   help="bounded leader mempool (admission control); "
                        "default unbounded")
    p.add_argument("--policy", default="drop", choices=["drop", "defer"],
                   help="mempool overflow policy")
    p.add_argument("--slo-ms", type=float, default=1000.0,
                   help="end-to-end latency SLO, judged at p99")
    p.add_argument("--goodput-threshold", type=float, default=0.9,
                   help="knee rule: commit at least this fraction of "
                        "generated load with the SLO met")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the knee cell's schema-validated RunReport "
                        "JSON here")
    _add_engine_args(p)


def _cmd_capacity(args) -> int:
    from repro.runtime.sweep import ExperimentSpec, SweepRunner
    from repro.runtime.workload import (
        ClientClassSpec,
        WorkloadSpec,
        saturation_knee,
    )

    if args.points < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    factors = [
        args.max_load_factor * (index + 1) / args.points
        for index in range(args.points)
    ]
    populations = [max(1, int(args.users * factor)) for factor in factors]
    specs = [
        ExperimentSpec(
            mode=args.mode,
            scenario=args.scenario,
            n=args.n,
            height=args.height,
            duration=args.duration,
            seed=args.seed,
            observability=bool(args.report),
            workload=WorkloadSpec(
                classes=(
                    ClientClassSpec(
                        name="users",
                        population=population,
                        rate_per_user=args.rate_per_user,
                        slo_ms=args.slo_ms,
                        slo_percentile=99.0,
                    ),
                ),
                capacity_txs=args.capacity_txs,
                policy=args.policy,
            ),
        )
        for population in populations
    ]
    runner = SweepRunner(jobs=args.jobs, cache=not args.no_cache)
    results = runner.run(specs)

    points = []
    for population, result in zip(populations, results):
        totals = result.workload["totals"]
        generated = totals["generated"]
        latency = totals["latency"]
        goodput = totals["committed"] / generated if generated else 0.0
        points.append({
            "users": population,
            "offered_rate_txs": totals["offered_rate_txs"],
            "generated": generated,
            "committed": totals["committed"],
            "dropped": totals["dropped"],
            "drop_rate": totals["drop_rate"],
            "goodput": goodput,
            "latency": latency,
            "slo_met": latency["p99"] <= args.slo_ms / 1000.0,
        })
    knee = saturation_knee(points, goodput_threshold=args.goodput_threshold)

    if args.json:
        print(json.dumps({"points": points, "knee": knee}, indent=2))
    else:
        rows = [
            (
                f"{point['users']:,}",
                round(point["offered_rate_txs"], 1),
                point["committed"],
                round(point["latency"]["p50"] * 1000, 1),
                round(point["latency"]["p99"] * 1000, 1),
                round(point["latency"]["p999"] * 1000, 1),
                f"{point['drop_rate']:.1%}",
                "yes" if point["slo_met"] else "NO",
                "<- knee" if index == knee else "",
            )
            for index, point in enumerate(points)
        ]
        print(format_table(
            ("Users", "Offered tx/s", "Committed", "p50 ms", "p99 ms",
             "p999 ms", "Drops", "SLO", ""),
            rows,
            title=f"Capacity sweep: {args.mode} n={args.n} "
                  f"({args.scenario}), SLO p99 <= {args.slo_ms:.0f} ms",
        ))
        if knee >= 0:
            point = points[knee]
            print(f"saturation knee: ~{point['users']:,} users "
                  f"({point['offered_rate_txs']:,.0f} tx/s offered) fit this "
                  f"topology within the SLO")
        else:
            print("saturation knee: none of the tested load levels met the "
                  "goodput/SLO rule; try a lighter load or a bigger topology")
        stats = runner.last_stats
        print(f"[{stats.backend} x{stats.jobs}: {stats.executed} simulated, "
              f"{stats.cache_hits} cached]")

    if args.report:
        from repro.obs import report_json, validate_report

        report = results[knee if knee >= 0 else 0].report
        with open(args.report, "w") as fh:
            fh.write(report_json(report))
        print(f"wrote {args.report}")
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}", file=sys.stderr)
            return 1
    return 0


def _add_perf_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "perf", help="run the hot-path microbenchmarks"
    )
    p.add_argument("--quick", action="store_true",
                   help="shrunken workloads for CI smoke runs")
    p.add_argument("--out", default="BENCH_core.json",
                   help="where to write results (default: BENCH_core.json)")
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="compare against a committed BENCH json; exit 1 on "
                        "a regression beyond --tolerance")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional regression for --check "
                        "(default 0.30; wall-clock benches are noisy)")
    p.add_argument("--mem-tolerance", type=float, default=0.15,
                   help="allowed fractional peak-memory growth for --check "
                        "(default 0.15; traced bytes are stable across "
                        "machines, so the budget is tighter)")
    p.add_argument("--bench", action="append", default=None, metavar="NAME",
                   help="run only this bench (repeatable); default: all")
    p.add_argument("--profile", action="store_true",
                   help="run the benches under cProfile and write the "
                        "top-25 cumulative hotspots next to --out")
    p.add_argument("--seed", type=int, default=0)


def _profile_path(out: str) -> str:
    """``BENCH_core.json`` -> ``BENCH_core.profile.txt`` (same directory)."""
    root, _ext = os.path.splitext(out)
    return f"{root}.profile.txt"


def _cmd_perf(args) -> int:
    from repro.perf import (
        compare_to_baseline,
        load_results,
        run_benches,
        write_results,
    )

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        results = run_benches(quick=args.quick, seed=args.seed, only=args.bench)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    finally:
        if profiler is not None:
            profiler.disable()
    if profiler is not None:
        import io
        import pstats

        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(25)
        profile_path = _profile_path(args.out)
        with open(profile_path, "w") as fh:
            fh.write(buffer.getvalue())
        print(f"wrote {profile_path}")
    rows = [
        (name, f"{r.value:,.1f}", r.unit, r.n,
         "-" if r.peak_mb is None else f"{r.peak_mb:,.1f}", r.seed,
         " ".join(f"{key}={value:g}" for key, value in (r.counts or {}).items())
         or "-")
        for name, r in sorted(results.items())
    ]
    print(format_table(
        ("Bench", "Value", "Unit", "N", "Peak MiB", "Seed", "Counts"),
        rows,
        title="Hot-path microbenchmarks" + (" (quick)" if args.quick else ""),
    ))
    to_write = results
    if args.bench and os.path.exists(args.out):
        # A subset run must not clobber the other benches' entries.
        to_write = {**load_results(args.out), **results}
    write_results(to_write, args.out)
    print(f"wrote {args.out}")
    if args.check is not None:
        baseline = load_results(args.check)
        problems = compare_to_baseline(
            results, baseline, tolerance=args.tolerance,
            mem_tolerance=args.mem_tolerance,
        )
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regression beyond {args.tolerance:.0%} "
              f"(memory {args.mem_tolerance:.0%}) vs {args.check}")
    return 0


def _add_cache_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "cache",
        help="inspect or bound the on-disk sweep result cache",
    )
    sub = p.add_subparsers(dest="cache_command", required=True)
    stats = sub.add_parser("stats", help="inventory the cache directory")
    stats.add_argument("--dir", default=None, metavar="PATH",
                       help="cache directory (default: the sweep engine's, "
                            "benchmarks/results/.cache or "
                            "$REPRO_SWEEP_CACHE_DIR)")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output")
    prune = sub.add_parser(
        "prune",
        help="delete tmp/stale entries and bound the cache by age/size",
    )
    prune.add_argument("--dir", default=None, metavar="PATH",
                       help="cache directory (default: the sweep engine's)")
    prune.add_argument("--max-age-days", type=float, default=None,
                       help="drop entries older than this many days")
    prune.add_argument("--max-size-mb", type=float, default=None,
                       help="drop oldest entries until the cache fits")
    prune.add_argument("--keep-stale", action="store_true",
                       help="keep entries with a non-current cache schema "
                            "(dropped by default; they can never hit)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be removed without deleting")


def _cmd_cache(args) -> int:
    from repro.runtime.sweep import cache_stats, prune_cache

    if args.cache_command == "stats":
        stats = cache_stats(root=args.dir)
        if args.as_json:
            print(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True))
            return 0
        rows = [
            ("entries", stats.entries),
            ("size", f"{stats.size_bytes / 1e6:,.2f} MB"),
            ("stale (old schema)", stats.stale),
            ("corrupt", stats.corrupt),
            ("tmp files", stats.tmp_files),
            ("oldest", f"{stats.oldest_age_s / 86400.0:,.1f} days"),
            ("newest", f"{stats.newest_age_s / 86400.0:,.1f} days"),
        ]
        print(format_table(("Field", "Value"), rows,
                           title=f"Sweep cache: {stats.root}"))
        return 0
    result = prune_cache(
        root=args.dir,
        max_age_days=args.max_age_days,
        max_size_mb=args.max_size_mb,
        drop_stale=not args.keep_stale,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {result.removed} files ({result.freed_bytes / 1e6:,.2f} MB), "
        f"kept {result.kept} entries"
    )
    return 0


def _add_report_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "report",
        help="run one deployment with observability on; emit RunReport JSON",
    )
    p.add_argument("--mode", default="kauri", choices=MODE_CHOICES)
    p.add_argument("--scenario", default="global",
                   choices=[*SCENARIOS, "heterogeneous"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--max-commits", type=int, default=None)
    p.add_argument("--block-size-kb", type=int, default=250)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--lanes", type=int, default=1, help="uplink lanes per process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--validate", action="store_true",
                   help="check the report against the checked-in schema; "
                        "exit 1 on mismatch")


def _cmd_report(args) -> int:
    from repro.obs import report_json, validate_report
    from repro.runtime.experiment import run_experiment

    scenario = (
        resilientdb_clusters() if args.scenario == "heterogeneous" else args.scenario
    )
    config = ProtocolConfig(block_size=args.block_size_kb * KB)
    result = run_experiment(
        mode=args.mode,
        scenario=scenario,
        n=None if args.scenario == "heterogeneous" else args.n,
        duration=args.duration,
        max_commits=args.max_commits,
        height=args.height,
        seed=args.seed,
        config=config,
        uplink_lanes=args.lanes,
        observability=True,
    )
    report = result.report
    text = report_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    if args.validate:
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}", file=sys.stderr)
            return 1
        print("report validates against the schema", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kauri (SOSP 2021) reproduction: run deployments, "
                    "evaluate the performance model, regenerate the paper's "
                    "tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_modes_parser(subparsers)
    _add_model_parser(subparsers)
    _add_tune_parser(subparsers)
    _add_table_parser(subparsers)
    _add_fig_parser(subparsers)
    _add_scenarios_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_capacity_parser(subparsers)
    _add_perf_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_report_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "modes": _cmd_modes,
        "model": _cmd_model,
        "tune": _cmd_tune,
        "table": _cmd_table,
        "fig": _cmd_fig,
        "scenarios": _cmd_scenarios,
        "sweep": _cmd_sweep,
        "capacity": _cmd_capacity,
        "perf": _cmd_perf,
        "cache": _cmd_cache,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed the pipe: not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
