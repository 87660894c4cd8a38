"""Command-line interface: the paper's analyses from a terminal.

Subcommands::

    repro solve       classify equilibria for one (p, m) game
    repro optimize    Algorithm 3: sweep m, pick the optimum
    repro simulate    run a protocol scenario across seeds
    repro scenarios   list / describe / validate the scenario catalog
    repro figures     regenerate Fig. 5-8 data as CSV + ASCII plots
    repro sensitivity robustness of m* to the economic constants
    repro portrait    ASCII phase portrait of the replicator field
    repro boundaries  analytic ESS regime boundaries over m
    repro loadtest    soak the live testbed, emit a JSON report
    repro cluster     coordinator/worker soak cluster (leases, faults)
    repro serve       stand up a live UDP deployment on localhost
    repro attack      flood a testbed deployment with forgeries
    repro profile     cProfile + perf counters over a scenario preset
    repro bench       crypto or sim bench suite -> BENCH_<suite>.json
    repro lint        reprolint: per-file + whole-program AST invariants
    repro sanitize    runtime sanitizers: determinism / locks / resources

Every subcommand is a thin shim over the library — anything printed
here is available programmatically (see README).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.bandwidth import fig5_series
from repro.analysis.costs import cost_curves
from repro.analysis.reporting import (
    ascii_phase_portrait,
    ascii_series_plot,
    render_table,
    write_csv,
)
from repro.analysis.sweep import open_interval_grid
from repro.analysis.trajectories import regime_bands
from repro.engine import Executor, ResultCache, executor_for
from repro.errors import ReproError
from repro.net.harness import LoadTestConfig, run_loadtest
from repro.perf.bench import BENCH_PRESETS, SCENARIO_PRESETS
from repro.game.ess import fixed_points, realized_ess
from repro.game.optimizer import BufferOptimizer, naive_defense_cost
from repro.game.parameters import GameParameters, paper_parameters
from repro.game.sensitivity import recommendation_stability
from repro.scenarios import (
    ALL_PROTOCOLS,
    ENGINES,
    NET_PROTOCOLS,
    TIER_NAMES,
    WORKLOADS,
    get_scenario,
    list_scenarios,
    validate_catalog,
)
from repro.sim.experiments import run_registered, run_repeated
from repro.sim.scenario import ScenarioConfig

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (no floats, no 0)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (rejects floats like '10.5')."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not value >= 0 or value == float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative finite number, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite, strictly positive number.

    Durations and repeat intervals must be rejected at parse time —
    a negative duration otherwise surfaces deep inside the scheduler as
    a confusing :class:`SchedulingError`.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not value > 0 or value == float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def _add_game_constants(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ra", type=float, default=200.0, help="attacker reward Ra")
    parser.add_argument("--k1", type=float, default=20.0, help="attacker cost coeff")
    parser.add_argument("--k2", type=float, default=4.0, help="defender cost coeff")
    parser.add_argument(
        "--max-buffers", type=int, default=50, help="hardware buffer cap M"
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="run engine tasks on N worker processes (default: serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the in-memory result cache",
    )


def _engine(args: argparse.Namespace) -> "tuple[Executor, Optional[ResultCache]]":
    executor = executor_for(args.jobs)
    cache = None if args.no_cache else ResultCache()
    return executor, cache


def _params(args: argparse.Namespace, m: int = 1) -> GameParameters:
    return GameParameters(
        ra=args.ra,
        k1=args.k1,
        k2=args.k2,
        p=args.p,
        m=m,
        max_buffers=args.max_buffers,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DoS-resistant authentication via evolutionary game"
        " (ICDCS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="classify equilibria for one (p, m)")
    solve.add_argument("--p", type=float, required=True, help="attack level in [0,1]")
    solve.add_argument("--m", type=int, required=True, help="defender buffers")
    _add_game_constants(solve)

    optimize = sub.add_parser("optimize", help="Algorithm 3 buffer optimisation")
    optimize.add_argument("--p", type=float, required=True)
    optimize.add_argument(
        "--selection",
        choices=("argmin", "paper"),
        default="argmin",
        help="argmin (corrected) or the published running-min loop",
    )
    optimize.add_argument("--full", action="store_true", help="print the whole sweep")
    _add_game_constants(optimize)

    simulate = sub.add_parser("simulate", help="run a protocol scenario")
    simulate.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run a registered catalog scenario (repro scenarios list);"
        " overrides the shape flags below",
    )
    simulate.add_argument("--protocol", default="dap", choices=ALL_PROTOCOLS)
    simulate.add_argument("--p", type=float, default=0.0, help="attack fraction")
    simulate.add_argument("--buffers", type=int, default=4)
    simulate.add_argument("--intervals", type=int, default=60)
    simulate.add_argument("--receivers", type=int, default=5)
    simulate.add_argument("--loss", type=float, default=0.0)
    simulate.add_argument(
        "--workload",
        default="crowdsensing",
        choices=WORKLOADS,
        help="workload family driving the payloads",
    )
    simulate.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="repetitions (default: 5, or the scenario's canonical"
        " seeds with --scenario)",
    )
    simulate.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="scenario engine: event-driven simulation, or the array"
        " fleet engine (bit-identical for every protocol family,"
        " ~20x faster)",
    )
    _add_engine_flags(simulate)

    scenarios = sub.add_parser(
        "scenarios", help="list / describe / validate the scenario catalog"
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scen_list = scen_sub.add_parser("list", help="the registered catalog")
    scen_list.add_argument("--family", choices=WORKLOADS, default=None)
    scen_list.add_argument("--tier", choices=TIER_NAMES, default=None)
    scen_list.add_argument("--engine", choices=ENGINES, default=None)
    scen_list.add_argument("--protocol", choices=ALL_PROTOCOLS, default=None)
    scen_describe = scen_sub.add_parser(
        "describe", help="one scenario, in full"
    )
    scen_describe.add_argument("name", help="catalog name (see list)")
    scen_validate = scen_sub.add_parser(
        "validate",
        help="replay the dual-engine contract (all scenarios, or named)",
    )
    scen_validate.add_argument(
        "names", nargs="*", help="scenarios to validate (default: all)"
    )
    scen_validate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="validate at this single seed instead of the canonical set",
    )

    figures = sub.add_parser("figures", help="regenerate Fig. 5-8 data")
    figures.add_argument("--out", type=Path, default=Path("figures"))
    figures.add_argument("--points", type=int, default=25, help="sweep resolution")
    figures.add_argument("--no-plots", action="store_true", help="CSV only")
    figures.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="also run this catalog scenario across its seeds and write"
        " scenario_<NAME>.csv next to the figure data",
    )
    _add_engine_flags(figures)

    sensitivity = sub.add_parser(
        "sensitivity", help="robustness of m* to Ra, k1, k2"
    )
    sensitivity.add_argument("--p", type=float, required=True)
    sensitivity.add_argument(
        "--error", type=float, default=0.25, help="relative perturbation"
    )
    _add_game_constants(sensitivity)
    _add_engine_flags(sensitivity)

    portrait = sub.add_parser("portrait", help="ASCII phase portrait")
    portrait.add_argument("--p", type=float, required=True)
    portrait.add_argument("--m", type=int, required=True)
    portrait.add_argument("--grid", type=int, default=21)
    _add_game_constants(portrait)

    boundaries = sub.add_parser(
        "boundaries", help="analytic ESS regime boundaries over m"
    )
    boundaries.add_argument("--p", type=float, required=True)
    _add_game_constants(boundaries)

    loadtest = sub.add_parser(
        "loadtest", help="soak the live testbed, emit a JSON report"
    )
    loadtest.add_argument(
        "--transport",
        choices=("loopback", "udp"),
        default="loopback",
        help="deterministic in-process loopback, or real UDP sockets",
    )
    loadtest.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="soak a registered catalog scenario (repro scenarios list);"
        " overrides the shape flags below",
    )
    loadtest.add_argument("--protocol", choices=NET_PROTOCOLS, default="dap")
    loadtest.add_argument("--receivers", type=_positive_int, default=4)
    loadtest.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="independent soak worlds (loopback; pairs with --jobs)",
    )
    loadtest.add_argument("--intervals", type=_positive_int, default=40)
    loadtest.add_argument("--interval-duration", type=_positive_float, default=0.05)
    loadtest.add_argument("--buffers", type=_positive_int, default=4)
    loadtest.add_argument("--p", type=float, default=0.0, help="attack fraction")
    loadtest.add_argument(
        "--rate",
        type=_nonnegative_int,
        default=0,
        metavar="PKTS_PER_SEC",
        help="constant forged packets/sec (overrides --p when > 0)",
    )
    loadtest.add_argument("--loss", type=float, default=0.0)
    loadtest.add_argument(
        "--burst", type=float, default=None, help="mean loss burst length"
    )
    loadtest.add_argument("--jitter", type=float, default=0.0)
    loadtest.add_argument("--duplicate", type=float, default=0.0)
    loadtest.add_argument("--reorder", type=float, default=0.0)
    loadtest.add_argument("--seed", type=int, default=7)
    loadtest.add_argument(
        "--engine",
        choices=ENGINES,
        default="des",
        help="des: drive the live daemons; vectorized: predict the same"
        " per-node tallies through the array scenario engine (loopback"
        " only, no proxy-only faults)",
    )
    _add_engine_flags(loadtest)

    cluster = sub.add_parser(
        "cluster", help="sharded coordinator/worker soak cluster"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    csoak = cluster_sub.add_parser(
        "soak", help="run a coordinator soak over local worker daemons"
    )
    csoak.add_argument(
        "--scenario",
        required=True,
        metavar="NAME",
        help="registered catalog scenario to shard (repro scenarios list)",
    )
    csoak.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="local worker daemons to spawn (default: 2)",
    )
    csoak.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="shard tasks per round (default: workers, capped at the"
        " scenario's receivers)",
    )
    csoak.add_argument(
        "--rounds",
        type=_positive_int,
        default=1,
        help="repetitions of the shard plan at laddered seeds",
    )
    csoak.add_argument(
        "--duration",
        type=_positive_float,
        default=120.0,
        metavar="SECONDS",
        help="hard wall-clock deadline for the whole soak (default: 120)",
    )
    csoak.add_argument(
        "--heartbeat",
        type=_positive_float,
        default=0.2,
        metavar="SECONDS",
        help="worker heartbeat interval (default: 0.2)",
    )
    csoak.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=2.0,
        metavar="SECONDS",
        help="lease lifetime without a renewing heartbeat (default: 2)",
    )
    csoak.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="PATH",
        help="append JSON-lines metrics here (tail-able; default: off)",
    )
    csoak.add_argument(
        "--metrics-interval",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="coordinator aggregate metrics cadence (default: 0.5)",
    )
    csoak.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=2,
        help="per-worker in-flight task cap (backpressure bound)",
    )
    csoak.add_argument(
        "--max-rss-mb",
        type=_positive_float,
        default=None,
        help="per-worker resident-set limit in MiB (default: unlimited)",
    )
    csoak.add_argument(
        "--engine",
        choices=ENGINES,
        default="des",
        help="des: workers drive real loopback soaks; vectorized:"
        " fleet-engine predictions of the same tallies",
    )
    csoak.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="fault event '<seconds>:<action>=<value>', repeatable"
        " (e.g. '120:loss=0.4', '300:kill-worker=1')",
    )
    csoak.add_argument(
        "--stall",
        type=_nonnegative_float,
        default=0.0,
        metavar="SECONDS",
        help="artificial per-task stall before each soak — keeps"
        " workers mid-task long enough for scheduled faults to land"
        " (default: 0)",
    )
    csoak.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    csoak.add_argument(
        "--no-reconcile",
        action="store_true",
        help="skip the fleet-engine reconciliation pass",
    )
    csoak.add_argument(
        "--tolerance",
        type=_nonnegative_int,
        default=0,
        help="per-tally absolute slack allowed by reconciliation"
        " (default: 0, exact)",
    )
    csoak.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the merged LoadTestReport JSON here",
    )
    cworker = cluster_sub.add_parser(
        "worker", help="run one worker daemon against a coordinator"
    )
    cworker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address",
    )
    cworker.add_argument(
        "--worker-id",
        type=_nonnegative_int,
        default=None,
        help="requested worker id (coordinator may reassign)",
    )
    cworker.add_argument(
        "--max-runtime",
        type=_positive_float,
        default=600.0,
        help="hard self-destruct deadline in seconds (default: 600)",
    )

    serve = sub.add_parser("serve", help="stand up a live UDP deployment")
    serve.add_argument("--port", type=_positive_int, required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--protocol", choices=NET_PROTOCOLS, default="dap")
    serve.add_argument("--receivers", type=_positive_int, default=2)
    serve.add_argument("--intervals", type=_positive_int, default=20)
    serve.add_argument("--interval-duration", type=_positive_float, default=0.5)
    serve.add_argument("--buffers", type=_positive_int, default=4)
    serve.add_argument("--seed", type=int, default=7)

    attack = sub.add_parser("attack", help="flood a testbed deployment")
    attack.add_argument("--host", default="127.0.0.1")
    attack.add_argument("--port", type=_positive_int, required=True)
    attack.add_argument(
        "--rate", type=_positive_int, default=200, metavar="PKTS_PER_SEC"
    )
    attack.add_argument("--duration", type=_positive_float, default=5.0)
    attack.add_argument("--interval-duration", type=_positive_float, default=0.5)

    profile = sub.add_parser(
        "profile", help="cProfile + perf counters over a scenario preset"
    )
    profile.add_argument(
        "--preset",
        choices=sorted(SCENARIO_PRESETS),
        default="fig5",
        help="scenario to measure (fig5: the paper's Fig. 5 operating point)",
    )
    profile.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="scenario runs to accumulate into one report",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        help="cProfile hotspot rows to keep",
    )
    profile.add_argument(
        "--interval-duration",
        type=_positive_float,
        default=None,
        help="override the preset's interval duration (seconds)",
    )
    profile.add_argument("--seed", type=int, default=None, help="override preset seed")
    profile.add_argument(
        "--out", type=Path, default=None, help="also write the JSON report here"
    )

    bench = sub.add_parser(
        "bench", help="run the crypto/scenario bench suite, write JSON"
    )
    bench.add_argument(
        "--suite",
        choices=("crypto", "sim"),
        default="crypto",
        help="crypto: kernel-vs-naive sections; sim: vectorized fleet"
        " engine vs the DES on fig5-style sweeps",
    )
    bench.add_argument(
        "--json",
        dest="json_path",
        type=Path,
        default=None,
        help="output path for the bench document"
        " (default: BENCH_<suite>.json)",
    )
    bench.add_argument(
        "--preset",
        choices=sorted(BENCH_PRESETS),
        default="smoke",
        help="bench sizing (smoke: CI-sized, full: the checked-in artifact)",
    )
    bench.add_argument(
        "--repeat",
        type=_positive_int,
        default=3,
        help="best-of repetitions per timed section",
    )
    bench.add_argument(
        "--receivers",
        type=_positive_int,
        nargs="+",
        default=None,
        metavar="N",
        help="sim suite only: receiver counts for the scaling axis"
        " (per-count sharded fleet runs with wall time and peak RSS;"
        " DES-compared up to 10^4 receivers, fleet-only beyond)",
    )

    lint = sub.add_parser(
        "lint", help="reprolint: check the repo's AST invariants"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src"), Path("benchmarks")],
        help="files/directories to lint (default: src benchmarks)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program rules (RPL010..RPL012)",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="suppress violations recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="record current violations as the baseline and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="runtime sanitizers: determinism, lock order, resources",
    )
    sanitize_sub = sanitize.add_subparsers(
        dest="sanitize_command", required=True
    )
    sdet = sanitize_sub.add_parser(
        "determinism",
        help="run a scenario twice under RNG tracing and diff the draws",
    )
    sdet.add_argument(
        "--scenario",
        required=True,
        metavar="NAME",
        help="registered catalog scenario (repro scenarios list)",
    )
    sdet.add_argument(
        "--seed", type=int, default=None, help="override the catalog seed"
    )
    sdet.add_argument(
        "--mutate-draw",
        type=_nonnegative_int,
        default=None,
        metavar="K",
        help="self-test: corrupt global draw K in the second run and"
        " require the sanitizer to localize it (exit 1 if it cannot)",
    )
    sdet.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the draw-trace diff as a JSON artifact",
    )
    slocks = sanitize_sub.add_parser(
        "locks",
        help="track lock acquisition order across a cluster soak",
    )
    slocks.add_argument(
        "--scenario",
        required=True,
        metavar="NAME",
        help="registered catalog scenario to shard across the soak",
    )
    slocks.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="local worker daemons to spawn (default: 2)",
    )
    slocks.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="shard tasks per round (default: workers)",
    )
    slocks.add_argument(
        "--duration",
        type=_positive_float,
        default=120.0,
        metavar="SECONDS",
        help="hard wall-clock deadline for the soak (default: 120)",
    )
    slocks.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the lock-order report as a JSON artifact",
    )
    sres = sanitize_sub.add_parser(
        "resources",
        help="track SharedMemory/socket/file lifetimes across a fleet run",
    )
    sres.add_argument(
        "--scenario",
        required=True,
        metavar="NAME",
        help="registered catalog scenario for the fleet engine",
    )
    sres.add_argument(
        "--jobs",
        type=_positive_int,
        default=2,
        help="process-pool size (>= 2 exercises the shared-memory path)",
    )
    sres.add_argument(
        "--shards",
        type=_positive_int,
        default=2,
        help="receiver-axis shards (default: 2)",
    )
    sres.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the resource report as a JSON artifact",
    )

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    params = _params(args, m=args.m)
    rows = []
    for fp in fixed_points(params):
        rows.append(
            (
                fp.ess_type.value,
                f"({fp.x:.4f}, {fp.y:.4f})",
                fp.stability.value,
                "ESS" if fp.is_ess else "",
            )
        )
    print(render_table(["candidate", "(X, Y)", "stability", ""], rows,
                       title=f"rest points at p={args.p}, m={args.m}"))
    point, trajectory = realized_ess(params)
    label = point.ess_type.value if point else "unclassified"
    print(
        f"\nfrom (0.5, 0.5) the paper's Euler dynamics reach {label} at"
        f" ({trajectory.final[0]:.4f}, {trajectory.final[1]:.4f})"
        f" in {trajectory.steps} steps"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    params = _params(args)
    result = BufferOptimizer(params).optimize(selection=args.selection)
    if args.full:
        rows = [
            (
                row.m,
                f"{row.x:.4f}",
                f"{row.y:.4f}",
                row.ess_type.value if row.ess_type else "?",
                f"{row.cost:.3f}",
                "<-- optimal" if row.m == result.optimal_m else "",
            )
            for row in result.rows
        ]
        print(render_table(["m", "X", "Y", "ESS", "cost E", ""], rows,
                           title=f"Algorithm 3 sweep at p={args.p}"))
    best = result.row_for(result.optimal_m)
    naive = naive_defense_cost(params)
    print(f"optimal m          : {result.optimal_m} ({args.selection})")
    print(f"equilibrium        : {best.ess_type.value if best.ess_type else '?'}"
          f" at ({best.x:.4f}, {best.y:.4f})")
    print(f"defender cost E    : {best.cost:.3f}")
    print(f"naive cost N (m=M) : {naive:.3f}")
    print(f"saving             : {naive - best.cost:.3f} ({1 - best.cost / naive:.1%})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import dataclasses

    if args.scenario is not None:
        descriptor = get_scenario(args.scenario)
        config = descriptor.config
        if args.engine is not None:
            config = dataclasses.replace(config, engine=args.engine)
        seeds = (
            list(descriptor.seeds)
            if args.seeds is None
            else list(range(1, args.seeds + 1))
        )
        print(
            f"scenario            : {descriptor.name}"
            f" (tier {descriptor.tier}, {descriptor.family})"
        )
    else:
        config = ScenarioConfig(
            protocol=args.protocol,
            intervals=args.intervals,
            receivers=args.receivers,
            buffers=args.buffers,
            attack_fraction=args.p,
            loss_probability=args.loss,
            workload=args.workload,
            engine=args.engine or "des",
        )
        seeds = list(range(1, (args.seeds or 5) + 1))
    executor, cache = _engine(args)
    outcome = run_repeated(config, seeds=seeds, executor=executor, cache=cache)
    print(f"protocol            : {config.protocol}")
    print(
        f"attack fraction     : {config.attack_fraction}  "
        f" loss: {config.loss_probability}"
    )
    print(f"buffers m           : {config.buffers}")
    print(f"authentication rate : {outcome.authentication_rate}")
    print(f"attack success rate : {outcome.attack_success_rate}")
    print(f"forged accepted     : {outcome.total_forged_accepted}")
    print(f"peak buffer bits    : {outcome.peak_buffer_bits}")
    if outcome.total_forged_accepted:
        print("SECURITY INVARIANT VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    out: Path = args.out
    base = paper_parameters(p=0.5, m=1)
    grid = open_interval_grid(0.0, 1.0, args.points, margin=0.02)
    executor, cache = _engine(args)

    # Fig. 5
    levels = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
    series = fig5_series(levels)
    rows = [
        (protocol, memory, point.attack_level, point.buffers,
         point.attacker_bandwidth, point.mac_bandwidth)
        for (protocol, memory), points in series.items()
        for point in points
    ]
    path5 = write_csv(
        out / "fig5_bandwidth.csv",
        ["protocol", "memory_bits", "attack_level", "buffers",
         "attacker_bandwidth", "mac_bandwidth"],
        rows,
    )

    # Fig. 6
    bands, labels = regime_bands(base.with_p(0.8), list(range(1, 101)))
    path6 = write_csv(
        out / "fig6_regimes.csv",
        ["m", "ess"],
        [(m, label.value if label else "?") for m, label in labels.items()],
    )

    # Fig. 7 + 8
    curves = {
        selection: cost_curves(
            base, grid, selection=selection, executor=executor, cache=cache
        )
        for selection in ("paper", "argmin")
    }
    path7 = write_csv(
        out / "fig7_optimal_m.csv",
        ["p", "m_paper", "m_argmin"],
        [
            (p, mp, ma)
            for p, mp, ma in zip(
                grid, curves["paper"].optimal_ms, curves["argmin"].optimal_ms
            )
        ],
    )
    path8 = write_csv(
        out / "fig8_costs.csv",
        ["p", "game_cost", "naive_cost"],
        [
            (point.p, point.game_cost, point.naive_cost)
            for point in curves["paper"].points
        ],
    )
    paths = [path5, path6, path7, path8]
    if args.scenario is not None:
        outcome = run_registered(
            args.scenario, executor=executor, cache=cache
        )
        paths.append(
            write_csv(
                out / f"scenario_{args.scenario}.csv",
                ["seed", "authentication_rate", "attack_success_rate",
                 "forged_accepted", "peak_buffer_bits"],
                [
                    (r.config.seed, r.authentication_rate,
                     r.attack_success_rate, r.fleet.total_forged_accepted,
                     r.fleet.peak_buffer_bits)
                    for r in outcome.results
                ],
            )
        )
    for path in paths:
        print(f"wrote {path}")

    if not args.no_plots:
        print()
        print(
            ascii_series_plot(
                {
                    "m* (paper Alg.3)": list(
                        zip(grid, map(float, curves["paper"].optimal_ms))
                    ),
                    "m* (argmin)": list(
                        zip(grid, map(float, curves["argmin"].optimal_ms))
                    ),
                },
                title="Fig. 7 — optimal m vs attack level p",
            )
        )
        print()
        print(
            ascii_series_plot(
                {
                    "E (game)": [
                        (point.p, point.game_cost)
                        for point in curves["paper"].points
                    ],
                    "N (naive)": [
                        (point.p, point.naive_cost)
                        for point in curves["paper"].points
                    ],
                },
                title="Fig. 8 — defense cost vs attack level p",
            )
        )
        print("\nFig. 6 regimes: " + ", ".join(
            f"{band.ess_type.value if band.ess_type else '?'}"
            f" m={band.m_min}..{band.m_max}"
            for band in bands
        ))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    params = _params(args)
    executor, cache = _engine(args)
    stability = recommendation_stability(
        params, relative_error=args.error, executor=executor, cache=cache
    )
    rows = [
        (field, f"±{args.error:.0%}", low, baseline, high)
        for field, (low, baseline, high) in stability.items()
    ]
    print(render_table(
        ["constant", "perturbation", "min m*", "baseline m*", "max m*"],
        rows,
        title=f"sensitivity of m* at p={args.p}",
    ))
    return 0


def _cmd_portrait(args: argparse.Namespace) -> int:
    params = _params(args, m=args.m)
    print(ascii_phase_portrait(params, grid=args.grid))
    return 0


def _cmd_boundaries(args: argparse.Namespace) -> int:
    from repro.analysis.boundaries import regime_boundaries

    bands = regime_boundaries(_params(args))

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.2f}"

    print(render_table(
        ["hand-over", "at m ="],
        [
            ("(1,1)  -> (1,Y')", fmt(bands.corner_to_edge)),
            ("(1,Y') -> (X,Y)", fmt(bands.edge_to_interior)),
            ("(X,Y)  -> (X',1)", fmt(bands.interior_to_give_up)),
        ],
        title=f"analytic ESS regime boundaries at p={args.p}",
    ))
    samples = [1, 5, 10, 15, 20, 30, 40, 50, 60, 80, 100]
    print("bands: " + ", ".join(f"m={m}:{bands.band_of(m)}" for m in samples))
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        sc = get_scenario(args.scenario).config
        config = LoadTestConfig(
            transport=args.transport,
            protocol=sc.protocol,
            receivers=sc.receivers,
            shards=min(args.shards, sc.receivers),
            intervals=sc.intervals,
            interval_duration=sc.interval_duration,
            buffers=sc.buffers,
            packets_per_interval=sc.packets_per_interval,
            announce_copies=sc.announce_copies,
            disclosure_delay=sc.disclosure_delay,
            attack_fraction=sc.attack_fraction,
            attack_burst_fraction=sc.attack_burst_fraction,
            loss_probability=sc.loss_probability,
            loss_mean_burst=sc.loss_mean_burst,
            delay=sc.link_delay,
            max_offset=sc.max_offset,
            workload=sc.workload,
            sensing_tasks=sc.sensing_tasks,
            seed=sc.seed,
            engine=args.engine,
        )
    else:
        config = LoadTestConfig(
            transport=args.transport,
            protocol=args.protocol,
            receivers=args.receivers,
            shards=args.shards,
            intervals=args.intervals,
            interval_duration=args.interval_duration,
            buffers=args.buffers,
            attack_fraction=args.p,
            attack_rate=float(args.rate),
            loss_probability=args.loss,
            loss_mean_burst=args.burst,
            jitter=args.jitter,
            duplicate_probability=args.duplicate,
            reorder_probability=args.reorder,
            seed=args.seed,
            engine=args.engine,
        )
    executor, _ = _engine(args)
    report = run_loadtest(config, executor=executor)
    print(report.to_json())
    if report.forged_accepted:
        print("SECURITY INVARIANT VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.cluster import ClusterConfig, parse_fault, run_cluster_soak

    if args.cluster_command == "worker":
        from repro.cluster.worker import main as worker_main

        return worker_main(
            ["--connect", args.connect]
            + (
                ["--worker-id", str(args.worker_id)]
                if args.worker_id is not None
                else []
            )
            + ["--max-runtime", str(args.max_runtime)]
        )

    scenario = get_scenario(args.scenario).config
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    shards = args.shards if args.shards is not None else args.workers
    config = ClusterConfig(
        scenario=scenario,
        workers=args.workers,
        shards=min(shards, scenario.receivers),
        rounds=args.rounds,
        engine=args.engine,
        heartbeat_interval=args.heartbeat,
        lease_ttl=args.lease_ttl,
        metrics_interval=args.metrics_interval,
        metrics_path=str(args.metrics) if args.metrics is not None else None,
        max_inflight=args.max_inflight,
        max_rss_mb=args.max_rss_mb,
        max_runtime=args.duration,
        task_stall=args.stall,
        faults=tuple(parse_fault(spec) for spec in args.fault),
        reconcile=not args.no_reconcile,
        tolerance=args.tolerance,
    )
    result = run_cluster_soak(config)
    document = result.report.to_json()
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(document + "\n")
        print(f"wrote {args.report}", file=sys.stderr)
    print(document)
    print(
        f"tasks={result.tasks} releases={result.releases}"
        f" backpressure_waits={result.backpressure_waits}"
        f" nacks={result.nacks} wall={result.wall_seconds:.1f}s",
        file=sys.stderr,
    )
    failed = False
    if result.reconciliation is not None:
        verdict = "ok" if result.reconciliation.ok else "FAIL"
        print(
            f"reconciliation: {verdict}"
            f" ({result.reconciliation.checked} tasks, tolerance"
            f" {result.reconciliation.tolerance})",
            file=sys.stderr,
        )
        for mismatch in result.reconciliation.mismatches:
            print(f"  {mismatch}", file=sys.stderr)
        failed = not result.reconciliation.ok
    if result.report.forged_accepted:
        print("SECURITY INVARIANT VIOLATED", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.udp import run_udp_serve

    config = LoadTestConfig(
        transport="udp",
        protocol=args.protocol,
        receivers=args.receivers,
        intervals=args.intervals,
        interval_duration=args.interval_duration,
        buffers=args.buffers,
        seed=args.seed,
        udp_host=args.host,
    )
    last_port = args.port + args.receivers - 1
    duration = args.intervals * args.interval_duration
    print(
        f"serving {args.protocol} on {args.host}:{args.port}-{last_port}"
        f" for ~{duration:.1f}s ({args.receivers} receivers, m={args.buffers})"
    )
    result = run_udp_serve(config, args.port)
    for node in result.fleet.nodes:
        print(
            f"{node.name}: authenticated={node.authenticated}"
            f" rejected_forged={node.rejected_forged}"
            f" forged_accepted={node.forged_accepted}"
            f" received={node.packets_received}"
        )
    print(f"authentication rate : {result.authentication_rate}")
    if result.fleet.total_forged_accepted:
        print("SECURITY INVARIANT VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.net.udp import run_udp_attack

    injected = run_udp_attack(
        args.host,
        args.port,
        rate=float(args.rate),
        duration=args.duration,
        interval_duration=args.interval_duration,
    )
    print(
        f"injected {injected} forged announcements at"
        f" {args.host}:{args.port} ({args.rate}/s for {args.duration:.1f}s)"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.perf.profiler import profile_call
    from repro.sim.scenario import run_scenario

    config = SCENARIO_PRESETS[args.preset]
    overrides = {}
    if args.interval_duration is not None:
        overrides["interval_duration"] = args.interval_duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)

    def measured() -> None:
        for _ in range(args.repeat):
            run_scenario(config)

    outcome = profile_call(
        measured, label=f"scenario:{args.preset} x{args.repeat}", top=args.top
    )
    document = outcome.report.to_json()
    # Write the file before printing: a closed stdout pipe (| head)
    # kills the process mid-print, and --out should survive that.
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(document + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(document)
    if outcome.report.counters.get("crypto.hash", 0) == 0:
        print(
            "error: profiled run reported zero hash invocations —"
            " perf counters are unwired",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import run_bench, run_sim_bench, write_bench_json

    json_path = args.json_path or Path(f"BENCH_{args.suite}.json")
    if args.suite == "sim":
        document = run_sim_bench(
            preset=args.preset,
            repeat=args.repeat,
            receivers=args.receivers,
        )
        write_bench_json(json_path, document)
        for name, section in sorted(document["results"].items()):
            print(
                f"{name:<30}: {section['speedup']:.2f}x"
                f" (des {section['des_wall_seconds']}s,"
                f" vectorized {section['vectorized_wall_seconds']}s)"
            )
        for entry in document.get("receivers_scaling", {}).get("entries", ()):
            label = f"scaling@{entry['receivers']}"
            speedup = (
                f"{entry['speedup']:.2f}x vs des"
                if "speedup" in entry
                else "fleet-only"
            )
            print(
                f"{label:<30}: {speedup}"
                f" (wall {entry['vectorized_wall_seconds']}s,"
                f" peak rss {entry['peak_rss_kb']} KB,"
                f" shards {entry['shards']})"
            )
        print(f"wrote {json_path}")
        return 0
    document = run_bench(preset=args.preset, repeat=args.repeat)
    write_bench_json(json_path, document)
    results = document["results"]
    rows = [
        ("keychain flood walks", results["keychain_walks"]["speedup"]),
        ("mac verify_many", results["mac_verify"]["speedup"]),
        ("mac compute_many", results["mac_batch"]["speedup"]),
        ("reservoir offer_many", results["umac_reservoir"]["speedup"]),
        ("scenario wall (naive stack)", results["scenario"]["speedup"]),
    ]
    for label, speedup in rows:
        print(f"{label:<30}: {speedup:.2f}x")
    pebbled = results["pebbled"]
    print(
        f"{'pebbled chain storage':<30}: {pebbled['peak_stored_keys']} peak keys"
        f" (bound {pebbled['peak_bound']}, dense {pebbled['dense_stored_keys']})"
    )
    print(f"wrote {json_path}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenarios_command == "list":
        rows = list_scenarios(
            family=args.family,
            tier=args.tier,
            engine=args.engine,
            protocol=args.protocol,
        )
        print(render_table(
            ["name", "tier", "family", "protocol", "engines", "seeds"],
            [
                (
                    d.name,
                    d.tier,
                    d.family,
                    d.config.protocol,
                    "+".join(d.engines),
                    ",".join(str(s) for s in d.seeds),
                )
                for d in rows
            ],
            title=f"scenario catalog ({len(rows)} entries)",
        ))
        return 0
    if args.scenarios_command == "describe":
        d = get_scenario(args.name)
        print(f"name          : {d.name}")
        print(f"family        : {d.family}")
        print(f"tier          : {d.tier}")
        print(f"engines       : {', '.join(d.engines)}")
        if d.engine_exclusion:
            print(f"exclusion     : {d.engine_exclusion}")
        print(f"seeds         : {', '.join(str(s) for s in d.seeds)}")
        print(f"provenance    : {d.provenance or '-'}")
        print(f"generated     : {d.generated}")
        print("config        :")
        import dataclasses

        for field_ in dataclasses.fields(d.config):
            print(f"  {field_.name:<22}: {getattr(d.config, field_.name)}")
        return 0
    # validate
    seeds = [args.seed] if args.seed is not None else None
    reports = validate_catalog(args.names or None, seeds=seeds)
    failed = 0
    for report in reports:
        status = "ok" if report.passed else "FAIL"
        extra = (
            f" [des-only: {report.engine_exclusion}]"
            if "vectorized" not in report.engines
            else ""
        )
        print(
            f"{status:<4} {report.name:<28} engines={'+'.join(report.engines)}"
            f" seeds={','.join(str(s) for s in report.seeds)}"
            f" comparisons={report.comparisons}{extra}"
        )
        for mismatch in report.mismatches:
            print(f"     {mismatch}", file=sys.stderr)
        if not report.passed:
            failed += 1
    print(
        f"{len(reports) - failed}/{len(reports)} scenarios uphold the"
        " replay contract"
    )
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import execute

    return execute(
        args.paths,
        output_format=args.format,
        select_csv=args.select,
        list_rules=args.list_rules,
        project=args.project,
        baseline=args.baseline,
        write_baseline=args.write_baseline,
    )


def _write_sanitize_artifact(path: Optional[Path], document: dict) -> None:
    import json

    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _sanitize_determinism(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.devtools.sanitizers import determinism
    from repro.sim.scenario import run_scenario

    scenario = get_scenario(args.scenario).config
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    with determinism.tracing() as reference:
        run_scenario(scenario)
    second = determinism.DeterminismSanitizer(corrupt_draw=args.mutate_draw)
    with determinism.tracing(second):
        run_scenario(scenario)
    divergences = reference.trace.diff(second.trace)
    document = {
        "scenario": args.scenario,
        "seed": scenario.seed,
        "total_draws": reference.trace.total_draws(),
        "mutate_draw": args.mutate_draw,
        "corrupted_site": second.corrupted_site,
        "divergences": [d.to_dict() for d in divergences],
    }
    _write_sanitize_artifact(args.json, document)
    print(
        f"sanitize determinism: {document['total_draws']} draws,"
        f" {len(divergences)} divergences"
    )
    for divergence in divergences[:5]:
        print(f"  {divergence.stream}: {divergence.reason}")
    if args.mutate_draw is not None:
        # Self-test mode: the injected corruption must be caught.
        caught = bool(divergences)
        print(
            "sanitize determinism: injected corruption"
            f" {'LOCALIZED at ' + str(second.corrupted_site) if caught else 'MISSED'}"
        )
        return 0 if caught else 1
    return 1 if divergences else 0


def _sanitize_locks(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, run_cluster_soak
    from repro.devtools.sanitizers import locks

    scenario = get_scenario(args.scenario).config
    shards = args.shards if args.shards is not None else args.workers
    config = ClusterConfig(
        scenario=scenario,
        workers=args.workers,
        shards=min(shards, scenario.receivers),
        max_runtime=args.duration,
    )
    with locks.tracking() as sanitizer:
        run_cluster_soak(config)
    inversions = sanitizer.inversions()
    _write_sanitize_artifact(args.json, sanitizer.to_json())
    print(
        f"sanitize locks: {sanitizer.acquisitions} acquisitions,"
        f" {len(sanitizer.edges)} order edges,"
        f" {len(sanitizer.blocked)} blocked waits,"
        f" {len(inversions)} inversions"
    )
    for inversion in inversions:
        print(
            f"  {inversion.first} -> {inversion.second}"
            f" (forward {inversion.forward_site},"
            f" backward {inversion.backward_site})"
        )
    return 1 if inversions else 0


def _sanitize_resources(args: argparse.Namespace) -> int:
    from repro.devtools.sanitizers import resources
    from repro.sim import fleet

    scenario = get_scenario(args.scenario).config
    executor = executor_for(args.jobs)
    try:
        with resources.tracking() as sanitizer:
            fleet.run_fleet_scenario(
                scenario, shards=args.shards, executor=executor
            )
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()
    leaks = sanitizer.leaks()
    _write_sanitize_artifact(args.json, sanitizer.to_json())
    print(
        f"sanitize resources: {sanitizer.tracked} tracked,"
        f" {sanitizer.released} released, {len(leaks)} leaks"
    )
    for leak in leaks:
        print(f"  {leak.kind} {leak.label} created at {leak.site}")
    return 1 if leaks else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    if args.sanitize_command == "determinism":
        return _sanitize_determinism(args)
    if args.sanitize_command == "locks":
        return _sanitize_locks(args)
    return _sanitize_resources(args)


_COMMANDS = {
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "scenarios": _cmd_scenarios,
    "figures": _cmd_figures,
    "sensitivity": _cmd_sensitivity,
    "portrait": _cmd_portrait,
    "boundaries": _cmd_boundaries,
    "loadtest": _cmd_loadtest,
    "cluster": _cmd_cluster,
    "serve": _cmd_serve,
    "attack": _cmd_attack,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
