"""Command-line interface: regenerate the paper's results from a shell.

Examples::

    python -m repro fig4 --cache-kb 512 --cache-dir benchmarks/out/store
    python -m repro fig5 --bus-delays 4 8 12
    python -m repro fig6 --quick
    python -m repro table1
    python -m repro all
    python -m repro calibrate --model chenlin --threads 4
    python -m repro report examples/scenarios/*.json --jobs 0
    python -m repro pareto --points 1024 --jobs 0
    python -m repro sweep --grid fig5 --shards 4 --jobs 0 --resume
    python -m repro spec dump fft --params '{"points": 1024}' -o f.json
    python -m repro spec hash f.json
    python -m repro run --spec f.json --cache-dir benchmarks/out/store

``--cache-dir`` points any spec-driven command at a content-addressed
:class:`~repro.scenario.store.RunStore`: the first invocation simulates
and stores per-estimator artifacts, repeat invocations replay them
without running a single kernel.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .contention import available_models, make_model
from .contention.calibrate import calibrate_model, render_calibration
from .experiments import (render_fig4, render_fig5, render_fig6,
                          render_table1, run_fig4, run_fig5, run_fig6,
                          run_table1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Modeling Shared Resource "
                     "Contention Using a Hybrid Simulation/Analytical "
                     "Approach' (DATE 2004)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent grid cells "
             "(default 1 = serial, 0 = one per CPU)")

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed run-store directory; estimator results "
             "are reused across invocations (keyed by spec hash and "
             "code version)")

    batching = argparse.ArgumentParser(add_help=False)
    batching.add_argument(
        "--batch-cells", type=int, default=0, metavar="N",
        help="mesh prepass: non-zero warms cold mesh cells before "
             "dispatch by compiling and replaying each SoA-eligible "
             "spec in memory (0 = off); execution-only — never "
             "changes spec hashes or results")

    fig4 = sub.add_parser("fig4", parents=[jobs, cache],
                          help="FFT queueing vs processor count")
    fig4.add_argument("--cache-kb", type=int, default=512,
                      choices=(512, 8))
    fig4.add_argument("--points", type=int, default=4096)
    fig4.add_argument("--procs", type=int, nargs="+",
                      default=(2, 4, 8, 16))

    table1 = sub.add_parser("table1", parents=[jobs],
                            help="MESH vs ISS runtimes")
    table1.add_argument("--points", type=int, default=4096)
    table1.add_argument("--procs", type=int, nargs="+", default=(2, 4, 8))

    fig5 = sub.add_parser("fig5", parents=[jobs, cache],
                          help="PHM queueing vs bus delay")
    fig5.add_argument("--bus-delays", type=float, nargs="+",
                      default=(2, 4, 6, 8, 10, 12, 16, 20))
    fig5.add_argument("--idle", type=float, default=0.90,
                      help="idle fraction of the second processor")

    fig6 = sub.add_parser("fig6", parents=[jobs, cache],
                          help="model error vs unbalance")
    fig6.add_argument("--quick", action="store_true",
                      help="single seed, fewer points")

    sub.add_parser("all", parents=[jobs, cache],
                   help="run every experiment")

    sub.add_parser("validate",
                   help="self-check the reproduction's claims (fast)")

    calibrate = sub.add_parser(
        "calibrate", parents=[jobs, cache, batching],
        help="fit-check a contention model vs ground truth")
    calibrate.add_argument("--model", default="chenlin",
                           choices=available_models())
    calibrate.add_argument("--threads", type=int, default=2)
    calibrate.add_argument("--service", type=float, default=4.0)

    simulate = sub.add_parser(
        "simulate", help="run a JSON scenario through the estimators")
    simulate.add_argument("scenario", help="path to a scenario .json")
    simulate.add_argument("--estimator", default="all",
                          choices=("all", "mesh", "iss", "analytical"))
    simulate.add_argument("--model", default="chenlin",
                          choices=available_models())
    simulate.add_argument("--min-timeslice", type=float, default=0.0)
    simulate.add_argument(
        "--max-virtual-time", type=float, default=None,
        help="abort (with partial results) past this many simulated "
             "cycles")
    simulate.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget in seconds for each estimator run")
    simulate.add_argument(
        "--fault-plan", default=None, metavar="PLAN_JSON",
        help="path to a fault-plan .json injected into the hybrid "
             "estimator (see repro.robustness.faults)")
    simulate.add_argument(
        "--model-fallback", default=None, metavar="CHAIN",
        help="comma-separated fallback chain of model names (e.g. "
             "'chenlin,mm1,constant'); wraps --model in a GuardedModel "
             "that falls back when an evaluation misbehaves")

    report = sub.add_parser(
        "report", parents=[jobs, cache],
        help="compare all estimators across several JSON scenarios")
    report.add_argument("scenarios", nargs="+", metavar="SCENARIO_JSON",
                        help="paths to scenario .json files (workload "
                             "documents or scenario specs)")
    report.add_argument("--model", default="chenlin",
                        choices=available_models())

    run = sub.add_parser(
        "run", parents=[cache],
        help="run a serialized scenario spec through the estimators")
    run.add_argument("--spec", required=True, metavar="SPEC_JSON",
                     help="path to a ScenarioSpec .json file")
    run.add_argument("--estimator", default="all",
                     choices=("all", "mesh", "iss", "analytical"))

    spec = sub.add_parser(
        "spec", help="author, inspect, and hash scenario specs")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    dump = spec_sub.add_parser(
        "dump", help="write the spec JSON for a generator configuration")
    dump.add_argument("generator",
                      help="registered workload generator name")
    dump.add_argument("--params", default="{}", metavar="JSON",
                      help="generator parameters as a JSON object")
    dump.add_argument("--model", default=None,
                      choices=available_models())
    dump.add_argument("--min-timeslice", type=float, default=0.0)
    dump.add_argument("--sync-policy", default="eager",
                      choices=("eager", "deferred"))
    dump.add_argument("--annotation", default="phase",
                      choices=("phase", "barrier"))
    dump.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="write to FILE instead of stdout")
    spec_hash = spec_sub.add_parser(
        "hash", help="print a spec file's content address")
    spec_hash.add_argument("spec_file", metavar="SPEC_JSON",
                           help="path to a ScenarioSpec .json file")

    pareto = sub.add_parser(
        "pareto", parents=[jobs],
        help="design-space sweep (FFT procs x bus delay) with Pareto "
             "front")
    pareto.add_argument("--points", type=int, default=1024,
                        help="FFT size per design point")
    pareto.add_argument("--procs", type=int, nargs="+",
                        default=(2, 4, 8, 16),
                        help="processor counts to sweep")
    pareto.add_argument("--bus-delays", type=float, nargs="+",
                        default=(2.0, 4.0, 8.0),
                        help="bus service times to sweep")
    pareto.add_argument("--model", default="chenlin",
                        choices=available_models())

    sweep = sub.add_parser(
        "sweep", parents=[jobs, cache, batching],
        help="fault-tolerant sharded sweep of a named spec grid "
             "(resumable via manifest + run store)")
    sweep.add_argument("--grid", default="fig5",
                       choices=("fig5", "pareto", "calibration"),
                       help="which standing grid to sweep")
    sweep.add_argument("--shards", type=int, default=4,
                       help="number of content-addressed shards")
    sweep.add_argument("--seed", type=int, default=0,
                       help="shard-assignment seed (reshuffles cells "
                            "across shards without changing cell "
                            "identity)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue a killed sweep from its manifest "
                            "and the run store (completed cells replay, "
                            "never recompute)")
    sweep.add_argument("--manifest", default=None, metavar="FILE",
                       help="manifest checkpoint path (default: "
                            "derived from the plan hash inside the "
                            "store)")
    sweep.add_argument("--estimators", default="all",
                       choices=("all", "iss", "mesh", "analytical"),
                       help="which estimator(s) each cell runs")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-cell wall-clock timeout (hung workers "
                            "become retryable timeouts; needs --jobs "
                            "!= 1)")
    sweep.add_argument("--shard-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-shard wall-clock budget; a shard that "
                            "exceeds it stops retrying locally and its "
                            "leftovers are work-stolen")
    sweep.add_argument("--max-retries", type=int, default=3,
                       help="retry rounds for transient failures "
                            "before a shard is quarantined")
    sweep.add_argument("--quick", action="store_true",
                       help="small subgrid (smoke tests, chaos drills)")
    sweep.add_argument("--chaos-kill", type=int, default=0, metavar="N",
                       help="testing: SIGKILL the worker evaluating "
                            "each of the first N cells, once per cell "
                            "(requires --jobs != 1)")

    serve = sub.add_parser(
        "serve", parents=[jobs, cache],
        help="contention-modeling-as-a-service: HTTP/JSON server "
             "answering POST /v1/analyze from the run store (warm) or "
             "one coalesced kernel run (cold)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8351,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument("--batch-cells", type=int, default=-1,
                       metavar="N",
                       help="mesh prepass for drained cold cells: "
                            "non-zero compiles and replays each "
                            "SoA-eligible spec in memory before the "
                            "per-cell path (0 = off); execution-only "
                            "— never changes results")
    serve.add_argument("--deadline-seconds", type=float, default=30.0,
                       metavar="SECONDS",
                       help="default per-request wall-clock deadline "
                            "(clients may lower it per request; "
                            "exceeding it returns 504)")
    serve.add_argument("--quota-capacity", type=int, default=60,
                       metavar="TOKENS",
                       help="per-tenant token-bucket burst capacity "
                            "(exhausting it returns 429)")
    serve.add_argument("--quota-refill", type=float, default=10.0,
                       metavar="PER_SECOND",
                       help="per-tenant token refill rate")

    return parser


def _run_fig4(args) -> str:
    rows = run_fig4(cache_kb=args.cache_kb,
                    proc_counts=tuple(args.procs), points=args.points,
                    jobs=getattr(args, "jobs", 1),
                    store=getattr(args, "cache_dir", None))
    return render_fig4(rows)


def _run_table1(args) -> str:
    rows = run_table1(proc_counts=tuple(args.procs), points=args.points,
                      jobs=getattr(args, "jobs", 1))
    return render_table1(rows)


def _run_fig5(args) -> str:
    rows = run_fig5(bus_delays=tuple(args.bus_delays),
                    idle_fractions=(0.06, args.idle),
                    jobs=getattr(args, "jobs", 1),
                    store=getattr(args, "cache_dir", None))
    return render_fig5(rows)


def _run_fig6(args) -> str:
    jobs = getattr(args, "jobs", 1)
    store = getattr(args, "cache_dir", None)
    if args.quick:
        rows = run_fig6(idle_sweep=(0.0, 0.45, 0.90), bus_delays=(8,),
                        seeds=(1,), jobs=jobs, store=store)
    else:
        rows = run_fig6(jobs=jobs, store=store)
    return render_fig6(rows)


def _run_all(args) -> str:
    class _Args:
        cache_kb = 512
        points = 4096
        procs = (2, 4, 8, 16)
        bus_delays = (2, 4, 6, 8, 10, 12, 16, 20)
        idle = 0.90
        quick = False
        jobs = getattr(args, "jobs", 1)
        cache_dir = getattr(args, "cache_dir", None)

    parts = []
    for cache_kb in (512, 8):
        _Args.cache_kb = cache_kb
        parts.append(_run_fig4(_Args))
    _Args.procs = (2, 4, 8)
    parts.append(_run_table1(_Args))
    parts.append(_run_fig5(_Args))
    parts.append(_run_fig6(_Args))
    return "\n\n".join(parts)


def _run_calibrate(args) -> str:
    model = make_model(args.model)
    points = calibrate_model(model, threads=args.threads,
                             service_time=args.service,
                             jobs=getattr(args, "jobs", 1),
                             store=getattr(args, "cache_dir", None),
                             batch_cells=getattr(args, "batch_cells", 0))
    return render_calibration(model, points)


class CommandFailed(Exception):
    """A command whose report says it failed: :func:`main` prints the
    report and exits 1."""

    def __init__(self, report: str):
        super().__init__(report)
        self.report = report


def _run_validate(args) -> str:
    from .experiments.validate import render_validation, run_validation

    checks = run_validation()
    report = render_validation(checks)
    if not all(check.passed for check in checks):
        raise CommandFailed(report)
    return report


def _run_simulate(args) -> str:
    from .experiments.runner import ESTIMATORS, run_comparison
    from .robustness import GuardedModel, RunBudget, load_fault_plan
    from .workloads.io import load_workload

    workload = load_workload(args.scenario)
    include = (ESTIMATORS if args.estimator == "all"
               else (args.estimator,))
    if args.model_fallback:
        model = GuardedModel.from_names(chain=args.model_fallback)
    else:
        model = make_model(args.model)
    fault_plan = (load_fault_plan(args.fault_plan)
                  if args.fault_plan else None)
    budget = None
    if args.max_virtual_time is not None or args.timeout is not None:
        budget = RunBudget(max_virtual_time=args.max_virtual_time,
                           max_wall_seconds=args.timeout)
    comparison = run_comparison(workload,
                                model=model,
                                min_timeslice=args.min_timeslice,
                                include=include,
                                fault_plan=fault_plan,
                                budget=budget)
    lines = [f"scenario: {args.scenario}"]
    for name in include:
        run = comparison.runs[name]
        lines.append(
            f"  {name:<10s} queueing={run.queueing_cycles:12,.1f}  "
            f"({run.percent_queueing:5.2f}% of busy)  "
            f"wall={run.wall_seconds * 1e3:8.2f}ms")
    if "iss" in include:
        for name in include:
            if name != "iss":
                lines.append(f"  {name} error vs iss: "
                             f"{comparison.error(name):.1f}%")
    mesh = comparison.runs.get("mesh")
    if mesh is not None:
        health = getattr(mesh.detail, "health", None)
        if health is not None and not health.ok:
            lines.append("  " + health.summary().replace("\n", "\n  "))
        faults = getattr(mesh.detail, "faults_injected", 0.0)
        if faults:
            lines.append(f"  faults injected (mesh): {faults:.1f}")
    return "\n".join(lines)


def _spec_for_scenario_file(path: str, model_name: str):
    """Load a scenario file as a :class:`ScenarioSpec`.

    Accepts either a serialized spec (a JSON object with a
    ``"generator"`` key — taken verbatim, including its own model) or a
    plain workload document, which is wrapped as an ``inline`` spec so
    its content — every phase and access count — becomes the spec hash.
    """
    import json

    from .scenario import ModelSpec, ScenarioSpec

    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, dict) and "generator" in document:
        return ScenarioSpec.from_dict(document)
    spec = ScenarioSpec(generator="inline",
                        params={"document": document},
                        model=ModelSpec(name=model_name))
    # Validate eagerly so a malformed file fails at load time (one bad
    # row) with its path, not later inside a worker process.
    spec.build_workload()
    return spec


def _run_report(args) -> str:
    from .experiments.report import format_table
    from .experiments.runner import run_comparisons_parallel

    specs = {}
    load_errors = {}
    for path in args.scenarios:
        try:
            specs[path] = _spec_for_scenario_file(path, args.model)
        except Exception as exc:  # a bad file is one failed row, not a crash
            load_errors[path] = f"{type(exc).__name__}: {exc}"
    cache_dir = getattr(args, "cache_dir", None)
    cells = run_comparisons_parallel(list(specs.values()),
                                     jobs=getattr(args, "jobs", 1),
                                     store=cache_dir)
    by_path = dict(zip(specs, cells))
    rows = []
    cached_runs = 0
    total_runs = 0
    for path in args.scenarios:
        cell = by_path.get(path)
        error = (load_errors.get(path)
                 or (None if cell.ok else cell.error))
        if error is not None:
            if cell is not None and cell.spec_hash:
                error += f" [spec {cell.spec_hash[:12]}]"
            rows.append([path, "-", "-", "-", "-", f"error: {error}"])
            continue
        comparison = cell.value
        cached_runs += comparison.cached_runs
        total_runs += len(comparison.runs)
        mesh = comparison.runs["mesh"]
        iss = comparison.runs["iss"]
        analytical = comparison.runs["analytical"]
        rows.append([
            path,
            f"{iss.queueing_cycles:,.0f}",
            f"{mesh.queueing_cycles:,.0f}",
            f"{analytical.queueing_cycles:,.0f}",
            f"{comparison.error('mesh'):+.1f}% / "
            f"{comparison.error('analytical'):+.1f}%",
            f"{comparison.speedup():.1f}x",
        ])
    table = format_table(
        ["scenario", "iss Q", "mesh Q", "analytical Q",
         "err mesh/analytical", "mesh speedup"],
        rows,
        title=f"Estimator comparison ({args.model} model)")
    if cache_dir is not None:
        table += (f"\nrun store: {cached_runs} of {total_runs} "
                  f"estimator runs replayed from cache "
                  f"({cache_dir})")
    return table


def _run_run(args) -> str:
    from .experiments.runner import ESTIMATORS, run_comparison
    from .scenario import load_spec

    spec = load_spec(args.spec)
    include = (ESTIMATORS if args.estimator == "all"
               else (args.estimator,))
    comparison = run_comparison(spec, include=include,
                                store=getattr(args, "cache_dir", None))
    lines = [f"spec: {args.spec}",
             f"spec hash: {comparison.spec_hash}"]
    for name in include:
        run = comparison.runs[name]
        suffix = "  [cached]" if run.cached else ""
        lines.append(
            f"  {name:<10s} queueing={run.queueing_cycles:12,.1f}  "
            f"({run.percent_queueing:5.2f}% of busy)  "
            f"wall={run.wall_seconds * 1e3:8.2f}ms{suffix}")
    if "iss" in include:
        for name in include:
            if name != "iss":
                lines.append(f"  {name} error vs iss: "
                             f"{comparison.error(name):.1f}%")
    if getattr(args, "cache_dir", None) is not None:
        lines.append(f"run store: {comparison.cached_runs} of "
                     f"{len(comparison.runs)} estimator runs replayed "
                     f"from cache")
    return "\n".join(lines)


def _run_spec(args) -> str:
    import json

    from .scenario import (ModelSpec, ScenarioSpec, code_version,
                           load_spec, save_spec)

    if args.spec_command == "hash":
        spec = load_spec(args.spec_file)
        return (f"spec hash   : {spec.spec_hash()}\n"
                f"code version: {code_version()}")
    from .scenario import resolve_generator

    resolve_generator(args.generator)  # fail fast on unknown names
    params = json.loads(args.params)
    spec = ScenarioSpec(
        generator=args.generator,
        params=params,
        model=(ModelSpec(name=args.model) if args.model else None),
        min_timeslice=args.min_timeslice,
        sync_policy=args.sync_policy,
        annotation=args.annotation,
    )
    if args.output:
        save_spec(spec, args.output)
        return (f"wrote {args.output} "
                f"(spec hash {spec.spec_hash()[:12]})")
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True)


def _pareto_cell(points: int, design):
    """One design point: build the workload and characterize it."""
    from .analytical import characterize
    from .sweepfabric.grids import pareto_design_spec

    procs, bus = design
    # The same content-addressed cell `repro sweep --grid pareto`
    # evaluates, so the two commands share store artifacts.
    spec = pareto_design_spec(points, procs, bus)
    workload = spec.build_workload()
    return workload, characterize(workload)


def _run_sweep(args) -> str:
    from .experiments.runner import ESTIMATORS
    from .robustness.faults import RetryPolicy
    from .scenario.store import RunStore
    from .sweepfabric import ChaosPlan, make_grid, run_sharded_sweep

    specs = make_grid(args.grid, quick=args.quick)
    store = RunStore(args.cache_dir or "benchmarks/out/sweepstore")
    include = (ESTIMATORS if args.estimators == "all"
               else (args.estimators,))
    chaos = None
    if args.chaos_kill:
        chaos = ChaosPlan.kill_first(
            specs, args.chaos_kill,
            marker_dir=store.root / "chaos-markers")
    retry = RetryPolicy(kind="exponential", delay=0.1, factor=2.0,
                        cap=2.0, max_retries=args.max_retries,
                        jitter=0.5, jitter_seed=args.seed)
    result = run_sharded_sweep(
        specs, store, shards=args.shards, seed=args.seed,
        jobs=args.jobs, resume=args.resume,
        manifest_path=args.manifest, include=include, retry=retry,
        shard_budget=args.shard_timeout,
        cell_timeout=args.cell_timeout, chaos=chaos,
        batch_cells=getattr(args, "batch_cells", 0))
    return result.summary()


def _run_pareto(args) -> str:
    import functools

    from .analytical import estimate_queueing
    from .experiments.pareto import evaluate_designs, knee_point, \
        pareto_front
    from .experiments.report import format_table

    designs = [(procs, bus)
               for procs in args.procs for bus in args.bus_delays]
    # Workload construction + characterization parallelize per design;
    # the analytical model then evaluates each design in this process.
    cells = evaluate_designs(designs,
                             functools.partial(_pareto_cell, args.points),
                             jobs=getattr(args, "jobs", 1))
    model = make_model(args.model)
    rows_data = []
    for (procs, bus), (workload, profiles) in zip(designs, cells):
        estimate = estimate_queueing(workload, model=model,
                                     profiles=profiles)
        makespan = max(
            profile.busy_cycles + estimate.per_thread.get(name, 0.0)
            for name, profile in profiles.items())
        rows_data.append({"procs": procs, "bus": bus,
                          "makespan": makespan,
                          "queueing": estimate.queueing_cycles})
    objectives = [
        lambda d: d["makespan"],      # time
        lambda d: float(d["procs"]),  # area cost
        lambda d: 1.0 / d["bus"],     # bus speed cost (faster = dearer)
    ]
    front = pareto_front(rows_data, objectives)
    knee = knee_point(rows_data, objectives)
    front_ids = {id(d) for d in front}
    rows = [[d["procs"], f"{d['bus']:g}", f"{d['makespan']:,.0f}",
             f"{d['queueing']:,.0f}",
             ("knee" if d is knee else
              "front" if id(d) in front_ids else "")]
            for d in rows_data]
    return format_table(
        ["procs", "bus", "est. makespan", "est. queueing", "pareto"],
        rows,
        title=(f"FFT-{args.points} design sweep "
               f"({args.model} whole-run model)"))


def _run_serve(args) -> str:
    from .service import ServiceConfig
    from .service import run as run_service

    run_service(ServiceConfig(
        host=args.host,
        port=args.port,
        store=getattr(args, "cache_dir", None),
        jobs=getattr(args, "jobs", 1),
        batch_cells=args.batch_cells,
        deadline_seconds=args.deadline_seconds,
        quota_capacity=args.quota_capacity,
        quota_refill_per_second=args.quota_refill,
    ))
    return "service stopped"


_COMMANDS = {
    "fig4": _run_fig4,
    "table1": _run_table1,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "all": _run_all,
    "calibrate": _run_calibrate,
    "validate": _run_validate,
    "simulate": _run_simulate,
    "report": _run_report,
    "pareto": _run_pareto,
    "sweep": _run_sweep,
    "serve": _run_serve,
    "run": _run_run,
    "spec": _run_spec,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A run that exhausts its :class:`~repro.robustness.budget.RunBudget`
    prints the reason plus the partial result's summary and exits 1
    instead of traceback-crashing.  A command whose own checks fail
    (``validate`` with any FAIL line) prints its report and exits 1.
    """
    from .core.errors import BudgetExceededError

    args = build_parser().parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except CommandFailed as exc:
        print(exc.report)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial_result is not None:
            print("partial result at abort:", file=sys.stderr)
            print(exc.partial_result.summary(), file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
