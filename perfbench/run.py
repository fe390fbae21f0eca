"""End-to-end benchmark of the hybrid contention estimator.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_models --seed 1 \
        --seconds 30 --trace 0

``--workload all`` (the default) runs every workload in turn and prints
each end-to-end metric by name and unit per workload.  ``--trace 0``
reports the end-to-end metrics, measured without instrumentation;
``--trace 1`` is a separate run that reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (environment, repeat counts, median and
quartiles of every metric).  The exit code is non-zero when any output
check failed.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: name -> (unit, kind).  "host" metrics are host time or memory,
#: "sim" metrics are simulated and deterministic, "check" metrics are
#: output-check ratios.
END_TO_END = {
    "setup_s": ("s", "host"),
    "cold_cells_per_s": ("cells/s", "host"),
    "warm_cells_per_s": ("cells/s", "host"),
    "ok_ratio": ("ratio", "check"),
    "mesh_err_pct": ("%", "sim"),
    "p50_ms": ("ms", "host"),
    "p99_ms": ("ms", "host"),
    "max_rps": ("1/s", "host"),
    "peak_rss_mb": ("MB", "host"),
}

PER_LAYER = {
    "scenario.spec.validate_us": "us",
    "scenario.spec.hash_us": "us",
    "scenario.store.get_us": "us",
    "scenario.store.put_us": "us",
    "scenario.store.hit_ratio": "ratio",
    "workloads.build_ms": "ms",
    "workloads.lower_ms": "ms",
    "workloads.builds": "count",
    "analytical.characterize_ms": "ms",
    "analytical.estimate_ms": "ms",
    "cycle.iss_ms": "ms",
    "cycle.iss_runs": "count",
    "cycle.sim_cycles_per_s": "cycles/s",
    "core.mesh_ms": "ms",
    "core.regions_per_s": "regions/s",
    "core.engine_used.object": "count",
    "core.engine_used.soa": "count",
    "core.backend_used.interp": "count",
    "core.backend_used.numpy": "count",
    "core.backend_used.jit": "count",
    "core.prepass_cells": "count",
    "engine.runs_computed": "count",
    "engine.runs_cached": "count",
    "engine.workload_builds": "count",
    "unattributed_share": "ratio",
    "unattributed_share_warm": "ratio",
    "trace.overhead_s": "s",
    "service.warm_ms": "ms",
    "service.cold_ms": "ms",
    "service.framing_ms": "ms",
    "service.coalesce_joins": "count",
    "service.batch_cells": "cells",
    "service.quota_rejected": "count",
    "loadgen.lag_ms": "ms",
}

#: Set-ups timed per run (``setup_s`` is their median).
SETUP_SAMPLES = 5
#: Warm passes per repeat run for at least this long, at least three
#: passes and at least ``grid.WARM_SHARE`` of the cold phase's time.
WARM_SECONDS = 0.5
#: A run that has not finished its measurement by then stops repeating.
DEADLINE_S = 150.0


def spawn_worker(inputs: Path, store: Path, mode: str, warm_seconds: float,
                 log: Path, spans: Optional[Path] = None,
                 timeout: float = DEADLINE_S):
    """Run one grid worker; returns (setup seconds, result dict).

    The set-up time is scaled to the reference host's speed by
    calibrations taken just before the spawn and just after ``READY``."""
    command = [sys.executable, str(common.BENCH_DIR / "grid.py"),
               "--inputs", str(inputs), "--store", str(store),
               "--mode", mode, "--warm-seconds", str(warm_seconds)]
    if spans is not None:
        command += ["--spans", str(spans)]
    with open(log, "ab") as err:
        before = common.median_slowdown()
        start = time.perf_counter()
        # Unbuffered, so communicate() sees every byte after READY.
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=err, env=common.child_env(),
                                cwd=str(common.ROOT), bufsize=0)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - start
            if line.strip() != b"READY":
                raise RuntimeError(f"grid worker failed during set-up "
                                   f"(see {log})")
            setup_s /= (before + common.median_slowdown()) / 2
            out, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"grid worker exited {proc.returncode} "
                           f"(see {log})")
    return setup_s, json.loads(out.decode().strip().splitlines()[-1])


def _layer_rate(layers: Dict, name: str, scale: float) -> float:
    """Mean self time per call of one layer, scaled (0 if never called)."""
    row = layers.get(name)
    if not row or not row["calls"]:
        return 0.0
    return scale * row["self_s"] / row["calls"]


def _merge_layers(tables: List[Dict]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += row["calls"]
            into["self_s"] += row["self_s"]
    return merged


def _median(values) -> float:
    return common.summarize(values)["median"]


def run_grid(workload: str, seed: int, seconds: float, quick: bool,
             trace: bool, work: Path) -> Dict:
    """Repeat fresh-process cold+warm runs of a grid for ``seconds``."""
    inputs_path = work / "inputs.json"
    with open(inputs_path, "w", encoding="utf-8") as handle:
        json.dump(common.grid_inputs(workload, seed, quick), handle)
    warm_seconds = 0.2 if quick else WARM_SECONDS
    log = work / "worker.log"
    start = time.perf_counter()
    setups: List[float] = []
    runs: List[Dict] = []
    traced: List[Dict] = []
    repeat_s = 0.0
    # A repeat that would end more than half of it past ``seconds``
    # is not started, so a run lasts about ``seconds`` on average.
    while not runs or (time.perf_counter() - start + repeat_s / 2 < seconds
                       and time.perf_counter() - start < DEADLINE_S / 2):
        k = len(runs)
        repeat_start = time.perf_counter()
        setup_s, result = spawn_worker(
            inputs_path, work / f"store-{k}", "sweep", warm_seconds, log)
        setups.append(setup_s)
        runs.append(result)
        if trace:
            spans = (common.OUT_DIR / f"spans-{workload}-seed{seed}.json"
                     if k == 0 else None)
            traced.append(spawn_worker(
                inputs_path, work / f"traced-store-{k}", "traced",
                warm_seconds, log, spans=spans)[1])
        repeat_s = time.perf_counter() - repeat_start
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_worker(inputs_path,
                                   work / f"setup-store-{len(setups)}",
                                   "setup", 0.0, log)[0])

    errors = [e for run in runs for e in run["errors"]]
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    first = runs[0]["queueing"]
    for run in runs[1:]:
        if run["queueing"] != first:
            failed += 1
            errors.append("queueing differs between repeats")
    for run in traced:
        attempted += run["cells"]
        bad = [h for h, q in run["queueing"].items() if first.get(h) != q]
        failed += len(bad) + run["warm_misses"]
        errors.extend(f"traced {h[:12]}: queueing differs from the "
                      f"sweep" for h in bad[:5])
        errors.extend(run["span_problems"])
        failed += len(run["span_problems"])
    cells = runs[0]["cells"]
    # Host rates and latencies are scaled to the reference host's speed
    # by the calibration next to each phase (common.calibrate).
    cold_rates = [cells / run["cold_reference_s"] for run in runs]
    warm_slowdowns = [s for run in runs for s in _warm_slowdowns(run)]
    warm_walls = [wall for run in runs for wall in run["warm_walls_s"]]
    warm_rates = [cells / wall * slow
                  for wall, slow in zip(warm_walls, warm_slowdowns)]
    # Each cell's latency is its mean over the repeats, so one slow
    # repeat cannot set p99 on a grid of a few dozen cells.
    latencies = [statistics.fmean(run["cell_latencies_ms"][h]
                                  / run["cell_slowdowns"][h]
                                  for run in runs)
                 for h in runs[0]["cell_latencies_ms"]]
    samples = {
        "setup_s": setups,
        "cold_cells_per_s": cold_rates,
        "warm_cells_per_s": warm_rates,
        "mesh_err_pct": [run["mesh_err_pct"] for run in runs],
        "p50_ms": [common.percentile(latencies, 0.50)],
        "p99_ms": [common.percentile(latencies, 0.99)],
        # A sweep is one closed-loop client: the highest cell rate it
        # sustains is its cold-phase rate.
        "max_rps": cold_rates,
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    cold_rate = cells * len(runs) / sum(run["cold_reference_s"]
                                        for run in runs)
    slowdowns = [run["cold_wall_s"] / run["cold_reference_s"]
                 for run in runs]
    result = {"samples": samples, "attempted": attempted,
              "failed": failed, "errors": errors[:20],
              "rates": {"cold_cells_per_s": cold_rate,
                        "max_rps": cold_rate},
              "detail": {
                  "repeats": len(runs), "cells": cells,
                  "warm_passes": len(warm_walls),
                  # As measured, before the scaling to reference speed.
                  "unscaled_cold_cells_per_s": (
                      cells * len(runs)
                      / sum(run["cold_wall_s"] for run in runs)),
                  "unscaled_warm_cells_per_s": (
                      cells * len(warm_walls) / sum(warm_walls)),
                  "cold_slowdown": common.summarize(slowdowns),
                  "warm_slowdown": common.summarize(warm_slowdowns)}}
    if trace:
        result["layers"] = _grid_layers(runs, traced)
    return result


def _warm_slowdowns(run: Dict) -> List[float]:
    """Each warm pass's slowdown: the mean of the two calibrations
    that bracket it, each its object and file work over their
    reference time."""
    reference = common.CALIBRATION_REF_S + common.CALIBRATION_FILES_REF_S
    slow = [(objects + files) / reference
            for objects, files in run["warm_calibrations"]]
    return [(a + b) / 2 for a, b in zip(slow, slow[1:])]


def _grid_layers(runs: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics from the sweep and the traced workers."""
    cold = _merge_layers([t["cold_layers"] for t in traced])
    warm = _merge_layers([t["warm_layers"] for t in traced])
    both = _merge_layers([cold, warm])
    iss_s = cold.get("cycle.iss", {}).get("self_s", 0.0)
    mesh_s = cold.get("core.mesh", {}).get("self_s", 0.0)

    def covered(table):
        # Everything but the benchmark's own per-cell wrapper.
        return sum(row["self_s"] for key, row in table.items()
                   if key != "cell")

    # Means, not medians: the sweep and traced workers alternate, and a
    # host that switches between a fast and a slow speed every few
    # seconds can put the two medians in different modes.
    cold_wall = statistics.fmean(r["cold_wall_s"] for r in runs)
    cold_spans = statistics.fmean(covered(t["cold_layers"])
                                  for t in traced)
    warm_walls = [w for r in runs for w in r["warm_walls_s"]]
    warm_wall = statistics.fmean(warm_walls)
    warm_spans = (sum(covered(t["warm_layers"]) for t in traced)
                  / sum(len(t["warm_walls_s"]) for t in traced))
    engines = runs[0]["engine_used"]
    backends = runs[0]["backend_used"]
    return {
        "scenario.spec.validate_us": _layer_rate(
            both, "scenario.spec.validate", 1e6),
        "scenario.spec.hash_us": _layer_rate(both, "scenario.spec.hash",
                                             1e6),
        "scenario.store.get_us": _layer_rate(both, "scenario.store.get",
                                             1e6),
        "scenario.store.put_us": _layer_rate(cold, "scenario.store.put",
                                             1e6),
        "scenario.store.hit_ratio": _median(
            [r["warm_hit_ratio"] for r in runs]),
        "workloads.build_ms": _layer_rate(cold, "workloads.build", 1e3),
        "workloads.lower_ms": _layer_rate(cold, "workloads.lower", 1e3),
        "workloads.builds": max(r["warm_counts"]["builds"] for r in runs),
        "analytical.characterize_ms": _layer_rate(
            cold, "analytical.characterize", 1e3),
        "analytical.estimate_ms": _layer_rate(cold, "analytical.estimate",
                                              1e3),
        "cycle.iss_ms": _layer_rate(cold, "cycle.iss", 1e3),
        "cycle.iss_runs": runs[0]["cold_counts"]["iss_runs"],
        "cycle.sim_cycles_per_s": (sum(t["sim_cycles"] for t in traced)
                                   / iss_s if iss_s else 0.0),
        "core.mesh_ms": _layer_rate(cold, "core.mesh", 1e3),
        "core.regions_per_s": (sum(t["regions"] for t in traced) / mesh_s
                               if mesh_s else 0.0),
        "core.engine_used.object": engines.get("object", 0),
        "core.engine_used.soa": engines.get("soa", 0),
        "core.backend_used.interp": backends.get("interp", 0),
        "core.backend_used.numpy": backends.get("numpy", 0),
        "core.backend_used.jit": backends.get("jit", 0),
        "core.prepass_cells": 0,
        "engine.runs_computed": max(r["warm_runs_computed"] for r in runs),
        "engine.runs_cached": runs[0]["warm_runs_cached"],
        "engine.workload_builds": runs[0]["cold_counts"]["builds"],
        "unattributed_share": (cold_wall - cold_spans) / cold_wall,
        "unattributed_share_warm": (warm_wall - warm_spans) / warm_wall,
        "trace.overhead_s": (statistics.fmean(t["cold_wall_s"]
                                              for t in traced)
                             - cold_wall),
        "service.warm_ms": 0.0,
        "service.cold_ms": 0.0,
        "service.framing_ms": 0.0,
        "service.coalesce_joins": 0,
        "service.batch_cells": 0.0,
        "service.quota_rejected": 0,
        "loadgen.lag_ms": 0.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> Dict:
    """One workload run -> the full record (metrics, checks, context)."""
    from repro.perf.bench import environment_info

    work = common.WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "serve_mixed":
            import serve

            result = serve.run_serve(seed, seconds, quick, trace, work,
                                     SETUP_SAMPLES)
        else:
            result = run_grid(workload, seed, seconds, quick, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()
        except OSError:  # another run is still using it
            pass
    samples = result["samples"]
    attempted, failed = result["attempted"], result["failed"]
    samples["ok_ratio"] = [1.0 - failed / attempted if attempted else 0.0]
    correct = failed == 0 and not result["errors"] and attempted > 0
    if trace:
        layers = result["layers"]
        missing = set(PER_LAYER) - set(layers)
        layers.update({name: 0 for name in missing})
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]}
                   for name in PER_LAYER}
        summaries = {}
    else:
        summaries = {name: common.summarize(samples[name])
                     for name in END_TO_END}
        # Rates are all cells (or requests) over all the time they
        # took; every other metric is the median of its samples.
        values = {name: result.get("rates", {}).get(
            name, summaries[name]["median"]) for name in END_TO_END}
        metrics = {name: {"value": values[name],
                          "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_info(),
        "summaries": {name: dict(summary, kind=END_TO_END[name][1],
                                 unit=END_TO_END[name][0],
                                 value=metrics[name]["value"])
                      for name, summary in summaries.items()},
        "detail": result.get("detail", {}),
        "errors": result["errors"],
        "result": {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    path = common.OUT_DIR / (f"record-{workload}-seed{seed}-"
                             f"trace{int(trace)}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return record


def _report(record: Dict) -> None:
    """Human-readable lines: each metric by name, with its unit."""
    head = (f"{record['workload']} (seed {record['seed']}, "
            f"trace {record['trace']}):")
    print(head, "correct" if record["result"]["correct"] else "INCORRECT")
    for error in record["errors"]:
        print(f"  check failed: {error}")
    for name, metric in record["result"]["metrics"].items():
        summary = record["summaries"].get(name)
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        if summary:
            print(f"  {name:<28} {shown:>12} {metric['unit']:<8} "
                  f"[median {summary['median']:.6g}, "
                  f"q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, "
                  f"n={summary['n']}, {summary['kind']}]")
        else:
            print(f"  {name:<28} {shown:>12} {metric['unit']}")


def _finite(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: fig5_models, explore_mesh, "
                    "serve_mixed")
    parser.add_argument("--workload", default="all",
                        choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs (self-tests only)")
    args = parser.parse_args(argv)
    common.require_source()
    # On SIGTERM, unwind through the finally blocks that stop the
    # worker and server processes this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = (common.WORKLOADS if args.workload == "all"
             else (args.workload,))
    records = [run_workload(name, args.seed, args.seconds,
                            bool(args.trace), args.quick)
               for name in names]
    for record in records:
        _report(record)
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{name}": metric
                        for r in records
                        for name, metric in r["result"]["metrics"].items()},
        }
    for metric in final["metrics"].values():
        metric["value"] = _finite(metric["value"])
        if metric["value"] is None:
            final["correct"] = False
    print(json.dumps({"records": [
        {key: record[key] for key in ("workload", "seed", "trace",
                                      "environment", "summaries")}
        for record in records]}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
