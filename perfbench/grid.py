"""Worker process for the grid workloads (``fig5_models``, ``explore_mesh``).

Run by ``run.py`` once per repeat, so every cold phase starts in a
fresh process on an empty store::

    python3 perfbench/grid.py --inputs SPECS.json --store DIR \
        --mode setup|sweep|traced --warm-seconds S [--spans FILE]

The worker sets up (imports, opens the store, computes the code
version, parses the specs), prints ``READY``, runs the cold phase and
then warm passes over the filled store for ``--warm-seconds`` (sweep
mode: at least ``WARM_SHARE`` of the cold phase's time), and prints
one JSON result line.  ``setup`` mode stops after
``READY``: the harness times extra set-ups with it.

* ``sweep`` drives the program exactly as ``repro sweep`` does:
  ``run_sharded_sweep(specs, store, jobs=1)`` cold, then
  ``resume=True`` passes, with call counters on ``EventEngine.run``
  and ``ScenarioSpec.build_workload`` (class attributes, so the
  program's own calls are counted; nothing is timed).  Host-speed
  calibrations (``common.calibrate``, and ``calibrate_files`` for warm
  passes) run after every cold store write and between warm passes;
  their time is left out of the phases.
* ``traced`` calls the layers' public functions itself, cell by cell,
  inside spans: validate -> spec_hash -> RunStore.get ->
  build_workload -> characterize -> EventEngine.run ->
  ScenarioSpec.build_kernel + run -> estimate_queueing -> RunStore.put
  (warm passes stop after the store probe).  Every
  ``ScenarioSpec.build_workload`` call, the program's own included,
  records a ``workloads.build`` span.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Warm passes per phase even when one pass outlasts ``--warm-seconds``.
MIN_WARM_PASSES = 3
#: Warm passes run for at least this share of the cold phase's time,
#: so a grid with a long cold phase still gets a steady warm median.
WARM_SHARE = 0.4


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _runs_without_wall(runs: Dict) -> Dict:
    return {est: {k: v for k, v in run.items() if k != "wall_seconds"}
            for est, run in runs.items()}


def _install_counters(counts: Dict[str, int]) -> None:
    from repro.cycle import EventEngine
    from repro.scenario.spec import ScenarioSpec

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    EventEngine.run = counting("iss_runs", EventEngine.run)
    ScenarioSpec.build_workload = counting("builds",
                                           ScenarioSpec.build_workload)


def _install_build_spans(recorder: List) -> None:
    """Record every ``ScenarioSpec.build_workload`` call in a
    ``workloads.build`` span of ``recorder[0]``, so the build inside
    ``build_kernel`` nests under its caller's span instead of adding to
    its self time."""
    from repro.scenario.spec import ScenarioSpec

    original = ScenarioSpec.build_workload

    def build_workload(self):
        with recorder[0].span("workloads.build"):
            return original(self)

    ScenarioSpec.build_workload = build_workload


class PhaseCalibration:
    """Calibrations (``common.calibrate``) taken during a phase, and the
    phase's wall time rescaled to the reference host's speed.

    A cold phase is one ``run_sharded_sweep`` call lasting seconds,
    longer than the host keeps one speed, so a sample is taken after
    every store write, between estimator runs and outside the
    ``wall_seconds`` the program times.  Each stretch of the phase
    between two samples is divided by the mean slowdown of the two; the
    samples' own time is left out of the phase."""

    def __init__(self) -> None:
        #: (start, end, slowdown, spec_hash or None)
        self.samples: List = []

    def sample(self, spec_hash=None) -> None:
        start = time.perf_counter()
        seconds = common.calibrate()
        self.samples.append((start, time.perf_counter(),
                             common.slowdown(seconds), spec_hash))

    def phase(self, start: float, end: float):
        """(seconds of [start, end] outside the samples, the same at
        the reference speed)."""
        wall = reference = 0.0
        for before, after in zip(self.samples, self.samples[1:]):
            low, high = max(before[1], start), min(after[0], end)
            if high > low:
                wall += high - low
                reference += (high - low) / ((before[2] + after[2]) / 2)
        return wall, reference

    def cell_slowdowns(self) -> Dict[str, float]:
        """spec_hash -> mean slowdown of the samples after its writes."""
        by_cell: Dict[str, List[float]] = {}
        for _, _, slowdown, spec_hash in self.samples:
            if spec_hash is not None:
                by_cell.setdefault(spec_hash, []).append(slowdown)
        return {h: sum(v) / len(v) for h, v in by_cell.items()}


def _cold_sweep(specs, include, store, seed: int, calibration):
    """The cold sweep, with a calibration after every store write."""
    from repro.scenario.store import RunStore
    from repro.sweepfabric import run_sharded_sweep

    original = RunStore.put

    def put(self, spec_hash, estimator, payload):
        original(self, spec_hash, estimator, payload)
        calibration.sample(spec_hash)

    calibration.sample()
    RunStore.put = put
    try:
        start = time.perf_counter()
        cold = run_sharded_sweep(specs, store, jobs=1, seed=seed,
                                 include=include)
        end = time.perf_counter()
    finally:
        RunStore.put = original
    calibration.sample()
    return cold, calibration.phase(start, end)


def run_sweep_phases(specs, include, store, seed: int,
                     warm_seconds: float, reference, mesh_reference_iss,
                     counts: Dict[str, int]) -> Dict:
    """Cold sweep on the open (empty) store, then warm resume passes
    that each open the store again, as a resumed ``repro sweep``
    invocation does.  A warm pass must answer every cell from the
    store: any miss, recomputed estimator run or workload build in it
    counts as a failure."""
    from repro.sweepfabric import run_sharded_sweep

    errors: List[str] = []
    store_root = str(store.root)
    calibration = PhaseCalibration()
    cold, (cold_wall, cold_reference) = _cold_sweep(
        specs, include, store, seed, calibration)
    cold_counts = dict(counts)
    failed = 0
    attempted = len(cold.cells)
    queueing: Dict[str, Dict[str, float]] = {}
    latencies_ms: Dict[str, float] = {}
    engines: Dict[str, int] = {}
    backends: Dict[str, int] = {}
    for cell in cold.cells:
        if not cell.ok:
            failed += 1
            errors.append(f"cold {cell.spec_hash[:12]}: {cell.error}")
            continue
        runs = {est: cell.queueing(est) for est in include}
        queueing[cell.spec_hash] = runs
        problems = common.digest_mismatches(reference, cell.spec_hash,
                                            runs)
        if problems:
            failed += 1
            errors.extend(f"digest {p}" for p in problems)
        latencies_ms[cell.spec_hash] = 1e3 * sum(
            run["wall_seconds"] for run in cell.runs.values())
        engine = str(cell.mesh_engine)
        engines[engine] = engines.get(engine, 0) + 1
        backend = str(cell.mesh_backend)
        backends[backend] = backends.get(backend, 0) + 1

    warm_walls: List[float] = []
    # calibrations[i] and calibrations[i + 1] bracket warm pass i: the
    # seconds of (common.calibrate, common.calibrate_files).
    calibrations: List[Tuple[float, float]] = []
    files_dir = Path(store_root + "-calibration")

    def calibrate():
        calibrations.append((common.calibrate(),
                             common.calibrate_files(files_dir)))

    warm_hits = warm_probes = 0
    warm_computed = warm_cached = 0
    cold_runs = {cell.spec_hash: _runs_without_wall(cell.runs)
                 for cell in cold.cells if cell.ok}
    warm_seconds = max(warm_seconds, WARM_SHARE * cold_wall)
    calibrate()
    warm_start = time.perf_counter()
    while (len(warm_walls) < MIN_WARM_PASSES
           or time.perf_counter() - warm_start < warm_seconds):
        builds_before = counts["builds"]
        start = time.perf_counter()
        warm = run_sharded_sweep(specs, store_root, jobs=1, seed=seed,
                                 include=include, resume=True)
        warm_walls.append(time.perf_counter() - start)
        calibrate()
        attempted += len(warm.cells)
        stats = warm.store_stats
        computed = warm.counters["estimator_runs_recomputed"]
        builds = counts["builds"] - builds_before
        warm_hits += stats["hits"]
        warm_probes += stats["hits"] + stats["misses"]
        warm_computed += computed
        warm_cached += warm.counters["estimator_runs_cached"]
        if stats["misses"] or not stats["hits"] or computed or builds:
            failed += 1
            errors.append(f"warm pass {len(warm_walls)}: "
                          f"{stats['misses']} store misses, {computed} "
                          f"recomputed runs, {builds} workload builds")
        for cell in warm.cells:
            same = (cell.ok and cell.source == "cache"
                    and _runs_without_wall(cell.runs)
                    == cold_runs.get(cell.spec_hash))
            if not same:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"warm {cell.spec_hash[:12]}: source "
                                  f"{cell.source}, payload differs from "
                                  f"the cold phase")

    if "iss" in include:
        defaults = [queueing[s.spec_hash()] for s in specs
                    if s.model is None and s.spec_hash() in queueing]
    else:
        defaults = [dict(runs, iss=mesh_reference_iss[spec_hash])
                    for spec_hash, runs in queueing.items()
                    if spec_hash in mesh_reference_iss]
    result = {
        "cells": len(specs),
        "cold_wall_s": cold_wall,
        "cold_reference_s": cold_reference,
        "cell_slowdowns": calibration.cell_slowdowns(),
        "warm_walls_s": warm_walls,
        "warm_calibrations": calibrations,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "mesh_err_pct": common.mean_mesh_error(defaults),
        "cell_latencies_ms": latencies_ms,
        "queueing": queueing,
        "engine_used": engines,
        "backend_used": backends,
        "warm_hit_ratio": warm_hits / warm_probes if warm_probes else 0.0,
        "warm_runs_computed": warm_computed,
        "warm_runs_cached": warm_cached,
        "cold_runs_computed": cold.counters["estimator_runs_recomputed"],
        "cold_counts": cold_counts,
        "warm_counts": {name: counts[name] - cold_counts[name]
                        for name in counts},
    }
    return result


def traced_cell(rec, spec, store, include) -> Dict[str, float]:
    """One cold cell through the public layer functions, in spans."""
    from repro.analytical import characterize, estimate_queueing
    from repro.core.export import cycle_result_to_dict, result_to_dict
    from repro.cycle import EventEngine

    extra = {}
    with rec.span("cell") as cell_span:
        with rec.span("scenario.spec.validate"):
            spec.validate()
        with rec.span("scenario.spec.hash"):
            spec_hash = spec.spec_hash()
        rec.set_cell(cell_span, spec_hash)
        for estimator in include:
            with rec.span("scenario.store.get"):
                store.get(spec_hash, estimator)
        workload = spec.build_workload()  # a workloads.build span
        with rec.span("analytical.characterize"):
            profiles = characterize(workload)
        busy = sum(p.busy_cycles for p in profiles.values())
        results = {}
        walls = {}
        if "iss" in include:
            start = time.perf_counter()
            with rec.span("cycle.iss"):
                iss = EventEngine(workload,
                                  budget=spec.build_budget()).run()
            walls["iss"] = time.perf_counter() - start
            results["iss"] = (float(iss.queueing_cycles),
                              cycle_result_to_dict(iss))
            extra["sim_cycles"] = iss.makespan
        if "mesh" in include:
            start = time.perf_counter()
            # ScenarioSpec.run is build_kernel(...).run(): the kernel
            # build (a second workload build plus the lowering to MESH)
            # and the kernel run are timed apart.
            with rec.span("workloads.lower"):
                kernel = spec.build_kernel(memo_cache=spec.build_memo())
            with rec.span("core.mesh"):
                mesh = kernel.run()
            walls["mesh"] = time.perf_counter() - start
            results["mesh"] = (mesh.queueing_cycles,
                               result_to_dict(mesh))
            extra["regions"] = mesh.regions_committed
        if "analytical" in include:
            start = time.perf_counter()
            with rec.span("analytical.estimate"):
                estimate = estimate_queueing(
                    workload, model=spec.build_model(),
                    models=spec.build_models(), profiles=profiles)
            walls["analytical"] = time.perf_counter() - start
            results["analytical"] = (estimate.queueing_cycles, None)
        for estimator in include:
            queueing, detail = results[estimator]
            with rec.span("scenario.store.put"):
                store.put(spec_hash, estimator, {
                    "spec_hash": spec_hash, "estimator": estimator,
                    "queueing_cycles": queueing,
                    "percent_queueing": (100.0 * queueing / busy
                                         if busy > 0 else 0.0),
                    "wall_seconds": walls[estimator], "detail": detail})
    extra["queueing"] = {est: results[est][0] for est in include}
    extra["spec_hash"] = spec_hash
    return extra


def traced_probe(rec, spec, store, include) -> bool:
    """One warm cell: validate, hash and the store probe, in spans."""
    with rec.span("cell") as cell_span:
        with rec.span("scenario.spec.validate"):
            spec.validate()
        with rec.span("scenario.spec.hash"):
            spec_hash = spec.spec_hash()
        rec.set_cell(cell_span, spec_hash)
        hits = 0
        for estimator in include:
            with rec.span("scenario.store.get"):
                hits += store.get(spec_hash, estimator) is not None
    return hits == len(include)


def run_traced_phases(specs, include, store, warm_seconds: float,
                      spans_path) -> Dict:
    from spans import SpanRecorder, check_nesting, layer_table

    cold_rec = SpanRecorder()
    current = [cold_rec]
    _install_build_spans(current)
    start = time.perf_counter()
    cells = [traced_cell(cold_rec, spec, store, include)
             for spec in specs]
    cold_wall = time.perf_counter() - start
    warm_rec = current[0] = SpanRecorder()
    warm_walls: List[float] = []
    misses = 0
    warm_start = time.perf_counter()
    while (len(warm_walls) < MIN_WARM_PASSES
           or time.perf_counter() - warm_start < warm_seconds):
        start = time.perf_counter()
        misses += sum(not traced_probe(warm_rec, spec, store, include)
                      for spec in specs)
        warm_walls.append(time.perf_counter() - start)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"cold": cold_rec.spans, "warm": warm_rec.spans,
                       "fields": ["name", "start", "end", "parent",
                                  "cell"]}, handle)
    return {
        "cells": len(specs),
        "cold_wall_s": cold_wall,
        "warm_walls_s": warm_walls,
        "cold_layers": layer_table(cold_rec.spans),
        "warm_layers": layer_table(warm_rec.spans),
        "span_problems": (check_nesting(cold_rec.spans)
                          + check_nesting(warm_rec.spans))[:20],
        "spans": len(cold_rec.spans) + len(warm_rec.spans),
        "warm_misses": misses,
        "queueing": {cell["spec_hash"]: cell["queueing"]
                     for cell in cells},
        "sim_cycles": sum(cell.get("sim_cycles", 0) for cell in cells),
        "regions": sum(cell.get("regions", 0) for cell in cells),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--mode", default="sweep",
                        choices=("setup", "sweep", "traced"))
    parser.add_argument("--warm-seconds", type=float, default=1.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    common.require_source()
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.store import RunStore, code_version
    import repro.sweepfabric  # noqa: F401  (the cold path's imports)

    with open(args.inputs, "r", encoding="utf-8") as handle:
        inputs = json.load(handle)
    specs = [ScenarioSpec.from_dict(doc) for doc in inputs["specs"]]
    include = tuple(inputs["include"])
    code_version()
    store = RunStore(args.store)
    counts = {"iss_runs": 0, "builds": 0}
    if args.mode == "sweep":
        _install_counters(counts)
    print("READY", flush=True)
    reference = common.load_reference(inputs["workload"])
    mesh_reference_iss = {spec_hash: runs["iss"]
                          for spec_hash, runs in reference.items()}

    if args.mode == "setup":
        result = {}
    elif args.mode == "traced":
        result = run_traced_phases(specs, include, store,
                                   args.warm_seconds, args.spans)
    else:
        result = run_sweep_phases(specs, include, store,
                                  inputs["seed"], args.warm_seconds,
                                  reference, mesh_reference_iss, counts)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
