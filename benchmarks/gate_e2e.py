"""End-to-end performance gates on product cells.

Run from the repository root, with no options:
``python3 benchmarks/gate_e2e.py``.

* engine: every cell of the quick ``fig5`` and ``pareto`` grids runs its
  kernel as built (SoA engine) and on the object engine; both must give
  the same queueing cycles and makespan, and the grid-summed, best-of-5
  object/SoA wall ratio must stay above its floor.
* warm/cold: ``perfbench/run.py --quick --workload all`` must exit 0 and
  each workload's ``warm_cells_per_s / cold_cells_per_s`` must stay
  above its floor.

Every gate is a ratio within one run on one host, so there is no
baseline file.  Prints every ratio; exits 1 when any gate fails.
"""

import json
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.sweepfabric.grids import fig5_grid, pareto_grid  # noqa: E402

REPEATS = 5

# Each floor is at most 0.8x the lowest reading of 11 runs of this
# script on a 2-vCPU Intel Xeon VM under CPython 3.11.7 (range beside
# it), and of 4 earlier runs of the same measurement on that host.
ENGINE_FLOORS = {
    "fig5": 1.0,     # object/SoA 1.324-1.489 (earlier 1.27-1.37)
    "pareto": 0.94,  # object/SoA 1.214-1.339 (earlier 1.18-1.23)
}
WARM_COLD_FLOORS = {
    "fig5_models": 12.0,   # warm/cold 15.2-25.7 (earlier 15.1-20.3)
    "explore_mesh": 6.3,   # warm/cold 8.15-13.98 (earlier 7.9-10.9)
    "serve_mixed": 3.9,    # warm/cold 4.96-6.70 (earlier 5.4-6.0)
}


def engine_ratio(specs):
    """Grid-summed best-of-REPEATS object/SoA wall ratio (None on a
    routing or result mismatch, which is printed)."""
    totals = {"soa": 0.0, "object": 0.0}
    for spec in specs:
        workload = spec.build_workload()
        best = {"soa": float("inf"), "object": float("inf")}
        outcome = {}
        for _ in range(REPEATS):
            for engine in best:
                kernel = spec.build_kernel(workload)
                if engine == "object":
                    kernel.engine = "object"
                start = time.perf_counter()
                result = kernel.run()
                best[engine] = min(best[engine],
                                   time.perf_counter() - start)
                if kernel.engine_used != engine:
                    print(f"FAIL {spec.spec_hash()}: ran "
                          f"{kernel.engine_used}, expected {engine}")
                    return None
                outcome[engine] = (result.queueing_cycles, result.makespan)
        if outcome["soa"] != outcome["object"]:
            print(f"FAIL {spec.spec_hash()}: engines disagree {outcome}")
            return None
        for engine, seconds in best.items():
            totals[engine] += seconds
    return totals["object"] / totals["soa"]


def warm_cold_ratios():
    """Per-workload warm/cold cell-rate ratios of one quick perfbench
    run (None when the run fails its own checks)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick", "--workload", "all"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:] + proc.stderr[-2000:])
        print(f"FAIL perfbench exited {proc.returncode}")
        return None
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[f"{name}.warm_cells_per_s"]["value"]
            / metrics[f"{name}.cold_cells_per_s"]["value"]
            for name in WARM_COLD_FLOORS}


def check(label, ratio, floor):
    ok = ratio is not None and ratio >= floor
    shown = "n/a" if ratio is None else f"{ratio:.3f}"
    print(f"{'ok  ' if ok else 'FAIL'} {label:<28} {shown:>8} "
          f"(floor {floor})")
    return ok


def main():
    grids = {"fig5": fig5_grid, "pareto": pareto_grid}
    ok = [check(f"engine.{name}", engine_ratio(grids[name](quick=True)),
                floor)
          for name, floor in ENGINE_FLOORS.items()]
    ratios = warm_cold_ratios() or {}
    ok += [check(f"warm_cold.{name}", ratios.get(name), floor)
           for name, floor in WARM_COLD_FLOORS.items()]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
