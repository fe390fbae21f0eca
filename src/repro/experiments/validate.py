"""Self-validation: one command that re-checks the reproduction's claims.

``python -m repro validate`` runs miniature versions of every
experiment and reports PASS/FAIL against the qualitative criteria the
paper's results rest on — the same checks the test suite enforces, in a
form a user can run in seconds after installing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

from ..contention import ChenLinModel
from ..contention.calibrate import calibrate_model, max_relative_error
from ..cycle import EventEngine, SteppedEngine
from ..workloads.fft import fft_workload
from ..workloads.phm import phm_workload
from ..workloads.synthetic import random_workload
from .runner import run_comparison
from .table1 import run_table1


@dataclass(frozen=True)
class Check:
    """One validation criterion's outcome."""

    name: str
    passed: bool
    detail: str


def _check_engines_identical() -> Check:
    arbiters = ("fifo", "roundrobin", "priority")
    for seed in (11, 23, 47):
        workload = random_workload(random.Random(seed))
        for arbiter in arbiters:
            stepped = SteppedEngine(workload, arbiter=arbiter).run()
            event = EventEngine(workload, arbiter=arbiter).run()
            # Every per-thread and per-resource field (frozen
            # dataclasses compare field by field).
            if (stepped.makespan != event.makespan
                    or stepped.threads != event.threads
                    or stepped.resources != event.resources):
                return Check("cycle engines bit-identical", False,
                             f"diverged on seed {seed} under {arbiter}")
    return Check("cycle engines bit-identical", True,
                 f"3 random workloads x {len(arbiters)} arbiters, every "
                 f"thread and resource field equal")


def _check_fig4_shape() -> Check:
    details = []
    for cache_kb in (512, 8):
        workload = fft_workload(points=1024, processors=4,
                                cache_kb=cache_kb)
        comparison = run_comparison(workload)
        mesh = comparison.error("mesh")
        analytical = comparison.error("analytical")
        details.append(f"{cache_kb}KB: mesh {mesh:.0f}% vs "
                       f"analytical {analytical:.0f}%")
        if mesh >= analytical:
            return Check("Fig. 4 shape (FFT)", False, "; ".join(details))
    return Check("Fig. 4 shape (FFT)", True, "; ".join(details))


#: The paper's Table 1 claim: MESH runs at least 100x faster than the
#: cycle-level simulation it is scored against.
TABLE1_MIN_SPEEDUP = 100.0


def _check_table1_speedup() -> Check:
    rows = run_table1(proc_counts=(2,), cache_kbs=(512,), points=4096)
    speedup = rows[0].speedup
    return Check("Table 1 speedup (MESH vs cycle-stepped)",
                 speedup >= TABLE1_MIN_SPEEDUP,
                 f"{speedup:.0f}x on the 2-proc 512KB FFT "
                 f"(floor {TABLE1_MIN_SPEEDUP:.0f}x)")


def _check_fig5_shape() -> Check:
    workload = phm_workload(busy_cycles_target=60_000,
                            idle_fractions=(0.06, 0.90),
                            bus_service=12, seed=3)
    comparison = run_comparison(workload)
    analytical_over = (comparison.queueing("analytical")
                       > comparison.queueing("iss"))
    mesh_better = (comparison.error("mesh")
                   < comparison.error("analytical"))
    return Check(
        "Fig. 5 shape (unbalanced PHM)",
        analytical_over and mesh_better,
        f"analytical {comparison.error('analytical'):.0f}% vs "
        f"mesh {comparison.error('mesh'):.0f}% error")


def _check_fig6_degradation() -> Check:
    balanced = phm_workload(busy_cycles_target=40_000,
                            idle_fractions=(0.0, 0.0), bus_service=8,
                            seed=1)
    unbalanced = phm_workload(busy_cycles_target=40_000,
                              idle_fractions=(0.06, 0.90), bus_service=8,
                              seed=1)
    balanced_err = run_comparison(balanced).error("analytical")
    unbalanced_err = run_comparison(unbalanced).error("analytical")
    return Check(
        "Fig. 6 shape (degradation with unbalance)",
        unbalanced_err > balanced_err,
        f"analytical error {balanced_err:.0f}% balanced -> "
        f"{unbalanced_err:.0f}% at 90% idle")


def _check_model_calibration() -> Check:
    points = calibrate_model(ChenLinModel(), threads=2,
                             access_sweep=(60, 160, 320))
    worst = max_relative_error(points)
    return Check("Chen-Lin calibration vs cycle engines",
                 worst < 0.5, f"worst relative error {worst:.0%}")


def _check_regular_benchmark_contrast() -> Check:
    """The paper's aside: other SPLASH-2 benchmarks suit both models."""
    from ..workloads.lu import lu_workload

    workload = lu_workload(matrix_blocks=8, block_size=16,
                           processors=4, cache_kb=64)
    comparison = run_comparison(workload)
    mesh = comparison.error("mesh")
    analytical = comparison.error("analytical")
    return Check(
        "regular-benchmark contrast (LU)",
        mesh < 15.0 and analytical < 15.0,
        f"LU: mesh {mesh:.1f}% / analytical {analytical:.1f}% "
        f"(both models adequate on regular traffic)")


CHECKS: List[Callable[[], Check]] = [
    _check_engines_identical,
    _check_fig4_shape,
    _check_table1_speedup,
    _check_fig5_shape,
    _check_fig6_degradation,
    _check_model_calibration,
    _check_regular_benchmark_contrast,
]


def run_validation() -> List[Check]:
    """Run every check; never raises (failures are reported)."""
    results: List[Check] = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as error:  # pragma: no cover - defensive
            results.append(Check(check.__name__, False,
                                 f"raised {error!r}"))
    return results


def render_validation(checks: List[Check]) -> str:
    """PASS/FAIL report."""
    lines = ["Reproduction self-validation", "-" * 60]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{status}] {check.name}")
        lines.append(f"       {check.detail}")
    failed = sum(1 for check in checks if not check.passed)
    lines.append("-" * 60)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines)
