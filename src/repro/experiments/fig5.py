"""Figure 5 reproduction: queueing vs bus delay on the unbalanced PHM.

The paper's Figure 5 plots the percentage of queueing cycles predicted
by MESH, the ISS, and the purely analytical model as bus access time is
varied, with the second processor idle 90% of the time.  MESH tracks
the ISS closely; the analytical model, unable to recognize the
unbalanced workload, greatly overestimates queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..contention.base import ContentionModel
from .report import series_block
from .runner import finite_mean
from .specutil import comparisons_for_specs, scenario_spec

DEFAULT_BUS_DELAYS = (2, 4, 6, 8, 10, 12, 16, 20)
DEFAULT_IDLE = (0.06, 0.90)


@dataclass(frozen=True)
class Fig5Row:
    """Percent queueing cycles from each estimator for one bus delay."""

    bus_delay: float
    iss_pct: float
    mesh_pct: float
    analytical_pct: float
    mesh_error: float
    analytical_error: float


def fig5_specs(bus_delays: Sequence[float] = DEFAULT_BUS_DELAYS,
               idle_fractions: Tuple[float, float] = DEFAULT_IDLE,
               busy_cycles_target: float = 120_000.0,
               model: Optional[ContentionModel] = None,
               seed: int = 1):
    """One :class:`ScenarioSpec` per bus-delay configuration."""
    return [
        scenario_spec("phm",
                      {"busy_cycles_target": busy_cycles_target,
                       "idle_fractions": list(idle_fractions),
                       "bus_service": bus_delay, "seed": seed},
                      model=model)
        for bus_delay in bus_delays
    ]


def run_fig5(bus_delays: Sequence[float] = DEFAULT_BUS_DELAYS,
             idle_fractions: Tuple[float, float] = DEFAULT_IDLE,
             busy_cycles_target: float = 120_000.0,
             model: Optional[ContentionModel] = None,
             seed: int = 1,
             jobs: int = 1,
             store=None) -> List[Fig5Row]:
    """Sweep the bus access latency on the 90%-idle PHM scenario.

    Configurations are :class:`ScenarioSpec` cells: ``jobs > 1``
    evaluates them on a process pool (``0`` = one worker per CPU),
    preserving row order, and ``store`` replays cached estimator runs.
    """
    specs = fig5_specs(bus_delays=bus_delays,
                       idle_fractions=idle_fractions,
                       busy_cycles_target=busy_cycles_target,
                       model=model, seed=seed)
    comparisons = comparisons_for_specs(specs, jobs=jobs, store=store)
    return [
        Fig5Row(
            bus_delay=bus_delay,
            iss_pct=comparison.runs["iss"].percent_queueing,
            mesh_pct=comparison.runs["mesh"].percent_queueing,
            analytical_pct=comparison.runs["analytical"].percent_queueing,
            mesh_error=comparison.error("mesh"),
            analytical_error=comparison.error("analytical"),
        )
        for bus_delay, comparison in zip(bus_delays, comparisons)
    ]


def render_fig5(rows: Sequence[Fig5Row]) -> str:
    """Figure-5-style text rendering."""
    xs = [r.bus_delay for r in rows]
    block = series_block(
        "Figure 5 — % queueing cycles vs bus delay "
        "(second processor 90% idle)",
        xs,
        [("ISS %", [r.iss_pct for r in rows]),
         ("MESH %", [r.mesh_pct for r in rows]),
         ("Analytical %", [r.analytical_pct for r in rows])],
    )
    mesh_avg, mesh_excluded = finite_mean([r.mesh_error for r in rows])
    ana_avg, ana_excluded = finite_mean(
        [r.analytical_error for r in rows])
    footer = (f"  avg error vs ISS: MESH {mesh_avg:.1f}%, "
              f"Analytical {ana_avg:.1f}% (paper: analytical greatly "
              f"overestimates, MESH tracks ISS)")
    if mesh_excluded or ana_excluded:
        footer += (f" [{mesh_excluded + ana_excluded} non-finite error "
                   f"point(s) excluded from the averages]")
    return block + "\n" + footer
