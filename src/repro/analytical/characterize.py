"""Workload characterization for the pure-analytical baseline.

A designer using an average-rate analytical model characterizes each
application by *how it behaves while running* — accesses per executed
cycle — typically from profiling each application alone.  That
characterization is blind to two things the paper shows matter: idle
gaps between kernel activations, and phase structure within a kernel.
This module computes exactly that blind summary from a workload trace.

The summary is a sum over phases, so it is computed from each phase's
totals directly, with the same rounding as the cycle engines' lowering
(:func:`~repro.cycle.program.lower_workload`), never by expanding the
micro-op trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..cycle.program import map_threads
from ..workloads.trace import (BarrierOp, IdleOp, LockOp, Phase, UnlockOp,
                               Workload)


@dataclass(frozen=True)
class ThreadProfile:
    """Average-rate summary of one thread.

    Attributes
    ----------
    busy_cycles:
        Zero-contention execution time: compute cycles (power-scaled)
        plus uncontended service time of every access.  Idle time is
        *excluded* — the characterization models the application, not
        its activation schedule.
    accesses:
        Total transactions per shared resource.
    service_units:
        Total demanded service beats per resource (burst transfers
        count ``burst`` beats per transaction), so utilization math is
        burst-correct.
    idle_cycles:
        Total declared idle time (reported for reference; the whole-run
        model ignores it, which is the point).
    """

    name: str
    processor: str
    busy_cycles: float
    accesses: Mapping[str, float] = field(default_factory=dict)
    service_units: Mapping[str, float] = field(default_factory=dict)
    idle_cycles: float = 0.0

    def access_rate(self, resource: str, service_time: float) -> float:
        """Busy-time utilization of ``resource``: ``units * s / busy``."""
        if self.busy_cycles <= 0:
            return 0.0
        units = self.service_units.get(
            resource, self.accesses.get(resource, 0.0))
        return units * service_time / self.busy_cycles

    def mean_service(self, resource: str, service_time: float) -> float:
        """Mean transaction service time on ``resource``."""
        transactions = self.accesses.get(resource, 0.0)
        if transactions <= 0:
            return service_time
        units = self.service_units.get(resource, transactions)
        return service_time * units / transactions


def characterize(workload: Workload) -> Dict[str, ThreadProfile]:
    """Summarize every thread of ``workload`` into a ThreadProfile.

    Same rounding as the cycle engines' lowering, so the three
    estimators describe the same physical workload: a phase lowers to
    compute cycles summing to exactly ``round(work / power)`` on the
    thread's processor and ``accesses`` transactions of ``burst``
    beats each, whatever its access pattern; an idle op lowers to
    ``round(cycles)``.  Those totals are summed here without expanding
    the micro-op trace (every partial sum is an integer, so the float
    sums are exact).  Raises the lowering's ``ValueError`` when the
    workload cannot be statically mapped.
    """
    service_times = {spec.name: max(1, int(round(spec.service_time)))
                     for spec in workload.resources}
    assignment = map_threads(workload)
    profiles: Dict[str, ThreadProfile] = {}
    for thread in workload.threads:
        power = assignment[thread.name].power
        accesses: Dict[str, float] = {}
        units: Dict[str, float] = {}
        idle = 0.0
        compute = 0.0
        for item in thread.items:
            if isinstance(item, Phase):
                compute += int(round(item.work / power))
                count = item.accesses
                if count:
                    name = item.resource
                    accesses[name] = accesses.get(name, 0.0) + count
                    units[name] = (units.get(name, 0.0)
                                   + count * item.burst)
            elif isinstance(item, IdleOp):
                idle += int(round(item.cycles))
            elif isinstance(item, (BarrierOp, LockOp, UnlockOp)):
                pass  # synchronization adds no cycles and no accesses
            else:  # pragma: no cover - IR is a closed union
                raise TypeError(f"unknown trace item {item!r}")
        service = sum(count * service_times[name]
                      for name, count in units.items())
        profiles[thread.name] = ThreadProfile(
            name=thread.name,
            processor=assignment[thread.name].name,
            busy_cycles=compute + service,
            accesses=accesses,
            service_units=units,
            idle_cycles=idle,
        )
    return profiles
