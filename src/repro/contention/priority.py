"""Fixed-priority arbitration contention model.

The paper notes that "if a priority arbitration scheme is being modeled,
the high priority thread may receive a lower average penalty" — the
assigned delay can differ per contending thread.  This model realizes
that: a thread waits behind the full queueing of *higher-or-equal*
priority demand, plus (non-preemptive bus transfers cannot be aborted)
half a residual service time weighted by lower-priority utilization.

Priorities come from the :class:`~repro.contention.base.SliceDemand`'s
``priorities`` mapping, which the hybrid kernel populates from each
logical thread's ``priority`` attribute.  Unknown threads default to
priority 0.
"""

from __future__ import annotations

from typing import Dict

from .base import SliceDemand
from .util import WindowModel, WindowTerms, open_wait

_EPS = 1e-12


class PriorityModel(WindowModel):
    """Non-preemptive fixed-priority arbitration."""

    name = "priority"

    def __init__(self, rho_max: float = 0.98):
        if not 0.0 < rho_max < 1.0:
            raise ValueError(f"rho_max must be in (0, 1), got {rho_max!r}")
        self.rho_max = float(rho_max)

    def window_penalties(self, terms: WindowTerms,
                         demand: SliceDemand) -> Dict[str, float]:
        service = demand.service_time
        rho = terms.rho
        ranks = [demand.priorities.get(name, 0) for name in terms.names]
        clipped = [min(1.0, value) for value in rho]
        higher = [sum([value for j, value in enumerate(rho)
                       if j != i and ranks[j] >= mine])
                  for i, mine in enumerate(ranks)]
        lower = [sum([value for j, value in enumerate(clipped)
                      if j != i and ranks[j] < mine])
                 for i, mine in enumerate(ranks)]
        result: Dict[str, float] = {}
        for name, count, high, low, closed in zip(
                terms.names, terms.counts, higher, lower,
                terms.closed_waits()):
            wait = open_wait(service, high, self.rho_max)
            wait += service * low / 2.0  # non-preemptive residual
            wait = min(wait, closed)
            penalty = count * wait
            if penalty > 0:
                result[name] = penalty
        return result

    def __repr__(self) -> str:
        return f"PriorityModel(rho_max={self.rho_max})"
