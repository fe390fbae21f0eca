"""Round-robin arbitration contention model.

Models a bus arbiter that grants requesters in fixed rotation.  Under
round-robin a tagged access never waits behind more than one access from
each other master, so the expected wait grows *linearly* with the other
masters' utilization instead of diverging: each of my accesses overlaps a
competing transfer with probability equal to that master's utilization
and waits on average half of it, plus the arbiter may be mid-grant.

``W_i = s * sum_{j != i} min(p_j, a_j / a_i * p_unit)`` collapses, for
uniform access streams, to ``W_i = s * R_i`` with ``R_i`` the others'
combined utilization — the first-order fair-slot approximation used
here.  Compared to the FIFO-queue models this underestimates heavy
contention (no queue build-up) and is therefore the optimistic member of
the model family.
"""

from __future__ import annotations

from typing import Dict

from .base import SliceDemand
from .util import WindowModel, WindowTerms

_EPS = 1e-12


class RoundRobinModel(WindowModel):
    """Fair-rotation arbitration: linear (non-diverging) waits.

    This is the pure closed-system wait — each other master's (clipped)
    utilization contributes one potential in-rotation slot — with no
    open-queueing term at all, making it the optimistic member of the
    family at moderate load.
    """

    name = "roundrobin"
    uses_priorities = False

    def window_penalties(self, terms: WindowTerms,
                         demand: SliceDemand) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for name, count, wait in zip(terms.names, terms.counts,
                                     terms.closed_waits()):
            if wait <= _EPS:
                continue
            penalty = count * wait
            if penalty > 0:
                result[name] = penalty
        return result
