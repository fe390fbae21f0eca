"""M/M/1 queueing contention model.

Treats the shared resource as a single server with Poisson arrivals and
exponential service; the expected time an arrival spends waiting in queue
is ``Wq = rho * s / (1 - rho)``.  This is the most pessimistic of the
standard single-server models (exponential service doubles the
Pollaczek-Khinchine waiting term relative to deterministic service), so
it is useful as an upper-bounding alternative to the Chen-Lin model —
and, being an :class:`~repro.contention.base.ContentionModel`, it drops
into the hybrid kernel unchanged, demonstrating the paper's point that
"analytical models [can] be interchanged for each individual shared
resource within the simulation".
"""

from __future__ import annotations

from typing import Dict

from .base import SliceDemand
from .util import WindowModel, WindowTerms

_EPS = 1e-12


class MM1Model(WindowModel):
    """Single-server Markovian queue model.

    Parameters
    ----------
    rho_max:
        Stability clip on the interference utilization.
    exclude_self:
        When true (default), a thread's own utilization is excluded from
        the load it waits behind — appropriate for blocking masters that
        have at most one outstanding access.
    """

    name = "mm1"
    uses_priorities = False

    def __init__(self, rho_max: float = 0.98, exclude_self: bool = True):
        if not 0.0 < rho_max < 1.0:
            raise ValueError(f"rho_max must be in (0, 1), got {rho_max!r}")
        self.rho_max = float(rho_max)
        self.exclude_self = bool(exclude_self)

    def window_penalties(self, terms: WindowTerms,
                         demand: SliceDemand) -> Dict[str, float]:
        total = terms.total
        result: Dict[str, float] = {}
        for name, count, my_rho, service, wait, closed in zip(
                terms.names, terms.counts, terms.rho, terms.service,
                terms.open_waits(self.rho_max, deterministic=False),
                terms.closed_waits()):
            load = total - my_rho if self.exclude_self else total
            if load <= _EPS:
                continue
            if not self.exclude_self:
                wait += (my_rho * service
                         / max(1.0 - min(load, self.rho_max), 0.02))
            wait = min(wait, closed)
            penalty = count * wait
            if penalty > 0:
                result[name] = penalty
        return result

    def __repr__(self) -> str:
        return (f"MM1Model(rho_max={self.rho_max}, "
                f"exclude_self={self.exclude_self})")
