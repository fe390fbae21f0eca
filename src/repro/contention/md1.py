"""M/D/1 queueing contention model.

Poisson arrivals, *deterministic* service of ``s`` cycles — a natural fit
for a bus whose transfer latency is fixed.  Expected waiting time in
queue is the Pollaczek-Khinchine result ``Wq = rho * s / (2 * (1 - rho))``,
half the M/M/1 value.  It differs from the reconstructed Chen-Lin model
only in omitting the residual-service correction, which makes it a good
ablation partner (see ``benchmarks/test_bench_ablation_models.py``).
"""

from __future__ import annotations

from typing import Dict

from .base import SliceDemand
from .util import WindowModel, WindowTerms

_EPS = 1e-12


class MD1Model(WindowModel):
    """Single-server deterministic-service queue model."""

    name = "md1"
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
                terms.open_waits(self.rho_max, deterministic=True),
                terms.closed_waits()):
            load = total - my_rho if self.exclude_self else total
            if load <= _EPS:
                continue
            if not self.exclude_self:
                # Textbook variant: also queue behind own residual work.
                wait += (my_rho * service / 2.0
                         / max(1.0 - min(load, self.rho_max), 0.02))
            wait = min(wait, closed)
            penalty = count * wait
            if penalty > 0:
                result[name] = penalty
        return result

    def __repr__(self) -> str:
        return (f"MD1Model(rho_max={self.rho_max}, "
                f"exclude_self={self.exclude_self})")
