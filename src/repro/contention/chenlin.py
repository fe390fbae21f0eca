"""Reconstruction of the Chen-Lin analytical bus contention model.

The DATE 2004 paper resolves shared-bus contention with "an analytical
model developed by Chen and Lin" (*An Easy-to-Use Approach for Practical
Bus-Based System Design*, IEEE Trans. Computers, Aug 1999) — an
average-rate model mapping per-processor bus access behavior to expected
queueing cycles.  The original article is not freely available, so this
module reconstructs the model class from how the DATE paper uses it:

* input: for each processor, the number of bus accesses issued over an
  interval, plus the bus transfer (service) time;
* mechanism: accesses from different processors interfere
  probabilistically — a tagged access finds the bus busy with the other
  processors' combined utilization and additionally queues behind
  accumulated backlog;
* output: expected *queueing cycles* per processor (time spent waiting
  for the bus, excluding the transfer itself).

Concretely, for a window of ``T`` cycles in which thread ``i`` issues
``a_i`` accesses of service time ``s``:

* per-thread offered utilization ``p_i = a_i * s / T``;
* interference seen by ``i``: ``R_i = min(sum_{j != i} p_j, rho_max)``;
* expected wait per access: the open-arrival M/D/1 term
  ``s * R_i / (2 * (1 - R_i))``, capped by the closed-system wait of a
  blocking master (``s * sum_{j != i} min(1, p_j)`` — one in-flight
  access per other master at most);
* queueing cycles for ``i``: ``a_i * W_i``, floored by the flow-balance
  stretch ``(rho_total - 1) * T`` whenever offered load exceeds the bus
  capacity (blocking masters must stretch until the demand fits).

The self-exclusion (``j != i``) reflects that a blocking processor does
not queue behind its own accesses.

This preserves the two properties the DATE paper exploits:

1. the model is *convex* in utilization, so applying it once to a
   long-run average underestimates bursty contention and overestimates
   for idle-diluted workloads — exactly the whole-run baseline's failure
   mode; and
2. applied piecewise to short windows with observed demands, it tracks
   irregular behavior closely.
"""

from __future__ import annotations

from typing import Dict

from .base import SliceDemand
from .util import WindowModel, WindowTerms

_EPS = 1e-12


class ChenLinModel(WindowModel):
    """Probabilistic average-rate bus contention model (reconstructed).

    Parameters
    ----------
    rho_max:
        Stability clip for the interference term; waits diverge as
        utilization approaches 1, so ``R_i`` is clamped to this value.
    residual:
        Include an extra residual-service term ``s * R_i / 2`` on top of
        the queueing term.  Off by default: calibration against the
        cycle-accurate engines shows the M/D/1-style term alone already
        slightly overestimates discrete bus traffic (the
        Pollaczek-Khinchine waiting time subsumes the residual service of
        the in-progress transfer), and adding the term roughly doubles
        the prediction.
    """

    name = "chenlin"
    uses_priorities = False

    def __init__(self, rho_max: float = 0.98, residual: bool = False,
                 knee: float = None):
        if not 0.0 < rho_max < 1.0:
            raise ValueError(f"rho_max must be in (0, 1), got {rho_max!r}")
        if knee is not None and not 0.0 < knee <= 1.5:
            raise ValueError(f"knee must be in (0, 1.5], got {knee!r}")
        self.rho_max = float(rho_max)
        self.residual = bool(residual)
        #: Saturation-floor onset (None = the calibrated default).
        self.knee = knee

    def window_penalties(self, terms: WindowTerms,
                         demand: SliceDemand) -> Dict[str, float]:
        total = terms.total
        service = demand.service_time
        result: Dict[str, float] = {}
        for name, count, my_rho, wait, closed in zip(
                terms.names, terms.counts, terms.rho,
                terms.open_waits(self.rho_max), terms.closed_waits()):
            interference = total - my_rho
            if interference <= _EPS:
                continue
            if self.residual:
                wait += service * min(interference, 1.0) / 2.0
            # Blocking bus masters cannot form unbounded queues: cap by
            # the closed-system wait.
            wait = min(wait, closed)
            penalty = count * wait
            if penalty > 0:
                result[name] = penalty
        return result

    def __repr__(self) -> str:
        return (f"ChenLinModel(rho_max={self.rho_max}, "
                f"residual={self.residual})")
