"""Shared numeric helpers for analytical contention models.

The central helper pair models one tagged access's expected wait in two
regimes and lets models take the minimum:

* the *open* wait (:meth:`WindowTerms.open_waits`, homogeneous form
  :func:`open_wait`) — the classic open-arrival single-server queueing
  wait (Pollaczek-Khinchine form), accurate at low-to-moderate
  utilization but divergent as load approaches capacity;
* the *closed* wait (:meth:`WindowTerms.closed_waits`) — a
  closed-system bound for *blocking* masters.  A bus master with one
  outstanding access stops issuing while it waits, so the queue can
  never build beyond one access per other master; the expected wait is
  each other master's service time weighted by its probability of being
  in the bus system, approximated by its (clipped) utilization.

``min(open, closed)`` transitions smoothly between the regimes (the
curves cross near 50% interference) and stays finite under offered
loads beyond capacity — where open models would predict unbounded
queues that blocking masters physically cannot form.  The crossover was
validated against the repository's cycle-accurate engines.

Both waits, and the saturation floor, are sums over "every demanding
thread but me".  :class:`WindowTerms` computes each window's per-thread
terms once per ``penalties`` call — ``S_i``, ``rho_i * S_i`` and
``min(1, rho_i) * S_i`` — and takes every such sum over plain lists with
:func:`others`, adding the same floats in the same (demand) order as a
per-thread ``sum()`` over the demand mapping would: the results are
bit-identical to recomputing each sum from the :class:`SliceDemand`,
at a fraction of the cost for many threads.  :class:`WindowModel` is
the shape the queueing models share: build a window's terms, turn them
into penalties, raise each to the saturation floor.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from .base import ContentionModel, SliceDemand

_EPS = 1e-12


def open_wait(service: float, interference: float, rho_max: float,
              deterministic: bool = True) -> float:
    """Homogeneous open-arrival wait behind ``interference`` utilization.

    ``deterministic=True`` gives the M/D/1 waiting time
    ``s * R / (2 * (1 - R))``; ``False`` gives the (doubled) M/M/1 form.
    ``interference`` is clipped to ``rho_max`` for stability.
    """
    loaded = min(interference, rho_max)
    if loaded <= _EPS:
        return 0.0
    divisor = 2.0 if deterministic else 1.0
    return service * loaded / (divisor * (1.0 - loaded))


def others(values: List[float]) -> List[float]:
    """``sum()`` of ``values`` without entry ``i``, for every ``i``.

    Each sum adds the remaining entries in list order, exactly as
    ``sum(v for j, v in enumerate(values) if j != i)`` does (including
    the int ``0`` of an empty sum).  One list holds the entries but
    ``i``: putting entry ``i`` back in its slot turns it into the list
    without entry ``i + 1``, so no sum needs a list of its own.
    """
    rest = values[1:]
    sums = [sum(rest)] if values else []
    for i in range(len(rest)):
        rest[i] = values[i]
        sums.append(sum(rest))
    return sums


#: Utilization at which the flow-balance stretch starts.  Slightly below
#: 1.0: calibration against the cycle engines shows queueing at the
#: capacity transition already exceeds the sub-saturation bound (queue
#: variance), and an early knee tracks the measured transition within a
#: few tens of percent instead of underestimating ~40%.
SATURATION_KNEE = 0.95


class WindowTerms:
    """The per-thread terms of one window, computed once.

    Covers the threads with a positive demand, in ``demand.demands``
    order: :attr:`names`, their access counts (:attr:`counts`), mean
    transaction service times ``S_i`` (:attr:`service`) and offered
    utilizations ``rho_i = a_i * S_i / T`` (:attr:`rho`; every demanding
    thread reads 1.0 in a zero-width window, which pushes the models
    onto the closed bound), plus ``total = sum(rho)``.
    """

    __slots__ = ("duration", "names", "counts", "service", "rho",
                 "total")

    def __init__(self, demand: SliceDemand):
        names: List[str] = []
        counts: List[float] = []
        for name, count in demand.demands.items():
            if count > 0:
                names.append(name)
                counts.append(count)
        mean_service = demand.mean_service
        if mean_service:
            base = demand.service_time
            service = [mean_service.get(name, base) for name in names]
        else:
            service = [demand.service_time] * len(names)
        duration = demand.end - demand.start
        if duration <= _EPS:
            rho = [1.0] * len(names)
        else:
            rho = [count * s / duration
                   for count, s in zip(counts, service)]
        self.duration = duration
        self.names = names
        self.counts = counts
        self.service = service
        self.rho = rho
        self.total = sum(rho)

    def open_waits(self, rho_max: float,
                   deterministic: bool = True) -> List[float]:
        """Heterogeneous-service open wait of each thread (M/G/1 form).

        The Pollaczek-Khinchine numerator generalizes to the mean
        residual work rate of the *other* threads,
        ``sum_{j != i} rho_j * S_j / 2`` for deterministic per-class
        service — which reduces to ``s * R / 2`` when every thread
        shares the resource's service time.  ``deterministic=False``
        doubles it (M/M/1); the interference ``sum_{j != i} rho_j`` is
        clipped to ``rho_max`` and the residual scaled with it.
        """
        rho = self.rho
        interference = others(rho)
        residual = others([r * s for r, s in zip(rho, self.service)])
        waits = []
        for load, work in zip(interference, residual):
            if load <= _EPS:
                waits.append(0.0)
                continue
            work /= 2.0
            if not deterministic:
                work *= 2.0
            loaded = min(load, rho_max)
            # Keep the residual consistent with the clipped utilization.
            if load > loaded:
                work *= loaded / load
            waits.append(work / (1.0 - loaded))
        return waits

    def closed_waits(self) -> List[float]:
        """Closed-system wait bound of each thread (a blocking master).

        Each other master contributes at most one in-flight transaction,
        with probability approximated by its utilization (clipped at 1),
        occupying the resource for its own mean service time:
        ``W_i = sum_{j != i} min(1, rho_j) * S_j`` — a long DMA burst
        ahead of a CPU word access costs the full burst.
        """
        return others([min(1.0, r) * s
                       for r, s in zip(self.rho, self.service)])

    def saturation_floor(self,
                         knee: Optional[float] = None) -> Dict[str, float]:
        """Flow-balance lower bound on penalties in an oversubscribed window.

        When offered utilization exceeds the bus capacity, the window's
        demand cannot be served within the window: every blocking
        thread's execution stretches by at least the backlog
        ``(rho_total - knee) * T`` so the accesses fit.  A thread with
        few accesses cannot be delayed more than the hard closed-system
        cap ``a_i * sum_{j != i} S_j`` (each of its transactions waits
        for at most one transaction of every other master), which
        bounds the floor.

        Returns an empty mapping when the window is not saturated.
        """
        if knee is None:
            knee = SATURATION_KNEE
        if self.total <= knee or self.duration <= _EPS:
            return {}
        stretch = (self.total - knee) * self.duration
        return {name: min(stretch, count * cap)
                for name, count, cap in zip(self.names, self.counts,
                                            others(self.service))}

    def apply_saturation_floor(self, result: Dict[str, float],
                               knee: Optional[float] = None
                               ) -> Dict[str, float]:
        """Raise each thread's penalty in ``result`` to its floor."""
        if self.total <= (SATURATION_KNEE if knee is None else knee):
            return result  # not saturated (the common case)
        for name, floor in self.saturation_floor(knee).items():
            if floor > result.get(name, 0.0):
                result[name] = floor
        return result


class WindowModel(ContentionModel):
    """A model whose penalties come from one window's :class:`WindowTerms`.

    :meth:`penalties` builds the terms once, asks
    :meth:`window_penalties` for every thread's penalty and raises each
    to the :meth:`~WindowTerms.saturation_floor`.  A window with fewer
    than two demanding threads has nobody to wait behind: every model
    caps a wait by the closed bound, a sum over the other threads, which
    is 0 there.  Such a window skips straight to the floor; 70% of the
    windows of the Fig. 5 grid hold one thread.
    """

    #: Saturation-floor onset (``None`` = :data:`SATURATION_KNEE`).
    knee: Optional[float] = None

    def penalties(self, demand: SliceDemand) -> Dict[str, float]:
        terms = WindowTerms(demand)
        result = (self.window_penalties(terms, demand)
                  if len(terms.names) > 1 else {})
        return terms.apply_saturation_floor(result, knee=self.knee)

    @abc.abstractmethod
    def window_penalties(self, terms: WindowTerms,
                         demand: SliceDemand) -> Dict[str, float]:
        """Positive penalty per thread, before the saturation floor."""
