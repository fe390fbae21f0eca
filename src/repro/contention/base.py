"""Contention-model interface shared by all analytical models.

A contention model answers one question: given that a set of threads
issued known numbers of accesses to one shared resource during one window
of physical time, how much *queueing delay* did each thread suffer?

The hybrid kernel evaluates a model piecewise — once per timeslice, with
the demands actually observed in that slice (paper section 4).  The pure
analytical baseline (:mod:`repro.analytical.whole_run`) evaluates the very
same model once, over the whole runtime, with average demands; the paper's
headline comparison is between those two usages of a single model, so the
interface is deliberately identical for both.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Mapping


@dataclass(slots=True)
class SliceDemand:
    """Access demands observed on one shared resource in one time window.

    Treat instances as immutable: one is constructed per resource per
    analyzed timeslice on the kernel's hottest path, so immutability is
    a convention (documented here) rather than ``frozen=True`` — the
    frozen machinery routes every constructor field store through
    ``object.__setattr__``, which is measurable at that call rate.
    Models must never mutate the demand they are handed.

    Attributes
    ----------
    start, end:
        Physical bounds of the window (cycles).
    service_time:
        Cycles the resource is occupied by a single access (e.g. the bus
        transfer latency).
    demands:
        Mapping of thread name to the (possibly fractional) number of
        accesses attributed to the window.
    priorities:
        Optional mapping of thread name to scheduling priority, consulted
        by priority-arbitration models.
    ports:
        Number of accesses the resource serves concurrently (1 = a
        classic bus).  Models that are not ports-aware treat the
        resource as single-ported; :class:`repro.contention.mmc.MMcModel`
        uses it.
    mean_service:
        Optional per-thread mean *transaction* service time, for
        workloads mixing word accesses with burst transfers (M/G/1-style
        heterogeneous service).  Threads absent from the mapping use
        ``service_time``.
    """

    start: float
    end: float
    service_time: float
    demands: Mapping[str, float]
    priorities: Mapping[str, int] = field(default_factory=dict)
    ports: int = 1
    mean_service: Mapping[str, float] = field(default_factory=dict)

    def service_of(self, thread: str) -> float:
        """Mean transaction service time of one thread's accesses."""
        return self.mean_service.get(thread, self.service_time)

    @property
    def duration(self) -> float:
        """Width of the window in cycles."""
        return self.end - self.start

    @property
    def total_accesses(self) -> float:
        """Total accesses from all threads in the window."""
        return sum(self.demands.values())

    def utilization(self) -> float:
        """Offered utilization of the whole resource (all ports)."""
        if self.duration <= 0:
            return 0.0
        demanded = sum(count * self.service_of(name)
                       for name, count in self.demands.items())
        return demanded / (self.duration * self.ports)


class ContentionModel(abc.ABC):
    """Maps a :class:`SliceDemand` to per-thread queueing penalties.

    Implementations must be pure functions of the slice (no hidden state
    between calls) so the kernel may evaluate them piecewise in any slice
    order and the whole-run baseline may evaluate them once.
    """

    #: Short registry name (see :mod:`repro.contention.registry`).
    name: str = "base"

    #: Whether :meth:`penalties` is a pure function of the slice, making
    #: it safe for the slice-penalty memoization cache
    #: (:mod:`repro.perf.memo`) to replay a previous result for an
    #: identical demand fingerprint.  Stateful wrappers (fallback
    #: chains, fault-coupled models) must set/compute this ``False`` so
    #: they keep seeing real calls.
    memo_safe: bool = True

    #: Whether :meth:`penalties` consults ``demand.priorities``.  The
    #: kernel's slice-analysis loop skips building the trimmed priority
    #: mapping entirely for models that declare ``False`` (hot-path
    #: savings); the conservative default keeps third-party subclasses
    #: correct without opting in.
    uses_priorities: bool = True

    @abc.abstractmethod
    def penalties(self, demand: SliceDemand) -> Dict[str, float]:
        """Return queueing delay (cycles) per thread for the window.

        Only threads present in ``demand.demands`` may appear in the
        result; missing threads are treated as receiving zero penalty.
        Penalties must be non-negative and finite.
        """

    def expected_wait(self, demand: SliceDemand, thread: str) -> float:
        """Mean per-access waiting time for ``thread`` in the window.

        Convenience wrapper over :meth:`penalties` used by reports and by
        the whole-run baseline; zero when the thread made no accesses.
        """
        accesses = demand.demands.get(thread, 0.0)
        if accesses <= 0:
            return 0.0
        return self.penalties(demand).get(thread, 0.0) / accesses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
