"""Result statistics produced by a hybrid-kernel simulation run.

The paper's evaluation metric is *queueing cycles* — time spent waiting for
a contended shared resource.  In the hybrid model that is exactly the sum
of penalties the shared-resource schedulers applied, so the statistics
here make that sum (global, per thread, and per resource) the first-class
output, alongside the usual makespan and utilization numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional


def _left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum.

    ``sum()`` of floats is compensated from CPython 3.12 on, so it can
    differ in the last bit from the uncompensated fold the golden
    snapshots pin; this fold gives the same bits on every version.
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class ThreadStats:
    """Per-logical-thread outcome of a simulation."""

    name: str
    #: Zero-contention execution time (sum of region base durations).
    base_time: float
    #: Queueing time: total contention penalty applied to the thread.
    penalty: float
    #: Number of annotation regions committed.
    regions: int
    #: Physical time at which the thread finished.
    finish_time: float

    @property
    def total_time(self) -> float:
        """Execution time including contention penalties."""
        return self.base_time + self.penalty


@dataclass(frozen=True)
class ProcessorStats:
    """Per-execution-resource outcome of a simulation."""

    name: str
    power: float
    busy_time: float
    regions: int

    def utilization(self, makespan: float) -> float:
        """Busy fraction of the run."""
        return self.busy_time / makespan if makespan > 0 else 0.0


@dataclass(frozen=True)
class ResourceStats:
    """Per-shared-resource outcome of a simulation."""

    name: str
    service_time: float
    accesses: float
    penalty: float
    active_slices: int
    penalty_by_thread: Mapping[str, float] = field(default_factory=dict)
    #: Fault-injection statistics (zero when no fault plan was active).
    faults_injected: float = 0.0
    retries_modeled: float = 0.0
    accesses_dropped: float = 0.0
    retry_backoff: float = 0.0
    degraded_slices: int = 0

    def mean_wait(self) -> float:
        """Average queueing delay per access on this resource."""
        return self.penalty / self.accesses if self.accesses > 0 else 0.0

    def utilization(self, makespan: float) -> float:
        """Estimated busy fraction: demanded service over the run.

        Uses transaction count times the nominal service time, so burst
        transactions are under-counted here (they carry their service
        in region ``extra_time`` instead); treat as a lower bound on
        multi-beat workloads.
        """
        if makespan <= 0:
            return 0.0
        return self.accesses * self.service_time / makespan


@dataclass(frozen=True)
class SimulationResult:
    """Everything a hybrid simulation run reports."""

    #: Final committed physical time.
    makespan: float
    threads: Mapping[str, ThreadStats]
    processors: Mapping[str, ProcessorStats]
    resources: Mapping[str, ResourceStats]
    #: Number of analytical model evaluation windows.
    slices_analyzed: int
    #: Number of undersized slices merged via the min-timeslice knob.
    slices_merged: int
    #: Total annotation regions committed across all threads.
    regions_committed: int
    #: Merged :class:`~repro.robustness.guard.RunHealth` of every
    #: guarded model in the run (``None`` when no model was guarded).
    #: Excluded from equality so guarded-but-clean runs compare equal
    #: to unguarded ones.
    health: object = field(default=None, compare=False)
    #: Slice-penalty memoization counters (see
    #: :class:`~repro.perf.memo.SliceMemoCache`); all zero when no cache
    #: was attached.  Excluded from equality so memoized runs compare
    #: equal to plain runs when the simulated physics agree.
    memo_hits: int = field(default=0, compare=False)
    memo_misses: int = field(default=0, compare=False)
    memo_evictions: int = field(default=0, compare=False)
    #: Execution engine that produced the run (``"object"`` or
    #: ``"soa"``).  Excluded from equality — the engines are
    #: bit-identical, so runs compare on physics alone.
    engine_used: str = field(default="object", compare=False)
    #: Why an ``engine="soa"`` request was routed to the object engine
    #: (``None`` when no fallback happened).  Excluded from equality.
    engine_fallback_reason: Optional[str] = field(default=None,
                                                  compare=False)
    #: Replay loop that executed the compiled program (``"interp"``
    #: when the SoA engine ran, ``None`` when the object engine ran).
    #: Excluded from equality — the engines are bit-identical.
    backend_used: Optional[str] = field(default=None, compare=False)

    @property
    def faults_injected(self) -> float:
        """Total injected access failures across all shared resources."""
        return sum(r.faults_injected for r in self.resources.values())

    @property
    def queueing_cycles(self) -> float:
        """Total contention penalty across all threads (the paper's
        "queueing cycles" estimate)."""
        return _left_sum(t.penalty for t in self.threads.values())

    @property
    def busy_cycles(self) -> float:
        """Total zero-contention execution time across all threads."""
        return _left_sum(t.base_time for t in self.threads.values())

    def percent_queueing(self, basis: str = "busy") -> float:
        """Queueing cycles as a percentage.

        ``basis="busy"`` divides by total execution cycles (the form the
        paper plots); ``basis="makespan"`` divides by end-to-end time.
        """
        if basis == "busy":
            denominator = self.busy_cycles
        elif basis == "makespan":
            denominator = self.makespan
        else:
            raise ValueError(f"unknown basis {basis!r}")
        if denominator <= 0:
            return 0.0
        return 100.0 * self.queueing_cycles / denominator

    def summary(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [
            f"makespan           : {self.makespan:.1f} cycles",
            f"queueing cycles    : {self.queueing_cycles:.1f} "
            f"({self.percent_queueing():.2f}% of busy time)",
            f"regions committed  : {self.regions_committed}",
            f"slices analyzed    : {self.slices_analyzed} "
            f"(+{self.slices_merged} merged)",
        ]
        if self.memo_hits or self.memo_misses:
            consulted = self.memo_hits + self.memo_misses
            rate = self.memo_hits / consulted if consulted else 0.0
            lines.append(
                f"memo cache         : {self.memo_hits} hits / "
                f"{consulted} lookups ({rate:.0%}), "
                f"{self.memo_evictions} evicted")
        for name in sorted(self.threads):
            t = self.threads[name]
            lines.append(
                f"  thread {name:<12s} base={t.base_time:10.1f} "
                f"penalty={t.penalty:10.1f} regions={t.regions}"
            )
        for name in sorted(self.processors):
            p = self.processors[name]
            lines.append(
                f"  proc   {name:<12s} busy={p.busy_time:10.1f} "
                f"util={p.utilization(self.makespan):6.1%}"
            )
        for name in sorted(self.resources):
            r = self.resources[name]
            lines.append(
                f"  shared {name:<12s} accesses={r.accesses:10.1f} "
                f"penalty={r.penalty:10.1f} wait/acc={r.mean_wait():.3f}"
            )
            if r.faults_injected or r.degraded_slices:
                lines.append(
                    f"         {'':<12s} faults={r.faults_injected:.1f} "
                    f"retries={r.retries_modeled:.1f} "
                    f"dropped={r.accesses_dropped:.1f} "
                    f"backoff={r.retry_backoff:.1f} "
                    f"degraded_slices={r.degraded_slices}"
                )
        if self.health is not None and not self.health.ok:
            lines.append("  " + self.health.summary().replace("\n", "\n  "))
        return "\n".join(lines)


def build_result(kernel) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a finished kernel."""
    threads: Dict[str, ThreadStats] = {}
    for thread in kernel.threads:
        threads[thread.name] = ThreadStats(
            name=thread.name,
            base_time=thread.total_base_time,
            penalty=thread.total_penalty,
            regions=thread.regions_committed,
            finish_time=(thread.finish_time
                         if thread.finish_time is not None else kernel.now),
        )
    processors = {
        p.name: ProcessorStats(name=p.name, power=p.power,
                               busy_time=p.busy_time,
                               regions=p.regions_executed)
        for p in kernel.processors
    }
    resources = {
        r.name: ResourceStats(
            name=r.name, service_time=r.service_time,
            accesses=r.total_accesses, penalty=r.total_penalty,
            active_slices=r.active_slices,
            penalty_by_thread=dict(r.penalty_by_thread),
            faults_injected=r.faults_injected,
            retries_modeled=r.retries_modeled,
            accesses_dropped=r.accesses_dropped,
            retry_backoff=r.retry_backoff,
            degraded_slices=r.degraded_slices,
        )
        for r in kernel.shared_resources
    }
    memo = kernel.us.memo
    base_hits, base_misses, base_evictions = getattr(
        kernel, "_memo_baseline", (0, 0, 0))
    return SimulationResult(
        makespan=kernel.now,
        threads=threads,
        processors=processors,
        resources=resources,
        slices_analyzed=kernel.us.slices_analyzed,
        slices_merged=kernel.us.slices_merged,
        regions_committed=kernel.regions_committed,
        health=_gather_health(kernel),
        memo_hits=memo.hits - base_hits if memo is not None else 0,
        memo_misses=memo.misses - base_misses if memo is not None else 0,
        memo_evictions=(memo.evictions - base_evictions
                        if memo is not None else 0),
        engine_used=getattr(kernel, "engine_used", "object"),
        engine_fallback_reason=getattr(kernel, "engine_fallback_reason",
                                       None),
        backend_used=getattr(kernel, "backend_used", None),
    )


def _gather_health(kernel):
    """Merge the RunHealth of every guarded model in the kernel.

    Returns ``None`` when no shared resource uses a guarded model,
    the single shared report when all guarded resources share one, or
    a merged copy otherwise.
    """
    healths = []
    for resource in kernel.shared_resources:
        health = getattr(resource.model, "health", None)
        if health is not None and not any(h is health for h in healths):
            healths.append(health)
    if not healths:
        return None
    if len(healths) == 1:
        return healths[0]
    from ..robustness.guard import RunHealth

    merged = RunHealth()
    for health in healths:
        merged.extend(health)
    return merged
