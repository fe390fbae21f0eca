"""Lowering workload traces to hybrid-kernel (MESH) simulations.

Each :class:`~repro.workloads.trace.Phase` becomes one ``consume``
annotation: the phase's abstract work resolves against processor power,
its accesses are carried in the annotation tuple, and the *uncontended*
service time of those accesses (``accesses * service_time``) is added as
power-independent ``extra_time`` so the hybrid base timeline matches the
cycle engines' zero-contention timeline; the contention models then add
pure queueing on top — exactly the quantity the cycle engines report as
ground truth.

Annotation placement is a policy:

* ``"phase"`` — one annotation per phase (the finest granularity the IR
  supports; what the paper means by "annotations at every
  synchronization point" when phases are delimited by barriers);
* ``"barrier"`` — merge all phases between consecutive barriers into a
  single coarse annotation.  This deliberately loses intra-span burst
  structure and is the knob for the paper's accuracy-vs-annotation-
  granularity discussion.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..contention.base import ContentionModel
from ..contention.chenlin import ChenLinModel
from ..core import (Barrier, Event, ExecutionScheduler, HybridKernel,
                    LogicalThread, Mutex, Processor, SharedResource,
                    acquire, barrier_wait, consume, release)
from ..core.stats import SimulationResult
from .trace import (BarrierOp, IdleOp, LockOp, Phase, ThreadTrace,
                    UnlockOp, Workload)

ANNOTATION_POLICIES = ("phase", "barrier")


def build_kernel(workload: Workload,
                 model: Optional[ContentionModel] = None,
                 models: Optional[Dict[str, ContentionModel]] = None,
                 min_timeslice: float = 0.0,
                 annotation: str = "phase",
                 scheduler: Optional[ExecutionScheduler] = None,
                 trace: bool = False,
                 sync_policy: str = "eager",
                 fault_plan=None,
                 budget=None,
                 memo_cache=None) -> HybridKernel:
    """Assemble a ready-to-run :class:`HybridKernel` for ``workload``.

    This is the one place that selects the kernel's execution engine:
    every thread body is lowered from a static
    :class:`~repro.workloads.trace.ThreadTrace`, so its events never
    depend on simulation state and the kernel always runs
    ``engine="soa"``.  Configurations outside the compiled subset
    (tracing, fault plans, budgets, memoization, non-FIFO schedulers)
    run on the object engine with the reason recorded on the result.

    ``workload`` may also be a
    :class:`~repro.scenario.spec.ScenarioSpec`, in which case the
    spec's serialized configuration supplies every knob and keyword
    arguments explicitly set here override it (arguments left at their
    defaults defer to the spec).

    Parameters
    ----------
    model:
        Contention model used for every shared resource (default:
        :class:`~repro.contention.chenlin.ChenLinModel`).
    models:
        Per-resource overrides (resource name -> model), demonstrating
        the paper's interchangeable-model design.
    min_timeslice:
        Minimum analysis window (paper section 4.3).
    annotation:
        Placement policy, one of ``ANNOTATION_POLICIES``.
    fault_plan:
        Optional :class:`~repro.robustness.faults.FaultPlan` degrading
        shared resources over virtual-time windows.
    budget:
        Optional :class:`~repro.robustness.budget.RunBudget` enforced
        by the kernel run loop.
    memo_cache:
        Optional :class:`~repro.perf.memo.SliceMemoCache` consulted
        before each analytical model call (may be shared across
        kernels to amortize warm-up over a sweep).
    """
    if not isinstance(workload, Workload):
        spec = _as_scenario_spec(workload)
        overrides = {}
        for key, value, default in (
                ("model", model, None), ("models", models, None),
                ("min_timeslice", min_timeslice, 0.0),
                ("annotation", annotation, "phase"),
                ("scheduler", scheduler, None), ("trace", trace, False),
                ("sync_policy", sync_policy, "eager"),
                ("fault_plan", fault_plan, None),
                ("budget", budget, None),
                ("memo_cache", memo_cache, None)):
            if value != default:
                overrides[key] = value
        return spec.build_kernel(**overrides)
    if annotation not in ANNOTATION_POLICIES:
        raise ValueError(
            f"unknown annotation policy {annotation!r}; choose from "
            f"{ANNOTATION_POLICIES}"
        )
    workload.validate_barriers()
    workload.validate_locks()
    default_model = model if model is not None else ChenLinModel()
    overrides = models or {}
    processors = [Processor(spec.name, spec.power)
                  for spec in workload.processors]
    shared = [
        SharedResource(spec.name,
                       overrides.get(spec.name, default_model),
                       service_time=spec.service_time,
                       ports=spec.ports)
        for spec in workload.resources
    ]
    kernel = HybridKernel(processors, shared, scheduler=scheduler,
                          min_timeslice=min_timeslice, trace=trace,
                          sync_policy=sync_policy,
                          fault_plan=fault_plan, budget=budget,
                          memo_cache=memo_cache, engine="soa")
    barriers = {
        name: Barrier(parties, name=name)
        for name, parties in workload.barrier_parties().items()
    }
    mutexes = {name: Mutex(name) for name in workload.lock_ids()}
    service_times = {spec.name: spec.service_time
                     for spec in workload.resources}
    for thread_trace in workload.threads:
        body = _make_body(thread_trace, barriers, mutexes, service_times,
                          annotation)
        kernel.add_thread(LogicalThread(
            thread_trace.name, body,
            priority=thread_trace.priority,
            affinity=thread_trace.affinity,
        ))
    return kernel


def run_hybrid(workload: Workload, **kwargs) -> SimulationResult:
    """Build and run the hybrid simulation in one call.

    Accepts a :class:`~repro.workloads.trace.Workload` or a
    :class:`~repro.scenario.spec.ScenarioSpec` (see
    :func:`build_kernel`).
    """
    return build_kernel(workload, **kwargs).run()


def _as_scenario_spec(obj):
    """Coerce a non-``Workload`` first argument to a scenario spec.

    Imported lazily so ``repro.workloads`` does not depend on the
    scenario layer at import time (the scenario layer imports the
    workload generators, and module cycles must stay one-way).
    """
    from ..scenario.spec import ScenarioSpec

    if isinstance(obj, ScenarioSpec):
        return obj
    raise TypeError(
        f"expected a Workload or ScenarioSpec, "
        f"got {type(obj).__name__}"
    )


def _make_body(thread_trace: ThreadTrace, barriers: Dict[str, Barrier],
               mutexes: Dict[str, Mutex],
               service_times: Dict[str, float], annotation: str):
    """Return a generator factory lowering one trace to protocol events."""

    def body() -> Iterator[Event]:
        pending_work = 0.0
        pending_extra = 0.0
        pending_accesses: Dict[str, float] = {}
        pending_units: Dict[str, float] = {}

        def merged_burst():
            return {
                name: pending_units[name] / count
                for name, count in pending_accesses.items()
                if count > 0 and pending_units[name] != count
            }

        def flush():
            nonlocal pending_work, pending_extra
            if pending_work or pending_extra or pending_accesses:
                event = consume(pending_work, dict(pending_accesses),
                                extra_time=pending_extra,
                                burst=merged_burst())
                pending_work = 0.0
                pending_extra = 0.0
                pending_accesses.clear()
                pending_units.clear()
                return event
            return None

        for item in thread_trace.items:
            if isinstance(item, Phase):
                # Accesses are transactions; burst beats make each
                # transaction occupy the resource longer, carried both
                # as uncontended extra_time and as the annotation's
                # burst mapping (for heterogeneous-service modeling).
                units = item.accesses * item.burst
                extra = units * service_times.get(item.resource, 0.0)
                if annotation == "phase":
                    yield consume(
                        item.work,
                        {item.resource: item.accesses}
                        if item.accesses else None,
                        extra_time=extra,
                        burst=({item.resource: item.burst}
                               if item.burst > 1 else None),
                    )
                else:  # merge until the next barrier
                    pending_work += item.work
                    pending_extra += extra
                    if item.accesses:
                        pending_accesses[item.resource] = (
                            pending_accesses.get(item.resource, 0.0)
                            + item.accesses)
                        pending_units[item.resource] = (
                            pending_units.get(item.resource, 0.0)
                            + units)
            elif isinstance(item, IdleOp):
                if annotation == "phase":
                    if item.cycles:
                        yield consume(0.0, extra_time=item.cycles)
                else:
                    pending_extra += item.cycles
            elif isinstance(item, BarrierOp):
                flushed = flush()
                if flushed is not None:
                    yield flushed
                yield barrier_wait(barriers[item.barrier_id])
            elif isinstance(item, LockOp):
                flushed = flush()
                if flushed is not None:
                    yield flushed
                yield acquire(mutexes[item.lock_id])
            elif isinstance(item, UnlockOp):
                flushed = flush()
                if flushed is not None:
                    yield flushed
                yield release(mutexes[item.lock_id])
            else:  # pragma: no cover - IR is a closed union
                raise TypeError(f"unknown trace item {item!r}")
        flushed = flush()
        if flushed is not None:
            yield flushed

    return body
