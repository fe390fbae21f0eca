"""Lowering workload traces to cycle-engine programs.

The cycle-accurate engines model the paper's ISS baseline: one program
per processor, every bus access individually arbitrated.  A
:class:`Program` is the fully-expanded micro-op list for one thread bound
to one processor (compute runs are integer cycle counts already scaled by
the processor's computational power).

Threads are statically mapped — by their trace affinity when given,
otherwise one-to-one in declaration order — mirroring the paper's setup
of one software stack per core.  Scenarios with more threads than
processors must be expressed by concatenating kernels into one trace per
processor (see :mod:`repro.workloads.phm`), because a cycle-accurate ISS
has no notion of a software scheduler unless one is part of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..workloads.trace import (BarrierOp, IdleOp, LockOp, Phase,
                               ProcessorSpec, UnlockOp, Workload,
                               access_target, expand_phase, thread_salt)

#: Micro-op kinds: ("compute", cycles) | ("access", resource) |
#: ("barrier", id) | ("idle", cycles) | ("lock", id) | ("unlock", id)
MicroOp = Tuple[str, object]


@dataclass
class Program:
    """One thread's fully-expanded micro-op stream on one processor."""

    thread_name: str
    processor: ProcessorSpec
    ops: List[MicroOp] = field(default_factory=list)
    priority: int = 0

    def total_compute(self) -> int:
        """Total compute cycles in the program."""
        return sum(arg for kind, arg in self.ops if kind == "compute")

    def total_accesses(self, resource: Optional[str] = None) -> int:
        """Total access micro-ops (optionally for one resource)."""
        return sum(1 for kind, arg in self.ops
                   if kind == "access"
                   and (resource is None
                        or access_target(arg)[0] == resource))


def map_threads(workload: Workload) -> Dict[str, ProcessorSpec]:
    """The static thread -> processor mapping of ``workload``.

    Honors affinities first, then binds the unpinned threads one-to-one
    to the free processors in declaration order.  Raises ``ValueError``
    when the workload's barriers or locks are malformed, or when it
    cannot be statically mapped (an affinity clash, or more threads
    than processors after honoring affinities).
    """
    workload.validate_barriers()
    workload.validate_locks()
    by_name: Dict[str, ProcessorSpec] = {
        p.name: p for p in workload.processors
    }
    taken: Dict[str, str] = {}
    unpinned = []
    for thread in workload.threads:
        if thread.affinity is not None:
            if thread.affinity in taken:
                raise ValueError(
                    f"processor {thread.affinity!r} claimed by both "
                    f"{taken[thread.affinity]!r} and {thread.name!r}; the "
                    f"cycle engines need a one-to-one static mapping"
                )
            taken[thread.affinity] = thread.name
        else:
            unpinned.append(thread)
    free = [p for p in workload.processors if p.name not in taken]
    if len(unpinned) > len(free):
        raise ValueError(
            f"{len(workload.threads)} threads cannot be statically mapped "
            f"onto {len(workload.processors)} processors; concatenate "
            f"kernels into per-processor traces instead"
        )
    assignment: Dict[str, ProcessorSpec] = {
        thread_name: by_name[proc_name]
        for proc_name, thread_name in taken.items()
    }
    for thread, spec in zip(unpinned, free):
        assignment[thread.name] = spec
    return assignment


def lower_workload(workload: Workload) -> List[Program]:
    """Expand every thread of ``workload`` into a :class:`Program`.

    Raises ``ValueError`` when the workload cannot be statically mapped
    (see :func:`map_threads`).
    """
    assignment = map_threads(workload)
    programs: List[Program] = []
    for thread in workload.threads:
        spec = assignment[thread.name]
        salt = thread_salt(thread.name)
        ops: List[MicroOp] = []
        for index, item in enumerate(thread.items):
            if isinstance(item, Phase):
                ops.extend(expand_phase(item, spec.power,
                                        salt=salt ^ (index << 8)))
            elif isinstance(item, BarrierOp):
                ops.append(("barrier", item.barrier_id))
            elif isinstance(item, IdleOp):
                cycles = int(round(item.cycles))
                if cycles:
                    ops.append(("idle", cycles))
            elif isinstance(item, LockOp):
                ops.append(("lock", item.lock_id))
            elif isinstance(item, UnlockOp):
                ops.append(("unlock", item.lock_id))
            else:  # pragma: no cover - IR is a closed union
                raise TypeError(f"unknown trace item {item!r}")
        programs.append(Program(thread_name=thread.name, processor=spec,
                                ops=ops, priority=thread.priority))
    return programs


def stall_error(cycle: int,
                parked: Sequence[Tuple[str, MicroOp]]) -> RuntimeError:
    """The error both engines raise when no thread can ever proceed.

    ``parked`` lists ``(thread name, micro-op it is blocked on)`` in
    processor order; each op is a ``("barrier", id)`` or a
    ``("lock", id)``.  ``cycle`` is the last cycle anything happened.
    """
    waits = ", ".join(
        f"{name!r} at barrier {arg!r}" if kind == "barrier"
        else f"{name!r} on lock {arg!r}"
        for name, (kind, arg) in parked)
    return RuntimeError(
        f"cycle simulation stalled at cycle {cycle}; threads blocked "
        f"forever: {waits}")


def coerce_workload(workload, budget):
    """Resolve an engine's first argument to ``(workload, budget)``.

    Both cycle engines accept a :class:`Workload` or a
    :class:`~repro.scenario.spec.ScenarioSpec`; a spec is materialized
    here, and its serialized budget applies when the caller passed
    none.  Lazy import keeps ``repro.cycle`` free of a module-level
    dependency on the scenario layer.
    """
    if isinstance(workload, Workload):
        return workload, budget
    from ..scenario.spec import ScenarioSpec

    if isinstance(workload, ScenarioSpec):
        if budget is None:
            budget = workload.build_budget()
        return workload.build_workload(), budget
    raise TypeError(
        f"expected a Workload or ScenarioSpec, "
        f"got {type(workload).__name__}"
    )
