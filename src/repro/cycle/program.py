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

import threading
from array import array
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..workloads.trace import (BarrierOp, IdleOp, LockOp, Phase,
                               ProcessorSpec, ThreadTrace, UnlockOp,
                               Workload, access_target, expand_phase,
                               thread_salt)

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


def lower_thread(thread: ThreadTrace, power: float,
                 phase_ops: Callable[[Phase, float, int], Iterable],
                 op: Callable[[str, object], object]) -> list:
    """Lower one thread's trace items, in order, into one list.

    The one walk over a trace: each :class:`Phase` contributes
    ``phase_ops(phase, power, salt)`` (extended in), each barrier, lock,
    unlock or non-zero idle item contributes ``op(kind, arg)``
    (appended).  :func:`lower_workload` passes :func:`expand_phase` and
    builds micro-op tuples; the event engine passes
    :meth:`PhaseCodes.phase` and builds int codes.
    """
    salt = thread_salt(thread.name)
    ops: list = []
    for index, item in enumerate(thread.items):
        if isinstance(item, Phase):
            ops.extend(phase_ops(item, power, salt ^ (index << 8)))
        elif isinstance(item, BarrierOp):
            ops.append(op("barrier", item.barrier_id))
        elif isinstance(item, IdleOp):
            cycles = int(round(item.cycles))
            if cycles:
                ops.append(op("idle", cycles))
        elif isinstance(item, LockOp):
            ops.append(op("lock", item.lock_id))
        elif isinstance(item, UnlockOp):
            ops.append(op("unlock", item.lock_id))
        else:  # pragma: no cover - IR is a closed union
            raise TypeError(f"unknown trace item {item!r}")
    return ops


def lower_workload(workload: Workload) -> List[Program]:
    """Expand every thread of ``workload`` into a :class:`Program`.

    Raises ``ValueError`` when the workload cannot be statically mapped
    (see :func:`map_threads`).
    """
    assignment = map_threads(workload)
    programs: List[Program] = []
    for thread in workload.threads:
        spec = assignment[thread.name]
        ops = lower_thread(thread, spec.power, expand_phase,
                           lambda kind, arg: (kind, arg))
        programs.append(Program(thread_name=thread.name, processor=spec,
                                ops=ops, priority=thread.priority))
    return programs


#: Int codes of the micro-ops, the low three bits of an event-engine
#: code ``operand << 3 | kind``.
COMPUTE = 0
ACCESS = 1
IDLE = 2
BARRIER = 3
LOCK = 4
UNLOCK = 5

#: Bytes of lowered phases one :class:`PhaseCodes` table keeps in all
#: (oldest phases dropped first); a phase whose row takes more than
#: 1/16 of this is never kept.
MEMO_BYTES = 1 << 19

#: What one kept phase costs besides its row's items, in bytes: about
#: the key, the row object and the dict slot on CPython 3.11.
ENTRY_BYTES = 320

#: Distinct access targets after which :func:`phase_codes` starts a
#: fresh table.
MAX_TARGETS = 1 << 10


class PhaseCodes:
    """Lowered phases in the event engine's int codes, memoized.

    A compute op is coded ``cycles << 3`` and an access
    ``target << 3 | ACCESS``, where ``target`` indexes :attr:`targets`,
    the table's interned ``(resource, burst)`` pairs.  Nothing in a code
    depends on the run, so a phase lowers once per process and every
    engine that meets it again extends its thread's codes with the
    kept ones.  :func:`expand_phase` reads the phase, the processor
    power and the salt, nothing else, so those key the memo; each
    numeric field is keyed with its type, so an int and an equal float
    never share an entry (one may raise where the other does not).  A
    phase that fails to lower raises as :func:`expand_phase` does and is
    not kept, nor is one with an unhashable field or a code outside 32
    bits.  Entries are ``array('H')`` rows, two bytes a code (or
    ``array('i')`` when a code needs more), dropped oldest first beyond
    :data:`MEMO_BYTES` in all (counting :data:`ENTRY_BYTES` an entry).
    """

    def __init__(self) -> None:
        #: Interned ``(resource, burst)`` access targets, by index.
        self.targets: List[Tuple[str, int]] = []
        self._target_ids: Dict[Tuple[str, int], int] = {}
        #: key -> codes, oldest first.
        self._memo: Dict[tuple, array] = {}
        #: Bytes the kept phases cost, by the estimate above.
        self.nbytes = 0
        self._lock = threading.Lock()

    def access_code(self, arg: object) -> int:
        """The code of an access to ``arg`` (an access micro-op's
        argument: a resource name or a ``(resource, burst)`` pair)."""
        target = access_target(arg)
        index = self._target_ids.get(target)
        if index is None:
            with self._lock:
                index = self._target_ids.get(target)
                if index is None:
                    index = len(self.targets)
                    self.targets.append(target)
                    self._target_ids[target] = index
        return index << 3 | ACCESS

    def phase(self, phase: Phase, power: float, salt: int) -> Sequence[int]:
        """The codes of ``expand_phase(phase, power, salt)``."""
        work, accesses, seed, burst = (phase.work, phase.accesses,
                                       phase.seed, phase.burst)
        key = (type(work), work, type(accesses), accesses, phase.resource,
               phase.pattern, type(seed), seed, type(burst), burst,
               type(power), power, salt)
        try:
            row = self._memo.get(key)
        except TypeError:  # an unhashable field: lower, keep nothing
            key, row = None, None
        if row is not None:
            return row
        ops = expand_phase(phase, power, salt=salt)
        # Every access of a phase goes to the phase's one target.
        access = next((self.access_code(arg) for kind, arg in ops
                       if kind == "access"), 0)
        codes = [arg << 3 if kind == "compute" else access
                 for kind, arg in ops]
        for typecode in "Hi":  # the narrowest row that holds the codes
            try:
                row = array(typecode, codes)
                break
            except OverflowError:
                pass
        else:  # a code outside 32 bits: keep nothing
            return codes
        cost = _cost(row)
        if key is not None and cost <= MEMO_BYTES // 16:
            with self._lock:
                if key not in self._memo:
                    memo = self._memo
                    memo[key] = row
                    self.nbytes += cost
                    while self.nbytes > MEMO_BYTES:
                        self.nbytes -= _cost(memo.pop(next(iter(memo))))
        return row


def _cost(row: array) -> int:
    """Bytes one kept row costs, by :data:`ENTRY_BYTES`' estimate."""
    return ENTRY_BYTES + row.itemsize * len(row)


_table = PhaseCodes()


def phase_codes() -> PhaseCodes:
    """The process's :class:`PhaseCodes` table.

    A table that interned more than :data:`MAX_TARGETS` targets is
    replaced by a fresh one; an engine keeps the table it lowered with,
    so its codes stay valid.
    """
    global _table
    if len(_table.targets) > MAX_TARGETS:
        _table = PhaseCodes()
    return _table


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
