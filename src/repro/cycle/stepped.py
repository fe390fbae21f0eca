"""Cycle-stepped multiprocessor simulator — the honest ISS stand-in.

This engine advances global time one cycle at a time and touches every
processor each cycle, exactly like the instruction-set-level simulation
the paper benchmarks against: accurate, simple, and deliberately slow.
It is the runtime reference for the Table 1 reproduction (MESH speedup)
and the accuracy reference for every figure.

Per-cycle phase order (the contract the event-driven twin reproduces):

1. **Completions** — a resource whose service ends this cycle frees, and
   its owner becomes runnable.
2. **Advance** — every runnable processor executes micro-ops in zero time
   until it blocks: starting a compute run, issuing a bus request,
   arriving at a barrier, or idling.  Barrier releases cascade within the
   same cycle.  Processors advance in index order, which fixes the FIFO
   tie-break among same-cycle requests.
3. **Grants** — each free resource with waiting requests grants exactly
   one via its arbiter; the wait (grant minus request cycle) is the
   ground-truth queueing.
4. **Compute tick** — computing processors burn one cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import BudgetExceededError
from ..workloads.trace import Workload, access_target
from .arbiter import Arbiter, Request, make_arbiter
from .program import Program, lower_workload, stall_error
from .program import coerce_workload as _coerce_workload
from .stats import CycleResult, StatsBuilder

# Processor states.
_ADVANCE = 0
_COMPUTE = 1
_WAITING = 2
_IN_SERVICE = 3
_IDLE = 4
_BARRIER = 5
_DONE = 6
_LOCK_WAIT = 7


class _Proc:
    """Per-processor state machine."""

    __slots__ = ("index", "program", "pc", "state", "remaining",
                 "idle_until")

    def __init__(self, index: int, program: Program):
        self.index = index
        self.program = program
        self.pc = 0
        self.state = _ADVANCE
        self.remaining = 0
        self.idle_until = 0


class _Resource:
    """Per-shared-resource state: queue plus the in-flight services.

    ``ports`` parallel services may be in flight; each slot holds the
    owning processor index and its completion cycle.
    """

    __slots__ = ("name", "service", "queue", "owners", "busy_until",
                 "arbiter", "ports")

    def __init__(self, name: str, service: int, arbiter: Arbiter,
                 ports: int = 1):
        self.name = name
        self.service = service
        self.ports = ports
        self.queue: List[Request] = []
        self.owners: List[Optional[int]] = [None] * ports
        self.busy_until: List[int] = [0] * ports
        self.arbiter = arbiter

    def free_port(self) -> Optional[int]:
        """Index of an idle port, or None when all are serving."""
        for index, owner in enumerate(self.owners):
            if owner is None:
                return index
        return None


class _Lock:
    """A trace-level mutex: owner processor index plus FIFO waiters."""

    __slots__ = ("owner", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.waiters: List[int] = []


class SteppedEngine:
    """Cycle-by-cycle shared-bus multiprocessor simulator.

    Parameters
    ----------
    workload:
        The scenario to simulate (threads are statically mapped).
    arbiter:
        Grant policy name: ``fifo`` (default), ``roundrobin`` or
        ``priority``.
    max_cycles:
        Safety bound; exceeding it raises ``RuntimeError``.
    budget:
        Optional :class:`~repro.robustness.budget.RunBudget`; exceeding
        any of its limits raises :class:`~repro.core.errors.
        BudgetExceededError` carrying the partial result so far.
    """

    def __init__(self, workload: Workload, arbiter: str = "fifo",
                 max_cycles: int = 200_000_000,
                 record_grants: bool = False,
                 budget=None):
        workload, budget = _coerce_workload(workload, budget)
        self.workload = workload
        self.programs = lower_workload(workload)
        priorities = {p.thread_name: p.priority for p in self.programs}
        self._arbiter_name = arbiter
        self._priorities = priorities
        self.max_cycles = int(max_cycles)
        self.record_grants = bool(record_grants)
        self.budget = budget

    def run(self) -> CycleResult:
        """Simulate to completion and return ground-truth statistics."""
        procs = [_Proc(i, program)
                 for i, program in enumerate(self.programs)]
        stats = StatsBuilder(record_grants=self.record_grants)
        for proc in procs:
            stats.register_thread(proc.program.thread_name,
                                  proc.program.processor.name)
        resources: Dict[str, _Resource] = {}
        for spec in self.workload.resources:
            service = max(1, int(round(spec.service_time)))
            resources[spec.name] = _Resource(
                spec.name, service,
                make_arbiter(self._arbiter_name, self._priorities),
                ports=spec.ports)
            stats.register_resource(spec.name, service)
        resource_order = [resources[spec.name]
                          for spec in self.workload.resources]
        parties = self.workload.barrier_parties()
        arrivals: Dict[str, List[int]] = {name: [] for name in parties}
        locks: Dict[str, _Lock] = {name: _Lock()
                                   for name in self.workload.lock_ids()}
        seq = 0
        done = 0
        total = len(procs)
        t = 0
        meter = self.budget.start() if self.budget is not None else None

        while done < total:
            if t > self.max_cycles:
                raise RuntimeError(
                    f"stepped simulation exceeded {self.max_cycles} cycles"
                )
            if meter is not None:
                reason = meter.check(t, t)
                if reason is not None:
                    raise BudgetExceededError(
                        reason,
                        partial_result=stats.build(makespan=t,
                                                   cycles_executed=t),
                        budget=self.budget)
            # Phase 1: completions.
            for resource in resource_order:
                for port in range(resource.ports):
                    if (resource.owners[port] is not None
                            and resource.busy_until[port] == t):
                        procs[resource.owners[port]].state = _ADVANCE
                        resource.owners[port] = None
            # Phase 2: advance runnable processors in index order.
            work = []
            for proc in procs:
                if proc.state == _ADVANCE:
                    work.append(proc.index)
                elif proc.state == _IDLE and proc.idle_until <= t:
                    proc.state = _ADVANCE
                    work.append(proc.index)
            while work:
                work.sort()
                index = work.pop(0)
                proc = procs[index]
                seq, finished = self._advance(proc, t, seq, resources,
                                              parties, arrivals, locks,
                                              stats, work, procs)
                done += finished
            # Phase 3: grants (one per free port per cycle).
            for resource in resource_order:
                while resource.queue:
                    port = resource.free_port()
                    if port is None:
                        break
                    request = resource.arbiter.pick(resource.queue)
                    service = resource.service * request.burst
                    stats.grant(resource.name, request.thread_name,
                                t - request.time, service, now=t)
                    resource.owners[port] = request.proc_index
                    resource.busy_until[port] = t + service
                    procs[request.proc_index].state = _IN_SERVICE
            # Phase 4: compute tick.
            progress = False
            for proc in procs:
                if proc.state == _COMPUTE:
                    proc.remaining -= 1
                    progress = True
                    if proc.remaining == 0:
                        proc.state = _ADVANCE
                elif proc.state in (_IN_SERVICE, _ADVANCE):
                    progress = True
                elif proc.state == _IDLE:
                    progress = True
            if not progress and done < total:
                raise stall_error(t, [
                    (proc.program.thread_name, proc.program.ops[proc.pc - 1])
                    for proc in procs
                    if proc.state in (_BARRIER, _LOCK_WAIT)])
            t += 1

        makespan = max(stats.finish.values()) if stats.finish else 0
        return stats.build(makespan=makespan, cycles_executed=t)

    def _advance(self, proc: _Proc, t: int, seq: int,
                 resources: Dict[str, _Resource],
                 parties: Dict[str, int],
                 arrivals: Dict[str, List[int]],
                 locks: Dict[str, "_Lock"],
                 stats: StatsBuilder,
                 work: List[int],
                 procs: List[_Proc]):
        """Run one processor's micro-ops until it blocks.

        Returns ``(next_seq, finished)`` where ``finished`` is 1 when the
        program ran to completion during this advance.
        """
        name = proc.program.thread_name
        ops = proc.program.ops
        while True:
            if proc.pc >= len(ops):
                proc.state = _DONE
                stats.finish[name] = t
                return seq, 1
            kind, arg = ops[proc.pc]
            proc.pc += 1
            if kind == "compute":
                proc.state = _COMPUTE
                proc.remaining = int(arg)
                stats.compute[name] += int(arg)
                return seq, 0
            if kind == "access":
                resource_name, burst = access_target(arg)
                resource = resources[resource_name]
                resource.queue.append(
                    Request(proc_index=proc.index, thread_name=name,
                            time=t, seq=seq, burst=burst))
                seq += 1
                proc.state = _WAITING
                return seq, 0
            if kind == "idle":
                proc.state = _IDLE
                proc.idle_until = t + int(arg)
                return seq, 0
            if kind == "barrier":
                barrier_id = str(arg)
                arrived = arrivals[barrier_id]
                arrived.append(proc.index)
                if len(arrived) < parties[barrier_id]:
                    proc.state = _BARRIER
                    return seq, 0
                for other_index in arrived:
                    if other_index != proc.index:
                        procs[other_index].state = _ADVANCE
                        work.append(other_index)
                arrivals[barrier_id] = []
                continue  # the last arriver proceeds immediately
            if kind == "lock":
                lock = locks[str(arg)]
                if lock.owner is None:
                    lock.owner = proc.index
                    continue
                lock.waiters.append(proc.index)
                proc.state = _LOCK_WAIT
                return seq, 0
            if kind == "unlock":
                lock = locks[str(arg)]
                if lock.owner != proc.index:
                    raise RuntimeError(
                        f"thread {name!r} unlocked {arg!r} held by "
                        f"{lock.owner!r}"
                    )
                if lock.waiters:
                    next_owner = lock.waiters.pop(0)
                    lock.owner = next_owner
                    procs[next_owner].state = _ADVANCE
                    work.append(next_owner)
                else:
                    lock.owner = None
                continue
            raise TypeError(f"unknown micro-op {kind!r}")
