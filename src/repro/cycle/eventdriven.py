"""Event-driven twin of the cycle-stepped engine.

Produces **bit-identical** results to :class:`~repro.cycle.stepped.
SteppedEngine` — same grants, same waits, same makespan — while skipping
every uneventful cycle, so it runs orders of magnitude faster.  The
experiments use it as the ground-truth generator for accuracy sweeps
(Figures 4-6) while the stepped engine provides the honest runtime
baseline for Table 1; an equivalence test suite keeps the twins locked
together.

Equivalence is by construction.  Both engines read the same lowering
(one item walk, one :func:`~repro.workloads.trace.expand_phase`) and
share the arbiter implementations.  A grant can only become newly
possible at a completion or a new request — both of which are events —
so granting only at event times loses nothing.  Within one
cycle the stepped engine frees every finished port, then advances the
runnable processors in index order, then grants one waiting request per
free port; this engine reproduces that outcome:

* The events of one cycle leave the heap in processor-index order, and a
  processor released by a barrier or a lock hand-off joins the same
  cycle through the heap, so advances run in the stepped order.
* FIFO grants in arrival order.  Requests are appended in ``(time,
  seq)`` order, so a FIFO queue is only non-empty while every port is
  busy: a request that finds a free port is granted at once, and a
  completing grant hands its port to the queue head at once.  Either
  way the same requests get the same ports in the same cycle as in the
  stepped engine's grant phase.
* Other arbiters pick from :class:`~repro.cycle.arbiter.Request` lists
  after the cycle's last advance, exactly as the stepped engine does.

The loop is flat.  State lives in lists indexed by processor, resource,
barrier or lock, and the micro-ops are ints from the start: the engine
lowers each thread through the same item walk as
:func:`~repro.cycle.program.lower_workload`, but a phase comes from the
process's :class:`~repro.cycle.program.PhaseCodes` memo, already coded,
so a phase met before (the bus-delay variants of one workload) is not
expanded again, and no pass re-codes the ops per run.  A heap entry is
one int, ``time << shift | processor << 2 | kind``, whose kind says
the processor's compute or idle run ends, its grant completes, or it
was woken this cycle by a barrier or lock (not an event of its own).  A
processor has at most one pending entry, so entries never tie.
``cycles_executed`` counts the heap events, the ends and completions;
wake-ups are not events.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from heapq import heappop, heappush, heappushpop
from typing import List, Sequence

from ..core.errors import BudgetExceededError
from ..workloads.trace import Workload
from .arbiter import Request, make_arbiter
from .program import (ACCESS, BARRIER, COMPUTE, IDLE, LOCK, UNLOCK,
                      lower_thread, map_threads, phase_codes, stall_error)
from .program import coerce_workload as _coerce_workload
from .stats import CycleResult, GrantRecord, StatsBuilder

_OP_KINDS = {"idle": IDLE, "barrier": BARRIER, "lock": LOCK,
             "unlock": UNLOCK}


def _packed(codes: List[int]) -> Sequence[int]:
    """One thread's codes as 8-byte ints, or the list when one is wider
    (an absurdly long compute run): the ints of a long program cost
    several times the array."""
    try:
        return array("q", codes)
    except OverflowError:
        return codes


# Heap entry kinds (the low two bits).  _READY is 0, so a ready entry
# is written ``time << shift | processor << 2``.
_READY = 0
_COMPLETE = 1
_WOKEN = 2


class EventEngine:
    """Exact event-driven shared-bus multiprocessor simulator.

    An optional ``budget`` (:class:`~repro.robustness.budget.RunBudget`)
    is checked once per event batch; exceeding it raises
    :class:`~repro.core.errors.BudgetExceededError` with the partial
    result so far.
    """

    def __init__(self, workload: Workload, arbiter: str = "fifo",
                 max_events: int = 200_000_000,
                 record_grants: bool = False,
                 budget=None):
        workload, budget = _coerce_workload(workload, budget)
        self.workload = workload
        assignment = map_threads(workload)
        threads = workload.threads
        self._names = [thread.name for thread in threads]
        self._processors = [assignment[thread.name] for thread in threads]
        self._arbiter_name = arbiter
        self._priorities = {thread.name: thread.priority
                            for thread in threads}
        self.max_events = int(max_events)
        self.record_grants = bool(record_grants)
        self.budget = budget

        # Each thread's int codes, one ``operand << 3 | kind`` per
        # micro-op (see :class:`~repro.cycle.program.PhaseCodes`).  A
        # barrier or lock op's operand is its index below, an idle op's
        # its cycle count.
        self._barrier_names = list(workload.barrier_parties())
        self._lock_names = list(workload.lock_ids())
        barrier_index = {name: b
                         for b, name in enumerate(self._barrier_names)}
        lock_index = {name: m for m, name in enumerate(self._lock_names)}
        #: The phase-code table the codes index into.
        self.table = table = phase_codes()
        #: The ``(resource, burst)`` targets the program accesses.
        self._accessed = accessed = set()

        def phase(item, power, salt):
            if item.accesses:
                accessed.add((item.resource, item.burst))
            return table.phase(item, power, salt)

        def op(kind, arg):
            if kind == "idle":
                operand = arg
            elif kind == "barrier":
                operand = barrier_index[str(arg)]
            else:
                operand = lock_index[str(arg)]
            return operand << 3 | _OP_KINDS[kind]

        #: Per thread, in processor order: its int codes.
        self.codes = [_packed(lower_thread(thread, spec.power, phase, op))
                      for thread, spec in zip(threads, self._processors)]

    def run(self) -> CycleResult:
        """Simulate to completion and return ground-truth statistics."""
        workload = self.workload
        coded = self.codes
        nprocs = len(coded)
        names = self._names

        # Resources, barriers and locks by index.
        res_names = [spec.name for spec in workload.resources]
        res_index = {name: r for r, name in enumerate(res_names)}
        res_service = [max(1, int(round(spec.service_time)))
                       for spec in workload.resources]
        ports = [spec.ports for spec in workload.resources]
        nres = len(res_names)
        fifo = self._arbiter_name == "fifo"
        arbiters = [make_arbiter(self._arbiter_name, self._priorities)
                    for _ in range(nres)]
        queues = [deque() if fifo else [] for _ in range(nres)]
        busy = [0] * nres
        parties_by_name = workload.barrier_parties()
        barrier_names = self._barrier_names
        parties = [parties_by_name[name] for name in barrier_names]
        arrivals: List[List[int]] = [[] for _ in barrier_names]
        lock_names = self._lock_names
        owner = [-1] * len(lock_names)
        waiters = [deque() for _ in lock_names]

        # An access code's operand indexes the table's targets; these
        # give each target the program reaches its resource index,
        # beats and service cycles.
        table = self.table
        targets = table.targets
        acc_res = [0] * len(targets)
        acc_burst = [0] * len(targets)
        acc_service = [0] * len(targets)
        for target in self._accessed:
            t = table.access_code(target) >> 3
            name, burst = targets[t]
            r = acc_res[t] = res_index[name]
            acc_burst[t] = burst
            acc_service[t] = res_service[r] * burst

        # Each processor's position in its program: an advance resumes
        # the iterator where the last one stopped.
        cursors = [iter(ops) for ops in coded]

        # Only what the programs' positions cannot tell is counted as
        # the run goes: waits, finish times and grant records.
        serving = [0] * nprocs
        wait = [0] * nprocs
        finish = [0] * nprocs
        res_wait = [0] * nres
        grant_log: List[GrantRecord] = []
        record = self.record_grants

        def build(makespan: int, events: int) -> CycleResult:
            """Fold the run so far into a :class:`CycleResult`.

            A compute op counts when it starts and an access when it is
            granted, so both follow from the ops each processor has
            consumed, less an access still waiting in a queue.  The run
            is over, so each cursor is drained to count what is left.
            """
            queued = {entry[0] if fifo else entry.proc_index
                      for queue in queues for entry in queue}
            stats = StatsBuilder(record_grants=record)
            for r, name in enumerate(res_names):
                stats.register_resource(name, res_service[r])
                stats.resource_wait[name] = res_wait[r]
            for i, name in enumerate(names):
                stats.register_thread(name, self._processors[i].name)
                stats.wait[name] = wait[i]
                stats.finish[name] = finish[i]
                ops = coded[i]
                consumed = (len(ops) - sum(1 for _ in cursors[i])
                            - (i in queued))
                for op, count in Counter(ops[:consumed]).items():
                    kind = op & 7
                    if kind == COMPUTE:
                        stats.compute[name] += (op >> 3) * count
                    elif kind == ACCESS:
                        cycles = acc_service[op >> 3] * count
                        resource = res_names[acc_res[op >> 3]]
                        stats.accesses[name] += count
                        stats.service[name] += cycles
                        stats.resource_grants[resource] += count
                        stats.resource_busy[resource] += cycles
            # FIFO grants are logged as they happen; the stepped engine
            # logs a cycle's grants resource by resource.
            stats.grant_log = sorted(
                grant_log,
                key=lambda g: (g.grant_time, res_index[g.resource]))
            return stats.build(makespan=makespan, cycles_executed=events)

        shift = max(2, (4 * nprocs - 1).bit_length())
        mask = (1 << shift) - 1
        # Every processor is ready at cycle 0; sorted ints form a heap.
        heap = [i << 2 | _READY for i in range(nprocs)]

        def grant_queued(r: int, j: int, requested: int, cycles: int,
                         now: int) -> None:
            """Serve j's request, queued on resource r since cycle
            ``requested``, from cycle ``now`` (the port is taken)."""
            waited = now - requested
            wait[j] += waited
            res_wait[r] += waited
            if record:
                grant_log.append(GrantRecord(
                    resource=res_names[r], thread=names[j],
                    request_time=requested, grant_time=now,
                    service=cycles))
            serving[j] = r
            heappush(heap, ((now + cycles) << shift) | (j << 2) | _COMPLETE)

        seq = 0
        finished = 0
        events = 0
        t = 0
        end = 0  # the first key past the current cycle
        pending = -1  # the advanced processor's next entry, not pushed
        max_events = self.max_events
        meter = self.budget.start() if self.budget is not None else None

        while True:
            if pending >= 0:
                key = heappushpop(heap, pending)
                pending = -1
            elif heap:
                key = heappop(heap)
            else:
                break
            if key >= end:
                t = key >> shift
                end = (t + 1) << shift
                if meter is not None:
                    reason = meter.check(t, events)
                    if reason is not None:
                        raise BudgetExceededError(
                            reason, partial_result=build(t, events),
                            budget=self.budget)
            low = key & mask
            i = low >> 2
            if low & 3 != _WOKEN:
                events += 1
                if events > max_events:
                    raise RuntimeError(
                        f"event simulation exceeded {max_events} events")
                if low & 3 == _COMPLETE:
                    r = serving[i]
                    queue = queues[r]
                    if fifo and queue:
                        # The freed port goes to the oldest request.
                        grant_queued(r, *queue.popleft(), t)
                    else:
                        busy[r] -= 1
            # Advance processor i until it blocks; its iterator resumes
            # where the last advance stopped.
            for op in cursors[i]:
                kind = op & 7
                arg = op >> 3
                if kind == COMPUTE:
                    pending = ((t + arg) << shift) | (i << 2)
                    break
                if kind == ACCESS:
                    r = acc_res[arg]
                    if not fifo:
                        queues[r].append(Request(
                            proc_index=i, thread_name=names[i], time=t,
                            seq=seq, burst=acc_burst[arg]))
                        seq += 1
                    elif busy[r] < ports[r]:
                        # A free port means an empty FIFO queue.
                        cycles = acc_service[arg]
                        if record:
                            grant_log.append(GrantRecord(
                                resource=res_names[r], thread=names[i],
                                request_time=t, grant_time=t,
                                service=cycles))
                        busy[r] += 1
                        serving[i] = r
                        pending = (((t + cycles) << shift)
                                   | (i << 2) | _COMPLETE)
                    else:
                        queues[r].append((i, t, acc_service[arg]))
                    break
                if kind == IDLE:
                    pending = ((t + arg) << shift) | (i << 2)
                    break
                if kind == BARRIER:
                    arrived = arrivals[arg]
                    arrived.append(i)
                    if len(arrived) < parties[arg]:
                        break
                    for other in arrived:
                        if other != i:
                            heappush(heap, (t << shift) | (other << 2)
                                     | _WOKEN)
                    arrivals[arg] = []
                    continue  # the last arriver proceeds
                if kind == LOCK:
                    if owner[arg] < 0:
                        owner[arg] = i
                        continue
                    waiters[arg].append(i)
                    break
                # UNLOCK
                if owner[arg] != i:
                    raise RuntimeError(
                        f"thread {names[i]!r} unlocked "
                        f"{lock_names[arg]!r} held by "
                        f"{owner[arg] if owner[arg] >= 0 else None!r}")
                if waiters[arg]:
                    owner[arg] = waiters[arg].popleft()
                    heappush(heap, (t << shift) | (owner[arg] << 2)
                             | _WOKEN)
                else:
                    owner[arg] = -1
            else:
                # The program ran to completion.
                finish[i] = t
                finished += 1
            if fifo or (heap and heap[0] < end):
                continue
            # The cycle's last advance: the arbiter grants one waiting
            # request per free port.
            for r in range(nres):
                queue = queues[r]
                while queue and busy[r] < ports[r]:
                    request = arbiters[r].pick(queue)
                    busy[r] += 1
                    grant_queued(r, request.proc_index, request.time,
                                 res_service[r] * request.burst, t)

        if finished < nprocs:
            # Every unfinished processor waits at a barrier or a lock.
            parked = {}
            for b, arrived in enumerate(arrivals):
                for j in arrived:
                    parked[j] = ("barrier", barrier_names[b])
            for m, queue in enumerate(waiters):
                for j in queue:
                    parked[j] = ("lock", lock_names[m])
            raise stall_error(t, [(names[j], parked[j])
                                  for j in sorted(parked)])
        return build(max(finish) if nprocs else 0, events)
