"""The hybrid simulation kernel (paper Fig. 2).

The kernel interleaves three activities:

1. **Scheduling** — whenever an execution resource is available, the UE
   scheduler places an eligible logical thread on it and the thread's body
   executes (in zero virtual time) until it yields the next annotation,
   producing an :class:`~repro.core.region.AnnotationRegion` whose end time
   is pushed on a priority queue.
2. **Committing** — the region with the earliest physical end time is
   popped; any penalty assigned to it in earlier timeslices is folded into
   its end time lazily (re-inserting it) before it can commit.  Committing
   advances global simulated time.
3. **Post-access arbitration** — the shared-resource scheduler (US)
   gathers every shared access that fell inside the just-closed timeslice,
   evaluates each shared resource's analytical model, and assigns queueing
   penalties.  Demand is gathered incrementally: each region registers
   with the US scheduler when it starts, and every commit advances the
   collection horizon over only the still-open registrations.  Each
   demanding resource's model is then called once, in resource order
   (:meth:`~repro.core.us.SharedResourceScheduler.analyze`).  The
   committed region's own penalty is applied immediately
   (keeping its processor busy); other in-flight regions accumulate theirs
   for lazy application; threads with no in-flight region carry the
   penalty into their next region.

Synchronization events between annotations are resolved in zero time; a
thread that must block is *shelved* (its processor freed) and is released
at the physical time of the unblocking event — the end of the unblocking
thread's preceding region, which realizes the paper's pessimistic resume
rule.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .errors import (BudgetExceededError, ConfigurationError, DeadlockError,
                     ProtocolError, SimulationError, UnsupportedFeatureError)
from .events import (Acquire, BarrierWait, CondNotify, CondWait, Consume,
                     Release, SemAcquire, SemRelease, Spawn)
from .pqueue import RegionQueue
from .region import AnnotationRegion
from .resource import Processor
from .scheduler import ExecutionScheduler, FifoScheduler
from .shared import SharedResource
from .stats import SimulationResult, build_result
from .thread import LogicalThread, ThreadState
from .tracelog import TraceLog
from .us import SharedResourceScheduler

_EPS = 1e-9


class HybridKernel:
    """MESH-style simulation kernel with hybrid shared-resource modeling.

    Parameters
    ----------
    processors:
        The platform's execution resources (ThP).
    shared_resources:
        Contended resources (ThS), each carrying an analytical model.
    scheduler:
        UE policy; defaults to a FIFO pool scheduler.
    min_timeslice:
        Minimum analysis window width (paper section 4.3).  ``0`` analyzes
        every slice.
    trace:
        Record a :class:`~repro.core.tracelog.TraceLog` of kernel actions.
    sync_policy:
        When a sync event unblocks a waiter: ``"eager"`` (default)
        releases it at the event's exact timestamp — correct here because
        sync events sit at annotation boundaries; ``"deferred"``
        reproduces the paper's pessimistic rule for sync calls buried
        inside coarse annotation regions: the waiter resumes only at the
        committed end of the unblocking thread's *next* region.
    fault_plan:
        Optional :class:`~repro.robustness.faults.FaultPlan` consulted
        by the US scheduler each analyzed timeslice; degrades shared
        resources and injects access failures deterministically.
    budget:
        Optional :class:`~repro.robustness.budget.RunBudget`; when a
        limit trips, :meth:`run`/:meth:`steps` raise
        :class:`~repro.core.errors.BudgetExceededError` carrying the
        partial :class:`~repro.core.stats.SimulationResult`.
    memo_cache:
        Optional :class:`~repro.perf.memo.SliceMemoCache` consulted by
        the US scheduler before each analytical model call; hit/miss/
        eviction counters surface on the
        :class:`~repro.core.stats.SimulationResult`.  Sharing one cache
        across kernels amortizes warm-up over a sweep.
    engine:
        Which execution engine :meth:`run` uses.  ``"object"``
        (default) is the reference loop below; ``"soa"`` compiles the
        scenario to a flat structure-of-arrays program
        (:mod:`repro.core.compile`) and runs it on the array engine
        (:mod:`repro.core.soa`).  The compiler enumerates every thread
        body before the run, so ``"soa"`` is exact only for bodies
        whose events do not depend on simulation state (a body yielding
        ``consume(1.0 + kernel.now)`` is not); the kernel cannot
        observe that, so only
        :func:`repro.workloads.to_mesh.build_kernel`, whose bodies are
        lowered from static traces, selects it.  For such bodies the
        results are bit-identical and the commit hot path is an order
        of magnitude faster.  Configurations the compiler does not
        lower (tracing, fault plans, budgets, memoization, semaphores
        and other non-lowered sync events, non-FIFO scheduling) route
        back to the object engine automatically;
        :attr:`engine_used` and :attr:`engine_fallback_reason` record
        the routing on the kernel and on the result — never silent.
        A compiled program always replays on the interpreted array
        loop (:func:`repro.core.soa.run_program`), reported as
        :attr:`backend_used` ``"interp"``.
    """

    SYNC_POLICIES = ("eager", "deferred")
    ENGINES = ("object", "soa")

    def __init__(self, processors: Sequence[Processor],
                 shared_resources: Iterable[SharedResource] = (),
                 scheduler: Optional[ExecutionScheduler] = None,
                 min_timeslice: float = 0.0,
                 trace: bool = False,
                 sync_policy: str = "eager",
                 fault_plan=None,
                 budget=None,
                 memo_cache=None,
                 engine: str = "object"):
        if sync_policy not in self.SYNC_POLICIES:
            raise ConfigurationError(
                f"unknown sync_policy {sync_policy!r}; choose from "
                f"{self.SYNC_POLICIES}"
            )
        if engine not in self.ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; choose from {self.ENGINES}"
            )
        self.sync_policy = sync_policy
        self.engine = engine
        #: Engine that actually executed the run; stays ``"object"``
        #: until an SoA compile succeeds.
        self.engine_used = "object"
        #: Why an ``engine="soa"`` request routed to the object engine
        #: (``None`` when no fallback happened).
        self.engine_fallback_reason: Optional[str] = None
        #: Replay loop that executed the compiled program: ``"interp"``
        #: once the SoA engine runs, ``None`` otherwise.
        self.backend_used: Optional[str] = None
        self.processors: List[Processor] = list(processors)
        if not self.processors:
            raise ConfigurationError("at least one processor is required")
        names = [p.name for p in self.processors]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate processor names: {names}")
        self.shared_resources: List[SharedResource] = list(shared_resources)
        self.scheduler = scheduler if scheduler is not None else (
            FifoScheduler())
        self.scheduler.bind(self.processors)
        self.us = SharedResourceScheduler(self.shared_resources,
                                          min_timeslice=min_timeslice,
                                          fault_plan=fault_plan,
                                          memo=memo_cache)
        self.fault_plan = fault_plan
        if fault_plan is not None:
            unknown = [name for name in fault_plan.resource_names()
                       if name not in self.us.resources]
            if unknown:
                raise ConfigurationError(
                    f"fault plan targets unknown shared resources: "
                    f"{unknown}"
                )
        self.budget = budget
        # Counter snapshot so a cache shared across kernels still
        # reports per-run hit/miss/eviction deltas in the result.
        self._memo_baseline = ((memo_cache.hits, memo_cache.misses,
                                memo_cache.evictions)
                               if memo_cache is not None else (0, 0, 0))
        self.trace: Optional[TraceLog] = TraceLog() if trace else None

        self.now: float = 0.0
        self.regions_committed: int = 0
        self.threads: List[LogicalThread] = []
        self._by_name: Dict[str, LogicalThread] = {}
        self._priorities: Dict[str, int] = {}
        self._queue = RegionQueue()
        self._inflight: Dict[str, AnnotationRegion] = {}
        self._blocked: set = set()
        # Deferred sync policy state: wakes performed by a thread that
        # have not yet been pinned to one of its regions.
        self._pending_wakes: Dict[str, List[LogicalThread]] = {}
        self._waking_thread: Optional[LogicalThread] = None
        self._seq = 0
        self._proc_by_name = {p.name: p for p in self.processors}
        self._ran = False
        self._finished = False

    # -- configuration -----------------------------------------------------

    def add_thread(self, thread: LogicalThread,
                   start_time: float = 0.0) -> LogicalThread:
        """Register a logical thread; it becomes eligible at ``start_time``."""
        if thread.name in self._by_name:
            raise ConfigurationError(
                f"duplicate thread name {thread.name!r}"
            )
        if thread.affinity is not None and (
                thread.affinity not in self._proc_by_name):
            raise ConfigurationError(
                f"thread {thread.name!r} pinned to unknown processor "
                f"{thread.affinity!r}"
            )
        if start_time < 0:
            raise ConfigurationError(
                f"thread {thread.name!r} start time must be >= 0"
            )
        thread.release_time = float(start_time)
        thread.state = ThreadState.READY
        self.threads.append(thread)
        self._by_name[thread.name] = thread
        self._priorities[thread.name] = thread.priority
        self.scheduler.add(thread)
        return thread

    # -- main loop -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Execute the simulation to completion (or to time ``until``).

        Returns the :class:`~repro.core.stats.SimulationResult`.  Raises
        :class:`DeadlockError` if blocked threads can never be woken.

        With ``engine="soa"`` the scenario is first lowered by
        :func:`~repro.core.compile.compile_kernel`; on success the
        array engine executes it (bit-identical result), on
        :class:`UnsupportedFeatureError` the object loop runs instead
        with the reason recorded in :attr:`engine_fallback_reason` —
        the compile probe reads thread bodies through fresh generators,
        so the fallback re-runs nothing and builds nothing twice.
        """
        if self._ran:
            raise SimulationError("kernel instances are single-shot; "
                                  "build a new kernel to run again")
        if self.engine == "soa":
            if until is not None:
                self.engine_fallback_reason = "time-bounded runs (until=)"
            else:
                from .compile import compile_kernel

                try:
                    program = compile_kernel(self)
                except UnsupportedFeatureError as exc:
                    self.engine_fallback_reason = exc.feature
                else:
                    return self._replay(program)
        self._ran = True
        for _region in self._commit_loop(until):
            pass
        return self.result()

    def _replay(self, program):
        """Replay a compiled program on the interpreted array loop."""
        from .soa import run_program

        self._ran = True
        self.engine_used = "soa"
        self.backend_used = "interp"
        return run_program(self, program)

    def steps(self, until: Optional[float] = None):
        """Advance the simulation one commit at a time (generator).

        Yields each committed :class:`~repro.core.region.
        AnnotationRegion` right after its slice analysis, so callers can
        observe (or abort) the simulation incrementally::

            for region in kernel.steps():
                print(kernel.now, region.thread.name)
            result = kernel.result()

        A region re-inserted because it was penalized is yielded again
        when it finally commits.  Exhausting the generator flushes the
        final analysis window; :meth:`result` is then available.
        """
        if self._ran:
            raise SimulationError("kernel instances are single-shot; "
                                  "build a new kernel to run again")
        self._ran = True
        if self.engine == "soa":
            # Stepwise observation needs live region objects; route to
            # the object loop with the reason recorded.
            self.engine_fallback_reason = "stepwise observation (steps())"
        yield from self._commit_loop(until)

    def _commit_loop(self, until: Optional[float]):
        """The object engine's Fig. 2 loop, yielding each committed region.

        Fill, pop, commit, idle-jump or deadlock check, until no work is
        left (or ``until`` is reached); then flushes the final analysis
        window and marks the kernel finished.
        """
        meter = self.budget.start() if self.budget is not None else None
        queue = self._queue
        scheduler = self.scheduler
        unbounded = meter is None and until is None
        while True:
            if not unbounded:
                if meter is not None:
                    reason = meter.check(self.now, self.regions_committed)
                    if reason is not None:
                        raise BudgetExceededError(
                            reason, partial_result=build_result(self),
                            budget=self.budget)
                if until is not None and self.now >= until:
                    break
            self._fill_processors()
            if queue:
                region = self._pop_with_penalties()
                self._commit(region)
                if region.committed:
                    yield region
                continue
            # No in-flight regions: either idle-jump, deadlock, or done.
            if scheduler.has_waiting():
                next_release = scheduler.earliest_release()
                if next_release is not None and next_release > self.now + _EPS:
                    self.now = next_release
                    continue
                raise SimulationError(
                    "internal error: eligible threads could not be placed "
                    "on an idle platform"
                )
            if self._blocked:
                raise DeadlockError(self._blocked)
            break
        self._flush_final_slice()
        self._finished = True

    def result(self) -> SimulationResult:
        """Statistics of a completed (or ``until``-stopped) simulation."""
        if not self._finished:
            raise SimulationError(
                "simulation has not finished; drain steps() or call run()"
            )
        return build_result(self)

    # -- scheduling (Fig. 2 lines 2-7) --------------------------------------

    def _fill_processors(self) -> None:
        # A thread advanced on a later processor can wake threads (via
        # sync events) that only fit an earlier processor, so iterate to
        # a fixpoint rather than making a single pass.
        scheduler = self.scheduler
        # The base-class ready list backs has_waiting(); testing it
        # directly skips a method call on the per-commit common case
        # (every thread in flight).  Schedulers built outside the
        # ExecutionScheduler hierarchy fall back to the method.
        ready = getattr(scheduler, "_ready", None)
        has_waiting = scheduler.has_waiting if ready is None else None
        placed = 1
        while placed:
            # pick() cannot succeed with an empty ready set.
            if ready is not None:
                if not ready:
                    return
            elif not has_waiting():
                return
            placed = 0
            for processor in self.processors:
                while processor._current_region is None:  # inline .available
                    thread = scheduler.pick(processor, self.now)
                    if thread is None:
                        break
                    placed += 1
                    self._advance_thread(thread, processor)

    def _advance_thread(self, thread: LogicalThread,
                        processor: Processor) -> None:
        """Run a thread's body in zero time until it yields an annotation.

        Synchronization events are resolved inline; the method returns when
        the thread starts a region, blocks, or finishes.
        """
        thread.state = ThreadState.RUNNING
        self._waking_thread = thread
        try:
            while True:
                event = thread.next_event()
                if event is None:
                    thread.state = ThreadState.DONE
                    thread.finish_time = self.now
                    self._flush_pending_wakes(thread)
                    return
                # Exact-type checks cover the built-in event classes
                # without an isinstance chain; subclasses fall through
                # to the isinstance slow path below.
                cls = event.__class__
                if cls is Consume:
                    self._start_region(thread, processor, event)
                    return
                if cls is Spawn:
                    self.add_thread(event.thread, start_time=self.now)
                    continue
                if cls not in _SYNC_DISPATCH:
                    if isinstance(event, Consume):
                        self._start_region(thread, processor, event)
                        return
                    if isinstance(event, Spawn):
                        self.add_thread(event.thread, start_time=self.now)
                        continue
                if not self._handle_sync(thread, event):
                    # Blocked and shelved; any wakes it performed cannot
                    # attach to a future region of its own.
                    self._flush_pending_wakes(thread)
                    return
        finally:
            self._waking_thread = None

    def _start_region(self, thread: LogicalThread, processor: Processor,
                      annotation: Consume) -> None:
        known = self.us.resources
        for resource_name in annotation.accesses:
            if resource_name not in known:
                raise ConfigurationError(
                    f"thread {thread.name!r} consumed accesses to unknown "
                    f"shared resource {resource_name!r}"
                )
        self._seq += 1
        # Inline of thread.take_carry_penalty() on the region hot path.
        carried = thread.carry_penalty
        thread.carry_penalty = 0.0
        region = AnnotationRegion(
            thread, processor, annotation.complexity,
            annotation.accesses, self.now, carried, self._seq,
            annotation.extra_time, annotation.burst,
        )
        if self._pending_wakes:
            pending = self._pending_wakes.pop(thread.name, None)
            if pending:
                region.deferred_wakes = pending
        processor._current_region = region
        self._inflight[thread.name] = region
        self._queue.push(region)
        self.us.register(region)
        if self.trace is not None:
            self.trace.record("start", self.now, thread.name,
                              processor.name,
                              complexity=annotation.complexity)

    # -- committing (Fig. 2 lines 8-14) -------------------------------------

    def _pop_with_penalties(self) -> AnnotationRegion:
        """Pop the earliest region, lazily folding pending penalties."""
        queue = self._queue
        trace = self.trace
        while True:
            region = queue.pop()
            if region.pending_penalty > _EPS:
                amount = region.apply_pending_penalty()
                if trace is not None:
                    trace.record("penalty", region.end_time,
                                 region.thread.name,
                                 region.processor.name, amount=amount,
                                 lazy=True)
                queue.push(region)
                continue
            region.pending_penalty = 0.0
            return region

    def _commit(self, region: AnnotationRegion) -> None:
        t_i = region.end_time
        if t_i < self.now - _EPS:
            raise SimulationError(
                f"non-monotonic commit: {t_i} < {self.now}"
            )
        if t_i > self.now:
            self.now = t_i
        # Post-access arbitration over the just-closed slice (lines 15-16).
        us = self.us
        us.advance(self.now, self._queue, region)
        penalties = us.analyze(self._priorities)
        if penalties:
            if self.trace is not None:
                self.trace.record("slice", self.now,
                                  detail_penalties=dict(penalties))
            if self._distribute_penalties(penalties, region):
                return
        self._finalize_region(region)

    def _distribute_penalties(self, penalties: Dict[str, float],
                              committed: AnnotationRegion) -> bool:
        """Assign model penalties (Fig. 2 lines 16-18).

        Returns ``True`` when the committed region itself was penalized
        and therefore re-inserted instead of finalized.
        """
        reinserted = False
        by_name = self._by_name
        inflight_get = self._inflight.get
        committed_thread = committed.thread
        for thread_name, penalty in penalties.items():
            thread = by_name[thread_name]
            thread.total_penalty += penalty
            if thread is committed_thread:
                committed.add_penalty(penalty)
                committed.apply_pending_penalty()
                self._queue.push(committed)
                reinserted = True
                if self.trace is not None:
                    self.trace.record("penalty", committed.end_time,
                                      thread_name,
                                      committed.processor.name,
                                      amount=penalty, lazy=False)
            else:
                target = inflight_get(thread_name)
                if target is not None:
                    # Inline of region.add_penalty(); the model's output
                    # was already validated non-negative.
                    target.pending_penalty += penalty
                else:
                    thread.carry_penalty += penalty
        return reinserted

    def _finalize_region(self, region: AnnotationRegion) -> None:
        region.committed = True
        thread = region.thread
        processor = region.processor
        thread.total_base_time += region.base_duration
        thread.regions_committed += 1
        processor.busy_time += region.end_time - region.base_start
        processor.regions_executed += 1
        processor._current_region = None
        self.regions_committed += 1
        self._inflight.pop(thread.name, None)
        if self.trace is not None:
            self.trace.record("commit", region.end_time, thread.name,
                              processor.name, base_end=region.base_end)
        thread.state = ThreadState.READY
        thread.release_time = region.end_time
        self.scheduler.add(thread)
        if region.deferred_wakes:
            # Deferred sync policy: waiters resume at the committed end
            # of the unblocking thread's region (paper's pessimism).
            for waiter in region.deferred_wakes:
                self._release_thread(waiter, region.end_time)
            region.deferred_wakes = None

    # -- synchronization -----------------------------------------------------

    def _handle_sync(self, thread: LogicalThread, event) -> bool:
        """Resolve a sync event in zero time.

        Returns ``True`` when the thread may continue, ``False`` when it
        blocked and was shelved.  Dispatch is keyed on the event's exact
        type; subclasses of the built-in events take the isinstance
        fallback.
        """
        handler = _SYNC_DISPATCH.get(event.__class__)
        if handler is None:
            return self._handle_sync_fallback(thread, event)
        return handler(self, thread, event)

    def _handle_sync_fallback(self, thread: LogicalThread, event) -> bool:
        """isinstance-based dispatch for subclasses of built-in events."""
        for event_type, handler in _SYNC_DISPATCH.items():
            if isinstance(event, event_type):
                return handler(self, thread, event)
        raise ProtocolError(
            f"thread {thread.name!r} yielded unsupported event "
            f"{type(event).__name__}"
        )

    def _sync_acquire(self, thread: LogicalThread, event) -> bool:
        if event.mutex.try_acquire(thread):
            return True
        event.mutex.enqueue(thread)
        return self._shelve(thread, on=event.mutex)

    def _sync_release(self, thread: LogicalThread, event) -> bool:
        woken = event.mutex.release(thread)
        if woken is not None:
            self._wake(woken)
        return True

    def _sync_sem_acquire(self, thread: LogicalThread, event) -> bool:
        if event.semaphore.try_acquire(thread):
            return True
        event.semaphore.enqueue(thread)
        return self._shelve(thread, on=event.semaphore)

    def _sync_sem_release(self, thread: LogicalThread, event) -> bool:
        woken = event.semaphore.release()
        if woken is not None:
            self._wake(woken)
        return True

    def _sync_cond_wait(self, thread: LogicalThread, event) -> bool:
        if event.mutex.owner is not thread:
            from .errors import SynchronizationError

            raise SynchronizationError(
                f"thread {thread.name!r} waited on condition "
                f"{event.cond.name!r} without holding mutex "
                f"{event.mutex.name!r}"
            )
        next_owner = event.mutex.release(thread)
        if next_owner is not None:
            self._wake(next_owner)
        event.cond.enqueue(thread, event.mutex)
        return self._shelve(thread, on=event.cond)

    def _sync_cond_notify(self, thread: LogicalThread, event) -> bool:
        for waiter, mutex in event.cond.pop_waiters(event.all):
            if mutex.try_acquire(waiter):
                self._wake(waiter)
            else:
                mutex.enqueue(waiter)  # stays blocked, now on the mutex
                waiter.blocked_on = mutex
        return True

    def _sync_barrier_wait(self, thread: LogicalThread, event) -> bool:
        woken = event.barrier.arrive(thread)
        if woken is None:
            return self._shelve(thread, on=event.barrier)
        for waiter in woken:
            self._wake(waiter)
        return True

    def _shelve(self, thread: LogicalThread, on=None) -> bool:
        """Park a thread on a primitive; its processor stays available.

        ``on`` is the synchronization primitive the thread waits for,
        recorded for deadlock wait-for reporting.
        """
        thread.state = ThreadState.BLOCKED
        thread.blocked_on = on
        self._blocked.add(thread)
        if self.trace is not None:
            self.trace.record("block", self.now, thread.name)
        return False

    def _wake(self, thread: LogicalThread) -> None:
        """Unblock a shelved thread.

        Under the eager policy the thread is released at the current
        (exact unblocking) time; under the deferred policy it stays
        parked until the unblocking thread's next region commits.
        """
        waker = self._waking_thread
        if self.sync_policy == "deferred" and waker is not None:
            self._pending_wakes.setdefault(waker.name, []).append(thread)
            if self.trace is not None:
                self.trace.record("wake-deferred", self.now, thread.name,
                                  waker=waker.name)
            return
        self._release_thread(thread, self.now)

    def _release_thread(self, thread: LogicalThread,
                        release_time: float) -> None:
        """Make an unblocked thread schedulable at ``release_time``."""
        self._blocked.discard(thread)
        thread.blocked_on = None
        thread.state = ThreadState.READY
        thread.release_time = max(thread.release_time, release_time)
        self.scheduler.add(thread)
        if self.trace is not None:
            self.trace.record("wake", release_time, thread.name)

    def _flush_pending_wakes(self, thread: LogicalThread) -> None:
        """Release wakes that cannot attach to a future region.

        Called when the waking thread finishes or itself blocks: the
        deferred policy falls back to the exact wake time.
        """
        pending = self._pending_wakes.pop(thread.name, None)
        if pending:
            for waiter in pending:
                self._release_thread(waiter, self.now)

    # -- shutdown ------------------------------------------------------------

    def _flush_final_slice(self) -> None:
        """Analyze whatever demand the min-timeslice knob still holds."""
        self.us.advance(self.now, self._queue)
        penalties = self.us.analyze(self._priorities, force=True)
        for thread_name, penalty in penalties.items():
            # Simulation is over: count the queueing estimate but do not
            # extend any end time.
            self._by_name[thread_name].total_penalty += penalty


# Exact-type sync dispatch table; insertion order mirrors the original
# isinstance chain so the subclass fallback resolves identically.
_SYNC_DISPATCH = {
    Acquire: HybridKernel._sync_acquire,
    Release: HybridKernel._sync_release,
    SemAcquire: HybridKernel._sync_sem_acquire,
    SemRelease: HybridKernel._sync_sem_release,
    CondWait: HybridKernel._sync_cond_wait,
    CondNotify: HybridKernel._sync_cond_notify,
    BarrierWait: HybridKernel._sync_barrier_wait,
}
