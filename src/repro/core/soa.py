"""Structure-of-arrays execution engine for the Fig. 2 commit loop.

:func:`run_program` executes a compiled :class:`~repro.core.compile.
SoAProgram` — the paper's priority-queue commit loop (schedule, pop the
earliest end time, close the timeslice, fold analytical penalties) over
parallel scalar arrays instead of ``AnnotationRegion`` / generator
objects.  Per committed region the object engine resumes a generator,
validates and copies a ``Consume`` event, allocates a region, and walks
a web of attribute loads; here every region is a pre-lowered row of
scalars indexed by its processor slot, so the loop touches only local
lists, tuples, and dicts.

Bit-identity with the object engine is a construction invariant, not an
aspiration; the correspondence rests on three structural facts:

* **Slot = processor.**  Each processor holds at most one in-flight
  region (the popped-for-commit region still occupies its processor
  until finalized), so region state lives in parallel lists indexed by
  processor — no allocation, no retirement bookkeeping.
* **Mirror heap.**  The commit queue is a ``heapq`` of ``(end_time,
  count, slot)`` scalar tuples built by the exact push/pop sequence of
  :class:`~repro.core.pqueue.RegionQueue`.  Compiled runs never shelve
  a region — synchronization in the widened subset blocks threads only
  *between* regions, never mid-flight — so the object queue holds zero
  stale entries and never compacts; both heap arrays evolve through
  identical sift operations and share one layout.  The slice-collection
  walk iterates that array in place, which reproduces the object
  engine's first-touch order, the only order that matters for float-sum identity downstream (each
  thread has at most one in-flight region, so any one window receives
  at most one contribution per (resource, thread) cell).
* **Same scalar ops.**  Every float expression — overlap fractions,
  demand accumulation, penalty folds, the analyze window bookkeeping —
  is transcribed from ``kernel.py`` / ``us.py`` operation for
  operation, including the epsilon thresholds (1e-9 kernel, 1e-12 US)
  and in-check vs ``.get``-based dict accumulation per code path.

Static region durations are resolved at compile time; the runtime loop
is pure Python over native scalars, which beats array dispatch at the
in-flight set sizes this kernel sees (one region per processor).  Each
step of the loop has one path: processors fill from the per-thread op
streams, and every demanding resource's model is called through
:class:`~repro.contention.base.SliceDemand` + ``model.penalties()``
once per analyzed window, so guarded chains, priority models, and user
subclasses observe exactly the calls the object engine would make.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict

from ..contention.base import SliceDemand
from .errors import SimulationError
from .stats import SimulationResult, build_result
from .thread import ThreadState
from .us import _check_penalties

#: Shared read-only stand-ins mirroring the us-module singletons: an
#: empty mean-service map for burst-free windows and an empty priority
#: map for models with ``uses_priorities = False``.  Never mutated.
_EMPTY_MEAN: Dict[str, float] = {}
_EMPTY_PRIORITIES: Dict[str, int] = {}


def run_program(kernel, program) -> SimulationResult:
    """Run a compiled program to completion on its kernel.

    Mutates the kernel's thread/processor/resource objects with the
    final statistics (exactly the values the object engine would have
    accumulated in place) and assembles the result through the shared
    :func:`~repro.core.stats.build_result` path.
    """
    us = kernel.us
    threads = kernel.threads
    processors = kernel.processors
    resources = kernel.shared_resources
    priorities = kernel._priorities

    nprocs = len(processors)
    nres = len(resources)

    # -- immutable program views ----------------------------------------
    tname = program.thread_names
    taff = [-1 if a is None else a for a in program.thread_affinity]
    tops = program.thread_ops
    ocount = [len(ops) for ops in tops]
    tdurs = program.region_durations
    tcomp = program.region_complexity
    textra = program.region_extra
    tacc = program.region_accesses
    tburst = program.region_bursts
    tindex = {name: t for t, name in enumerate(tname)}
    powers = program.processor_powers
    r_names = program.resource_names
    service = program.resource_service
    ports = program.resource_ports
    models = program.resource_models
    uses_prio = program.resource_uses_priorities
    min_timeslice = us.min_timeslice

    # -- mutable thread state (seeded from the live objects, so the
    # engine accumulates on whatever the kernel assembly left there,
    # exactly as the object engine's in-place ``+=`` would) -------------
    t_release = [thread.release_time for thread in threads]
    t_carry = [thread.carry_penalty for thread in threads]
    t_penalty = [thread.total_penalty for thread in threads]
    t_base = [thread.total_base_time for thread in threads]
    t_regions = [thread.regions_committed for thread in threads]
    t_finish = [thread.finish_time for thread in threads]
    t_next = [0] * len(threads)
    inflight = [-1] * len(threads)

    # -- in-flight region state, one slot per processor ------------------
    free = [True] * nprocs
    #: Count of ``True`` entries in ``free`` — lets the fill fixpoint
    #: stop the moment the platform is saturated instead of re-scanning
    #: every processor to discover nothing can be placed.
    nfree = nprocs
    r_thread = [-1] * nprocs
    r_base_start = [0.0] * nprocs
    r_base_end = [0.0] * nprocs
    r_end = [0.0] * nprocs
    r_pending = [0.0] * nprocs
    r_acc = [()] * nprocs
    r_burst = [None] * nprocs
    r_usdone = [True] * nprocs
    p_busy = [processor.busy_time for processor in processors]
    p_regions = [processor.regions_executed for processor in processors]

    # -- resource statistics / analysis window ---------------------------
    res_accesses = [resource.total_accesses for resource in resources]
    res_penalty = [resource.total_penalty for resource in resources]
    res_slices = [resource.active_slices for resource in resources]
    res_by_thread = [resource.penalty_by_thread for resource in resources]
    window_start = us.window_start
    collected_upto = us.collected_upto
    slices_analyzed = us.slices_analyzed
    slices_merged = us.slices_merged
    demand = [{} for _ in range(nres)]
    units_map = [None] * nres
    #: In-flight regions not yet fully collected (``r_usdone`` False).
    #: Zero means the collection walk has nothing to visit — the
    #: pure-compute stretches the commit loop fast-forwards through.
    n_active = 0

    heap = []
    counter = 0
    ready = list(range(len(threads)))
    now = kernel.now
    regions_committed = kernel.regions_committed

    def analyze_window(start_w, end_w):
        """Evaluate every demanding resource's model over the window.

        The per-resource loop of ``SharedResourceScheduler.analyze``
        inlined with ``_build_slice`` + ``_finish_resource``, healthy
        branch only — fault plans and memo caches never compile.
        """
        nonlocal window_start, slices_analyzed
        totals = {}
        for ridx in range(nres):
            demands = demand[ridx]
            if not demands:
                continue
            units = units_map[ridx]
            if units is not None:
                mean_service = {}
                stime = service[ridx]
                for tn, count in demands.items():
                    if count <= 0:
                        continue
                    beats = units.get(tn, count)
                    if abs(beats - count) > 1e-12 * max(1.0, abs(count)):
                        mean_service[tn] = stime * beats / count
            else:
                mean_service = _EMPTY_MEAN
            if not uses_prio[ridx]:
                trimmed = _EMPTY_PRIORITIES
            elif priorities.keys() <= demands.keys():
                trimmed = priorities
            else:
                trimmed = {tn: priorities[tn] for tn in demands
                           if tn in priorities}
            penalties = models[ridx].penalties(SliceDemand(
                start_w, end_w, service[ridx], demands, trimmed,
                ports[ridx], mean_service))
            accesses = sum(demands.values())
            res_accesses[ridx] += accesses
            if accesses > 0:
                res_slices[ridx] += 1
            if penalties:
                rtotal = res_penalty[ridx]
                by_thread = res_by_thread[ridx]
                for tn, pen in penalties.items():
                    if tn not in demands or not (pen >= 0.0):
                        _check_penalties(penalties, demands,
                                         resources[ridx])
                    if pen > 0:
                        if tn in totals:
                            totals[tn] = totals[tn] + pen
                        else:
                            totals[tn] = pen
                    rtotal += pen
                    if tn in by_thread:
                        by_thread[tn] = by_thread[tn] + pen
                    else:
                        by_thread[tn] = pen
                res_penalty[ridx] = rtotal
            demand[ridx] = {}
            units_map[ridx] = None
        window_start = end_w
        slices_analyzed += 1
        return totals

    # -- synchronization state (the widened compiled subset) -------------
    # Live Barrier / Mutex objects were validated clean at compile time;
    # the replay tracks their state in parallel int lists and writes the
    # observable counters (generation, contended_acquires) back as
    # deltas after the run.  A sync-free program leaves them empty.
    bar_parties = program.barrier_parties
    bar_arrived = [[] for _ in program.barriers]
    bar_generations = [0] * len(program.barriers)
    mux_owner = [-1] * len(program.mutexes)
    mux_waiters = [[] for _ in program.mutexes]
    mux_contended = [0] * len(program.mutexes)
    blocked = 0

    while True:
        # -- scheduling (Fig. 2 lines 2-7): fixpoint fill ----------------
        # Each pick advances the thread through its ``(opcode, arg)``
        # stream in zero time — sync ops resolve inline (the object
        # engine's _advance_thread loop) until the thread places a
        # region, blocks, or exhausts.  A blocked or exhausted pick
        # leaves the processor free, so the inner scan retries it
        # against the remaining ready set, exactly like the object fill.
        placed = True
        deadline = now + 1e-9
        while placed and ready and nfree:
            placed = False
            for p in range(nprocs):
                while free[p]:
                    picked = -1
                    for i, t in enumerate(ready):
                        a = taff[t]
                        if t_release[t] <= deadline and (a < 0 or a == p):
                            del ready[i]
                            picked = t
                            break
                    if picked < 0:
                        break
                    placed = True
                    ops = tops[picked]
                    nops = ocount[picked]
                    while True:
                        idx = t_next[picked]
                        if idx >= nops:
                            # Stream exhausted, exactly where the object
                            # engine's generator would raise
                            # StopIteration.
                            t_finish[picked] = now
                            break
                        opcode, arg = ops[idx]
                        t_next[picked] = idx + 1
                        if opcode == 0:  # OP_REGION
                            carried = t_carry[picked]
                            t_carry[picked] = 0.0
                            durs = tdurs[picked]
                            duration = (
                                durs[arg] if durs is not None
                                else tcomp[picked][arg] / powers[p]
                                + textra[picked][arg])
                            bend = now + duration
                            end = bend + carried
                            r_thread[p] = picked
                            r_base_start[p] = now
                            r_base_end[p] = bend
                            r_end[p] = end
                            r_pending[p] = 0.0
                            acc = tacc[picked][arg]
                            r_acc[p] = acc
                            r_burst[p] = tburst[picked][arg]
                            if acc:
                                r_usdone[p] = False
                                n_active += 1
                            else:
                                r_usdone[p] = True
                            free[p] = False
                            nfree -= 1
                            inflight[picked] = p
                            counter += 1
                            heappush(heap, (end, counter, p))
                            break
                        if opcode == 1:  # OP_BARRIER
                            arrived = bar_arrived[arg]
                            arrived.append(picked)
                            if len(arrived) < bar_parties[arg]:
                                blocked += 1
                                break
                            # Last arriver: wake the waiters in arrival
                            # order (the object engine's max(release,
                            # now) + ready append), then continue this
                            # stream in zero time on the same processor.
                            for w in arrived:
                                if w != picked:
                                    if now > t_release[w]:
                                        t_release[w] = now
                                    ready.append(w)
                            blocked -= len(arrived) - 1
                            bar_arrived[arg] = []
                            bar_generations[arg] += 1
                            continue
                        if opcode == 2:  # OP_ACQUIRE
                            if mux_owner[arg] < 0:
                                mux_owner[arg] = picked
                                continue
                            # Contended: count first, then queue —
                            # Mutex.enqueue order.
                            mux_contended[arg] += 1
                            mux_waiters[arg].append(picked)
                            blocked += 1
                            break
                        # OP_RELEASE: hand off FIFO, waking the new
                        # owner; the releaser keeps running.
                        waiters = mux_waiters[arg]
                        if waiters:
                            w = waiters.pop(0)
                            mux_owner[arg] = w
                            if now > t_release[w]:
                                t_release[w] = now
                            ready.append(w)
                            blocked -= 1
                        else:
                            mux_owner[arg] = -1
                        continue

        if heap:
            # -- pop the earliest end, folding pending penalty lazily ----
            while True:
                _end, _cnt, cp = heappop(heap)
                pend = r_pending[cp]
                if pend > 1e-9:
                    r_end[cp] = r_end[cp] + pend
                    r_pending[cp] = 0.0
                    counter += 1
                    heappush(heap, (r_end[cp], counter, cp))
                    continue
                r_pending[cp] = 0.0
                break

            # -- commit: advance time, close the slice -------------------
            t_i = r_end[cp]
            if t_i < now - 1e-9:
                raise SimulationError(
                    f"non-monotonic commit: {t_i} < {now}"
                )
            if t_i > now:
                now = t_i

            # Collection walk over the heap array in place (the object
            # engine's us.advance over queue._heap), then the popped
            # tail, mirroring us._contribute.  ``n_active == 0`` means
            # every in-flight region is already fully collected, so the
            # walk would visit nothing — skip it wholesale (this is the
            # fast-forward through pure-compute stretches).
            if n_active:
                start = collected_upto
                for _e, _c, p in heap:
                    if r_usdone[p]:
                        continue
                    base_start = r_base_start[p]
                    base_end = r_base_end[p]
                    duration = base_end - base_start
                    if duration <= 1e-12:
                        if start - 1e-12 <= base_start <= now + 1e-12:
                            r_usdone[p] = True
                            n_active -= 1
                            fraction = 1.0
                        else:
                            if base_start < start - 1e-12:
                                r_usdone[p] = True
                                n_active -= 1
                            continue
                    else:
                        lo = start if start > base_start else base_start
                        hi = now if now < base_end else base_end
                        if base_end <= now:
                            r_usdone[p] = True
                            n_active -= 1
                        if hi <= lo:
                            continue
                        fraction = (hi - lo) / duration
                    tn = tname[r_thread[p]]
                    burst = r_burst[p]
                    for ridx, count in r_acc[p]:
                        per_thread = demand[ridx]
                        value = count * fraction
                        units = units_map[ridx]
                        if burst is not None:
                            beat = burst.get(ridx, 1.0)
                            if units is None and beat != 1.0:
                                units = dict(per_thread)
                                units_map[ridx] = units
                        else:
                            beat = 1.0
                        if tn in per_thread:
                            per_thread[tn] = per_thread[tn] + value
                        else:
                            per_thread[tn] = value
                        if units is not None:
                            units[tn] = units.get(tn, 0.0) + value * beat
                if not r_usdone[cp]:
                    base_start = r_base_start[cp]
                    base_end = r_base_end[cp]
                    duration = base_end - base_start
                    fraction = 0.0
                    if duration <= 1e-12:
                        if start - 1e-12 <= base_start <= now + 1e-12:
                            r_usdone[cp] = True
                            n_active -= 1
                            fraction = 1.0
                        elif base_start < start - 1e-12:
                            r_usdone[cp] = True
                            n_active -= 1
                    else:
                        lo = start if start > base_start else base_start
                        hi = now if now < base_end else base_end
                        if base_end <= now:
                            r_usdone[cp] = True
                            n_active -= 1
                        if hi > lo:
                            fraction = (hi - lo) / duration
                    if fraction:
                        tn = tname[r_thread[cp]]
                        burst = r_burst[cp]
                        for ridx, count in r_acc[cp]:
                            per_thread = demand[ridx]
                            value = count * fraction
                            beat = (burst.get(ridx, 1.0)
                                    if burst is not None else 1.0)
                            units = units_map[ridx]
                            if units is None and beat != 1.0:
                                units = dict(per_thread)
                                units_map[ridx] = units
                            per_thread[tn] = per_thread.get(tn, 0.0) + value
                            if units is not None:
                                units[tn] = (units.get(tn, 0.0)
                                             + value * beat)
            if now > collected_upto:
                collected_upto = now

            # -- analysis (the inline early exits of us.analyze) ---------
            width = collected_upto - window_start
            if min_timeslice and width + 1e-12 < min_timeslice:
                if width > 1e-12:
                    slices_merged += 1
                totals = None
            elif width <= 1e-12 and not any(demand):
                totals = None
            else:
                totals = analyze_window(window_start, collected_upto)

            # -- penalty distribution (Fig. 2 lines 16-18) ---------------
            if totals:
                reinserted = False
                ct = r_thread[cp]
                for tn, pen in totals.items():
                    t = tindex[tn]
                    t_penalty[t] += pen
                    if t == ct:
                        r_pending[cp] += pen
                        amount = r_pending[cp]
                        if amount:
                            r_end[cp] += amount
                            r_pending[cp] = 0.0
                        counter += 1
                        heappush(heap, (r_end[cp], counter, cp))
                        reinserted = True
                    else:
                        p2 = inflight[t]
                        if p2 >= 0:
                            r_pending[p2] += pen
                        else:
                            t_carry[t] += pen
                if reinserted:
                    continue

            # -- retirement ----------------------------------------------
            t = r_thread[cp]
            t_base[t] += r_base_end[cp] - r_base_start[cp]
            t_regions[t] += 1
            p_busy[cp] += r_end[cp] - r_base_start[cp]
            p_regions[cp] += 1
            free[cp] = True
            nfree += 1
            regions_committed += 1
            inflight[t] = -1
            t_release[t] = r_end[cp]
            ready.append(t)
            continue

        # No in-flight regions: idle-jump to the next release, or done.
        if ready:
            next_release = t_release[ready[0]]
            for t in ready:
                release = t_release[t]
                if release < next_release:
                    next_release = release
            if next_release > now + 1e-9:
                now = next_release
                continue
            raise SimulationError(
                "internal error: eligible threads could not be placed "
                "on an idle platform"
            )
        if blocked:
            # Statically unreachable: compile-time validation proves
            # aligned barriers and balanced non-nested mutexes cannot
            # deadlock.  Guard anyway rather than silently dropping
            # threads.
            raise SimulationError(
                f"internal error: {blocked} thread(s) still blocked on "
                f"a compiled sync primitive at termination"
            )
        break

    # -- final flush: whatever the min-timeslice knob still holds --------
    if now > collected_upto:
        collected_upto = now
    width = collected_upto - window_start
    if not (width <= 1e-12 and not any(demand)):
        # Simulation is over: count the queueing estimate but do not
        # extend any end time.
        totals = analyze_window(window_start, collected_upto)
        for tn, pen in totals.items():
            t_penalty[tindex[tn]] += pen

    # -- write the accumulated statistics back onto the live objects ----
    kernel.now = now
    kernel.regions_committed = regions_committed
    us.window_start = window_start
    us.collected_upto = collected_upto
    us.slices_analyzed = slices_analyzed
    us.slices_merged = slices_merged
    us.regions_registered += program.registered_regions
    for ridx, name in enumerate(r_names):
        us._window_demand[name] = demand[ridx]
        us._window_units[name] = units_map[ridx]
    for t, thread in enumerate(threads):
        thread.total_base_time = t_base[t]
        thread.total_penalty = t_penalty[t]
        thread.regions_committed = t_regions[t]
        thread.finish_time = t_finish[t]
        thread.release_time = t_release[t]
        thread.carry_penalty = t_carry[t]
        thread.state = ThreadState.DONE
    for p, processor in enumerate(processors):
        processor.busy_time = p_busy[p]
        processor.regions_executed = p_regions[p]
    for ridx, resource in enumerate(resources):
        resource.total_accesses = res_accesses[ridx]
        resource.total_penalty = res_penalty[ridx]
        resource.active_slices = res_slices[ridx]
        # penalty_by_thread was accumulated in place on the resource.
    # Observable sync counters accumulate as deltas on the live
    # primitives (arrived/waiters drained by construction — the run
    # cannot end with a blocked thread).
    for bidx, barrier in enumerate(program.barriers):
        barrier.generation += bar_generations[bidx]
    for midx, mutex in enumerate(program.mutexes):
        mutex.contended_acquires += mux_contended[midx]
    kernel._finished = True
    return build_result(kernel)
