"""Shared-resource schedulers (the paper's US layer).

Where an execution scheduler (UE) arbitrates *before* a processor is
granted, the shared-resource scheduler performs **post-access
arbitration**: simulation first proceeds as if shared resources were
uncontended, then — each time the kernel commits a region end and closes a
timeslice — the US scheduler gathers every access that fell inside the
slice, hands the per-thread demand of each shared resource to that
resource's analytical model, and returns the resulting time penalties.
:meth:`SharedResourceScheduler.analyze` is one loop: for each resource
with demand in the window, in resource order, it builds the
:class:`~repro.contention.base.SliceDemand`, consults the optional memo
cache, calls the model's ``penalties()`` once, and folds the result in.

Accounting is **incremental**: the kernel registers each region's access
contribution once, when the region starts (:meth:`SharedResourceScheduler.
register`), and every commit advances the collection horizon
(:meth:`SharedResourceScheduler.advance`) over only the registered
regions whose base span still overlaps the open window.  A region whose
base span has been fully consumed is retired from the active set and
never rescanned — a heavily penalized region that lingers in the commit
queue costs nothing here.  The full-rescan entry point
(:meth:`SharedResourceScheduler.collect`) states the proportional-overlap
rule plainly and is retained as the reference implementation; the
equivalence suite proves it bit-identical to :meth:`advance`.

The scheduler also implements the paper's *minimum timeslice* optimization
(section 4.3): slices narrower than ``min_timeslice`` are not analyzed
immediately; their accesses accumulate and are analyzed together with the
next sufficiently large slice, trading a little accuracy for fewer model
evaluations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from ..contention.base import SliceDemand
from .region import AnnotationRegion
from .shared import SharedResource

_EPS = 1e-12

#: Shared read-only stand-in for "no heterogeneous service times";
#: handed to every SliceDemand whose window saw no burst contribution.
_EMPTY_MEAN: Dict[str, float] = {}

#: Shared read-only priority mapping for models that never consult
#: priorities (``ContentionModel.uses_priorities`` is false).
_EMPTY_PRIORITIES: Dict[str, int] = {}


class SharedResourceScheduler:
    """Groups accesses per timeslice and applies analytical models.

    With a ``fault_plan`` (see :mod:`repro.robustness.faults`), each
    analyzed slice first consults the plan: degraded service times,
    reduced ports, and retry traffic from injected access failures are
    folded into the :class:`~repro.contention.base.SliceDemand` handed
    to the model, and retry backoff delays become direct penalties on
    the issuing threads.  Without a plan (or when no window overlaps
    the slice) the healthy path is untouched, bit for bit.
    """

    def __init__(self, resources: Iterable[SharedResource],
                 min_timeslice: float = 0.0,
                 fault_plan=None,
                 memo=None):
        if not min_timeslice >= 0:  # also rejects NaN
            raise ValueError(
                f"min_timeslice must be >= 0, got {min_timeslice!r}"
            )
        self.resources: Dict[str, SharedResource] = {
            r.name: r for r in resources
        }
        # Stable (name, resource) pairs for the per-slice analyze loop;
        # the resource set is fixed for the scheduler's lifetime.
        self._resource_items = list(self.resources.items())
        self.fault_plan = fault_plan
        #: Optional :class:`~repro.perf.memo.SliceMemoCache` consulted
        #: before each model call; models that are not ``memo_safe``
        #: (or carry un-keyable state) always see real calls.
        self.memo = memo
        self.min_timeslice = float(min_timeslice)
        #: Left edge of the (possibly accumulated) analysis window.
        self.window_start = 0.0
        #: Time up to which accesses have been collected into the window.
        self.collected_upto = 0.0
        # resource name -> thread name -> transactions in the window
        self._window_demand: Dict[str, Dict[str, float]] = {
            name: {} for name in self.resources
        }
        # resource name -> thread name -> service-unit beats.  Lazily
        # materialized: ``None`` until the window's first multi-beat
        # (burst) contribution arrives; until then beats equal the
        # transaction counts bit for bit, so the demand map stands in.
        self._window_units: Dict[str, Optional[Dict[str, float]]] = {
            name: None for name in self.resources
        }
        # --- statistics -------------------------------------------------
        #: Number of analytical evaluations actually performed.
        self.slices_analyzed = 0
        #: Number of undersized slices merged into a later window.
        self.slices_merged = 0
        #: Regions with accesses registered for incremental collection.
        self.regions_registered = 0

    # -- collection ------------------------------------------------------

    def register(self, region: AnnotationRegion) -> None:
        """Register a just-started region for incremental collection.

        Called once per region by the kernel when the region starts.
        Regions without accesses never contribute demand: they are
        retired immediately so every later :meth:`advance` skips them
        with a single attribute check.
        """
        if region.accesses:
            self.regions_registered += 1
        else:
            region.us_done = True

    def advance(self, upto: float, queue=None,
                tail: Optional[AnnotationRegion] = None) -> None:
        """Attribute registered accesses in ``[collected_upto, upto]``.

        The incremental counterpart of :meth:`collect`.  ``queue`` is
        the kernel's :class:`~repro.core.pqueue.RegionQueue`; its heap
        array is walked in place — the exact order a :meth:`collect`
        rescan of the queue sees, which keeps every order-dependent
        float accumulation downstream bit-identical — but without
        snapshotting a region list, and with regions whose base span is
        already fully collected (``us_done``) dismissed by one flag
        test instead of re-deriving an empty overlap every commit.  ``tail`` is the
        region just popped for commit (no longer in the queue),
        processed last to mirror the rescan's ``live.append(region)``.
        """
        start = self.collected_upto
        if upto < start - _EPS:
            raise ValueError(
                f"collect() must move forward: {upto} < {start}"
            )
        if queue is not None:
            demand_map = self._window_demand
            units_map = self._window_units
            for _end, count_tag, region in queue._heap:
                if region.us_done or region.queue_tag != count_tag:
                    continue
                # Inline of _contribute() — this loop is the kernel's
                # single hottest path; float ops and their order match
                # _contribute()/_accumulate() exactly.
                base_start = region.base_start
                base_end = region.base_end
                duration = base_end - base_start
                if duration <= _EPS:
                    if start - _EPS <= base_start <= upto + _EPS:
                        region.zero_collected = True
                        region.us_done = True
                        fraction = 1.0
                    else:
                        if base_start < start - _EPS:
                            region.us_done = True
                        continue
                else:
                    lo = start if start > base_start else base_start
                    hi = upto if upto < base_end else base_end
                    if base_end <= upto:
                        region.us_done = True
                    if hi <= lo:
                        continue
                    fraction = (hi - lo) / duration
                thread_name = region.thread_name
                burst = region.burst
                for resource_name, count in region.accesses.items():
                    per_thread = demand_map.get(resource_name)
                    if per_thread is None:
                        from .errors import ConfigurationError

                        raise ConfigurationError(
                            f"thread {thread_name!r} accessed unknown "
                            f"shared resource {resource_name!r}"
                        )
                    value = count * fraction
                    units = units_map[resource_name]
                    if burst:
                        beat_factor = burst.get(resource_name, 1.0)
                        if units is None and beat_factor != 1.0:
                            units = dict(per_thread)
                            units_map[resource_name] = units
                    else:
                        beat_factor = 1.0
                    if thread_name in per_thread:
                        per_thread[thread_name] = (
                            per_thread[thread_name] + value)
                    else:
                        per_thread[thread_name] = value
                    if units is not None:
                        units[thread_name] = (
                            units.get(thread_name, 0.0)
                            + value * beat_factor
                        )
        if tail is not None and not tail.us_done:
            self._contribute(tail, start, upto)
        if upto > self.collected_upto:
            self.collected_upto = upto

    def _contribute(self, region: AnnotationRegion, start: float,
                    upto: float) -> None:
        """Fold one live region's overlap with ``[start, upto]`` in.

        Retires the region (``us_done``) once its base span can never
        overlap a future window; float operations and their order match
        :meth:`collect` + :meth:`_accumulate` exactly.
        """
        base_start = region.base_start
        base_end = region.base_end
        duration = base_end - base_start
        if duration <= _EPS:
            # A zero-duration region contributes its accesses to the
            # first window reaching its instant, exactly once.
            if start - _EPS <= base_start <= upto + _EPS:
                region.zero_collected = True
                region.us_done = True
                fraction = 1.0
            else:
                if base_start < start - _EPS:
                    # The window moved past the instant; the region
                    # can never match again.
                    region.us_done = True
                return
        else:
            lo = start if start > base_start else base_start
            hi = upto if upto < base_end else base_end
            if base_end <= upto:
                # Base span fully consumed once this window closes.
                region.us_done = True
            if hi <= lo:
                return
            fraction = (hi - lo) / duration
        thread_name = region.thread_name
        burst = region.burst
        units_map = self._window_units
        demand_map = self._window_demand
        for resource_name, count in region.accesses.items():
            per_thread = demand_map.get(resource_name)
            if per_thread is None:
                from .errors import ConfigurationError

                raise ConfigurationError(
                    f"thread {thread_name!r} accessed unknown "
                    f"shared resource {resource_name!r}"
                )
            value = count * fraction
            beat_factor = burst.get(resource_name, 1.0) if burst else 1.0
            units = units_map[resource_name]
            if units is None and beat_factor != 1.0:
                # First burst contribution of the window: until now
                # beats equaled counts bit for bit, so the pre-update
                # demand map is the exact unit state.
                units = dict(per_thread)
                units_map[resource_name] = units
            per_thread[thread_name] = (
                per_thread.get(thread_name, 0.0) + value
            )
            if units is not None:
                units[thread_name] = (
                    units.get(thread_name, 0.0) + value * beat_factor
                )

    def collect(self, upto: float,
                regions: Iterable[AnnotationRegion]) -> None:
        """Attribute accesses in ``[collected_upto, upto]`` to the window.

        ``regions`` must include every region whose base span may overlap
        the interval (in-flight regions plus the region just committed).
        Each region's accesses are divided proportionally by overlap, the
        paper's rule for regions broken across timeslices.

        This is the full-rescan path, kept as the reference
        implementation for :meth:`advance` (the equivalence suite's
        rescan kernel and direct callers use it).
        """
        start = self.collected_upto
        if upto < start - _EPS:
            raise ValueError(
                f"collect() must move forward: {upto} < {start}"
            )
        for region in regions:
            if not region.accesses:
                continue
            if region.base_duration <= _EPS:
                # A zero-duration region contributes its accesses to the
                # first window that reaches its instant, exactly once.
                if region.zero_collected:
                    continue
                if not (start - _EPS <= region.base_start <= upto + _EPS):
                    continue
                region.zero_collected = True
                fraction = 1.0
            else:
                lo = max(start, region.base_start)
                hi = min(upto, region.base_end)
                if hi <= lo:
                    continue
                fraction = (hi - lo) / region.base_duration
            self._accumulate(region, fraction)
        self.collected_upto = max(self.collected_upto, upto)

    def _accumulate(self, region: AnnotationRegion,
                    fraction: float) -> None:
        """Fold ``fraction`` of a region's accesses into the window."""
        thread_name = region.thread_name
        burst = region.burst
        demand_map = self._window_demand
        units_map = self._window_units
        for resource_name, count in region.accesses.items():
            per_thread = demand_map.get(resource_name)
            if per_thread is None:
                from .errors import ConfigurationError

                raise ConfigurationError(
                    f"thread {thread_name!r} accessed unknown "
                    f"shared resource {resource_name!r}"
                )
            value = count * fraction
            beat_factor = burst.get(resource_name, 1.0) if burst else 1.0
            units = units_map[resource_name]
            if units is None and beat_factor != 1.0:
                units = dict(per_thread)
                units_map[resource_name] = units
            per_thread[thread_name] = (
                per_thread.get(thread_name, 0.0) + value
            )
            if units is not None:
                units[thread_name] = (
                    units.get(thread_name, 0.0) + value * beat_factor
                )

    # -- analysis ----------------------------------------------------------

    def should_analyze(self, force: bool = False) -> bool:
        """Whether the accumulated window is wide enough to analyze.

        A zero-width window still analyzes when it holds demand (all of
        it from zero-duration regions), so point accesses are never
        silently dropped.
        """
        width = self.collected_upto - self.window_start
        has_demand = any(self._window_demand.values())
        if width <= _EPS and not has_demand:
            return False
        if force:
            return True
        return width + _EPS >= self.min_timeslice

    def analyze(self, priorities: Mapping[str, int],
                force: bool = False) -> Dict[str, float]:
        """Run every resource's model over the accumulated window.

        Returns the total penalty per thread name (summed across shared
        resources).  When the window is narrower than ``min_timeslice``
        and ``force`` is false, returns an empty mapping and keeps
        accumulating (counting one merged slice).
        """
        start = self.window_start
        end = self.collected_upto
        width = end - start
        demand_map = self._window_demand
        # Inline should_analyze(): the undersized-window and empty-window
        # early exits are the per-commit common cases with min_timeslice.
        if not force and width + _EPS < self.min_timeslice:
            if width > _EPS:
                self.slices_merged += 1
            return {}
        if width <= _EPS and not any(demand_map.values()):
            return {}
        totals: Dict[str, float] = {}
        units_map = self._window_units
        memo = self.memo
        # One model call per demanding resource, in resource order.
        for name, resource in self._resource_items:
            demands = demand_map[name]
            if not demands:
                continue
            slice_demand, effect = self._build_slice(
                name, resource, demands, priorities, start, end)
            penalties = None
            memo_key = None
            if memo is not None:
                memo_key = memo.fingerprint(resource.model, slice_demand)
                if memo_key is not None:
                    penalties = memo.get(memo_key)
            if penalties is None:
                penalties = resource.model.penalties(slice_demand)
                if memo_key is not None:
                    memo.put(memo_key, penalties)
            self._finish_resource(totals, resource, demands, effect,
                                  penalties)
            # The window dicts were handed to the SliceDemand (no copy);
            # start the next window with fresh ones instead of clearing.
            demand_map[name] = {}
            units_map[name] = None
        self.window_start = end
        self.slices_analyzed += 1
        return totals

    def _build_slice(self, name: str, resource: SharedResource,
                     demands: Dict[str, float],
                     priorities: Mapping[str, int],
                     start: float, end: float):
        """Build one resource's :class:`SliceDemand` for the window.

        Returns ``(slice_demand, effect)`` where ``effect`` is the
        fault plan's resolved effect for the window (``None`` healthy).
        """
        units = self._window_units[name]
        # A thread gets an explicit mean transaction service time
        # whenever its accumulated beats deviate from its
        # transaction count beyond float noise.  The comparison is
        # relative-epsilon, not exact: exact equality both admitted
        # spurious entries for accumulated rounding error and hinged
        # real entries on bit-exact coincidence.  (Beats that truly
        # average to one — e.g. bursts 0.5 and 1.5 — yield a mean of
        # exactly ``service_time``, which is also what the model's
        # ``service_of`` fallback supplies, so excluding them is
        # value-identical.)  A window with no burst contribution at
        # all (lazy units never materialized) has beats == counts
        # bit for bit, so the whole scan is skipped.
        if units is not None:
            mean_service = {}
            for thread, count in demands.items():
                if count <= 0:
                    continue
                beats = units.get(thread, count)
                if abs(beats - count) > _EPS * max(1.0, abs(count)):
                    mean_service[thread] = (
                        resource.service_time * beats / count)
        else:
            # No burst contribution this window: every thread's mean
            # service equals ``service_time``, which is also the
            # model fallback, so hand out the shared empty mapping
            # instead of allocating one per resource per slice.
            mean_service = _EMPTY_MEAN
        effect = None
        if self.fault_plan is not None:
            effect = self.fault_plan.apply(
                resource=name, start=start, end=end,
                service_time=resource.service_time,
                ports=resource.ports, demands=demands,
                slice_index=self.slices_analyzed)
        if effect is not None:
            service_time = effect.service_time
            ports = effect.ports
            model_demands = effect.demands
        else:
            service_time = resource.service_time
            ports = resource.ports
            model_demands = demands
        # Priorities are trimmed to the threads actually present in
        # the slice: models only consult competitors that made
        # accesses, so unrelated threads would only bloat the
        # SliceDemand (and every memo fingerprint derived from it).
        # Models that declare ``uses_priorities = False`` skip the
        # trim altogether and share one empty mapping — because the
        # trim is a pure function of the demand's thread set (thread
        # priorities are fixed at spawn), this collapses no memo
        # fingerprints that the trimmed mapping would have kept
        # distinct.  When every known thread has demand the trim is
        # an identity and the live mapping is passed as-is
        # (SliceDemands are ephemeral, so they never observe later
        # priority updates).
        if not resource.model.uses_priorities:
            trimmed = _EMPTY_PRIORITIES
        elif priorities.keys() <= model_demands.keys():
            trimmed = priorities
        else:
            trimmed = {thread: priorities[thread]
                       for thread in model_demands
                       if thread in priorities}
        slice_demand = SliceDemand(
            start, end, service_time, model_demands,
            trimmed, ports, mean_service,
        )
        return slice_demand, effect

    def _finish_resource(self, totals: Dict[str, float],
                         resource: SharedResource,
                         demands: Dict[str, float],
                         effect, penalties: Dict[str, float]) -> None:
        """Fold one resource's penalties into stats and ``totals``."""
        if effect is not None:
            _check_penalties(penalties, effect.demands, resource)
            # Retry backoff is queueing the thread really suffers:
            # merge it into the penalties the kernel distributes.
            penalties = dict(penalties)
            for thread_name, delay in effect.backoff.items():
                penalties[thread_name] = (
                    penalties.get(thread_name, 0.0) + delay)
            resource.record_faults(effect)
            resource.record(penalties, sum(demands.values()))
            for thread_name, penalty in penalties.items():
                if penalty > 0:
                    totals[thread_name] = (
                        totals.get(thread_name, 0.0) + penalty
                    )
        else:
            # Healthy fast path: validate the model's output in the
            # same pass that folds it into the per-thread totals
            # (``totals`` is discarded if validation raises) and
            # accumulates the resource statistics — an inline of
            # ``resource.record()`` fused into the same items walk.
            # Per-target accumulation order matches the unfused
            # loops item for item, so every float rounds the same.
            accesses = sum(demands.values())
            resource.total_accesses += accesses
            if accesses > 0:
                resource.active_slices += 1
            if penalties:
                rtotal = resource.total_penalty
                by_thread = resource.penalty_by_thread
                for thread_name, penalty in penalties.items():
                    if (thread_name not in demands
                            or not (penalty >= 0.0)):
                        _check_penalties(penalties, demands, resource)
                    if penalty > 0:
                        if thread_name in totals:
                            totals[thread_name] = (
                                totals[thread_name] + penalty)
                        else:
                            totals[thread_name] = penalty
                    rtotal += penalty
                    if thread_name in by_thread:
                        by_thread[thread_name] = (
                            by_thread[thread_name] + penalty)
                    else:
                        by_thread[thread_name] = penalty
                resource.total_penalty = rtotal

    def pending_demand(self) -> Dict[str, Dict[str, float]]:
        """Snapshot of not-yet-analyzed accesses (for tests/inspection)."""
        return {name: dict(per_thread)
                for name, per_thread in self._window_demand.items()}



def _check_penalties(penalties: Dict[str, float],
                     demands: Dict[str, float],
                     resource: SharedResource) -> None:
    """Validate a model's output before it reaches the kernel."""
    for thread_name, penalty in penalties.items():
        if thread_name not in demands:
            from .errors import ConfigurationError

            raise ConfigurationError(
                f"model {resource.model!r} for {resource.name!r} penalized "
                f"thread {thread_name!r} which made no accesses"
            )
        if not (penalty >= 0.0) or penalty != penalty:  # NaN guard
            from .errors import ConfigurationError

            raise ConfigurationError(
                f"model {resource.model!r} for {resource.name!r} returned "
                f"invalid penalty {penalty!r} for thread {thread_name!r}"
            )
