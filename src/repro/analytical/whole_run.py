"""The pure-analytical baseline: one-step whole-run model application.

This is the paper's "Analytical" series: the same contention model the
hybrid kernel evaluates per timeslice, applied *once* "across the whole
runtime of the program" using average rates.  Concretely, for each shared
resource:

1. every thread is reduced to its busy-time utilization
   ``rho_i = a_i * s / busy_i`` (see
   :mod:`repro.analytical.characterize`);
2. all threads are assumed to sustain those rates simultaneously over a
   common interval (the longest busy time), which is what an
   average-rate model blind to idle gaps and phase interleaving does;
3. the model converts the combined rates into a per-access expected wait
   ``W_i``, and the thread's queueing estimate is ``a_i * W_i`` over its
   *actual* access count.

On balanced steady workloads this is accurate (and fast — no simulation
at all).  On workloads with bursty phases or unbalanced idle time it
mispredicts in exactly the ways the paper's Figures 4-6 show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..contention.base import ContentionModel, SliceDemand
from ..contention.chenlin import ChenLinModel
from .characterize import ThreadProfile, characterize
from ..workloads.trace import Workload

_EPS = 1e-12


@dataclass(frozen=True)
class WholeRunEstimate:
    """Output of the whole-run analytical estimator."""

    #: Estimated queueing cycles per thread.
    per_thread: Mapping[str, float]
    #: Estimated queueing cycles per shared resource.
    per_resource: Mapping[str, float]
    #: The profiles the estimate was computed from.
    profiles: Mapping[str, ThreadProfile] = field(default_factory=dict)

    @property
    def queueing_cycles(self) -> float:
        """Total estimated queueing cycles."""
        return sum(self.per_thread.values())

    @property
    def busy_cycles(self) -> float:
        """Total characterized busy cycles (denominator for percents)."""
        return sum(p.busy_cycles for p in self.profiles.values())

    def percent_queueing(self, basis: str = "busy") -> float:
        """Queueing as a percentage of busy time (estimator parity)."""
        if basis not in ("busy", "makespan"):
            raise ValueError(f"unknown basis {basis!r}")
        denominator = self.busy_cycles
        if denominator <= 0:
            return 0.0
        return 100.0 * self.queueing_cycles / denominator


def _resource_demands(workload: Workload,
                      profiles: Mapping[str, ThreadProfile],
                      default_model: ContentionModel,
                      overrides: Dict[str, ContentionModel]):
    """Build each resource's whole-run :class:`SliceDemand`.

    Returns one ``(spec, slice_demand, model)`` triple per resource, in
    resource order; ``slice_demand`` is ``None`` for resources nothing
    accesses (they estimate to zero without a model call).
    """
    priorities = {t.name: t.priority for t in workload.threads}
    entries = []
    for spec in workload.resources:
        service = max(1, int(round(spec.service_time)))
        resource_model = overrides.get(spec.name, default_model)
        # Common interval over which all rates are assumed to be
        # simultaneously sustained.
        horizon = max((p.busy_cycles for p in profiles.values()
                       if p.accesses.get(spec.name, 0.0) > 0),
                      default=0.0)
        if horizon <= _EPS:
            entries.append((spec, None, resource_model))
            continue
        demands: Dict[str, float] = {}
        mean_service: Dict[str, float] = {}
        for name, profile in profiles.items():
            rho = profile.access_rate(spec.name, service)
            if rho > _EPS:
                per_transaction = profile.mean_service(spec.name, service)
                demands[name] = rho * horizon / per_transaction
                if per_transaction != service:
                    mean_service[name] = per_transaction
        if len(demands) == 0:
            entries.append((spec, None, resource_model))
            continue
        slice_demand = SliceDemand(
            start=0.0, end=horizon, service_time=service,
            demands=demands, priorities=priorities, ports=spec.ports,
            mean_service=mean_service,
        )
        entries.append((spec, slice_demand, resource_model))
    return entries


def estimate_queueing(workload: Workload,
                      model: Optional[ContentionModel] = None,
                      models: Optional[Dict[str, ContentionModel]] = None,
                      profiles: Optional[Mapping[str, ThreadProfile]]
                      = None) -> WholeRunEstimate:
    """Apply ``model`` once over the whole runtime of ``workload``.

    ``models`` optionally overrides the model per resource, mirroring
    :func:`repro.workloads.to_mesh.build_kernel`.  ``profiles`` lets a
    caller that already characterized the workload (e.g. the comparison
    runner, which needs the busy-cycle basis anyway) pass the result in
    instead of paying for a second identical characterization.

    Each accessed resource's model is called once, in resource order.
    """
    default_model = model if model is not None else ChenLinModel()
    overrides = models or {}
    if profiles is None:
        profiles = characterize(workload)
    per_thread: Dict[str, float] = {name: 0.0 for name in profiles}
    per_resource: Dict[str, float] = {}
    for spec, slice_demand, resource_model in _resource_demands(
            workload, profiles, default_model, overrides):
        if slice_demand is None:
            per_resource[spec.name] = 0.0
            continue
        penalties = resource_model.penalties(slice_demand)
        demands = slice_demand.demands
        total = 0.0
        for name, profile in profiles.items():
            synthetic = demands.get(name, 0.0)
            if synthetic <= _EPS:
                continue
            wait_per_access = penalties.get(name, 0.0) / synthetic
            actual = profile.accesses.get(spec.name, 0.0)
            estimate = actual * wait_per_access
            per_thread[name] += estimate
            total += estimate
        per_resource[spec.name] = total
    return WholeRunEstimate(per_thread=per_thread,
                            per_resource=per_resource,
                            profiles=profiles)
