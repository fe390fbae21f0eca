"""Run one workload through all three estimators and compare.

The paper's evaluation protocol, packaged: the cycle-accurate engine is
ground truth; the hybrid (MESH) kernel and the whole-run analytical
model are the contestants; the figures report queueing cycles (or the
percentage of execution time spent queueing) and the error of each
contestant against ground truth.

A comparison can be described either by a live
:class:`~repro.workloads.trace.Workload` plus kwargs (the legacy path)
or by a :class:`~repro.scenario.spec.ScenarioSpec`.  Spec-driven
comparisons carry the spec's content hash and can flow through a
:class:`~repro.scenario.store.RunStore`: estimator results already in
the store are replayed without building the workload or running any
engine, which is what makes repeated figure and report invocations
warm cache hits.

The execution sequence itself — store probe, spec-level SoA fallback
probe, compile, replay, store commit — lives in
:class:`~repro.engine.session.ExecutionSession`; the functions here are
the stable per-call front door over an ephemeral session.  Hold a
session yourself (as the sweep supervisor and the service do) to keep
its stores and warm pool across calls.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..contention.base import ContentionModel
from ..engine.session import (ESTIMATORS, Comparison,  # noqa: F401
                              EstimatorRun, ExecutionSession,
                              _detail_payload, percent_error)
from ..perf.parallel import CellResult

__all__ = [
    "ESTIMATORS",
    "Comparison",
    "EstimatorRun",
    "finite_mean",
    "percent_error",
    "run_comparison",
    "run_comparisons_parallel",
]


def finite_mean(values: Sequence[float]) -> "tuple[float, int]":
    """Mean over the finite entries of ``values``.

    Returns ``(mean, excluded)`` where ``excluded`` counts the
    non-finite entries (``inf``/``nan`` from zero-reference percent
    errors) left out of the mean.  The mean of zero finite entries is
    0.0, never ``nan``, so tables and SVG axes stay renderable.
    """
    finite = [v for v in values if math.isfinite(v)]
    excluded = len(values) - len(finite)
    if not finite:
        return 0.0, excluded
    return sum(finite) / len(finite), excluded


def run_comparison(workload,
                   model: Optional[ContentionModel] = None,
                   min_timeslice: float = 0.0,
                   annotation: str = "phase",
                   include: Sequence[str] = ESTIMATORS,
                   fault_plan=None,
                   budget=None,
                   memo_cache=None,
                   store=None) -> Comparison:
    """Evaluate a workload or scenario spec with every estimator.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.trace.Workload`, or a
        :class:`~repro.scenario.spec.ScenarioSpec` naming a
        ``"workload"``-kind generator.  With a spec, the scenario knobs
        (model, timeslice, annotation, fault plan, budget, memo) come
        from the spec; passing them here too raises — a spec is the
        single source of scenario identity.
    model:
        Contention model shared by the hybrid and analytical estimators
        (the paper applies the *same* Chen-Lin model both ways).
    fault_plan:
        Optional :class:`~repro.robustness.faults.FaultPlan` applied to
        the hybrid estimator only — the cycle engines and the whole-run
        analytical model have no fault hooks, so a faulted comparison
        measures the hybrid's degraded behavior against the *healthy*
        ground truth.
    budget:
        Optional :class:`~repro.robustness.budget.RunBudget` enforced
        on the hybrid kernel and both cycle engines.
    memo_cache:
        Optional :class:`~repro.perf.memo.SliceMemoCache` attached to
        the hybrid estimator's kernel; may be passed alongside a spec
        to share one cache across a sweep's cells.
    store:
        Optional :class:`~repro.scenario.store.RunStore` (or its root
        path).  Requires a spec: estimator results are looked up by
        their :func:`~repro.engine.session.artifact_keys` key (the
        ``spec_hash``; the workload hash for ``iss``) before running
        anything and written back after a miss.  When every requested
        estimator hits, the comparison completes without building the
        workload at all.
    """
    session = ExecutionSession(store=store)
    return session.comparison(workload, model=model,
                              min_timeslice=min_timeslice,
                              annotation=annotation,
                              include=include,
                              fault_plan=fault_plan, budget=budget,
                              memo_cache=memo_cache)


def run_comparisons_parallel(workloads: Sequence,
                             jobs: int = 0,
                             batch_cells: int = 0,
                             **kwargs) -> List[CellResult]:
    """Batch :func:`run_comparison` over independent scenarios.

    Each entry — a :class:`~repro.workloads.trace.Workload` or a
    :class:`~repro.scenario.spec.ScenarioSpec` — is one cell on a
    :class:`~repro.perf.parallel.ParallelExecutor` (``jobs=0`` = one
    worker per CPU; default, since a batch call exists to go wide).
    ``kwargs`` are forwarded to :func:`run_comparison` verbatim (pass
    ``store=`` to flow spec cells through a run store — workers write
    artifacts to the shared directory, but hit/miss counters stay in
    the worker processes; use the results' ``cached_runs`` instead).

    With ``batch_cells`` non-zero, a spec grid flowing through a store
    first runs :meth:`~repro.engine.session.ExecutionSession.prepass`
    — cold ``mesh`` cells inside the SoA compiled subset are compiled
    and replayed in memory and committed to the run store, so the
    per-cell workers below find them warm.  Purely an execution knob:
    results are bit-identical either way.

    Returns one :class:`~repro.perf.parallel.CellResult` per scenario in
    input order: ``result.value`` is the :class:`Comparison`, and a
    scenario whose evaluation raised carries the error string instead of
    aborting the batch.  When every entry is a spec, cells ship to the
    workers as small spec dicts (never pickled workload objects) and
    each cell records its ``spec_hash``, so a failed cell is exactly
    reproducible from the error report.  Note that ``wall_seconds`` of
    cells run concurrently include scheduling contention — use a serial
    run for runtime *measurements* (Table 1), the parallel batch for
    accuracy sweeps.
    """
    kwargs = dict(kwargs)
    with ExecutionSession(store=kwargs.pop("store", None),
                          jobs=jobs) as session:
        return session.map_comparisons(workloads,
                                       batch_cells=batch_cells,
                                       **kwargs)
