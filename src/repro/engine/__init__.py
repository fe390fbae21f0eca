"""The execution facade: one front door for every way a scenario runs.

:class:`~repro.engine.session.ExecutionSession` owns the pieces every
execution path used to wire together by hand — the content-addressed
:class:`~repro.scenario.store.RunStore`, a persistent warm
:class:`~repro.perf.parallel.ParallelExecutor` pool, and the engine
selection defaults — and exposes the canonical store-probe ->
spec-level fallback probe -> compile -> replay -> store-commit
sequence as methods.  The CLI
(:func:`~repro.experiments.runner.run_comparison` and friends), the
sweep fabric (:class:`~repro.sweepfabric.supervisor.SweepSupervisor`),
and the contention-modeling service (:mod:`repro.service`) all route
through it, so there is exactly one implementation of that sequence to
keep byte-identical.
"""

from .session import (ESTIMATORS, Comparison, EstimatorRun,
                      ExecutionSession, artifact_keys, percent_error)

__all__ = [
    "ESTIMATORS",
    "Comparison",
    "EstimatorRun",
    "ExecutionSession",
    "artifact_keys",
    "percent_error",
]
