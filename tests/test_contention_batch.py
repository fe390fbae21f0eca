"""Deterministic tests for the US scheduler's shared-resource analysis loop.

:meth:`SharedResourceScheduler.analyze` evaluates each demanding
resource's model once, in resource order.  These tests pin that loop to
a hand-written scalar reference (``model.penalties`` per resource per
slice): shared model instances, memoization, subclassed and custom
models, ``GuardedModel`` per-element fallback, and a run without NumPy.
The whole-run estimator's per-resource loop is covered the same way.

Complements :mod:`tests.test_contention_batch_properties` (randomized
bit-identity).  Class and test names are kept as stable test ids.
"""

import os
import pathlib
import subprocess
import sys

from repro.analytical import estimate_queueing
from repro.contention import ConstantModel, SliceDemand
from repro.contention.base import ContentionModel
from repro.contention.chenlin import ChenLinModel
from repro.contention.mm1 import MM1Model
from repro.core.region import AnnotationRegion
from repro.core.resource import Processor
from repro.core.shared import SharedResource
from repro.core.thread import LogicalThread
from repro.core.us import SharedResourceScheduler
from repro.perf.memo import SliceMemoCache
from repro.robustness.guard import GuardedModel
from repro.workloads.synthetic import uniform_thread
from repro.workloads.trace import (Phase, ProcessorSpec, ResourceSpec,
                                   ThreadTrace, Workload)

TESTS_DIR = pathlib.Path(__file__).resolve().parent


def _counts(index, t, r):
    """Accesses of thread ``t`` to resource ``r`` in slice ``index``."""
    return 1 + (index + t + r) % 3


def _drive(scheduler, resource_names, slices=6, threads=4):
    """Feed ``slices`` identical windows and collect analyze() totals."""
    processor = Processor("p0", power=1.0)
    logical = [LogicalThread(f"t{t}", lambda: iter(()))
               for t in range(threads)]
    priorities = {thread.name: 0 for thread in logical}
    totals_log = []
    now = 0.0
    for index in range(slices):
        regions = [
            AnnotationRegion(
                thread, processor, 10.0,
                {name: _counts(index, t, r)
                 for r, name in enumerate(resource_names)}, now)
            for t, thread in enumerate(logical)
        ]
        now += 10.0
        scheduler.collect(now, regions)
        totals_log.append(scheduler.analyze(priorities))
    return totals_log


def _scalar_loop(resources, slices=6, threads=4):
    """Reference for :func:`_drive`: one ``penalties()`` per resource.

    Builds each window's :class:`SliceDemand` by hand (every thread
    demands every resource, so priorities are not trimmed and no burst
    means an empty ``mean_service``) and sums positive penalties per
    thread in resource order.
    """
    priorities = {f"t{t}": 0 for t in range(threads)}
    totals_log = []
    for index in range(slices):
        start, end = 10.0 * index, 10.0 * (index + 1)
        totals = {}
        for r, resource in enumerate(resources):
            demands = {f"t{t}": float(_counts(index, t, r))
                       for t in range(threads)}
            demand = SliceDemand(
                start, end, resource.service_time, demands,
                priorities if resource.model.uses_priorities else {},
                resource.ports, {})
            for thread, penalty in resource.model.penalties(
                    demand).items():
                if penalty > 0:
                    totals[thread] = totals.get(thread, 0.0) + penalty
        totals_log.append(totals)
    return totals_log


def _make_resources():
    """Mixed fleet: one shared model, a unique model, memo-unsafe, guarded."""
    shared = ChenLinModel()
    unsafe = MM1Model()
    unsafe.memo_safe = False
    return lambda: (
        [SharedResource(f"s{i}", shared, service_time=2.0)
         for i in range(8)]
        + [SharedResource("solo", MM1Model(), service_time=3.0),
           SharedResource("unsafe", unsafe, service_time=2.0),
           SharedResource("guarded",
                          GuardedModel([ChenLinModel(), ConstantModel(1.0)]),
                          service_time=2.0)])


def _bus(model, count=1):
    return [SharedResource(f"r{i}", model, service_time=2.0)
            for i in range(count)]


class TestDispatchBatch:
    """Which models the loop calls, and how often."""

    def test_empty_batch(self):
        calls = []

        class Counting(ChenLinModel):
            def penalties(self, demand):
                calls.append(demand)
                return super().penalties(demand)

        scheduler = SharedResourceScheduler(_bus(Counting(), 3))
        scheduler.collect(10.0, [])
        assert scheduler.analyze({}) == {}
        assert calls == []

    def test_below_min_vector_batch_uses_scalar_loop(self):
        # One resource: the loop's result is the model's own output.
        scheduler = SharedResourceScheduler(_bus(ChenLinModel()))
        assert (_drive(scheduler, ["r0"])
                == _scalar_loop(_bus(ChenLinModel())))

    def test_subclass_falls_back_to_scalar(self):
        calls = []

        class Tweaked(ChenLinModel):
            def penalties(self, demand):
                calls.append(demand)
                return super().penalties(demand)

        resources = _bus(Tweaked(), 3)
        scheduler = SharedResourceScheduler(resources)
        totals = _drive(scheduler, [r.name for r in resources])
        # The subclass's override is called once per resource per slice.
        assert len(calls) == 3 * 6
        assert totals == _scalar_loop(_bus(ChenLinModel(), 3))

    def test_model_without_kernel_uses_scalar_loop(self):
        class Custom(ContentionModel):
            name = "custom-batch-test"

            def penalties(self, demand):
                return {name: 1.0 for name in demand.demands}

        resources = _bus(Custom(), 2)
        scheduler = SharedResourceScheduler(resources)
        assert (_drive(scheduler, [r.name for r in resources])
                == _scalar_loop(resources))


def _two_resource_workload(accesses=True):
    """Three threads over ``bus`` and ``mem``; ``idle`` is never used."""
    per_phase = 30 if accesses else 0
    mixed = ThreadTrace("c", [
        Phase(work=1_000.0, accesses=per_phase, resource="bus",
              pattern="random", seed=5),
        Phase(work=1_000.0, accesses=per_phase // 2, resource="mem",
              pattern="random", seed=6)])
    return Workload(
        threads=[uniform_thread("a", 4, 1_000.0, per_phase, seed=1),
                 uniform_thread("b", 4, 1_000.0, per_phase // 3, seed=2,
                                resource="mem"),
                 mixed],
        processors=[ProcessorSpec("p0"), ProcessorSpec("p1"),
                    ProcessorSpec("p2")],
        resources=[ResourceSpec("bus", 2.0), ResourceSpec("mem", 3.0),
                   ResourceSpec("idle", 1.0)])


class TestAnalyzeGrouped:
    """The whole-run estimator's per-resource loop."""

    def test_empty(self):
        calls = []

        class Counting(ChenLinModel):
            def penalties(self, demand):
                calls.append(demand)
                return super().penalties(demand)

        estimate = estimate_queueing(_two_resource_workload(False),
                                     model=Counting())
        assert calls == []
        assert estimate.per_resource == {"bus": 0.0, "mem": 0.0,
                                         "idle": 0.0}
        assert estimate.queueing_cycles == 0.0

    def test_groups_by_instance_not_type(self):
        # Two instances of one type with different knobs: each resource
        # must be evaluated by its own instance.
        workload = _two_resource_workload()
        first, second = ChenLinModel(), ChenLinModel(rho_max=0.5)
        mixed = estimate_queueing(workload,
                                  models={"bus": first, "mem": second})
        assert (mixed.per_resource["bus"]
                == estimate_queueing(workload, model=first)
                .per_resource["bus"])
        assert (mixed.per_resource["mem"]
                == estimate_queueing(workload, model=second)
                .per_resource["mem"])
        assert mixed.per_resource["bus"] > 0
        assert mixed.per_resource["mem"] > 0
        assert mixed.per_resource["idle"] == 0.0


class TestSchedulerBatchEquivalence:
    def test_batch_equals_scalar_loop(self):
        make = _make_resources()
        resources = make()
        scheduler = SharedResourceScheduler(resources)
        names = [r.name for r in resources]
        assert _drive(scheduler, names) == _scalar_loop(make())

    def test_batch_preserves_memo_counters(self):
        make = _make_resources()
        memo = SliceMemoCache()
        scheduler = SharedResourceScheduler(make(), memo=memo)
        totals = _drive(scheduler, list(scheduler.resources))
        plain = SharedResourceScheduler(make())
        assert totals == _drive(plain, list(plain.resources))
        stats = memo.stats()
        assert stats.hits > 0  # repeated windows actually hit
        # Every memo-safe lookup is a hit or a miss: the eight resources
        # sharing one model plus ``solo`` and the healthy guard chain,
        # over six slices.  ``unsafe`` never consults the cache.
        assert stats.hits + stats.misses == 10 * 6

    def test_shared_model_many_resources(self):
        model = ChenLinModel()
        resources = _bus(model, 64)
        scheduler = SharedResourceScheduler(resources)
        names = [r.name for r in resources]
        assert (_drive(scheduler, names, slices=3, threads=8)
                == _scalar_loop(_bus(ChenLinModel(), 64), slices=3,
                                threads=8))


class _FailsOnSlowResource(ChenLinModel):
    """Primary that raises for demands on a slow (service 3) resource."""

    def penalties(self, demand):
        if demand.service_time == 3.0:
            raise RuntimeError("primary down")
        return super().penalties(demand)


class TestGuardedModelBatch:
    def test_batch_matches_scalar_resolution(self):
        guard = GuardedModel([ChenLinModel(), ConstantModel(1.0)])
        resources = _bus(guard, 4)
        scheduler = SharedResourceScheduler(resources)
        totals = _drive(scheduler, [r.name for r in resources])
        # A healthy chain is bit-identical to its first model bare.
        assert totals == _scalar_loop(_bus(ChenLinModel(), 4))
        assert guard.health.ok
        assert guard.health.evaluations == 4 * 6

    def test_primary_batch_failure_falls_back_per_element(self):
        guard = GuardedModel([_FailsOnSlowResource(), ConstantModel(1.0)])
        resources = [SharedResource("fast", guard, service_time=2.0),
                     SharedResource("slow", guard, service_time=3.0),
                     SharedResource("fast2", guard, service_time=2.0)]
        scheduler = SharedResourceScheduler(resources)
        totals = _drive(scheduler, [r.name for r in resources])
        expected = _scalar_loop([
            SharedResource("fast", ChenLinModel(), service_time=2.0),
            SharedResource("slow", ConstantModel(1.0), service_time=3.0),
            SharedResource("fast2", ChenLinModel(), service_time=2.0)])
        # Only the failing resource's evaluations fall back; its
        # neighbours in the same slice keep the primary's answer.
        assert totals == expected
        assert guard.health.evaluations == 3 * 6
        assert guard.health.fallback_count == 6
        assert [record.fallback for record in guard.health.records] == [
            "constant"] * 6

    def test_empty_batch(self):
        guard = GuardedModel([ChenLinModel()])
        scheduler = SharedResourceScheduler(_bus(guard, 2))
        scheduler.collect(10.0, [])
        assert scheduler.analyze({}) == {}
        assert guard.health.evaluations == 0


_NO_NUMPY_RUNNER = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
import test_contention_batch as t
from repro.core.us import SharedResourceScheduler
scheduler = SharedResourceScheduler(t._make_resources()())
print(repr(t._drive(scheduler, list(scheduler.resources))))
"""


class TestNoNumpyFallback:
    def test_scheduler_equivalence_without_numpy(self):
        # The US loop, the models and the guard need no NumPy.
        src = TESTS_DIR.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), str(TESTS_DIR)]))
        proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_RUNNER],
                              capture_output=True, text=True, env=env,
                              check=True)
        scheduler = SharedResourceScheduler(_make_resources()())
        expected = _drive(scheduler, list(scheduler.resources))
        assert proc.stdout.strip() == repr(expected)
