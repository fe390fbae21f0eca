"""Deep tests for the heterogeneous-service (burst) modeling path."""

import pytest

from repro.contention import ChenLinModel, PriorityModel, SliceDemand
from repro.contention.util import WindowTerms
from repro.core import LogicalThread, Processor
from repro.core.region import AnnotationRegion
from repro.core.shared import SharedResource
from repro.core.us import SharedResourceScheduler
from repro.cycle import EventEngine, per_thread_waits
from repro.workloads.trace import (Phase, ProcessorSpec, ResourceSpec,
                                   ThreadTrace, Workload)


def region_with_burst(name, complexity, accesses, burst, start=0.0):
    thread = LogicalThread(name, lambda: iter(()))
    return AnnotationRegion(thread, Processor("p"), complexity,
                            {"bus": accesses}, start,
                            burst={"bus": burst})


class TestUsBurstAccounting:
    def make_us(self, model=None):
        bus = SharedResource("bus", model or ChenLinModel(),
                             service_time=2.0)
        return SharedResourceScheduler([bus]), bus

    def test_mean_service_computed_from_units(self):
        captured = {}

        class Spy(ChenLinModel):
            def penalties(self, demand):
                captured.update(demand.mean_service)
                return super().penalties(demand)

        us, _ = self.make_us(model=Spy())
        us.resources["bus"].model = Spy()
        dma = region_with_burst("dma", 100, 10, 8)
        cpu = region_with_burst("cpu", 100, 10, 1)
        us.collect(100, [dma, cpu])
        us.analyze({})
        assert captured.get("dma") == pytest.approx(16.0)  # 8 beats * 2
        assert "cpu" not in captured  # default service, omitted

    def test_proportional_split_preserves_mean_service(self):
        captured = []

        class Spy(ChenLinModel):
            def penalties(self, demand):
                if demand.mean_service:
                    captured.append(dict(demand.mean_service))
                return {}

        us, bus = self.make_us(model=Spy())
        us.resources["bus"].model = Spy()
        dma = region_with_burst("dma", 100, 10, 4)
        other = region_with_burst("cpu", 100, 10, 1)
        # Split the region across two windows.
        us.collect(40, [dma, other])
        us.analyze({})
        us.collect(100, [dma, other])
        us.analyze({})
        # Mean service stays 4 beats * 2 cycles in both windows.
        assert captured == [{"dma": pytest.approx(8.0)},
                            {"dma": pytest.approx(8.0)}]

    def test_units_conserved_across_windows(self):
        us, bus = self.make_us()
        dma = region_with_burst("dma", 100, 10, 4)
        cpu = region_with_burst("cpu", 100, 20, 1)
        us.collect(33, [dma, cpu])
        us.analyze({})
        us.collect(100, [dma, cpu])
        us.analyze({})
        assert bus.total_accesses == pytest.approx(30.0)  # transactions


class TestHeterogeneousWaitHelpers:
    def demand(self, **mean_service):
        return SliceDemand(start=0, end=1_000, service_time=2.0,
                           demands={"dma": 10.0, "cpu": 50.0},
                           mean_service=mean_service)

    def test_open_wait_reduces_to_homogeneous(self):
        from repro.contention.util import open_wait

        demand = self.demand()
        terms = WindowTerms(demand)
        rho = dict(zip(terms.names, terms.rho))
        hetero = terms.open_waits(0.98)[terms.names.index("cpu")]
        homo = open_wait(2.0, sum(v for k, v in rho.items()
                                  if k != "cpu"), 0.98)
        assert hetero == pytest.approx(homo)

    def test_longer_partner_service_raises_both_terms(self):
        light = WindowTerms(self.demand())
        heavy = WindowTerms(self.demand(dma=16.0))
        cpu = light.names.index("cpu")
        assert heavy.open_waits(0.98)[cpu] > light.open_waits(0.98)[cpu]
        assert heavy.closed_waits()[cpu] > light.closed_waits()[cpu]

    def test_priority_model_closed_cap_heterogeneous(self):
        demand = SliceDemand(
            start=0, end=1_000, service_time=2.0,
            demands={"dma": 10.0, "cpu": 50.0},
            priorities={"dma": 0, "cpu": 5},
            mean_service={"dma": 16.0})
        result = PriorityModel().penalties(demand)
        # High-priority cpu still waits behind in-flight DMA bursts
        # (non-preemptive), so its penalty reflects the burst length.
        assert result["cpu"] > 0


class TestPriorityArbiterGroundTruth:
    def test_model_ordering_matches_cycle_engine(self):
        wl = Workload(
            threads=[ThreadTrace("hi", [Phase(work=5_000, accesses=150,
                                              pattern="random", seed=1)],
                                 affinity="p0", priority=9),
                     ThreadTrace("lo", [Phase(work=5_000, accesses=150,
                                              pattern="random", seed=2)],
                                 affinity="p1", priority=0)],
            processors=[ProcessorSpec("p0"), ProcessorSpec("p1")],
            resources=[ResourceSpec("bus", 4)],
        )
        truth = EventEngine(wl, arbiter="priority",
                            record_grants=True).run()
        waits = per_thread_waits(truth)
        assert waits["hi"] < waits["lo"]

        from repro.workloads.to_mesh import run_hybrid

        mesh = run_hybrid(wl, model=PriorityModel())
        assert (mesh.threads["hi"].penalty
                < mesh.threads["lo"].penalty)
