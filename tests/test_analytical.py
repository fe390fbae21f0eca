"""Tests for characterization and the whole-run analytical baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytical import characterize, estimate_queueing
from repro.analytical.characterize import ThreadProfile
from repro.contention import ChenLinModel, ConstantModel, NullModel
from repro.cycle import lower_workload
from repro.workloads.synthetic import uniform_workload
from repro.workloads.trace import (PATTERNS, BarrierOp, IdleOp, LockOp,
                                   Phase, ProcessorSpec, ResourceSpec,
                                   ThreadTrace, UnlockOp, Workload,
                                   access_target)


def workload(items_by_thread, powers=None, service=4):
    names = sorted(items_by_thread)
    if powers is None:
        powers = {name: 1.0 for name in names}
    return Workload(
        threads=[ThreadTrace(name, items_by_thread[name],
                             affinity=f"p{i}")
                 for i, name in enumerate(names)],
        processors=[ProcessorSpec(f"p{i}", powers[name])
                    for i, name in enumerate(names)],
        resources=[ResourceSpec("bus", service)],
    )


class TestCharacterize:
    def test_busy_excludes_idle(self):
        wl = workload({"a": [Phase(work=100, accesses=10),
                             IdleOp(cycles=1000)]})
        profile = characterize(wl)["a"]
        assert profile.busy_cycles == pytest.approx(100 + 40)
        assert profile.idle_cycles == pytest.approx(1000)

    def test_power_scaling(self):
        wl = workload({"a": [Phase(work=100)]}, powers={"a": 2.0})
        assert characterize(wl)["a"].busy_cycles == pytest.approx(50)

    def test_access_rate(self):
        wl = workload({"a": [Phase(work=160, accesses=10)]})
        profile = characterize(wl)["a"]
        # rho = 10 * 4 / (160 + 40)
        assert profile.access_rate("bus", 4) == pytest.approx(0.2)
        assert profile.access_rate("dma", 4) == 0.0

    def test_zero_busy_thread(self):
        wl = workload({"a": []})
        profile = characterize(wl)["a"]
        assert profile.busy_cycles == 0
        assert profile.access_rate("bus", 4) == 0.0


def trace_characterize(wl):
    """Reference characterization: walk the cycle engines' lowered
    micro-op trace op by op and sum what it issues."""
    service_times = {spec.name: max(1, int(round(spec.service_time)))
                     for spec in wl.resources}
    profiles = {}
    for program in lower_workload(wl):
        accesses, units = {}, {}
        idle = compute = 0.0
        for kind, arg in program.ops:
            if kind == "compute":
                compute += int(arg)
            elif kind == "access":
                name, burst = access_target(arg)
                accesses[name] = accesses.get(name, 0.0) + 1.0
                units[name] = units.get(name, 0.0) + burst
            elif kind == "idle":
                idle += int(arg)
        service = sum(count * service_times[name]
                      for name, count in units.items())
        profiles[program.thread_name] = ThreadProfile(
            name=program.thread_name, processor=program.processor.name,
            busy_cycles=compute + service, accesses=accesses,
            service_units=units, idle_cycles=idle)
    return profiles


def exact(profiles):
    """Profiles as hex floats, every dict's key order included."""
    return [(key, p.name, p.processor, p.busy_cycles.hex(),
             [(n, v.hex()) for n, v in p.accesses.items()],
             [(n, v.hex()) for n, v in p.service_units.items()],
             p.idle_cycles.hex())
            for key, p in profiles.items()]


phases = st.builds(
    Phase,
    work=st.floats(min_value=0.0, max_value=3000.0),
    accesses=st.integers(min_value=0, max_value=40),
    resource=st.sampled_from(["bus", "mem"]),
    pattern=st.sampled_from(PATTERNS),
    seed=st.integers(min_value=0, max_value=2**16),
    burst=st.integers(min_value=1, max_value=4))
idles = st.builds(IdleOp, cycles=st.floats(min_value=0.0, max_value=500.0))
#: A thread's building blocks: a phase, an idle, or a critical section.
blocks = st.one_of(
    phases.map(lambda phase: [phase]),
    idles.map(lambda idle: [idle]),
    st.tuples(st.sampled_from(["m0", "m1"]), phases).map(
        lambda pair: [LockOp(pair[0]), pair[1], UnlockOp(pair[0])]))
#: Stray items that may unbalance a thread's barriers or locks.
strays = st.one_of(
    st.builds(BarrierOp, barrier_id=st.sampled_from(["b0", "b1"])),
    st.builds(LockOp, lock_id=st.sampled_from(["m0", "m1"])),
    st.builds(UnlockOp, lock_id=st.sampled_from(["m0", "m1"])))


@st.composite
def thread_items(draw, barriers):
    """Blocks with ``barriers`` barriers between them, and now and then
    a stray item that makes the workload invalid."""
    chunks = draw(st.lists(blocks, max_size=6))
    for _ in range(barriers):
        at = draw(st.integers(min_value=0, max_value=len(chunks)))
        chunks.insert(at, [BarrierOp("b0")])
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        chunks.append([draw(strays)])
    return [item for chunk in chunks for item in chunk]


@st.composite
def workloads(draw):
    """Random workloads, mostly mappable: up to one thread more than
    processors, affinities that may clash, every access pattern,
    bursts, idles, barriers, locks and ``power != 1``."""
    processors = [
        ProcessorSpec(f"p{i}", draw(st.sampled_from(
            [0.5, 0.7, 1.0, 1.5, 2.0, 3.3])))
        for i in range(draw(st.integers(min_value=1, max_value=4)))]
    barriers = draw(st.integers(min_value=0, max_value=2))
    affinities = [None] * 3 + [p.name for p in processors]
    threads = [
        ThreadTrace(f"t{i}", draw(thread_items(barriers)),
                    affinity=draw(st.sampled_from(affinities)))
        for i in range(draw(st.integers(
            min_value=1, max_value=len(processors) + 1)))]
    return Workload(threads=threads, processors=processors,
                    resources=[ResourceSpec("bus", draw(st.floats(
                                   min_value=0.4, max_value=9.0))),
                               ResourceSpec("mem", 3.0)])


class TestCharacterizeMatchesLowering:
    @settings(max_examples=150, deadline=None)
    @given(wl=workloads())
    def test_phase_totals_equal_the_lowered_trace(self, wl):
        try:
            expected = trace_characterize(wl)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                characterize(wl)
            assert str(raised.value) == str(err)
            return
        assert exact(characterize(wl)) == exact(expected)

    @pytest.mark.parametrize("affinities", [
        (None, None, None),      # more threads than processors
        ("p0", "p0"),            # affinity clash
    ])
    def test_unmappable_raises_the_lowering_error(self, affinities):
        wl = Workload(
            threads=[ThreadTrace(f"t{i}", [Phase(work=10.0, accesses=1)],
                                 affinity=affinity)
                     for i, affinity in enumerate(affinities)],
            processors=[ProcessorSpec("p0"), ProcessorSpec("p1")])
        with pytest.raises(ValueError) as lowered:
            lower_workload(wl)
        with pytest.raises(ValueError) as summed:
            characterize(wl)
        assert str(summed.value) == str(lowered.value)


class TestWholeRun:
    def test_single_thread_no_queueing(self):
        wl = workload({"a": [Phase(work=100, accesses=10)]})
        estimate = estimate_queueing(wl)
        assert estimate.queueing_cycles == 0.0

    def test_symmetric_threads_symmetric_estimate(self):
        wl = uniform_workload(threads=2, phases=4, work=5000, accesses=60)
        estimate = estimate_queueing(wl)
        values = list(estimate.per_thread.values())
        assert values[0] == pytest.approx(values[1], rel=0.05)
        assert estimate.queueing_cycles > 0

    def test_blind_to_idle_gaps(self):
        # Two workloads identical except thread b idles 90% of the
        # time: the whole-run model must give (nearly) the same answer,
        # because busy-rate characterization cannot see idleness.
        base = {"a": [Phase(work=5000, accesses=100, pattern="random")],
                "b": [Phase(work=5000, accesses=100, pattern="random")]}
        idle = {"a": [Phase(work=5000, accesses=100, pattern="random")],
                "b": [Phase(work=5000, accesses=100, pattern="random"),
                      IdleOp(cycles=45_000)]}
        dense = estimate_queueing(workload(base))
        sparse = estimate_queueing(workload(idle))
        assert dense.queueing_cycles == pytest.approx(
            sparse.queueing_cycles, rel=1e-6)

    def test_blind_to_phase_structure(self):
        # Same totals, different distribution over time: identical
        # whole-run estimates (the failure mode the paper exploits).
        flat = {"a": [Phase(work=10_000, accesses=400)],
                "b": [Phase(work=10_000, accesses=400)]}
        bursty = {"a": [Phase(work=5_000, accesses=390),
                        Phase(work=5_000, accesses=10)],
                  "b": [Phase(work=5_000, accesses=10),
                        Phase(work=5_000, accesses=390)]}
        assert estimate_queueing(workload(flat)).queueing_cycles == \
            pytest.approx(
                estimate_queueing(workload(bursty)).queueing_cycles,
                rel=1e-6)

    def test_null_model_estimates_zero(self):
        wl = uniform_workload()
        assert estimate_queueing(
            wl, model=NullModel()).queueing_cycles == 0.0

    def test_per_resource_breakdown(self):
        wl = Workload(
            threads=[ThreadTrace("a", [Phase(work=100, accesses=10),
                                       Phase(work=100, accesses=10,
                                             resource="dma")],
                                 affinity="p0"),
                     ThreadTrace("b", [Phase(work=100, accesses=10),
                                       Phase(work=100, accesses=10,
                                             resource="dma")],
                                 affinity="p1")],
            processors=[ProcessorSpec("p0"), ProcessorSpec("p1")],
            resources=[ResourceSpec("bus", 4), ResourceSpec("dma", 2)],
        )
        estimate = estimate_queueing(wl, model=ConstantModel(1.0))
        assert set(estimate.per_resource) == {"bus", "dma"}
        assert estimate.per_resource["bus"] > 0
        assert estimate.per_resource["dma"] > 0
        assert estimate.queueing_cycles == pytest.approx(
            sum(estimate.per_thread.values()))

    def test_percent_queueing(self):
        wl = uniform_workload(threads=2)
        estimate = estimate_queueing(wl)
        expected = 100.0 * estimate.queueing_cycles / estimate.busy_cycles
        assert estimate.percent_queueing() == pytest.approx(expected)
        with pytest.raises(ValueError):
            estimate.percent_queueing("bogus")

    def test_empty_workload(self):
        wl = workload({"a": []})
        estimate = estimate_queueing(wl)
        assert estimate.queueing_cycles == 0.0
        assert estimate.percent_queueing() == 0.0

    def test_accurate_on_uniform_workload(self):
        # The paper's premise: on balanced steady workloads, the
        # whole-run analytical model is close to ground truth.
        from repro.cycle import EventEngine

        wl = uniform_workload(threads=2, phases=8, work=10_000,
                              accesses=250)
        estimate = estimate_queueing(wl, model=ChenLinModel())
        truth = EventEngine(wl).run().queueing_cycles
        assert estimate.queueing_cycles == pytest.approx(truth, rel=0.35)
