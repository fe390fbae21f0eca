"""Property-based equivalence: stepped vs event-driven cycle engines.

The event engine is only allowed to exist because it is bit-identical to
the honest cycle-stepped reference; these tests enforce that on random
workloads, arbiters, platforms, and barrier structures.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cycle import EventEngine, SteppedEngine
from repro.workloads.synthetic import random_workload
from repro.workloads.trace import (BarrierOp, IdleOp, LockOp, Phase,
                                   ProcessorSpec, ResourceSpec, ThreadTrace,
                                   UnlockOp, Workload)


def assert_identical(workload, arbiter="fifo"):
    stepped = SteppedEngine(workload, arbiter=arbiter,
                            record_grants=True).run()
    event = EventEngine(workload, arbiter=arbiter,
                        record_grants=True).run()
    assert stepped.makespan == event.makespan
    # Frozen dataclasses compare every field: compute, service, wait,
    # idle, accesses and finish per thread; service time, grants, busy
    # and wait cycles per resource.
    assert stepped.threads == event.threads
    assert stepped.resources == event.resources
    assert stepped.grants == event.grants
    return stepped


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       arbiter=st.sampled_from(["fifo", "roundrobin", "priority"]))
def test_random_workloads_identical(seed, arbiter):
    workload = random_workload(random.Random(seed))
    assert_identical(workload, arbiter)


def _locked_thread(rng, name, n_phases, locks, resources):
    """Phases separated by barriers, some inside lock-guarded sections
    (nested in a fixed order, so the workload cannot deadlock), some
    followed by an idle gap."""
    items = []
    for p in range(n_phases):
        held = [lock for lock in locks if rng.random() < 0.4]
        items.extend(LockOp(lock) for lock in held)
        items.append(Phase(work=rng.randint(0, 800),
                           accesses=rng.randint(0, 30),
                           resource=rng.choice(resources),
                           pattern=rng.choice(["random", "uniform",
                                               "front", "back"]),
                           seed=rng.getrandbits(20),
                           burst=rng.choice([1, 1, 2, 4])))
        items.extend(UnlockOp(lock) for lock in reversed(held))
        if rng.random() < 0.3:
            items.append(IdleOp(rng.randint(1, 200)))
        items.append(BarrierOp(f"b{p}"))
    return ThreadTrace(name, items, affinity=f"p{name[1:]}",
                       priority=rng.randint(0, 3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_threads=st.integers(min_value=2, max_value=4),
       n_phases=st.integers(min_value=1, max_value=5),
       service=st.integers(min_value=1, max_value=8),
       ports=st.integers(min_value=1, max_value=3),
       arbiter=st.sampled_from(["fifo", "roundrobin", "priority"]))
def test_barrier_locked_workloads_identical(seed, n_threads, n_phases,
                                            service, ports, arbiter):
    rng = random.Random(seed)
    locks = ["m0", "m1"][:rng.randint(1, 2)]
    resources = ["bus", "mem"]
    threads = [_locked_thread(rng, f"t{t}", n_phases, locks, resources)
               for t in range(n_threads)]
    workload = Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}",
                                  rng.choice([0.5, 1.0, 2.0]))
                    for i in range(n_threads)],
        resources=[ResourceSpec("bus", service, ports=ports),
                   ResourceSpec("mem", rng.randint(1, 6))],
    )
    assert_identical(workload, arbiter)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_multi_resource_workloads_identical(seed):
    rng = random.Random(seed)
    threads = []
    for t in range(3):
        items = [Phase(work=rng.randint(10, 500),
                       accesses=rng.randint(0, 20),
                       resource=rng.choice(["bus", "dma"]),
                       pattern="random", seed=rng.getrandbits(16))
                 for _ in range(4)]
        threads.append(ThreadTrace(f"t{t}", items, affinity=f"p{t}"))
    workload = Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}") for i in range(3)],
        resources=[ResourceSpec("bus", 4), ResourceSpec("dma", 2)],
    )
    assert_identical(workload)


def test_fft_workload_identical():
    from repro.workloads.fft import fft_workload

    workload = fft_workload(points=1024, processors=2, cache_kb=8)
    assert_identical(workload)


def test_phm_workload_identical():
    from repro.workloads.phm import phm_workload

    workload = phm_workload(busy_cycles_target=30_000, seed=5)
    assert_identical(workload)


def test_event_engine_is_cheaper_than_stepped():
    """The event engine must touch far fewer events than cycles."""
    from repro.workloads.synthetic import uniform_workload

    workload = uniform_workload(threads=2, phases=4, work=20_000,
                                accesses=50)
    stepped = SteppedEngine(workload).run()
    event = EventEngine(workload).run()
    assert event.cycles_executed < stepped.cycles_executed / 10
