"""Trace-level mutex support across all estimators.

Locks exist in the IR so critical sections can be compared between the
cycle-accurate engines (exact FIFO mutex), the hybrid kernel (lowered
to :class:`repro.core.sync.Mutex`), and the analytical baseline (which
is blind to them — an additional failure mode the hybrid captures).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cycle import EventEngine, SteppedEngine
from repro.workloads.synthetic import critical_section_workload
from repro.workloads.to_mesh import run_hybrid
from repro.workloads.trace import (BarrierOp, LockOp, Phase,
                                   ProcessorSpec, ResourceSpec,
                                   ThreadTrace, UnlockOp, Workload)
from repro.contention import NullModel


def cs_workload(threads=2, work=100, cs_work=50):
    """Minimal deterministic critical-section workload."""
    built = []
    for index in range(threads):
        built.append(ThreadTrace(
            f"t{index}",
            [Phase(work=work), LockOp("m"), Phase(work=cs_work),
             UnlockOp("m")],
            affinity=f"p{index}"))
    return Workload(
        threads=built,
        processors=[ProcessorSpec(f"p{i}") for i in range(threads)],
        resources=[ResourceSpec("bus", 4)],
    )


class TestValidation:
    def test_balanced_locks_pass(self):
        cs_workload().validate_locks()

    def test_unlock_without_lock_rejected(self):
        wl = Workload(
            threads=[ThreadTrace("t", [UnlockOp("m")])],
            processors=[ProcessorSpec("p")])
        with pytest.raises(ValueError):
            wl.validate_locks()

    def test_relock_rejected(self):
        wl = Workload(
            threads=[ThreadTrace("t", [LockOp("m"), LockOp("m")])],
            processors=[ProcessorSpec("p")])
        with pytest.raises(ValueError):
            wl.validate_locks()

    def test_holding_lock_at_end_rejected(self):
        wl = Workload(
            threads=[ThreadTrace("t", [LockOp("m")])],
            processors=[ProcessorSpec("p")])
        with pytest.raises(ValueError):
            wl.validate_locks()

    def test_barrier_while_holding_rejected(self):
        from repro.workloads.trace import BarrierOp

        wl = Workload(
            threads=[ThreadTrace("t", [LockOp("m"), BarrierOp("b"),
                                       UnlockOp("m")])],
            processors=[ProcessorSpec("p")])
        with pytest.raises(ValueError):
            wl.validate_locks()

    def test_lock_ids_collected(self):
        assert cs_workload().lock_ids() == ["m"]

    def test_nested_distinct_locks_ok(self):
        wl = Workload(
            threads=[ThreadTrace("t", [LockOp("a"), LockOp("b"),
                                       UnlockOp("b"), UnlockOp("a")])],
            processors=[ProcessorSpec("p")])
        wl.validate_locks()


@pytest.mark.parametrize("engine_cls", [SteppedEngine, EventEngine])
class TestCycleEngineLocks:
    def test_critical_sections_serialize(self, engine_cls):
        # Both threads reach the lock at t=100; the second waits for
        # the first's 50-cycle critical section.
        result = engine_cls(cs_workload()).run()
        finishes = sorted(t.finish_time
                          for t in result.threads.values())
        assert finishes == [150, 200]

    def test_uncontended_lock_is_free(self, engine_cls):
        wl = cs_workload(threads=1)
        result = engine_cls(wl).run()
        assert result.makespan == 150

    def test_staggered_arrivals_no_wait(self, engine_cls):
        built = [
            ThreadTrace("early", [LockOp("m"), Phase(work=50),
                                  UnlockOp("m")], affinity="p0"),
            ThreadTrace("late", [Phase(work=200), LockOp("m"),
                                 Phase(work=50), UnlockOp("m")],
                        affinity="p1"),
        ]
        wl = Workload(threads=built,
                      processors=[ProcessorSpec("p0"),
                                  ProcessorSpec("p1")],
                      resources=[ResourceSpec("bus", 4)])
        result = engine_cls(wl).run()
        assert result.threads["early"].finish_time == 50
        assert result.threads["late"].finish_time == 250

    def test_fifo_lock_handoff(self, engine_cls):
        # Three threads queue on the lock in arrival (index) order.
        result = engine_cls(cs_workload(threads=3)).run()
        finishes = sorted(t.finish_time
                          for t in result.threads.values())
        assert finishes == [150, 200, 250]


def ab_ba_workload(with_barrier=False):
    """Two threads take locks A and B in opposite orders at the same
    cycle; optionally a third thread waits at a barrier the first one
    never reaches."""
    built = [
        ThreadTrace("a", [Phase(work=30), LockOp("A"), Phase(work=10),
                          LockOp("B"), UnlockOp("B"), UnlockOp("A")]
                    + ([BarrierOp("X")] if with_barrier else []),
                    affinity="p0"),
        ThreadTrace("b", [Phase(work=30), LockOp("B"), Phase(work=10),
                          LockOp("A"), UnlockOp("A"), UnlockOp("B")],
                    affinity="p1"),
    ]
    if with_barrier:
        built.append(ThreadTrace("c", [Phase(work=5), BarrierOp("X")],
                                 affinity="p2"))
    return Workload(
        threads=built,
        processors=[ProcessorSpec(f"p{i}") for i in range(len(built))],
        resources=[ResourceSpec("bus", 4)],
    )


class TestDeadlockDiagnostic:
    """Both engines name every stuck thread, what it waits on, and the
    cycle the simulation stalled at, in the same words."""

    def _messages(self, workload):
        messages = []
        for engine_cls in (SteppedEngine, EventEngine):
            with pytest.raises(RuntimeError) as info:
                engine_cls(workload).run()
            messages.append(str(info.value))
        return messages

    def test_ab_ba_lock_deadlock(self):
        stepped, event = self._messages(ab_ba_workload())
        assert stepped == event
        assert event == (
            "cycle simulation stalled at cycle 40; threads blocked "
            "forever: 'a' on lock 'B', 'b' on lock 'A'")

    def test_barrier_behind_a_deadlock(self):
        stepped, event = self._messages(ab_ba_workload(with_barrier=True))
        assert stepped == event
        assert event == (
            "cycle simulation stalled at cycle 40; threads blocked "
            "forever: 'a' on lock 'B', 'b' on lock 'A', "
            "'c' at barrier 'X'")


class TestHybridLocks:
    def test_hybrid_matches_cycle_timing_without_contention(self):
        wl = cs_workload()
        truth = EventEngine(wl).run()
        mesh = run_hybrid(wl, model=NullModel())
        assert mesh.makespan == pytest.approx(truth.makespan)
        finishes = sorted(t.finish_time for t in mesh.threads.values())
        assert finishes == pytest.approx([150.0, 200.0])

    def test_hybrid_tracks_lock_serialization_with_contention(self):
        wl = critical_section_workload(threads=3, rounds=6)
        truth = EventEngine(wl).run()
        mesh = run_hybrid(wl)
        assert mesh.makespan == pytest.approx(truth.makespan, rel=0.15)

    def test_analytical_blind_to_locks(self):
        from repro.analytical import characterize

        with_locks = critical_section_workload(threads=3, rounds=6)
        profiles = characterize(with_locks)
        # Characterization sees only compute + access cycles; lock ops
        # contribute nothing (and so the whole-run model cannot see the
        # serialization).
        for profile in profiles.values():
            assert profile.busy_cycles > 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       threads=st.integers(min_value=2, max_value=4))
def test_lock_workloads_engines_identical(seed, threads):
    rng = random.Random(seed)
    built = []
    for index in range(threads):
        items = []
        for round_index in range(rng.randint(1, 4)):
            items.append(Phase(work=rng.randint(0, 500),
                               accesses=rng.randint(0, 15),
                               pattern="random",
                               seed=rng.getrandbits(16)))
            items.append(LockOp("shared"))
            items.append(Phase(work=rng.randint(0, 200),
                               accesses=rng.randint(0, 8),
                               pattern="random",
                               seed=rng.getrandbits(16)))
            items.append(UnlockOp("shared"))
        built.append(ThreadTrace(f"t{index}", items,
                                 affinity=f"p{index}"))
    wl = Workload(
        threads=built,
        processors=[ProcessorSpec(f"p{i}") for i in range(threads)],
        resources=[ResourceSpec("bus", rng.randint(1, 6))],
    )
    stepped = SteppedEngine(wl).run()
    event = EventEngine(wl).run()
    assert stepped.makespan == event.makespan
    assert stepped.queueing_cycles == event.queueing_cycles
    for name in stepped.threads:
        assert (stepped.threads[name].finish_time
                == event.threads[name].finish_time)
