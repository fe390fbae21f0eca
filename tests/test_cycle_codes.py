"""The event engine's int-coded lowering and its per-process phase memo.

:class:`~repro.cycle.EventEngine` lowers each thread straight to int
codes through the same item walk as
:func:`~repro.cycle.program.lower_workload`, taking each phase's codes
from a :class:`~repro.cycle.program.PhaseCodes` memo.  These tests pin
that the codes decode to exactly the micro-ops of ``lower_workload``,
that the memo stays within its bound, and that it never lets one input
answer for another.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cycle import EventEngine, SteppedEngine, lower_workload
from repro.cycle import program as program_module
from repro.cycle.program import (ACCESS, BARRIER, COMPUTE, ENTRY_BYTES,
                                 IDLE, LOCK, MEMO_BYTES, UNLOCK, PhaseCodes,
                                 phase_codes)
from repro.workloads.trace import (BarrierOp, IdleOp, LockOp, Phase,
                                   ProcessorSpec, ResourceSpec, ThreadTrace,
                                   UnlockOp, Workload, expand_phase)


def decode(engine: EventEngine):
    """The micro-op tuples an engine's codes stand for, per thread."""
    names = {BARRIER: engine._barrier_names, LOCK: engine._lock_names,
             UNLOCK: engine._lock_names}
    kinds = {BARRIER: "barrier", LOCK: "lock", UNLOCK: "unlock"}
    programs = []
    for codes in engine.codes:
        ops = []
        for code in codes:
            kind, operand = code & 7, code >> 3
            if kind == COMPUTE:
                ops.append(("compute", operand))
            elif kind == ACCESS:
                resource, burst = engine.table.targets[operand]
                ops.append(("access", resource if burst == 1
                            else (resource, burst)))
            elif kind == IDLE:
                ops.append(("idle", operand))
            else:
                ops.append((kinds[kind], names[kind][operand]))
        programs.append(ops)
    return programs


def random_thread(rng, index, n_phases, locks, resources):
    """Phases of every pattern and burst on several resources, some in
    lock-guarded sections, some followed by idle gaps, each ended by a
    barrier."""
    items = []
    for p in range(n_phases):
        held = [lock for lock in locks if rng.random() < 0.4]
        items.extend(LockOp(lock) for lock in held)
        items.append(Phase(work=rng.choice([rng.randint(0, 900),
                                            rng.uniform(0.0, 900.0)]),
                           accesses=rng.randint(0, 30),
                           resource=rng.choice(resources),
                           pattern=rng.choice(["random", "uniform",
                                               "front", "back"]),
                           seed=rng.getrandbits(20),
                           burst=rng.choice([1, 1, 2, 4])))
        items.extend(UnlockOp(lock) for lock in reversed(held))
        if rng.random() < 0.3:
            items.append(IdleOp(rng.choice([0, rng.randint(1, 200),
                                            rng.uniform(0.0, 200.0)])))
        items.append(BarrierOp(f"b{p}"))
    return ThreadTrace(f"t{index}", items, affinity=f"p{index}",
                       priority=rng.randint(0, 3))


def random_workload(seed, n_threads, n_phases):
    rng = random.Random(seed)
    locks = ["m0", "m1"][:rng.randint(1, 2)]
    resources = ["bus", "mem", "dma"][:rng.randint(1, 3)]
    return Workload(
        threads=[random_thread(rng, t, n_phases, locks, resources)
                 for t in range(n_threads)],
        processors=[ProcessorSpec(f"p{t}", rng.choice([0.5, 1, 1.0, 2.5]))
                    for t in range(n_threads)],
        resources=[ResourceSpec(name, rng.randint(1, 6), rng.randint(1, 2))
                   for name in resources])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_threads=st.integers(min_value=1, max_value=4),
       n_phases=st.integers(min_value=0, max_value=5))
def test_codes_decode_to_the_lowered_micro_ops(seed, n_threads, n_phases):
    workload = random_workload(seed, n_threads, n_phases)
    expected = [program.ops for program in lower_workload(workload)]
    # Twice: the second engine takes every phase from the memo.
    assert decode(EventEngine(workload)) == expected
    assert decode(EventEngine(workload)) == expected


def test_memoized_phases_keep_the_ground_truth():
    workload = random_workload(11, 3, 4)
    stepped = SteppedEngine(workload, record_grants=True).run()
    for _ in range(2):
        event = EventEngine(workload, record_grants=True).run()
        assert (event.makespan, event.threads, event.resources,
                event.grants) == (stepped.makespan, stepped.threads,
                                  stepped.resources, stepped.grants)


class TestPhaseCodes:
    @pytest.mark.parametrize("accesses", [5, 1000])
    def test_memo_stays_within_its_bound(self, accesses):
        table = PhaseCodes()
        first = Phase(work=5000, accesses=accesses, pattern="random", seed=0)
        oldest = table.phase(first, 1.0, 0)
        for seed in range(10 * MEMO_BYTES // (ENTRY_BYTES + 4 * accesses)):
            phase = Phase(work=5000, accesses=accesses, pattern="random",
                          seed=seed)
            table.phase(phase, 1.0, 0)
            assert table.nbytes <= MEMO_BYTES
        assert table.nbytes == sum(
            ENTRY_BYTES + codes.itemsize * len(codes)
            for codes in table._memo.values())
        assert table.nbytes > MEMO_BYTES * 0.9
        # The newest phases are kept, the oldest dropped (and lowered
        # again to the same codes).
        assert table.phase(phase, 1.0, 0) is table.phase(phase, 1.0, 0)
        again = table.phase(first, 1.0, 0)
        assert again is not oldest and again == oldest

    def test_a_phase_too_long_for_the_memo_is_not_kept(self):
        table = PhaseCodes()
        phase = Phase(work=0, accesses=MEMO_BYTES // 32)
        codes = table.phase(phase, 1.0, 0)
        assert len(codes) == MEMO_BYTES // 32 and table.nbytes == 0

    def test_a_hit_returns_the_kept_codes(self):
        table = PhaseCodes()
        phase = Phase(work=300, accesses=7, pattern="random", seed=3)
        first = table.phase(phase, 1.5, 9)
        again = table.phase(Phase(work=300, accesses=7, pattern="random",
                                  seed=3), 1.5, 9)
        assert again is first
        assert table.phase(phase, 1.5, 10) is not first

    @pytest.mark.parametrize("field,as_int,as_float", [
        ("work", 100, 100.0), ("accesses", 3, 3.0), ("seed", 5, 5.0),
        ("burst", 2, 2.0)])
    def test_int_and_equal_float_fields_never_share_an_entry(
            self, field, as_int, as_float):
        table = PhaseCodes()
        base = dict(work=100, accesses=3, pattern="random", seed=5, burst=1)
        table.phase(Phase(**dict(base, **{field: as_int})), 1.0, 0)
        size = table.nbytes
        try:
            table.phase(Phase(**dict(base, **{field: as_float})), 1.0, 0)
        except TypeError:
            # The float raises as expand_phase raises: nothing is kept.
            with pytest.raises(TypeError):
                expand_phase(Phase(**dict(base, **{field: as_float})),
                             1.0, salt=0)
            assert table.nbytes == size
        else:
            assert table.nbytes == 2 * size
            assert len(table._memo) == 2

    def test_int_and_float_power_never_share_an_entry(self):
        table = PhaseCodes()
        phase = Phase(work=100, accesses=3)
        table.phase(phase, 2, 0)
        table.phase(phase, 2.0, 0)
        assert len(table._memo) == 2

    def test_an_input_that_errors_still_raises_after_a_hit(self):
        table = PhaseCodes()
        table.phase(Phase(work=50, accesses=2, pattern="random", seed=1),
                    1.0, 0)
        with pytest.raises(TypeError):
            table.phase(Phase(work=50, accesses=2, pattern="random",
                              seed=1.0), 1.0, 0)
        with pytest.raises(TypeError):
            table.phase(Phase(work=50, accesses=2.0, pattern="front"),
                        1.0, 0)
        with pytest.raises(ValueError):
            table.phase(Phase(work=50, accesses=2, pattern="random"),
                        -1.0, 0)

    def test_unhashable_fields_lower_without_the_memo(self):
        table = PhaseCodes()
        phase = Phase(work=10, accesses=2, seed=[1])  # unused by uniform
        codes = table.phase(phase, 1.0, 0)
        access = table.access_code("bus")
        assert list(codes) == [10 // 2 << 3, access, 5 << 3, access]
        assert table.nbytes == 0

    def test_codes_beyond_32_bits_are_correct_but_not_kept(self):
        table = PhaseCodes()
        codes = table.phase(Phase(work=2 ** 40), 1.0, 0)
        assert list(codes) == [2 ** 40 << 3] and table.nbytes == 0
        workload = Workload(threads=[ThreadTrace("a", [Phase(work=2 ** 40)])],
                            processors=[ProcessorSpec("p")])
        assert EventEngine(workload).run().makespan == 2 ** 40

    def test_a_full_target_table_is_replaced_but_engines_keep_theirs(
            self, monkeypatch):
        monkeypatch.setattr(program_module, "_table", PhaseCodes())
        monkeypatch.setattr(program_module, "MAX_TARGETS", 2)
        workload = Workload(
            threads=[ThreadTrace("a", [Phase(work=10, accesses=1,
                                             resource=f"r{i}")
                                       for i in range(4)])],
            processors=[ProcessorSpec("p")],
            resources=[ResourceSpec(f"r{i}", 2) for i in range(4)])
        first = EventEngine(workload)
        assert len(first.table.targets) == 4
        single = Workload(threads=[ThreadTrace("a", [Phase(work=10,
                                                          accesses=1)])],
                          processors=[ProcessorSpec("p")])
        second = EventEngine(single)
        assert second.table is not first.table
        assert phase_codes() is second.table
        event, stepped = first.run(), SteppedEngine(workload).run()
        assert (event.makespan, event.threads, event.resources) == (
            stepped.makespan, stepped.threads, stepped.resources)


def test_an_access_to_an_unknown_resource_still_raises():
    workload = Workload(
        threads=[ThreadTrace("a", [Phase(work=10, accesses=2)])],
        processors=[ProcessorSpec("p")])
    workload.resources = [ResourceSpec("mem")]
    engine = EventEngine(workload)
    with pytest.raises(KeyError, match="bus"):
        engine.run()
