"""Unit tests for workload lowering to cycle-engine programs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cycle.program import lower_workload
from repro.workloads.trace import (BarrierOp, IdleOp, Phase, ProcessorSpec,
                                   ResourceSpec, ThreadTrace, Workload,
                                   expand_phase)


def simple_workload(items_a, items_b=None, powers=(1.0, 1.0)):
    threads = [ThreadTrace("a", items_a, affinity="p0")]
    if items_b is not None:
        threads.append(ThreadTrace("b", items_b, affinity="p1"))
    return Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}", power)
                    for i, power in enumerate(powers)],
        resources=[ResourceSpec("bus", 4)],
    )


class TestExpandPhase:
    def test_pure_compute(self):
        ops = expand_phase(Phase(work=100), 1.0)
        assert ops == [("compute", 100)]

    def test_uniform_spacing_conserves_cycles_and_accesses(self):
        phase = Phase(work=103, accesses=10)
        ops = expand_phase(phase, 1.0)
        compute = sum(arg for kind, arg in ops if kind == "compute")
        accesses = sum(1 for kind, _ in ops if kind == "access")
        assert compute == 103
        assert accesses == 10

    def test_front_pattern(self):
        ops = expand_phase(Phase(work=50, accesses=3, pattern="front"), 1.0)
        assert [kind for kind, _ in ops] == ["access"] * 3 + ["compute"]

    def test_back_pattern(self):
        ops = expand_phase(Phase(work=50, accesses=3, pattern="back"), 1.0)
        assert [kind for kind, _ in ops] == ["compute"] + ["access"] * 3

    def test_random_pattern_deterministic_per_seed(self):
        phase = Phase(work=500, accesses=20, pattern="random", seed=42)
        assert expand_phase(phase, 1.0, salt=7) == expand_phase(
            phase, 1.0, salt=7)

    def test_random_pattern_salt_changes_layout(self):
        phase = Phase(work=500, accesses=20, pattern="random", seed=42)
        assert expand_phase(phase, 1.0, salt=1) != expand_phase(
            phase, 1.0, salt=2)

    def test_random_pattern_conserves_totals(self):
        phase = Phase(work=977, accesses=31, pattern="random", seed=5)
        ops = expand_phase(phase, 1.0, salt=3)
        compute = sum(arg for kind, arg in ops if kind == "compute")
        accesses = sum(1 for kind, _ in ops if kind == "access")
        assert compute == 977
        assert accesses == 31

    @settings(max_examples=200, deadline=None)
    @given(work=st.integers(min_value=0, max_value=5000),
           accesses=st.integers(min_value=1, max_value=80),
           seed=st.integers(min_value=0, max_value=2**20),
           salt=st.integers(min_value=0, max_value=2**32 - 1),
           burst=st.sampled_from([1, 4]),
           power=st.sampled_from([0.5, 1.0, 1.25]))
    def test_random_pattern_draws_match_randrange(self, work, accesses,
                                                  seed, salt, burst, power):
        """The inlined draws are ``random.Random.randrange``'s."""
        phase = Phase(work=work, accesses=accesses, pattern="random",
                      seed=seed, burst=burst)
        cycles = int(round(work / power))
        rng = random.Random((seed << 20) ^ salt ^ cycles ^ (accesses << 40))
        cuts = sorted(rng.randrange(cycles + 1) for _ in range(accesses))
        access = ("access", "bus" if burst == 1 else ("bus", burst))
        expected = []
        previous = 0
        for cut in cuts:
            if cut - previous:
                expected.append(("compute", cut - previous))
            expected.append(access)
            previous = cut
        if cycles - previous:
            expected.append(("compute", cycles - previous))
        assert expand_phase(phase, power, salt=salt) == expected

    def test_random_pattern_rejects_negative_cycles(self):
        phase = Phase(work=100, accesses=3, pattern="random", seed=1)
        with pytest.raises(ValueError):
            expand_phase(phase, -1.0)

    def test_power_scales_compute(self):
        ops = expand_phase(Phase(work=100), 2.0)
        assert ops == [("compute", 50)]

    def test_zero_work_with_accesses(self):
        ops = expand_phase(Phase(work=0, accesses=2), 1.0)
        assert [kind for kind, _ in ops] == ["access", "access"]

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            Phase(work=1, pattern="zigzag")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Phase(work=-1)
        with pytest.raises(ValueError):
            Phase(work=1, accesses=-1)


class TestLowerWorkload:
    def test_affinity_mapping(self):
        workload = simple_workload([Phase(work=10)], [Phase(work=20)])
        programs = lower_workload(workload)
        assert programs[0].processor.name == "p0"
        assert programs[1].processor.name == "p1"

    def test_unpinned_threads_mapped_in_order(self):
        workload = Workload(
            threads=[ThreadTrace("a", [Phase(work=10)]),
                     ThreadTrace("b", [Phase(work=10)])],
            processors=[ProcessorSpec("x"), ProcessorSpec("y")],
        )
        programs = lower_workload(workload)
        assert programs[0].processor.name == "x"
        assert programs[1].processor.name == "y"

    def test_too_many_threads_rejected(self):
        workload = Workload(
            threads=[ThreadTrace("a", []), ThreadTrace("b", [])],
            processors=[ProcessorSpec("x")],
        )
        with pytest.raises(ValueError):
            lower_workload(workload)

    def test_double_claim_rejected(self):
        workload = Workload(
            threads=[ThreadTrace("a", [], affinity="x"),
                     ThreadTrace("b", [], affinity="x")],
            processors=[ProcessorSpec("x"), ProcessorSpec("y")],
        )
        with pytest.raises(ValueError):
            lower_workload(workload)

    def test_barrier_and_idle_lowered(self):
        workload = simple_workload(
            [Phase(work=10), BarrierOp("b0"), IdleOp(cycles=50)],
            [BarrierOp("b0")])
        programs = lower_workload(workload)
        kinds = [kind for kind, _ in programs[0].ops]
        assert kinds == ["compute", "barrier", "idle"]

    def test_uneven_barrier_crossings_rejected(self):
        workload = simple_workload(
            [BarrierOp("b0"), BarrierOp("b0")],
            [BarrierOp("b0")])
        with pytest.raises(ValueError):
            lower_workload(workload)

    def test_program_totals(self):
        workload = simple_workload(
            [Phase(work=100, accesses=5), Phase(work=50, accesses=3)])
        program = lower_workload(workload)[0]
        assert program.total_compute() == 150
        assert program.total_accesses() == 8
        assert program.total_accesses("bus") == 8
        assert program.total_accesses("dma") == 0

    def test_zero_idle_dropped(self):
        workload = simple_workload([IdleOp(cycles=0)])
        program = lower_workload(workload)[0]
        assert program.ops == []
