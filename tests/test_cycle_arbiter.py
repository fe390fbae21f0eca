"""Unit tests for bus arbiters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cycle import arbiter as arbiter_module
from repro.cycle.arbiter import (FifoArbiter, PriorityArbiter, Request,
                                 RoundRobinArbiter, make_arbiter)


def req(proc, time, seq, name=None):
    return Request(proc_index=proc, thread_name=name or f"t{proc}",
                   time=time, seq=seq)


class TestFifo:
    def test_earliest_request_wins(self):
        arbiter = FifoArbiter()
        waiting = [req(0, 10, 1), req(1, 5, 0)]
        assert arbiter.pick(waiting).proc_index == 1
        assert len(waiting) == 1

    def test_sequence_breaks_ties(self):
        arbiter = FifoArbiter()
        waiting = [req(1, 5, 7), req(0, 5, 3)]
        assert arbiter.pick(waiting).seq == 3


class TestRoundRobin:
    def test_rotates_after_grant(self):
        arbiter = RoundRobinArbiter()
        waiting = [req(0, 0, 0), req(1, 0, 1), req(2, 0, 2)]
        order = []
        while waiting:
            order.append(arbiter.pick(waiting).proc_index)
        assert order == [0, 1, 2]

    def test_skips_to_next_waiting_index(self):
        arbiter = RoundRobinArbiter()
        arbiter._last = 0
        waiting = [req(0, 0, 0), req(2, 0, 1)]
        assert arbiter.pick(waiting).proc_index == 2

    def test_wraps_around(self):
        arbiter = RoundRobinArbiter()
        arbiter._last = 2
        waiting = [req(0, 0, 0), req(1, 0, 1)]
        assert arbiter.pick(waiting).proc_index == 0

    def test_wraps_past_a_last_grant_above_every_waiter(self):
        arbiter = RoundRobinArbiter()
        arbiter._last = 3
        waiting = [req(0, 0, 0), req(1, 0, 1)]
        assert arbiter.pick(waiting).proc_index == 0

    def test_modulus_computed_once_per_pick(self, monkeypatch):
        calls = []
        original = arbiter_module._rotation_modulus

        def counting(waiting):
            calls.append(len(waiting))
            return original(waiting)

        monkeypatch.setattr(arbiter_module, "_rotation_modulus", counting)
        arbiter = RoundRobinArbiter()
        waiting = [req(p, 0, p) for p in range(40)]
        arbiter.pick(waiting)
        assert calls == [40]

    @settings(max_examples=60, deadline=None)
    @given(procs=st.lists(st.integers(min_value=0, max_value=9),
                          min_size=1, max_size=12),
           last=st.integers(min_value=-1, max_value=11))
    def test_grants_match_per_request_modulus(self, procs, last):
        """Same grant order as recomputing the modulus for every key:
        the first waiting index after ``last``, cyclically."""
        def reference_pick(waiting, last):
            def key(request):
                offset = request.proc_index - last - 1
                modulus = max([r.proc_index for r in waiting]
                              + [last]) + 2
                return (offset % modulus, request.seq)
            best = min(waiting, key=key)
            waiting.remove(best)
            return best

        waiting = [req(p, 0, seq) for seq, p in enumerate(procs)]
        expected = list(waiting)
        arbiter = RoundRobinArbiter()
        arbiter._last = last
        ref_last = last
        while waiting:
            got = arbiter.pick(waiting)
            want = reference_pick(expected, ref_last)
            ref_last = want.proc_index
            assert got is want


class TestPriority:
    def test_highest_priority_first(self):
        arbiter = PriorityArbiter({"hi": 5, "lo": 1})
        waiting = [req(0, 0, 0, "lo"), req(1, 0, 1, "hi")]
        assert arbiter.pick(waiting).thread_name == "hi"

    def test_fifo_among_equal_priority(self):
        arbiter = PriorityArbiter({})
        waiting = [req(0, 3, 1, "a"), req(1, 2, 0, "b")]
        assert arbiter.pick(waiting).thread_name == "b"

    def test_unknown_threads_default_zero(self):
        arbiter = PriorityArbiter({"known": -5})
        waiting = [req(0, 0, 0, "known"), req(1, 0, 1, "unknown")]
        assert arbiter.pick(waiting).thread_name == "unknown"


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("fifo", FifoArbiter),
        ("roundrobin", RoundRobinArbiter),
        ("priority", PriorityArbiter),
    ])
    def test_make_arbiter(self, name, cls):
        assert isinstance(make_arbiter(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_arbiter("magic")
