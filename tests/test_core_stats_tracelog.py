"""Unit tests for statistics assembly and the trace log."""

import pytest

from repro.contention import ConstantModel, NullModel
from repro.core import consume
from repro.core.stats import SimulationResult, ThreadStats
from repro.core.tracelog import TraceLog

from _helpers import make_kernel, simple_thread


class TestSimulationResult:
    def test_queueing_cycles_sums_thread_penalties(self):
        kernel = make_kernel(2, model=ConstantModel(1.0))
        kernel.add_thread(simple_thread("a", [consume(100, {"bus": 10})]))
        kernel.add_thread(simple_thread("b", [consume(100, {"bus": 5})]))
        result = kernel.run()
        assert result.queueing_cycles == pytest.approx(
            result.threads["a"].penalty + result.threads["b"].penalty)

    def test_queueing_and_busy_cycles_are_left_folds(self):
        """The sums are uncompensated on every CPython: 3.12's float
        ``sum()`` would return 1.0 here and break the golden bits."""
        threads = {name: ThreadStats(name, base_time=value, penalty=value,
                                     regions=1, finish_time=0.0)
                   for name, value in zip("abc", [1e16, 1.0, -1e16])}
        result = SimulationResult(makespan=0.0, threads=threads,
                                  processors={}, resources={},
                                  slices_analyzed=0, slices_merged=0,
                                  regions_committed=3)
        assert result.queueing_cycles == 0.0
        assert result.busy_cycles == 0.0

    def test_percent_queueing_bases(self):
        kernel = make_kernel(2, model=ConstantModel(1.0))
        kernel.add_thread(simple_thread("a", [consume(100, {"bus": 10})]))
        kernel.add_thread(simple_thread("b", [consume(100, {"bus": 10})]))
        result = kernel.run()
        busy_pct = result.percent_queueing("busy")
        makespan_pct = result.percent_queueing("makespan")
        assert busy_pct == pytest.approx(100.0 * 20.0 / 200.0)
        assert makespan_pct == pytest.approx(100.0 * 20.0 / 110.0)
        with pytest.raises(ValueError):
            result.percent_queueing("nonsense")

    def test_percent_queueing_zero_denominator(self):
        kernel = make_kernel(1)
        result = kernel.run()
        assert result.percent_queueing() == 0.0

    def test_thread_total_time(self):
        kernel = make_kernel(2, model=ConstantModel(2.0))
        kernel.add_thread(simple_thread("a", [consume(100, {"bus": 10})]))
        kernel.add_thread(simple_thread("b", [consume(100, {"bus": 10})]))
        result = kernel.run()
        stats = result.threads["a"]
        assert stats.total_time == pytest.approx(
            stats.base_time + stats.penalty)

    def test_resource_mean_wait(self):
        kernel = make_kernel(2, model=ConstantModel(1.5))
        kernel.add_thread(simple_thread("a", [consume(100, {"bus": 10})]))
        kernel.add_thread(simple_thread("b", [consume(100, {"bus": 10})]))
        result = kernel.run()
        assert result.resources["bus"].mean_wait() == pytest.approx(1.5)

    def test_processor_utilization(self):
        kernel = make_kernel(2, model=NullModel())
        kernel.add_thread(simple_thread("a", [consume(100)], affinity="p0"))
        result = kernel.run()
        assert result.processors["p0"].utilization(
            result.makespan) == pytest.approx(1.0)
        assert result.processors["p1"].utilization(
            result.makespan) == 0.0

    def test_summary_renders(self):
        kernel = make_kernel(2, model=ConstantModel(1.0))
        kernel.add_thread(simple_thread("a", [consume(100, {"bus": 10})]))
        kernel.add_thread(simple_thread("b", [consume(100, {"bus": 10})]))
        result = kernel.run()
        text = result.summary()
        assert "makespan" in text
        assert "thread a" in text
        assert "shared bus" in text


class TestTraceLog:
    def test_records_lifecycle_events(self):
        kernel = make_kernel(1, trace=True)
        kernel.add_thread(simple_thread("a", [consume(100)]))
        kernel.run()
        kinds = [event.kind for event in kernel.trace.events]
        assert "start" in kinds
        assert "commit" in kinds

    def test_commits_are_time_ordered(self):
        kernel = make_kernel(2, model=ConstantModel(1.0), trace=True)
        kernel.add_thread(simple_thread(
            "a", [consume(100, {"bus": 10}), consume(30, {"bus": 2})]))
        kernel.add_thread(simple_thread("b", [consume(70, {"bus": 8})]))
        kernel.run()
        times = [event.time for event in kernel.trace.commits()]
        assert times == sorted(times)

    def test_penalty_events_recorded_under_contention(self):
        kernel = make_kernel(2, model=ConstantModel(1.0), trace=True)
        kernel.add_thread(simple_thread("a", [consume(100, {"bus": 10})]))
        kernel.add_thread(simple_thread("b", [consume(100, {"bus": 10})]))
        kernel.run()
        assert kernel.trace.of_kind("penalty")

    def test_render_produces_lanes(self):
        kernel = make_kernel(2, model=NullModel(), trace=True)
        kernel.add_thread(simple_thread("a", [consume(100)], affinity="p0"))
        kernel.add_thread(simple_thread("b", [consume(50)], affinity="p1"))
        kernel.run()
        rendered = kernel.trace.render()
        assert "p0" in rendered and "p1" in rendered
        assert "#" in rendered

    def test_render_empty(self):
        assert TraceLog().render() == "(empty trace)"

    def test_no_trace_by_default(self):
        kernel = make_kernel(1)
        assert kernel.trace is None
