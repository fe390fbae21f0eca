"""Tests for the experiment harness (runner, report, figure modules)."""

import pytest

from repro.cycle import SteppedEngine
from repro.experiments import (format_table, percent_error, run_comparison,
                               series_block, sparkline)
from repro.experiments.fig4 import average_errors, render_fig4, run_fig4
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.fig6 import render_fig6, run_fig6
from repro.experiments.table1 import render_table1, run_table1
from repro.workloads.synthetic import bursty_workload, uniform_workload


class TestPercentError:
    def test_basic(self):
        assert percent_error(110, 100) == pytest.approx(10.0)
        assert percent_error(90, 100) == pytest.approx(10.0)

    def test_zero_reference_zero_value(self):
        assert percent_error(0.0, 0.0) == 0.0

    def test_zero_reference_nonzero_value(self):
        assert percent_error(5.0, 0.0) == float("inf")


class TestRunComparison:
    def test_all_estimators_present(self):
        comparison = run_comparison(uniform_workload(phases=3))
        assert set(comparison.runs) == {"iss", "mesh", "analytical"}

    def test_percentages_share_a_basis(self):
        comparison = run_comparison(uniform_workload(phases=3))
        for run in comparison.runs.values():
            assert run.percent_queueing >= 0.0
        # Ratio of percentages equals ratio of queueing cycles.
        iss = comparison.runs["iss"]
        mesh = comparison.runs["mesh"]
        if iss.queueing_cycles > 0:
            assert (mesh.percent_queueing / iss.percent_queueing
                    == pytest.approx(mesh.queueing_cycles
                                     / iss.queueing_cycles, rel=1e-6))

    def test_error_and_speedup(self):
        comparison = run_comparison(uniform_workload(phases=3))
        assert comparison.error("mesh") >= 0.0
        assert comparison.speedup("mesh", "iss") > 0.0

    def test_subset_of_estimators(self):
        comparison = run_comparison(uniform_workload(phases=2),
                                    include=("mesh",))
        assert set(comparison.runs) == {"mesh"}

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_comparison(uniform_workload(phases=2), include=("magic",))

    def test_stepped_iss_agrees_with_event(self):
        workload = uniform_workload(phases=2, work=2_000, accesses=30)
        event = run_comparison(workload, include=("iss",))
        stepped = SteppedEngine(workload).run()
        assert (event.runs["iss"].queueing_cycles
                == float(stepped.queueing_cycles))

    def test_hybrid_beats_analytical_on_bursty(self):
        # The paper's core claim, as a regression test.
        workload = bursty_workload(threads=4, bursts=8,
                                   heavy_accesses=400, light_accesses=10)
        comparison = run_comparison(workload)
        assert comparison.error("mesh") < comparison.error("analytical")


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, "x"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_sparkline_range(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_handles_inf_and_nan(self):
        line = sparkline([1.0, float("inf"), float("nan"), 2.0])
        assert line[1] == "?" and line[2] == "?"

    def test_series_block(self):
        text = series_block("Demo", [1, 2], [("s1", [3.0, 4.0])])
        assert "Demo" in text
        assert "s1" in text


class TestFigureModules:
    """Smoke runs of the figure harnesses on miniature configurations."""

    def test_fig4_tiny(self):
        rows = run_fig4(cache_kb=8, proc_counts=(2,), points=1024)
        assert len(rows) == 1
        assert rows[0].iss > 0
        averages = average_errors(rows)
        assert set(averages) == {"mesh", "analytical"}
        assert "Figure 4" in render_fig4(rows)

    def test_fig5_tiny(self):
        rows = run_fig5(bus_delays=(4, 8), busy_cycles_target=20_000)
        assert len(rows) == 2
        assert "Figure 5" in render_fig5(rows)

    def test_fig6_tiny(self):
        rows = run_fig6(idle_sweep=(0.0, 0.9), bus_delays=(4,),
                        busy_cycles_target=20_000, seeds=(1,))
        assert len(rows) == 2
        assert "Figure 6" in render_fig6(rows)

    def test_table1_tiny(self):
        rows = run_table1(proc_counts=(2,), cache_kbs=(8,), points=1024)
        assert len(rows) == 1
        assert rows[0].iss_seconds > 0
        assert rows[0].mesh_seconds > 0
        assert "Table 1" in render_table1(rows)

    def test_table1_speedup_meaningful(self):
        rows = run_table1(proc_counts=(2,), cache_kbs=(512,), points=4096)
        # The paper claims >= 100x; leave slack for CI noise but insist
        # on a large gap.
        assert rows[0].speedup > 20
