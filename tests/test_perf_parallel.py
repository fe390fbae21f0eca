"""Tests for the parallel experiment engine (repro.perf.parallel)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.contention import ChenLinModel
from repro.experiments.runner import run_comparisons_parallel
from repro.experiments.pareto import evaluate_designs
from repro.experiments.sweep import run_sweep
from repro.contention.calibrate import calibrate_model
from repro.perf.bench import environment_info, record_bench
from repro.perf.parallel import (CellError, CellResult, ParallelExecutor,
                                 _picklable, resolve_jobs)
from repro.workloads.synthetic import uniform_workload


def _square(x):
    """Module-level (picklable) work function for pool tests."""
    return x * x


def _explode_on_three(x):
    """Work function that fails for exactly one cell."""
    if x == 3:
        raise ValueError("three is right out")
    return x + 1


def _tiny_factory(x, seed):
    """Small deterministic sweep workload (picklable factory)."""
    return uniform_workload(threads=2, phases=2, work=300.0,
                            accesses=int(x), bus_service=2.0, seed=seed)


def _flaky_factory(x, seed):
    """Factory whose seed-2 instance always fails."""
    if seed == 2:
        raise RuntimeError("bad seed")
    return _tiny_factory(x, seed)


class TestResolveJobs:
    def test_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestCellResult:
    def test_ok_flag(self):
        assert CellResult(index=0, value=5).ok
        assert not CellResult(index=1, error="ValueError: x").ok

    def test_cell_error_carries_result(self):
        failed = CellResult(index=3, error="ValueError: x")
        err = CellError(failed)
        assert err.result is failed
        assert "cell 3" in str(err)


class TestRecordBench:
    def test_record_wraps_payload_with_environment(self, tmp_path):
        payload = {"speedup": 1.5, "cells": 4}
        path = record_bench("parallel", payload, out_dir=tmp_path / "o")
        assert path == tmp_path / "o" / "BENCH_parallel.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["bench"] == "parallel"
        assert record["results"] == payload
        assert record["environment"] == environment_info()
        assert record["environment"]["cpu_count"] >= 1
        assert record["recorded_at"].endswith("Z")


class TestSerialPath:
    def test_jobs_one_is_serial(self):
        assert ParallelExecutor(1).serial
        assert not ParallelExecutor(2).serial

    def test_map_preserves_order(self):
        results = ParallelExecutor(1).map(_square, [3, 1, 2])
        assert [r.value for r in results] == [9, 1, 4]
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)

    def test_map_captures_errors_per_cell(self):
        results = ParallelExecutor(1).map(_explode_on_three, [1, 3, 5])
        assert results[0].value == 2
        assert results[2].value == 6
        assert not results[1].ok
        assert "ValueError" in results[1].error

    def test_run_raises_on_first_failure(self):
        with pytest.raises(CellError) as info:
            ParallelExecutor(1).run(_explode_on_three, [1, 3, 5])
        assert info.value.result.index == 1

    def test_run_unwraps_values(self):
        assert ParallelExecutor(1).run(_square, [2, 3]) == [4, 9]

    def test_non_picklable_falls_back_to_serial(self):
        bonus = 10
        results = ParallelExecutor(4).map(lambda x: x + bonus, [1, 2])
        assert [r.value for r in results] == [11, 12]

    def test_picklable_probe(self):
        assert _picklable(_square, [1, 2])
        assert not _picklable(lambda x: x)


class TestParallelPath:
    def test_map_matches_serial(self):
        serial = ParallelExecutor(1).map(_square, list(range(8)))
        pooled = ParallelExecutor(4).map(_square, list(range(8)))
        assert serial == pooled

    def test_errors_captured_in_workers(self):
        results = ParallelExecutor(2).map(_explode_on_three, [1, 3, 5])
        assert results[0].value == 2
        assert not results[1].ok
        assert "ValueError" in results[1].error

    def test_single_item_stays_in_process(self):
        results = ParallelExecutor(4).map(_square, [6])
        assert results == [CellResult(index=0, value=36)]


class TestSweepEquivalence:
    def test_parallel_sweep_bit_identical(self):
        kwargs = dict(xs=[3, 6], seeds=(1, 2), model=ChenLinModel(),
                      include=("iss", "mesh"), reference="iss")
        serial = run_sweep(_tiny_factory, jobs=1, **kwargs)
        pooled = run_sweep(_tiny_factory, jobs=4, **kwargs)
        assert serial == pooled

    def test_failed_cells_recorded_not_fatal(self):
        points = run_sweep(_flaky_factory, xs=[3], seeds=(1, 2, 3),
                           include=("iss", "mesh"), jobs=1)
        (point,) = points
        assert len(point.failures) == 1
        assert "seed 2" in point.failures[0]
        assert "RuntimeError" in point.failures[0]
        # The surviving seeds still aggregate.
        assert point.queueing["iss"].count == 2

    def test_closure_factory_still_works_parallel(self):
        accesses = 4
        points = run_sweep(
            lambda x, seed: uniform_workload(threads=2, phases=2,
                                             work=300.0,
                                             accesses=accesses,
                                             seed=seed),
            xs=[0], seeds=(1,), include=("iss", "mesh"), jobs=4)
        assert points[0].queueing["iss"].count == 1


class TestBatchComparisons:
    def test_results_in_workload_order(self):
        workloads = [_tiny_factory(3, 1), _tiny_factory(6, 1)]
        results = run_comparisons_parallel(workloads, jobs=2,
                                           include=("iss", "mesh"))
        assert len(results) == 2
        assert all(r.ok for r in results)
        serial = run_comparisons_parallel(workloads, jobs=1,
                                          include=("iss", "mesh"))
        for pooled_cell, serial_cell in zip(results, serial):
            for name in ("iss", "mesh"):
                assert (pooled_cell.value.queueing(name)
                        == serial_cell.value.queueing(name))


class TestDesignEvaluation:
    def test_evaluate_designs_matches_serial(self):
        candidates = [2, 3, 4]
        assert (evaluate_designs(candidates, _square, jobs=2)
                == evaluate_designs(candidates, _square, jobs=1))


class TestCalibrationParallel:
    def test_calibrate_matches_serial(self):
        model = ChenLinModel()
        kwargs = dict(threads=2, phase_work=1_000.0,
                      access_sweep=(10, 40, 80), phases=2)
        serial = calibrate_model(model, jobs=1, **kwargs)
        pooled = calibrate_model(model, jobs=2, **kwargs)
        assert serial == pooled


class TestWarmPool:
    def test_pool_reused_across_map_calls(self):
        with ParallelExecutor(jobs=2) as executor:
            assert executor._pool is None  # lazy: no pool before use
            executor.map(_square, [1, 2, 3])
            pool = executor._pool
            assert pool is not None
            executor.map(_square, [4, 5, 6])
            assert executor._pool is pool  # warm: same pool, not respawned
        assert executor._pool is None  # context exit closes it

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(jobs=2)
        executor.map(_square, [1, 2])
        executor.close()
        assert executor._pool is None
        executor.close()  # second close is a no-op

    def test_map_after_close_respawns(self):
        executor = ParallelExecutor(jobs=2)
        executor.map(_square, [1, 2])
        executor.close()
        results = executor.map(_square, [3, 4])
        assert [r.value for r in results] == [9, 16]
        executor.close()

    def test_serial_executor_never_spawns_pool(self):
        with ParallelExecutor(jobs=1) as executor:
            executor.map(_square, [1, 2, 3])
            assert executor._pool is None

    def test_warm_pool_matches_serial_results(self):
        with ParallelExecutor(jobs=2) as executor:
            first = [r.value for r in executor.map(_square, [1, 2, 3])]
            second = [r.value for r in
                      executor.map(_explode_on_three, [1, 2, 3])]
        assert first == [1, 4, 9]
        assert second[:2] == [2, 3]


#: Holds a live two-worker pool, prints its worker PIDs, then idles
#: until killed.
_POOL_HOLDER = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.perf.parallel import ParallelExecutor
executor = ParallelExecutor(jobs=2)
executor.map(abs, [-1, -2, -3, -4])
print(" ".join(str(pid) for pid in executor._pool._processes), flush=True)
time.sleep(120)
"""


def _process_gone(pid: int) -> bool:
    """Whether ``pid`` has exited (reaped, or a zombie awaiting reap)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_parent_is_killed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    holder = subprocess.Popen([sys.executable, "-c", _POOL_HOLDER, src],
                              stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in holder.stdout.readline().split()]
        assert workers
        assert not any(_process_gone(pid) for pid in workers)
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not all(
            _process_gone(pid) for pid in workers):
        time.sleep(0.1)
    alive = [pid for pid in workers if not _process_gone(pid)]
    for pid in alive:  # do not leak them past a failing test
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"pool workers outlived their parent: {alive}"


def _sleepy(seconds):
    """Module-level cell that sleeps (picklable hang stand-in)."""
    import time

    time.sleep(seconds)
    return seconds


class TestPerCellTimeout:
    def test_hung_cell_tagged_and_rest_survive(self):
        with ParallelExecutor(jobs=2) as executor:
            results = executor.map(_sleepy, [0.01, 30.0, 0.01],
                                   timeout=0.5)
            assert [r.ok for r in results] == [True, False, True]
            hung = results[1]
            assert hung.timed_out
            assert hung.error.startswith("CellTimeout")
            # The pool (with its hung worker) was discarded...
            assert executor._pool is None
            # ...and the next map starts from a healthy one.
            again = executor.map(_square, [2, 3])
            assert [r.value for r in again] == [4, 9]

    def test_timeout_not_triggered_by_fast_cells(self):
        with ParallelExecutor(jobs=2) as executor:
            results = executor.map(_sleepy, [0.0, 0.0, 0.0],
                                   timeout=30.0)
            assert all(r.ok for r in results)
            assert executor._pool is not None  # pool kept warm

    def test_serial_path_ignores_timeout(self):
        # In-process cells cannot be preempted; documented behavior is
        # to run them to completion regardless of the timeout value.
        with ParallelExecutor(jobs=1) as executor:
            results = executor.map(_sleepy, [0.05], timeout=0.001)
        assert results[0].ok

    def test_invalid_timeout_rejected(self):
        with ParallelExecutor(jobs=2) as executor:
            with pytest.raises(ValueError):
                executor.map(_square, [1, 2], timeout=0.0)
            with pytest.raises(ValueError):
                executor.map(_square, [1, 2], timeout=-1.0)

    def test_map_specs_passes_timeout_through(self):
        from repro.scenario.spec import ScenarioSpec

        specs = [ScenarioSpec(generator="uniform",
                              params={"accesses": 10, "seed": s})
                 for s in (1, 2)]
        with ParallelExecutor(jobs=2) as executor:
            results = executor.map_specs(
                lambda spec: spec.spec_hash(), specs, timeout=60.0)
        # Non-picklable lambda falls back to serial; results intact.
        assert [r.value for r in results] == [s.spec_hash()
                                              for s in specs]

    def test_timed_out_flag_only_for_timeout_errors(self):
        assert CellResult(index=0, error="CellTimeout: slow").timed_out
        assert not CellResult(index=0, error="ValueError: x").timed_out
        assert not CellResult(index=0, value=1).timed_out
