"""Tests for the sharded sweep supervisor (repro.sweepfabric.supervisor)."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.runner import ESTIMATORS, run_comparison
from repro.robustness.budget import RunBudget
from repro.robustness.faults import RetryPolicy
from repro.scenario.generators import register_generator
from repro.scenario.spec import ScenarioSpec
from repro.scenario.store import RunStore
from repro.sweepfabric import (ChaosPlan, SweepSupervisor,
                               run_sharded_sweep)
from repro.sweepfabric.manifest import ShardManifest
from repro.sweepfabric.supervisor import is_transient
from repro.workloads.synthetic import uniform_workload


def _grid(accesses=(10, 60, 160)):
    """Small, fast calibration-style grid of real cells."""
    return [ScenarioSpec(generator="uniform",
                         params={"threads": 2, "phases": 2,
                                 "work": 500.0, "accesses": a,
                                 "bus_service": 4.0, "seed": 3})
            for a in accesses]


def _flaky_uniform(marker_dir=None, fail_always=False, accesses=60,
                   **kwargs):
    """Generator that fails transiently once (or always) per cell.

    The error message embeds ``BrokenProcessPool`` so the supervisor
    classifies it as transient without needing a real dead worker.
    """
    marker = Path(marker_dir) / f"failed-{accesses}"
    if fail_always or not marker.exists():
        if not fail_always:
            marker.write_text("x")
        raise RuntimeError("BrokenProcessPool (simulated worker death)")
    return uniform_workload(accesses=accesses, **kwargs)


@pytest.fixture(autouse=True)
def _flaky_generator():
    """Register the flaky generator, then scrub the global registry
    (other test modules assert registry completeness)."""
    from repro.scenario import generators

    register_generator("test-flaky", _flaky_uniform, replace=True)
    yield
    generators._GENERATORS.pop("test-flaky", None)


def _flaky_grid(tmp_path, accesses=(10, 60), fail_always=False):
    (tmp_path / "markers").mkdir(exist_ok=True)
    return [ScenarioSpec(generator="test-flaky",
                         params={"marker_dir": str(tmp_path / "markers"),
                                 "fail_always": fail_always,
                                 "accesses": a, "threads": 2,
                                 "phases": 2, "work": 500.0,
                                 "bus_service": 4.0, "seed": 3})
            for a in accesses]


#: Fast retry policy for tests: no real sleeping happens anyway
#: (tests inject a recording ``sleep``), but keep delays tiny.
FAST_RETRY = RetryPolicy(kind="fixed", delay=0.001, max_retries=2)


class TestIsTransient:
    def test_classification(self):
        assert is_transient("BrokenProcessPool: a process was killed")
        assert is_transient("CellTimeout: cell did not finish in 5s")
        assert not is_transient("ValueError: bad spec")
        assert not is_transient(None)
        assert not is_transient("")


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_matches_serial_run_comparison(self, tmp_path, shards):
        specs = _grid()
        result = run_sharded_sweep(specs, tmp_path / "store",
                                   shards=shards, jobs=1)
        assert result.ok
        assert [c.index for c in result.cells] == [0, 1, 2]
        for cell, spec in zip(result.cells, specs):
            reference = run_comparison(spec)
            for estimator in ESTIMATORS:
                assert (cell.runs[estimator]["queueing_cycles"]
                        == reference.runs[estimator].queueing_cycles)
                assert (cell.runs[estimator]["percent_queueing"]
                        == reference.runs[estimator].percent_queueing)

    def test_shard_count_does_not_change_results(self, tmp_path):
        specs = _grid()
        one = run_sharded_sweep(specs, tmp_path / "s1", shards=1, jobs=1)
        many = run_sharded_sweep(specs, tmp_path / "s5", shards=5,
                                 jobs=1)
        for a, b in zip(one.cells, many.cells):
            for estimator in ESTIMATORS:
                # Physics only: wall_seconds is a timing measurement.
                assert (a.runs[estimator]["queueing_cycles"]
                        == b.runs[estimator]["queueing_cycles"])
                assert (a.runs[estimator]["percent_queueing"]
                        == b.runs[estimator]["percent_queueing"])


class TestResume:
    def test_warm_resume_replays_everything(self, tmp_path):
        specs = _grid()
        cold = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                 jobs=1)
        warm = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                 jobs=1, resume=True)
        assert warm.ok
        assert warm.counters["cells_from_cache"] == len(specs)
        assert warm.counters["cells_computed"] == 0
        assert warm.counters["estimator_runs_recomputed"] == 0
        # The proof mechanism: parent-store hit counters saw every
        # estimator artifact replayed.
        assert (warm.store_stats["hits"]
                == len(specs) * len(ESTIMATORS))
        assert warm.store_stats["misses"] == 0
        for a, b in zip(cold.cells, warm.cells):
            assert a.runs == b.runs

    def test_warm_resume_writes_no_checkpoint(self, tmp_path):
        """Every shard of a filled store is already ``done`` on disk, so
        a warm resume leaves the manifest file untouched."""
        specs = _grid()
        path = tmp_path / "manifest.json"
        run_sharded_sweep(specs, tmp_path / "store", shards=2, jobs=1,
                          manifest_path=path)
        before = os.stat(path)
        saved = ShardManifest.load(path)
        warm = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                 jobs=1, manifest_path=path, resume=True)
        assert warm.counters["cells_from_cache"] == len(specs)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)
        reloaded = ShardManifest.load(path)
        assert ({sid: r.to_dict() for sid, r in reloaded.records.items()}
                == {sid: r.to_dict() for sid, r in saved.records.items()})
        assert warm.manifest.states()["done"] == 2

    def test_warm_resume_never_walks_the_store_tree(self, tmp_path,
                                                    monkeypatch):
        """A resume over a filled store reads the store's counters,
        not its directory tree: ``Path.rglob`` is never called."""
        specs = _grid()
        run_sharded_sweep(specs, tmp_path / "store", shards=2, jobs=1)
        supervisor = SweepSupervisor(specs, tmp_path / "store",
                                     shards=2, jobs=1, resume=True)
        walks = []
        original = Path.rglob

        def counted(self, pattern):
            walks.append((str(self), pattern))
            return original(self, pattern)

        monkeypatch.setattr(Path, "rglob", counted)
        warm = supervisor.run()
        assert warm.counters["cells_from_cache"] == len(specs)
        assert walks == []
        assert set(warm.store_stats) == {"hits", "misses", "stores",
                                         "corrupt", "tmp_swept"}

    def test_partial_store_computes_only_missing(self, tmp_path):
        specs = _grid()
        store = RunStore(tmp_path / "store")
        # Pre-populate just the first cell.
        run_comparison(specs[0], store=store)
        result = run_sharded_sweep(specs, RunStore(tmp_path / "store"),
                                   shards=2, jobs=1, resume=True)
        assert result.ok
        assert result.counters["cells_from_cache"] == 1
        assert result.counters["cells_computed"] == 2
        assert (result.counters["estimator_runs_recomputed"]
                == 2 * len(ESTIMATORS))

    def test_resume_rejects_mismatched_plan(self, tmp_path):
        specs = _grid()
        manifest = tmp_path / "manifest.json"
        run_sharded_sweep(specs, tmp_path / "store", shards=2, jobs=1,
                          manifest_path=manifest)
        with pytest.raises(ConfigurationError):
            run_sharded_sweep(specs, tmp_path / "store", shards=3,
                              jobs=1, manifest_path=manifest,
                              resume=True)

    def test_default_manifest_lives_in_store(self, tmp_path):
        result = run_sharded_sweep(_grid(), tmp_path / "store",
                                   shards=2, jobs=1)
        assert result.manifest.path.exists()
        assert (tmp_path / "store") in result.manifest.path.parents


class TestRetries:
    def test_transient_failure_retried_with_backoff(self, tmp_path):
        specs = _flaky_grid(tmp_path)
        sleeps = []
        result = run_sharded_sweep(specs, tmp_path / "store", shards=1,
                                   jobs=1, retry=FAST_RETRY,
                                   sleep=sleeps.append)
        assert result.ok
        assert result.counters["attempts_total"] == 2
        assert sleeps == [FAST_RETRY.delay_of(1)]
        assert result.manifest.states()["done"] == 1

    def test_poison_transient_quarantines_after_max_retries(
            self, tmp_path):
        specs = _flaky_grid(tmp_path, accesses=(10,), fail_always=True)
        sleeps = []
        result = run_sharded_sweep(specs, tmp_path / "store", shards=1,
                                   jobs=1, retry=FAST_RETRY,
                                   sleep=sleeps.append)
        assert not result.ok
        assert len(sleeps) == FAST_RETRY.max_retries
        assert result.manifest.states()["quarantined"] == 1
        [failure] = result.failures
        assert "quarantined" in failure.error

    def test_deterministic_failure_fails_fast(self, tmp_path):
        # Unknown generator kwarg -> TypeError in the cell, which must
        # not be retried (same spec, same exception, forever).
        poison = ScenarioSpec(generator="uniform",
                              params={"bogus_knob": 1})
        specs = _grid(accesses=(10,)) + [poison]
        sleeps = []
        result = run_sharded_sweep(specs, tmp_path / "store", shards=1,
                                   jobs=1, retry=FAST_RETRY,
                                   sleep=sleeps.append)
        assert not result.ok
        assert sleeps == []  # zero retry rounds spent on poison
        assert result.counters["attempts_total"] == 1
        # Graceful degradation: the healthy cell's result survives.
        healthy, failed = result.cells
        assert healthy.ok and not failed.ok
        assert result.quarantined
        assert "quarantined" in result.summary()

    def test_quarantine_does_not_block_other_shards(self, tmp_path):
        specs = _grid() + _flaky_grid(tmp_path, accesses=(30,),
                                      fail_always=True)
        result = run_sharded_sweep(specs, tmp_path / "store", shards=4,
                                   jobs=1, retry=FAST_RETRY,
                                   sleep=lambda _: None)
        assert not result.ok
        assert len(result.failures) == 1
        assert sum(1 for c in result.cells if c.ok) == 3
        states = result.manifest.states()
        assert states["quarantined"] >= 1
        assert states["done"] + states["quarantined"] == 4


class TestWorkStealing:
    def test_budget_exhausted_shard_is_stolen(self, tmp_path):
        # One transiently-failing cell plus an instantly-tripping shard
        # budget: the shard gives up after round one and the steal pass
        # (where the flaky marker now exists) completes the cell.
        specs = _flaky_grid(tmp_path, accesses=(10,))
        result = run_sharded_sweep(
            specs, tmp_path / "store", shards=1, jobs=1,
            retry=FAST_RETRY, sleep=lambda _: None,
            shard_budget=RunBudget(max_wall_seconds=1e-9))
        assert result.ok
        assert result.counters["cells_stolen"] == 1
        record = next(iter(result.manifest.records.values()))
        assert record.cells_stolen == 1
        assert record.state == "done"
        assert "work stealing" in result.summary()

    def test_float_budget_accepted(self, tmp_path):
        result = run_sharded_sweep(_grid(accesses=(10,)),
                                   tmp_path / "store", shards=1,
                                   jobs=1, shard_budget=30.0)
        assert result.ok


class TestValidation:
    def test_store_is_required(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_sharded_sweep(_grid(), None, shards=1, jobs=1)

    def test_chaos_kills_need_workers(self, tmp_path):
        specs = _grid(accesses=(10,))
        chaos = ChaosPlan.kill_first(specs, 1,
                                     marker_dir=tmp_path / "markers")
        with pytest.raises(ConfigurationError):
            run_sharded_sweep(specs, tmp_path / "store", shards=1,
                              jobs=1, chaos=chaos)

    def test_estimator_subset(self, tmp_path):
        result = run_sharded_sweep(_grid(accesses=(10,)),
                                   tmp_path / "store", shards=1,
                                   jobs=1, include=("mesh",))
        assert result.ok
        assert set(result.cells[0].runs) == {"mesh"}
        assert result.counters["estimator_runs_total"] == 1


class TestPrepass:
    @pytest.mark.parametrize("include, jobs", [
        (("mesh", "analytical"), 1), (("mesh",), 1),
        (("iss", "mesh", "analytical"), 2)],
        ids=["mesh+analytical", "mesh", "all-on-a-pool"])
    def test_prepass_runs_count_as_computed(self, tmp_path, include,
                                            jobs):
        """The mesh runs a sweep's own prepass computed are computed,
        not cached: a cold ``batch_cells=-1`` sweep reports the tallies
        of a per-cell sweep — also when pool workers replay what the
        parent's prepass stored — and its warm resume replays
        everything."""
        specs = _grid()
        sweeps = {
            batch_cells: run_sharded_sweep(
                specs, tmp_path / f"store{batch_cells}", shards=2,
                jobs=jobs, include=include, batch_cells=batch_cells)
            for batch_cells in (-1, 0)}
        batched, per_cell = sweeps[-1], sweeps[0]
        assert batched.prepass["cells_batched"] == len(specs)
        for name in ("cells_from_cache", "cells_computed",
                     "estimator_runs_total", "estimator_runs_cached",
                     "estimator_runs_recomputed"):
            assert batched.counters[name] == per_cell.counters[name], name
        assert batched.counters["estimator_runs_cached"] == 0
        assert "cached=" not in batched.summary()
        assert [cell.mesh_backend for cell in batched.cells] == [
            "interp"] * len(specs)
        for a, b in zip(batched.cells, per_cell.cells):
            for name in include:
                assert a.queueing(name) == b.queueing(name)
        warm = run_sharded_sweep(specs, tmp_path / "store-1", shards=2,
                                 jobs=1, include=include, batch_cells=-1,
                                 resume=True)
        assert warm.counters["cells_from_cache"] == len(specs)
        assert warm.counters["estimator_runs_recomputed"] == 0
