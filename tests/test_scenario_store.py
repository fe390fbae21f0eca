"""Tests for the content-addressed run store and code versioning."""

import os
from pathlib import Path

import pytest

from repro.scenario import (CODE_VERSION_ENV, RunStore, ScenarioSpec,
                            as_store, code_version)


def spec(seed=1):
    return ScenarioSpec(generator="uniform",
                        params={"threads": 2, "phases": 2,
                                "accesses": 30, "seed": seed})


PAYLOAD = {"estimator": "mesh", "queueing_cycles": 123.5,
           "percent_queueing": 1.5, "wall_seconds": 0.01}


class TestCodeVersion:
    def test_shape(self):
        version = code_version()
        assert len(version) == 12
        assert all(c in "0123456789abcdef" for c in version)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "pinned-v1")
        assert RunStore.__module__  # keep import referenced
        # code_version() caches the computed digest but must honor the
        # env override on every call — CI pins it across jobs.
        assert code_version() == "pinned-v1"

    def test_stable_within_process(self):
        assert code_version() == code_version()


class TestRunStore:
    def test_miss_then_hit(self, tmp_path):
        store = RunStore(tmp_path)
        key = spec().spec_hash()
        assert store.get(key, "mesh") is None
        store.put(key, "mesh", PAYLOAD)
        assert store.get(key, "mesh") == PAYLOAD
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == \
            (1, 1, 1)

    def test_contains_and_count(self, tmp_path):
        store = RunStore(tmp_path)
        key = spec().spec_hash()
        assert (key, "mesh") not in store
        store.put(key, "mesh", PAYLOAD)
        store.put(key, "iss", PAYLOAD)
        assert (key, "mesh") in store
        assert store.count() == 2

    def test_estimators_are_separate_artifacts(self, tmp_path):
        store = RunStore(tmp_path)
        key = spec().spec_hash()
        store.put(key, "mesh", PAYLOAD)
        assert store.get(key, "iss") is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        key = spec().spec_hash()
        store.put(key, "mesh", PAYLOAD)
        path = store.path_for(key, "mesh")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.get(key, "mesh") is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(spec().spec_hash(), "mesh", PAYLOAD)
        leftovers = [name for _, _, names in os.walk(tmp_path)
                     for name in names if not name.endswith(".json")]
        assert leftovers == []

    def test_put_recreates_a_tree_removed_under_the_handle(self, tmp_path):
        import shutil

        store = RunStore(tmp_path / "store")
        key = spec().spec_hash()
        store.put(key, "mesh", PAYLOAD)
        shutil.rmtree(tmp_path / "store")
        # The handle remembers the directory it made; the put must
        # notice it is gone and make it again.
        store.put(key, "mesh", PAYLOAD)
        store.put(key, "iss", PAYLOAD)
        assert store.get(key, "mesh") == PAYLOAD
        assert store.get(key, "iss") == PAYLOAD
        assert store.orphan_tmp() == 0

    def test_put_writes_mode_0600_bytes_through_a_tmp_name(
            self, tmp_path, monkeypatch):
        import json

        store = RunStore(tmp_path)
        key = spec().spec_hash()
        renamed = []
        replace = os.replace
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: renamed.append(src)
                            or replace(src, dst))
        path = store.put(key, "mesh", PAYLOAD)
        assert path == store.path_for(key, "mesh")
        assert path.read_bytes() == json.dumps(
            PAYLOAD, sort_keys=True).encode()
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o600 & ~umask
        # The temp file sits beside the artifact and ends in ".tmp", so
        # sweep_tmp reaps a crashed writer's debris.
        [tmp] = renamed
        assert tmp.startswith(str(path)) and tmp.endswith(".tmp")

    def test_put_skips_debris_holding_its_tmp_name(self, tmp_path,
                                                   monkeypatch):
        import itertools

        from repro.scenario import store as store_module

        store = RunStore(tmp_path)
        key = spec().spec_hash()
        path = store.path_for(key, "mesh")
        path.parent.mkdir(parents=True)
        debris = Path(f"{path}.{os.getpid()}.0.tmp")
        debris.write_text("{")
        monkeypatch.setattr(store_module, "_tmp_serial", itertools.count())
        store.put(key, "mesh", PAYLOAD)
        assert store.get(key, "mesh") == PAYLOAD
        assert debris.read_text() == "{"

    def test_code_versions_isolate_artifacts(self, tmp_path):
        key = spec().spec_hash()
        old = RunStore(tmp_path, version="v-old")
        new = RunStore(tmp_path, version="v-new")
        old.put(key, "mesh", PAYLOAD)
        assert new.get(key, "mesh") is None
        assert old.get(key, "mesh") == PAYLOAD

    def test_path_partitions_by_hash_prefix(self, tmp_path):
        store = RunStore(tmp_path, version="v1")
        key = spec().spec_hash()
        path = str(store.path_for(key, "mesh"))
        assert str(tmp_path) in path
        assert "v1" in path
        assert key[:2] in path.split(os.sep)


class TestAsStore:
    def test_none_passthrough(self):
        assert as_store(None) is None

    def test_store_passthrough(self, tmp_path):
        store = RunStore(tmp_path)
        assert as_store(store) is store

    def test_path_coercion(self, tmp_path):
        store = as_store(str(tmp_path))
        assert isinstance(store, RunStore)
        store.put(spec().spec_hash(), "mesh", PAYLOAD)
        assert store.count() == 1


class TestRunnerIntegration:
    def test_comparison_replays_from_store(self, tmp_path):
        from repro.experiments.runner import run_comparison

        store = RunStore(tmp_path)
        cold = run_comparison(spec(), store=store)
        assert cold.cached_runs == 0
        assert store.stats()["stores"] == 3
        warm = run_comparison(spec(), store=store)
        assert warm.cached_runs == 3
        assert all(run.cached for run in warm.runs.values())
        for name in cold.runs:
            assert (warm.runs[name].queueing_cycles
                    == cold.runs[name].queueing_cycles)

    def test_spec_hash_recorded_on_comparison(self, tmp_path):
        from repro.experiments.runner import run_comparison

        comparison = run_comparison(spec())
        assert comparison.spec_hash == spec().spec_hash()

    def test_conflicting_kwargs_rejected_with_spec(self):
        from repro.contention import make_model
        from repro.core.errors import ConfigurationError
        from repro.experiments.runner import run_comparison

        with pytest.raises(ConfigurationError):
            run_comparison(spec(), model=make_model("mm1"))

    def test_store_ignored_for_plain_workloads(self, tmp_path):
        # A workload object has no content hash, so the store is
        # silently skipped (sweeps pass store= for every cell kind).
        from repro.experiments.runner import run_comparison
        from repro.workloads.synthetic import uniform_workload

        store = RunStore(tmp_path)
        workload = uniform_workload(threads=2, phases=2, accesses=30)
        comparison = run_comparison(workload, store=store)
        assert comparison.spec_hash is None
        assert comparison.cached_runs == 0
        assert store.stats()["stores"] == 0


class TestReadCache:
    """``get`` keeps artifact bytes in memory while a ``stat`` of the
    file still matches; every lookup still sees what is on disk."""

    def test_repeat_get_skips_the_open(self, tmp_path, monkeypatch):
        import builtins

        store = RunStore(tmp_path)
        key = spec().spec_hash()
        store.put(key, "mesh", PAYLOAD)
        assert store.get(key, "mesh") == PAYLOAD
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda *a, **k: opened.append(a[0])
                            or real_open(*a, **k))
        assert store.get(key, "mesh") == PAYLOAD
        assert opened == []
        assert store.hits == 2

    def test_callers_never_share_a_payload(self, tmp_path):
        store = RunStore(tmp_path)
        key = spec().spec_hash()
        store.put(key, "mesh", dict(PAYLOAD, detail={"kind": "hybrid"}))
        first = store.get(key, "mesh")
        first["detail"]["kind"] = "mutated"
        assert store.get(key, "mesh")["detail"]["kind"] == "hybrid"

    def test_put_and_in_place_writes_are_seen(self, tmp_path):
        store = RunStore(tmp_path)
        key = spec().spec_hash()
        store.put(key, "mesh", PAYLOAD)
        assert store.get(key, "mesh") == PAYLOAD
        changed = dict(PAYLOAD, queueing_cycles=7.0)
        store.put(key, "mesh", changed)
        assert store.get(key, "mesh") == changed
        store.path_for(key, "mesh").write_bytes(b"{torn json")
        assert store.get(key, "mesh") is None
        assert store.corrupt == 1
        store.path_for(key, "mesh").unlink()
        assert store.get(key, "mesh") is None
        assert (store.corrupt, store.misses) == (1, 2)

    def test_cache_is_bounded_in_bytes(self, tmp_path, monkeypatch):
        from repro.scenario import store as store_module

        monkeypatch.setattr(store_module, "READ_CACHE_BYTES", 64 * 600)
        store = RunStore(tmp_path)
        keys = [spec(seed).spec_hash() for seed in range(100)]
        for key in keys:
            store.put(key, "mesh", dict(PAYLOAD, pad="x" * 400))
            assert store.get(key, "mesh")["pad"] == "x" * 400
        held = sum(len(data) for _, data in store._read_cache.values())
        assert held == store._read_cache_bytes <= 64 * 600
        assert len(store._read_cache) < len(keys)
        # The newest artifacts are the ones kept.
        assert store.path_for(keys[-1], "mesh").as_posix() in {
            Path(path).as_posix() for path in store._read_cache}

    def test_pickled_store_starts_with_an_empty_cache(self, tmp_path):
        import pickle

        store = RunStore(tmp_path)
        key = spec().spec_hash()
        store.put(key, "mesh", PAYLOAD)
        store.get(key, "mesh")
        clone = pickle.loads(pickle.dumps(store))
        assert clone._read_cache == {} and clone._read_cache_bytes == 0
        assert clone.get(key, "mesh") == PAYLOAD


class TestCorruptionCounters:
    def test_missing_artifact_is_plain_miss(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get("0" * 64, "mesh") is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_torn_artifact_counts_corrupt_and_miss(self, tmp_path):
        store = RunStore(tmp_path)
        store.put("0" * 64, "mesh", PAYLOAD)
        store.path_for("0" * 64, "mesh").write_bytes(b"{torn json")
        assert store.get("0" * 64, "mesh") is None
        assert store.corrupt == 1
        assert store.misses == 1
        # Healing: a fresh put makes the artifact readable again.
        store.put("0" * 64, "mesh", PAYLOAD)
        assert store.get("0" * 64, "mesh") == PAYLOAD

    def test_stats_report_corruption_fields(self, tmp_path):
        store = RunStore(tmp_path)
        stats = store.stats()
        assert stats["corrupt"] == 0
        assert stats["tmp_swept"] == 0
        assert stats["orphan_tmp"] == 0


class TestTmpSweep:
    def _orphan(self, root, age_seconds):
        import os
        import time as _time

        root.mkdir(parents=True, exist_ok=True)
        path = root / "tmpdebris.tmp"
        path.write_text("{")
        stamp = _time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return path

    def test_open_sweeps_stale_tmp(self, tmp_path):
        orphan = self._orphan(tmp_path, age_seconds=3600)
        store = RunStore(tmp_path)
        assert store.tmp_swept == 1
        assert not orphan.exists()

    def test_open_spares_fresh_tmp(self, tmp_path):
        fresh = self._orphan(tmp_path, age_seconds=0)
        store = RunStore(tmp_path)
        assert store.tmp_swept == 0
        assert fresh.exists()
        # Explicit zero-age sweep (no writers running) removes it.
        assert store.sweep_tmp(max_age=0.0) == 1
        assert not fresh.exists()

    def test_worker_handles_can_skip_sweep(self, tmp_path):
        orphan = self._orphan(tmp_path, age_seconds=3600)
        store = RunStore(tmp_path, tmp_max_age=None)
        assert store.tmp_swept == 0
        assert orphan.exists()
        assert store.orphan_tmp() == 1
        assert store.stats()["orphan_tmp"] == 1

    def test_sweep_ignores_real_artifacts(self, tmp_path):
        store = RunStore(tmp_path)
        store.put("0" * 64, "mesh", PAYLOAD)
        assert store.sweep_tmp(max_age=0.0) == 0
        assert store.get("0" * 64, "mesh") == PAYLOAD
