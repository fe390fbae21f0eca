"""ExecutionSession facade: golden equivalence + counter exactness.

The facade's contract is that the refactor changed *where* the
store-probe -> fallback-probe -> run -> store-commit sequence lives,
not *what* it computes.  The equivalence suite here proves it across
an 80-configuration grid (5 generators x 2 seeds x 2 contention
models x 2 min_timeslice x 2 memo settings): every store payload the
session commits is byte-identical — canonical-JSON-compared, modulo
``wall_seconds``, the only environment measurement — to an inlined
reference evaluation spelling out the pre-refactor ``run_comparison``
body estimator by estimator.

The rest pins the facade's operational guarantees: a comparison whose
every estimator hits the store performs **zero** workload builds, the
all-or-nothing :meth:`probe`, exact counters on the serial path,
absorbed counters on the multiprocess path, and the thin-wrapper
equivalence of :func:`run_comparison` itself.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analytical import characterize, estimate_queueing
from repro.cycle import EventEngine
from repro.engine import ESTIMATORS, ExecutionSession, artifact_keys
from repro.experiments.runner import run_comparison
from repro.scenario import ScenarioSpec
from repro.scenario.store import RunStore

GENERATOR_PARAMS = {
    "uniform": {"threads": 2, "phases": 3, "accesses": 24},
    "bursty": {"threads": 2, "bursts": 2},
    "critical_section": {"threads": 2, "rounds": 2},
    "dma": {"cpu_threads": 2, "cpu_phases": 2},
    "smp": {"threads": 2, "phases": 2, "accesses_per_phase": 60},
}


def iter_golden_configs():
    """The 80-cell equivalence grid (5 x 2 x 2 x 2 x 2)."""
    for generator in sorted(GENERATOR_PARAMS):
        for seed in (0, 7):
            for model in ("chenlin", "mm1"):
                for mts in (0.0, 6.0):
                    for memo in (None, {"maxsize": 16}):
                        yield generator, seed, model, mts, memo


def spec_for(generator, seed, model, mts, memo) -> ScenarioSpec:
    return ScenarioSpec(
        generator=generator,
        params=dict(GENERATOR_PARAMS[generator], seed=seed),
        model={"name": model},
        min_timeslice=mts,
        memo=memo,
    )


def artifact_key(spec: ScenarioSpec, estimator: str) -> str:
    """Where an estimator's artifact lives: ``iss`` under the workload
    hash (the ISS reads nothing else), the rest under the spec hash."""
    if estimator == "iss":
        return spec.workload_hash()
    return spec.spec_hash()


def reference_payloads(spec: ScenarioSpec) -> dict:
    """The pre-refactor ``run_comparison`` body, inlined estimator by
    estimator, producing exactly the payloads it committed (each named
    by the key it is stored under)."""
    from repro.engine.session import _detail_payload

    model = spec.build_model()
    budget = spec.build_budget()
    memo_cache = spec.build_memo()
    workload = spec.build_workload()
    profiles = characterize(workload)
    busy = sum(p.busy_cycles for p in profiles.values())

    def payload(estimator, queueing, result):
        percent = 100.0 * queueing / busy if busy > 0 else 0.0
        return {
            "spec_hash": artifact_key(spec, estimator),
            "estimator": estimator,
            "queueing_cycles": queueing,
            "percent_queueing": percent,
            "wall_seconds": 0.0,
            "detail": _detail_payload(estimator, result),
        }

    iss = EventEngine(workload, budget=budget).run()
    mesh = spec.run(memo_cache=memo_cache)
    analytical = estimate_queueing(workload, model=model,
                                   models=spec.build_models(),
                                   profiles=profiles)
    return {
        "iss": payload("iss", float(iss.queueing_cycles), iss),
        "mesh": payload("mesh", mesh.queueing_cycles, mesh),
        "analytical": payload("analytical",
                              analytical.queueing_cycles, analytical),
    }


def canonical(payload: dict) -> str:
    """Canonical JSON form with the environment measurement removed."""
    scrubbed = dict(payload)
    scrubbed.pop("wall_seconds", None)
    return json.dumps(scrubbed, sort_keys=True)


class TestGoldenEquivalence:
    def test_grid_is_eighty_configs(self):
        assert len(list(iter_golden_configs())) == 80

    @pytest.mark.parametrize(
        "generator,seed,model,mts,memo", list(iter_golden_configs()),
        ids=lambda value: str(value).replace(" ", ""))
    def test_store_payloads_byte_identical_to_reference(
            self, tmp_path, generator, seed, model, mts, memo):
        spec = spec_for(generator, seed, model, mts, memo)
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as session:
            comparison = session.comparison(spec)
        reference = reference_payloads(spec)
        assert set(comparison.runs) == set(ESTIMATORS)
        for estimator in ESTIMATORS:
            committed = store.get(artifact_key(spec, estimator),
                                  estimator)
            assert committed is not None
            assert canonical(committed) == canonical(
                reference[estimator])
            # The in-memory run reports the same physics it committed.
            run = comparison.runs[estimator]
            assert run.queueing_cycles == committed["queueing_cycles"]
            assert run.percent_queueing == committed["percent_queueing"]
            assert not run.cached

    def test_runner_wrapper_is_the_facade(self, tmp_path):
        """``run_comparison`` (the legacy entry point) and the facade
        produce identical physics and identical store bytes."""
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store_a = RunStore(tmp_path / "a")
        store_b = RunStore(tmp_path / "b")
        legacy = run_comparison(spec, store=store_a)
        with ExecutionSession(store=store_b) as session:
            facade = session.comparison(spec)
        assert legacy.spec_hash == facade.spec_hash == spec.spec_hash()
        for estimator in ESTIMATORS:
            assert (legacy.runs[estimator].queueing_cycles
                    == facade.runs[estimator].queueing_cycles)
            key = artifact_key(spec, estimator)
            assert canonical(store_a.get(key, estimator)) \
                == canonical(store_b.get(key, estimator))


class TestZeroBuildWarmPath:
    def test_full_store_hit_builds_nothing(self, tmp_path):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as warmup:
            warmup.comparison(spec)
            assert warmup.workload_builds == 1
            assert warmup.estimator_runs_computed == len(ESTIMATORS)
        with ExecutionSession(store=store) as session:
            comparison = session.comparison(spec)
        assert session.workload_builds == 0
        assert session.estimator_runs_computed == 0
        assert session.estimator_runs_cached == len(ESTIMATORS)
        assert comparison.cached_runs == len(ESTIMATORS)
        assert all(run.cached for run in comparison.runs.values())

    def test_warm_physics_match_cold_physics(self, tmp_path):
        spec = spec_for("smp", 7, "mm1", 6.0, {"maxsize": 16})
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as cold_session:
            cold = cold_session.comparison(spec)
        with ExecutionSession(store=store) as warm_session:
            warm = warm_session.comparison(spec)
        for estimator in ESTIMATORS:
            assert (warm.runs[estimator].queueing_cycles
                    == cold.runs[estimator].queueing_cycles)
            assert (warm.runs[estimator].percent_queueing
                    == cold.runs[estimator].percent_queueing)


def _count_builds(monkeypatch):
    """Record every ``ScenarioSpec.build_workload`` call's spec hash."""
    calls = []
    original = ScenarioSpec.build_workload

    def counted(self):
        calls.append(self.spec_hash())
        return original(self)

    monkeypatch.setattr(ScenarioSpec, "build_workload", counted)
    return calls


class TestOneBuildPerColdCell:
    @pytest.mark.parametrize("include", [("mesh",), ESTIMATORS],
                             ids=["mesh", "iss+mesh+analytical"])
    def test_cold_cell_builds_its_workload_once(self, tmp_path,
                                                monkeypatch, include):
        """The MESH kernel lowers the workload the cell already built
        for its characterization (and ISS), never a second copy."""
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        calls = _count_builds(monkeypatch)
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            comparison = session.comparison(spec, include=include)
        assert comparison.cached_runs == 0
        assert calls == [spec.spec_hash()]
        assert session.workload_builds == 1


_NO_NUMPY_PREPASS = """
import json, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from test_engine_session import spec_for
from repro.engine import ExecutionSession
from repro.scenario.store import RunStore
specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
         for seed in (0, 7)]
store = RunStore(sys.argv[1])
with ExecutionSession(store=store, jobs=1, batch_cells=-1) as session:
    results = session.map_comparisons(specs, include=("mesh",))
print(json.dumps({
    "prepass": session.prepass_totals,
    "ok": [result.ok for result in results],
    "computed": session.estimator_runs_computed,
    "stored": [(spec.spec_hash(), "mesh") in store for spec in specs],
}))
"""


class TestNoSilentDetailLoss:
    @pytest.mark.parametrize("batch_cells", [
        pytest.param(0, id="per-cell"),
        pytest.param(-1, id="prepass")])
    def test_export_failure_fails_the_cell_and_stores_nothing(
            self, tmp_path, monkeypatch, batch_cells):
        """A result that cannot be exported is the cell's counted
        error, never a stored payload with ``detail: None``."""
        import repro.core.export as export

        def broken(result):
            raise RuntimeError("export broke")

        monkeypatch.setattr(export, "result_to_dict", broken)
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store, jobs=1,
                              batch_cells=batch_cells) as session:
            [result] = session.map_comparisons([spec], include=("mesh",))
        assert not result.ok
        assert "RuntimeError" in result.error
        assert "export broke" in result.error
        assert store.stores == 0
        assert (spec.spec_hash(), "mesh") not in store
        if batch_cells:
            assert session.prepass_totals["failures"] == {
                "export: RuntimeError": 1}


class TestProbe:
    def test_probe_is_all_or_nothing(self, tmp_path):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store = RunStore(tmp_path / "store")
        session = ExecutionSession(store=store)
        keys = artifact_keys(spec)
        assert session.probe(keys) is None
        session.comparison(spec, include=("mesh",))
        # Partial coverage: the full-estimator probe still misses.
        assert session.probe(keys) is None
        assert session.probe(artifact_keys(spec, ("mesh",))) is not None
        session.comparison(spec)
        payloads = session.probe(keys)
        assert payloads is not None
        assert set(payloads) == set(ESTIMATORS)

    def test_probe_without_store_is_none(self):
        assert ExecutionSession().probe({"mesh": "deadbeef"}) is None


class TestCounters:
    def test_serial_map_counts_exactly(self, tmp_path):
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store, jobs=1) as session:
            results = session.map_comparisons(specs, include=("mesh",))
            assert all(result.ok for result in results)
            assert session.comparisons == 2
            assert session.estimator_runs_computed == 2
            assert session.workload_builds == 2
            # Second pass: everything replays, nothing builds.
            session.map_comparisons(specs, include=("mesh",))
            assert session.comparisons == 4
            assert session.estimator_runs_computed == 2
            assert session.estimator_runs_cached == 2
            assert session.workload_builds == 2

    def test_prepass_then_cells_never_recompute(self, tmp_path):
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store, jobs=1,
                              batch_cells=-1) as session:
            results = session.map_comparisons(specs, include=("mesh",))
            assert session.prepass_totals["cells_batched"] == 2
            # The prepass computed every mesh cell (two builds); the
            # per-cell pass built nothing and reports the prepass's
            # runs as computed in this call.
            assert session.workload_builds == 2
            assert session.estimator_runs_computed == 2
            assert session.estimator_runs_cached == 0
            assert [r.value.runs["mesh"].cached for r in results] == [
                False, False]

    def test_prepass_without_numpy_leaves_cells_to_the_per_cell_path(
            self, tmp_path):
        """Without NumPy the prepass still compiles and replays every
        cold cell: the compile pass is pure Python.  (The id names the
        fallback this used to pin.)"""
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests_dir.parent / "src"), str(tests_dir)]))
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_PREPASS, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True)
        report = json.loads(proc.stdout)
        assert report["prepass"]["cells_cold"] == 2
        assert report["prepass"]["cells_skipped"] == 0
        assert report["prepass"]["cells_batched"] == 2
        assert report["prepass"]["compiles"] == 2
        assert report["ok"] == [True, True]
        assert report["computed"] == 2
        assert report["stored"] == [True, True]

    def test_prepass_runs_count_as_computed(self, tmp_path):
        """A run the prepass computed inside the same call is computed,
        not cached: tallies and ``cached`` flags equal a per-cell
        pass's on a cold grid, on its warm replay, and on a grid that
        mixes warm cells with a new one — in-process, and on a pool
        whose workers replay what the parent's prepass stored."""
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        fresh = spec_for("uniform", 11, "chenlin", 0.0, None)
        for jobs, include in ((1, ("mesh", "analytical")),
                              (2, ("iss", "mesh", "analytical"))):
            seen = {}
            for batch_cells in (-1, 0):
                store = RunStore(tmp_path / f"store{jobs}{batch_cells}")
                with ExecutionSession(store=store, jobs=jobs,
                                      batch_cells=batch_cells) as session:
                    passes = []
                    for grid in (specs, specs, specs + [fresh]):
                        results = session.map_comparisons(
                            grid, include=include)
                        stats = session.stats()
                        passes.append((
                            stats["estimator_runs_computed"],
                            stats["estimator_runs_cached"],
                            [r.value.cached_runs for r in results],
                            [{name: run.cached for name, run
                              in r.value.runs.items()}
                             for r in results]))
                seen[batch_cells] = passes
            assert seen[-1] == seen[0], jobs
            n = len(include)
            assert seen[0][0][:3] == (2 * n, 0, [0, 0])
            assert seen[0][1][:3] == (2 * n, 2 * n, [n, n])
            assert seen[0][2][:3] == (3 * n, 4 * n, [n, n, 0])

    def test_prepass_times_the_compile(self, tmp_path, monkeypatch):
        """A prepass payload's ``wall_seconds`` spans the kernel build,
        the compile and the replay, as the per-cell mesh timing does."""
        import repro.core.compile as compile_mod

        compile_kernel = compile_mod.compile_kernel

        def slow_compile(kernel):
            time.sleep(0.05)
            return compile_kernel(kernel)

        monkeypatch.setattr(compile_mod, "compile_kernel", slow_compile)
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store = RunStore(tmp_path / "store")
        counters = ExecutionSession(store=store).prepass([spec])
        assert counters["cells_batched"] == 1
        assert store.get(spec.spec_hash(), "mesh")["wall_seconds"] >= 0.05

    def test_multiprocess_map_absorbs_worker_counts(self, tmp_path):
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store, jobs=2) as session:
            results = session.map_comparisons(specs, include=("mesh",))
            assert all(result.ok for result in results)
            assert session.comparisons == 2
            assert session.estimator_runs_computed == 2
            assert session.estimator_runs_cached == 0
        for spec in specs:
            assert store.get(spec.spec_hash(), "mesh") is not None

    def test_stats_snapshot_shape(self, tmp_path):
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            session.comparison(
                spec_for("uniform", 0, "chenlin", 0.0, None),
                include=("analytical",))
            stats = session.stats()
        assert stats["comparisons"] == 1
        assert stats["estimator_runs_computed"] == 1
        assert stats["workload_builds"] == 1
        assert stats["store"]["stores"] == 1
        assert "prepass" in stats and "pool" in stats


class TestSessionLifecycle:
    def test_close_is_idempotent_and_pool_is_lazy(self):
        session = ExecutionSession(jobs=1)
        assert session.stats()["pool"]["warm"] is False
        _ = session.executor
        assert session.stats()["pool"]["warm"] is True
        session.close()
        session.close()
        assert session.stats()["pool"]["warm"] is False

    def test_spec_identity_kwargs_are_rejected(self):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="inside the"):
            ExecutionSession().comparison(spec, min_timeslice=3.0)

    def test_unknown_estimator_is_rejected(self):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        with pytest.raises(ValueError, match="unknown estimator"):
            ExecutionSession().comparison(spec, include=("oracle",))
