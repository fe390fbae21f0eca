"""Ground truth keyed by workload: one ISS run per workload per grid.

The ISS reads nothing from a spec but its workload (generator +
params), so ``iss`` artifacts of ``"workload"``-kind specs are stored
under :meth:`ScenarioSpec.workload_hash` while ``mesh`` and
``analytical`` stay on the full ``spec_hash``.  These tests pin:

* the key itself — a hypothesis property over every non-workload field;
* the saving, counter-proven — a model-ablation grid runs
  ``EventEngine.run`` and ``characterize`` once per distinct workload;
* payload identity — the ``iss`` artifact's bytes do not depend on
  which cell computed it first, and a two-worker sweep converges to
  the serial payloads;
* no silent prepass failure — a failing replay and a cell that
  falls back to the per-cell path are both counted with a reason.
"""

import dataclasses
import http.client
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cycle import EventEngine
from repro.engine import ESTIMATORS, ExecutionSession, artifact_keys
from repro.engine import session as session_module
from repro.scenario import ScenarioSpec
from repro.scenario.spec import SCHEDULERS
from repro.scenario.store import RunStore
from repro.sweepfabric import run_sharded_sweep
from repro.sweepfabric.grids import fig5_grid

ABLATION_MODELS = (None, "mm1", "md1", "constant")

# -- the key ------------------------------------------------------------

_json_scalars = st.one_of(st.none(), st.booleans(),
                          st.integers(-1000, 1000),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.text(max_size=6))
_params = st.dictionaries(st.text(min_size=1, max_size=8), _json_scalars,
                          max_size=4)
_generators = st.sampled_from(["uniform", "phm", "bursty", "dma"])

#: One strategy per non-workload field, each drawing a non-default
#: value the spec accepts structurally.
_EXTRAS = {
    "model": st.sampled_from(["mm1", "md1", "constant", "chenlin"]),
    "models": st.sampled_from(["mm1", "md1"]).map(
        lambda name: {"bus": {"name": name}}),
    "min_timeslice": st.floats(0.5, 100.0),
    "annotation": st.just("barrier"),
    "sync_policy": st.just("deferred"),
    "scheduler": st.sampled_from(SCHEDULERS),
    "trace": st.just(True),
    "fault_plan": st.integers(0, 99).map(lambda seed: {"seed": seed}),
    "budget": st.floats(0.1, 10.0).map(
        lambda seconds: {"max_wall_seconds": seconds}),
    "memo": st.integers(1, 64).map(lambda size: {"maxsize": size}),
}


@st.composite
def _extras(draw):
    names = draw(st.sets(st.sampled_from(sorted(_EXTRAS)), min_size=1))
    return {name: draw(_EXTRAS[name]) for name in sorted(names)}


class TestWorkloadHash:
    @settings(max_examples=200, deadline=None)
    @given(generator=_generators, params=_params, extras=_extras())
    def test_ignores_every_non_workload_field(self, generator, params,
                                              extras):
        plain = ScenarioSpec(generator=generator, params=params)
        dressed = ScenarioSpec(generator=generator, params=params,
                               **extras)
        assert dressed.workload_hash() == plain.workload_hash()
        # The full content address does see those fields.
        assert dressed.spec_hash() != plain.spec_hash()

    @settings(max_examples=200, deadline=None)
    @given(generator=_generators, params=_params)
    def test_equals_spec_hash_for_generator_and_params_only(
            self, generator, params):
        spec = ScenarioSpec(generator=generator, params=params)
        assert spec.workload_hash() == spec.spec_hash()

    @settings(max_examples=200, deadline=None)
    @given(a=st.tuples(_generators, _params),
           b=st.tuples(_generators, _params))
    def test_changes_with_generator_or_params(self, a, b):
        first = ScenarioSpec(generator=a[0], params=a[1])
        second = ScenarioSpec(generator=b[0], params=b[1])
        assume(first.canonical_json() != second.canonical_json())
        assert first.workload_hash() != second.workload_hash()

    def test_artifact_keys(self):
        spec = ScenarioSpec(generator="uniform", params={"seed": 1},
                            model={"name": "mm1"})
        keys = artifact_keys(spec)
        assert keys == {"iss": spec.workload_hash(),
                        "mesh": spec.spec_hash(),
                        "analytical": spec.spec_hash()}
        assert artifact_keys(spec, ("mesh",)) == {"mesh": spec.spec_hash()}


# -- the model-ablation grid --------------------------------------------

def ablation_grid():
    """The quick fig5 grid under the default model and three others."""
    base = fig5_grid(quick=True)
    return [ScenarioSpec.from_dict(
                dict(spec.to_dict(), **({} if model is None
                                        else {"model": {"name": model}})))
            for model in ABLATION_MODELS for spec in base]


@pytest.fixture
def counted(monkeypatch):
    """Count ``EventEngine.run`` and the session's ``characterize``."""
    counts = {"iss": 0, "characterize": 0}
    run = EventEngine.run
    characterize = session_module.characterize

    def counting_run(self):
        counts["iss"] += 1
        return run(self)

    def counting_characterize(workload):
        counts["characterize"] += 1
        return characterize(workload)

    monkeypatch.setattr(EventEngine, "run", counting_run)
    monkeypatch.setattr(session_module, "characterize",
                        counting_characterize)
    return counts


def _artifacts(store: RunStore, specs, estimator: str) -> dict:
    """key -> artifact payload minus wall_seconds, for every cell."""
    out = {}
    for spec in specs:
        key = artifact_keys(spec, (estimator,))[estimator]
        payload = store.get(key, estimator)
        assert payload is not None
        assert payload["spec_hash"] == key
        payload.pop("wall_seconds")
        out[key] = json.dumps(payload, sort_keys=True)
    return out


class TestModelAblation:
    def test_iss_and_characterize_once_per_workload(self, tmp_path,
                                                    counted):
        specs = ablation_grid()
        workloads = {spec.workload_hash() for spec in specs}
        assert len(specs) == len(ABLATION_MODELS) * len(workloads)
        cold = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                 jobs=1)
        assert cold.ok
        assert counted["iss"] == len(workloads)
        assert counted["characterize"] == len(workloads)
        reused = len(specs) - len(workloads)
        assert (f"ground truth: {len(workloads)} ISS runs computed, "
                f"{reused} reused ({len(workloads)} workloads)"
                in cold.summary())
        # Every reused ISS run reports the wall time stored with it.
        assert all(cell.runs["iss"]["wall_seconds"] > 0
                   for cell in cold.cells)

        warm = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                 jobs=1, resume=True)
        text = warm.summary()
        assert "recomputed estimator runs: 0" in text
        assert (f"ground truth: 0 ISS runs computed, {len(specs)} "
                f"reused ({len(workloads)} workloads)" in text)
        assert counted["iss"] == len(workloads)
        for a, b in zip(cold.cells, warm.cells):
            assert a.runs == b.runs

    def test_iss_artifact_bytes_independent_of_cell_order(self,
                                                          tmp_path):
        specs = ablation_grid()
        shuffled = list(specs)
        random.Random(7).shuffle(shuffled)
        assert shuffled != specs
        stores = []
        for name, grid in (("ordered", specs), ("shuffled", shuffled)):
            store = RunStore(tmp_path / name)
            with ExecutionSession(store=store) as session:
                session.map_comparisons(grid)
            stores.append(store)
        for estimator in ESTIMATORS:
            assert (_artifacts(stores[0], specs, estimator)
                    == _artifacts(stores[1], specs, estimator))

    def test_two_workers_converge_to_serial_payloads(self, tmp_path):
        specs = ablation_grid()
        serial = run_sharded_sweep(specs, tmp_path / "serial", shards=2,
                                   jobs=1)
        pooled = run_sharded_sweep(specs, tmp_path / "pooled", shards=2,
                                   jobs=2)
        assert serial.ok and pooled.ok
        # Workers may race on a shared ISS run, so no exact count here.
        counters = pooled.counters
        assert (counters["iss_runs_computed"] + counters["iss_runs_reused"]
                == len(specs))
        for estimator in ESTIMATORS:
            assert (_artifacts(RunStore(tmp_path / "serial"), specs,
                               estimator)
                    == _artifacts(RunStore(tmp_path / "pooled"), specs,
                                  estimator))

    def test_memo_is_dropped_after_the_grid(self, tmp_path):
        specs = ablation_grid()[:2]
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            session.map_comparisons(specs)
            assert session._profiles is None
            stats = session.stats()
        assert stats["iss_runs_computed"] == 2
        assert stats["iss_runs_reused"] == 0

    def test_concurrent_grids_share_one_memo_safely(self, tmp_path):
        """Threads evaluating grids on one session (the service's drain
        thread beside a caller) agree with a serial run, and the memo
        is gone once the last grid closes."""
        specs = [ScenarioSpec(generator="uniform",
                              params={"threads": 2, "phases": 2,
                                      "accesses": 20, "seed": seed},
                              model=model)
                 for seed in (1, 2) for model in (None, {"name": "mm1"})]
        serial = ExecutionSession().map_comparisons(
            specs, include=("analytical",))
        expected = [cell.value.queueing("analytical") for cell in serial]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(session.map_comparisons, specs,
                                           include=("analytical",))
                               for _ in range(6)]
                    outcomes = [future.result(timeout=120)
                                for future in futures]
                assert session._profiles is None
        finally:
            sys.setswitchinterval(switch)
        for cells in outcomes:
            assert [cell.value.queueing("analytical")
                    for cell in cells] == expected

    def test_default_model_iss_stays_under_spec_hash(self, tmp_path):
        spec = fig5_grid(quick=True)[0]
        assert spec.model is None
        store = RunStore(tmp_path / "s")
        ExecutionSession(store=store).comparison(spec, include=("iss",))
        assert (spec.spec_hash(), "iss") in store


# -- counted prepass failures -------------------------------------------

def _prepass_specs():
    """Three cells whose programs the compiled tier accepts (the
    constant model is closed-form)."""
    return [ScenarioSpec(generator="uniform",
                         params={"threads": 2, "phases": 2,
                                 "accesses": accesses, "seed": 3},
                         model={"name": "constant"})
            for accesses in (10, 40, 90)]


class TestGridBuilds:
    """A grid scope builds each workload once and keeps it only while
    a remaining cell needs it."""

    def two_model_grid(self):
        return [spec for spec in ablation_grid()
                if spec.model is None or spec.model.name == "mm1"]

    def test_cold_two_model_sweep_builds_each_workload_once(
            self, tmp_path, monkeypatch):
        specs = self.two_model_grid()
        workloads = {spec.workload_hash() for spec in specs}
        assert len(specs) == 2 * len(workloads)
        builds = []
        original = ScenarioSpec.build_workload
        monkeypatch.setattr(ScenarioSpec, "build_workload",
                            lambda spec: builds.append(1) or original(spec))
        result = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                   jobs=1)
        assert result.ok
        counters = result.counters
        assert (counters["workload_builds"] == counters["workloads"]
                == counters["iss_runs_computed"] == len(workloads)
                == len(builds))
        assert (f"({len(workloads)} workloads), {len(workloads)} "
                f"workload builds" in result.summary())

    def test_map_comparisons_builds_each_workload_once(self, tmp_path):
        specs = self.two_model_grid()
        workloads = {spec.workload_hash() for spec in specs}
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            cells = session.map_comparisons(specs)
            assert all(cell.ok for cell in cells)
            assert session.workload_builds == len(workloads)
            assert session._built is None

    def test_pool_workers_report_their_builds(self, tmp_path):
        specs = ablation_grid()[:2]
        assert len({spec.workload_hash() for spec in specs}) == 2
        with ExecutionSession(store=RunStore(tmp_path / "s"),
                              jobs=2) as session:
            cells = session.map_comparisons(specs)
            assert all(cell.ok for cell in cells)
            assert not any(cell.value.cached_runs for cell in cells)
            assert session.workload_builds == 2

    def test_prepass_and_its_cell_share_one_build(self, tmp_path):
        spec = ablation_grid()[0]
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            [cell] = session.map_comparisons([spec], batch_cells=-1)
            assert cell.ok and not cell.value.runs["mesh"].cached
            assert session.prepass_totals["cells_batched"] == 1
            assert session.workload_builds == 1

    def test_a_workload_is_kept_until_its_last_cell(self, tmp_path):
        specs = self.two_model_grid()
        base = [spec for spec in specs if spec.model is None]
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            with session.grid(specs):
                for spec in base:
                    session.comparison(spec)
                    # Its mm1 cell still needs the build.
                    assert spec.workload_hash() in session._built
                for spec in specs:
                    if spec.model is not None:
                        session.comparison(spec)
                        assert spec.workload_hash() not in session._built
                        assert spec.workload_hash() not in session._profiles
                assert session._built == {} and session._profiles == {}
            assert session.workload_builds == len(base)

    def test_an_all_distinct_grid_keeps_no_workload(self, tmp_path):
        specs = fig5_grid(quick=True)
        assert len({spec.workload_hash() for spec in specs}) == len(specs)
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            with session.grid(specs):
                for spec in specs:
                    session.comparison(spec)
                    assert session._built == {}
                    assert session._profiles == {}
            assert session.workload_builds == len(specs)


class TestPrepassFailures:
    def test_one_failing_cell_is_counted_and_recomputed(
            self, tmp_path, monkeypatch):
        from repro.core.kernel import HybridKernel

        specs = _prepass_specs()
        poisoned = {}
        replay = HybridKernel._replay

        def flaky_replay(kernel, program):
            if not poisoned:
                poisoned["kernel"] = kernel
            if kernel is poisoned["kernel"]:
                raise RuntimeError("injected replay failure")
            return replay(kernel, program)

        monkeypatch.setattr(HybridKernel, "_replay", flaky_replay)
        store = RunStore(tmp_path / "store")
        result = run_sharded_sweep(specs, store, shards=1, jobs=1,
                                   batch_cells=1, include=("mesh",))
        assert result.ok
        prepass = result.prepass
        assert prepass["cells_failed"] == 1
        assert prepass["cells_batched"] == len(specs) - 1
        assert prepass["failures"] == {"replay: RuntimeError": 1}
        text = result.summary()
        assert "failed=1" in text
        assert "prepass failure: replay: RuntimeError x1" in text
        # Every run was computed in this sweep: the prepass computed all
        # but the failed cell, and the per-cell path computed that one,
        # on the SoA engine too.
        assert result.counters["estimator_runs_recomputed"] == len(specs)
        assert result.counters["estimator_runs_cached"] == 0
        engines = sorted(cell.mesh_engine for cell in result.cells)
        assert engines == ["soa"] * len(specs)

    def test_bad_cell_does_not_fail_its_batch(self, tmp_path):
        good, other = _prepass_specs()[:2]
        # Constructed without validate(): the workload build raises.
        bad = dataclasses.replace(other,
                                  params=dict(other.params, bogus=1))
        with ExecutionSession(store=RunStore(tmp_path / "store"),
                              batch_cells=-1) as session:
            cells = session.map_comparisons([good, bad],
                                            include=("mesh",))
            totals = session.stats()["prepass"]
        assert cells[0].ok
        assert not cells[1].ok
        assert "bogus" in cells[1].error
        assert totals["cells_failed"] == 1
        assert totals["cells_batched"] == 1
        assert totals["failures"] == {"build: TypeError": 1}


# -- the service --------------------------------------------------------

def _analyze(port, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/v1/analyze", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def _stats(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read().decode())
    finally:
        conn.close()


class TestService:
    SPEC = {"generator": "uniform",
            "params": {"threads": 2, "phases": 3, "accesses": 24,
                       "seed": 5}}

    def test_model_variants_share_one_iss_run(self, tmp_path):
        from repro.service import ServiceConfig, ServiceHandle

        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               jobs=1, batch_cells=0,
                               quota_capacity=10_000,
                               quota_refill_per_second=10_000.0)
        variant = dict(self.SPEC, model={"name": "mm1"})
        with ServiceHandle(config) as handle:
            status, default = _analyze(handle.port, {"spec": self.SPEC})
            assert status == 200 and default["source"] == "computed"
            status, cold = _analyze(handle.port, {"spec": variant})
            assert status == 200 and cold["source"] == "mixed"
            status, warm = _analyze(handle.port, {"spec": variant})
            assert status == 200 and warm["source"] == "store"
            session = _stats(handle.port)["session"]
        assert session["iss_runs_computed"] == 1
        workload_hash = ScenarioSpec.from_dict(variant).workload_hash()
        assert workload_hash == default["spec_hash"]
        assert cold["spec_hash"] != default["spec_hash"]
        assert cold["runs"]["iss"] == warm["runs"]["iss"]
        assert cold["runs"]["iss"]["spec_hash"] == workload_hash
        assert cold["runs"]["iss"]["cached"] is True
        # Warm and cold responses carry the same fields and physics.
        for estimator in ESTIMATORS:
            cold_run = dict(cold["runs"][estimator], cached=None)
            warm_run = dict(warm["runs"][estimator], cached=None)
            assert cold_run == warm_run
