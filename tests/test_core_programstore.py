"""Compiled programs and the mesh prepass: fidelity, batching, storage.

Three claims under test:

* **Bit identity of compiled replays** — a program compiled from a
  kernel and replayed through the kernel's own loop (``_replay``, the
  call an ``engine="soa"`` kernel's ``run`` makes) must produce
  hex-identical results, whatever the composition or order of the
  cells replayed one after another.  Verified over the equivalence kernels, the
  ``golden_soa.json`` sync configs, and the full 80-configuration
  golden matrix (which, tracing, must stay out of the compiled subset
  entirely — its object-engine equality is pinned by
  ``test_core_soa``).
* **The prepass writes only run-store artifacts** — the artifacts it
  commits are exactly what per-cell ``run_comparison`` writes (modulo
  ``wall_seconds``, a wall-clock measurement), land under the running
  code version, leave no ``*.tmp`` debris (a crashed writer's is swept
  when the store opens), and a warm run store leaves it nothing to
  compile.
* **Execution-only knobs** — ``batch_cells`` never changes an
  artifact and never enters ``spec_hash``.
"""

import json
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_scenarios import (SCENARIOS, config_key, iter_configs,
                              make_fault_plan)
from golden_soa_scenarios import (SOA_GOLDEN_PATH, iter_soa_configs,
                                  soa_config_key, soa_kernel,
                                  soa_snapshot)
from test_core_soa import EQUIVALENCE_KERNELS, result_snapshot
from repro.core import compile_kernel
from repro.core.errors import UnsupportedFeatureError
from repro.engine.session import ExecutionSession
from repro.experiments.runner import run_comparison, run_comparisons_parallel
from repro.perf.memo import SliceMemoCache
from repro.scenario.store import RunStore, code_version
from repro.sweepfabric.grids import fig5_grid

ELIGIBLE = sorted(EQUIVALENCE_KERNELS)

_REFS = {}


def _ref(name):
    """Object-engine snapshot for one equivalence kernel (memoized)."""
    if name not in _REFS:
        _REFS[name] = result_snapshot(EQUIVALENCE_KERNELS[name]().run())
    return _REFS[name]


def _replay(kernel):
    """Compile a fresh kernel and replay it on its own array loop."""
    return kernel._replay(compile_kernel(kernel))


def _mesh_payloads(store, specs):
    """Each spec's stored ``mesh`` payload, minus ``wall_seconds``."""
    payloads = []
    for spec in specs:
        payload = store.get(spec.spec_hash(), "mesh")
        assert payload is not None
        payload.pop("wall_seconds")
        payloads.append(payload)
    return payloads


def _percell_payloads(tmp_path, specs):
    """The payloads per-cell comparisons commit."""
    store = RunStore(tmp_path / "percell")
    for spec in specs:
        run_comparison(spec, include=("mesh",), store=store)
    return _mesh_payloads(store, specs)


# ---------------------------------------------------------------------
# compile -> replay: a replayed program is the object run
# ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_KERNELS))
def test_store_roundtrip_replays_bit_identically(name):
    """Compile, replay: hex-identical to the object run.

    Covers every equivalence kernel — sync primitives, bursts,
    heterogeneous powers, pinned scheduling — so the lowering has no
    blind spots.
    """
    kernel = EQUIVALENCE_KERNELS[name](engine="soa")
    assert result_snapshot(_replay(kernel)) == _ref(name)


@pytest.mark.parametrize(
    "cfg", list(iter_soa_configs()),
    ids=[soa_config_key(*cfg) for cfg in iter_soa_configs()])
def test_golden_soa_configs_roundtrip_batched(cfg):
    """Sync goldens survive the compile-and-replay path."""
    name, mts = cfg
    golden = json.loads(SOA_GOLDEN_PATH.read_text(
        encoding="utf-8"))[soa_config_key(name, mts)]
    result = _replay(soa_kernel(name, mts, engine="soa"))
    assert result.engine_used == "soa"
    assert soa_snapshot(result) == golden


@pytest.mark.parametrize(
    "cfg", list(iter_configs()),
    ids=[config_key(*cfg) for cfg in iter_configs()])
def test_golden_matrix_configs_stay_out_of_the_program_cache(cfg):
    """Every golden config refuses compilation, so the prepass skips it.

    The 80-configuration matrix traces, which the compiled subset
    rejects — the prepass therefore reproduces these goldens by *never
    taking them*: they fall through to the object engine, whose
    snapshot equality ``test_core_soa`` pins.  A config slipping into
    the compiled subset here would silently change that contract.
    """
    scenario, policy, mts, fault, memo = cfg
    kernel = SCENARIOS[scenario](
        sync_policy=policy,
        min_timeslice=mts,
        fault_plan=make_fault_plan() if fault else None,
        memo_cache=SliceMemoCache(maxsize=32) if memo else None,
        trace=True)
    with pytest.raises(UnsupportedFeatureError):
        compile_kernel(kernel)


# ---------------------------------------------------------------------
# replays one after another: composition and order never matter
# ---------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(names=st.lists(st.sampled_from(ELIGIBLE), min_size=1,
                      max_size=7),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_batched_grid_replay_matches_per_cell(names, seed):
    """Any composition, any order: consecutive replays equal per-cell
    object runs."""
    names = list(names)
    random.Random(seed).shuffle(names)
    results = [_replay(EQUIVALENCE_KERNELS[name](engine="soa"))
               for name in names]
    assert [result_snapshot(r) for r in results] == \
        [_ref(name) for name in names]


@pytest.mark.parametrize("batch", [1, 2, 7, None],
                         ids=["batch1", "batch2", "batch7", "fullgrid"])
def test_batch_size_never_changes_results(batch, tmp_path):
    """A prepass over a shuffled grid writes per-cell artifacts,
    whatever ``batch_cells`` it is given."""
    specs = fig5_grid(quick=True) * 2
    random.Random(1234).shuffle(specs)
    store = RunStore(tmp_path / "prepass")
    ExecutionSession(store=store).prepass(
        specs, batch_cells=0 if batch is None else batch)
    assert _mesh_payloads(store, specs) == \
        _percell_payloads(tmp_path, specs)


def test_replay_batch_mixed_grid_reports_tiers_honestly():
    """Every cell replays on the interpreted loop; every result matches."""
    for name in sorted(EQUIVALENCE_KERNELS):
        result = _replay(EQUIVALENCE_KERNELS[name](engine="soa"))
        assert result_snapshot(result) == _ref(name)
        assert result.engine_used == "soa"
        assert result.backend_used == "interp"


# ---------------------------------------------------------------------
# what the prepass leaves on disk: run-store artifacts, nothing else
# ---------------------------------------------------------------------


def test_corrupt_bundle_counts_as_miss_and_heals(tmp_path):
    """A torn ``mesh`` artifact is a counted miss; the cold path
    recomputes it and writes the canonical payload back."""
    [spec] = fig5_grid(quick=True)[:1]
    store = RunStore(tmp_path / "store")
    ExecutionSession(store=store).prepass([spec])
    expected = _mesh_payloads(store, [spec])
    store.path_for(spec.spec_hash(), "mesh").write_bytes(b"torn write")
    with ExecutionSession(store=store, batch_cells=-1) as session:
        [cell] = session.map_comparisons([spec], include=("mesh",))
    assert cell.ok
    assert cell.value.cached_runs == 0
    assert store.corrupt == 1
    assert _mesh_payloads(store, [spec]) == expected


def test_stale_code_version_misses_by_construction(tmp_path):
    """A code change moves the run-store namespace: the prepass finds
    every cell cold again and writes the same payloads."""
    specs = fig5_grid(quick=True)
    old = RunStore(tmp_path, version="aaa")
    ExecutionSession(store=old).prepass(specs)
    new = RunStore(tmp_path, version="bbb")
    counters = ExecutionSession(store=new).prepass(specs)
    assert counters["cells_cold"] == len(specs)
    assert counters["compiles"] == len(specs)
    assert _mesh_payloads(new, specs) == _mesh_payloads(old, specs)


def test_put_is_atomic_and_leaves_no_tmp(tmp_path):
    """One ``mesh`` artifact per cell, no ``*.tmp`` debris, and nothing
    under the store root but the code-version namespace."""
    specs = fig5_grid(quick=True)
    store = RunStore(tmp_path / "store")
    ExecutionSession(store=store).prepass(specs)
    assert store.orphan_tmp() == 0
    assert store.count() == len(specs)
    assert [p.name for p in store.root.iterdir()] == [store.version]
    assert all((spec.spec_hash(), "mesh") in store for spec in specs)


def test_orphan_tmp_swept_on_open(tmp_path):
    """A crashed writer's stale ``*.tmp`` is swept when the session's
    store opens; the prepass adds none of its own."""
    spec = fig5_grid(quick=True)[0]
    stale_dir = tmp_path / "store" / "v" / "ab"
    stale_dir.mkdir(parents=True)
    stale = stale_dir / "dead.tmp"
    stale.write_bytes(b"abandoned")
    old = time.time() - 3600
    os.utime(stale, (old, old))
    session = ExecutionSession(store=tmp_path / "store")
    assert session.store.tmp_swept == 1
    assert not stale.exists()
    assert session.prepass([spec])["cells_batched"] == 1
    assert session.store.orphan_tmp() == 0


def test_program_hash_defaults_to_runtime_versions(tmp_path, monkeypatch):
    """Prepass artifacts live under the running code version."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeefcafe")
    assert code_version() == "deadbeefcafe"
    spec = fig5_grid(quick=True)[0]
    store = RunStore(tmp_path / "store")
    ExecutionSession(store=store).prepass([spec])
    path = store.path_for(spec.spec_hash(), "mesh")
    assert path.exists()
    assert "deadbeefcafe" in path.relative_to(store.root).parts


# ---------------------------------------------------------------------
# the prepass: per-cell artifacts, execution-only knobs
# ---------------------------------------------------------------------


def test_warm_program_store_performs_zero_compiles(tmp_path):
    """A second prepass over a warm run store compiles nothing and
    leaves every artifact as it was."""
    specs = fig5_grid(quick=True)
    store = RunStore(tmp_path / "store")
    cold = ExecutionSession(store=store).prepass(specs)
    assert cold["cells_cold"] == len(specs)
    assert cold["compiles"] == len(specs)
    before = _mesh_payloads(store, specs)
    warm = ExecutionSession(store=store).prepass(specs)
    assert warm["cells_cold"] == 0
    assert warm["compiles"] == 0
    assert _mesh_payloads(store, specs) == before


def test_prepass_artifacts_match_per_cell_runs(tmp_path):
    """The prepass writes what ``run_comparison`` would have.

    Only ``wall_seconds`` — an environment measurement, not a result —
    may differ between the two execution strategies.
    """
    specs = fig5_grid(quick=True)
    prepass = RunStore(tmp_path / "prepass")
    ExecutionSession(store=prepass).prepass(specs)
    assert _mesh_payloads(prepass, specs) == \
        _percell_payloads(tmp_path, specs)


def test_batch_cells_is_execution_only(tmp_path):
    """Prepasses given different ``batch_cells`` write identical
    artifacts, and a warm run store leaves nothing cold."""
    specs = fig5_grid(quick=True)
    chunked_store = RunStore(tmp_path / "chunked")
    ExecutionSession(store=chunked_store).prepass(specs, batch_cells=1)
    whole_store = RunStore(tmp_path / "whole")
    ExecutionSession(store=whole_store).prepass(specs, batch_cells=0)
    assert _mesh_payloads(chunked_store, specs) == \
        _mesh_payloads(whole_store, specs)
    again = ExecutionSession(store=chunked_store).prepass(specs,
                                                          batch_cells=2)
    assert again["cells_cold"] == 0
    assert again["compiles"] == 0


def test_batch_knobs_never_enter_spec_hash(tmp_path):
    """``batch_cells`` is invisible to content addresses."""
    spec = fig5_grid(quick=True)[0]
    before = spec.spec_hash()
    assert "batch_cells" not in json.dumps(spec.to_dict())
    ExecutionSession(store=RunStore(tmp_path / "s")).prepass(
        [spec], batch_cells=1)
    assert spec.spec_hash() == before


def test_run_comparisons_parallel_batches_cold_grids(tmp_path):
    """``batch_cells`` computes every cold cell in the prepass; each
    comparison reports that run (replayed on the SoA loop) as computed."""
    specs = fig5_grid(quick=True)
    comparisons = run_comparisons_parallel(
        specs, include=("mesh",), store=tmp_path / "store",
        batch_cells=-1)
    assert len(comparisons) == len(specs)
    assert all(cell.value.cached_runs == 0 for cell in comparisons)
    assert all(cell.value.runs["mesh"].detail.backend_used == "interp"
               for cell in comparisons)


def test_sweep_summary_reports_tallies_and_prepass(tmp_path):
    """The sweep summary tallies engines/replay loops and the prepass.

    The tally lines are the CI-greppable record of which execution
    path actually served a sweep — a silent engine downgrade shows up
    as a changed ``engine_used:`` / ``backend_used:`` line.
    """
    from repro.sweepfabric import run_sharded_sweep

    specs = fig5_grid(quick=True)
    result = run_sharded_sweep(specs, RunStore(tmp_path / "store"),
                               shards=2, jobs=1, batch_cells=-1)
    text = result.summary()
    assert f"batched prepass: warmed {len(specs)} cell(s)" in text
    assert f"compiles={len(specs)} skipped=0" in text
    assert "program_loads" not in text
    assert "engine_used:" in text
    assert "backend_used:" in text
    # A cold sweep computed every mesh run (in its prepass): none of
    # them is a cache replay.
    assert f"interp={len(specs)}" in text
    assert "cached=" not in text
