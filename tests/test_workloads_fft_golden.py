"""The FFT workload, pinned build for build, and its traffic memo.

``data/golden_fft.json`` holds every phase, barrier, processor and
resource of :func:`~repro.workloads.fft.fft_workload` over the
``explore_mesh`` and quick ``pareto`` cache configurations, both paper
cache sizes at 1024 and 4096 points, one single-processor build and one
non-default cache geometry (see ``generate_golden_fft.py``).  The cache
simulation behind the bus counts is memoized per process; a memo hit
must return an equal workload made of fresh objects, and a grid that
sweeps only the bus delay must simulate each cache configuration once.
"""

import json

import pytest

from generate_golden_fft import FFT_GOLDEN_PATH, iter_fft_configs, snapshot
from repro.engine.session import ExecutionSession
from repro.sweepfabric.grids import pareto_grid
from repro.workloads.fft import _bus_counts, fft_workload

GOLDEN = json.loads(FFT_GOLDEN_PATH.read_text(encoding="utf-8"))
CONFIGS = dict(iter_fft_configs())

#: The ``explore_mesh`` grid: 4 processor counts x 6 bus delays, all on
#: the same 1024-point matrix and 8 KB cache.
EXPLORE_SPECS = pareto_grid(points=1024, procs=(2, 4, 8, 16),
                            bus_delays=(2, 3, 4, 6, 8, 12))


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_fft_workload_matches_golden(key):
    assert snapshot(fft_workload(**CONFIGS[key])) == GOLDEN[key]


def test_memo_hit_returns_fresh_equal_workload():
    config = CONFIGS["explore/1024_4p_8kb_bus2"]
    first = fft_workload(**config)
    hits = _bus_counts.cache_info().hits
    second = fft_workload(**config)
    assert _bus_counts.cache_info().hits == hits + 1
    assert first == second
    for attr in ("threads", "processors", "resources"):
        assert getattr(first, attr) is not getattr(second, attr)
    for a, b in zip(first.threads, second.threads):
        assert a is not b
        assert a.items is not b.items
    second.threads[0].items.clear()
    assert snapshot(fft_workload(**config)) == snapshot(first)


def test_memo_holds_only_ints():
    counts = _bus_counts(256, 2, 8, 32, 4)
    assert isinstance(counts, tuple)
    assert all(isinstance(row, tuple) and len(row) == 5
               and all(type(value) is int for value in row)
               for row in counts)


def test_explore_mesh_grid_simulates_four_cache_configurations():
    _bus_counts.cache_clear()
    for spec in EXPLORE_SPECS:
        spec.build_workload()
    assert len(EXPLORE_SPECS) == 24
    assert _bus_counts.cache_info().misses == 4


def test_cold_sweep_still_counts_every_build(tmp_path):
    _bus_counts.cache_clear()
    with ExecutionSession(store=tmp_path / "store") as session:
        with session.grid():
            for spec in EXPLORE_SPECS:
                session.comparison(spec, include=("mesh",))
        assert session.workload_builds == 24
    assert _bus_counts.cache_info().misses == 4


def test_non_integer_arguments_still_fail():
    fft_workload(points=256, processors=2, cache_kb=8)
    with pytest.raises(TypeError):
        fft_workload(points=256, processors=2, cache_kb=8.0)
