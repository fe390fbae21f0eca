"""Self-tests of the end-to-end benchmark (shrunken runs, ~1 minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
from spans import Span, SpanRecorder, check_nesting, layer_table  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 1, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_shrunken_run_is_correct_and_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
    if trace and workload != "serve_mixed":
        spans = json.loads((common.OUT_DIR /
                            f"spans-{workload}-seed1.json").read_text())
        for phase in ("cold", "warm"):
            assert check_nesting([Span(*s) for s in spans[phase]]) == []
        # The build inside build_kernel is a workloads.build span of
        # its own, and the MESH kernel span holds the kernel run alone.
        cold = [Span(*s) for s in spans["cold"]]
        parents = {(span.name, cold[span.parent].name)
                   for span in cold if span.parent >= 0}
        assert ("workloads.build", "workloads.lower") in parents
        assert not any(parent == "core.mesh" for _, parent in parents)


def test_registries_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _kind) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(common.WORKLOADS)


def test_spans_nest_and_self_times_are_non_negative():
    rec = SpanRecorder()
    with rec.span("cell") as cell:
        with rec.span("a"):
            with rec.span("b"):
                pass
        rec.set_cell(cell, "h")
        with rec.span("c"):
            pass
    assert check_nesting(rec.spans) == []
    assert [s.cell for s in rec.spans] == ["h"] * 4
    table = layer_table(rec.spans)
    assert all(row["self_s"] >= 0 for row in table.values())
    assert table["cell"]["calls"] == 1
    broken = list(rec.spans)
    broken[1] = broken[1]._replace(end=broken[0].end + 1.0)
    assert check_nesting(broken)


def test_phase_calibration_leaves_out_samples_and_rescales(tmp_path):
    import grid

    calibration = grid.PhaseCalibration()
    # (start, end, slowdown, spec_hash): one sample before the phase,
    # two inside it, one after it.
    calibration.samples = [(0.0, 1.0, 1.0, None), (3.0, 4.0, 2.0, "a"),
                           (6.0, 7.0, 2.0, "a"), (9.0, 10.0, 1.0, None)]
    wall, reference = calibration.phase(1.0, 9.0)
    assert wall == 6.0
    assert reference == 2.0 / 1.5 + 2.0 / 2.0 + 2.0 / 1.5
    assert calibration.cell_slowdowns() == {"a": 2.0}
    assert common.slowdown(common.CALIBRATION_REF_S) == 1.0
    assert common.calibrate() > 0
    assert common.calibrate_files(tmp_path / "files") > 0
    assert len(list((tmp_path / "files").iterdir())) == 8


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    done = _run("fig5_models", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
