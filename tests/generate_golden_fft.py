"""Regenerate the FFT workload golden (``data/golden_fft.json``).

Run from the repository root::

    PYTHONPATH=src:tests python tests/generate_golden_fft.py

Each case builds :func:`~repro.workloads.fft.fft_workload` and pins the
whole workload: every thread's name, affinity and priority, every
``Phase``'s ``work`` (as ``float.hex``), ``accesses``, ``seed``,
``pattern``, ``resource`` and ``burst``, every barrier id, and the
processor and resource lists.  The cases cover:

* the four cache configurations of the full ``explore_mesh`` grid
  (1024 points, 2/4/8/16 processors, 8 KB), two of them at a second
  bus delay;
* the quick ``pareto`` grid (256 points, 2/4 processors, 8 KB, bus
  delays 2 and 4);
* 1024 and 4096 points at 8 KB and 512 KB;
* one single-processor build and one with a non-default line size,
  associativity and seed.

The bus counts come from per-processor cache simulation, so any change
to the cache model, the address walks or the coherence approximation
shows up here.  Only regenerate when the FFT traffic is *intentionally*
changed.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, Iterator, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.workloads.fft import fft_workload  # noqa: E402
from repro.workloads.trace import BarrierOp, Phase, Workload  # noqa: E402

FFT_GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "data" / (
    "golden_fft.json")


def iter_fft_configs() -> Iterator[Tuple[str, Dict]]:
    """``(key, fft_workload keyword arguments)`` for every pinned case."""
    for procs in (2, 4, 8, 16):
        yield (f"explore/1024_{procs}p_8kb_bus2",
               dict(points=1024, processors=procs, cache_kb=8,
                    bus_service=2.0))
    for procs in (2, 16):
        yield (f"explore/1024_{procs}p_8kb_bus12",
               dict(points=1024, processors=procs, cache_kb=8,
                    bus_service=12.0))
    for procs in (2, 4):
        for bus in (2.0, 4.0):
            yield (f"pareto_quick/256_{procs}p_8kb_bus{bus:g}",
                   dict(points=256, processors=procs, cache_kb=8,
                        bus_service=bus))
    for points in (1024, 4096):
        for cache_kb in (8, 512):
            yield (f"size/{points}_4p_{cache_kb}kb",
                   dict(points=points, processors=4, cache_kb=cache_kb))
    yield ("single/1024_1p_8kb",
           dict(points=1024, processors=1, cache_kb=8))
    yield ("geometry/1024_4p_16kb_line64_assoc2_seed5",
           dict(points=1024, processors=4, cache_kb=16, line_bytes=64,
                associativity=2, bus_service=3.0, seed=5))


def _item(item) -> Dict:
    if isinstance(item, Phase):
        return {"work": float(item.work).hex(), "accesses": item.accesses,
                "seed": item.seed, "pattern": item.pattern,
                "resource": item.resource, "burst": item.burst}
    if isinstance(item, BarrierOp):
        return {"barrier": item.barrier_id}
    raise TypeError(f"unexpected FFT trace item {item!r}")


def snapshot(workload: Workload) -> Dict:
    """The JSON-able, float-exact image of one FFT workload."""
    return {
        "threads": [{"name": thread.name, "affinity": thread.affinity,
                     "priority": thread.priority,
                     "items": [_item(item) for item in thread.items]}
                    for thread in workload.threads],
        "processors": [[proc.name, float(proc.power).hex()]
                       for proc in workload.processors],
        "resources": [[res.name, float(res.service_time).hex(), res.ports]
                      for res in workload.resources],
    }


def main() -> None:
    snapshots = {key: snapshot(fft_workload(**kwargs))
                 for key, kwargs in iter_fft_configs()}
    FFT_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    # One case per line, so a diff names the cases that moved.
    lines = [f" {json.dumps(key)}: "
             f"{json.dumps(snapshots[key], sort_keys=True)}"
             for key in sorted(snapshots)]
    FFT_GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                               encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {FFT_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
