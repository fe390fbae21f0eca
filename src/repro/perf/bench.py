"""Benchmark trajectory recording: structured perf numbers under out/.

The text/SVG artifacts in ``benchmarks/out/`` capture *accuracy*
results; this helper adds the *performance* trajectory — JSON records
(``BENCH_<name>.json``) of speedups and cache hit rates that CI uploads
as artifacts, so perf regressions become visible across the repository's
history rather than anecdotes in commit messages.
"""

from __future__ import annotations

import json
import pathlib
import platform
import os
import time
from typing import Any, Dict, Optional

#: Default artifact directory (``benchmarks/out`` at the repo root).
DEFAULT_OUT_DIR = (pathlib.Path(__file__).resolve().parents[3]
                   / "benchmarks" / "out")


def environment_info() -> Dict[str, Any]:
    """Machine context stamped into every bench record.

    Records both the machine's processor count and the count this
    process may actually use (``sched_getaffinity``) — CI runners and
    containers routinely pin processes to a subset, and throughput
    numbers are only comparable between records with the same effective
    parallelism.  ``cpu_affinity`` is ``None`` on platforms without
    processor affinity (e.g. macOS).
    """
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": affinity,
    }


def record_bench(name: str, payload: Dict[str, Any],
                 out_dir: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Write one ``BENCH_<name>.json`` record and return its path.

    ``payload`` is the benchmark's own measurements (speedup, hit rate,
    cell counts, ...); the record wraps it with a timestamp and the
    machine context so numbers from different runs stay comparable.
    """
    out = pathlib.Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "bench": name,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_info(),
        "results": payload,
    }
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
