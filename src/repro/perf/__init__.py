"""Performance layer: parallel cell execution + slice-penalty memoization.

Two cooperating pieces in the direction the roadmap points ("as fast as
the hardware allows"):

* :mod:`repro.perf.parallel` — :class:`ParallelExecutor` maps
  independent simulation cells ((x, seed) sweep pairs, figure grid
  points, calibration candidates) over a process pool with
  deterministic ordering, per-cell error capture, and an in-process
  serial fallback;
* :mod:`repro.perf.memo` — :class:`SliceMemoCache`, a bounded LRU over
  quantized :class:`~repro.contention.base.SliceDemand` fingerprints
  consulted by the US scheduler before calling a contention model;
* :mod:`repro.perf.bench` — JSON benchmark-trajectory recording for
  ``benchmarks/out/``.
"""

from .bench import DEFAULT_OUT_DIR, environment_info, record_bench
from .memo import MemoStats, SliceMemoCache, model_memo_key
from .parallel import (TIMEOUT_TAG, CellError, CellResult,
                       ParallelExecutor, resolve_jobs)

__all__ = [
    "CellError", "CellResult", "DEFAULT_OUT_DIR", "MemoStats",
    "ParallelExecutor", "SliceMemoCache", "TIMEOUT_TAG",
    "environment_info", "model_memo_key", "record_bench",
    "resolve_jobs",
]
