"""Parallel execution engine for independent simulation cells.

The paper's whole pitch is speed: the hybrid model exists because
cycle-accurate simulation is too slow for design-space exploration.  The
exploration loops in this repository — seed sweeps, figure grids,
calibration sweeps — evaluate *independent* cells (no cell reads another
cell's output), which makes them embarrassingly parallel.

:class:`ParallelExecutor` wraps
:class:`concurrent.futures.ProcessPoolExecutor` with the three
properties those loops need:

* **deterministic result ordering** — results come back in submission
  order regardless of completion order, so aggregation is bit-identical
  to the serial loop;
* **per-cell error capture** — a crashed cell becomes a recorded
  :class:`CellResult` failure instead of killing the whole sweep;
* **a transparent serial fallback** — ``jobs=1``, a single-item grid,
  and non-picklable work functions (e.g. closure workload factories)
  all run in-process through the *same* cell wrapper, so the two paths
  cannot diverge.

``jobs=0`` means "one worker per CPU".  Worker processes recompute each
cell from its pickled inputs; mutable state on the work function's
captured objects (model instances, health reports) does **not**
propagate back to the parent — pass stateless inputs or run serially
when call-site state matters.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence

#: Error-string prefix tagging a cell that hit its per-cell timeout, so
#: supervisors can tell a hung worker (transient: retry elsewhere) from
#: a cell that raised (possibly deterministic: quarantine).
TIMEOUT_TAG = "CellTimeout"

#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_SECONDS = 0.5


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: ``0`` -> CPU count, else ``jobs``."""
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class CellResult:
    """Outcome of one mapped cell: a value or a recorded failure."""

    #: Position of the cell in the input sequence.
    index: int
    #: The work function's return value (``None`` on failure).
    value: Any = None
    #: ``"ExcType: message"`` when the cell raised, else ``None``.
    error: Optional[str] = None
    #: Content hash of the scenario spec the cell evaluated (set by
    #: :meth:`ParallelExecutor.map_specs`), so a failed cell in an
    #: error report is exactly reproducible: ``repro run`` any spec
    #: file whose hash matches.
    spec_hash: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the cell completed without raising."""
        return self.error is None

    @property
    def timed_out(self) -> bool:
        """Whether the cell failed by exceeding its per-cell timeout."""
        return (self.error is not None
                and self.error.startswith(TIMEOUT_TAG))


class CellError(RuntimeError):
    """Raised by :meth:`ParallelExecutor.run` for a failed cell."""

    def __init__(self, result: CellResult):
        suffix = (f" [spec {result.spec_hash[:12]}]"
                  if result.spec_hash else "")
        super().__init__(
            f"cell {result.index} failed: {result.error}{suffix}")
        #: The failed cell's :class:`CellResult`.
        self.result = result


def _call_cell(fn: Callable[[Any], Any], index: int,
               item: Any) -> CellResult:
    """Evaluate one cell, trapping exceptions into the result record."""
    try:
        return CellResult(index=index, value=fn(item))
    except Exception as exc:  # deliberate: degrade, don't kill the sweep
        return CellResult(index=index,
                          error=f"{type(exc).__name__}: {exc}")


def _spec_cell(fn: Callable[[Any], Any], payload: Any) -> Any:
    """Rebuild a :class:`ScenarioSpec` from its dict and evaluate it.

    Module-level so worker processes can import it; the lazy import
    keeps :mod:`repro.perf` free of a module-level dependency on the
    scenario layer.
    """
    from ..scenario.spec import ScenarioSpec

    return fn(ScenarioSpec.from_dict(payload))


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: end the worker once its parent is gone.

    A parent killed outright (SIGKILL, OOM) never shuts its pool down,
    and its reparented workers would otherwise wait on the call queue
    forever.  A daemon thread polls the parent PID and exits the
    worker as soon as it changes.
    """
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch",
                     daemon=True).start()


def _picklable(*objects: Any) -> bool:
    """Whether every object survives pickling (pool transport check)."""
    try:
        for obj in objects:
            pickle.dumps(obj)
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    return True


class ParallelExecutor:
    """Maps a work function over independent cells, serial or parallel.

    The worker pool is created lazily on the first parallel :meth:`map`
    and **kept warm** for subsequent calls on the same instance —
    repeated grids (iterated calibration, multi-workload comparison
    batches) pay process spawn plus interpreter warm-up once instead of
    per call.  Use the executor as a context manager (or call
    :meth:`close`) to shut the pool down deterministically; a pool left
    open is reaped by ``ProcessPoolExecutor``'s finalizer at garbage
    collection, so forgetting is safe but unpunctual.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process, ``0``
        uses one worker per CPU.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = resolve_jobs(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def serial(self) -> bool:
        """Whether this executor always runs in-process."""
        return self.jobs == 1

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _abort(self) -> None:
        """Tear the pool down without waiting for hung workers.

        A cell that exceeded its timeout still occupies its worker —
        ``shutdown(wait=True)`` would join that process and inherit the
        hang.  Terminate the workers first, then shut down without
        waiting; the next :meth:`map` spawns a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list((getattr(pool, "_processes", None)
                             or {}).values()):
            try:
                process.terminate()
            except Exception:  # racing a normal exit is fine
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _acquire_pool(self) -> ProcessPoolExecutor:
        """Return the warm pool, creating it on first parallel use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_exit_with_parent,
                initargs=(os.getpid(),))
        return self._pool

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any],
            timeout: Optional[float] = None) -> List[CellResult]:
        """Evaluate ``fn(item)`` for every item, capturing errors.

        Returns one :class:`CellResult` per input, in input order.  The
        process pool is used only when ``jobs > 1``, there is more than
        one item, and ``fn`` plus the items pickle; otherwise the same
        cells run serially in-process (without spawning the pool).

        ``timeout`` bounds the wall-clock wait for each cell (seconds,
        measured from when its result is awaited): a cell that exceeds
        it is recorded as a :data:`TIMEOUT_TAG`-tagged failure
        (``result.timed_out``) instead of stalling the map call
        forever, and the pool — whose worker may still be hung on the
        cell — is torn down so the next call starts healthy.  The
        serial in-process path cannot preempt a running cell, so
        ``timeout`` only applies when the pool is used.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout!r}")
        items = list(items)
        if (self.jobs <= 1 or len(items) <= 1
                or not _picklable(fn, items)):
            return [_call_cell(fn, index, item)
                    for index, item in enumerate(items)]
        pool = self._acquire_pool()
        results: List[CellResult] = []
        broken = False
        timed_out = False
        futures = [pool.submit(_call_cell, fn, index, item)
                   for index, item in enumerate(items)]
        for index, future in enumerate(futures):
            try:
                results.append(future.result(timeout=timeout))
            except _FutureTimeout:
                timed_out = True
                results.append(CellResult(
                    index=index,
                    error=(f"{TIMEOUT_TAG}: cell did not finish within "
                           f"{timeout:g}s")))
            except Exception as exc:  # broken pool / unpicklable value
                broken = True
                results.append(CellResult(
                    index=index,
                    error=f"{type(exc).__name__}: {exc}"))
        if timed_out:
            # The hung worker would make a graceful shutdown hang too.
            self._abort()
        elif broken:
            # A worker died mid-batch (or a result failed transport);
            # discard the pool so the next call starts from a healthy
            # one instead of reusing a broken executor.
            self.close()
        return results

    def map_specs(self, fn: Callable[[Any], Any],
                  specs: Sequence[Any],
                  timeout: Optional[float] = None) -> List[CellResult]:
        """Like :meth:`map` over scenario specs, shipped as dicts.

        Each spec crosses the process boundary as its ``to_dict()``
        form — a small JSON-plain dict — instead of a pickled workload
        object, and is rebuilt in the worker before ``fn(spec)`` runs.
        Every returned :class:`CellResult` carries its cell's
        ``spec_hash``, failed cells included, so error reports identify
        the exact scenario to replay.
        """
        specs = list(specs)
        hashes = [spec.spec_hash() for spec in specs]
        results = self.map(functools.partial(_spec_cell, fn),
                           [spec.to_dict() for spec in specs],
                           timeout=timeout)
        return [replace(result, spec_hash=spec_hash)
                for result, spec_hash in zip(results, hashes)]

    def run(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> List[Any]:
        """Strict variant of :meth:`map`: unwrap values, raise on failure.

        Raises :class:`CellError` for the first (lowest-index) failed
        cell; use :meth:`map` when partial results should survive.
        """
        results = self.map(fn, items)
        for result in results:
            if not result.ok:
                raise CellError(result)
        return [result.value for result in results]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(jobs={self.jobs})"
