"""One execution path for every front end: the ExecutionSession facade.

Before this module existed, the store-probe -> spec-level fallback
probe -> compile -> replay -> store-commit sequence was reimplemented
three times: in ``run_comparison`` (per cell), in the mesh prepass
(per grid), and in the sweep supervisor (per shard).  Three copies of
the same contract is two too many for a serving stack, so
:class:`ExecutionSession` now owns the sequence and everything it
needs:

* the content-addressed :class:`~repro.scenario.store.RunStore`;
* one persistent warm :class:`~repro.perf.parallel.ParallelExecutor`
  pool, reused across :meth:`map_comparisons` calls instead of being
  respawned per batch;
* thread-safe counters (comparisons evaluated, estimator runs computed
  vs replayed, ISS runs computed vs reused, workload builds, prepass
  totals and failures) that a long-running service exposes on its
  ``/v1/stats`` endpoint;
* while one grid is evaluated (:meth:`ExecutionSession.grid`), each
  workload built and characterized once, kept only while a remaining
  cell of the grid needs it.

Every store read and write goes through one key function,
:func:`artifact_keys`: the ``iss`` artifact of a ``"workload"``-kind
spec lives under the spec's
:meth:`~repro.scenario.spec.ScenarioSpec.workload_hash`, everything
else under its ``spec_hash``.  The ISS reads nothing but the workload
(a budget can only abort a run, and aborted runs are never stored), so
the cells of a grid that vary only the model, the kernel knobs, the
fault plan or the memo settings share one ground-truth run.

The contracts the three original call sites enforced are preserved
verbatim — the method bodies *are* the original code, moved:

* store payloads are byte-identical to what ``run_comparison`` always
  wrote (``wall_seconds`` is an environment measurement, everything
  else is physics);
* a comparison whose every requested estimator hits the store performs
  **zero workload builds**;
* MESH engine routing is the kernel's own: a workload-built kernel
  records why it fell back to the object engine (zero silent
  divergence).

:func:`repro.experiments.runner.run_comparison` and
:func:`~repro.experiments.runner.run_comparisons_parallel` are thin
wrappers over an (ephemeral) session, the sweep supervisor holds one
for probe/prepass/dispatch, and the service holds one for its whole
lifetime.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..analytical import characterize, estimate_queueing
from ..contention.base import ContentionModel
from ..core.errors import ConfigurationError
from ..cycle import EventEngine
from ..perf.parallel import CellResult, ParallelExecutor
from ..workloads.to_mesh import run_hybrid
from ..workloads.trace import Workload

ESTIMATORS = ("iss", "mesh", "analytical")


def percent_error(value: float, reference: float) -> float:
    """Absolute percent error of ``value`` against ``reference``.

    Returns 0 when both are (near) zero and ``inf`` when only the
    reference is zero, so error aggregation never divides by zero.
    Aggregate with :func:`~repro.experiments.runner.finite_mean` so a
    single infinite point does not poison a reported average.
    """
    if abs(reference) < 1e-9:
        return 0.0 if abs(value) < 1e-9 else float("inf")
    return 100.0 * abs(value - reference) / abs(reference)


@dataclass(frozen=True)
class EstimatorRun:
    """One estimator's outcome on one workload."""

    estimator: str
    queueing_cycles: float
    percent_queueing: float
    wall_seconds: float
    #: Engine-specific result object (CycleResult / SimulationResult /
    #: WholeRunEstimate) for deeper inspection; a plain payload mapping
    #: when the run was replayed from a store.
    detail: object = field(repr=False, default=None)
    #: Whether this run was replayed from a
    #: :class:`~repro.scenario.store.RunStore` instead of simulated.
    #: Excluded from equality: a cached replay reports the same physics.
    cached: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Comparison:
    """All estimators on one workload, with errors vs ground truth."""

    runs: Dict[str, EstimatorRun]
    #: Content hash of the scenario spec this comparison evaluated
    #: (``None`` for legacy workload-object comparisons).
    spec_hash: Optional[str] = None

    def queueing(self, estimator: str) -> float:
        """Queueing cycles reported by one estimator."""
        return self.runs[estimator].queueing_cycles

    def error(self, estimator: str, reference: str = "iss") -> float:
        """Percent error of ``estimator`` against ``reference``."""
        return percent_error(self.queueing(estimator),
                             self.queueing(reference))

    def speedup(self, fast: str = "mesh", slow: str = "iss") -> float:
        """Wall-clock ratio ``slow / fast``."""
        fast_time = self.runs[fast].wall_seconds
        if fast_time <= 0:
            return float("inf")
        return self.runs[slow].wall_seconds / fast_time

    @property
    def cached_runs(self) -> int:
        """Number of estimator runs replayed from the run store."""
        return sum(1 for run in self.runs.values() if run.cached)


def _detail_payload(estimator: str, result) -> Optional[Dict]:
    """Flatten an engine result for storage (``None`` for analytical).

    An export failure propagates: the cell fails with that error and
    nothing is stored, rather than storing a payload without detail.
    """
    if estimator == "mesh":
        from ..core.export import result_to_dict

        return result_to_dict(result)
    if estimator == "iss":
        from ..core.export import cycle_result_to_dict

        return cycle_result_to_dict(result)
    return None


def artifact_keys(spec, include: Sequence[str] = ESTIMATORS,
                  spec_hash: Optional[str] = None) -> Dict[str, str]:
    """The run-store key of each requested estimator's artifact.

    ``mesh`` and ``analytical`` read every field of the spec, so they
    are keyed by its ``spec_hash`` (pass it when already computed).
    The ``iss`` artifact of a ``"workload"``-kind spec is keyed by the
    spec's :meth:`~repro.scenario.spec.ScenarioSpec.workload_hash`:
    ``EventEngine(workload, budget=...)`` reads nothing else from the
    spec, and a budget only ever aborts a run, which is then never
    stored.  The workload hash is computed only when ``iss`` is
    requested.
    """
    if spec_hash is None:
        spec_hash = spec.spec_hash()
    keys = {estimator: spec_hash for estimator in include}
    if "iss" in keys and spec.kind == "workload":
        keys["iss"] = spec.workload_hash()
    return keys


def _store_payload(key: str, run: EstimatorRun) -> Dict:
    """The payload of one estimator run, named by its artifact key.

    Exactly what the session commits to the run store; the service
    answers cold requests with it too, so warm and cold responses are
    field-identical.
    """
    detail = (run.detail if run.cached
              else _detail_payload(run.estimator, run.detail))
    return {"spec_hash": key, "estimator": run.estimator,
            "queueing_cycles": run.queueing_cycles,
            "percent_queueing": run.percent_queueing,
            "wall_seconds": run.wall_seconds, "detail": detail}


def _prepass_counters() -> Dict[str, object]:
    """Zeroed counters of one :meth:`ExecutionSession.prepass` call."""
    return {"cells_total": 0, "cells_cold": 0, "cells_batched": 0,
            "cells_skipped": 0, "cells_failed": 0, "compiles": 0,
            "backend_used": {}, "failures": {}, "wall_seconds": 0.0}


def _comparison_cell(kwargs: Dict, workload) -> Tuple[Comparison, int]:
    """One batch cell: evaluate a single scenario's comparison.

    Module-level so worker pools can import it.  On the serial
    in-process path the parent session rides along under the
    ``"session"`` key, so its counters (workload builds included)
    count exactly; worker *processes* get an ephemeral session
    (sharing only the on-disk stores) instead, and the parent
    accumulates from the returned comparisons and the worker's
    workload-build count, never from worker-side state.
    """
    kwargs = dict(kwargs)
    session = kwargs.pop("session", None)
    store = kwargs.pop("store", None)
    worker = session is None
    if worker:
        session = ExecutionSession(store=store)
    comparison = session.comparison(workload, **kwargs)
    # The parent session counts in-process builds itself.
    return comparison, session.workload_builds if worker else 0


def _built_key(spec) -> Optional[str]:
    """The workload hash of a cell that builds a workload, else ``None``
    (a bare workload, a kernel-kind spec, or an unknown generator, whose
    cell fails on its own)."""
    from ..scenario.spec import ScenarioSpec

    if not isinstance(spec, ScenarioSpec):
        return None
    try:
        kind = spec.kind
    except KeyError:
        return None
    return spec.workload_hash() if kind == "workload" else None


class ExecutionSession:
    """The single execution path for scenario comparisons.

    Parameters
    ----------
    store:
        Optional :class:`~repro.scenario.store.RunStore` (or its root
        path).  The session probes it before running anything and
        commits every computed estimator payload back.
    jobs:
        Worker count of the session's persistent warm pool
        (``0`` = one per CPU, ``1`` = serial in-process).  The pool is
        spawned lazily on the first parallel :meth:`map_comparisons`
        and stays warm until :meth:`close`.
    batch_cells:
        Default for :meth:`map_comparisons`: non-zero runs the mesh
        :meth:`prepass` before the per-cell path, ``0`` disables it
        (``None`` on the call means "use this default").
    """

    def __init__(self, store=None,
                 jobs: int = 1,
                 batch_cells: int = 0):
        from ..scenario.store import as_store

        self.store = as_store(store)
        self.jobs = jobs
        self.batch_cells = batch_cells
        self._executor: Optional[ParallelExecutor] = None
        self._lock = threading.Lock()
        #: Comparisons evaluated through this session (in-process).
        self.comparisons = 0
        #: Estimator runs actually computed (kernel/engine executions).
        self.estimator_runs_computed = 0
        #: Estimator runs replayed from the run store.
        self.estimator_runs_cached = 0
        #: Workload IR materializations (zero on full store hits).
        self.workload_builds = 0
        #: ISS (ground-truth) engine runs actually executed.
        self.iss_runs_computed = 0
        #: ISS results answered from the run store instead.
        self.iss_runs_reused = 0
        #: Accumulated counters over every :meth:`prepass` call.
        self.prepass_totals: Dict[str, object] = _prepass_counters()
        #: workload hash -> characterization profiles, while a
        #: :meth:`grid` scope is open (``None`` otherwise).
        self._profiles: Optional[Dict[str, Dict]] = None
        #: workload hash -> cells of the open :meth:`grid` scopes that
        #: have not finished (``None`` outside a scope).
        self._uses: Optional[Dict[str, int]] = None
        #: workload hash -> a built workload a remaining cell needs.
        self._built: Optional[Dict[str, Workload]] = None
        #: (artifact key, estimator) -> a run this session's
        #: :meth:`prepass` computed and stored and no comparison has
        #: reported yet, while a :meth:`grid` scope is open (``None``
        #: otherwise).
        self._warmed: Optional[Dict[Tuple[str, str], EstimatorRun]] = None
        self._grid_depth = 0

    # -- lifecycle ----------------------------------------------------

    @property
    def executor(self) -> ParallelExecutor:
        """The session's persistent warm pool (created on first use)."""
        with self._lock:
            if self._executor is None:
                self._executor = ParallelExecutor(self.jobs)
            return self._executor

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- counters -----------------------------------------------------

    def _count(self, **deltas) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def absorb(self, spec, cached: Mapping[str, bool],
               spec_hash: Optional[str] = None,
               workload_builds: int = 0) -> Dict[str, EstimatorRun]:
        """Fold one comparison a worker process evaluated into the counters.

        ``cached`` says, per estimator, whether the worker replayed its
        run from the store; ``spec`` and ``spec_hash`` name the cell
        (``spec_hash`` is ``None`` for a bare workload), and
        ``workload_builds`` counts the workloads the worker built.  A
        replayed run that this session's :meth:`prepass` computed counts
        as computed,
        exactly as :meth:`comparison` counts it in-process, and is
        returned (by estimator) for the caller to report in place of
        the replay.
        """
        hits = [name for name, hit in cached.items() if hit]
        claimed: Dict[str, EstimatorRun] = {}
        if hits and spec_hash is not None and self._warmed:
            keys = artifact_keys(spec, hits, spec_hash)
            for name in hits:
                run = self._claim(keys[name], name)
                if run is not None:
                    claimed[name] = run
        replayed = len(hits) - len(claimed)
        iss = (cached["iss"] and "iss" not in claimed
               if "iss" in cached else None)
        self._count(comparisons=1, estimator_runs_cached=replayed,
                    estimator_runs_computed=len(cached) - replayed,
                    workload_builds=workload_builds,
                    iss_runs_reused=int(iss is True),
                    iss_runs_computed=int(iss is False))
        return claimed

    def _claim(self, key: str, estimator: str) -> Optional[EstimatorRun]:
        """Take the run this session's prepass computed and stored as
        ``(key, estimator)``, if no comparison has reported it yet."""
        with self._lock:
            if self._warmed is None:
                return None
            return self._warmed.pop((key, estimator), None)

    def stats(self) -> Dict[str, object]:
        """Snapshot of session, store, and pool counters (thread-safe)."""
        with self._lock:
            snapshot: Dict[str, object] = {
                "comparisons": self.comparisons,
                "estimator_runs_computed": self.estimator_runs_computed,
                "estimator_runs_cached": self.estimator_runs_cached,
                "workload_builds": self.workload_builds,
                "iss_runs_computed": self.iss_runs_computed,
                "iss_runs_reused": self.iss_runs_reused,
                "prepass": {name: (dict(value)
                                   if isinstance(value, dict) else value)
                            for name, value
                            in self.prepass_totals.items()},
                "pool": {"jobs": self.jobs,
                         "warm": self._executor is not None},
            }
        snapshot["store"] = (self.store.stats()
                             if self.store is not None else None)
        return snapshot

    # -- the grid scope -----------------------------------------------

    @contextlib.contextmanager
    def grid(self, specs: Sequence = ()) -> Iterator[None]:
        """Scope of one grid evaluation over the cells ``specs``: build
        and characterize each workload once.

        While a scope is open, :meth:`comparison` and :meth:`prepass`
        share one memo of characterization profiles keyed by workload
        hash, and keep a built workload while more of ``specs`` use it:
        from its first build until the last of its cells finishes (a
        prepass build while any remains), then drop it with its
        profiles.  A workload one cell uses is never kept.  The session
        also keeps the runs the scope's prepass computed until a
        comparison reports each one as computed.  Everything is dropped
        when the outermost scope closes.  Scopes nest (the service's
        drain thread and a caller may overlap).
        """
        keys = [key for key in map(_built_key, specs) if key is not None]
        with self._lock:
            if self._grid_depth == 0:
                self._profiles = {}
                self._warmed = {}
                self._uses = {}
                self._built = {}
            self._grid_depth += 1
            uses = self._uses
            for key in keys:
                uses[key] = uses.get(key, 0) + 1
        try:
            yield
        finally:
            with self._lock:
                self._grid_depth -= 1
                if self._grid_depth == 0:
                    self._profiles = None
                    self._warmed = None
                    self._uses = None
                    self._built = None

    def _workload(self, spec, workload_key: Optional[str],
                  keep_from: int) -> Workload:
        """Build ``spec``'s workload, or take the one the grid kept.

        A new build is kept when more than ``keep_from`` of the scope's
        unfinished cells use it: a comparison passes 1 (its own cell),
        the prepass 0.
        """
        with self._lock:
            if self._built is not None and workload_key in self._built:
                return self._built[workload_key]
        workload = spec.build_workload()
        self._count(workload_builds=1)
        with self._lock:
            if (self._built is not None
                    and self._uses.get(workload_key, 0) > keep_from):
                self._built.setdefault(workload_key, workload)
        return workload

    def _finished(self, workload_key: str) -> None:
        """One cell of the scope using ``workload_key`` is done: drop the
        kept workload and its profiles after the last one."""
        with self._lock:
            uses = self._uses
            if uses is None or workload_key not in uses:
                return
            uses[workload_key] -= 1
            if uses[workload_key] <= 0:
                del uses[workload_key]
                self._built.pop(workload_key, None)
                self._profiles.pop(workload_key, None)

    def _characterize(self, workload_key: Optional[str],
                      build: Callable[[], Workload]) -> Dict:
        """Profiles of one workload, memoized inside a :meth:`grid`.

        Two threads missing on one key at once both characterize; the
        results are equal, so the race only repeats deterministic work.
        """
        memo = self._profiles
        if memo is None or workload_key is None:
            return characterize(build())
        profiles = memo.get(workload_key)
        if profiles is None:
            profiles = memo[workload_key] = characterize(build())
        return profiles

    # -- the store probe ----------------------------------------------

    def probe(self, keys: Mapping[str, str]
              ) -> Optional[Dict[str, Dict]]:
        """All-or-nothing store probe for one cell's estimator payloads.

        ``keys`` maps each requested estimator to its artifact key, as
        :func:`artifact_keys` derives them.  Returns ``{estimator:
        payload}`` when **every** artifact is present (counting store
        hits, and the ISS run as reused), else ``None``.  This is the
        warm path of the sweep supervisor: a full hit answers without
        building anything.  A cell holding a run this session's
        :meth:`prepass` computed is no hit: :meth:`comparison` reports
        that run as computed.
        """
        if self.store is None:
            return None
        with self._lock:
            if self._warmed and any((key, estimator) in self._warmed
                                    for estimator, key in keys.items()):
                return None
        payloads = {estimator: self.store.get(key, estimator)
                    for estimator, key in keys.items()}
        if any(payload is None for payload in payloads.values()):
            return None
        if "iss" in payloads:
            self._count(iss_runs_reused=1)
        return payloads

    # -- the per-cell sequence ----------------------------------------

    def comparison(self, workload,
                   model: Optional[ContentionModel] = None,
                   min_timeslice: float = 0.0,
                   annotation: str = "phase",
                   include: Sequence[str] = ESTIMATORS,
                   fault_plan=None,
                   budget=None,
                   memo_cache=None,
                   store=None) -> Comparison:
        """Evaluate a workload or scenario spec with every estimator.

        The canonical per-cell sequence (see
        :func:`~repro.experiments.runner.run_comparison` for the full
        parameter documentation): probe the run store per estimator
        under its :func:`artifact_keys` key, run the misses, and commit
        each computed payload back to the store.  ``store`` is another
        handle on the session's store directory (the sweep's
        in-process cells use one, so the supervisor's own handle counts
        its probe alone); it defaults to the session's.
        """
        spec = None
        if not isinstance(workload, Workload):
            from ..scenario.spec import ScenarioSpec

            if not isinstance(workload, ScenarioSpec):
                raise TypeError(
                    f"expected a Workload or ScenarioSpec, "
                    f"got {type(workload).__name__}"
                )
            spec = workload
            for name, value, default in (
                    ("model", model, None),
                    ("fault_plan", fault_plan, None),
                    ("budget", budget, None),
                    ("min_timeslice", min_timeslice, 0.0),
                    ("annotation", annotation, "phase")):
                if value != default:
                    raise ConfigurationError(
                        f"pass {name!r} inside the scenario spec, not "
                        f"alongside it — the spec is the scenario's "
                        f"identity"
                    )
            model = spec.build_model()
            min_timeslice = spec.min_timeslice
            annotation = spec.annotation
            fault_plan = spec.build_fault_plan()
            budget = spec.build_budget()
            if memo_cache is None:
                memo_cache = spec.build_memo()
        spec_hash = keys = workload_key = None
        if spec is not None:
            store = store if store is not None else self.store
            spec_hash = spec.spec_hash()
            keys = artifact_keys(spec, include, spec_hash)
            if spec.kind == "workload":
                workload_key = spec.workload_hash()
        else:
            store = None

        # The workload and its characterization profiles are built
        # lazily: a comparison whose every estimator hits the store
        # finishes with zero workload builds and zero kernel runs.
        state: Dict[str, object] = {}

        def get_workload() -> Workload:
            if "workload" not in state:
                if spec is None:
                    state["workload"] = workload
                    self._count(workload_builds=1)
                else:
                    state["workload"] = self._workload(spec, workload_key,
                                                       keep_from=1)
            return state["workload"]

        def get_profiles():
            if "profiles" not in state:
                # One busy-time basis for every estimator's percentage:
                # the characterized zero-contention execution cycles
                # (excluding idle), identical to the cycle engines'
                # compute+service total.  The profiles are shared with
                # the whole-run analytical estimator below.
                state["profiles"] = self._characterize(workload_key,
                                                       get_workload)
            return state["profiles"]

        def as_percent(queueing: float) -> float:
            busy_reference = sum(p.busy_cycles
                                 for p in get_profiles().values())
            if busy_reference <= 0:
                return 0.0
            return 100.0 * queueing / busy_reference

        runs: Dict[str, EstimatorRun] = {}
        computed = cached = 0
        for estimator in include:
            if store is not None:
                run = self._claim(keys[estimator], estimator)
                if run is not None:
                    # This grid's prepass computed and stored the run.
                    runs[estimator] = run
                    computed += 1
                    continue
                payload = store.get(keys[estimator], estimator)
                if payload is not None:
                    runs[estimator] = EstimatorRun(
                        estimator=estimator,
                        queueing_cycles=payload["queueing_cycles"],
                        percent_queueing=payload["percent_queueing"],
                        wall_seconds=payload.get("wall_seconds", 0.0),
                        detail=payload.get("detail"),
                        cached=True)
                    cached += 1
                    continue
            if estimator == "iss":
                start = time.perf_counter()
                result = EventEngine(get_workload(), budget=budget).run()
                elapsed = time.perf_counter() - start
                queueing = float(result.queueing_cycles)
            elif estimator == "mesh":
                start = time.perf_counter()
                if spec is not None:
                    # Lower the cell's one workload build (shared with
                    # the ISS and the characterization) instead of
                    # letting the spec build its own copy.
                    built = (get_workload() if spec.kind == "workload"
                             else None)
                    result = spec.run(built, memo_cache=memo_cache)
                else:
                    result = run_hybrid(get_workload(), model=model,
                                        min_timeslice=min_timeslice,
                                        annotation=annotation,
                                        fault_plan=fault_plan,
                                        budget=budget,
                                        memo_cache=memo_cache)
                elapsed = time.perf_counter() - start
                queueing = result.queueing_cycles
            elif estimator == "analytical":
                start = time.perf_counter()
                result = estimate_queueing(get_workload(), model=model,
                                           models=(spec.build_models()
                                                   if spec is not None
                                                   else None),
                                           profiles=get_profiles())
                elapsed = time.perf_counter() - start
                queueing = result.queueing_cycles
            else:
                raise ValueError(f"unknown estimator {estimator!r}; "
                                 f"choose from {ESTIMATORS}")
            run = EstimatorRun(
                estimator=estimator,
                queueing_cycles=queueing,
                percent_queueing=as_percent(queueing),
                wall_seconds=elapsed, detail=result)
            runs[estimator] = run
            computed += 1
            if store is not None:
                store.put(keys[estimator], estimator,
                          _store_payload(keys[estimator], run))
        if workload_key is not None:
            # A failed cell may be retried, so only a finished one
            # lets the grid drop what it kept for it.
            self._finished(workload_key)
        iss = runs.get("iss")
        self._count(comparisons=1, estimator_runs_computed=computed,
                    estimator_runs_cached=cached,
                    iss_runs_computed=int(iss is not None
                                          and not iss.cached),
                    iss_runs_reused=int(iss is not None and iss.cached))
        return Comparison(runs=runs, spec_hash=spec_hash)

    # -- the grid-granularity sequence --------------------------------

    def prepass(self, specs: Sequence,
                batch_cells: Optional[int] = None) -> Dict[str, object]:
        """Warm the run store's ``mesh`` artifacts for a grid.

        Cold cells (no ``mesh`` artifact in the store) whose specs sit
        inside the SoA compiled subset are taken in deterministic
        ``spec_hash``-sorted order; each is built, lowered to a kernel,
        compiled, replayed through the kernel's own replay loop (the
        call the kernel's ``run`` makes), and committed with exactly the
        payload :meth:`comparison` would have written.  Only
        ``wall_seconds``, an environment measurement, differs; like the
        per-cell mesh timing it spans the kernel build, the compile and
        the replay.  Nothing but run-store artifacts is written.

        Each cell is compiled and replayed on its own, so
        ``batch_cells`` changes nothing here; callers pass it through
        :meth:`map_comparisons`, where non-zero enables this prepass.

        No failure is silent: a cell whose kernel build, compile,
        replay or result export raises is left to the per-cell path
        and counted in ``cells_failed``, with its reason (``build:
        TypeError``, ``replay: ...``, ``export: ...``) tallied under
        ``failures``.

        Inside a :meth:`grid` scope the session keeps every run this
        call computes and stores, and the first :meth:`comparison` (or
        :meth:`absorb`) to reach one reports it as computed rather than
        as a store hit, counted once.
        """
        from ..core.compile import compile_kernel, soa_spec_fallback_reason
        from ..core.errors import UnsupportedFeatureError
        from ..scenario.spec import ScenarioSpec
        from ..workloads.to_mesh import build_kernel as build_mesh_kernel

        counters = _prepass_counters()
        store = self.store
        if store is None:
            return counters
        start = time.perf_counter()
        unique: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            if isinstance(spec, ScenarioSpec) and spec.kind == "workload":
                unique.setdefault(spec.spec_hash(), spec)
        ordered = sorted(unique.items())
        counters["cells_total"] = len(ordered)
        failures: Dict[str, int] = counters["failures"]
        tally: Dict[str, int] = counters["backend_used"]

        def fail(stage: str, err: Exception) -> None:
            # Leave the cell cold: the per-cell path reproduces the
            # canonical diagnostic with full error capture.
            counters["cells_failed"] += 1
            reason = f"{stage}: {type(err).__name__}"
            failures[reason] = failures.get(reason, 0) + 1

        for spec_hash, spec in ordered:
            key = artifact_keys(spec, ("mesh",), spec_hash)["mesh"]
            if (key, "mesh") in store:
                continue
            counters["cells_cold"] += 1
            if soa_spec_fallback_reason(spec) is not None:
                counters["cells_skipped"] += 1
                continue
            try:
                workload = self._workload(spec, spec.workload_hash(),
                                          keep_from=0)
                cell_start = time.perf_counter()
                kernel = build_mesh_kernel(workload,
                                           **spec.kernel_kwargs())
            except Exception as err:
                fail("build", err)
                continue
            try:
                program = compile_kernel(kernel)
            except UnsupportedFeatureError:
                counters["cells_skipped"] += 1
                continue
            except Exception as err:
                fail("compile", err)
                continue
            counters["compiles"] += 1
            try:
                result = kernel._replay(program)
            except Exception as err:
                fail("replay", err)
                continue
            elapsed = time.perf_counter() - cell_start
            profiles = self._characterize(spec.workload_hash(),
                                          lambda: workload)
            busy_reference = sum(p.busy_cycles for p in profiles.values())
            queueing = result.queueing_cycles
            run = EstimatorRun(
                estimator="mesh", queueing_cycles=queueing,
                percent_queueing=(100.0 * queueing / busy_reference
                                  if busy_reference > 0 else 0.0),
                wall_seconds=elapsed, detail=result)
            try:
                payload = _store_payload(key, run)
            except Exception as err:
                fail("export", err)
                continue
            store.put(key, "mesh", payload)
            with self._lock:
                if self._warmed is not None:
                    self._warmed[(key, "mesh")] = run
            counters["cells_batched"] += 1
            tally[result.backend_used] = \
                tally.get(result.backend_used, 0) + 1
        counters["wall_seconds"] = time.perf_counter() - start
        with self._lock:
            totals = self.prepass_totals
            for name, value in counters.items():
                if isinstance(value, dict):
                    for item, count in value.items():
                        totals[name][item] = \
                            totals[name].get(item, 0) + count
                else:
                    totals[name] += value
        return counters

    # -- the batch sequence -------------------------------------------

    def map_comparisons(self, workloads: Sequence,
                        batch_cells: Optional[int] = None,
                        **kwargs) -> List[CellResult]:
        """Batch :meth:`comparison` over independent scenarios.

        Each entry is one cell on the session's persistent warm pool
        (results in input order, per-cell error capture); ``kwargs``
        are forwarded to :meth:`comparison` verbatim.  Spec grids
        flowing through the session's store first run the mesh
        :meth:`prepass` when ``batch_cells`` (or the session default)
        is non-zero, so the per-cell workers find mesh cells warm.  A
        ``mesh`` run the prepass computed in this call is reported as
        computed (``cached=False``, counted in
        ``estimator_runs_computed``), exactly as without the prepass.
        Comparisons evaluated by worker processes are folded into the
        session counters from their returned payloads.
        """
        items = list(workloads)
        if batch_cells is None:
            batch_cells = self.batch_cells
        all_specs = items and not any(isinstance(item, Workload)
                                      for item in items)
        cell_kwargs = dict(kwargs)
        cell_kwargs["store"] = self.store
        executor = self.executor
        serial = executor.serial
        if serial:
            # In-process cells count on this session directly — exact
            # counters (workload builds included) for the service.
            cell_kwargs["session"] = self
        fn = functools.partial(_comparison_cell, cell_kwargs)
        with self.grid(items if executor.serial else ()):
            if (batch_cells and self.store is not None and all_specs
                    and "mesh" in kwargs.get("include", ESTIMATORS)):
                self.prepass(items)
            if all_specs:
                results = executor.map_specs(fn, items)
            else:
                results = executor.map(fn, items)
            for position, (item, result) in enumerate(zip(items, results)):
                if not result.ok:
                    continue
                comparison, builds = result.value
                results[position] = replace(result, value=comparison)
                if not serial:
                    comparison.runs.update(self.absorb(
                        item, {name: run.cached for name, run
                               in comparison.runs.items()},
                        comparison.spec_hash, workload_builds=builds))
        return results
