"""The sweep supervisor: run shards, retry, quarantine, steal, resume.

This is the control loop that turns a grid of
:class:`~repro.scenario.spec.ScenarioSpec` cells plus a
:class:`~repro.scenario.store.RunStore` into a fault-tolerant sweep:

* **The store decides what is done.**  Every cell whose estimator
  artifacts are all present is *replayed* from the store (counted on
  the parent store's hit counters) and never dispatched — which is
  exactly why a killed sweep resumes with zero recomputation of
  completed cells.  The :class:`~repro.sweepfabric.manifest.
  ShardManifest` checkpoint carries what the store cannot: attempt
  history and quarantine state, rewritten atomically on every
  transition.
* **Transient failures retry with backoff.**  A worker that dies
  (``BrokenProcessPool`` after a SIGKILL/OOM) or hangs (per-cell
  timeout, surfaced as a tagged
  :data:`~repro.perf.parallel.TIMEOUT_TAG` failure) marks its shard's
  unfinished cells for another round, after a
  :class:`~repro.robustness.faults.RetryPolicy` backoff with
  deterministic seeded jitter.  Cells that completed before the crash
  are found in the store on the next round and replayed, not re-run.
* **Poison quarantines instead of killing the sweep.**  A shard still
  failing after ``max_retries`` rounds is quarantined: its unresolved
  cells become recorded failures, every other shard's results stand,
  and the sweep returns a partial result with a failure report.
* **Stragglers get stolen.**  A shard that exhausts its per-shard
  wall-clock budget (a :class:`~repro.robustness.budget.RunBudget`,
  the same guardrail the kernel uses) stops retrying locally; its
  leftover cells go to a final work-stealing pass that runs them at
  cell granularity on the shared warm pool.

Every number in the final :class:`SweepResult` is assembled in grid
order from per-estimator payloads that round-trip through JSON
losslessly, so a sharded, killed, resumed, chaos-ridden sweep is
bit-identical to the plain serial loop.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError
from ..engine.session import (ESTIMATORS, EstimatorRun, ExecutionSession,
                              artifact_keys)
from ..perf.parallel import TIMEOUT_TAG, ParallelExecutor
from ..robustness.budget import RunBudget
from ..robustness.faults import RetryPolicy
from ..scenario.spec import ScenarioSpec
from ..scenario.store import RunStore
from .chaos import ChaosPlan, maybe_kill_worker
from .manifest import ShardManifest
from .plan import ShardPlan

#: Default backoff for transient shard failures: exponential with
#: deterministic seeded jitter so a fleet of retrying shards does not
#: re-synchronize into a thundering herd.
DEFAULT_RETRY = RetryPolicy(kind="exponential", delay=0.1, factor=2.0,
                            cap=2.0, max_retries=3, jitter=0.5)

#: Substrings of cell error strings treated as transient (retryable):
#: a killed worker poisons every in-flight future with
#: ``BrokenProcessPool``, and a hung worker surfaces as a tagged
#: timeout.  Anything else is a deterministic cell failure.
TRANSIENT_MARKERS = ("BrokenProcessPool", TIMEOUT_TAG)


def is_transient(error: Optional[str]) -> bool:
    """Whether a cell error string names a retryable infrastructure
    failure rather than a deterministic in-cell exception."""
    if not error:
        return False
    return any(marker in error for marker in TRANSIENT_MARKERS)


@dataclass(frozen=True)
class CellOutcome:
    """Final state of one grid cell after the sweep converged."""

    #: Grid position of the cell.
    index: int
    spec_hash: str
    #: ``"cache"`` (replayed from the store without dispatch),
    #: ``"computed"`` (dispatched this run), or ``"failed"``.
    source: str
    #: estimator -> payload summary (``queueing_cycles``,
    #: ``percent_queueing``, ``wall_seconds``); empty for failures.
    runs: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    error: Optional[str] = None
    #: Of this cell's estimator runs, how many were replayed from the
    #: store (for ``"cache"`` cells: all of them).
    cached_runs: int = 0
    #: Execution engine the cell's mesh estimator actually used
    #: (``"soa"`` / ``"object"``), ``"cached"`` when the mesh run was
    #: replayed from the store, or ``None`` when mesh was not included.
    mesh_engine: Optional[str] = None
    #: SoA replay loop the mesh estimator actually used (``"interp"``),
    #: ``"cached"`` for store replays, ``None`` for object-engine or
    #: non-mesh cells.
    mesh_backend: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the cell converged (from cache or computed)."""
        return self.error is None

    def queueing(self, estimator: str) -> float:
        """Queueing cycles one estimator reported for this cell."""
        return self.runs[estimator]["queueing_cycles"]


@dataclass
class SweepResult:
    """Everything a sharded sweep produced, plus its failure report."""

    plan: ShardPlan
    manifest: ShardManifest
    #: One outcome per grid cell, in grid order.
    cells: List[CellOutcome]
    counters: Dict[str, int]
    #: The store's lookup/write counters
    #: (:meth:`~repro.scenario.store.RunStore.counters`; never a
    #: walk of the store tree).
    store_stats: Dict[str, int]
    #: Counters from the mesh prepass (see
    #: :meth:`~repro.engine.session.ExecutionSession.prepass`), or
    #: ``None`` when the prepass did not run.
    prepass: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """Whether every cell converged (no failures, no quarantine)."""
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[CellOutcome]:
        """The failed cells (empty when the sweep fully converged)."""
        return [cell for cell in self.cells if not cell.ok]

    @property
    def quarantined(self) -> List[str]:
        """Shard ids quarantined as poison this run."""
        return [record.shard_id
                for record in self.manifest.records.values()
                if record.state == "quarantined"]

    def summary(self) -> str:
        """Human-readable sweep report (greppable by the CI gate)."""
        c = self.counters
        states = self.manifest.states()
        lines = [
            (f"sharded sweep: {c['cells_total']} cells in "
             f"{self.plan.shard_count} shards "
             f"(plan {self.plan.plan_hash}, seed {self.plan.seed})"),
            (f"  shards: {states['done']} done, "
             f"{states['quarantined']} quarantined"),
            (f"  cells: {c['cells_from_cache']} replayed from store, "
             f"{c['cells_computed']} computed, "
             f"{c['cells_failed']} failed"),
            (f"  estimator runs: {c['estimator_runs_total']} total, "
             f"{c['estimator_runs_cached']} from cache, "
             f"recomputed estimator runs: "
             f"{c['estimator_runs_recomputed']}"),
            (f"  store: hits={self.store_stats['hits']} "
             f"misses={self.store_stats['misses']} "
             f"corrupt={self.store_stats['corrupt']} "
             f"tmp_swept={self.store_stats['tmp_swept']}"),
        ]
        if c.get("workloads"):
            lines.append(
                f"  ground truth: {c['iss_runs_computed']} ISS runs "
                f"computed, {c['iss_runs_reused']} reused "
                f"({c['workloads']} workloads), "
                f"{c['workload_builds']} workload builds")
        lines.extend(self._tally_lines())
        if self.prepass:
            p = self.prepass
            lines.append(
                f"  batched prepass: warmed {p['cells_batched']} "
                f"cell(s), compiles={p['compiles']} "
                f"skipped={p['cells_skipped']} "
                f"failed={p['cells_failed']}")
            for reason, count in sorted(p["failures"].items()):
                lines.append(f"    prepass failure: {reason} x{count}")
        if c.get("cells_stolen"):
            lines.append(f"  work stealing recovered "
                         f"{c['cells_stolen']} straggler cell(s)")
        for record in self.manifest.records.values():
            if record.state == "quarantined":
                lines.append(
                    f"  quarantined shard {record.shard_id} "
                    f"({record.attempts} attempts, "
                    f"{record.cells_done}/{record.cells_total} cells):")
                for error in record.errors:
                    lines.append(f"    {error}")
        return "\n".join(lines)

    def _tally_lines(self) -> List[str]:
        """Per-engine/replay-loop tallies of the mesh runs, CI-greppable.

        A silent fallback regression (cells quietly dropping from SoA
        to the object engine) shows up as a changed tally, exactly like the "recomputed estimator
        runs: 0" contract line makes recomputation regressions
        greppable.
        """
        engines: Dict[str, int] = {}
        backends: Dict[str, int] = {}
        for cell in self.cells:
            if cell.mesh_engine is not None:
                engines[cell.mesh_engine] = \
                    engines.get(cell.mesh_engine, 0) + 1
            if cell.mesh_backend is not None:
                backends[cell.mesh_backend] = \
                    backends.get(cell.mesh_backend, 0) + 1
        lines = []
        if engines:
            lines.append("  engine_used: " + " ".join(
                f"{name}={engines[name]}" for name in sorted(engines)))
        if backends:
            lines.append("  backend_used: " + " ".join(
                f"{name}={backends[name]}"
                for name in sorted(backends)))
        return lines


def _fabric_cell(config: Dict, spec: ScenarioSpec) -> Dict:
    """Worker-side cell: ensure one spec's runs are in the store.

    Module-level so the pool can import it.  Opens its own store handle
    (no tmp sweep — short-lived handles must not race live writers),
    lets :meth:`ExecutionSession.comparison` replay whatever is already
    stored, and returns a small JSON-plain ack with the exact payload
    numbers.  On the serial in-process path the supervisor's session
    rides along under ``"session"``, so its counters stay exact and its
    grid memo characterizes each workload once; worker processes use an
    ephemeral session.
    """
    spec_hash = spec.spec_hash()
    if os.getpid() != config["supervisor_pid"]:
        # Chaos kills only ever fire in a worker process; the serial
        # in-process fallback must never SIGKILL the supervisor.
        maybe_kill_worker(config.get("chaos"), spec_hash)
    store = RunStore(config["store_root"],
                     version=config["store_version"], tmp_max_age=None)
    include = tuple(config["include"])
    worker = config.get("session") is None
    session = ExecutionSession() if worker else config["session"]
    comparison = session.comparison(spec, include=include, store=store)
    mesh = comparison.runs.get("mesh")
    mesh_engine, mesh_backend = (_mesh_labels(mesh) if mesh is not None
                                 else (None, None))
    return {
        "spec_hash": spec_hash,
        "cached": {name: run.cached
                   for name, run in comparison.runs.items()},
        "mesh_engine": mesh_engine,
        "mesh_backend": mesh_backend,
        # The supervisor's own session counts in-process builds.
        "workload_builds": session.workload_builds if worker else 0,
        "runs": {
            name: {"queueing_cycles": run.queueing_cycles,
                   "percent_queueing": run.percent_queueing,
                   "wall_seconds": run.wall_seconds}
            for name, run in comparison.runs.items()
        },
    }


def _mesh_labels(run: EstimatorRun) -> Tuple[str, Optional[str]]:
    """The engine and replay backend a mesh run reports in the tallies."""
    if run.cached:
        return "cached", "cached"
    return (getattr(run.detail, "engine_used", "object"),
            getattr(run.detail, "backend_used", None))


def _as_budget(shard_budget) -> Optional[RunBudget]:
    """Coerce ``None`` / seconds / RunBudget to a per-shard budget."""
    if shard_budget is None or isinstance(shard_budget, RunBudget):
        return shard_budget
    return RunBudget(max_wall_seconds=float(shard_budget))


class SweepSupervisor:
    """One sharded sweep execution (see the module docstring).

    Instantiate via :func:`run_sharded_sweep` unless you need to hold
    the pieces (plan, manifest, store) between calls.
    """

    def __init__(self, specs: Sequence[ScenarioSpec],
                 store,
                 shards: int = 4,
                 seed: int = 0,
                 jobs: int = 0,
                 manifest_path=None,
                 resume: bool = False,
                 include: Sequence[str] = ESTIMATORS,
                 retry: Optional[RetryPolicy] = None,
                 shard_budget=None,
                 cell_timeout: Optional[float] = None,
                 chaos: Optional[ChaosPlan] = None,
                 batch_cells: int = 0,
                 sleep=time.sleep):
        #: The execution facade this sweep routes through: it owns the
        #: run store shared by the probe, the mesh prepass, and every
        #: dispatched cell (in-process cells evaluate through it
        #: directly; worker processes through an ephemeral session).
        self.session = ExecutionSession(store=store, jobs=jobs,
                                        batch_cells=batch_cells)
        self.store = self.session.store
        if self.store is None:
            raise ConfigurationError(
                "a sharded sweep needs a run store — it is the durable "
                "substrate resume and work stealing rely on")
        self.plan = ShardPlan(specs, shards=shards, seed=seed)
        self.include = tuple(include)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.shard_budget = _as_budget(shard_budget)
        self.cell_timeout = cell_timeout
        self.jobs = jobs
        self.chaos = chaos
        #: Mesh prepass knob: non-zero warms cold mesh cells through
        #: the grid-granularity prepass before probing (see
        #: :meth:`~repro.engine.session.ExecutionSession.prepass`).
        #: Execution-only — never part of spec hashes or the plan hash.
        self.batch_cells = batch_cells
        #: Counters of the last mesh prepass (``None`` until run).
        self.prepass_counters: Optional[Dict[str, object]] = None
        self.sleep = sleep
        if manifest_path is None:
            manifest_path = (self.store.root / "manifests"
                             / f"sweep-{self.plan.plan_hash}.json")
        self.manifest = self._open_manifest(manifest_path, resume)
        self._outcomes: Dict[int, CellOutcome] = {}
        self._steal_queue: List[int] = []
        #: Distinct ISS artifact keys of the grid (one per workload).
        self._iss_keys: Set[str] = set()

    def _open_manifest(self, path, resume: bool) -> ShardManifest:
        if resume and os.path.exists(path):
            manifest = ShardManifest.load(path)
            if not manifest.matches(self.plan):
                raise ConfigurationError(
                    f"manifest {path} checkpoints plan "
                    f"{manifest.plan_hash}, but this grid builds plan "
                    f"{self.plan.plan_hash} — resume needs the same "
                    f"specs, shard count, and seed")
            manifest.reset_running()
            return manifest
        return ShardManifest.for_plan(path, self.plan)

    # -- phases -------------------------------------------------------

    def _probe(self) -> None:
        """Replay every fully-stored cell; leave the rest pending.

        Parent-store ``hits`` count these replays — the counters that
        prove a resumed sweep recomputed nothing already done.
        """
        for index, spec_hash in enumerate(self.plan.spec_hashes):
            keys = artifact_keys(self.plan.specs[index], self.include,
                                 spec_hash)
            if "iss" in keys:
                self._iss_keys.add(keys["iss"])
            payloads = self.session.probe(keys)
            if payloads is not None:
                self._outcomes[index] = CellOutcome(
                    index=index, spec_hash=spec_hash, source="cache",
                    runs={name: {
                        "queueing_cycles": payload["queueing_cycles"],
                        "percent_queueing": payload["percent_queueing"],
                        "wall_seconds": payload.get("wall_seconds", 0.0),
                    } for name, payload in payloads.items()},
                    cached_runs=len(self.include),
                    mesh_engine=("cached" if "mesh" in payloads
                                 else None),
                    mesh_backend=("cached" if "mesh" in payloads
                                  else None))

    def _cell_config(self) -> Dict:
        return {
            "store_root": str(self.store.root),
            "store_version": self.store.version,
            "include": list(self.include),
            "chaos": self.chaos.to_dict() if self.chaos else None,
            "supervisor_pid": os.getpid(),
        }

    def _dispatch(self, executor: ParallelExecutor,
                  cell_indices: Sequence[int]
                  ) -> List[Tuple[int, Optional[str]]]:
        """Run one round of cells; record successes, return failures.

        Returns ``(cell_index, error)`` pairs for the cells that did
        not complete this round.
        """
        config = self._cell_config()
        if executor.serial:
            config["session"] = self.session
        fn = functools.partial(_fabric_cell, config)
        specs = [self.plan.specs[index] for index in cell_indices]
        results = executor.map_specs(fn, specs,
                                     timeout=self.cell_timeout)
        failures: List[Tuple[int, Optional[str]]] = []
        for index, result in zip(cell_indices, results):
            if result.ok:
                ack = result.value
                if not executor.serial:
                    claimed = self.session.absorb(
                        self.plan.specs[index], ack["cached"],
                        ack["spec_hash"], ack["workload_builds"])
                    if "mesh" in claimed:
                        # The worker replayed what this sweep's prepass
                        # computed: report the prepass's run.
                        ack["cached"]["mesh"] = False
                        ack["mesh_engine"], ack["mesh_backend"] = \
                            _mesh_labels(claimed["mesh"])
                self._outcomes[index] = CellOutcome(
                    index=index, spec_hash=ack["spec_hash"],
                    source="computed", runs=ack["runs"],
                    cached_runs=sum(ack["cached"].values()),
                    mesh_engine=ack.get("mesh_engine"),
                    mesh_backend=ack.get("mesh_backend"))
            else:
                failures.append((index, result.error))
        return failures

    def _fail_cell(self, index: int, error: Optional[str]) -> None:
        self._outcomes[index] = CellOutcome(
            index=index, spec_hash=self.plan.spec_hashes[index],
            source="failed", error=error or "unknown failure")

    def _run_shard(self, executor: ParallelExecutor, shard) -> None:
        """Drive one shard to done / quarantined / stolen."""
        record = self.manifest.record(shard.shard_id)
        record.cells_total = len(shard)
        pending = [index for index in shard.cell_indices
                   if index not in self._outcomes]
        record.cells_done = len(shard) - len(pending)
        if not pending:
            self.manifest.mark(shard.shard_id, "done")
            self.manifest.save()
            return
        self.manifest.mark(shard.shard_id, "running")
        self.manifest.save()
        meter = (self.shard_budget.start()
                 if self.shard_budget is not None
                 and not self.shard_budget.unlimited else None)
        attempt = 0
        while True:
            attempt += 1
            record.attempts += 1
            failures = self._dispatch(executor, pending)
            record.cells_done = sum(
                1 for index in shard.cell_indices
                if index in self._outcomes
                and self._outcomes[index].source != "failed")
            # Deterministic in-cell exceptions are final immediately;
            # only infrastructure failures earn another round.
            retryable: List[int] = []
            record.errors = []
            for index, error in failures:
                if is_transient(error):
                    retryable.append(index)
                    record.errors.append(
                        f"{self.plan.spec_hashes[index][:12]}: {error}")
                else:
                    self._fail_cell(index, error)
                    record.errors.append(
                        f"{self.plan.spec_hashes[index][:12]}: {error}")
            # One checkpoint per round, written once its outcome is
            # settled: a clean shard goes straight to "done".
            finished = True
            if not retryable and not any(
                    not self._outcomes[i].ok
                    for i in shard.cell_indices if i in self._outcomes):
                self.manifest.mark(shard.shard_id, "done")
                record.errors = []
            elif not retryable:
                # Only deterministic failures remain: quarantine now,
                # retrying them would reproduce the same exception.
                self.manifest.mark(shard.shard_id, "quarantined")
            elif meter is not None and meter.check(0.0, 0):
                # Straggler: stop burning this shard's budget; the
                # work-stealing pass picks its leftovers up.
                self._steal_queue.extend(retryable)
            elif attempt > self.retry.max_retries:
                for index in retryable:
                    self._fail_cell(
                        index,
                        f"quarantined after {attempt} attempts: "
                        f"{dict(failures)[index]}")
                self.manifest.mark(shard.shard_id, "quarantined")
            else:
                finished = False
            self.manifest.save()
            if finished:
                return
            self.sleep(self.retry.delay_of(attempt))
            pending = retryable

    def _steal(self, executor: ParallelExecutor) -> int:
        """Work-stealing pass: finish straggler cells one by one."""
        stolen_done = 0
        pending = list(self._steal_queue)
        attempt = 0
        while pending:
            attempt += 1
            failures = self._dispatch(executor, pending)
            failed_map = dict(failures)
            completed = [index for index in pending
                         if index not in failed_map]
            stolen_done += len(completed)
            for index in completed:
                record = self.manifest.record(
                    self.plan.shard_of(index).shard_id)
                record.cells_done += 1
                record.cells_stolen += 1
            retryable = [index for index, error in failures
                         if is_transient(error)]
            for index, error in failures:
                if not is_transient(error):
                    self._fail_cell(index, error)
            self.manifest.save()
            if not retryable:
                break
            if attempt > self.retry.max_retries:
                for index in retryable:
                    self._fail_cell(
                        index,
                        f"stolen cell still failing after {attempt} "
                        f"attempts: {failed_map[index]}")
                break
            self.sleep(self.retry.delay_of(attempt))
            pending = retryable
        self._steal_queue = []
        return stolen_done

    def _finalize_states(self) -> None:
        """Settle every shard to done/quarantined from cell outcomes."""
        for shard in self.plan.shards:
            record = self.manifest.record(shard.shard_id)
            unresolved = [
                index for index in shard.cell_indices
                if index not in self._outcomes
                or not self._outcomes[index].ok]
            record.cells_done = len(shard) - len(unresolved)
            if unresolved:
                for index in unresolved:
                    if index not in self._outcomes:
                        self._fail_cell(index, "never completed")
                record.errors = [
                    f"{self.plan.spec_hashes[index][:12]}: "
                    f"{self._outcomes[index].error}"
                    for index in unresolved]
                self.manifest.mark(shard.shard_id, "quarantined")
            else:
                record.errors = []
                self.manifest.mark(shard.shard_id, "done")
        self.manifest.save()

    # -- entry point --------------------------------------------------

    def run(self, executor: Optional[ParallelExecutor] = None
            ) -> SweepResult:
        """Drive the sweep to convergence and assemble the result."""
        owns_executor = executor is None
        executor = executor or self.session.executor
        if (self.chaos is not None and self.chaos.kill_hashes
                and executor.serial):
            if owns_executor:
                self.session.close()
            raise ConfigurationError(
                "chaos kills need jobs != 1: the serial in-process "
                "path cannot SIGKILL a worker (there is none), so the "
                "kill plan would silently not exercise anything")
        try:
            # In-process cells share the grid's workload builds; worker
            # processes build their own.
            with self.session.grid(self.plan.specs if executor.serial
                                   else ()):
                if self.batch_cells and "mesh" in self.include:
                    self.prepass_counters = self.session.prepass(
                        self.plan.specs)
                self._probe()
                for shard in self.plan.shards:
                    self._run_shard(executor, shard)
                stolen = (self._steal(executor) if self._steal_queue
                          else 0)
        finally:
            if owns_executor:
                self.session.close()
        self._finalize_states()
        cells = [self._outcomes[index]
                 for index in range(self.plan.cells)]
        counters = self._counters(cells, stolen)
        return SweepResult(plan=self.plan, manifest=self.manifest,
                           cells=cells, counters=counters,
                           store_stats=self.store.counters(),
                           prepass=self.prepass_counters)

    def _counters(self, cells: Sequence[CellOutcome],
                  stolen: int) -> Dict[str, int]:
        from_cache = sum(1 for c in cells if c.source == "cache")
        computed = sum(1 for c in cells if c.source == "computed")
        failed = sum(1 for c in cells if c.source == "failed")
        runs_total = len(self.include) * (from_cache + computed)
        runs_cached = sum(c.cached_runs for c in cells)
        return {
            "cells_total": len(cells),
            "cells_from_cache": from_cache,
            "cells_computed": computed,
            "cells_failed": failed,
            "cells_stolen": stolen,
            "estimator_runs_total": runs_total,
            "estimator_runs_cached": runs_cached,
            "estimator_runs_recomputed": runs_total - runs_cached,
            "iss_runs_computed": self.session.iss_runs_computed,
            "iss_runs_reused": self.session.iss_runs_reused,
            "workloads": len(self._iss_keys),
            "workload_builds": self.session.workload_builds,
            "attempts_total": sum(
                record.attempts
                for record in self.manifest.records.values()),
        }


def run_sharded_sweep(specs: Sequence[ScenarioSpec], store,
                      shards: int = 4, **kwargs) -> SweepResult:
    """Run a fault-tolerant sharded sweep (see :class:`SweepSupervisor`).

    ``specs`` is the grid in assembly order; ``store`` a
    :class:`~repro.scenario.store.RunStore` or its root path.  Keyword
    arguments mirror :class:`SweepSupervisor`; the common ones are
    ``jobs`` (``0`` = one worker per CPU), ``resume=True`` to continue
    a killed sweep from its manifest + store, ``cell_timeout`` /
    ``shard_budget`` for hang containment, and ``retry`` to tune
    backoff and the quarantine threshold.
    """
    executor = kwargs.pop("executor", None)
    supervisor = SweepSupervisor(specs, store, shards=shards, **kwargs)
    return supervisor.run(executor=executor)
