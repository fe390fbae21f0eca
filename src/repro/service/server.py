"""Contention-modeling-as-a-service: the asyncio HTTP/JSON front door.

One long-running process owns one
:class:`~repro.engine.session.ExecutionSession` (run store, program
store, warm pool) and serves three endpoints over plain HTTP/1.1 —
stdlib ``asyncio`` framing, no new dependencies:

``POST /v1/analyze``
    Body ``{"spec": {...ScenarioSpec document...}}`` plus optional
    ``include`` (estimator subset), ``deadline_seconds``, ``tenant``,
    and ``detail`` (include stored detail payloads).  The request
    lifecycle is admission → quota → validation → store probe →
    coalesce → session → store:

    * **quota** — a per-tenant token bucket
      (:class:`~repro.service.quota.QuotaRegistry`); exhausted tenants
      get a 429 with ``Retry-After``.
    * **validation** — :meth:`ScenarioSpec.from_dict` + ``validate()``;
      malformed documents get a 400 naming the exact field via the
      :class:`~repro.core.errors.SpecValidationError` JSON-pointer
      path.
    * **store probe** — warm requests (every requested estimator
      already in the run store under its
      :func:`~repro.engine.session.artifact_keys` key: the
      ``spec_hash``, or the workload hash for ``iss``) are answered
      straight from the store: zero workload builds, zero kernel runs.
    * **coalesce** — cold work is single-flight-coalesced per
      ``(artifact key, estimator)``
      (:class:`~repro.service.coalesce.SingleFlight`): N concurrent
      identical cold requests cost exactly one kernel run, and
      requests that differ only in model share one ISS run.
    * **session** — leaders enqueue their spec; a drain task collects
      everything pending and runs it as *one batch* through
      :meth:`ExecutionSession.map_comparisons` (SoA prepass included)
      on the session's persistent warm pool, off the event loop.
    * **deadline** — the per-request deadline is a
      :class:`~repro.robustness.budget.RunBudget`
      (``max_wall_seconds``); a request whose wait exceeds it gets a
      504 while the computation finishes and warms the store behind
      it.

``GET /v1/healthz``
    Liveness: ``{"status": "ok"}`` plus uptime.

``GET /v1/stats``
    Counters: service request/warm/cold/timeout tallies, coalescing
    leads/joins, quota admissions/rejections, and the full session
    snapshot (store, program store, pool, ISS runs computed/reused,
    prepass counters and failures).
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError, SpecValidationError
from ..engine.session import (ESTIMATORS, ExecutionSession,
                              _store_payload, artifact_keys)
from ..robustness.budget import RunBudget
from ..scenario.spec import ScenarioSpec

#: HTTP status reasons for the subset of codes the service emits.
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            504: "Gateway Timeout"}


@dataclass
class ServiceConfig:
    """Everything one service process needs to run."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (reported by ``ServiceHandle``).
    port: int = 8351
    #: Run-store root; ``None`` serves without a store (every request
    #: cold, coalescing still effective).
    store: Optional[str] = None
    #: Worker count of the session's warm pool (1 = serial in-process,
    #: which keeps the session's kernel-run counters exact).
    jobs: int = 1
    engine: Optional[str] = None
    #: Default batched-prepass chunking for drained batches
    #: (``-1`` = one batch per drain, ``0`` disables the prepass).
    batch_cells: int = -1
    #: Default per-request deadline (seconds) when the body names none.
    deadline_seconds: float = 30.0
    #: Token-bucket quota per tenant: burst capacity and refill rate.
    quota_capacity: float = 60
    quota_refill_per_second: float = 10.0
    max_body_bytes: int = 1 << 20


class AnalyzeService:
    """The service core: routes, counters, and the batch drain loop.

    Owns one :class:`ExecutionSession` for its whole lifetime; all
    handler state (pending batch, single-flight registry, counters) is
    touched only on the event-loop thread, so the only cross-thread
    boundary is the drain executor running the session batch.
    """

    def __init__(self, config: ServiceConfig,
                 session: Optional[ExecutionSession] = None):
        from .quota import QuotaRegistry

        self.config = config
        self.session = session if session is not None else \
            ExecutionSession(store=config.store, engine=config.engine,
                             jobs=config.jobs,
                             batch_cells=config.batch_cells)
        self.quotas = QuotaRegistry(
            capacity=config.quota_capacity,
            refill_per_second=config.quota_refill_per_second)
        from .coalesce import SingleFlight

        self.flight = SingleFlight()
        #: spec_hash -> (spec, estimators claimed by leaders here).
        self._pending: Dict[str, Tuple[ScenarioSpec, Set[str]]] = {}
        self._work: Optional[asyncio.Event] = None
        self._drainer: Optional[asyncio.Task] = None
        self._drain_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-drain")
        self._started = time.monotonic()
        self.counters: Dict[str, int] = {
            "requests": 0, "analyze_requests": 0,
            "warm_requests": 0, "cold_requests": 0,
            "validation_errors": 0, "quota_rejections": 0,
            "deadline_timeouts": 0, "batch_errors": 0,
            "batches_drained": 0, "cells_drained": 0,
        }

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        """Bind the listening socket and start the drain task."""
        self._work = asyncio.Event()
        self._drainer = asyncio.create_task(self._drain_loop())
        return await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port,
            limit=max(self.config.max_body_bytes, 1 << 16))

    async def aclose(self) -> None:
        """Stop the drain task and shut the session's pool down."""
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
            self._drainer = None
        self._drain_pool.shutdown(wait=True)
        self.session.close()

    # -- the batch drain ----------------------------------------------

    async def _drain_loop(self) -> None:
        """Collect pending cold specs and run each batch off-loop."""
        assert self._work is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._work.wait()
            self._work.clear()
            if not self._pending:
                continue
            batch, self._pending = self._pending, {}
            specs = [spec for spec, _claimed in batch.values()]
            include: List[str] = [
                est for est in ESTIMATORS
                if any(est in claimed
                       for _spec, claimed in batch.values())]
            try:
                results = await loop.run_in_executor(
                    self._drain_pool,
                    functools.partial(self.session.map_comparisons,
                                      specs, include=include))
            except Exception as err:  # pool torn down / session gone
                self.counters["batch_errors"] += 1
                for spec_hash, (spec, claimed) in batch.items():
                    keys = artifact_keys(spec, claimed, spec_hash)
                    for estimator in claimed:
                        self.flight.fail((keys[estimator], estimator),
                                         RuntimeError(str(err)))
                continue
            self.counters["batches_drained"] += 1
            self.counters["cells_drained"] += len(batch)
            for (spec_hash, (spec, claimed)), result in zip(
                    batch.items(), results):
                keys = artifact_keys(spec, claimed, spec_hash)
                if result is not None and result.ok:
                    comparison = result.value
                    for estimator in claimed:
                        run = comparison.runs[estimator]
                        self.flight.resolve(
                            (keys[estimator], estimator),
                            dict(_store_payload(keys[estimator], run),
                                 cached=run.cached))
                else:
                    error = RuntimeError(
                        result.error if result is not None
                        else "cell was skipped")
                    for estimator in claimed:
                        self.flight.fail((keys[estimator], estimator),
                                         error)

    # -- the analyze lifecycle ----------------------------------------

    async def analyze(self, body: Dict
                      ) -> Tuple[int, Dict, Dict[str, str]]:
        """Run one request through the full lifecycle.

        Returns ``(status, payload, extra_headers)``.
        """
        self.counters["analyze_requests"] += 1
        tenant = body.get("tenant") or "anonymous"
        if not isinstance(tenant, str):
            return self._bad_request(
                "tenant must be a string", "/tenant")
        admitted, retry_after = self.quotas.admit(tenant)
        if not admitted:
            self.counters["quota_rejections"] += 1
            return (429,
                    {"error": "tenant quota exhausted",
                     "tenant": tenant,
                     "retry_after_seconds": round(retry_after, 3)},
                    {"Retry-After": str(max(1, int(retry_after + 1)))})
        document = body.get("spec")
        if document is None:
            return self._bad_request(
                "request body needs a 'spec' document", "/spec")
        try:
            spec = ScenarioSpec.from_dict(document).validate()
        except SpecValidationError as err:
            return self._bad_request(str(err), "/spec" + err.path)
        except ConfigurationError as err:
            return self._bad_request(str(err), "/spec")
        if spec.kind != "workload":
            return self._bad_request(
                f"generator {spec.generator!r} is "
                f"{spec.kind!r}-kind; the service analyzes "
                f"'workload'-kind scenarios", "/spec/generator")
        include = body.get("include", list(ESTIMATORS))
        if (not isinstance(include, (list, tuple)) or not include
                or any(est not in ESTIMATORS for est in include)):
            return self._bad_request(
                f"include must be a non-empty subset of "
                f"{list(ESTIMATORS)}, got {include!r}", "/include")
        include = [est for est in ESTIMATORS if est in include]
        deadline = body.get("deadline_seconds",
                            self.config.deadline_seconds)
        try:
            seconds = float(deadline)
            if not seconds > 0:
                raise ValueError(deadline)
            budget = RunBudget(max_wall_seconds=seconds)
        except (TypeError, ValueError, ConfigurationError):
            return self._bad_request(
                f"deadline_seconds must be a positive number, "
                f"got {deadline!r}", "/deadline_seconds")
        spec_hash = spec.spec_hash()
        keys = artifact_keys(spec, include, spec_hash)

        store = self.session.store
        runs: Dict[str, Dict] = {}
        waiting: Dict[str, asyncio.Future] = {}
        lead: Set[str] = set()
        for estimator in include:
            payload = (store.get(keys[estimator], estimator)
                       if store is not None else None)
            if payload is not None:
                runs[estimator] = dict(payload, cached=True)
                continue
            # Keyed like the artifact: requests that differ only in
            # model share one in-flight ISS run.
            future, leader = self.flight.claim((keys[estimator],
                                                estimator))
            waiting[estimator] = future
            if leader:
                lead.add(estimator)
        if not waiting:
            self.counters["warm_requests"] += 1
            return (200, self._response(spec_hash, runs, include,
                                        bool(body.get("detail")),
                                        source="store"), {})
        self.counters["cold_requests"] += 1
        if lead:
            spec_entry = self._pending.setdefault(spec_hash,
                                                  (spec, set()))
            spec_entry[1].update(lead)
            assert self._work is not None, "service not started"
            self._work.set()
        try:
            # Shield each shared future: a deadline here must not
            # cancel a computation other requests are joined on.
            done = await asyncio.wait_for(
                asyncio.gather(*(asyncio.shield(f)
                                 for f in waiting.values())),
                timeout=budget.max_wall_seconds)
        except asyncio.TimeoutError:
            self.counters["deadline_timeouts"] += 1
            return (504,
                    {"error": "deadline exceeded before the "
                              "computation finished; the store is "
                              "warming behind this request",
                     "spec_hash": spec_hash,
                     "deadline_seconds": budget.max_wall_seconds}, {})
        except Exception as err:
            return (500, {"error": str(err),
                          "spec_hash": spec_hash}, {})
        for estimator, payload in zip(waiting, done):
            runs[estimator] = payload
        source = "computed" if len(waiting) == len(include) else "mixed"
        return (200, self._response(spec_hash, runs, include,
                                    bool(body.get("detail")),
                                    source=source), {})

    def _bad_request(self, message: str, path: str
                     ) -> Tuple[int, Dict, Dict[str, str]]:
        self.counters["validation_errors"] += 1
        return 400, {"error": message, "path": path}, {}

    @staticmethod
    def _response(spec_hash: str, runs: Dict[str, Dict],
                  include: Sequence[str], detail: bool,
                  source: str) -> Dict:
        ordered = {}
        for estimator in include:
            payload = dict(runs[estimator])
            if not detail:
                payload.pop("detail", None)
            ordered[estimator] = payload
        return {"spec_hash": spec_hash, "source": source,
                "runs": ordered}

    # -- observability ------------------------------------------------

    def healthz(self) -> Dict:
        """Liveness payload."""
        return {"status": "ok",
                "uptime_seconds": round(
                    time.monotonic() - self._started, 3)}

    def stats(self) -> Dict:
        """Counter payload for ``/v1/stats``."""
        return {
            "service": dict(self.counters,
                            uptime_seconds=round(
                                time.monotonic() - self._started, 3)),
            "coalescing": self.flight.stats(),
            "quota": self.quotas.stats(),
            "session": self.session.stats(),
        }

    # -- HTTP framing -------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Shutdown while this connection idles between requests:
            # close quietly instead of surfacing a cancelled task.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return False
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            await self._respond(writer, 400,
                                {"error": "malformed request line"})
            return False
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await self._respond(writer, 400,
                                {"error": "bad content-length"})
            return False
        if length > self.config.max_body_bytes:
            await self._respond(writer, 413,
                                {"error": "request body too large"})
            return False
        body = await reader.readexactly(length) if length else b""
        self.counters["requests"] += 1
        status, payload, extra = await self._route(method, target,
                                                   body)
        await self._respond(writer, status, payload, extra)
        return headers.get("connection", "").lower() != "close"

    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, Dict, Dict[str, str]]:
        path = target.split("?", 1)[0]
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return 200, self.healthz(), {}
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return 200, self.stats(), {}
        if path == "/v1/analyze":
            if method != "POST":
                return 405, {"error": "use POST"}, {}
            try:
                document = json.loads(body.decode("utf-8") or "null")
            except (UnicodeDecodeError, ValueError):
                return self._bad_request("request body is not valid "
                                         "JSON", "/")
            if not isinstance(document, dict):
                return self._bad_request(
                    "request body must be a JSON object", "/")
            return await self.analyze(document)
        return 404, {"error": f"no route for {path}"}, {}

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: Dict,
                       extra: Optional[Dict[str, str]] = None) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(blob)}"]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + blob)
        await writer.drain()


class ServiceHandle:
    """A running service on a background thread, for tests and tools.

    Spawns one thread running the event loop, waits until the socket
    is bound, and exposes the actual ``port`` (so ``port=0`` works).
    Use as a context manager or call :meth:`stop`.
    """

    def __init__(self, config: ServiceConfig,
                 session: Optional[ExecutionSession] = None):
        self.service = AnalyzeService(config, session=session)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self.port: Optional[int] = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-service",
                                        daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.port is None:
            raise RuntimeError("service failed to bind in time")

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await self.service.start()
        except BaseException as err:  # bind failure -> surface it
            self._error = err
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()
        await self.service.aclose()

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the live server."""
        return f"http://{self.service.config.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run(config: ServiceConfig) -> None:
    """Serve until interrupted (the ``repro serve`` entry point)."""

    async def _main() -> None:
        service = AnalyzeService(config)
        server = await service.start()
        port = server.sockets[0].getsockname()[1]
        print(f"repro service listening on "
              f"http://{config.host}:{port} "
              f"(store={config.store or 'none'}, jobs={config.jobs})",
              flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
