"""Contention-modeling-as-a-service: the asyncio HTTP/JSON front door.

One long-running process owns one
:class:`~repro.engine.session.ExecutionSession` (run store, warm pool)
and serves three endpoints over plain HTTP/1.1 —
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
    * **validation** — :meth:`ScenarioSpec.from_dict` + ``validate()``
      (memoized per canonical document); malformed documents get a 400
      naming the exact field via the
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
      :meth:`ExecutionSession.map_comparisons` (mesh prepass included)
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
    snapshot (store, pool, ISS runs computed/reused, prepass counters
    and failures).
"""

from __future__ import annotations

import asyncio
import collections
import functools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

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


#: Admitted spec documents the service keeps parsed and validated.
SPEC_MEMO_ENTRIES = 1024


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
    #: Mesh prepass for drained batches (non-zero runs it before the
    #: per-cell path, ``0`` disables it).
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
            ExecutionSession(store=config.store, jobs=config.jobs,
                             batch_cells=config.batch_cells)
        self.quotas = QuotaRegistry(
            capacity=config.quota_capacity,
            refill_per_second=config.quota_refill_per_second)
        from .coalesce import SingleFlight

        self.flight = SingleFlight()
        #: spec_hash -> (spec, estimators claimed by leaders here).
        self._pending: Dict[str, Tuple[ScenarioSpec, Set[str]]] = {}
        #: Canonical spec document -> what :meth:`_admit` made of it.
        self._admitted: Dict[str, Tuple[ScenarioSpec, str,
                                        Dict[str, str]]] = {}
        #: Open client connections (closed by :meth:`aclose`).
        self._connections: Set["_Connection"] = set()
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
        return await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host,
            self.config.port)

    async def aclose(self) -> None:
        """Close open connections, stop the drain task and shut the
        session's pool down."""
        for connection in list(self._connections):
            connection.close()
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
        outcome = self._analyze_now(body)
        if isinstance(outcome, tuple):
            return outcome
        return await outcome

    def _analyze_now(self, body: Dict):
        """Everything of :meth:`analyze` up to the first wait.

        Returns the ``(status, payload, extra_headers)`` answer when
        the request needs no computation (a store hit or a rejection),
        else the coroutine that waits for the computation and answers.
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
            spec, spec_hash, all_keys = self._admit(document)
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
        keys = {estimator: all_keys[estimator] for estimator in include}

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
        return self._await_cold(spec_hash, include, runs, waiting,
                                budget, bool(body.get("detail")))

    async def _await_cold(self, spec_hash: str, include: List[str],
                          runs: Dict[str, Dict],
                          waiting: Dict[str, asyncio.Future],
                          budget: RunBudget, detail: bool
                          ) -> Tuple[int, Dict, Dict[str, str]]:
        """Wait for a cold request's computations and answer it."""
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
        return (200, self._response(spec_hash, runs, include, detail,
                                    source=source), {})

    def _admit(self, document) -> Tuple[ScenarioSpec, str, Dict[str, str]]:
        """Parse and validate a spec document: ``(spec, spec_hash,
        artifact keys of every estimator)``.

        Memoized on the document's canonical JSON: a service answers
        the same documents over and over, and parsing, validating and
        hashing one costs more than the store probe that answers it.
        Validation reads nothing but the document and the registries,
        so a document admitted once is admitted again.  Rejected
        documents are not kept; past ``SPEC_MEMO_ENTRIES`` the oldest
        entry is dropped.
        """
        try:
            text = json.dumps(document, sort_keys=True)
        except (TypeError, ValueError):
            # Not plain JSON (a direct call, not a parsed body):
            # ``from_dict`` names the offending field.
            text = None
        admitted = self._admitted.get(text)
        if admitted is None:
            spec = ScenarioSpec.from_dict(document).validate()
            spec_hash = spec.spec_hash()
            admitted = (spec, spec_hash,
                        artifact_keys(spec, ESTIMATORS, spec_hash))
            if text is not None:
                if len(self._admitted) >= SPEC_MEMO_ENTRIES:
                    del self._admitted[next(iter(self._admitted))]
                self._admitted[text] = admitted
        return admitted

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

    def _route(self, method: str, target: str, body: bytes):
        """Answer one request: its ``(status, payload, extra_headers)``,
        or a coroutine returning them (see :meth:`_analyze_now`)."""
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
            return self._analyze_now(document)
        return 404, {"error": f"no route for {path}"}, {}

    @staticmethod
    def _encode(status: int, payload: Dict,
                extra: Optional[Dict[str, str]] = None) -> bytes:
        """One complete HTTP/1.1 response."""
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(blob)}"]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + blob


class _Connection(asyncio.Protocol):
    """One client connection: HTTP/1.1 requests parsed straight out of
    the byte stream, responses written in request order.

    A request answered without a computation (a store hit, a
    rejection, ``/v1/healthz``) is answered inside
    :meth:`data_received`, with no task and no wake-up; a request that
    waits on a computation runs as a task, and the answers of requests
    pipelined behind it on this connection wait their turn.  While the
    transport's write buffer is full, reading pauses, so a client that
    does not read its answers stops being read.
    """

    def __init__(self, service: AnalyzeService):
        self._service = service
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        #: Answers not yet written, in request order: encoded
        #: responses, or tasks that will return a response triple.
        self._queue: Deque = collections.deque()
        #: Answer nothing more: close once the queue is written.
        self._closing = False
        #: The client sent its last byte: close once every request
        #: read so far is answered.
        self._eof = False
        self._paused = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._service._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._service._connections.discard(self)
        self._closing = True
        for item in self._queue:
            if not isinstance(item, bytes):
                item.cancel()
        self._queue.clear()

    def close(self) -> None:
        """Drop the connection (server shutdown)."""
        if self._transport is not None:
            self._transport.close()

    def eof_received(self) -> bool:
        # Keep the transport open for the answers still owed.
        self._eof = True
        self._flush()
        return True

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._transport.resume_reading()
        self._serve()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def _serve(self) -> None:
        """Answer every complete request in the buffer."""
        service = self._service
        while not self._closing and not self._paused:
            end = self._buffer.find(b"\r\n\r\n")
            if end < 0:
                if len(self._buffer) > max(service.config.max_body_bytes,
                                           1 << 16):
                    self._transport.close()  # a header without an end
                    return
                break
            lines = self._buffer[:end].decode("latin-1").split("\r\n")
            try:
                method, target, _version = lines[0].split(" ", 2)
            except ValueError:
                self._reject(400, "malformed request line")
                return
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
                if length < 0:
                    raise ValueError(length)
            except ValueError:
                self._reject(400, "bad content-length")
                return
            if length > service.config.max_body_bytes:
                self._reject(413, "request body too large")
                return
            if len(self._buffer) < end + 4 + length:
                break  # the body has not all arrived
            body = bytes(self._buffer[end + 4:end + 4 + length])
            del self._buffer[:end + 4 + length]
            if headers.get("connection", "").lower() == "close":
                self._closing = True
            service.counters["requests"] += 1
            outcome = service._route(method, target, body)
            if isinstance(outcome, tuple):
                self._queue.append(service._encode(*outcome))
            else:
                task = asyncio.get_running_loop().create_task(outcome)
                task.add_done_callback(lambda _task: self._flush())
                self._queue.append(task)
        self._flush()

    def _reject(self, status: int, message: str) -> None:
        """Answer a request that cannot be read, then close."""
        self._queue.append(self._service._encode(status,
                                                 {"error": message}))
        self._closing = True
        self._flush()

    def _flush(self) -> None:
        """Write the answers at the head of the queue that are ready."""
        queue = self._queue
        while queue:
            item = queue[0]
            if not isinstance(item, bytes):
                if not item.done():
                    return
                if item.cancelled() or item.exception() is not None:
                    queue.clear()
                    self._transport.close()
                    return
                item = self._service._encode(*item.result())
            queue.popleft()
            self._transport.write(item)
        if ((self._closing or (self._eof and not self._paused))
                and not self._transport.is_closing()):
            self._transport.close()


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
