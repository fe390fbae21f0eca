"""Contention-modeling-as-a-service: HTTP lifecycle + coalescing proof.

The headline test fires 32 concurrent identical cold ``POST
/v1/analyze`` requests at a live server and proves — by counters, not
by timing — that they cost **exactly one kernel run**: one single-
flight lead, one drained cell, one computed estimator run, one
workload build; every other request either joined the in-flight
future or replayed the by-then-warm store.  The rest covers the whole
admission lifecycle: warm answers with zero builds, located 400s for
malformed specs, per-tenant 429s with ``Retry-After``, deadline 504s,
and the observability endpoints.

All tests run against a real socket via :class:`ServiceHandle` (the
server on a background event-loop thread, clients on plain
``http.client``) — the same path ``python -m repro serve`` exercises.
"""

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import ServiceConfig, ServiceHandle

SPEC = {"generator": "uniform",
        "params": {"threads": 2, "phases": 3, "accesses": 24,
                   "seed": 5}}


def request(port, method, path, body=None, timeout=60):
    """One HTTP request; returns (status, payload, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        blob = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=blob,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read().decode() or "null")
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


def analyze(port, body, **kw):
    return request(port, "POST", "/v1/analyze", body, **kw)


def stats(port):
    return request(port, "GET", "/v1/stats")[1]


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                           jobs=1, batch_cells=0,
                           quota_capacity=10_000,
                           quota_refill_per_second=10_000.0)
    with ServiceHandle(config) as handle:
        yield handle


class TestCoalescing:
    def test_32_concurrent_identical_cold_posts_one_kernel_run(
            self, server):
        """The acceptance criterion: 32 identical cold requests in
        flight at once cost exactly one kernel run."""
        port = server.port
        gate = threading.Barrier(32)

        def fire(_index):
            gate.wait()
            return analyze(port, {"spec": SPEC, "include": ["mesh"]})

        with ThreadPoolExecutor(max_workers=32) as pool:
            outcomes = list(pool.map(fire, range(32)))

        queueings = set()
        for status, payload, _headers in outcomes:
            assert status == 200
            assert payload["runs"]["mesh"]["estimator"] == "mesh"
            queueings.add(payload["runs"]["mesh"]["queueing_cycles"])
        # Every client saw the same physics.
        assert len(queueings) == 1

        snapshot = stats(port)
        session = snapshot["session"]
        service = snapshot["service"]
        flight = snapshot["coalescing"]
        # Exactly one kernel run, counter-proven four ways over.
        assert session["estimator_runs_computed"] == 1
        assert session["workload_builds"] == 1
        assert service["cells_drained"] == 1
        assert flight["leads"] == 1
        assert flight["failed"] == 0
        assert flight["in_flight"] == 0
        # The other 31 either joined the flight or replayed the store.
        assert (flight["joins"]
                + service["warm_requests"]) == 31
        assert service["analyze_requests"] == 32

    def test_distinct_specs_do_not_coalesce(self, server):
        port = server.port
        body_a = {"spec": SPEC, "include": ["mesh"]}
        body_b = {"spec": dict(SPEC, params=dict(SPEC["params"],
                                                 seed=6)),
                  "include": ["mesh"]}
        assert analyze(port, body_a)[0] == 200
        assert analyze(port, body_b)[0] == 200
        session = stats(port)["session"]
        assert session["estimator_runs_computed"] == 2
        assert session["workload_builds"] == 2


class TestWarmPath:
    def test_second_request_is_store_sourced_zero_builds(self, server):
        port = server.port
        status, cold, _ = analyze(port, {"spec": SPEC})
        assert status == 200
        assert cold["source"] == "computed"
        builds_after_cold = stats(port)["session"]["workload_builds"]

        status, warm, _ = analyze(port, {"spec": SPEC})
        assert status == 200
        assert warm["source"] == "store"
        assert warm["spec_hash"] == cold["spec_hash"]
        for estimator, run in warm["runs"].items():
            assert run["cached"] is True
            assert (run["queueing_cycles"]
                    == cold["runs"][estimator]["queueing_cycles"])
        snapshot = stats(port)
        assert (snapshot["session"]["workload_builds"]
                == builds_after_cold)
        assert snapshot["service"]["warm_requests"] == 1

    def test_include_subset_and_mixed_source(self, server):
        port = server.port
        status, _, _ = analyze(port, {"spec": SPEC,
                                      "include": ["mesh"]})
        assert status == 200
        status, payload, _ = analyze(
            port, {"spec": SPEC, "include": ["mesh", "analytical"]})
        assert status == 200
        assert payload["source"] == "mixed"
        assert set(payload["runs"]) == {"mesh", "analytical"}
        assert payload["runs"]["mesh"]["cached"] is True
        assert payload["runs"]["analytical"]["cached"] is False

    def test_detail_is_opt_in(self, server):
        port = server.port
        _, terse, _ = analyze(port, {"spec": SPEC,
                                     "include": ["mesh"]})
        assert "detail" not in terse["runs"]["mesh"]
        _, verbose, _ = analyze(port, {"spec": SPEC,
                                       "include": ["mesh"],
                                       "detail": True})
        assert verbose["runs"]["mesh"]["detail"]["kind"] == "hybrid"


class TestValidation:
    def test_unknown_generator_is_located_400(self, server):
        status, payload, _ = analyze(
            server.port, {"spec": {"generator": "warp-drive"}})
        assert status == 400
        assert payload["path"] == "/spec/generator"

    def test_bad_params_are_located_400(self, server):
        status, payload, _ = analyze(
            server.port,
            {"spec": dict(SPEC, params={"warp_factor": 9})})
        assert status == 400
        assert payload["path"] == "/spec/params"

    def test_bad_model_is_located_400(self, server):
        status, payload, _ = analyze(
            server.port,
            {"spec": dict(SPEC, model={"name": "tea-leaves"})})
        assert status == 400
        assert payload["path"].startswith("/spec/model")

    def test_retired_backend_kernel_option_is_located_400(self, server):
        status, payload, _ = analyze(
            server.port,
            {"spec": dict(SPEC, kernel_options={"backend": "jit"})})
        assert status == 400
        assert payload["path"] == "/spec/kernel_options/backend"

    @pytest.mark.parametrize("option", [{"batch_analysis": False},
                                        {"slice_accounting": "rescan"}])
    def test_deleted_kernel_option_is_located_400(self, server, option):
        status, payload, _ = analyze(
            server.port, {"spec": dict(SPEC, kernel_options=option)})
        (name,) = option
        assert status == 400
        assert payload["path"] == f"/spec/kernel_options/{name}"

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_bad_min_timeslice_is_located_400(self, server, value):
        status, payload, _ = analyze(
            server.port, {"spec": dict(SPEC, min_timeslice=value)})
        assert status == 400
        assert payload["path"] == "/spec/min_timeslice"

    def test_missing_spec_bad_include_bad_deadline(self, server):
        port = server.port
        status, payload, _ = analyze(port, {})
        assert (status, payload["path"]) == (400, "/spec")
        status, payload, _ = analyze(
            port, {"spec": SPEC, "include": ["oracle"]})
        assert (status, payload["path"]) == (400, "/include")
        status, payload, _ = analyze(
            port, {"spec": SPEC, "deadline_seconds": -1})
        assert (status, payload["path"]) == (400, "/deadline_seconds")

    def test_non_json_and_non_object_bodies(self, server):
        port = server.port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("POST", "/v1/analyze", body=b"not json{",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()
        status, payload, _ = request(port, "POST", "/v1/analyze",
                                     body=[1, 2, 3])
        assert (status, payload["path"]) == (400, "/")

    def test_validation_errors_are_counted(self, server):
        analyze(server.port, {"spec": {"generator": "warp-drive"}})
        assert stats(server.port)["service"]["validation_errors"] >= 1


class TestAdmissionMemo:
    """A spec document is parsed, validated and hashed once; repeats
    (in any key order) reuse the result, rejections are never kept."""

    def test_repeat_documents_are_parsed_once(self, server, monkeypatch):
        from repro.scenario.spec import ScenarioSpec

        parsed = []
        real = ScenarioSpec.from_dict.__func__
        monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(
            lambda cls, data: parsed.append(data) or real(cls, data)))
        port = server.port
        _, first, _ = analyze(port, {"spec": SPEC, "include": ["mesh"]})
        cold_parses = len(parsed)  # admission, plus the drained cell
        reordered = {"params": dict(reversed(list(SPEC["params"]
                                                  .items()))),
                     "generator": SPEC["generator"]}
        for document in (SPEC, reordered):
            status, again, _ = analyze(port, {"spec": document,
                                              "include": ["mesh"]})
            assert status == 200
            assert again["spec_hash"] == first["spec_hash"]
            assert again["source"] == "store"
        assert len(parsed) == cold_parses

    def test_rejected_documents_are_not_kept(self, server):
        bad = {"spec": dict(SPEC, params={"warp_factor": 9})}
        for _ in range(2):
            status, payload, _ = analyze(server.port, bad)
            assert (status, payload["path"]) == (400, "/spec/params")
        assert stats(server.port)["service"]["validation_errors"] == 2
        assert server.service._admitted == {}

    def test_memo_is_bounded(self, server, monkeypatch):
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "SPEC_MEMO_ENTRIES", 2)
        for seed in range(4):
            document = dict(SPEC, params=dict(SPEC["params"], seed=seed))
            assert analyze(server.port, {"spec": document,
                                         "include": ["analytical"]}
                           )[0] == 200
        kept = [json.loads(text)["params"]["seed"]
                for text in server.service._admitted]
        assert kept == [2, 3]


class TestQuota:
    def test_tenant_exhaustion_is_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               batch_cells=0, quota_capacity=2,
                               quota_refill_per_second=0.001)
        with ServiceHandle(config) as handle:
            port = handle.port
            body = {"spec": SPEC, "include": ["analytical"],
                    "tenant": "bursty-tenant"}
            assert analyze(port, body)[0] == 200
            assert analyze(port, body)[0] == 200
            status, payload, headers = analyze(port, body)
            assert status == 429
            assert payload["tenant"] == "bursty-tenant"
            assert int(headers["Retry-After"]) >= 1
            # Quotas are per tenant: another tenant is unaffected.
            other = dict(body, tenant="patient-tenant")
            assert analyze(port, other)[0] == 200
            assert stats(port)["quota"]["rejected"] >= 1


class TestDeadline:
    def test_cold_request_past_deadline_is_504(self, server):
        body = {"spec": dict(SPEC, params=dict(SPEC["params"],
                                               seed=99)),
                "include": ["mesh"], "deadline_seconds": 1e-6}
        status, payload, _ = analyze(server.port, body)
        assert status == 504
        assert "deadline" in payload["error"]
        assert stats(server.port)["service"]["deadline_timeouts"] == 1


class TestObservability:
    def test_healthz(self, server):
        status, payload, _ = request(server.port, "GET",
                                     "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_stats_shape(self, server):
        snapshot = stats(server.port)
        assert set(snapshot) == {"service", "coalescing", "quota",
                                 "session"}
        assert "estimator_runs_computed" in snapshot["session"]
        assert "leads" in snapshot["coalescing"]

    def test_unknown_route_and_wrong_method(self, server):
        assert request(server.port, "GET", "/v2/nope")[0] == 404
        assert request(server.port, "GET", "/v1/analyze")[0] == 405
        assert request(server.port, "POST", "/v1/stats")[0] == 405


def _raw_exchange(port, data, half_close=False, timeout=60):
    """Send raw bytes on one connection; return everything the server
    writes until it closes the connection."""
    import socket

    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _split_responses(blob):
    """``[(status, payload)]`` of back-to-back HTTP responses."""
    out = []
    while blob:
        head, _, rest = blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(int(line.split(":", 1)[1]) for line in lines
                      if line.lower().startswith("content-length:"))
        out.append((int(lines[0].split(" ")[1]),
                    json.loads(rest[:length])))
        blob = rest[length:]
    return out


def _post(body, close=False):
    blob = json.dumps(body).encode()
    return (b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\n"
            + (b"Connection: close\r\n" if close else b"")
            + b"Content-Length: " + str(len(blob)).encode()
            + b"\r\n\r\n" + blob)


class TestFraming:
    """HTTP/1.1 over one connection: pipelined answers keep request
    order even when a cold request is ahead of warm ones."""

    def test_pipelined_answers_keep_request_order(self, server):
        cold = {"spec": dict(SPEC, params=dict(SPEC["params"], seed=41)),
                "include": ["mesh"]}
        data = (_post(cold)
                + b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                + _post({"spec": {"generator": "warp-drive"}})
                + _post(cold, close=True))
        answers = _split_responses(_raw_exchange(server.port, data))
        assert [status for status, _ in answers] == [200, 200, 400, 200]
        assert answers[0][1]["source"] == "computed"
        assert answers[1][1]["status"] == "ok"
        assert answers[2][1]["path"] == "/spec/generator"
        # The repeat of the cold spec joined its flight (or hit the
        # store); either way one kernel run answered both.
        assert (answers[3][1]["runs"]["mesh"]["queueing_cycles"]
                == answers[0][1]["runs"]["mesh"]["queueing_cycles"])
        assert stats(server.port)["session"]["estimator_runs_computed"] \
            == 1

    def test_half_closed_client_still_gets_its_answers(self, server):
        data = (_post({"spec": SPEC, "include": ["analytical"]})
                + b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        answers = _split_responses(
            _raw_exchange(server.port, data, half_close=True))
        assert [status for status, _ in answers] == [200, 200]

    @pytest.mark.parametrize("head, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"POST /v1/analyze HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         400),
        (b"POST /v1/analyze HTTP/1.1\r\nContent-Length: x\r\n\r\n",
         400),
        (b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 99999999\r\n"
         b"\r\n", 413),
    ])
    def test_unreadable_requests_are_answered_then_closed(
            self, server, head, status):
        # The trailing healthz is never answered: the server closes.
        data = head + b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        answers = _split_responses(_raw_exchange(server.port, data))
        assert [code for code, _ in answers] == [status]


class TestPrepassIntegration:
    def test_batched_drain_warms_the_store_without_per_cell_runs(
            self, tmp_path):
        """With the mesh prepass on, a drained cold batch is computed
        by the prepass and the per-cell pass runs nothing again."""
        config = ServiceConfig(port=0, store=str(tmp_path / "store"),
                               batch_cells=-1,
                               quota_capacity=10_000,
                               quota_refill_per_second=10_000.0)
        with ServiceHandle(config) as handle:
            status, payload, _ = analyze(
                handle.port, {"spec": SPEC, "include": ["mesh"]})
            assert status == 200
            snapshot = stats(handle.port)
            session = snapshot["session"]
            assert session["prepass"]["cells_batched"] == 1
            # One build (the prepass compile) and no per-cell run: the
            # cell found the prepass's artifact, and the run the
            # prepass computed for this request is reported computed.
            assert session["workload_builds"] == 1
            assert session["estimator_runs_computed"] == 1
            assert session["estimator_runs_cached"] == 0
            assert payload["source"] == "computed"
            assert payload["runs"]["mesh"]["cached"] is False

    def test_cold_drain_leaves_only_run_store_artifacts(self, tmp_path):
        """The prepass compiles in memory: a cold drain writes run-store
        artifacts and no compiled-program files."""
        root = tmp_path / "store"
        config = ServiceConfig(port=0, store=str(root), batch_cells=-1,
                               quota_capacity=10_000,
                               quota_refill_per_second=10_000.0)
        with ServiceHandle(config) as handle:
            status, _payload, _ = analyze(
                handle.port, {"spec": SPEC, "include": ["mesh"]})
            assert status == 200
            session = stats(handle.port)["session"]
        assert session["prepass"]["cells_batched"] == 1
        assert "program_store" not in session
        assert not (root / "programs").exists()

