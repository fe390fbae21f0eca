"""The ``serve_mixed`` workload: ``repro serve`` under an open-loop mix.

The server runs as its own process (``python3 -m repro serve --port 0
--cache-dir DIR``, every other setting at its default) on a fresh
store.  This process is the only load generator, with at most two
connections (one per CPU of the reference host), pipelining HTTP/1.1
requests so the offered load never waits for responses:

1. *pre-warm*: the Fig. 5 cells are posted one at a time (each
   computes ISS + MESH + analytical in the server);
2. *mixed*: open-loop phases at fixed offered rates.  About 95% of
   requests repeat a pre-warmed cell; about 5% are never-seen
   ``uniform`` specs (MESH only) whose seeds derive from the benchmark
   seed.  Each request is timed from its due time, so a stall counts
   against every request queued behind it;
3. around every mixed phase, a *warm* block (pipelined passes over the
   pre-warmed cells, store hits only) and a *cold* block (never-seen
   specs posted one at a time).

Requests rotate over ``TENANTS`` tenants so that every tenant stays
well inside the server's default token-bucket quota.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common

#: Offered rates (req/s) of the open-loop phases, in order; latency is
#: reported at the middle rate, 50 req/s.  On the reference host (2
#: CPUs) the warm-only closed-loop capacity is about 540 req/s, and the
#: 5%-cold mix saturates between about 200 and 370 req/s as the host's
#: speed drifts.  At 50 req/s a cold request (30-60 ms) holds up at
#: most two or three warm ones, so the tail is the cold path's own
#: latency rather than a queue that grows with the host's slow spells.
#: 50 req/s passes the latency limit and 800 fails it with a wide
#: margin either way, so max_rps does not flip between runs the way a
#: rate near capacity would.  The middle rate runs in five slices
#: spread over the run, so the host's fast and slow spells weigh on its
#: latency in about the same shares every run; together they hold
#: enough requests for p99 to have at least ten beyond it.  The
#: overload phase runs last: the server answers more slowly for the
#: rest of a run after it, by an amount that varies from run to run.
SCHEDULE = (50, 25, 50, 50, 50, 50, 800)
MIDDLE_RATE = 50
#: Share of ``--seconds`` spent in one phase at each rate.
PHASE_SHARES = {25: 0.06, 50: 0.2, 800: 0.02}
FRESH_SHARE = 0.05
#: Never-seen specs posted one at a time in each cold block.
COLD_BLOCK = 6
#: p99 latency limit (ms) a rate must meet to count towards max_rps.
LATENCY_LIMIT_MS = 250.0
CONNECTIONS = 2
TENANTS = 64
#: Seconds of pipelined warm passes in each warm block.
WARM_BLOCK_SECONDS = 0.3
REQUEST_TIMEOUT_S = 30.0


# -- server lifecycle ------------------------------------------------------

class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn -> healthz, at
    the reference host's speed (divided by the slowdown of calibrations
    taken just before the spawn and just after healthz answers)."""

    def __init__(self, store: Path, log: Path, timeout: float = 60.0):
        before = common.median_slowdown()
        start = time.perf_counter()
        self._log = open(log, "wb")
        # The server stops on SIGINT (``repro serve`` handles Ctrl-C);
        # restore its default action, which a parent started in the
        # background may have set to ignore.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(store)],
            stdout=subprocess.PIPE, stderr=self._log,
            env=common.child_env(),
            cwd=str(common.ROOT),
            preexec_fn=lambda: signal.signal(signal.SIGINT,
                                             signal.SIG_DFL))
        try:
            self.port = self._read_port(start + timeout)
            self._wait_healthy(start + timeout)
        except BaseException:
            self.stop()
            raise
        setup_s = time.perf_counter() - start
        self.setup_s = setup_s / ((before + common.median_slowdown()) / 2)

    def _read_port(self, deadline: float) -> int:
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                raise RuntimeError("server did not report its port")
            line = stdout.readline().decode()
            if not line:
                raise RuntimeError("server exited during start-up")
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _ = get_json(self.port, "/v1/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def get_json(port: int, path: str) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


# -- the HTTP client -------------------------------------------------------

def _request(body: Dict) -> bytes:
    blob = json.dumps(body).encode()
    return (b"POST /v1/analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(blob)).encode() + b"\r\n\r\n" + blob)


async def _read_response(reader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class Outcome:
    """One request as the generator saw it (times are perf_counter)."""

    __slots__ = ("index", "key", "due", "sent", "done", "status", "body")

    def __init__(self, index: int, key: str, due: float):
        self.index, self.key, self.due = index, key, due
        self.sent = self.done = float("nan")
        self.status, self.body = 0, b""

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.due)


async def closed_loop(port: int, requests: Sequence[Tuple[str, bytes]],
                      calibrations: Optional[List[float]] = None
                      ) -> List[Outcome]:
    """Send each request after the previous response (one connection).
    With ``calibrations``, a calibration runs before every request and
    after the last one, while the server is idle."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    outcomes = []
    try:
        for index, (key, raw) in enumerate(requests):
            if calibrations is not None:
                calibrations.append(common.calibrate())
            outcome = Outcome(index, key, time.perf_counter())
            outcome.sent = outcome.due
            writer.write(raw)
            outcome.status, outcome.body = await asyncio.wait_for(
                _read_response(reader), REQUEST_TIMEOUT_S)
            outcome.done = time.perf_counter()
            outcomes.append(outcome)
        if calibrations is not None:
            calibrations.append(common.calibrate())
    finally:
        writer.close()
    return outcomes


async def pipelined(port: int, requests: Sequence[Tuple[str, bytes]]
                    ) -> List[Outcome]:
    """Write every request on one connection, then read the responses:
    the server answers back to back, so the pass times the server's
    warm path rather than round trips between the two processes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    start = time.perf_counter()
    outcomes = [Outcome(index, key, start)
                for index, (key, _raw) in enumerate(requests)]
    try:
        writer.write(b"".join(raw for _key, raw in requests))
        for outcome in outcomes:
            outcome.sent = start
            outcome.status, outcome.body = await asyncio.wait_for(
                _read_response(reader), REQUEST_TIMEOUT_S)
            outcome.done = time.perf_counter()
    finally:
        writer.close()
    return outcomes


async def open_loop(port: int, schedule: Sequence[Tuple[float, str, bytes]]
                    ) -> List[Outcome]:
    """Send each request at its due offset, pipelined on CONNECTIONS
    connections in turn; responses are read as they arrive."""
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    queues = [asyncio.Queue() for _ in conns]
    origin = time.perf_counter() + 0.05
    outcomes = [Outcome(i, key, origin + offset)
                for i, (offset, key, _raw) in enumerate(schedule)]

    async def read_all(reader, queue) -> None:
        while True:
            outcome = await queue.get()
            if outcome is None:
                return
            outcome.status, outcome.body = await _read_response(reader)
            outcome.done = time.perf_counter()

    readers = [asyncio.ensure_future(read_all(reader, queue))
               for (reader, _), queue in zip(conns, queues)]
    try:
        for outcome, (_offset, _key, raw) in zip(outcomes, schedule):
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[outcome.index % CONNECTIONS][1]
            outcome.sent = time.perf_counter()
            writer.write(raw)
            queues[outcome.index % CONNECTIONS].put_nowait(outcome)
        for queue in queues:
            queue.put_nowait(None)
        done, pending = await asyncio.wait(readers,
                                           timeout=REQUEST_TIMEOUT_S)
        for task in pending:
            task.cancel()
        for task in done:
            task.exception()
    finally:
        for _, writer in conns:
            writer.close()
    return outcomes


# -- the workload ------------------------------------------------------------

def serve_inputs(seed: int, seconds: float, quick: bool) -> Dict:
    """Every request of the run, derived from the benchmark seed.

    Before each open-loop phase, and once after the last, come a warm
    block (sequential passes over the pre-warmed cells) and a cold block
    (sequential never-seen specs): spreading the closed-loop samples
    over the run makes their medians steadier than one long block.
    In the open-loop phases every ``1 / FRESH_SHARE``-th request, from a
    seed-drawn offset, is never-seen, so cold work arrives evenly.
    """
    rng = random.Random(seed)
    specs: Dict[str, Dict] = {}
    warm_keys = []
    for doc in common.fig5_docs(quick, models=(None,)):
        key = f"fig5-{len(warm_keys)}"
        specs[key] = {"spec": doc, "include": ["iss", "mesh", "analytical"]}
        warm_keys.append(key)

    def fresh() -> str:
        spec_seed = rng.randrange(10**6, 10**9)
        while f"fresh-{spec_seed}" in specs:
            spec_seed = rng.randrange(10**6, 10**9)
        key = f"fresh-{spec_seed}"
        specs[key] = {"spec": common.fresh_uniform_doc(spec_seed),
                      "include": ["mesh"]}
        return key

    stride = round(1 / FRESH_SHARE)
    blocks = []
    for rate in SCHEDULE + (None,):
        block = {"rate": rate,
                 "cold_keys": [fresh() for _ in range(COLD_BLOCK)]}
        if rate is not None:
            count = max(stride, int(rate * seconds * PHASE_SHARES[rate]))
            offset = rng.randrange(stride)
            block["requests"] = [
                (index / rate,
                 fresh() if index % stride == offset
                 else rng.choice(warm_keys))
                for index in range(count)]
        blocks.append(block)
    return {"specs": specs, "warm_keys": warm_keys, "blocks": blocks}


def _raw(inputs: Dict, key: str, counter: List[int]) -> bytes:
    counter[0] += 1
    body = dict(inputs["specs"][key], tenant=f"user{counter[0] % TENANTS}")
    return _request(body)


def _session_delta(before: Dict, after: Dict) -> Dict[str, int]:
    """Session and store counter changes between two /v1/stats."""
    b, a = before["session"], after["session"]
    return {"hits": a["store"]["hits"] - b["store"]["hits"],
            "misses": a["store"]["misses"] - b["store"]["misses"],
            "workload_builds": a["workload_builds"] - b["workload_builds"],
            "runs_computed": (a["estimator_runs_computed"]
                              - b["estimator_runs_computed"]),
            "runs_cached": (a["estimator_runs_cached"]
                            - b["estimator_runs_cached"])}


def _bracketed(calibrations: List[float]) -> List[float]:
    """Mean slowdown of each pair of neighbouring calibrations."""
    slow = [common.slowdown(seconds) for seconds in calibrations]
    return [(a + b) / 2 for a, b in zip(slow, slow[1:])]


async def drive(port: int, inputs: Dict, warm_seconds: float) -> Dict:
    """Pre-warm, then warm/cold blocks around each open-loop phase."""
    counter = [0]
    warm_keys = inputs["warm_keys"]

    def requests(keys):
        return [(key, _raw(inputs, key, counter)) for key in keys]

    prewarm = await closed_loop(port, requests(warm_keys))
    warm_passes, cold, mixed = [], [], []
    # Slowdowns (common.slowdown) of the warm passes and cold requests:
    # the mean of the two calibrations that bracket each.
    warm_slowdowns: List[float] = []
    cold_slowdowns: List[float] = []
    # Every calibration's slowdown in order, and for each open-loop
    # phase how many came before it: a phase takes the mean of the last
    # one before it and the first one after it.
    timeline: List[float] = []
    phase_at: List[int] = []
    warm_delta: Dict[str, int] = {}
    for block in inputs["blocks"]:
        before = get_json(port, "/v1/stats")[1]
        calibrations = [common.calibrate()]
        block_start = time.perf_counter()
        while (time.perf_counter() - block_start < warm_seconds
               or not warm_passes):
            pass_start = time.perf_counter()
            outcomes = await pipelined(port, requests(warm_keys))
            warm_passes.append((time.perf_counter() - pass_start,
                                outcomes))
            calibrations.append(common.calibrate())
        warm_slowdowns.extend(_bracketed(calibrations))
        timeline.extend(common.slowdown(c) for c in calibrations)
        delta = _session_delta(before, get_json(port, "/v1/stats")[1])
        for name, value in delta.items():
            warm_delta[name] = warm_delta.get(name, 0) + value
        calibrations = []
        cold.extend(await closed_loop(port, requests(block["cold_keys"]),
                                      calibrations))
        cold_slowdowns.extend(_bracketed(calibrations))
        timeline.extend(common.slowdown(c) for c in calibrations)
        if block["rate"] is not None:
            schedule = [(offset, key, _raw(inputs, key, counter))
                        for offset, key in block["requests"]]
            mixed.append((block["rate"], await open_loop(port, schedule)))
            phase_at.append(len(timeline))
    return {"prewarm": prewarm, "cold": cold, "warm_passes": warm_passes,
            "cold_slowdowns": cold_slowdowns,
            "warm_slowdowns": warm_slowdowns,
            # Every phase is followed by a block, so timeline[at] exists.
            "mixed_slowdowns": [(timeline[at - 1] + timeline[at]) / 2
                                for at in phase_at],
            "mixed": mixed, "warm_delta": warm_delta,
            "stats_end": get_json(port, "/v1/stats")[1]}


def reference_runs(specs: Dict[str, Dict]) -> Dict[str, Dict]:
    """In-process ExecutionSession results (no store) per request key."""
    from repro.engine.session import ExecutionSession
    from repro.scenario.spec import ScenarioSpec

    session = ExecutionSession()
    out = {}
    for key, body in specs.items():
        spec = ScenarioSpec.from_dict(body["spec"])
        comparison = session.comparison(spec, include=body["include"])
        out[key] = {"spec_hash": spec.spec_hash(),
                    "runs": {est: [run.queueing_cycles,
                                   run.percent_queueing]
                             for est, run in comparison.runs.items()}}
    return out


def check_body(outcome: Outcome, expected: Dict) -> Optional[str]:
    """Why a response is a failure, or ``None`` when it is correct."""
    if outcome.status != 200:
        return f"{outcome.key}: status {outcome.status}"
    body = json.loads(outcome.body)
    if body.get("spec_hash") != expected["spec_hash"]:
        return f"{outcome.key}: spec_hash differs"
    got = {est: [run["queueing_cycles"], run["percent_queueing"]]
           for est, run in body["runs"].items()}
    if got != expected["runs"]:
        return f"{outcome.key}: {got} != in-process {expected['runs']}"
    return None


def _backlog_grows(outcomes: List[Outcome]) -> bool:
    """Whether the last quarter of a phase waited much longer than the
    first, i.e. requests queued faster than the server drained them."""
    latencies = [o.latency_ms for o in outcomes]
    quarter = max(1, len(latencies) // 4)
    head = common.percentile(latencies[:quarter], 0.5)
    tail = common.percentile(latencies[-quarter:], 0.5)
    return tail > max(2.0 * head, head + 10.0)


def rate_summary(slices: List[List[Outcome]]) -> Dict:
    """Latency, lateness and throughput of every phase at one rate."""
    outcomes = [o for phase in slices for o in phase]
    done = [o for o in outcomes if not math.isnan(o.done)]
    latencies = [o.latency_ms for o in done]
    complete = len(done) == len(outcomes)
    busy = sum(max(o.done for o in phase) - phase[0].due
               for phase in slices) if complete else float("nan")
    return {
        "requests": len(outcomes),
        "completed": len(done),
        "ok": complete and all(o.status == 200 for o in outcomes),
        "p50_ms": common.percentile(latencies, 0.50),
        "p99_ms": common.percentile(latencies, 0.99),
        "lag_p99_ms": common.percentile(
            [1e3 * (o.sent - o.due) for o in outcomes], 0.99),
        "backlog_grows": complete and any(_backlog_grows(phase)
                                          for phase in slices),
        "throughput": len(done) / busy if complete else 0.0,
    }


def _in_process_costs(specs: Dict[str, Dict], keys: Sequence[str],
                      store_root: Path, payloads: List[Dict]) -> Dict:
    """Per-call costs (us) of the layers a warm request passes through,
    timed in this process on the server's store, plus RunStore.put on a
    scratch store."""
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.store import RunStore

    store = RunStore(store_root)
    totals = {"from_dict": [], "validate": [], "hash": [], "get": []}
    per_request = []
    for key in keys:
        body = specs[key]
        t0 = time.perf_counter()
        spec = ScenarioSpec.from_dict(body["spec"])
        t1 = time.perf_counter()
        spec.validate()
        t2 = time.perf_counter()
        spec_hash = spec.spec_hash()
        t3 = time.perf_counter()
        for estimator in body["include"]:
            store.get(spec_hash, estimator)
        t4 = time.perf_counter()
        totals["from_dict"].append(t1 - t0)
        totals["validate"].append(t2 - t1)
        totals["hash"].append(t3 - t2)
        totals["get"].append((t4 - t3) / len(body["include"]))
        per_request.append(t4 - t0)
    scratch = RunStore(store_root.parent / "put-scratch")
    puts = []
    for payload in payloads:
        start = time.perf_counter()
        scratch.put(payload["spec_hash"], payload["estimator"], payload)
        puts.append(time.perf_counter() - start)
    return {"validate_us": 1e6 * common.percentile(totals["validate"], .5),
            "hash_us": 1e6 * common.percentile(totals["hash"], .5),
            "get_us": 1e6 * common.percentile(totals["get"], .5),
            "put_us": 1e6 * common.percentile(puts, .5),
            "request_ms": 1e3 * common.percentile(per_request, .5)}


def _replica_backends(specs: Dict[str, Dict], store_root: Path) -> Dict:
    """Backend tiers the drain's batched prepass picks for these specs,
    from an in-process replica (``/v1/stats`` does not expose them)."""
    from repro.engine.session import ExecutionSession
    from repro.scenario.spec import ScenarioSpec

    session = ExecutionSession(store=store_root)
    counters = session.prepass(
        [ScenarioSpec.from_dict(body["spec"]) for body in specs.values()],
        batch_cells=0)
    return dict(counters["backend_used"])


def run_serve(seed: int, seconds: float, quick: bool, trace: bool,
              work: Path, setup_samples: int) -> Dict:
    """The whole serve_mixed run: returns metric samples and checks."""
    if quick:
        seconds = min(seconds, 4.0)
    inputs = serve_inputs(seed, seconds, quick)
    store = work / "serve-store"
    cpus = os.sched_getaffinity(0)
    # Server and generator share one CPU: a wake-up across CPUs costs a
    # virtual machine far more, and far less steadily, than one on the
    # same CPU.  The server is one process under one interpreter lock,
    # so it uses one CPU either way.
    os.sched_setaffinity(0, {max(cpus)})
    try:
        server = Server(store, work / "server.log")
        try:
            data = asyncio.run(drive(server.port, inputs,
                                     0.1 if quick else WARM_BLOCK_SECONDS))
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()
        setups = [server.setup_s]
        while len(setups) < setup_samples:
            probe = Server(work / f"probe-store-{len(setups)}",
                           work / "probe.log")
            probe.stop()
            setups.append(probe.setup_s)
    finally:
        os.sched_setaffinity(0, cpus)

    refs = reference_runs(inputs["specs"])
    digest = common.load_reference("fig5_models")
    errors: List[str] = []
    outcomes = data["prewarm"] + data["cold"]
    for _wall, pass_outcomes in data["warm_passes"]:
        outcomes.extend(pass_outcomes)
    for _rate, phase in data["mixed"]:
        outcomes.extend(phase)
    failed = 0
    for outcome in outcomes:
        problem = check_body(outcome, refs[outcome.key])
        if problem:
            failed += 1
            if len(errors) < 20:
                errors.append(problem)
    prewarm_runs = []
    for outcome in data["prewarm"]:
        if outcome.status != 200:
            continue
        runs = {est: run["queueing_cycles"]
                for est, run in json.loads(outcome.body)["runs"].items()}
        prewarm_runs.append(runs)
        problems = common.digest_mismatches(
            digest, refs[outcome.key]["spec_hash"], runs)
        if problems:
            failed += 1
            errors.extend(f"digest {p}" for p in problems)
    service = data["stats_end"]["service"]
    for counter in ("quota_rejections", "deadline_timeouts",
                    "batch_errors", "validation_errors"):
        if service[counter]:
            errors.append(f"server counted {service[counter]} "
                          f"{counter}")
    delta = data["warm_delta"]
    if delta["misses"] or delta["runs_computed"] or \
            delta["workload_builds"]:
        errors.append(f"warm blocks missed the store: {delta}")

    by_rate: Dict[int, List[List[Outcome]]] = {}
    for rate, phase in data["mixed"]:
        by_rate.setdefault(rate, []).append(phase)
    phases = {rate: rate_summary(slices)
              for rate, slices in sorted(by_rate.items())}
    passing = [rate for rate, summary in phases.items()
               if summary["ok"] and summary["p99_ms"] <= LATENCY_LIMIT_MS
               and not summary["backlog_grows"]]
    middle = phases[MIDDLE_RATE]
    # p50 and p99 at the middle rate, each latency divided by its
    # phase's slowdown.
    middle_ms = [o.latency_ms / slow
                 for (rate, phase), slow in zip(data["mixed"],
                                                data["mixed_slowdowns"])
                 if rate == MIDDLE_RATE
                 for o in phase if not math.isnan(o.done)]
    # Rates and latencies are scaled to the reference host's speed by
    # the calibrations around each pass, request or open-loop phase (a
    # calibration amid open-loop load would delay its requests).
    samples = {
        "setup_s": setups,
        # Cold blocks are sequential, so 1 / latency is the cell rate.
        "cold_cells_per_s": [1e3 / o.latency_ms * slow for o, slow in
                             zip(data["cold"], data["cold_slowdowns"])],
        "warm_cells_per_s": [len(pass_outcomes) / wall * slow
                             for (wall, pass_outcomes), slow in
                             zip(data["warm_passes"],
                                 data["warm_slowdowns"])],
        "mesh_err_pct": [common.mean_mesh_error(prewarm_runs)],
        "p50_ms": [common.percentile(middle_ms, 0.50)],
        "p99_ms": [common.percentile(middle_ms, 0.99)],
        "max_rps": [phases[max(passing)]["throughput"] if passing
                    else 0.0],
        "peak_rss_mb": [peak_rss],
    }
    rates = {
        "cold_cells_per_s": 1e3 * len(data["cold"]) / sum(
            o.latency_ms / slow for o, slow in
            zip(data["cold"], data["cold_slowdowns"])),
    }
    result = {"samples": samples, "rates": rates,
              "attempted": len(outcomes),
              "failed": failed, "errors": errors,
              "detail": {
                  "phases": phases, "passing_rates": passing,
                  "latency_limit_ms": LATENCY_LIMIT_MS,
                  # As measured, before the scaling to reference speed.
                  "unscaled_cold_cells_per_s": 1e3 * len(data["cold"]) / sum(
                      o.latency_ms for o in data["cold"]),
                  "unscaled_warm_cells_per_s": statistics.median(
                      len(passes) / wall
                      for wall, passes in data["warm_passes"]),
                  "unscaled_p50_ms": middle["p50_ms"],
                  "unscaled_p99_ms": middle["p99_ms"],
                  "cold_slowdown": common.summarize(data["cold_slowdowns"]),
                  "warm_slowdown": common.summarize(
                      data["warm_slowdowns"])}}
    if trace:
        result["layers"] = _serve_layers(inputs, data, store, work)
    return result


def _serve_layers(inputs: Dict, data: Dict, store: Path,
                  work: Path) -> Dict[str, float]:
    """Per-layer metrics of the serving path (see README.md)."""
    middle = [outcome for rate, phase in data["mixed"]
              if rate == MIDDLE_RATE for outcome in phase]
    by_source: Dict[str, List[float]] = {"store": [], "cold": []}
    for outcome in middle:
        if outcome.status == 200:
            source = json.loads(outcome.body)["source"]
            by_source["store" if source == "store" else "cold"].append(
                outcome.latency_ms)
    # Server time per warm request: the pipelined passes keep the
    # server busy back to back, so this excludes client round trips.
    warm_ms = 1e3 * common.percentile(
        [wall / len(passes) for wall, passes in data["warm_passes"]], 0.5)
    payloads = []
    for outcome in data["prewarm"]:
        body = json.loads(outcome.body)
        for estimator, run in body["runs"].items():
            payloads.append(dict(run, spec_hash=body["spec_hash"],
                                 estimator=estimator))
    costs = _in_process_costs(inputs["specs"], inputs["warm_keys"], store,
                              payloads)
    delta = data["warm_delta"]
    end = data["stats_end"]
    session = end["session"]
    service = end["service"]
    probes = delta["hits"] + delta["misses"]
    batched = session["prepass"]["cells_batched"]
    backends = _replica_backends(inputs["specs"], work / "replica-store")
    return {
        "scenario.spec.validate_us": costs["validate_us"],
        "scenario.spec.hash_us": costs["hash_us"],
        "scenario.store.get_us": costs["get_us"],
        "scenario.store.put_us": costs["put_us"],
        "scenario.store.hit_ratio": delta["hits"] / probes if probes else 0.0,
        "workloads.builds": delta["workload_builds"],
        "engine.runs_computed": delta["runs_computed"],
        "engine.runs_cached": delta["runs_cached"],
        "engine.workload_builds": session["workload_builds"],
        "core.prepass_cells": batched,
        "core.engine_used.soa": batched,
        "core.engine_used.object": service["cells_drained"] - batched,
        "core.backend_used.interp": backends.get("interp", 0),
        "core.backend_used.numpy": backends.get("numpy", 0),
        "core.backend_used.jit": backends.get("jit", 0),
        "service.warm_ms": common.percentile(by_source["store"], 0.5),
        "service.cold_ms": common.percentile(by_source["cold"], 0.5),
        "service.framing_ms": warm_ms - costs["request_ms"],
        "service.coalesce_joins": end["coalescing"]["joins"],
        "service.batch_cells": (service["cells_drained"]
                                / max(1, service["batches_drained"])),
        "service.quota_rejected": service["quota_rejections"],
        "loadgen.lag_ms": common.percentile(
            [1e3 * (o.sent - o.due) for o in middle], 0.99),
        "unattributed_share_warm": 1.0 - costs["request_ms"] / warm_ms,
    }
