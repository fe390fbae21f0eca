"""Closed-loop load generator for the analyze service.

Measures the server as the shared resource it is: ``--clients``
closed-loop clients (each fires its next request only after the
previous response lands) drive a mixed warm/cold request stream
against a live ``/v1/analyze`` endpoint and report latency quantiles
(p50/p99), throughput, and the warm-hit ratio, recorded as
``benchmarks/out/BENCH_service.json`` via
:func:`repro.perf.bench.record_bench` and gated in CI against
``benchmarks/baseline/BENCH_service.json`` by :mod:`repro.perf.gate`.

The gated metrics are ratio-style (comparable across machines):

* ``service_mixed.warm_hit_ratio`` — fraction of mixed-phase requests
  answered straight from the run store; a facade or probe bug that
  silently recomputes warm cells collapses it.
* ``service_mixed.warm_efficiency`` — ``calibration_ms`` over the
  sequential warm p50.  ``calibration_ms`` is the client's own median
  time to round-trip a warm response through ``json.dumps`` and
  ``json.loads``, taken right after each sequential warm request, so
  the ratio cancels the host's speed (which drifts over seconds) and
  needs no access to the server.  A slower warm path lowers it.

``warm_speedup`` (cold p50 over warm p50) is recorded but not gated:
it falls whenever cold requests get faster.

Run standalone (spawns its own server on an ephemeral port)::

    python -m repro.service.loadgen --out-dir benchmarks/out

or point it at a running server with ``--base-url``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: The standing mixed-workload spec template (small on purpose: the
#: benchmark measures the serving stack, not the kernel).
def _spec(seed: int) -> Dict:
    return {"generator": "uniform",
            "params": {"threads": 4, "phases": 20, "accesses": 200,
                       "seed": seed}}


@dataclass
class Sample:
    """One request's outcome as the client saw it."""

    latency_seconds: float
    status: int
    source: str  # "store" | "computed" | "mixed" | "error"


@dataclass
class LoadResult:
    """Everything one load phase measured."""

    samples: List[Sample] = field(default_factory=list)
    wall_seconds: float = 0.0

    def latencies(self, source: Optional[str] = None) -> List[float]:
        """Ascending latencies, optionally only one response class."""
        return sorted(s.latency_seconds for s in self.samples
                      if source is None or s.source == source)

    @property
    def errors(self) -> int:
        """Number of non-200 responses in the phase."""
        return sum(1 for s in self.samples if s.status != 200)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


#: Rounds of sequential warm probes over the warm specs.
WARM_ROUNDS = 5


def round_trip_ms(payload: Dict, repeats: int = 50) -> float:
    """Mean milliseconds of one ``json.loads(json.dumps(payload))``
    round trip over ``repeats``: the host-speed reference of
    ``warm_efficiency``."""
    start = time.perf_counter()
    for _ in range(repeats):
        json.loads(json.dumps(payload))
    return 1e3 * (time.perf_counter() - start) / repeats


def _post(host: str, port: int, body: Dict,
          timeout: float = 120.0) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/v1/analyze",
                     body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(
            response.read().decode() or "{}")
    finally:
        conn.close()


def run_load(host: str, port: int, bodies: Sequence[Dict],
             clients: int, requests_per_client: int) -> LoadResult:
    """Closed-loop phase: each client round-robins over ``bodies``.

    Client ``c``'s ``i``-th request uses ``bodies[(c * requests_per_
    client + i) % len(bodies)]`` — a deterministic interleaving, so
    the warm/cold mix is a property of ``bodies``, not of scheduling.
    """
    result = LoadResult()
    lock = threading.Lock()
    gate = threading.Barrier(clients)

    def client(index: int) -> None:
        gate.wait()
        local: List[Sample] = []
        for i in range(requests_per_client):
            body = bodies[(index * requests_per_client + i)
                          % len(bodies)]
            start = time.perf_counter()
            try:
                status, payload = _post(host, port, body)
                source = payload.get("source", "error")
            except OSError:
                status, source = 599, "error"
            local.append(Sample(time.perf_counter() - start,
                                status, source))
        with lock:
            result.samples.extend(local)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - start
    return result


def run_bench(host: str, port: int, clients: int = 8,
              requests_per_client: int = 25,
              warm_specs: int = 6, fresh_specs: int = 2) -> Dict:
    """The standing benchmark: cold warmup, then a mixed phase.

    Phase 1 (measured as the *cold* class) runs each of the
    ``warm_specs`` scenario variants once, sequentially — every
    request computes.  Phase 2 is the closed-loop mixed phase: the
    now-warm variants plus ``fresh_specs`` never-seen variants, so
    the stream is mostly store hits with a cold minority exercising
    the coalesce-and-drain path under concurrency.
    """
    warm_bodies = [{"spec": _spec(seed), "include": ["mesh"]}
                   for seed in range(warm_specs)]
    fresh_bodies = [{"spec": _spec(1000 + seed), "include": ["mesh"]}
                    for seed in range(fresh_specs)]

    cold = LoadResult()
    for body in warm_bodies:
        start = time.perf_counter()
        status, payload = _post(host, port, body)
        cold.samples.append(Sample(time.perf_counter() - start,
                                   status,
                                   payload.get("source", "error")))
    cold.wall_seconds = sum(s.latency_seconds for s in cold.samples)

    mixed = run_load(host, port, warm_bodies + fresh_bodies,
                     clients=clients,
                     requests_per_client=requests_per_client)

    # Sequential warm probes: the apples-to-apples counterpart of the
    # sequential cold phase (the mixed-phase warm latencies include
    # client-concurrency queueing at the server, which is a different
    # measurement).  Each is followed by a calibration on its response,
    # so the two samples see the same host speed.
    warm_seq = LoadResult()
    calibrations = []
    for _ in range(WARM_ROUNDS):
        for body in warm_bodies:
            start = time.perf_counter()
            status, payload = _post(host, port, body)
            warm_seq.samples.append(Sample(time.perf_counter() - start,
                                           status,
                                           payload.get("source", "error")))
            calibrations.append(round_trip_ms(payload))

    warm_lat = mixed.latencies("store")
    all_lat = mixed.latencies()
    cold_lat = cold.latencies()
    total = len(mixed.samples)
    warm_hits = len(warm_lat)
    warm_p50 = percentile(warm_lat, 0.50)
    warm_seq_p50 = percentile(warm_seq.latencies(), 0.50)
    cold_p50 = percentile(cold_lat, 0.50)
    calibration_ms = percentile(sorted(calibrations), 0.50)
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "warm_specs": warm_specs,
        "fresh_specs": fresh_specs,
        "requests_total": total,
        "errors": cold.errors + mixed.errors + warm_seq.errors,
        "cold_p50_ms": 1e3 * cold_p50,
        "cold_p99_ms": 1e3 * percentile(cold_lat, 0.99),
        "latency_p50_ms": 1e3 * percentile(all_lat, 0.50),
        "latency_p99_ms": 1e3 * percentile(all_lat, 0.99),
        "warm_p50_ms": 1e3 * warm_p50,
        "warm_p99_ms": 1e3 * percentile(warm_lat, 0.99),
        "warm_seq_p50_ms": 1e3 * warm_seq_p50,
        "warm_hit_ratio": warm_hits / total if total else 0.0,
        "warm_speedup": (cold_p50 / warm_seq_p50
                         if warm_seq_p50 > 0 else 0.0),
        "calibration_ms": calibration_ms,
        "warm_efficiency": (calibration_ms / (1e3 * warm_seq_p50)
                            if warm_seq_p50 > 0 else 0.0),
        "throughput_rps": (total / mixed.wall_seconds
                           if mixed.wall_seconds > 0 else 0.0),
    }


#: Metric paths the committed baseline gates (ratio-style only:
#: absolute latencies depend on the runner, ratios do not).
GATE_METRICS = ["service_mixed.warm_hit_ratio",
                "service_mixed.warm_efficiency"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the benchmark, record, print, exit 0/1."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="closed-loop load benchmark for the analyze "
                    "service; records BENCH_service.json")
    parser.add_argument("--base-url", default=None,
                        help="http://host:port of a running service "
                             "(default: spawn one on an ephemeral "
                             "port with a temporary store)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests-per-client", type=int, default=25)
    parser.add_argument("--warm-specs", type=int, default=6)
    parser.add_argument("--fresh-specs", type=int, default=2)
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="bench record directory (default: "
                             "benchmarks/out)")
    args = parser.parse_args(argv)

    from ..perf.bench import record_bench

    def measure(host: str, port: int) -> Dict:
        return run_bench(host, port, clients=args.clients,
                         requests_per_client=args.requests_per_client,
                         warm_specs=args.warm_specs,
                         fresh_specs=args.fresh_specs)

    if args.base_url:
        stripped = args.base_url.split("//", 1)[-1].rstrip("/")
        host, _, port = stripped.partition(":")
        scenario = measure(host or "127.0.0.1", int(port or 80))
    else:
        from .server import ServiceConfig, ServiceHandle

        with tempfile.TemporaryDirectory() as tmp:
            config = ServiceConfig(port=0, store=f"{tmp}/store",
                                   quota_capacity=1_000_000,
                                   quota_refill_per_second=1e6)
            with ServiceHandle(config) as handle:
                scenario = measure(config.host, handle.port)

    payload = {"gate_metrics": list(GATE_METRICS),
               "scenarios": {"service_mixed": scenario}}
    path = record_bench("service", payload, out_dir=args.out_dir)
    print(f"wrote {path}")
    for key in ("latency_p50_ms", "latency_p99_ms", "warm_p50_ms",
                "cold_p50_ms", "warm_hit_ratio", "warm_speedup",
                "calibration_ms", "warm_efficiency", "throughput_rps",
                "errors"):
        value = scenario[key]
        shown = f"{value:.3f}" if isinstance(value, float) else value
        print(f"  {key}: {shown}")
    return 1 if scenario["errors"] else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
