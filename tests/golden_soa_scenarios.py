"""Sync scenarios that compile under the widened SoA subset.

Shared between the golden generator (``generate_golden_soa.py``) and
the test suite: each factory builds a deterministic kernel using only
the widened compiled subset — consumes plus barrier waits and FIFO
mutexes under the eager wake policy — so every configuration must run
on the array engine with **zero** fallback.  Before the subset widened
these shapes were object-only (any sync event routed to the object
engine); the committed ``data/golden_soa.json`` pins their bit-exact
results on the SoA path.

The snapshots are generated from the *object* engine — the golden file
pins the seed semantics, and the SoA/JIT replays must reproduce them,
never the other way around.
"""

from __future__ import annotations

import pathlib

from repro.contention import ConstantModel, NullModel
from repro.core import (Barrier, HybridKernel, LogicalThread, Mutex,
                        Processor, SharedResource)
from repro.core.events import acquire, barrier_wait, consume, release

SOA_GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "data" / (
    "golden_soa.json")

#: Analyze every window (0.0) and merge undersized windows (6.0).
MIN_TIMESLICES = (0.0, 6.0)


def _barrier_pipeline(**kw):
    """Three stages rendezvous at a shared barrier each round."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.25)]
    res = [SharedResource("bus", ConstantModel(0.5), service_time=2.0),
           SharedResource("mem", NullModel(), service_time=3.0)]
    kernel = HybridKernel(procs, res, **kw)
    gate = Barrier(3, name="stage")

    def worker(idx):
        def body():
            for i in range(5):
                acc = ({"bus": 2 + (idx + i) % 3, "mem": 1 + i % 2}
                       if (idx + i) % 2 == 0 else None)
                yield consume(24 + 6 * ((idx + 2 * i) % 4), acc)
                yield barrier_wait(gate)
        return body

    for idx in range(3):
        kernel.add_thread(LogicalThread(f"s{idx}", worker(idx)))
    return kernel


def _mutex_ring(**kw):
    """Four threads contending on one FIFO mutex around bus traffic."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    res = [SharedResource("bus", ConstantModel(0.75), service_time=2.0)]
    kernel = HybridKernel(procs, res, **kw)
    lock = Mutex("ring")

    def worker(idx):
        def body():
            for i in range(4):
                yield consume(18 + 5 * ((idx + i) % 5))
                yield acquire(lock)
                yield consume(9 + idx % 3, {"bus": 2 + (i + idx) % 3})
                yield release(lock)
        return body

    for idx in range(4):
        kernel.add_thread(LogicalThread(f"r{idx}", worker(idx)))
    return kernel


def _mixed_sync(**kw):
    """Barrier-aligned rounds with a mutex-guarded middle section."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0),
             Processor("p2", 0.8)]
    res = [SharedResource("bus", ConstantModel(0.5), service_time=2.0)]
    kernel = HybridKernel(procs, res, **kw)
    gate = Barrier(3, name="round")
    lock = Mutex("table")

    def worker(idx):
        def body():
            for i in range(3):
                yield consume(30 + 4 * ((idx * 3 + i) % 6),
                              {"bus": 1 + (idx + i) % 4})
                yield acquire(lock)
                yield consume(7 + (idx + i) % 3)
                yield release(lock)
                yield barrier_wait(gate)
        return body

    for idx in range(3):
        kernel.add_thread(LogicalThread(f"m{idx}", worker(idx)))
    return kernel


SOA_SCENARIOS = {
    "barrier_pipeline": _barrier_pipeline,
    "mutex_ring": _mutex_ring,
    "mixed_sync": _mixed_sync,
}


def iter_soa_configs():
    """Every (scenario, min_timeslice) golden cell, sorted."""
    for name in sorted(SOA_SCENARIOS):
        for mts in MIN_TIMESLICES:
            yield name, mts


def soa_config_key(name: str, mts: float) -> str:
    return f"{name}|mts={mts:g}"


def soa_kernel(name: str, mts: float, **kw) -> HybridKernel:
    """Build one golden cell's kernel (extra kwargs select engines)."""
    return SOA_SCENARIOS[name](min_timeslice=mts, **kw)


def soa_snapshot(result) -> dict:
    """Hex-float serialization of a result (bit identity, not ``==``)."""
    _hex = lambda v: float(v).hex()  # noqa: E731
    return {
        "makespan": _hex(result.makespan),
        "regions": result.regions_committed,
        "slices": [result.slices_analyzed, result.slices_merged],
        "queueing": _hex(result.queueing_cycles),
        "threads": {
            name: [_hex(t.base_time), _hex(t.penalty), t.regions,
                   _hex(t.finish_time)]
            for name, t in result.threads.items()},
        "processors": {
            name: [_hex(p.busy_time), p.regions]
            for name, p in result.processors.items()},
        "resources": {
            name: [_hex(r.accesses), _hex(r.penalty), r.active_slices,
                   {t: _hex(v)
                    for t, v in r.penalty_by_thread.items()}]
            for name, r in result.resources.items()},
    }
