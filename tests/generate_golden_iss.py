"""Regenerate the ISS payload golden (``data/golden_iss.json``).

Run from the repository root::

    PYTHONPATH=src:tests python tests/generate_golden_iss.py

Each case runs :class:`~repro.cycle.EventEngine` and pins its
``cycle_result_to_dict`` payload — the exact ``iss`` artifact the run
store keeps — with every float written as ``float.hex``:

* the 24 distinct workloads of the ``fig5_models`` grid (8 bus delays
  x 3 seeds of the 90%-idle PHM scenario);
* FFT 1024 points / 2 processors / 8 KB, a PHM build, and a
  barrier+lock workload;
* a ``ports=2`` and a ``burst>1`` workload;
* ``roundrobin`` and ``priority`` arbitration;
* the SHA-256 digest of one ``record_grants=True`` grant log;
* the ``partial_result`` of ``max_virtual_time`` budget aborts, some
  with requests still queued, under each arbiter.

Only regenerate when the ground truth is *intentionally* changed — a
diff here on a performance change is a regression, not an update.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict, Iterator, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.errors import BudgetExceededError  # noqa: E402
from repro.core.export import cycle_result_to_dict  # noqa: E402
from repro.cycle import EventEngine  # noqa: E402
from repro.robustness.budget import RunBudget  # noqa: E402
from repro.workloads.trace import (BarrierOp, IdleOp, LockOp,  # noqa: E402
                                   Phase, ProcessorSpec, ResourceSpec,
                                   ThreadTrace, UnlockOp, Workload)

ISS_GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "data" / (
    "golden_iss.json")

#: The ``fig5_models`` grid's distinct workloads (``perfbench`` draws
#: the same seeds and bus delays; the model does not change the
#: workload, so one ISS run covers all four models of a cell).
FIG5_SEEDS = (1, 2, 3)
FIG5_BUS_DELAYS = (2, 4, 6, 8, 10, 12, 16, 20)


def hexify(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexify(item) for item in value]
    return value


def barrier_lock_workload() -> Workload:
    """Three threads crossing barriers, sharing a lock, and idling."""
    threads = []
    for index in range(3):
        items = []
        for round_index in range(4):
            items.append(Phase(work=400 + 90 * index, accesses=12,
                               pattern="random",
                               seed=31 * index + round_index))
            items.append(LockOp("m"))
            items.append(Phase(work=120, accesses=6, pattern="uniform"))
            items.append(UnlockOp("m"))
            if index == round_index % 3:
                items.append(IdleOp(150))
            items.append(BarrierOp(f"b{round_index}"))
        threads.append(ThreadTrace(f"t{index}", items,
                                   affinity=f"p{index}",
                                   priority=index))
    return Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}", (1.0, 0.5, 2.0)[i])
                    for i in range(3)],
        resources=[ResourceSpec("bus", 4)],
    )


def ports_workload() -> Workload:
    """Four threads on a dual-port memory plus a single-port bus."""
    threads = [
        ThreadTrace(f"t{index}", [
            Phase(work=900, accesses=40, resource="mem",
                  pattern="random", seed=index),
            Phase(work=300, accesses=10, resource="bus",
                  pattern="front"),
            Phase(work=500, accesses=25, resource="mem",
                  pattern="uniform"),
        ], affinity=f"p{index}")
        for index in range(4)
    ]
    return Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}") for i in range(4)],
        resources=[ResourceSpec("mem", 5, ports=2),
                   ResourceSpec("bus", 3)],
    )


def burst_workload() -> Workload:
    """Mixed burst lengths on one bus, with a back-loaded phase."""
    threads = [
        ThreadTrace(f"t{index}", [
            Phase(work=800, accesses=20, pattern="random",
                  seed=7 + index, burst=1 + 3 * (index % 2)),
            Phase(work=200, accesses=8, pattern="back", burst=8),
            Phase(work=600, accesses=30, pattern="random",
                  seed=40 + index),
        ], affinity=f"p{index}")
        for index in range(3)
    ]
    return Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}", 1.0 + 0.5 * i)
                    for i in range(3)],
        resources=[ResourceSpec("bus", 3)],
    )


def _fft():
    from repro.workloads.fft import fft_workload

    return fft_workload(points=1024, processors=2, cache_kb=8)


def _fft4():
    from repro.workloads.fft import fft_workload

    return fft_workload(points=1024, processors=4, cache_kb=8)


def _phm():
    from repro.workloads.phm import phm_workload

    return phm_workload(busy_cycles_target=30_000, seed=5)


def _fig5(bus_delay: int, seed: int) -> Callable[[], Workload]:
    def build() -> Workload:
        from repro.experiments.fig5 import fig5_specs

        (spec,) = fig5_specs(bus_delays=(bus_delay,), seed=seed)
        return spec.build_workload()
    return build


def _payload(workload: Workload, **options) -> Dict:
    return hexify(cycle_result_to_dict(EventEngine(workload,
                                                   **options).run()))


def _grant_digest(workload: Workload) -> Dict:
    result = EventEngine(workload, record_grants=True).run()
    log = [[g.resource, g.thread, g.request_time, g.grant_time,
            g.service] for g in result.grants]
    digest = hashlib.sha256(
        json.dumps(log, separators=(",", ":")).encode("utf-8"))
    return {"grants": len(log), "sha256": digest.hexdigest(),
            "result": hexify(cycle_result_to_dict(result))}


def _partial(workload: Workload, max_virtual_time: float,
             **options) -> Dict:
    budget = RunBudget(max_virtual_time=max_virtual_time)
    try:
        EventEngine(workload, budget=budget, **options).run()
    except BudgetExceededError as exc:
        return {"reason": exc.reason,
                "partial_result": hexify(
                    cycle_result_to_dict(exc.partial_result))}
    raise AssertionError("the budget did not trip")


def iter_iss_cases() -> Iterator[Tuple[str, Callable[[], Dict]]]:
    """``(key, snapshot builder)`` for every pinned ISS case."""
    for seed in FIG5_SEEDS:
        for delay in FIG5_BUS_DELAYS:
            yield (f"fig5/seed{seed}/bus{delay}",
                   lambda b=_fig5(delay, seed): _payload(b()))
    yield "fft_1024_2p_8kb", lambda: _payload(_fft())
    yield "phm_30k_seed5", lambda: _payload(_phm())
    yield "barrier_lock", lambda: _payload(barrier_lock_workload())
    yield "ports2", lambda: _payload(ports_workload())
    yield "burst", lambda: _payload(burst_workload())
    for arbiter in ("roundrobin", "priority"):
        yield (f"fft_1024_4p_8kb/{arbiter}",
               lambda a=arbiter: _payload(_fft4(), arbiter=a))
        yield (f"barrier_lock/{arbiter}",
               lambda a=arbiter: _payload(barrier_lock_workload(),
                                          arbiter=a))
        yield (f"ports2/{arbiter}",
               lambda a=arbiter: _payload(ports_workload(), arbiter=a))
    yield "grant_log/burst", lambda: _grant_digest(burst_workload())
    yield ("budget/phm_max_virtual_time",
           lambda: _partial(_phm(), max_virtual_time=20_000))
    # Aborts with requests still queued, under each arbiter.
    yield ("budget/ports2_max_virtual_time",
           lambda: _partial(ports_workload(), max_virtual_time=50))
    yield ("budget/burst_roundrobin",
           lambda: _partial(burst_workload(), max_virtual_time=1_200,
                            arbiter="roundrobin"))
    yield ("budget/barrier_lock_priority",
           lambda: _partial(barrier_lock_workload(),
                            max_virtual_time=2_500, arbiter="priority"))


def main() -> None:
    snapshots = {}
    for key, build in iter_iss_cases():
        snapshots[key] = build()
        print(f"  {key}")
    ISS_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    ISS_GOLDEN_PATH.write_text(
        json.dumps(snapshots, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {ISS_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
