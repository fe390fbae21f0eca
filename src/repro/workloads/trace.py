"""The shared workload intermediate representation.

Every experiment in the paper compares three estimators — cycle-accurate
simulation, the MESH hybrid, and a whole-run analytical model — on *the
same* workload.  To make that comparison meaningful, workloads are
expressed once in a platform-independent IR and then lowered to each
estimator:

* :mod:`repro.cycle` expands each :class:`Phase` into per-access micro-ops
  and simulates real bus arbitration;
* :mod:`repro.workloads.to_mesh` turns each :class:`Phase` into one
  ``consume`` annotation (the paper's "annotations at every
  synchronization point" granularity corresponds to one phase per
  barrier-to-barrier span);
* :mod:`repro.analytical` reduces the whole trace to per-thread average
  access rates.

A :class:`Phase` carries *work* in abstract complexity units (resolved
against processor power), a number of accesses to one shared resource,
and an intra-phase access placement pattern.  Barriers synchronize
threads; idle ops model the data-dependent gaps the PHM example relies
on.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

PATTERNS = ("uniform", "front", "back", "random")


@dataclass(frozen=True)
class Phase:
    """A span of computation containing shared-resource accesses.

    Attributes
    ----------
    work:
        Computational complexity (cycles on a power-1.0 processor).
    accesses:
        Number of accesses to ``resource`` issued within the phase.
    resource:
        Name of the shared resource accessed.
    pattern:
        Placement of accesses inside the phase: ``uniform`` spaces them
        evenly, ``front`` issues them all before the computation,
        ``back`` after it, and ``random`` scatters them at uniformly
        random offsets (deterministic per ``seed``) — the realistic
        choice, since cache-miss traffic is irregular and evenly spaced
        deterministic accesses almost never collide on a bus.
    seed:
        Randomization seed for the ``random`` pattern.  Lowering also
        mixes in the owning thread's name so identical phases on
        different threads do not produce lock-step access trains.
    burst:
        Beats per access: each access is one arbitration transaction
        occupying the resource for ``burst * service_time`` cycles
        (DMA-style block transfers).  The cycle engines model this
        exactly; the hybrid/analytical lowerings convert each burst
        access into ``burst`` service-unit equivalents, which yields
        the correct M/D/1 penalty for homogeneous bursts and a
        first-order approximation for mixed ones.
    """

    work: float
    accesses: int = 0
    resource: str = "bus"
    pattern: str = "uniform"
    seed: int = 0
    burst: int = 1

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"phase work must be >= 0, got {self.work!r}")
        if self.accesses < 0:
            raise ValueError(
                f"phase accesses must be >= 0, got {self.accesses!r}"
            )
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst!r}")


@dataclass(frozen=True)
class BarrierOp:
    """Rendezvous with every other thread whose trace names ``barrier_id``."""

    barrier_id: str


@dataclass(frozen=True)
class IdleOp:
    """Do nothing for ``cycles`` of physical time (user think-time, etc.)."""

    cycles: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(
                f"idle cycles must be >= 0, got {self.cycles!r}"
            )


@dataclass(frozen=True)
class LockOp:
    """Acquire the named mutex (blocking while another thread holds it)."""

    lock_id: str


@dataclass(frozen=True)
class UnlockOp:
    """Release the named mutex."""

    lock_id: str


TraceItem = Union[Phase, BarrierOp, IdleOp, LockOp, UnlockOp]


@dataclass
class ThreadTrace:
    """The full behavior of one logical thread."""

    name: str
    items: List[TraceItem] = field(default_factory=list)
    priority: int = 0
    #: Processor name the thread is pinned to (None = any).
    affinity: Optional[str] = None

    def phases(self) -> List[Phase]:
        """All compute phases, in order."""
        return [item for item in self.items if isinstance(item, Phase)]

    def total_work(self) -> float:
        """Total complexity across phases."""
        return sum(p.work for p in self.phases())

    def total_accesses(self, resource: Optional[str] = None) -> int:
        """Total accesses (optionally filtered to one resource)."""
        return sum(p.accesses for p in self.phases()
                   if resource is None or p.resource == resource)

    def total_idle(self) -> float:
        """Total idle cycles in the trace."""
        return sum(item.cycles for item in self.items
                   if isinstance(item, IdleOp))

    def barrier_ids(self) -> List[str]:
        """Barrier identifiers referenced, in order of first appearance."""
        seen: List[str] = []
        for item in self.items:
            if isinstance(item, BarrierOp) and item.barrier_id not in seen:
                seen.append(item.barrier_id)
        return seen


@dataclass(frozen=True)
class ProcessorSpec:
    """Platform description of one execution resource."""

    name: str
    power: float = 1.0


@dataclass(frozen=True)
class ResourceSpec:
    """Platform description of one shared resource.

    ``ports`` models multi-bank/multi-port resources that can serve
    several accesses concurrently (e.g. a dual-port memory or a
    two-bank interleaved DRAM); ``1`` is the classic shared bus.
    """

    name: str
    service_time: float = 1.0
    ports: int = 1

    def __post_init__(self) -> None:
        if self.ports < 1:
            raise ValueError(f"ports must be >= 1, got {self.ports!r}")


@dataclass
class Workload:
    """A complete scenario: platform plus per-thread traces."""

    threads: List[ThreadTrace]
    processors: List[ProcessorSpec]
    resources: List[ResourceSpec] = field(
        default_factory=lambda: [ResourceSpec("bus", 1.0)])

    def __post_init__(self) -> None:
        names = [t.name for t in self.threads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate thread names: {names}")
        proc_names = {p.name for p in self.processors}
        if len(proc_names) != len(self.processors):
            raise ValueError("duplicate processor names")
        resource_names = {r.name for r in self.resources}
        for thread in self.threads:
            if thread.affinity is not None and (
                    thread.affinity not in proc_names):
                raise ValueError(
                    f"thread {thread.name!r} pinned to unknown processor "
                    f"{thread.affinity!r}"
                )
            for phase in thread.phases():
                if phase.accesses and phase.resource not in resource_names:
                    raise ValueError(
                        f"thread {thread.name!r} accesses unknown resource "
                        f"{phase.resource!r}"
                    )

    def resource(self, name: str) -> ResourceSpec:
        """Look up a resource spec by name."""
        for spec in self.resources:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def barrier_parties(self) -> Dict[str, int]:
        """Number of participating threads per barrier id."""
        parties: Dict[str, int] = {}
        for thread in self.threads:
            for barrier_id in thread.barrier_ids():
                parties[barrier_id] = parties.get(barrier_id, 0) + 1
        return parties

    def lock_ids(self) -> List[str]:
        """Every mutex id referenced by any thread, sorted."""
        ids = set()
        for thread in self.threads:
            for item in thread.items:
                if isinstance(item, (LockOp, UnlockOp)):
                    ids.add(item.lock_id)
        return sorted(ids)

    def validate_locks(self) -> None:
        """Statically check lock/unlock pairing per thread.

        Each thread must unlock only locks it holds and must not end
        (or cross a barrier) while holding one — the restrictions that
        keep trace-level critical sections well-defined on every
        estimator.
        """
        for thread in self.threads:
            held: List[str] = []
            for item in thread.items:
                if isinstance(item, LockOp):
                    if item.lock_id in held:
                        raise ValueError(
                            f"thread {thread.name!r} re-locks "
                            f"{item.lock_id!r} while holding it"
                        )
                    held.append(item.lock_id)
                elif isinstance(item, UnlockOp):
                    if item.lock_id not in held:
                        raise ValueError(
                            f"thread {thread.name!r} unlocks "
                            f"{item.lock_id!r} without holding it"
                        )
                    held.remove(item.lock_id)
                elif isinstance(item, BarrierOp) and held:
                    raise ValueError(
                        f"thread {thread.name!r} waits at barrier "
                        f"{item.barrier_id!r} while holding {held!r}"
                    )
            if held:
                raise ValueError(
                    f"thread {thread.name!r} ends while holding {held!r}"
                )

    def validate_barriers(self) -> None:
        """Check that barrier usage cannot deadlock trivially.

        Every thread that references a barrier id must reference it the
        same number of times (generational alignment).
        """
        counts: Dict[str, List[Tuple[str, int]]] = {}
        for thread in self.threads:
            per_thread: Dict[str, int] = {}
            for item in thread.items:
                if isinstance(item, BarrierOp):
                    per_thread[item.barrier_id] = (
                        per_thread.get(item.barrier_id, 0) + 1)
            for barrier_id, count in per_thread.items():
                counts.setdefault(barrier_id, []).append(
                    (thread.name, count))
        for barrier_id, users in counts.items():
            distinct = {count for _, count in users}
            if len(distinct) > 1:
                raise ValueError(
                    f"barrier {barrier_id!r} crossed unevenly: {users}"
                )


def expand_phase(phase: Phase, power: float,
                 salt: int = 0) -> List[Tuple[str, object]]:
    """Lower one phase to cycle-engine micro-ops for a given power.

    Returns a list of ``("compute", cycles)`` and ``("access", resource)``
    tuples.  Compute cycles are integer (cycle engines step whole cycles);
    rounding error per phase is below one cycle.  ``salt`` perturbs the
    ``random`` pattern per thread (stable across engines and runs).
    """
    cycles = int(round(phase.work / power))
    ops: List[Tuple[str, object]] = []
    n = phase.accesses
    if n == 0:
        if cycles:
            ops.append(("compute", cycles))
        return ops
    # One shared (immutable) tuple serves every access of the phase.
    if phase.burst == 1:
        access: Tuple[str, object] = ("access", phase.resource)
    else:
        access = ("access", (phase.resource, phase.burst))
    if phase.pattern == "front":
        ops = [access] * n
        if cycles:
            ops.append(("compute", cycles))
    elif phase.pattern == "back":
        if cycles:
            ops.append(("compute", cycles))
        ops.extend([access] * n)
    elif phase.pattern == "random":
        rng = random.Random((phase.seed << 20) ^ salt ^ cycles ^ (n << 40))
        # The draws of ``rng.randrange(cycles + 1)``, inlined: for a
        # bound m >= 1, ``random.Random`` rejection-samples
        # ``getrandbits(m.bit_length())`` until the value is below m
        # (CPython 3.10-3.13), and so does this loop.
        getrandbits = rng.getrandbits
        bound = cycles + 1
        if bound < 1:  # randrange raised here; the loop would not end
            raise ValueError(
                f"power {power!r} lowers work {phase.work!r} to "
                f"{cycles} cycles")
        bits = bound.bit_length()
        cuts = []
        for _ in range(n):
            cut = getrandbits(bits)
            while cut >= bound:
                cut = getrandbits(bits)
            cuts.append(cut)
        cuts.sort()
        append = ops.append
        previous = 0
        for cut in cuts:
            if cut != previous:
                append(("compute", cut - previous))
            append(access)
            previous = cut
        if cycles != previous:
            append(("compute", cycles - previous))
    else:  # uniform
        base, remainder = divmod(cycles, n)
        for i in range(n):
            chunk = base + (1 if i < remainder else 0)
            if chunk:
                ops.append(("compute", chunk))
            ops.append(access)
    return ops


def access_target(arg: object) -> Tuple[str, int]:
    """Normalize an access micro-op argument to ``(resource, burst)``."""
    if isinstance(arg, tuple):
        return str(arg[0]), int(arg[1])
    return str(arg), 1


def thread_salt(name: str) -> int:
    """Stable per-thread salt for the ``random`` pattern.

    ``hash(str)`` is randomized per interpreter run, so use CRC32.
    """
    return zlib.crc32(name.encode("utf-8"))
