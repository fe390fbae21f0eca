"""SPLASH-2-FFT-shaped workload generator (paper section 5.1).

The paper chose the SPLASH-2 FFT "because it exhibited irregular shared
bus behavior over time": the six-step FFT alternates barrier-separated
*transpose* phases (all-to-all communication, bus-heavy) with *row FFT*
phases (local computation, bus-light with a large cache).  The purely
analytical model averages over these regimes and mispredicts; the hybrid
model, with annotations at the barriers, tracks them.

This generator rebuilds that structure from first principles:

* the N-point data set is a ``sqrt(N) x sqrt(N)`` matrix of 16-byte
  complex doubles, row-partitioned over the processors;
* each processor owns a private cache (:class:`repro.memory.Cache`,
  512KB or 8KB in the paper's two configurations);
* each phase's address stream (column reads + row writes for transpose,
  multi-pass row sweeps for the butterfly stages) runs through the cache,
  and the misses + write-backs become the phase's bus access count;
* coherence is approximated by invalidating remotely-written ranges
  before each transpose (every other processor just rewrote the source
  matrix), which is what keeps communication phases bus-heavy even with
  a cache that holds the whole working set;
* compute work per phase follows the classic operation counts
  (``5 n log2 n`` for the butterflies, a few ops per element for the
  transpose copy loop).

With a 512KB cache the row phases run almost entirely out of cache and
the traffic is strongly phase-bursty; with 8KB, capacity misses make
every phase bus-active — the paper's two contrast regimes.

The bus counts depend only on the cache geometry and the matrix and
processor shape, not on the bus delay or the seed, so the cache
simulation (:func:`_bus_counts`) is memoized per process: a design
sweep over bus delays simulates each cache configuration once, and
every call still assembles fresh trace objects around the counts.
The simulation itself is line-granular: each step's cache line numbers
are computed by arithmetic, one step at a time, and fed to
:meth:`repro.memory.Cache.access_lines` in the order of the
:mod:`repro.memory.addrgen` walks, instead of one ``(address,
is_write)`` tuple per element through :meth:`~repro.memory.Cache.access`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..memory import Cache
from ..memory.addrgen import Access
from .trace import (BarrierOp, Phase, ProcessorSpec, ResourceSpec,
                    ThreadTrace, Workload)

#: Bytes per complex double element (matches SPLASH-2 FFT).
ELEM_BYTES = 16
#: Floating-point operations per point per butterfly pass.
FFT_OPS_PER_POINT = 5.0
#: Address-arithmetic + copy operations per element in a transpose.
TRANSPOSE_OPS_PER_ELEM = 12.0
#: The six-step structure as ``(kind, source, destination)`` over the
#: two matrices A (0) and B (1), stored contiguously, row-major:
#: T(A->B), F(B), T(B->A), F(A), T(A->B).  A barrier follows each step.
_STEPS = (("transpose", 0, 1), ("fft", 1, None), ("transpose", 1, 0),
         ("fft", 0, None), ("transpose", 0, 1))


@dataclass(frozen=True)
class FFTConfig:
    """Parameters of one FFT workload instance."""

    points: int = 4096
    processors: int = 4
    cache_kb: int = 512
    line_bytes: int = 32
    associativity: int = 4
    bus_service: float = 2.0
    seed: int = 0

    @property
    def side(self) -> int:
        """Matrix dimension ``sqrt(points)``."""
        side = math.isqrt(self.points)
        if side * side != self.points:
            raise ValueError(
                f"points must be a perfect square, got {self.points}"
            )
        return side

    def validate(self) -> None:
        """Check the configuration is realizable."""
        side = self.side
        if not (side > 0 and (side & (side - 1)) == 0):
            raise ValueError(f"matrix side must be a power of two, "
                             f"got {side}")
        if self.processors < 1:
            raise ValueError("need at least one processor")
        if side % self.processors:
            raise ValueError(
                f"side {side} not divisible by {self.processors} "
                f"processors"
            )
        if self.cache_kb <= 0:
            raise ValueError("cache_kb must be positive")


def fft_workload(points: int = 4096, processors: int = 4,
                 cache_kb: int = 512, line_bytes: int = 32,
                 associativity: int = 4, bus_service: float = 2.0,
                 seed: int = 0) -> Workload:
    """Build the six-step FFT workload for the given configuration.

    Returns a :class:`~repro.workloads.trace.Workload` with one pinned
    thread per processor and barrier-separated phases; the phases' bus
    access counts come from per-processor cache simulation
    (:func:`_bus_counts`, memoized per process on the cache geometry and
    the matrix/processor shape).  Every call returns fresh objects.
    """
    config = FFTConfig(points=points, processors=processors,
                       cache_kb=cache_kb, line_bytes=line_bytes,
                       associativity=associativity,
                       bus_service=bus_service, seed=seed)
    config.validate()
    side = config.side
    rows_per_proc = side // processors
    log_side = int(math.log2(side))
    transpose_work = TRANSPOSE_OPS_PER_ELEM * rows_per_proc * side
    fft_work = FFT_OPS_PER_POINT * rows_per_proc * side * log_side
    counts = _bus_counts(points, processors, cache_kb, line_bytes,
                         associativity)

    threads: List[ThreadTrace] = []
    for p, step_counts in enumerate(counts):
        items: List[object] = []
        for step_index, ((kind, _, _), accesses) in enumerate(
                zip(_STEPS, step_counts)):
            if kind == "transpose":
                work, seed_offset = transpose_work, 0
            else:
                work, seed_offset = fft_work, 7
            items.append(Phase(
                work=work,
                accesses=accesses,
                pattern="random",
                seed=config.seed * 1009 + step_index * 31 + p + seed_offset,
            ))
            items.append(BarrierOp(f"fft_b{step_index}"))
        threads.append(ThreadTrace(f"fft_p{p}", items,
                                   affinity=f"cpu{p}"))

    return Workload(
        threads=threads,
        processors=[ProcessorSpec(f"cpu{p}") for p in range(processors)],
        resources=[ResourceSpec("bus", bus_service)],
    )


# ``typed``: an int and an equal float are different keys, so a float
# argument fails in ``Cache`` as it would without the memo.
@functools.lru_cache(maxsize=64, typed=True)
def _bus_counts(points: int, processors: int, cache_kb: int,
                line_bytes: int,
                associativity: int) -> Tuple[Tuple[int, ...], ...]:
    """Each processor's bus accesses in each of the five ``_STEPS``.

    Runs every processor's transpose and row-FFT accesses through its
    own private cache, invalidating remotely written rows before each
    transpose.  Each step's accesses are computed as cache *line
    numbers* by arithmetic, a row at a time (:func:`_transpose_rows`,
    :func:`_row_fft_rows`), and fed to :meth:`Cache.access_lines` in
    one call per step, in exactly the order of the
    :func:`~repro.memory.addrgen.transpose_walk` and
    :func:`~repro.memory.addrgen.row_walk` address streams.  The result
    is a pure function of the arguments — the bus delay and the phase
    seeds do not enter it — so it is memoized; it holds only ints,
    never a mutable object.  Callers validate the configuration first
    (:meth:`FFTConfig.validate`).
    """
    side = math.isqrt(points)
    rows_per_proc = side // processors
    log_side = int(math.log2(side))
    matrix_bytes = points * ELEM_BYTES
    shift = line_bytes.bit_length() - 1
    counts = []
    for p in range(processors):
        cache = Cache(cache_kb * 1024, line_bytes=line_bytes,
                      associativity=associativity)
        stats = cache.stats
        my_rows = range(p * rows_per_proc, (p + 1) * rows_per_proc)
        step_counts = []
        for kind, src, dst in _STEPS:
            src_base = src * matrix_bytes
            if kind == "transpose":
                _invalidate_remote(cache, src_base, matrix_bytes, my_rows,
                                   side)
                rows = _transpose_rows(src_base, dst * matrix_bytes,
                                       my_rows, side, shift)
            else:
                rows = _row_fft_rows(src_base, my_rows, side, log_side,
                                     shift)
            before = stats.bus_accesses
            cache.access_lines(itertools.chain.from_iterable(rows))
            step_counts.append(stats.bus_accesses - before)
        counts.append(tuple(step_counts))
    return tuple(counts)


def _transpose_rows(src_base: int, dst_base: int, my_rows: range,
                    side: int, shift: int) -> Iterator[Iterator[Access]]:
    """One processor's transpose share, as ``(line, is_write)`` pairs.

    Yields one iterator per owned row ``r``: the line numbers of
    :func:`~repro.memory.addrgen.transpose_walk`, which reads source
    column ``r`` (stride one row) and writes destination row ``r``
    (stride one element) alternately.
    """
    row_bytes = side * ELEM_BYTES
    flags = [False, True] * side
    for r in my_rows:
        lines = flags[:]
        lines[0::2] = [address >> shift for address in range(
            src_base + r * ELEM_BYTES, src_base + side * row_bytes,
            row_bytes)]
        lines[1::2] = [address >> shift for address in range(
            dst_base + r * row_bytes, dst_base + (r + 1) * row_bytes,
            ELEM_BYTES)]
        yield zip(lines, flags)


def _row_fft_rows(base: int, my_rows: range, side: int, log_side: int,
                  shift: int) -> Iterator[Iterator[Access]]:
    """One processor's row-FFT step, as ``(line, is_write)`` pairs.

    Yields one iterator per owned row: the line numbers of
    :func:`~repro.memory.addrgen.row_walk` with ``log_side`` passes —
    every pass reads the row, and the last one writes each element
    right after reading it.  A one-element matrix (``log_side == 0``)
    makes no passes, so its rows access nothing.
    """
    if log_side == 0:
        return
    row_bytes = side * ELEM_BYTES
    flags = [False] * (side * (log_side - 1)) + [False, True] * side
    for row in my_rows:
        row_base = base + row * row_bytes
        row_lines = [address >> shift for address in range(
            row_base, row_base + row_bytes, ELEM_BYTES)]
        last_pass = row_lines * 2
        last_pass[0::2] = row_lines
        last_pass[1::2] = row_lines
        yield zip(row_lines * (log_side - 1) + last_pass, flags)


def _invalidate_remote(cache: Cache, base: int, matrix_bytes: int,
                       my_rows: range, side: int) -> None:
    """Invalidate the parts of a matrix other processors just wrote.

    Before a transpose, every source row *not* owned by this processor
    was last written remotely; coherence forces a re-fetch.
    """
    row_bytes = side * ELEM_BYTES
    if len(my_rows) == 0:
        cache.invalidate_range(base, base + matrix_bytes)
        return
    my_start = base + my_rows.start * row_bytes
    my_end = base + my_rows.stop * row_bytes
    if my_start > base:
        cache.invalidate_range(base, my_start)
    if my_end < base + matrix_bytes:
        cache.invalidate_range(my_end, base + matrix_bytes)
