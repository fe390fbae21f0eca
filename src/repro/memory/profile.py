"""Running address streams through a cache to derive bus traffic.

:func:`run_stream` shifts each address to its line number and feeds the
stream to :meth:`~repro.memory.cache.Cache.access_lines`, the cache's
bulk path, without materializing it.  Callers that can compute line
numbers directly (the FFT generator) call ``access_lines`` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .cache import Cache


@dataclass(frozen=True)
class StreamProfile:
    """Bus-traffic summary of one address stream through one cache."""

    accesses: int
    misses: int
    writebacks: int

    @property
    def bus_accesses(self) -> int:
        """Bus transactions the stream generated."""
        return self.misses + self.writebacks

    @property
    def miss_rate(self) -> float:
        """Misses per CPU access."""
        return self.misses / self.accesses if self.accesses else 0.0


def run_stream(cache: Cache,
               stream: Iterable[Tuple[int, bool]]) -> StreamProfile:
    """Feed ``stream`` through ``cache``; return the traffic delta.

    The cache keeps its state (so consecutive phases see warm contents);
    only the counters attributable to this stream are reported.
    """
    before_misses = cache.stats.misses
    before_writebacks = cache.stats.writebacks
    before_accesses = cache.stats.accesses
    shift = cache.line_bytes.bit_length() - 1
    cache.access_lines((address >> shift, is_write)
                       for address, is_write in stream)
    return StreamProfile(
        accesses=cache.stats.accesses - before_accesses,
        misses=cache.stats.misses - before_misses,
        writebacks=cache.stats.writebacks - before_writebacks,
    )
