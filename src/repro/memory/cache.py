"""Set-associative cache model.

The paper's two cache configurations (512KB and 8KB) change the SPLASH-2
FFT benchmark's bus traffic — and thereby how bursty contention is.  We
reproduce that mechanism rather than hard-coding access counts: the FFT
workload generator runs each phase's address stream through this model
and converts misses and write-backs into bus accesses.

The model is a classic write-back, write-allocate, LRU, physically-
indexed cache.  An ``invalidate_range`` operation approximates coherence:
when another processor writes a region, the lines a processor holds from
that region must be re-fetched — this is what keeps transpose
(communication) phases bus-heavy even with a large cache.

State is kept per *line number* (``address >> log2(line_bytes)``): each
set is a plain list of resident lines in LRU order (most recent last),
and one set of line numbers holds the dirty ones.  Sets never interact —
a line maps to exactly one set, and LRU order, eviction and write-back
are decided inside that set — so the bulk entry point
:meth:`Cache.access_lines` and the per-access :meth:`Cache.access` run
the same state machine and may be mixed freely with
:meth:`Cache.invalidate_range` and :meth:`Cache.flush`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class CacheStats:
    """Mutable counters for one cache instance."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total CPU-side accesses."""
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        """Total line fills."""
        return self.read_misses + self.write_misses

    @property
    def bus_accesses(self) -> int:
        """Bus transactions generated: line fills plus write-backs."""
        return self.misses + self.writebacks

    @property
    def miss_rate(self) -> float:
        """Misses per CPU access."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative write-back cache with LRU replacement.

    Parameters
    ----------
    size_bytes:
        Total capacity; must be ``line_bytes * associativity * sets`` with
        a power-of-two set count.
    line_bytes:
        Line size in bytes (power of two).
    associativity:
        Ways per set.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 32,
                 associativity: int = 4):
        if not _is_power_of_two(line_bytes):
            raise ValueError(f"line size must be a power of two, "
                             f"got {line_bytes}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, "
                             f"got {associativity}")
        if size_bytes % (line_bytes * associativity):
            raise ValueError(
                f"capacity {size_bytes} is not divisible by "
                f"line*associativity ({line_bytes}*{associativity})"
            )
        sets = size_bytes // (line_bytes * associativity)
        if not _is_power_of_two(sets):
            raise ValueError(f"set count must be a power of two, got {sets}")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = sets
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = sets - 1
        # Per set: resident line numbers, LRU first, MRU last.
        self._sets: Tuple[List[int], ...] = tuple(
            [] for _ in range(sets))
        #: Line numbers of the resident lines that are dirty.
        self._dirty: Set[int] = set()
        self.stats = CacheStats()

    # -- lookup ------------------------------------------------------------

    def access(self, address: int, write: bool = False) -> bool:
        """Perform one CPU access; returns ``True`` on a hit."""
        line = address >> self._line_shift
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        if write:
            stats.writes += 1
            self._dirty.add(line)
        else:
            stats.reads += 1
        if line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return True
        # Miss: allocate, possibly evicting the LRU way.
        if write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        if len(ways) >= self.associativity:
            victim = ways.pop(0)
            if victim in self._dirty:
                self._dirty.remove(victim)
                stats.writebacks += 1
        ways.append(line)
        return False

    def access_lines(self, accesses: Iterable[Tuple[int, bool]]) -> None:
        """Perform one CPU access per ``(line, is_write)`` pair, in order.

        The bulk form of :meth:`access`, with addresses already shifted
        to line numbers: exactly the same hits, misses, write-backs and
        final contents as calling ``access(line << log2(line_bytes),
        is_write)`` for each pair.  A repeat of its set's most recent
        line — a sequential walk touching one line several times — costs
        a single comparison.
        """
        sets, mask = self._sets, self._set_mask
        assoc, dirty = self.associativity, self._dirty
        count = writes = read_misses = write_misses = writebacks = 0
        for line, write in accesses:
            count += 1
            ways = sets[line & mask]
            if ways and ways[-1] == line:
                if write:
                    writes += 1
                    dirty.add(line)
                continue
            if line in ways:
                ways.remove(line)
                ways.append(line)
                if write:
                    writes += 1
                    dirty.add(line)
                continue
            if write:
                writes += 1
                write_misses += 1
                dirty.add(line)
            else:
                read_misses += 1
            if len(ways) >= assoc:
                victim = ways.pop(0)
                if victim in dirty:
                    dirty.remove(victim)
                    writebacks += 1
            ways.append(line)
        stats = self.stats
        stats.reads += count - writes
        stats.writes += writes
        stats.read_misses += read_misses
        stats.write_misses += write_misses
        stats.writebacks += writebacks

    def read(self, address: int) -> bool:
        """CPU load; returns hit flag."""
        return self.access(address, write=False)

    def write(self, address: int) -> bool:
        """CPU store (write-allocate); returns hit flag."""
        return self.access(address, write=True)

    # -- coherence approximation --------------------------------------------

    def invalidate_range(self, start: int, end: int) -> int:
        """Drop every cached line overlapping ``[start, end)``.

        Models another processor writing the region: our copies become
        stale and the next read must re-fetch over the bus.  Dirty lines
        are dropped without write-back (the writer owns the data now).
        Returns the number of lines invalidated.
        """
        first = start >> self._line_shift
        last = (max(start, end - 1)) >> self._line_shift
        sets, mask, dirty = self._sets, self._set_mask, self._dirty
        dropped = 0
        if last - first < self.num_sets * self.associativity:
            # Fewer lines in the range than the cache can hold: probe
            # each one in its set rather than scan every resident way.
            for line in range(first, last + 1):
                ways = sets[line & mask]
                if line in ways:
                    ways.remove(line)
                    dirty.discard(line)
                    dropped += 1
        else:
            for ways in sets:
                stale = [line for line in ways if first <= line <= last]
                for line in stale:
                    ways.remove(line)
                dirty.difference_update(stale)
                dropped += len(stale)
        self.stats.invalidations += dropped
        return dropped

    def flush(self) -> int:
        """Write back and drop everything; returns write-back count."""
        writebacks = len(self._dirty)
        self._dirty.clear()
        for ways in self._sets:
            ways.clear()
        self.stats.writebacks += writebacks
        return writebacks

    # -- introspection -------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        line = address >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.size_bytes}B, line={self.line_bytes}, "
                f"assoc={self.associativity}, sets={self.num_sets})")
