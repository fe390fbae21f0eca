"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from _reference import ReferenceCache, cache_contents
from repro.memory import Cache


def small_cache(size=1024, line=32, assoc=2):
    return Cache(size, line_bytes=line, associativity=assoc)


class TestConstruction:
    def test_geometry(self):
        cache = Cache(8 * 1024, line_bytes=32, associativity=4)
        assert cache.num_sets == 64

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            Cache(1024, line_bytes=33)

    def test_indivisible_capacity_rejected(self):
        with pytest.raises(ValueError):
            Cache(1000, line_bytes=32, associativity=4)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            Cache(3 * 32 * 2, line_bytes=32, associativity=2)

    def test_zero_associativity_rejected(self):
        with pytest.raises(ValueError):
            Cache(1024, line_bytes=32, associativity=0)


class TestHitsAndMisses:
    def test_first_access_misses_second_hits(self):
        cache = small_cache()
        assert cache.read(0x100) is False
        assert cache.read(0x100) is True
        assert cache.stats.read_misses == 1
        assert cache.stats.reads == 2

    def test_same_line_hits(self):
        cache = small_cache(line=32)
        cache.read(0x100)
        assert cache.read(0x11F) is True   # same 32B line
        assert cache.read(0x120) is False  # next line

    def test_lru_eviction(self):
        # Direct-mapped 2-line cache: lines alias each 64 bytes.
        cache = Cache(64, line_bytes=32, associativity=1)
        cache.read(0x000)
        cache.read(0x040)  # evicts 0x000 (same set, assoc 1)
        assert cache.read(0x000) is False

    def test_associativity_prevents_conflict(self):
        cache = Cache(128, line_bytes=32, associativity=2)
        cache.read(0x000)
        cache.read(0x080)  # same set, second way
        assert cache.read(0x000) is True

    def test_lru_order_updated_on_hit(self):
        cache = Cache(128, line_bytes=32, associativity=2)
        cache.read(0x000)
        cache.read(0x080)
        cache.read(0x000)  # refresh 0x000
        cache.read(0x100)  # evicts LRU = 0x080
        assert cache.read(0x000) is True
        assert cache.read(0x080) is False

    def test_capacity_miss_streaming(self):
        cache = small_cache(size=1024, line=32)
        # Touch 64 lines (2KB) through a 1KB cache: second pass misses.
        for address in range(0, 2048, 32):
            cache.read(address)
        first_pass_misses = cache.stats.read_misses
        for address in range(0, 2048, 32):
            cache.read(address)
        assert first_pass_misses == 64
        assert cache.stats.read_misses == 128


class TestWriteback:
    def test_dirty_eviction_writes_back(self):
        cache = Cache(64, line_bytes=32, associativity=1)
        cache.write(0x000)
        cache.read(0x040)  # evicts dirty 0x000
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache(64, line_bytes=32, associativity=1)
        cache.read(0x000)
        cache.read(0x040)
        assert cache.stats.writebacks == 0

    def test_write_allocate(self):
        cache = small_cache()
        assert cache.write(0x100) is False
        assert cache.read(0x100) is True

    def test_flush_writes_back_dirty_lines(self):
        cache = small_cache()
        cache.write(0x000)
        cache.write(0x100)
        cache.read(0x200)
        assert cache.flush() == 2
        assert cache.resident_lines() == 0

    def test_bus_accesses_counts_fills_and_writebacks(self):
        cache = Cache(64, line_bytes=32, associativity=1)
        cache.write(0x000)   # miss -> fill
        cache.read(0x040)    # miss -> fill + writeback
        assert cache.stats.bus_accesses == 3


class TestInvalidation:
    def test_invalidate_range_drops_lines(self):
        cache = small_cache()
        cache.read(0x000)
        cache.read(0x100)
        dropped = cache.invalidate_range(0x000, 0x020)
        assert dropped == 1
        assert cache.contains(0x000) is False
        assert cache.contains(0x100) is True

    def test_invalidate_forces_refetch(self):
        cache = small_cache()
        cache.read(0x000)
        cache.invalidate_range(0x000, 0x020)
        assert cache.read(0x000) is False

    def test_invalidate_does_not_write_back(self):
        cache = small_cache()
        cache.write(0x000)
        cache.invalidate_range(0x000, 0x020)
        assert cache.stats.writebacks == 0

    def test_invalidate_empty_range(self):
        cache = small_cache()
        cache.read(0x500)
        assert cache.invalidate_range(0x000, 0x020) == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           line_shift=st.integers(min_value=2, max_value=6),
           assoc=st.integers(min_value=1, max_value=4),
           set_shift=st.integers(min_value=0, max_value=6))
    def test_matches_full_scan_reference(self, data, line_shift, assoc,
                                         set_shift):
        """Same drops, counters and surviving LRU order as scanning
        every set, for ranges narrower and wider than the cache."""
        line = 1 << line_shift
        capacity = line * assoc * (1 << set_shift)
        span = 4 * capacity
        fill = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=span),
                      st.booleans()), max_size=120))
        ranges = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=span),
                      st.integers(min_value=-2 * line, max_value=span)),
            min_size=1, max_size=4))
        cache = Cache(capacity, line_bytes=line, associativity=assoc)
        reference = ReferenceCache(capacity, line_bytes=line,
                                   associativity=assoc)
        for address, write in fill:
            cache.access(address, write=write)
            reference.access(address, write=write)
        for start, length in ranges:
            assert (cache.invalidate_range(start, start + length)
                    == reference.invalidate_range(start, start + length))
            assert cache.stats == reference.stats
            assert cache_contents(cache) == reference.set_contents()


class TestStats:
    def test_miss_rate(self):
        cache = small_cache()
        cache.read(0x000)
        cache.read(0x000)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_miss_rate_empty(self):
        assert small_cache().stats.miss_rate == 0.0
