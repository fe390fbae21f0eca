"""The line-granular cache paths against the per-access reference.

:meth:`Cache.access_lines` (and :func:`run_stream`, which routes through
it) must reproduce an ``OrderedDict``-per-set LRU cache fed one address
at a time (:class:`_reference.ReferenceCache`): every ``CacheStats``
field, every set's resident lines in LRU order, and the dirty lines,
with range invalidations and flushes interleaved.  The FFT generator's
arithmetic line streams must give the bus counts of the address-tuple
walks they replace.
"""

from hypothesis import given, settings, strategies as st

from _reference import ReferenceCache, cache_contents, reference_bus_counts
from repro.memory import Cache, run_stream
from repro.workloads.fft import _bus_counts

#: One operation: a run of accesses, a range invalidation, or a flush.
_ACCESS = st.tuples(st.integers(min_value=0, max_value=4095),
                    st.booleans())
_OPS = st.lists(st.one_of(
    st.tuples(st.just("access"), st.lists(_ACCESS, max_size=40)),
    st.tuples(st.just("invalidate"),
              st.integers(min_value=0, max_value=4095),
              st.integers(min_value=-64, max_value=4096)),
    st.tuples(st.just("flush")),
), max_size=12)
_GEOMETRY = st.tuples(st.integers(min_value=2, max_value=6),   # line
                      st.sampled_from([1, 2, 3, 4]),           # ways
                      st.integers(min_value=0, max_value=4))   # sets


def _replay(ops, geometry, feed):
    line_shift, assoc, set_shift = geometry
    line = 1 << line_shift
    capacity = line * assoc * (1 << set_shift)
    cache = Cache(capacity, line_bytes=line, associativity=assoc)
    reference = ReferenceCache(capacity, line_bytes=line,
                               associativity=assoc)
    for op in ops:
        if op[0] == "access":
            feed(cache, op[1])
            for address, write in op[1]:
                reference.access(address, write=write)
        elif op[0] == "invalidate":
            start, length = op[1], op[2]
            assert (cache.invalidate_range(start, start + length)
                    == reference.invalidate_range(start, start + length))
        else:
            assert cache.flush() == reference.flush()
        assert cache.stats == reference.stats
        assert cache_contents(cache) == reference.set_contents()
        assert cache.resident_lines() == sum(
            len(ways) for ways in reference.set_contents()[0])


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, geometry=_GEOMETRY)
def test_access_lines_matches_reference(ops, geometry):
    def feed(cache, accesses):
        shift = cache.line_bytes.bit_length() - 1
        cache.access_lines([(address >> shift, write)
                            for address, write in accesses])
    _replay(ops, geometry, feed)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS, geometry=_GEOMETRY)
def test_run_stream_matches_reference(ops, geometry):
    def feed(cache, accesses):
        profile = run_stream(cache, iter(accesses))
        assert profile.accesses == len(accesses)
    _replay(ops, geometry, feed)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS, geometry=_GEOMETRY)
def test_access_matches_reference(ops, geometry):
    def feed(cache, accesses):
        for address, write in accesses:
            cache.access(address, write=write)
    _replay(ops, geometry, feed)


def test_access_reports_hits_like_the_reference():
    cache = Cache(128, line_bytes=32, associativity=2)
    reference = ReferenceCache(128, line_bytes=32, associativity=2)
    for address in (0, 0, 128, 256, 0, 16, 128, 300, 256):
        assert (cache.access(address, write=address % 3 == 0)
                == reference.access(address, write=address % 3 == 0))


@st.composite
def fft_geometries(draw):
    side = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    processors = draw(st.sampled_from(
        [p for p in (1, 2, 4, 8, 16) if side % p == 0]))
    cache_kb = draw(st.sampled_from([1, 2, 4, 8, 32]))
    line_bytes = draw(st.sampled_from([4, 8, 16, 32, 64, 128]))
    associativity = draw(st.sampled_from([1, 2, 4, 8]))
    return side * side, processors, cache_kb, line_bytes, associativity


@settings(max_examples=60, deadline=None)
@given(config=fft_geometries())
def test_bus_counts_match_access_by_access_reference(config):
    assert _bus_counts.__wrapped__(*config) == reference_bus_counts(*config)
