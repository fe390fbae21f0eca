"""Reference implementations that the optimized code must reproduce.

These are the straightforward forms of three hot layers, kept as
oracles for property tests:

* :class:`ReferenceCache` — a per-access LRU cache with one
  ``OrderedDict`` (tag -> dirty flag) per set;
* :func:`reference_bus_counts` — the FFT cache simulation fed one
  ``(address, is_write)`` tuple per element through
  :class:`ReferenceCache`;
* the dict-based wait helpers and a ``penalties`` function per
  queueing model (:data:`REFERENCE_PENALTIES`), which recompute every
  "all threads but me" sum per thread straight from the
  :class:`~repro.contention.base.SliceDemand`.

The production code must match them exactly: equal counters and
resident lines for the caches, hex-identical floats for the models.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from typing import Dict

from repro.contention import (ChenLinModel, MD1Model, MM1Model,
                              MMcModel, PriorityModel, RoundRobinModel)
from repro.contention.mmc import erlang_c
from repro.contention.base import SliceDemand
from repro.contention.util import open_wait
from repro.memory import CacheStats
from repro.memory.addrgen import row_walk, transpose_walk
from repro.workloads.fft import _STEPS, ELEM_BYTES

_EPS = 1e-12


# -- memory ---------------------------------------------------------------

class ReferenceCache:
    """Write-back, write-allocate LRU cache, one access at a time."""

    def __init__(self, size_bytes: int, line_bytes: int = 32,
                 associativity: int = 4):
        sets = size_bytes // (line_bytes * associativity)
        self.associativity = associativity
        self.num_sets = sets
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = sets - 1
        self._sets = tuple(OrderedDict() for _ in range(sets))
        self.stats = CacheStats()

    def access(self, address: int, write: bool = False) -> bool:
        line = address >> self._line_shift
        ways = self._sets[line & self._set_mask]
        if write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if line in ways:
            ways.move_to_end(line)
            if write:
                ways[line] = True
            return True
        if write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        if len(ways) >= self.associativity:
            _, dirty = ways.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
        ways[line] = write
        return False

    def invalidate_range(self, start: int, end: int) -> int:
        """Scan every set: the definition of a range invalidation."""
        first = start >> self._line_shift
        last = max(start, end - 1) >> self._line_shift
        dropped = 0
        for ways in self._sets:
            for line in [line for line in ways if first <= line <= last]:
                del ways[line]
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def flush(self) -> int:
        writebacks = sum(dirty for ways in self._sets
                         for dirty in ways.values())
        for ways in self._sets:
            ways.clear()
        self.stats.writebacks += writebacks
        return writebacks

    def set_contents(self):
        """Per set: resident lines in LRU order, and the dirty ones."""
        return ([list(ways) for ways in self._sets],
                {line for ways in self._sets
                 for line, dirty in ways.items() if dirty})


def cache_contents(cache):
    """:meth:`ReferenceCache.set_contents` of a ``repro.memory.Cache``."""
    return [list(ways) for ways in cache._sets], set(cache._dirty)


def reference_bus_counts(points, processors, cache_kb, line_bytes,
                         associativity):
    """``fft._bus_counts`` fed one address tuple per element."""
    side = math.isqrt(points)
    rows_per_proc = side // processors
    log_side = int(math.log2(side))
    matrix_bytes = points * ELEM_BYTES
    row_bytes = side * ELEM_BYTES
    counts = []
    for p in range(processors):
        cache = ReferenceCache(cache_kb * 1024, line_bytes=line_bytes,
                               associativity=associativity)
        my_rows = range(p * rows_per_proc, (p + 1) * rows_per_proc)
        step_counts = []
        for kind, src, dst in _STEPS:
            base = src * matrix_bytes
            if kind == "transpose":
                my_start = base + my_rows.start * row_bytes
                my_end = base + my_rows.stop * row_bytes
                if my_start > base:
                    cache.invalidate_range(base, my_start)
                if my_end < base + matrix_bytes:
                    cache.invalidate_range(my_end, base + matrix_bytes)
                stream = transpose_walk(base, dst * matrix_bytes,
                                        my_rows, side, ELEM_BYTES)
            else:
                stream = itertools.chain.from_iterable(
                    row_walk(base, row, side, ELEM_BYTES,
                             passes=log_side)
                    for row in my_rows)
            before = cache.stats.bus_accesses
            for address, is_write in stream:
                cache.access(address, write=is_write)
            step_counts.append(cache.stats.bus_accesses - before)
        counts.append(tuple(step_counts))
    return tuple(counts)


# -- contention -------------------------------------------------------------

def per_thread_utilization(demand: SliceDemand) -> Dict[str, float]:
    if demand.duration <= _EPS:
        return {name: 1.0 for name, count in demand.demands.items()
                if count > 0}
    return {
        name: count * demand.service_of(name) / demand.duration
        for name, count in demand.demands.items() if count > 0
    }


def open_wait_for(demand, rho, me, rho_max, deterministic=True):
    interference = sum(value for name, value in rho.items()
                       if name != me)
    if interference <= _EPS:
        return 0.0
    residual = sum(value * demand.service_of(name)
                   for name, value in rho.items() if name != me) / 2.0
    if not deterministic:
        residual *= 2.0
    loaded = min(interference, rho_max)
    if interference > loaded:
        residual *= loaded / interference
    return residual / (1.0 - loaded)


def closed_wait_for(demand, rho, me):
    return sum(min(1.0, value) * demand.service_of(name)
               for name, value in rho.items() if name != me)


SATURATION_KNEE = 0.95


def saturation_floor(demand, rho, knee=None):
    if knee is None:
        knee = SATURATION_KNEE
    total = sum(rho.values())
    if total <= knee or demand.duration <= _EPS:
        return {}
    stretch = (total - knee) * demand.duration
    floors = {}
    for name in rho:
        per_transaction_cap = sum(demand.service_of(other)
                                  for other in rho if other != name)
        hard_cap = demand.demands[name] * per_transaction_cap
        floors[name] = min(stretch, hard_cap)
    return floors


def apply_saturation_floor(result, demand, rho, knee=None):
    floors = saturation_floor(demand, rho, knee=knee)
    for name, floor in floors.items():
        if floor > result.get(name, 0.0):
            result[name] = floor
    return result


def chenlin_penalties(model: ChenLinModel, demand: SliceDemand):
    rho = per_thread_utilization(demand)
    if not rho:
        return {}
    total = sum(rho.values())
    service = demand.service_time
    result = {}
    for name, my_rho in rho.items():
        interference = total - my_rho
        if interference <= _EPS:
            continue
        wait = open_wait_for(demand, rho, name, model.rho_max)
        if model.residual:
            wait += service * min(interference, 1.0) / 2.0
        wait = min(wait, closed_wait_for(demand, rho, name))
        penalty = demand.demands[name] * wait
        if penalty > 0:
            result[name] = penalty
    return apply_saturation_floor(result, demand, rho, knee=model.knee)


def _queue_penalties(model, demand, deterministic):
    rho = per_thread_utilization(demand)
    if not rho:
        return {}
    total = sum(rho.values())
    result = {}
    for name, my_rho in rho.items():
        load = total - my_rho if model.exclude_self else total
        if load <= _EPS:
            continue
        wait = open_wait_for(demand, rho, name, model.rho_max,
                             deterministic=deterministic)
        if not model.exclude_self:
            own = my_rho * demand.service_of(name)
            if deterministic:
                own /= 2.0
            wait += own / max(1.0 - min(load, model.rho_max), 0.02)
        wait = min(wait, closed_wait_for(demand, rho, name))
        penalty = demand.demands[name] * wait
        if penalty > 0:
            result[name] = penalty
    return apply_saturation_floor(result, demand, rho)


def md1_penalties(model: MD1Model, demand: SliceDemand):
    return _queue_penalties(model, demand, deterministic=True)


def mm1_penalties(model: MM1Model, demand: SliceDemand):
    return _queue_penalties(model, demand, deterministic=False)


def roundrobin_penalties(model: RoundRobinModel, demand: SliceDemand):
    rho = per_thread_utilization(demand)
    if not rho:
        return {}
    result = {}
    for name in rho:
        wait = closed_wait_for(demand, rho, name)
        if wait <= _EPS:
            continue
        penalty = demand.demands[name] * wait
        if penalty > 0:
            result[name] = penalty
    return apply_saturation_floor(result, demand, rho)


def priority_penalties(model: PriorityModel, demand: SliceDemand):
    rho = per_thread_utilization(demand)
    if not rho:
        return {}
    service = demand.service_time
    priorities = demand.priorities
    result = {}
    for name in rho:
        mine = priorities.get(name, 0)
        higher = sum(
            value for other, value in rho.items()
            if other != name and priorities.get(other, 0) >= mine
        )
        lower = sum(
            min(1.0, value) for other, value in rho.items()
            if other != name and priorities.get(other, 0) < mine
        )
        wait = open_wait(service, higher, model.rho_max)
        wait += service * lower / 2.0
        wait = min(wait, closed_wait_for(demand, rho, name))
        penalty = demand.demands[name] * wait
        if penalty > 0:
            result[name] = penalty
    return apply_saturation_floor(result, demand, rho)


def mmc_penalties(model: MMcModel, demand: SliceDemand):
    rho = per_thread_utilization(demand)
    if not rho:
        return {}
    servers = max(1, int(demand.ports))
    service = demand.service_time
    total = sum(rho.values())
    result = {}
    for name, my_rho in rho.items():
        interference = total - my_rho
        load = min(interference, servers * model.rho_max)
        utilization = load / servers
        wait_probability = erlang_c(servers, load)
        wait = (wait_probability * service
                / (servers * max(1.0 - utilization, 1.0 - model.rho_max)))
        in_flight = sum(min(1.0, value) for other, value in rho.items()
                        if other != name)
        closed = service * max(0.0, in_flight - (servers - 1)) / servers
        wait = min(wait, closed)
        penalty = demand.demands[name] * wait
        if penalty > 0:
            result[name] = penalty
    if total > servers * 0.95 and demand.duration > _EPS:
        stretch = ((total - servers * 0.95) / servers
                   * demand.duration)
        others = len(rho) - 1
        for name in rho:
            hard_cap = (demand.demands[name] * service * others
                        / servers)
            floor = min(stretch, hard_cap)
            if floor > result.get(name, 0.0):
                result[name] = floor
    return result


#: Model class -> its pre-optimization ``penalties(model, demand)``.
REFERENCE_PENALTIES = {
    ChenLinModel: chenlin_penalties,
    MD1Model: md1_penalties,
    MM1Model: mm1_penalties,
    MMcModel: mmc_penalties,
    RoundRobinModel: roundrobin_penalties,
    PriorityModel: priority_penalties,
}
