"""M/M/c queueing model for multi-port shared resources.

Multi-bank memories, dual-port SRAMs, and striped DMA engines serve
several accesses concurrently; a single-server model badly overestimates
their contention.  This model treats the resource as ``c`` parallel
servers (``SliceDemand.ports``) with Poisson arrivals: the probability a
tagged access must queue is the Erlang-C formula, and the conditional
wait is ``s / (c * (1 - rho))``.

As with the single-server models, the open-arrival wait is capped by the
closed-system bound for blocking masters (one in-flight access per other
master, of which only the overflow beyond ``c - 1`` free ports actually
delays the tagged access) and floored by flow balance in saturation.
"""

from __future__ import annotations

from typing import Dict

from .base import ContentionModel, SliceDemand
from .util import WindowTerms, others

_EPS = 1e-12


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival waits in an M/M/c queue.

    ``offered_load`` is in Erlangs (``lambda * s``); must be below
    ``servers`` for stability — the caller clips.
    """
    if offered_load <= _EPS:
        return 0.0
    if offered_load >= servers:
        return 1.0
    load_pow = 1.0  # offered_load**k / k!
    partial_sum = 0.0
    for k in range(servers):
        partial_sum += load_pow
        load_pow = load_pow * offered_load / (k + 1)
    # load_pow now holds offered_load**servers / servers!
    tail = load_pow * servers / (servers - offered_load)
    return tail / (partial_sum + tail)


class MMcModel(ContentionModel):
    """Multi-server (multi-port) queueing contention model."""

    name = "mmc"
    uses_priorities = False

    def __init__(self, rho_max: float = 0.98):
        if not 0.0 < rho_max < 1.0:
            raise ValueError(f"rho_max must be in (0, 1), got {rho_max!r}")
        self.rho_max = float(rho_max)

    def penalties(self, demand: SliceDemand) -> Dict[str, float]:
        terms = WindowTerms(demand)  # rho per single server
        if not terms.names:
            return {}
        servers = max(1, int(demand.ports))
        service = demand.service_time
        total = terms.total
        # Each thread's view of the other masters' in-flight accesses.
        in_flight = others([min(1.0, value) for value in terms.rho])
        result: Dict[str, float] = {}
        for name, count, my_rho, busy in zip(terms.names, terms.counts,
                                             terms.rho, in_flight):
            # Offered load from the *other* masters, in Erlangs.
            interference = total - my_rho
            load = min(interference, servers * self.rho_max)
            utilization = load / servers
            wait_probability = erlang_c(servers, load)
            wait = (wait_probability * service
                    / (servers * max(1.0 - utilization, 1.0 - self.rho_max)))
            # Closed-system cap: of the other masters' in-flight
            # accesses, only those beyond the c-1 remaining free ports
            # delay the tagged access.
            closed = service * max(0.0, busy - (servers - 1)) / servers
            wait = min(wait, closed)
            penalty = count * wait
            if penalty > 0:
                result[name] = penalty
        # Flow-balance floor against the aggregate capacity c/s.
        if total > servers * 0.95 and terms.duration > _EPS:
            stretch = ((total - servers * 0.95) / servers
                       * terms.duration)
            peers = len(terms.names) - 1
            for name, count in zip(terms.names, terms.counts):
                hard_cap = count * service * peers / servers
                floor = min(stretch, hard_cap)
                if floor > result.get(name, 0.0):
                    result[name] = floor
        return result

    def __repr__(self) -> str:
        return f"MMcModel(rho_max={self.rho_max})"
