"""Bus arbiters for the cycle-accurate engines.

An arbiter chooses which pending request a freshly idle shared resource
serves next.  Both cycle engines (stepped and event-driven) call the same
arbiter objects at the same decision points with identical queue
contents, which is what makes their results bit-identical.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Request:
    """One pending access: who asked, when, in which global order.

    ``burst`` is the transaction length in beats; the grant occupies
    the resource for ``burst * service_time`` cycles.
    """

    proc_index: int
    thread_name: str
    time: int
    seq: int
    burst: int = 1


class Arbiter(abc.ABC):
    """Base class for grant policies."""

    @abc.abstractmethod
    def pick(self, waiting: List[Request]) -> Request:
        """Select (and remove from ``waiting``) the request to serve."""


class FifoArbiter(Arbiter):
    """Grant in request order (ties broken by issue sequence)."""

    name = "fifo"

    def pick(self, waiting: List[Request]) -> Request:
        best = min(waiting, key=lambda r: (r.time, r.seq))
        waiting.remove(best)
        return best


class RoundRobinArbiter(Arbiter):
    """Rotate grant priority over processor indices.

    After granting processor ``k``, the next grant prefers the first
    waiting processor with index greater than ``k`` (cyclically) — the
    classic fair bus arbiter.
    """

    name = "roundrobin"

    def __init__(self) -> None:
        self._last = -1

    def pick(self, waiting: List[Request]) -> Request:
        start = self._last + 1
        # The modulus must reach ``start`` too: below it, ``(index -
        # start) % modulus`` no longer orders indices cyclically from
        # ``start`` (with ``_last = 3`` and 0, 1 waiting it picked 1).
        modulus = max(_rotation_modulus(waiting), start)

        def rotation_key(request: Request):
            return ((request.proc_index - start) % modulus, request.seq)

        best = min(waiting, key=rotation_key)
        waiting.remove(best)
        self._last = best.proc_index
        return best


def _rotation_modulus(waiting: List[Request]) -> int:
    """A modulus larger than any waiting processor index."""
    return max(r.proc_index for r in waiting) + 2


class PriorityArbiter(Arbiter):
    """Grant the highest-priority waiting thread (FIFO among equals)."""

    name = "priority"

    def __init__(self, priorities: Optional[Dict[str, int]] = None):
        self.priorities = dict(priorities or {})

    def pick(self, waiting: List[Request]) -> Request:
        best = min(
            waiting,
            key=lambda r: (-self.priorities.get(r.thread_name, 0),
                           r.time, r.seq),
        )
        waiting.remove(best)
        return best


def make_arbiter(name: str,
                 priorities: Optional[Dict[str, int]] = None) -> Arbiter:
    """Instantiate an arbiter by registry name."""
    if name == "fifo":
        return FifoArbiter()
    if name == "roundrobin":
        return RoundRobinArbiter()
    if name == "priority":
        return PriorityArbiter(priorities)
    raise KeyError(f"unknown arbiter {name!r}; "
                   f"known: fifo, roundrobin, priority")
