"""Shared helpers for the test suite (imported by test modules)."""

from __future__ import annotations

from repro.contention import ChenLinModel, SliceDemand
from repro.core import HybridKernel, LogicalThread, Processor, SharedResource


def make_kernel(n_procs=2, service_time=4.0, model=None, powers=None,
                **kwargs):
    """Build a small kernel with one bus for kernel-level tests."""
    if powers is None:
        powers = [1.0] * n_procs
    processors = [Processor(f"p{i}", powers[i]) for i in range(n_procs)]
    bus = SharedResource("bus", model or ChenLinModel(),
                         service_time=service_time)
    return HybridKernel(processors, [bus], **kwargs)


def simple_thread(name, events, **kwargs):
    """A LogicalThread that yields a fixed list of events."""
    def body():
        for event in events:
            yield event
    return LogicalThread(name, body, **kwargs)


def demand(duration=1000.0, service=4.0, priorities=None, **counts):
    """Shorthand SliceDemand builder: demand(a=10, b=20)."""
    return SliceDemand(start=0.0, end=duration, service_time=service,
                       demands=dict(counts),
                       priorities=priorities or {})
