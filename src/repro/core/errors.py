"""Exception hierarchy for the MESH-style simulation kernel.

All errors raised by :mod:`repro.core` derive from :class:`SimulationError`
so callers can catch kernel problems with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
conditions such as deadlock.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by the simulation kernel."""


class ConfigurationError(SimulationError):
    """The simulation was assembled inconsistently.

    Examples: a logical thread pinned to an unknown processor, a consume
    annotation referencing a shared resource that was never registered, or
    a non-positive computational power.
    """


class SpecValidationError(ConfigurationError):
    """A scenario-spec document failed validation at a known location.

    Raised by :meth:`repro.scenario.spec.ScenarioSpec.from_dict` (and
    :meth:`~repro.scenario.spec.ScenarioSpec.validate`) with
    :attr:`path`, a JSON-pointer-style location of the offending field
    (``"/model/knobs"``, ``"/fault_plan/windows/0/resource"``, ...), so
    the service can answer a malformed document with a 400 naming the
    exact field instead of a bare error string.  Subclasses
    :class:`ConfigurationError`, so existing ``except`` clauses keep
    catching it.
    """

    def __init__(self, message: str, path: str = "/"):
        super().__init__(message)
        self.path = path or "/"

    def at(self, prefix: str) -> "SpecValidationError":
        """Re-root this error under a parent document prefix."""
        child = "" if self.path == "/" else self.path
        return SpecValidationError(self.args[0], prefix + child)


class DeadlockError(SimulationError):
    """No thread can make progress but blocked threads remain.

    Raised by the kernel main loop when the priority queue is empty, no
    thread is runnable now or in the future, and at least one thread is
    parked on a synchronization primitive.

    The error carries a wait-for graph: :attr:`wait_for` maps each
    blocked thread's name to ``(primitive kind, primitive name,
    holder names)`` — or ``None`` when the parked-on primitive is
    unknown — so deadlock reports name both what each thread waits on
    and who currently holds it.
    """

    def __init__(self, blocked_threads):
        self.blocked_threads = list(blocked_threads)
        self.wait_for = {}
        details = []
        for thread in sorted(self.blocked_threads, key=lambda t: t.name):
            primitive = getattr(thread, "blocked_on", None)
            if primitive is None:
                self.wait_for[thread.name] = None
                details.append(f"  {thread.name} -> <unknown primitive>")
                continue
            holders = list(primitive.holders())
            self.wait_for[thread.name] = (
                primitive.kind, primitive.name, holders)
            details.append(f"  {thread.name} -> {primitive.describe()}")
        names = ", ".join(sorted(t.name for t in self.blocked_threads))
        message = f"deadlock: blocked threads with no waker: {names}"
        if details:
            message += "\n" + "\n".join(details)
        super().__init__(message)


class ModelValidationError(SimulationError):
    """A guarded contention model chain produced no valid penalties.

    Raised by :class:`repro.robustness.guard.GuardedModel` when every
    model in its fallback chain either raised or returned penalties
    that are non-finite, negative, or out of the configured bound.
    """


class BudgetExceededError(SimulationError):
    """A :class:`repro.robustness.budget.RunBudget` limit was hit.

    Carries the statistics accumulated up to the point of abortion in
    :attr:`partial_result` (a ``SimulationResult`` from the hybrid
    kernel, a ``CycleResult`` from the cycle engines) so callers can
    inspect how far the run got.
    """

    def __init__(self, reason: str, partial_result=None, budget=None):
        self.reason = reason
        self.partial_result = partial_result
        self.budget = budget
        super().__init__(f"run budget exceeded: {reason}")


class UnsupportedFeatureError(SimulationError):
    """A kernel configuration falls outside an engine's compiled subset.

    Raised by the structure-of-arrays compiler
    (:mod:`repro.core.compile`) when a scenario uses a feature the SoA
    engine does not lower — tracing, fault plans, budgets, memoization,
    non-lowered synchronization events, non-FIFO scheduling, or thread
    bodies it cannot enumerate without side effects.
    :class:`~repro.core.kernel.HybridKernel` catches it and falls back
    to the object engine, recording :attr:`feature` as the routing
    reason on the result (GuardedModel-style graceful degradation —
    never silent divergence).
    """

    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(
            f"soa engine does not support {feature}; "
            f"routing to the object engine"
        )


class ProtocolError(SimulationError):
    """A logical thread yielded something the kernel does not understand."""


class SynchronizationError(SimulationError):
    """A synchronization primitive was misused.

    Examples: releasing a mutex the thread does not hold, or waiting on a
    condition variable without holding the associated mutex.
    """
