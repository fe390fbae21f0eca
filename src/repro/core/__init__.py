"""The hybrid simulation/analytical kernel — the paper's contribution.

Public surface::

    from repro.core import (
        HybridKernel, LogicalThread, Processor, SharedResource,
        consume, acquire, release, ...,
        Mutex, Semaphore, ConditionVariable, Barrier,
        FifoScheduler, RoundRobinScheduler, PriorityScheduler,
        PinnedScheduler, LeastLoadedScheduler,
    )
"""

from .compile import SoAProgram, compile_kernel, soa_spec_fallback_reason
from .errors import (BudgetExceededError, ConfigurationError, DeadlockError,
                     ModelValidationError, ProtocolError, SimulationError,
                     SynchronizationError, UnsupportedFeatureError)
from .events import (Acquire, BarrierWait, CondNotify, CondWait, Consume,
                     Event, Release, SemAcquire, SemRelease, Spawn, acquire,
                     barrier_wait, cond_notify, cond_wait, consume, release,
                     sem_acquire, sem_release, spawn)
from .export import (cycle_result_to_dict, gantt_rows, result_to_dict,
                     save_json, trace_to_events)
from .kernel import HybridKernel
from .region import AnnotationRegion
from .resource import Processor
from .scheduler import (ExecutionScheduler, FifoScheduler,
                        LeastLoadedScheduler, PinnedScheduler,
                        PriorityScheduler, RoundRobinScheduler)
from .shared import SharedResource
from .soa import run_program
from .stats import (ProcessorStats, ResourceStats, SimulationResult,
                    ThreadStats)
from .sync import Barrier, ConditionVariable, Mutex, Semaphore
from .thread import LogicalThread, ThreadState
from .tracelog import TraceEvent, TraceLog
from .us import SharedResourceScheduler

__all__ = [
    "AnnotationRegion",
    "Acquire", "BarrierWait", "CondNotify", "CondWait", "Consume", "Event",
    "Release", "SemAcquire", "SemRelease", "Spawn",
    "Barrier", "ConditionVariable", "Mutex", "Semaphore",
    "BudgetExceededError", "ConfigurationError", "DeadlockError",
    "ModelValidationError", "ProtocolError",
    "SimulationError", "SynchronizationError", "UnsupportedFeatureError",
    "ExecutionScheduler", "FifoScheduler", "LeastLoadedScheduler",
    "PinnedScheduler", "PriorityScheduler", "RoundRobinScheduler",
    "HybridKernel", "LogicalThread", "Processor", "SharedResource",
    "SharedResourceScheduler", "SoAProgram",
    "ProcessorStats", "ResourceStats", "SimulationResult", "ThreadStats",
    "ThreadState", "TraceEvent", "TraceLog",
    "acquire", "barrier_wait", "cond_notify", "cond_wait", "compile_kernel",
    "consume", "cycle_result_to_dict", "gantt_rows",
    "release", "result_to_dict", "run_program", "save_json",
    "sem_acquire", "sem_release",
    "soa_spec_fallback_reason", "spawn", "trace_to_events",
]
