"""Analytical contention models for shared resources.

Every model maps a :class:`~repro.contention.base.SliceDemand` (who
accessed the resource how often in one window of time) to per-thread
queueing penalties.  The same model object serves both the hybrid kernel
(piecewise evaluation per timeslice) and the pure-analytical baseline
(one evaluation over the whole run) — the comparison at the heart of the
paper.
"""

from .base import ContentionModel, SliceDemand
from .chenlin import ChenLinModel
from .constant import ConstantModel, NullModel
from .md1 import MD1Model
from .mm1 import MM1Model
from .mmc import MMcModel, erlang_c
from .priority import PriorityModel
from .registry import available_models, make_model, register_model
from .roundrobin import RoundRobinModel

__all__ = [
    "ChenLinModel", "ConstantModel", "ContentionModel", "MD1Model",
    "MM1Model", "MMcModel", "NullModel", "PriorityModel",
    "RoundRobinModel", "SliceDemand", "available_models", "erlang_c",
    "make_model", "register_model",
]
