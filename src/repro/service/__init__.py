"""Contention-modeling-as-a-service.

The serving stack over the :class:`~repro.engine.session.
ExecutionSession` facade: a stdlib-asyncio HTTP/JSON server
(:mod:`~repro.service.server`) with per-tenant token-bucket quotas
(:mod:`~repro.service.quota`) and single-flight coalescing of
identical cold requests (:mod:`~repro.service.coalesce`).

Start one with ``python -m repro serve --cache-dir <store>`` and POST
:class:`~repro.scenario.spec.ScenarioSpec` documents to
``/v1/analyze`` (see ``docs/api.md``).
"""

from .coalesce import SingleFlight
from .quota import QuotaRegistry, TokenBucket
from .server import (AnalyzeService, ServiceConfig, ServiceHandle,
                     run)

__all__ = [
    "AnalyzeService",
    "QuotaRegistry",
    "ServiceConfig",
    "ServiceHandle",
    "SingleFlight",
    "TokenBucket",
    "run",
]
