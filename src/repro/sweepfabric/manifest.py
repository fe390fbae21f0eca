"""Atomic on-disk checkpoint of per-shard sweep state.

The manifest is what makes a sharded sweep *killable*: after every
shard state change the supervisor rewrites one small JSON file with the
same temp-file + ``os.replace`` discipline as
:meth:`~repro.scenario.store.RunStore.put`, so a reader (including the
resuming run after a SIGKILL) never observes a torn checkpoint.  A save
that would not change the file's bytes is skipped.

The manifest records shard *state*, not cell results — results live in
the content-addressed :class:`~repro.scenario.store.RunStore`, which is
the single source of truth for completed work.  On resume the
supervisor trusts the store (probing every cell) and uses the manifest
for what the store cannot say: how many times a shard has been
attempted, and whether it was quarantined as poison.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ..core.errors import ConfigurationError

#: Legal shard states, in lifecycle order.
SHARD_STATES = ("pending", "running", "done", "quarantined")

MANIFEST_VERSION = 1


@dataclass
class ShardRecord:
    """Mutable per-shard progress entry in the manifest."""

    shard_id: str
    state: str = "pending"
    #: Evaluation rounds attempted, cumulative across resumes.
    attempts: int = 0
    cells_total: int = 0
    cells_done: int = 0
    #: Cells completed by the work-stealing pass instead of the shard's
    #: own rounds (straggler recovery).
    cells_stolen: int = 0
    #: Last error per unresolved cell (``"<hash12>: message"``).
    errors: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON form; zero/empty optional fields are omitted."""
        data: Dict[str, object] = {
            "shard_id": self.shard_id, "state": self.state,
            "attempts": self.attempts,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
        }
        if self.cells_stolen:
            data["cells_stolen"] = self.cells_stolen
        if self.errors:
            data["errors"] = list(self.errors)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ShardRecord":
        """Rebuild a record from its :meth:`to_dict` form (validated)."""
        if data.get("state") not in SHARD_STATES:
            raise ConfigurationError(
                f"unknown shard state {data.get('state')!r}")
        return cls(shard_id=data["shard_id"], state=data["state"],
                   attempts=int(data.get("attempts", 0)),
                   cells_total=int(data.get("cells_total", 0)),
                   cells_done=int(data.get("cells_done", 0)),
                   cells_stolen=int(data.get("cells_stolen", 0)),
                   errors=list(data.get("errors", [])))


class ShardManifest:
    """The checkpoint file: plan identity plus one record per shard."""

    def __init__(self, path, plan_hash: str,
                 records: Optional[Dict[str, ShardRecord]] = None):
        self.path = Path(path)
        self.plan_hash = plan_hash
        #: shard_id -> record, insertion-ordered by shard index.
        self.records: Dict[str, ShardRecord] = records or {}

    @classmethod
    def for_plan(cls, path, plan) -> "ShardManifest":
        """Fresh manifest with a pending record per shard of ``plan``."""
        manifest = cls(path, plan.plan_hash)
        for shard in plan.shards:
            manifest.records[shard.shard_id] = ShardRecord(
                shard_id=shard.shard_id, cells_total=len(shard))
        return manifest

    @classmethod
    def load(cls, path) -> "ShardManifest":
        """Read a manifest back (raises on version/shape mismatch)."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                f"manifest {path} has version {data.get('version')!r}; "
                f"this build reads version {MANIFEST_VERSION}")
        records = {}
        for entry in data.get("shards", []):
            record = ShardRecord.from_dict(entry)
            records[record.shard_id] = record
        return cls(path, plan_hash=data["plan_hash"], records=records)

    def matches(self, plan) -> bool:
        """Whether this checkpoint describes ``plan``'s exact grid."""
        return self.plan_hash == plan.plan_hash

    def record(self, shard_id: str) -> ShardRecord:
        """The record for one shard id (must exist)."""
        return self.records[shard_id]

    def mark(self, shard_id: str, state: str) -> None:
        """Transition one shard's state (validated) without saving."""
        if state not in SHARD_STATES:
            raise ConfigurationError(f"unknown shard state {state!r}")
        self.records[shard_id].state = state

    def reset_running(self) -> int:
        """Demote ``running`` shards to ``pending`` (crash recovery).

        A shard checkpointed as running belongs to a supervisor that
        died mid-shard; on resume its incomplete cells are simply
        pending again (completed cells are found in the run store).
        Returns the number of shards demoted.
        """
        demoted = 0
        for record in self.records.values():
            if record.state == "running":
                record.state = "pending"
                demoted += 1
        return demoted

    def states(self) -> Dict[str, int]:
        """State -> shard count summary."""
        counts = {state: 0 for state in SHARD_STATES}
        for record in self.records.values():
            counts[record.state] += 1
        return counts

    def save(self) -> None:
        """Atomically rewrite the checkpoint (crash-safe, torn-proof).

        A checkpoint whose bytes equal the file's current contents is
        not rewritten: a warm resume, whose every shard is already
        ``done`` on disk, writes nothing.
        """
        payload = {
            "version": MANIFEST_VERSION,
            "plan_hash": self.plan_hash,
            "shards": [record.to_dict()
                       for record in self.records.values()],
        }
        data = json.dumps(payload, sort_keys=True,
                          indent=1).encode("utf-8")
        try:
            if self.path.read_bytes() == data:
                return
        except OSError:
            pass  # no checkpoint yet (or unreadable): write one
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.path.parent),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardManifest(path={str(self.path)!r}, "
                f"plan={self.plan_hash}, states={self.states()})")
