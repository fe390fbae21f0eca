"""Chaos tooling: controlled worker kills and store corruption.

Fault-tolerance claims that are never exercised rot.  This module is
the repo's own adversary: it SIGKILLs sweep workers mid-cell and
corrupts run-store artifacts on demand, so the chaos test suite (and
the CI chaos-smoke job) can assert the fabric's actual contract — a
disrupted sweep converges to the bit-identical serial result, with
completed work replayed from the store, never recomputed.

Kills are *once-per-cell*: before dying, the worker claims a marker
file with ``O_CREAT | O_EXCL`` (atomic on POSIX), so the retry of the
same cell finds the marker and completes normally.  That shape — fail
exactly once, then succeed — is the transient-fault profile the
supervisor's retry path is designed for; a cell that kills its worker
on *every* attempt (delete the marker dir to simulate) is the poison
profile that must end in quarantine, not a hang.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


class ChaosPlan:
    """Which cells to kill, and where kill markers live.

    Parameters
    ----------
    kill_hashes:
        Spec hashes of the cells whose first evaluation attempt
        SIGKILLs its worker process.
    marker_dir:
        Directory for the once-only markers (created on demand).
    """

    def __init__(self, kill_hashes: Iterable[str], marker_dir):
        self.kill_hashes = frozenset(kill_hashes)
        self.marker_dir = Path(marker_dir)

    def to_dict(self) -> Dict[str, object]:
        """Picklable/JSON form shipped to worker processes."""
        return {"kill_hashes": sorted(self.kill_hashes),
                "marker_dir": str(self.marker_dir)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChaosPlan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        return cls(kill_hashes=data.get("kill_hashes", ()),
                   marker_dir=data["marker_dir"])

    @classmethod
    def kill_first(cls, specs: Sequence, count: int,
                   marker_dir) -> "ChaosPlan":
        """Kill the first ``count`` distinct cells of a grid."""
        hashes: List[str] = []
        for spec in specs:
            spec_hash = spec.spec_hash()
            if spec_hash not in hashes:
                hashes.append(spec_hash)
            if len(hashes) >= count:
                break
        return cls(kill_hashes=hashes, marker_dir=marker_dir)


def maybe_kill_worker(chaos: Optional[Mapping], spec_hash: str) -> None:
    """Worker-side hook: SIGKILL this process once per planned cell.

    ``chaos`` is a :meth:`ChaosPlan.to_dict` mapping (or ``None``).
    The marker claim is atomic, so exactly one attempt per cell dies
    even when several workers race, and the supervisor's retry finds a
    healthy cell.
    """
    if not chaos or spec_hash not in chaos.get("kill_hashes", ()):
        return
    marker_dir = Path(chaos["marker_dir"])
    marker_dir.mkdir(parents=True, exist_ok=True)
    marker = marker_dir / f"killed-{spec_hash[:16]}"
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # this cell already paid its death; run normally
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def corrupt_artifacts(store, spec_hashes: Sequence[str],
                      estimator: str = "mesh",
                      garbage: bytes = b"{torn json") -> List[Path]:
    """Overwrite stored artifacts with garbage (crash-mid-write model).

    Returns the paths corrupted.  A corrupted artifact must read as a
    miss (counted on :attr:`RunStore.corrupt <repro.scenario.store.
    RunStore.corrupt>`) and be recomputed — never trusted, never fatal.
    """
    corrupted: List[Path] = []
    for spec_hash in spec_hashes:
        path = store.path_for(spec_hash, estimator)
        if path.exists():
            path.write_bytes(garbage)
            corrupted.append(path)
    return corrupted


def orphan_tmp_file(store, spec_hash: str, estimator: str = "mesh",
                    payload: Optional[Mapping] = None) -> Path:
    """Drop a stale ``*.tmp`` next to an artifact (killed-writer model).

    Models a writer SIGKILLed between creating its temp file and
    ``os.replace``; the file is backdated so :meth:`RunStore.sweep_tmp`
    treats it as abandoned rather than in-flight.
    """
    target = store.path_for(spec_hash, estimator)
    target.parent.mkdir(parents=True, exist_ok=True)
    orphan = target.parent / f"orphan-{spec_hash[:8]}.tmp"
    orphan.write_text(json.dumps(dict(payload or {"torn": True})),
                      encoding="utf-8")
    stale = 0.0
    os.utime(orphan, (stale, stale))
    return orphan
