"""Content-addressed, on-disk store of simulation artifacts.

A design-space exploration evaluates the same scenarios over and over —
across figure scripts, report invocations, CI jobs, and machines.  The
:class:`RunStore` makes each evaluation a durable artifact addressed by
``(spec_hash, estimator, code_version)``:

* ``spec_hash`` — the scenario's content address
  (:meth:`~repro.scenario.spec.ScenarioSpec.spec_hash`), so a hit is
  guaranteed to describe the *same* inputs;
* ``estimator`` — which engine produced the numbers (``"iss"``,
  ``"mesh"``, ``"analytical"``);
* ``code_version`` — a digest of the whole ``repro`` package source, so
  editing any model or kernel file silently invalidates every cached
  artifact instead of replaying stale physics.

Artifacts are plain JSON payloads written atomically (temp file +
rename), so concurrent sweep workers sharing one store directory never
observe a torn file; a corrupt or unreadable artifact counts as a miss
and is recomputed.  Hit/miss/store counters live on the instance,
guarded by a lock so concurrent *threads* (service handlers sharing one
store) never interleave an increment or read a torn :meth:`stats`
snapshot — worker *processes* still count on their own copies, so
cross-process proof of cache effectiveness should use the ``cached``
flag carried on results instead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

#: Environment variable overriding :func:`code_version` (useful in CI to
#: key caches on the commit instead of rehashing the tree).
CODE_VERSION_ENV = "REPRO_CODE_VERSION"

#: Bytes of artifact files one :class:`RunStore` keeps in memory after
#: reading them (oldest dropped first); a file larger than 1/64 of
#: this is never kept.
READ_CACHE_BYTES = 4 << 20

_code_version_cache: Optional[str] = None

#: Flags of a temp-file create: fail rather than reuse an existing name.
_TMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
              | getattr(os, "O_CLOEXEC", 0))
#: Serial numbers of this process's temp files (thread-safe in CPython).
_tmp_serial = itertools.count()


def code_version() -> str:
    """12-hex digest of the entire ``repro`` package source.

    Hashes every ``*.py`` file under the package root (sorted relative
    paths and contents), so *any* source edit yields a new version and
    therefore a disjoint store namespace.  Set ``REPRO_CODE_VERSION``
    to pin the value (e.g. to a commit hash) without rehashing.
    """
    global _code_version_cache
    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()[:12]
    return _code_version_cache


class RunStore:
    """Keyed JSON artifacts under ``root/<code_version>/<hash>-<est>.json``.

    Parameters
    ----------
    root:
        Store directory (created on first write).
    version:
        Code-version namespace; defaults to :func:`code_version`.
    tmp_max_age:
        On open, ``*.tmp`` files older than this many seconds — debris
        left by writers that crashed (or were SIGKILLed) between
        creating their temp file and ``os.replace`` — are deleted by
        :meth:`sweep_tmp`.  The default (60s) never races a live
        writer, whose temp file is at most one JSON dump old.  Pass
        ``None`` to skip the sweep (e.g. short-lived worker-process
        handles that open the store per cell).
    """

    def __init__(self, root, version: Optional[str] = None,
                 tmp_max_age: Optional[float] = 60.0):
        self.root = Path(root)
        self.version = version or code_version()
        #: Guards counter mutation and :meth:`stats` snapshots against
        #: concurrent service handlers / pool threads.  File writes need
        #: no lock — the temp-file + rename protocol is already atomic.
        self._lock = threading.Lock()
        #: Successful :meth:`get` lookups.
        self.hits = 0
        #: Failed :meth:`get` lookups (absent or unreadable artifact).
        self.misses = 0
        #: Artifacts written by :meth:`put`.
        self.stores = 0
        #: Subset of ``misses`` where the artifact *existed* but was
        #: unreadable or failed to parse (torn/corrupted file) — the
        #: signal a chaos run or crashed writer left damage behind.
        self.corrupt = 0
        #: Orphaned ``*.tmp`` files deleted by :meth:`sweep_tmp`.
        self.tmp_swept = 0
        #: path -> (stat stamp, bytes) of artifacts read by :meth:`get`,
        #: oldest first, holding ``_read_cache_bytes`` bytes in all.
        self._read_cache: Dict[str, Tuple[Tuple[int, ...], bytes]] = {}
        self._read_cache_bytes = 0
        #: Artifact directories this handle has made.
        self._made: Set[str] = set()
        if tmp_max_age is not None:
            self.sweep_tmp(max_age=tmp_max_age)

    def _artifact(self, spec_hash: str, estimator: str) -> str:
        return os.path.join(self.root, self.version, spec_hash[:2],
                            f"{spec_hash}-{estimator}.json")

    def path_for(self, spec_hash: str, estimator: str) -> Path:
        """Artifact path for one ``(spec_hash, estimator)`` pair."""
        return Path(self._artifact(spec_hash, estimator))

    def _read(self, path: str) -> bytes:
        """An artifact's bytes, from memory while a ``stat`` of the file
        still matches the one taken when it was read.

        A ``stat`` costs a fraction of an open, read and close, and a
        store serving repeated lookups (the service's warm path) reads
        the same artifacts over and over.  Every write (a :meth:`put`'s
        rename, or an in-place overwrite) changes the inode, size or
        change time, so a rewritten artifact is read afresh.
        """
        cached = self._read_cache.get(path)
        if cached is not None:
            info = os.stat(path)
            if cached[0] == (info.st_ino, info.st_size, info.st_mtime_ns,
                             info.st_ctime_ns):
                return cached[1]
        with open(path, "rb") as handle:
            info = os.fstat(handle.fileno())
            data = handle.read()
        if len(data) <= READ_CACHE_BYTES // 64:
            stamp = (info.st_ino, info.st_size, info.st_mtime_ns,
                     info.st_ctime_ns)
            with self._lock:
                cache = self._read_cache
                stale = cache.pop(path, None)
                if stale is not None:
                    self._read_cache_bytes -= len(stale[1])
                while self._read_cache_bytes + len(data) > READ_CACHE_BYTES:
                    oldest = cache.pop(next(iter(cache)))
                    self._read_cache_bytes -= len(oldest[1])
                cache[path] = (stamp, data)
                self._read_cache_bytes += len(data)
        return data

    def get(self, spec_hash: str, estimator: str) -> Optional[Dict]:
        """Load a cached payload, or ``None`` on a miss.

        A payload that exists but fails to parse counts as a miss —
        recomputing is always correct, trusting a torn file never is.
        Every call parses afresh, so callers never share a payload.
        """
        path = self._artifact(spec_hash, estimator)
        try:
            payload = json.loads(self._read(path))
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, ValueError):
            # Present but unreadable: count separately so sweeps can
            # report healed corruption, then recompute as usual.
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def put(self, spec_hash: str, estimator: str,
            payload: Dict) -> Path:
        """Atomically write one artifact; returns its path.

        The bytes go to a fresh ``<artifact>.<pid>.<n>.tmp`` file beside
        the artifact (created exclusively, mode ``0o600`` as
        ``mkstemp`` makes it) and are renamed over it.  Directories
        already made by this handle are not made again; if the store
        tree was removed meanwhile, the write makes it anew.
        """
        path = self._artifact(spec_hash, estimator)
        directory = os.path.dirname(path)
        if directory not in self._made:
            os.makedirs(directory, exist_ok=True)
            self._made.add(directory)
        fd, tmp_name = self._create_tmp(path, directory)
        try:
            # One encode (the C encoder; ``json.dump`` streams through
            # the pure-Python one) and one write: the same bytes.
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self.stores += 1
        return Path(path)

    def _create_tmp(self, path: str, directory: str) -> Tuple[int, str]:
        """Exclusively create a temp file for ``path``: ``(fd, name)``."""
        while True:
            name = f"{path}.{os.getpid()}.{next(_tmp_serial)}.tmp"
            try:
                return os.open(name, _TMP_FLAGS, 0o600), name
            except FileExistsError:  # a crashed writer's debris
                continue
            except FileNotFoundError:  # the tree was removed under us
                os.makedirs(directory, exist_ok=True)
                self._made.add(directory)

    def __contains__(self, key) -> bool:
        """Whether a ``(spec_hash, estimator)`` artifact exists on disk."""
        spec_hash, estimator = key
        return os.path.exists(self._artifact(spec_hash, estimator))

    def count(self) -> int:
        """Number of artifacts stored under the current code version."""
        base = self.root / self.version
        if not base.exists():
            return 0
        return sum(1 for _ in base.rglob("*.json"))

    def orphan_tmp(self) -> int:
        """Number of ``*.tmp`` files currently present under the root.

        A non-zero count with no writer running means a crashed writer
        left debris behind; :meth:`sweep_tmp` cleans it up.
        """
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.tmp"))

    def sweep_tmp(self, max_age: float = 0.0) -> int:
        """Delete orphaned ``*.tmp`` files older than ``max_age`` seconds.

        Returns the number removed (also accumulated on
        ``self.tmp_swept``).  Called automatically on store open with a
        conservative age threshold; pass ``0.0`` to sweep everything
        (only safe when no writer is running).
        """
        if not self.root.exists():
            return 0
        removed = 0
        now = time.time()
        for path in self.root.rglob("*.tmp"):
            try:
                if now - path.stat().st_mtime >= max_age:
                    path.unlink()
                    removed += 1
            except OSError:  # racing another sweeper or a writer
                pass
        with self._lock:
            self.tmp_swept += removed
        return removed

    def counters(self) -> Dict[str, int]:
        """Snapshot of the lookup/write counters, without touching disk.

        Read under the lock, so a snapshot taken mid-request never
        shows a torn view (e.g. a ``corrupt`` increment without its
        paired ``misses`` increment).
        """
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "corrupt": self.corrupt,
                    "tmp_swept": self.tmp_swept}

    def stats(self) -> Dict[str, int]:
        """:meth:`counters` plus on-disk hygiene: ``orphan_tmp`` and
        ``artifacts`` (two walks of the store tree)."""
        counters = self.counters()
        counters["orphan_tmp"] = self.orphan_tmp()
        counters["artifacts"] = self.count()
        return counters

    def __getstate__(self) -> Dict:
        """Pickle support: drop the (unpicklable) lock and the read
        cache.

        Worker processes receive a counter snapshot and count on their
        own copies from there — exactly the documented cross-process
        semantics.  ``__setstate__`` restores without re-running
        ``__init__``, so unpickling never triggers a tmp sweep that
        could race the parent's live writers.
        """
        state = dict(self.__dict__)
        del state["_lock"]
        state["_read_cache"] = {}
        state["_read_cache_bytes"] = 0
        state["_made"] = set()
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunStore(root={str(self.root)!r}, "
                f"version={self.version!r})")


def as_store(store) -> Optional[RunStore]:
    """Coerce ``None`` / path string / :class:`RunStore` to a store."""
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)
