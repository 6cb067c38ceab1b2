"""Content-addressed artifact cache for the lowering pipeline.

Artifacts (transformed programs, placements, buffering analyses, SDFGs,
compiled stencils) are keyed by the *content* of their inputs — the
canonical JSON hash of the program plus the configuration slice the
producing pass depends on — so any two consumers that request the same
lowered artifact share one object, regardless of which entry point
(Session, simulator, explorer, CLI) asked first, and regardless of
which transform path produced an identical program.

The cache is in-process; cross-process sharing of *measurements* rides
the explore :class:`~repro.explore.cache.ResultCache` persistence path,
which reuses the same content keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..obs import metrics

#: Default capacity of the process-wide cache.  Artifacts are small
#: relative to simulation state, but sweeps over large spaces should
#: not grow memory without bound; eviction is oldest-first.  Sized so
#: that even a several-hundred-point sweep (a handful of artifacts per
#: distinct lowered machine) fits without evicting its own working
#: set — eviction would quietly break the "repeated sweep re-lowers
#: nothing" contract, so :attr:`ArtifactCache.evictions` counts it.
DEFAULT_MAX_ENTRIES = 8192

#: Environment override enabling the optional on-disk artifact spill
#: (a directory path).  Off by default: the in-process cache is the
#: product; the spill exists so long-lived batch environments can
#: carry buffering analyses across processes.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Artifact kinds eligible for the disk spill.  Only plain-data
#: artifacts belong here: buffering analyses pickle cleanly, while
#: e.g. compiled stencils may close over unpicklable state.
PERSISTABLE_KINDS = frozenset({"analysis"})


def content_key(kind: str, *parts) -> str:
    """A stable content address: sha1 over canonical JSON.

    ``kind`` namespaces the artifact class (``"analysis"``, ``"sdfg"``,
    ...); ``parts`` must be JSON-serializable (tuples become lists,
    which is fine — key construction is the only consumer).
    """
    text = json.dumps([kind, *parts], sort_keys=True, default=str)
    return kind + ":" + hashlib.sha1(text.encode()).hexdigest()


class ArtifactCache:
    """Thread-safe content-addressed store with per-kind hit/miss stats.

    Keys are strings produced by :func:`content_key`; the prefix before
    the first ``":"`` names the artifact kind, and statistics are kept
    per kind so consumers (the explorer's report, the e2e benchmark)
    can quote e.g. how many buffering analyses a sweep re-ran.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 spill_dir=None):
        self.max_entries = max_entries
        if spill_dir is None:
            spill_dir = os.environ.get(ARTIFACT_DIR_ENV) or None
        self.spill_dir = Path(spill_dir) if spill_dir else None
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._building: Dict[str, threading.Lock] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _kind(key: str) -> str:
        return key.split(":", 1)[0]

    def get_or_build(self, key: str, build: Callable[[], object]):
        """Return the cached artifact under ``key``, building on miss.

        Concurrent requests for the same absent key serialize on a
        per-key build lock, so an expensive artifact (a buffering
        analysis under the explorer's thread pool) is built exactly
        once; the waiters then hit.  A miss therefore counts *builds*.
        """
        kind = self._kind(key)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits[kind] = self._hits.get(kind, 0) + 1
                metrics.counter("artifact_cache.hits",
                                kind=kind).inc()
                return self._entries[key]
            build_lock = self._building.setdefault(key,
                                                   threading.Lock())
        try:
            with build_lock:
                with self._lock:
                    if key in self._entries:
                        self._entries.move_to_end(key)
                        self._hits[kind] = self._hits.get(kind, 0) + 1
                        metrics.counter("artifact_cache.hits",
                                        kind=kind).inc()
                        return self._entries[key]
                artifact = self._spill_load(key)
                spilled = artifact is not None
                if not spilled:
                    artifact = build()
                with self._lock:
                    if spilled:
                        self._hits[kind] = self._hits.get(kind, 0) + 1
                        metrics.counter("artifact_cache.spill_loads",
                                        kind=kind).inc()
                    else:
                        # Count the miss only once something was
                        # actually built — a raising build is not an
                        # artifact.
                        self._misses[kind] = \
                            self._misses.get(kind, 0) + 1
                        metrics.counter("artifact_cache.misses",
                                        kind=kind).inc()
                    self._entries[key] = artifact
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                        metrics.counter(
                            "artifact_cache.evictions").inc()
                if not spilled:
                    self._spill_store(key, artifact)
        finally:
            with self._lock:
                self._building.pop(key, None)
        return artifact

    # -- optional on-disk spill ----------------------------------------------

    def _spill_path(self, key: str) -> Optional[Path]:
        if self.spill_dir is None or \
                self._kind(key) not in PERSISTABLE_KINDS:
            return None
        return self.spill_dir / (key.replace(":", "-") + ".pkl")

    def _spill_load(self, key: str) -> Optional[object]:
        """Load a spilled artifact; a corrupt spill file is
        quarantined (never crashes the build path) and rebuilt."""
        path = self._spill_path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            from ..faults.store import quarantine_file
            quarantine_file(path,
                            reason=f"unreadable artifact spill: "
                                   f"{exc!r}")
            return None

    def _spill_store(self, key: str, artifact: object):
        """Best-effort atomic spill write (failures are silent: the
        spill is an optimization, never a correctness dependency)."""
        path = self._spill_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            with open(tmp, "wb") as handle:
                pickle.dump(artifact, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            metrics.counter("artifact_cache.spill_stores",
                            kind=self._kind(key)).inc()
        except Exception:
            pass

    def peek(self, key: str) -> Optional[object]:
        """Non-counting lookup (used by tests and diagnostics)."""
        with self._lock:
            return self._entries.get(key)

    # -- statistics ----------------------------------------------------------

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(self._hits.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(self._misses.values())

    def stats(self, kind: Optional[str] = None) -> Tuple[int, int]:
        """(hits, misses) — overall, or for one artifact kind."""
        with self._lock:
            if kind is None:
                return (sum(self._hits.values()),
                        sum(self._misses.values()))
            return (self._hits.get(kind, 0), self._misses.get(kind, 0))

    def stats_by_kind(self) -> Dict[str, Tuple[int, int]]:
        with self._lock:
            kinds = set(self._hits) | set(self._misses)
            return {k: (self._hits.get(k, 0), self._misses.get(k, 0))
                    for k in sorted(kinds)}

    def reset_stats(self):
        with self._lock:
            self._hits.clear()
            self._misses.clear()

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._building.clear()
            self._hits.clear()
            self._misses.clear()
            self.evictions = 0


#: The process-wide cache every entry point shares by default.
_DEFAULT_CACHE = ArtifactCache()


def default_cache() -> ArtifactCache:
    """The shared process-wide artifact cache."""
    return _DEFAULT_CACHE


def reset_default_cache():
    """Drop every artifact and counter (test isolation hook)."""
    _DEFAULT_CACHE.clear()
