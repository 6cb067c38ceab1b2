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
import threading
from collections import OrderedDict
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

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
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
                artifact = build()
                with self._lock:
                    # Count the miss only once something was actually
                    # built — a raising build is not an artifact.
                    self._misses[kind] = self._misses.get(kind, 0) + 1
                    metrics.counter("artifact_cache.misses",
                                    kind=kind).inc()
                    self._entries[key] = artifact
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                        metrics.counter(
                            "artifact_cache.evictions").inc()
        finally:
            with self._lock:
                self._building.pop(key, None)
        return artifact

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
