"""Simulation-result cache for incremental design-space sweeps.

Entries are keyed by the *simulated machine*: a fingerprint of the
program (modulo vectorization — the width is part of the configuration)
plus the effective placement and machine tunables.  Two sweeps over
overlapping spaces therefore share results, and distinct configuration
points that induce the same machine (``auto`` and ``contiguous``
placements that coincide) hit the same entry.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional

from ..core.program import StencilProgram
from ..faults import store
from ..obs import metrics

#: Bound on the persisted entry count: merge-on-save never prunes by
#: itself, so without a cap the default-on persistence would grow the
#: file (and every sweep's load/save cost) forever.  When the merged
#: map exceeds the cap, this process's own entries are kept and the
#: remainder is filled deterministically.
MAX_PERSISTED_ENTRIES = 8192

#: Measurement-schema version, baked into every entry key.  Bump when
#: simulator semantics legitimately change what a measurement means
#: (cycle accounting, stall bookkeeping, ...): persisted entries from
#: older versions then simply stop hitting, instead of serving stale
#: cycle counts to end-user installs that never run the repo's
#: bench-regression gate.
CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Measurement:
    """What one simulation of one machine produced.

    Attributes:
        simulated_cycles: cycles until the last sink completed.
        sim_expected_cycles: the simulator's own Eq. 1 bookkeeping.
        wall_seconds: wall time of the simulation that produced this
            entry (kept on cache hits so reports can show the cost the
            hit avoided).
        engine: the engine that ran (``"batched"`` / ``"scalar"``).
    """

    simulated_cycles: int
    sim_expected_cycles: int
    wall_seconds: float
    engine: str

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, spec: Mapping) -> "Measurement":
        return cls(simulated_cycles=int(spec["simulated_cycles"]),
                   sim_expected_cycles=int(spec["sim_expected_cycles"]),
                   wall_seconds=float(spec["wall_seconds"]),
                   engine=str(spec["engine"]))


def program_fingerprint(program: StencilProgram) -> str:
    """Identity of a program *modulo vectorization*.

    The width is a configuration axis, so it is normalized out; any
    other change (shape, code, boundary conditions...) changes the
    fingerprint and invalidates cached results.  This is the lowering
    pipeline's *family hash* (``LoweredProgram.family_hash``), so
    measurement-cache keys line up with artifact-cache keys.

    It is also the first component of the serve frontier-index key
    (:mod:`repro.serve.index`) — and it is *pure* (AST + JSON string
    hashing, no lowering), which is what lets a warm ``/v1/best``
    lookup resolve a program identity without ever touching the
    artifact cache.
    """
    return program.family_hash


class ResultCache:
    """Thread-safe, JSON-serializable map of machines to measurements.

    ``hits``/``misses`` count lookups since construction (or
    :meth:`reset_stats`); the explorer reports them so users can see a
    repeated sweep being incremental.
    """

    def __init__(self):
        self._entries: Dict[str, Measurement] = {}
        self._fresh: set = set()  # keys put() by this process
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def entry_key(fingerprint: str, simulation_key) -> str:
        text = json.dumps([CACHE_SCHEMA_VERSION, fingerprint,
                           list(map(repr, simulation_key))])
        return hashlib.sha1(text.encode()).hexdigest()

    def get(self, fingerprint: str,
            simulation_key) -> Optional[Measurement]:
        key = self.entry_key(fingerprint, simulation_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                metrics.counter("result_cache.misses").inc()
            else:
                self.hits += 1
                metrics.counter("result_cache.hits").inc()
            return entry

    def put(self, fingerprint: str, simulation_key,
            measurement: Measurement):
        key = self.entry_key(fingerprint, simulation_key)
        with self._lock:
            self._entries[key] = measurement
            self._fresh.add(key)
        metrics.counter("result_cache.puts").inc()

    def reset_stats(self):
        with self._lock:
            self.hits = 0
            self.misses = 0

    def merge(self, other: "ResultCache") -> int:
        """Adopt ``other``'s entries this cache does not have yet.

        Existing entries win (they are this process's freshest
        measurements).  Returns the number of entries adopted; lookup
        statistics are unaffected.
        """
        adopted = 0
        with self._lock:
            for key, entry in other._entries.items():
                if key not in self._entries:
                    self._entries[key] = entry
                    adopted += 1
        return adopted

    def adopt_serialized(self, entries: Mapping[str, Mapping],
                         fresh: bool = True) -> int:
        """Adopt already-keyed JSON entries (a worker shard's content).

        The supervised multiprocess backend compacts per-worker
        ``ResultCache`` shards through this: shard files map entry
        keys straight to measurement JSON.  Existing entries win;
        with ``fresh`` the adopted keys count as this process's own
        when the capped persistent save trims (shard measurements
        were just paid for).  Unparseable entries are skipped — a
        half-written shard from a killed worker must not poison the
        compaction.  Returns the number of entries adopted.
        """
        adopted = 0
        with self._lock:
            for key, spec in entries.items():
                if key in self._entries:
                    continue
                try:
                    entry = Measurement.from_json(spec)
                except Exception:
                    continue
                self._entries[key] = entry
                if fresh:
                    self._fresh.add(key)
                adopted += 1
        return adopted

    # -- persistence ---------------------------------------------------------

    @classmethod
    def default_path(cls) -> Path:
        """Where the cross-process cache persists by default.

        Entries are content-keyed (program fingerprint + machine
        identity), so one shared file serves every program; see
        ``docs/ARCHITECTURE.md`` for the invalidation contract.
        """
        return store.RESULTS.path()

    def to_json(self) -> dict:
        return {key: entry.to_json()
                for key, entry in sorted(self._entries.items())}

    @classmethod
    def from_json(cls, spec: Mapping) -> "ResultCache":
        cache = cls()
        for key, entry in spec.items():
            cache._entries[key] = Measurement.from_json(entry)
        return cache

    def save(self, path):
        store.write_json_atomic(path, self.to_json())

    @classmethod
    def load(cls, path) -> "ResultCache":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    def load_persistent(self, path=None, quiet: bool = False) -> int:
        """Merge the on-disk cache into this one (0 when absent/bad).

        A missing file is treated as empty.  A truncated, garbage, or
        schema-drifted file is *quarantined* (renamed aside with a
        warning) and treated as empty — persistence is on by default,
        so a corrupt cache must never take ``explore`` down, and the
        end-of-sweep save rebuilds a clean file.
        """
        path = Path(path) if path is not None else self.default_path()
        on_disk = store.read_json_guarded(path, quiet=quiet,
                                          parse=ResultCache.from_json)
        return self.merge(on_disk) if on_disk is not None else 0

    def save_persistent(self, path=None) -> bool:
        """Merge-and-write this cache to disk; False when unwritable.

        Re-reads the file first and replaces it atomically, so a
        reader never sees a torn file.  The read-merge-write cycle is
        serialized against other processes with an advisory
        :class:`~repro.faults.store.FileLock` on a sidecar lockfile;
        when locking is unavailable the save degrades to the old
        best-effort race (the later writer's view wins, the loser's
        new entries are simply re-measured next time).  The *shared
        default* file is capped at :data:`MAX_PERSISTED_ENTRIES` —
        this process's entries first, the rest filled
        deterministically by key order; an explicitly named file is
        never capped (the caller owns its growth).  A save that would
        rewrite the file with what it already holds writes nothing.
        """
        capped = path is None
        path = Path(path) if path is not None else self.default_path()
        with self._lock:
            merged = dict(self._entries)
            fresh = set(self._fresh)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        with store.FileLock(path.with_name(path.name + ".lock")):
            on_disk = ResultCache()
            # The sweep already merged (and possibly warned about)
            # this file at load time; this re-read only serves the
            # concurrent-writer merge, so keep it quiet.
            on_disk.load_persistent(path, quiet=True)
            for key, entry in on_disk._entries.items():
                merged.setdefault(key, entry)
            if capped and len(merged) > MAX_PERSISTED_ENTRIES:
                # This process's own measurements survive first; stale
                # disk entries fill the remainder deterministically.
                trimmed = {key: merged[key]
                           for key in
                           sorted(fresh)[:MAX_PERSISTED_ENTRIES]
                           if key in merged}
                for key in sorted(merged):
                    if len(trimmed) >= MAX_PERSISTED_ENTRIES:
                        break
                    trimmed.setdefault(key, merged[key])
                merged = trimmed
            # ``path.exists()``: a missing or just-quarantined file
            # also reads as empty, and must still be (re)written.
            if merged == on_disk._entries and path.exists():
                return True
            snapshot = ResultCache()
            snapshot._entries = merged
            try:
                snapshot.save(path)
            except OSError:
                return False
        return True
