"""The always-warm frontier index behind ``repro serve``.

Every persisted exploration report in the report store is folded into
one in-memory map keyed by *(lowered-program family hash, shape,
hardware descriptor)*.  A warm query is a single dict probe:
catalog-name requests resolve through an alias table filled at load
time, and every slow resolution (catalog build + content hash — never
a lowering, never a simulation) is memoized, so the steady state
answers in microseconds.

The index also writes the two serve kinds of the store
(:mod:`repro.faults.store`): a snapshot of what is indexed (inventory
for ``cache stats`` and post-mortems) and an append-only log of every
query the server answered.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from ..explore.cache import program_fingerprint
from ..explore.report import (
    ExplorationReport,
    REPORT_SCHEMA_VERSION,
    iter_stored_reports,
)
from ..faults.store import (
    QUERY_LOG,
    SERVE_INDEX,
    read_json_guarded,
    write_json_atomic,
)


def snapshot_path() -> Path:
    return SERVE_INDEX.path()


def query_log_path() -> Path:
    return QUERY_LOG.path()


#: The index key: (family hash, shape, hardware descriptor).
IndexKey = Tuple[str, Tuple[int, ...], str]


@dataclass(frozen=True)
class FrontEntry:
    """One cached Pareto front: the answer to one (program, shape,
    hardware) triple.

    ``best`` and ``pareto`` hold
    :class:`~repro.explore.report.ExplorationEntry` JSON records — the
    same models the report writer emits, embedded verbatim in serve
    responses.
    """

    family_hash: str
    program: str
    shape: Tuple[int, ...]
    platform: str
    best: dict
    pareto: Tuple[dict, ...]
    strategy: str
    seed: int
    total_points: int
    simulated_points: int
    report_path: Optional[str] = None
    updated: float = 0.0

    @property
    def key(self) -> IndexKey:
        return (self.family_hash, self.shape, self.platform)

    def meta(self) -> dict:
        """Provenance block serve responses carry as ``source``."""
        return {
            "program": self.program,
            "shape": list(self.shape),
            "platform": self.platform,
            "family_hash": self.family_hash,
            "strategy": self.strategy,
            "seed": self.seed,
            "total_points": self.total_points,
            "simulated_points": self.simulated_points,
            "report_path": self.report_path,
            "updated": self.updated,
        }

    def summary(self) -> dict:
        """Compact record for the snapshot file."""
        out = self.meta()
        out["best_label"] = self.best.get("point", {})
        out["best_cycles"] = self.best.get("simulated_cycles")
        out["pareto_size"] = len(self.pareto)
        return out


@dataclass
class WarmLoadStats:
    """What :meth:`FrontierIndex.warm_load` found in the store."""

    reports_loaded: int = 0
    reports_upgraded: int = 0
    reports_skipped: int = 0
    result_cache_entries: int = 0

    def to_json(self) -> dict:
        return {"reports_loaded": self.reports_loaded,
                "reports_upgraded": self.reports_upgraded,
                "reports_skipped": self.reports_skipped,
                "result_cache_entries": self.result_cache_entries}


class FrontierIndex:
    """Thread-safe in-memory map of cached Pareto fronts.

    Lookups never lower or simulate: a hit is a dict probe; a slow
    first-time resolution builds the program object and content-hashes
    it (pure string work), then memoizes the request so the next
    identical query is a probe again.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._fronts: Dict[IndexKey, FrontEntry] = {}
        #: (program name, shape, platform) -> IndexKey, filled from
        #: report program names at insert time.
        self._aliases: Dict[Tuple[str, Tuple[int, ...], str],
                            IndexKey] = {}
        #: Raw-request memo: (request id, shape-or-None, platform) ->
        #: IndexKey, filled by slow resolutions.
        self._resolved: Dict[Tuple, IndexKey] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._fronts)

    # -- building ------------------------------------------------------------

    @classmethod
    def warm_load(cls, upgrade_in_place: bool = True
                  ) -> Tuple["FrontierIndex", WarmLoadStats]:
        """Fold every stored report into a fresh index.

        Reports from PR 3–8 era schemas are upgraded (and rewritten in
        place when the store is writable); reports whose family hash
        predates the stamp are recovered by re-fingerprinting the
        catalog program they name.  A file that does not parse as a
        report is quarantined and skipped, never fatal — a corrupt
        store must not take the service down.
        """
        index = cls()
        stats = WarmLoadStats()
        for path in iter_stored_reports():
            loaded = read_json_guarded(path, parse=_parse_stored)
            if loaded is None:
                stats.reports_skipped += 1
                continue
            report, upgraded = loaded
            report, recovered = _recover_family_hash(report)
            if (upgraded or recovered) and upgrade_in_place:
                # The store converges on one schema instead of
                # re-upgrading at every start.
                try:
                    write_json_atomic(path, report.to_json())
                except OSError:
                    pass  # read-only stores still serve, un-upgraded
            if index.insert_report(report, report_path=str(path)) \
                    is None:
                stats.reports_skipped += 1
                continue
            stats.reports_loaded += 1
            if upgraded or recovered:
                stats.reports_upgraded += 1
        return index, stats

    def insert_report(self, report: ExplorationReport,
                      report_path: Optional[str] = None
                      ) -> Optional[IndexKey]:
        """Index one report's Pareto front; ``None`` when it has
        nothing servable (no simulated entries or no identity)."""
        best = report.best
        if best is None or report.family_hash is None:
            return None
        entry = FrontEntry(
            family_hash=report.family_hash,
            program=report.program,
            shape=tuple(report.shape),
            platform=report.platform,
            best=best.to_json(),
            pareto=tuple(e.to_json() for e in report.pareto_frontier),
            strategy=report.strategy,
            seed=report.seed,
            total_points=report.total_points,
            simulated_points=report.simulated_points,
            report_path=report_path,
            updated=time.time(),
        )
        with self._lock:
            self._fronts[entry.key] = entry
            self._aliases[(report.program, entry.shape,
                           entry.platform)] = entry.key
        return entry.key

    # -- lookups -------------------------------------------------------------

    def get(self, key: IndexKey) -> Optional[FrontEntry]:
        with self._lock:
            return self._fronts.get(key)

    def locate(self, program: Union[str, Mapping],
               shape: Optional[Tuple[int, ...]],
               platform_name: str
               ) -> Tuple[Optional[FrontEntry], Optional[IndexKey]]:
        """Answer one query: ``(front, key)``.

        ``front`` is ``None`` on a miss; ``key`` is ``None`` only when
        the program itself cannot be resolved (the caller maps that to
        a 400 rather than enqueuing a sweep that can never run).  The
        warm path is one or two dict probes under the lock; the cold
        path resolves the program (catalog or inline JSON — no
        lowering) and memoizes the request.
        """
        request = self._request_key(program, shape, platform_name)
        with self._lock:
            key = self._resolved.get(request) if request is not None \
                else None
            if key is None and isinstance(program, str):
                key = self._aliases.get(
                    (program, shape, platform_name)) \
                    if shape is not None else None
            if key is not None:
                entry = self._fronts.get(key)
                if entry is not None:
                    self.hits += 1
                    return entry, key
        # Slow path: resolve the program to its family identity.
        from .. import api
        resolved = api.resolve_program(program, shape=shape)
        key = (program_fingerprint(resolved),
               tuple(resolved.shape), platform_name)
        with self._lock:
            if request is not None:
                self._resolved[request] = key
            entry = self._fronts.get(key)
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
            return entry, key

    @staticmethod
    def _request_key(program, shape, platform_name):
        """Hashable memo key for a raw request (``None``: unmemoable)."""
        if isinstance(program, str):
            return (program, shape, platform_name)
        try:
            return (json.dumps(program, sort_keys=True), shape,
                    platform_name)
        except (TypeError, ValueError):
            return None

    # -- the snapshot artifact -----------------------------------------------

    def snapshot_json(self) -> dict:
        with self._lock:
            entries = [self._fronts[key].summary()
                       for key in sorted(self._fronts)]
            hits, misses = self.hits, self.misses
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "generated": time.time(),
            "entries": entries,
            "lookups": {"hits": hits, "misses": misses},
        }

    def save_snapshot(self) -> Optional[Path]:
        """Write the inventory snapshot; ``None`` when unwritable."""
        path = snapshot_path()
        try:
            write_json_atomic(path, self.snapshot_json())
        except OSError:
            return None
        return path


class QueryLog:
    """Append-only JSONL log of every query the server answered.

    Best-effort by design: an unwritable log never fails a request.
    ``repro cache stats`` surfaces it; ``repro cache prune`` removes
    it.
    """

    def __init__(self, enabled: bool = True):
        self.path = query_log_path()
        self.enabled = enabled
        self._lock = threading.Lock()
        self.dropped = 0

    def record(self, endpoint: str, outcome: str, *,
               query: Optional[str] = None,
               job_id: Optional[str] = None,
               status: Optional[int] = None,
               lookup_seconds: Optional[float] = None) -> None:
        if not self.enabled:
            return
        line = {"ts": time.time(), "endpoint": endpoint,
                "outcome": outcome}
        if query is not None:
            line["query"] = query
        if job_id is not None:
            line["job"] = job_id
        if status is not None:
            line["status"] = status
        if lookup_seconds is not None:
            line["lookup_seconds"] = lookup_seconds
        try:
            with self._lock:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a") as handle:
                    handle.write(json.dumps(line) + "\n")
        except OSError:
            self.dropped += 1


def _parse_stored(spec: Mapping) -> Tuple[ExplorationReport, bool]:
    """A stored report and whether it predates the current schema."""
    stale = int(spec.get("schema_version", 1)) < REPORT_SCHEMA_VERSION
    return ExplorationReport.from_json(spec), stale


def _recover_family_hash(report: ExplorationReport
                         ) -> Tuple[ExplorationReport, bool]:
    """Fill a missing family hash by re-fingerprinting the program.

    PR 3–8 era reports predate the stamp but name catalog programs;
    rebuilding the program at the report's shape and content-hashing
    it (no lowering) recovers the index identity.  Unrecoverable
    reports pass through unchanged and simply stay unindexed.
    """
    if report.family_hash is not None:
        return report, False
    try:
        from ..programs import build
        program = build(report.program).with_shape(report.shape)
        family_hash = program_fingerprint(program)
    except Exception:
        return report, False
    return dataclasses.replace(report, family_hash=family_hash), True
