"""Ranked exploration reports with JSON round-tripping.

The report is the explorer's product: every point of the space with its
analytic verdict, the simulated validation of the selected frontier,
per-point model error, a Pareto marking over (cycles, resources), and
the headline best-vs-baseline comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Tuple

from ..errors import ParseError
from ..faults import store as cache_store
from .space import ConfigPoint, ConfigSpace

#: Version stamped into every report JSON (and echoed by the serve
#: layer's responses, which are built from the same entry models).
#: History: version 1 covers every PR 3–8 era report — no
#: ``schema_version`` field, ``lowering_cache_hits``/
#: ``relowered_programs``/failure fields appearing over time; version
#: 2 adds the stamp itself plus the top-level ``family_hash`` (the
#: lowered-program identity the frontier index keys on).  Old reports
#: load through :func:`upgrade_report_json`.
REPORT_SCHEMA_VERSION = 2


def upgrade_report_json(spec: Mapping) -> Tuple[dict, bool]:
    """Normalize report JSON of any supported vintage to the current
    schema.

    Returns ``(upgraded_spec, changed)``.  PR 3–8 era reports carry no
    ``schema_version``; they are treated as version 1 and upgraded by
    filling the fields later PRs introduced (cache provenance counters,
    the failure taxonomy, the ``family_hash``).  A report from a
    *newer* schema than this build understands is rejected rather than
    silently misread.
    """
    version = int(spec.get("schema_version", 1))
    if version > REPORT_SCHEMA_VERSION:
        raise ParseError(
            f"report schema version {version} is newer than this "
            f"build's {REPORT_SCHEMA_VERSION}; upgrade the repro "
            f"package to read it")
    if version == REPORT_SCHEMA_VERSION:
        return dict(spec), False
    out = dict(spec)
    # v1 -> v2: stamp the version, default the provenance counters the
    # PR 5 explorer introduced, and carry an (unknown) family hash.
    out.setdefault("lowering_cache_hits", 0)
    out.setdefault("relowered_programs", 0)
    out.setdefault("family_hash", None)
    out["schema_version"] = REPORT_SCHEMA_VERSION
    return out, True


def report_store_dir() -> Path:
    """Where persisted exploration reports live (the corpus
    ``repro serve`` warm-loads its frontier index from)."""
    return cache_store.REPORTS.dir()


def report_store_key(family_hash: Optional[str], program: str,
                     shape: Tuple[int, ...], platform: str) -> str:
    """Content key of one stored report: the frontier-index identity.

    One file per (lowered-program family, shape, hardware descriptor)
    — a newer sweep over the same triple replaces the older report.
    Reports whose family hash is unknown (upgraded ancient files) fall
    back to the program name so they still land in the store.
    """
    identity = family_hash or f"name:{program}"
    text = json.dumps([identity, list(shape), platform])
    return hashlib.sha1(text.encode()).hexdigest()


def iter_stored_reports() -> Iterator[Path]:
    """Paths of every persisted report, deterministic order."""
    return iter(cache_store.REPORTS.members())


@dataclass(frozen=True)
class PointFailure:
    """Why one frontier point failed to produce a measurement.

    ``kind`` is ``"deadlock"`` (the machine wedged — ``detail``
    carries the structured
    :class:`~repro.faults.forensics.DeadlockReport` as JSON),
    ``"timeout"`` (the per-point wall budget elapsed), ``"error"``
    (the simulation raised), or — process backend only —
    ``"poisoned"`` (the point killed its worker process
    ``attempts`` times and was quarantined as a crash loop instead
    of being retried forever).  ``attempts`` counts tries including
    retries; for poisoned points it counts worker deaths.
    """

    kind: str
    message: str
    attempts: int = 1
    detail: Optional[dict] = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "attempts": self.attempts, "detail": self.detail}

    @classmethod
    def from_json(cls, spec: Mapping) -> "PointFailure":
        return cls(kind=str(spec["kind"]),
                   message=str(spec["message"]),
                   attempts=int(spec.get("attempts", 1)),
                   detail=spec.get("detail"))


@dataclass(frozen=True)
class ExplorationEntry:
    """One configuration point's full record.

    ``rank`` orders simulated entries by measured cycles (1 = best);
    unsimulated entries carry ``rank=None``.  ``model_error`` is the
    signed relative error ``simulated/predicted - 1`` of the Eq. 1
    prediction.  ``pareto`` marks entries not dominated on
    (simulated cycles, worst per-device resource utilization).
    """

    point: ConfigPoint
    feasible: bool
    prune_reason: Optional[str] = None
    devices_used: int = 1
    predicted_cycles: Optional[int] = None
    predicted_runtime_us: Optional[float] = None
    frequency_mhz: Optional[float] = None
    utilization: Optional[float] = None
    network_headroom: Optional[float] = None
    simulated: bool = False
    simulated_cycles: Optional[int] = None
    model_error: Optional[float] = None
    wall_seconds: Optional[float] = None
    cache_hit: bool = False
    engine: Optional[str] = None
    rank: Optional[int] = None
    pareto: bool = False
    baseline: bool = False
    #: The point was selected for simulation but produced no
    #: measurement (deadlock, timeout, or a crashed worker); the
    #: sweep completes with a partial report and a re-run retries it.
    failed: bool = False
    failure: Optional[PointFailure] = None

    def to_json(self) -> dict:
        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "point":
                value = value.to_json()
            elif f.name == "failure" and value is not None:
                value = value.to_json()
            elif value == float("inf"):
                value = "inf"
            record[f.name] = value
        return record

    @classmethod
    def from_json(cls, spec: Mapping) -> "ExplorationEntry":
        kwargs = {}
        for f in fields(cls):
            if f.name not in spec:
                continue  # fields newer than the report: defaults
            value = spec[f.name]
            if f.name == "point":
                value = ConfigPoint.from_json(value)
            elif f.name == "failure":
                value = (PointFailure.from_json(value)
                         if value is not None else None)
            elif value == "inf":
                value = float("inf")
            kwargs[f.name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class ExplorationReport:
    """The ranked outcome of one design-space sweep."""

    program: str
    shape: Tuple[int, ...]
    platform: str
    strategy: str
    seed: int
    space: ConfigSpace
    entries: Tuple[ExplorationEntry, ...]
    wall_seconds: float = 0.0
    cache_hits: int = 0
    #: Buffering analyses served from the artifact cache during the
    #: sweep, and analyses actually (re)built — one per distinct
    #: (lowered program, edge-latency map), so a multi-device axis
    #: legitimately counts more than one per program.  A repeated
    #: identical sweep in one process reports
    #: ``relowered_programs == 0``.
    lowering_cache_hits: int = 0
    relowered_programs: int = 0
    #: Content hash of the swept program *modulo vectorization* (the
    #: measurement cache's family hash).  The serve layer's frontier
    #: index keys on it, so a report answers queries for the same
    #: program under any name or spelling.  ``None`` on reports
    #: upgraded from schema versions that predate the stamp.
    family_hash: Optional[str] = None

    # -- derived views -------------------------------------------------------

    @property
    def total_points(self) -> int:
        return len(self.entries)

    @property
    def feasible_points(self) -> int:
        return sum(1 for e in self.entries if e.feasible)

    @property
    def simulated_points(self) -> int:
        return sum(1 for e in self.entries if e.simulated)

    @property
    def failed_points(self) -> Tuple[ExplorationEntry, ...]:
        """Frontier points that produced no measurement (deadlocks,
        per-point timeouts, crashed workers)."""
        return tuple(e for e in self.entries if e.failed)

    @property
    def pruned_infeasible(self) -> int:
        return sum(1 for e in self.entries if not e.feasible)

    @property
    def pruned_by_model(self) -> int:
        """Feasible points the strategy chose not to simulate."""
        return sum(1 for e in self.entries
                   if e.feasible and not e.simulated)

    @property
    def pruned_points(self) -> int:
        """Every point that was never simulated."""
        return self.total_points - self.simulated_points

    @property
    def prune_fraction(self) -> float:
        if not self.total_points:
            return 0.0
        return self.pruned_points / self.total_points

    @property
    def ranked(self) -> Tuple[ExplorationEntry, ...]:
        """Simulated entries, best (rank 1) first."""
        return tuple(sorted(
            (e for e in self.entries if e.rank is not None),
            key=lambda e: e.rank))

    @property
    def best(self) -> Optional[ExplorationEntry]:
        ranked = self.ranked
        return ranked[0] if ranked else None

    @property
    def baseline_entry(self) -> Optional[ExplorationEntry]:
        for entry in self.entries:
            if entry.baseline:
                return entry
        return None

    @property
    def speedup_over_baseline(self) -> Optional[float]:
        """Baseline cycles / best cycles (>= 1 when tuning helped)."""
        best = self.best
        base = self.baseline_entry
        if best is None or base is None or not base.simulated:
            return None
        if not best.simulated_cycles:
            return None
        return base.simulated_cycles / best.simulated_cycles

    @property
    def pareto_frontier(self) -> Tuple[ExplorationEntry, ...]:
        return tuple(e for e in self.ranked if e.pareto)

    @property
    def worst_model_error(self) -> Optional[float]:
        errors = [abs(e.model_error) for e in self.entries
                  if e.model_error is not None]
        return max(errors) if errors else None

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "program": self.program,
            "shape": list(self.shape),
            "platform": self.platform,
            "strategy": self.strategy,
            "seed": self.seed,
            "family_hash": self.family_hash,
            "space": self.space.to_json(),
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "lowering_cache_hits": self.lowering_cache_hits,
            "relowered_programs": self.relowered_programs,
            "summary": {
                "total_points": self.total_points,
                "feasible_points": self.feasible_points,
                "simulated_points": self.simulated_points,
                "failed_points": len(self.failed_points),
                "pruned_infeasible": self.pruned_infeasible,
                "pruned_by_model": self.pruned_by_model,
                "prune_fraction": self.prune_fraction,
                "worst_model_error": self.worst_model_error,
                "speedup_over_baseline": self.speedup_over_baseline,
                "best": (self.best.to_json()
                         if self.best is not None else None),
            },
            "entries": [e.to_json() for e in self.entries],
        }

    @classmethod
    def from_json(cls, spec: Mapping) -> "ExplorationReport":
        spec, _ = upgrade_report_json(spec)
        return cls(
            program=spec["program"],
            shape=tuple(spec["shape"]),
            platform=spec["platform"],
            strategy=spec["strategy"],
            seed=spec["seed"],
            space=ConfigSpace.from_json(spec["space"]),
            entries=tuple(ExplorationEntry.from_json(e)
                          for e in spec["entries"]),
            wall_seconds=spec["wall_seconds"],
            cache_hits=spec["cache_hits"],
            lowering_cache_hits=spec.get("lowering_cache_hits", 0),
            relowered_programs=spec.get("relowered_programs", 0),
            family_hash=spec.get("family_hash"),
        )

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2)

    @classmethod
    def load(cls, path) -> "ExplorationReport":
        """Read a report of any supported schema vintage."""
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    # -- the report store ----------------------------------------------------

    def store_path(self) -> Path:
        """Where this report persists in the report store."""
        key = report_store_key(self.family_hash, self.program,
                               self.shape, self.platform)
        return cache_store.REPORTS.path(key[:16])

    def store(self) -> Optional[Path]:
        """Persist this report into the store; ``None`` if unwritable.

        The store is what ``repro serve`` warm-loads, so every
        persisted sweep makes the service answer one more (program,
        shape, hardware) triple without re-sweeping.
        """
        path = self.store_path()
        try:
            cache_store.write_json_atomic(path, self.to_json())
        except OSError:
            return None
        return path

    def ranking_signature(self) -> Tuple:
        """Timing-free identity of the sweep's outcome.

        Two runs over the same program and space must produce equal
        signatures (the determinism contract); wall times and cache
        provenance are excluded.
        """
        return tuple(
            (e.point.key(), e.feasible, e.rank, e.simulated,
             e.simulated_cycles, e.predicted_cycles, e.pareto)
            for e in self.entries)

    def summary_lines(self) -> List[str]:
        """Human-readable digest (used by the CLI and the example)."""
        lines = [
            f"explored {self.program} over {self.total_points} "
            f"configurations on {self.platform}",
            f"  analytically infeasible: {self.pruned_infeasible}; "
            f"model-pruned: {self.pruned_by_model}; "
            f"simulated: {self.simulated_points} "
            f"({self.prune_fraction:.0%} of the space never simulated)",
        ]
        failed = self.failed_points
        if failed:
            lines.append(f"  failed points: {len(failed)} "
                         f"(sweep completed with partial results; "
                         f"re-run to retry)")
            for entry in failed:
                failure = entry.failure
                what = (f"{failure.kind}: {failure.message}"
                        if failure is not None else "failed")
                lines.append(f"    {entry.point.label()}: {what}")
        error = self.worst_model_error
        if error is not None:
            lines.append(f"  worst |model error|: {error:.2%}")
        lines.append(
            f"  lowering: {self.relowered_programs} analyses "
            f"(re)built, {self.lowering_cache_hits} artifact-cache "
            f"hits; {self.cache_hits} measurement-cache hits")
        for entry in self.ranked[:5]:
            mark = "*" if entry.pareto else " "
            base = " [baseline]" if entry.baseline else ""
            lines.append(
                f"  {mark}#{entry.rank} {entry.point.label():<12} "
                f"sim {entry.simulated_cycles} cycles "
                f"(predicted {entry.predicted_cycles}, "
                f"err {entry.model_error:+.2%}, "
                f"{entry.devices_used} dev){base}")
        speedup = self.speedup_over_baseline
        if speedup is not None:
            lines.append(f"  best is {speedup:.2f}x the baseline "
                         f"configuration's cycles")
        return lines
