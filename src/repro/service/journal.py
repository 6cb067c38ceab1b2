"""Durable job journal for supervised exploration runs.

Append-only JSONL: every state transition of a run — jobs enqueued,
leases granted and released, workers spawned and reaped, points
completed, requeued, or poisoned — is one fsync'd line.  The journal
is the run's flight recorder: a crashed or killed supervisor leaves a
readable prefix behind (the trailing line may be torn; replay
tolerates it), and ``repro cache stats`` summarizes leftover run
directories from it.

The journal is *evidence*, not the source of truth for resume — the
content-keyed result cache already is the checkpoint
(docs/RESILIENCE.md).  That keeps the hot path cheap: one line per
job-level event, nothing per heartbeat.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

#: Journal filename inside a run directory.
JOURNAL_NAME = "journal.jsonl"

#: Job states a replay can report.
JOB_PENDING = "pending"
JOB_LEASED = "leased"
JOB_COMPLETED = "completed"
JOB_FAILED = "failed"
JOB_POISONED = "poisoned"


class JobJournal:
    """Append-only, fsync'd JSONL writer for one supervised run.

    Thread-safe: the supervisor appends from its control loop while
    signal handlers may force a final record.  Each record carries a
    monotonically increasing ``seq`` and a wall-clock ``ts`` so
    interleaved runs in one directory tree stay attributable.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0
        # Line-buffered append; every record is one write() of one
        # full line, so a crash tears at most the final record.
        self._handle = open(self.path, "a")

    def append(self, event: str, **fields) -> dict:
        """Durably append one event record and return it."""
        with self._lock:
            self._seq += 1
            record = {"seq": self._seq, "ts": time.time(),
                      "event": event}
            record.update(fields)
            if self._handle.closed:
                return record
            self._handle.write(json.dumps(record, sort_keys=True)
                               + "\n")
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass  # exotic filesystems: stay append-only at least
            return record

    def close(self):
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- replay --------------------------------------------------------------

    @staticmethod
    def read(path) -> List[dict]:
        """Parse a journal file, tolerating a torn trailing line.

        A corrupt line *before* the end (which the one-write-per-line
        append discipline should never produce) is skipped rather
        than fatal — the journal is forensics, and a partial read
        beats no read.
        """
        records = []
        try:
            with open(path) as handle:
                lines = handle.read().splitlines()
        except OSError:
            return records
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    @classmethod
    def replay(cls, path) -> "JournalState":
        """Reconstruct the final per-job state from a journal file."""
        state = JournalState()
        for record in cls.read(path):
            state.apply(record)
        return state


class JournalState:
    """Final state of a run as reconstructed from its journal."""

    def __init__(self):
        self.jobs: Dict[int, str] = {}
        self.events: Dict[str, int] = {}
        self.worker_deaths = 0
        self.requeues = 0
        self.completed_run = False
        self.aborted = False

    def apply(self, record: Mapping):
        event = record.get("event", "?")
        self.events[event] = self.events.get(event, 0) + 1
        job_id = record.get("job")
        if event == "job_enqueued":
            self.jobs[job_id] = JOB_PENDING
        elif event == "lease_granted":
            for leased in record.get("jobs", ()):
                self.jobs[leased] = JOB_LEASED
        elif event == "job_completed":
            self.jobs[job_id] = JOB_COMPLETED
        elif event == "job_failed":
            self.jobs[job_id] = JOB_FAILED
        elif event == "job_poisoned":
            self.jobs[job_id] = JOB_POISONED
        elif event == "job_requeued":
            self.jobs[job_id] = JOB_PENDING
            self.requeues += 1
        elif event == "worker_dead":
            self.worker_deaths += 1
        elif event == "run_completed":
            self.completed_run = True
        elif event == "run_aborted":
            self.aborted = True

    def unresolved(self) -> List[int]:
        """Jobs that never reached a terminal state."""
        return sorted(job_id for job_id, state in self.jobs.items()
                      if state in (JOB_PENDING, JOB_LEASED))

    def summary(self) -> str:
        total = len(self.jobs)
        done = sum(1 for s in self.jobs.values()
                   if s == JOB_COMPLETED)
        outcome = ("completed" if self.completed_run
                   else "aborted" if self.aborted else "interrupted")
        return (f"{outcome}: {done}/{total} jobs completed, "
                f"{self.worker_deaths} worker death(s), "
                f"{self.requeues} requeue(s)")


def find_run_dirs(root) -> Iterator[Path]:
    """Yield run directories (holding a journal) under ``root``."""
    root = Path(root)
    if not root.is_dir():
        return
    for entry in sorted(root.iterdir()):
        if entry.is_dir() and (entry / JOURNAL_NAME).exists():
            yield entry


def run_dir_live(run_dir) -> bool:
    """True when any worker pidfile in ``run_dir`` names a live pid.

    Leftover run dirs normally mean a crashed or killed run (a clean
    run removes its own dir), but ``repro cache prune`` must not
    delete the journal out from under a sweep that is still in flight.
    """
    for pidfile in Path(run_dir).glob("worker-*.pid"):
        try:
            pid = int(pidfile.read_text().strip())
        except (OSError, ValueError):
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue  # dead: the pidfile is leftover
        except OSError:
            return True  # exists but not ours (EPERM): live
        return True
    return False


def new_run_dir(root, tag: Optional[str] = None) -> Path:
    """Create a unique run directory under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    stamp = f"{os.getpid()}-{time.time_ns()}"
    if tag:
        stamp = f"{tag}-{stamp}"
    path = root / f"run-{stamp}"
    path.mkdir()
    return path
