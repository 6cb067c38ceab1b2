"""Supervised multiprocess exploration service (ROADMAP item 1).

Crash-safe *execution* for design-space sweeps, complementing the
crash-safe *state* of the persistent caches: the explorer's families
are leased, one family's outstanding machines at a time, to spawn-based
worker processes that heartbeat over a pipe, and supervised by a
control loop that reaps wedged or dead workers, recovers their
durable partial results, re-enqueues their leases, and quarantines
crash-looping points as *poisoned* instead of retrying them forever.

Four modules, one contract:

* :mod:`~repro.service.journal` — append-only, fsync'd JSONL flight
  recorder per run;
* :mod:`~repro.service.lease`   — lease bookkeeping and crash-loop
  (death-count) accounting;
* :mod:`~repro.service.worker`  — the spawn-entry worker: simulate,
  heartbeat, shard results durably;
* :mod:`~repro.service.supervisor` — the worker pool and the
  per-sweep control loop behind ``explore(..., backend="process")`` /
  ``repro explore --backend process``; ``repro serve`` keeps one pool
  resident across its miss sweeps.

On a fault-free sweep the process backend produces a report
identical to the thread backend's (same entries, cycles, ranks,
Pareto front) — enforced by the test suite.  See
``docs/RESILIENCE.md`` ("Supervision & leases") for the full
semantics.
"""

from .journal import JobJournal, JournalState, find_run_dirs
from .lease import Job, Lease, LeaseTable
from .supervisor import ServiceConfig, Supervisor, WorkerPool
from .worker import POISON_ENV

__all__ = [
    "Job",
    "JobJournal",
    "JournalState",
    "Lease",
    "LeaseTable",
    "POISON_ENV",
    "ServiceConfig",
    "Supervisor",
    "WorkerPool",
    "find_run_dirs",
]
