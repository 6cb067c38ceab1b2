"""Resilience: deadlock forensics and the cache root's on-disk safety.

Two pieces:

* :mod:`~repro.faults.forensics` — structured :class:`DeadlockReport`
  blame attached to every :class:`~repro.errors.DeadlockError`;
* :mod:`~repro.faults.store` — the cache root's layout (one kind per
  file family), quarantine-and-rebuild, and cross-process locking.

See ``docs/RESILIENCE.md`` for the failure semantics.
"""

from .forensics import DeadlockReport, build_deadlock_report
from .store import FileLock, quarantine_file, read_json_guarded

__all__ = [
    "DeadlockReport",
    "FileLock",
    "build_deadlock_report",
    "quarantine_file",
    "read_json_guarded",
]
