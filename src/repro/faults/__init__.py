"""Deterministic fault injection and resilience (ROADMAP item 4).

Four pieces, one contract:

* :mod:`~repro.faults.plan` — declarative, seed-reproducible
  :class:`FaultPlan` schedules (link outage/degradation windows, unit
  stall windows) carried on ``SimulatorConfig.fault_plan``;
* :mod:`~repro.faults.runtime` — :class:`FaultRuntime` resolves a plan
  against a built machine and gates links/units cycle by cycle,
  producing the :class:`FaultReport` both engines must agree on;
* :mod:`~repro.faults.forensics` — structured :class:`DeadlockReport`
  blame attached to every :class:`~repro.errors.DeadlockError`;
* :mod:`~repro.faults.store` — the cache root's layout (one kind per
  file family), quarantine-and-rebuild, and cross-process locking.

With no plan configured the layer is inert: simulations are bitwise
identical to a build without it (the bench-regression gate pins this).
See ``docs/RESILIENCE.md`` for the full fault model and failure
semantics.
"""

from .forensics import DeadlockReport, build_deadlock_report
from .plan import (
    FaultPlan,
    LinkFault,
    UnitStall,
    parse_link_fault_spec,
    parse_unit_stall_spec,
    random_fault_plan,
)
from .runtime import FaultReport, FaultRuntime
from .store import FileLock, quarantine_file, read_json_guarded

__all__ = [
    "DeadlockReport",
    "FaultPlan",
    "FaultReport",
    "FaultRuntime",
    "FileLock",
    "LinkFault",
    "UnitStall",
    "build_deadlock_report",
    "parse_link_fault_spec",
    "parse_unit_stall_spec",
    "quarantine_file",
    "random_fault_plan",
    "read_json_guarded",
]
