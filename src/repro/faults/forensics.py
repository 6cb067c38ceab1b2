"""Deadlock forensics: structured blame reports for wedged machines.

When the deadlock detector fires, :func:`build_deadlock_report` turns
plain records of the terminal machine state — which units are blocked,
why, and on whom they wait; every channel's occupancy — into a
:class:`DeadlockReport`: the blocked-unit frontier with per-unit
reasons, every channel's occupancy at the wedge, the wait-for cycle
among blocked units (who is waiting on whose words — the Fig. 4
signature is a cycle through an under-provisioned delay buffer).  The
scalar engine reads the records off its units and channels, the
batched planner off its counters: the same state, so the same report.
The report rides on :attr:`repro.errors.DeadlockError.report` and is
surfaced by ``repro run`` and the explorer's failed-point records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class DeadlockReport:
    """Structured blame for one deadlock.

    Attributes:
        cycle: the cycle the detector fired at.
        blocked: ``(unit, reason)`` frontier, machine order.
        waits_on: per blocked unit, the blocked units it waits on.
        wait_cycle: one wait-for cycle among the blocked units
            (``None`` when the frontier is acyclic — e.g. a stall
            chain ending at a unit wedged on something external).
        channel_occupancy: ``(channel, occupancy, capacity)`` for
            every channel at the instant of the wedge.
    """

    cycle: int
    blocked: Tuple[Tuple[str, str], ...]
    waits_on: Tuple[Tuple[str, Tuple[str, ...]], ...]
    wait_cycle: Optional[Tuple[str, ...]]
    channel_occupancy: Tuple[Tuple[str, int, int], ...]

    def explain(self) -> str:
        """One-paragraph human diagnostic (the CLI's exit-2 text)."""
        parts = [f"deadlock at cycle {self.cycle}: "
                 f"{len(self.blocked)} unit(s) blocked."]
        if self.wait_cycle:
            chain = " -> ".join(self.wait_cycle
                                + (self.wait_cycle[0],))
            parts.append(f"Wait-for cycle: {chain}.")
        frontier = "; ".join(f"{name}: {reason}"
                             for name, reason in self.blocked)
        parts.append(f"Frontier: {frontier}.")
        full = [f"{name} {occ}/{cap}"
                for name, occ, cap in self.channel_occupancy
                if cap and occ >= cap]
        if full:
            parts.append(f"Full channels: {', '.join(full)}.")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle,
            "blocked": [[name, reason]
                        for name, reason in self.blocked],
            "waits_on": {name: list(targets)
                         for name, targets in self.waits_on},
            "wait_cycle": (list(self.wait_cycle)
                           if self.wait_cycle else None),
            "channel_occupancy": [[name, occ, cap] for name, occ, cap
                                  in self.channel_occupancy],
        }


def _find_cycle(edges: Dict[str, Tuple[str, ...]]
                ) -> Optional[Tuple[str, ...]]:
    """One cycle of the wait-for graph, found by deterministic DFS
    (nodes and successors visited in sorted order); rotated so the
    lexicographically smallest member leads."""
    visiting: Set[str] = set()
    visited: Set[str] = set()
    path: List[str] = []

    def dfs(node: str) -> Optional[Tuple[str, ...]]:
        visiting.add(node)
        path.append(node)
        for succ in edges.get(node, ()):
            if succ in visiting:
                cycle = tuple(path[path.index(succ):])
                pivot = cycle.index(min(cycle))
                return cycle[pivot:] + cycle[:pivot]
            if succ not in visited:
                found = dfs(succ)
                if found is not None:
                    return found
        visiting.discard(node)
        visited.add(node)
        path.pop()
        return None

    for start in sorted(edges):
        if start not in visited:
            found = dfs(start)
            if found is not None:
                return found
    return None


def build_deadlock_report(cycle: int, blocked, occupancy
                          ) -> DeadlockReport:
    """The blame report of a deadlock on ``cycle``: ``blocked`` holds
    ``(unit, reason, names of the units it waits on)`` for every unit
    not done, in machine order; ``occupancy`` ``(channel, words,
    capacity)`` for every channel."""
    blocked_names = {name for name, _reason, _waits in blocked}
    # Wait-for edges are unioned over same-named units (a sink named
    # after its producing stencil is common), and self-edges — pure
    # name-collision artifacts, since no unit waits on itself — are
    # dropped so they cannot mask the real cycle.
    waits: Dict[str, set] = {}
    for name, _reason, targets in blocked:
        waits.setdefault(name, set()).update(targets)
    edges: Dict[str, Tuple[str, ...]] = {
        name: tuple(sorted((targets & blocked_names) - {name}))
        for name, targets in sorted(waits.items())}
    return DeadlockReport(
        cycle=cycle,
        blocked=tuple((name, reason) for name, reason, _ in blocked),
        waits_on=tuple(sorted(edges.items())),
        wait_cycle=_find_cycle(edges),
        channel_occupancy=tuple(sorted(occupancy)),
    )
