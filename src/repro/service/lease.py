"""Leases over exploration jobs, with crash-loop accounting.

The supervision idiom of cluster schedulers, scaled down to one
machine: work is handed to a worker as a *lease* — one family's
outstanding jobs, one per machine, with a deadline that heartbeats
push forward.  A worker that stops
heartbeating, blows its deadline, or plain dies forfeits the lease;
unfinished jobs return to the queue and the job the worker was
chewing on when it died is charged one *death*.  A job that kills its
worker :attr:`~Job.deaths` times (two by default) is quarantined as
*poisoned* instead of being retried forever — crash-loop protection,
so one pathological point cannot burn the whole restart budget.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Job:
    """One unit of leased work: simulate one distinct machine.

    ``prediction`` is the explorer's analytic verdict (it carries the
    point, placement, and resolved link rates the worker needs);
    ``entry_key`` is the result cache key the measurement lands
    under, precomputed by the supervisor so workers never re-derive
    cache identities.  ``deaths`` counts workers this job has killed.
    """

    job_id: int
    prediction: object
    entry_key: str
    deaths: int = 0


@dataclass
class Lease:
    """One family's jobs granted to one worker until ``deadline``."""

    lease_id: int
    worker_id: int
    jobs: Dict[int, Job]
    deadline: float
    granted: float
    #: Job the worker last reported starting (death attribution).
    current_job_id: Optional[int] = None
    #: When the current job started (per-point wall budget).
    current_started: Optional[float] = None
    done: set = field(default_factory=set)

    @property
    def outstanding(self) -> List[Job]:
        return [job for job_id, job in sorted(self.jobs.items())
                if job_id not in self.done]

    def note_started(self, job_id: int, now: Optional[float] = None):
        if job_id in self.jobs:
            self.current_job_id = job_id
            self.current_started = now if now is not None \
                else time.monotonic()

    def note_resolved(self, job_id: int):
        if job_id in self.jobs:
            self.done.add(job_id)
            if self.current_job_id == job_id:
                self.current_job_id = None
                self.current_started = None

    def renew(self, ttl: float, now: Optional[float] = None):
        now = now if now is not None else time.monotonic()
        self.deadline = now + ttl

    def expired(self, now: Optional[float] = None) -> bool:
        now = now if now is not None else time.monotonic()
        return now > self.deadline

    def current_overdue(self, budget: Optional[float],
                        now: Optional[float] = None) -> bool:
        """Has the in-progress job blown the per-point wall budget?"""
        if budget is None or self.current_started is None:
            return False
        now = now if now is not None else time.monotonic()
        return now - self.current_started > budget


class LeaseTable:
    """Grant/renew/forfeit bookkeeping for all live leases."""

    def __init__(self, ttl: float, max_point_deaths: int = 2):
        self.ttl = ttl
        self.max_point_deaths = max_point_deaths
        self._leases: Dict[int, Lease] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self._leases)

    def grant(self, worker_id: int, jobs: Sequence[Job],
              now: Optional[float] = None) -> Lease:
        now = now if now is not None else time.monotonic()
        lease = Lease(lease_id=next(self._ids),
                      worker_id=worker_id,
                      jobs={job.job_id: job for job in jobs},
                      deadline=now + self.ttl,
                      granted=now)
        self._leases[lease.lease_id] = lease
        return lease

    def get(self, lease_id: int) -> Optional[Lease]:
        return self._leases.get(lease_id)

    def release(self, lease_id: int) -> Optional[Lease]:
        return self._leases.pop(lease_id, None)

    def forfeit(self, lease_id: int
                ) -> Tuple[List[Job], Optional[Job], List[Job]]:
        """Take back a dead worker's lease.

        Returns ``(requeue, culprit, poisoned)``: jobs to put back on
        the queue, the in-progress job charged with the death
        (``None`` when the worker was between jobs), and jobs that
        just crossed the death threshold and must be quarantined
        instead of requeued.  The culprit, when returned, has already
        been charged; it appears in exactly one of the other two
        lists.
        """
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return [], None, []
        requeue: List[Job] = []
        poisoned: List[Job] = []
        culprit = None
        for job in lease.outstanding:
            if job.job_id == lease.current_job_id:
                culprit = job
                job.deaths += 1
                if job.deaths >= self.max_point_deaths:
                    poisoned.append(job)
                else:
                    requeue.append(job)
            else:
                requeue.append(job)
        return requeue, culprit, poisoned
