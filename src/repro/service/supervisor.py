"""The supervisor: leased, heartbeat-monitored multiprocess sweeps.

``explore(..., backend="process")`` lands here.  A :class:`WorkerPool`
owns the *spawn*-context worker processes (:mod:`repro.service.worker`)
— spawn, liveness, reaping and shutdown — and keeps clean ones
resident between sweeps, so an owner that runs many sweeps (``repro
serve``) pays for spawn and import once.  Each sweep's
:class:`Supervisor` borrows workers from a pool and executes the
explorer's families: one job per machine, one lease per family's
outstanding machines.  What a sweep measures — deduplication, the
cache probe, fan-out to points, checkpoints — is the explorer's; each
resolved job goes back through its ``settle``.  The control loop:

* drains worker pipes — results, failures, heartbeats — dropping any
  message tagged with another sweep's id;
* reaps workers whose process died, whose heartbeat lapsed, or whose
  lease expired, SIGKILLing stragglers;
* recovers already-durable measurements from a dead worker's shard
  before re-enqueueing the rest of its lease;
* charges the in-progress job one *death* per crash and quarantines
  it as **poisoned** once it crosses the crash-loop threshold
  (default: two dead workers), instead of retrying forever;
* respawns workers up to a restart budget, and enforces the per-point
  timeout by killing the worker — the only way a sweep can, so a
  sweep with a budget always runs here;
* compacts per-worker result shards into the shared cache at the
  end, returns clean workers to the pool, and removes the run
  directory on clean completion.

Every transition is journaled (:mod:`repro.service.journal`).  If
worker processes cannot be spawned at all, :class:`ServiceUnavailable`
propagates; without a per-point budget the explorer then runs the
families left unsettled in process, serially, with a warning.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import ServiceUnavailable
from ..explore.cache import Measurement, ResultCache
from ..explore.report import PointFailure
from ..faults.store import RUN_DIRS, read_json_guarded
from ..obs import journal_spans, metrics, spans, write_chrome_trace
from .journal import JOURNAL_NAME, JobJournal, new_run_dir
from .lease import Job, LeaseTable
from .worker import worker_main

#: Environment knob: keep the run directory (journal, shards,
#: pidfiles) after a clean completion, for inspection and the CI
#: chaos check.
KEEP_RUNDIR_ENV = "REPRO_SERVICE_KEEP_RUNDIR"

#: Worker processes a sweep uses when neither its config nor the
#: explorer's ``workers`` sets a count.
DEFAULT_WORKERS = min(4, os.cpu_count() or 1)

#: Seconds a lease stays valid without a heartbeat renewing it.
LEASE_TTL = 60.0

#: Silence after which a worker is presumed wedged and reaped (covers
#: spawn import time, so comfortably above a cold interpreter start).
HEARTBEAT_TIMEOUT = 15.0

#: A run's total respawn budget, per worker it targets plus one:
#: ``2 * workers + 2``.
RESTARTS_PER_WORKER = 2


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the supervised multiprocess backend.

    Attributes:
        workers: most worker processes a sweep uses; it uses no more
            than it has families (``None``: the explorer's
            ``workers``, else :data:`DEFAULT_WORKERS` — see
            :meth:`sized`).
        heartbeat_interval: worker pulse period.
        max_point_deaths: worker deaths a single point may cause
            before it is quarantined as poisoned.
        spawn_attempts: consecutive spawn failures tolerated before
            the service declares itself unavailable.
        run_root: where run directories live (``None``: the store's
            run-dir kind under the cache root).
        keep_run_dir: keep the run directory after clean completion
            (``None``: honour ``REPRO_SERVICE_KEEP_RUNDIR``).
        poll: control-loop wait granularity, seconds.
        join_timeout: grace period for worker shutdown before
            SIGKILL.
        source: who requested the run (``"explore"`` for direct
            sweeps, ``"serve"`` for cache-miss jobs from the query
            service); journaled in ``run_started`` so run dirs can
            be attributed during post-mortems.
    """

    workers: Optional[int] = None
    heartbeat_interval: float = 0.25
    max_point_deaths: int = 2
    spawn_attempts: int = 3
    run_root: Optional[Path] = None
    keep_run_dir: Optional[bool] = None
    poll: float = 0.05
    join_timeout: float = 5.0
    source: str = "explore"

    def sized(self, workers: Optional[int] = None) -> "ServiceConfig":
        """This config with its worker count resolved: its own, else
        ``workers``, else :data:`DEFAULT_WORKERS`."""
        return replace(self,
                       workers=self.workers or workers or DEFAULT_WORKERS)

    def resolved_run_root(self) -> Path:
        if self.run_root is not None:
            return Path(self.run_root)
        return RUN_DIRS.dir()

    def resolved_keep_run_dir(self) -> bool:
        if self.keep_run_dir is not None:
            return self.keep_run_dir
        return bool(os.environ.get(KEEP_RUNDIR_ENV))


class _WorkerHandle:
    """One worker process, as its pool and its current sweep see it."""

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.lease = None
        self.last_beat = time.monotonic()
        self.shard_path: Optional[Path] = None
        self.pidfile: Optional[Path] = None


class WorkerPool:
    """Spawned, pre-imported worker processes that outlive a sweep.

    The pool owns spawn, liveness, reaping and shutdown.  A
    :class:`Supervisor` checks workers out for one sweep and checks
    the clean ones back in; a pool serves one sweep at a time.
    Workers are spawned lazily, by the first sweep that needs them,
    and are silent while idle.  :meth:`close` retires idle workers and
    kills busy ones without respawning them: a sweep still running on
    the pool journals its remaining points as failed and aborts with
    :class:`ServiceUnavailable`, so no front it cut short is stored.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.ctx = multiprocessing.get_context("spawn")
        self.closed = False
        self._lock = threading.Lock()
        self._idle: List[_WorkerHandle] = []
        self._busy: Dict[int, _WorkerHandle] = {}
        self._worker_ids = itertools.count(1)
        #: Tags every message of one sweep (see :class:`Supervisor`).
        self.sweep_ids = itertools.count(1)

    def spawn(self) -> _WorkerHandle:
        """Start one worker (it imports in the background), lent out."""
        worker_id = next(self._worker_ids)
        ours, theirs = self.ctx.Pipe(duplex=True)
        process = self.ctx.Process(
            target=worker_main,
            args=(theirs, worker_id,
                  {"heartbeat_interval": self.config.heartbeat_interval}),
            name=f"repro-explore-worker-{worker_id}", daemon=True)
        process.start()
        theirs.close()
        handle = _WorkerHandle(worker_id, process, ours)
        with self._lock:
            if not self.closed:
                self._busy[worker_id] = handle
                metrics.counter("service.workers_spawned").inc()
                self._note_live()
                return handle
        self.kill(handle)
        raise ServiceUnavailable("the worker pool is closed")

    def checkout(self, count: int) -> List[_WorkerHandle]:
        """Lend up to ``count`` idle workers, dropping any found dead."""
        with self._lock:
            dead = [h for h in self._idle if h.process.exitcode is not None]
            live = [h for h in self._idle if h.process.exitcode is None]
            lent, self._idle = live[:count], live[count:]
            self._busy.update((handle.worker_id, handle) for handle in lent)
        for handle in dead:
            metrics.counter("service.workers_dead",
                            reason="dead at checkout").inc()
            self.kill(handle)
        return lent

    def checkin(self, handle: _WorkerHandle):
        """Take a worker back after a clean sweep; it idles from now."""
        with self._lock:
            self._busy.pop(handle.worker_id, None)
            if not self.closed:
                self._idle.append(handle)
                return
        self.retire([handle])

    def kill(self, handle: _WorkerHandle):
        """SIGKILL, reap and forget one worker."""
        with contextlib.suppress(OSError, ValueError, AttributeError):
            handle.process.kill()
        handle.process.join(self.config.join_timeout)
        with contextlib.suppress(OSError):
            handle.conn.close()
        with self._lock:
            self._busy.pop(handle.worker_id, None)
            self._note_live()

    def retire(self, handles: Sequence[_WorkerHandle]):
        """Shut workers down in order: ask, wait, then SIGKILL."""
        for handle in handles:
            with contextlib.suppress(OSError, ValueError):
                handle.conn.send({"type": "shutdown"})
        deadline = time.monotonic() + self.config.join_timeout
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            self.kill(handle)  # a no-op signal once the worker exited

    def close(self):
        """Retire idle workers, kill busy ones, and never spawn again.

        A busy worker's sweep reaps it: its supervisor sees the pool
        closed, fails the points it has not measured, and aborts."""
        with self._lock:
            self.closed = True
            idle, self._idle = self._idle, []
            busy = list(self._busy.values())
        for handle in busy:
            with contextlib.suppress(OSError, ValueError, AttributeError):
                handle.process.kill()
        self.retire(idle)

    def _note_live(self):
        metrics.gauge("service.workers_live").set(
            len(self._idle) + len(self._busy))


def _unlink(path: Optional[Path]):
    if path is not None:
        with contextlib.suppress(OSError):
            path.unlink()


class Supervisor:
    """One supervised sweep over the explorer's families, on a private
    pool (``config`` a :class:`ServiceConfig`, closed when the sweep
    ends) or a borrowed live :class:`WorkerPool`.

    ``families`` is the explorer's grouping of the machines to measure
    (each family a list of machines, each machine the points that build
    it).  Every machine becomes one job, queued family by family; a
    lease is the run of queued jobs of the front job's family, measured
    by one :func:`~repro.explore.explorer.measure` call.  Each resolved
    job is handed to ``settle(machine, measurement_or_failure)``.
    ``cache`` only receives the compacted worker shards.
    """

    def __init__(self, program, platform, families: Sequence[Sequence],
                 settle: Callable, inputs, engine_mode: str,
                 resolved_engine: str, cache: ResultCache,
                 config: Union[ServiceConfig, WorkerPool],
                 deadlock_window: Optional[int] = None,
                 point_timeout: Optional[float] = None,
                 retries: int = 1, retry_backoff: float = 0.25):
        self.program = program
        self.platform = platform
        self.settle = settle
        self.inputs = inputs
        self.engine_mode = engine_mode
        self.resolved_engine = resolved_engine
        self.cache = cache
        self._owns_pool = not isinstance(config, WorkerPool)
        self.pool = WorkerPool(config) if self._owns_pool else config
        self.cfg = self.pool.config
        self.deadlock_window = deadlock_window
        self.point_timeout = point_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff

        self.sweep_id: Optional[int] = None
        self._family_count = len(families)
        self._queue: deque = deque()
        self._machines: Dict[int, Sequence] = {}
        self._jobs_by_id: Dict[int, Job] = {}
        for machine in (m for family in families for m in family):
            first = machine[0]
            job = Job(job_id=len(self._jobs_by_id) + 1, prediction=first,
                      entry_key=ResultCache.entry_key(
                          first.family_hash,
                          (resolved_engine,) + first.simulation_key))
            self._jobs_by_id[job.job_id] = job
            self._machines[job.job_id] = machine
            self._queue.append(job)
        self._unresolved = set(self._jobs_by_id)
        self._workers: Dict[int, _WorkerHandle] = {}
        self._leases = LeaseTable(
            ttl=LEASE_TTL, max_point_deaths=self.cfg.max_point_deaths)
        self._restarts_used = 0
        self._spawn_failures = 0
        self._run_dir: Optional[Path] = None
        self._journal: Optional[JobJournal] = None

    # -- public entry ---------------------------------------------------------

    def run(self):
        """Drain the queue: every machine is settled exactly once,
        measured or failed (deadlocked, errored, timed out, poisoned,
        or out of restart budget).  Raises :class:`ServiceUnavailable`
        when workers cannot be spawned or the pool is closed; the
        machines settled by then stay settled.
        """
        if not self._queue:
            return

        self.sweep_id = next(self.pool.sweep_ids)
        self._run_dir = new_run_dir(self.cfg.resolved_run_root())
        self._journal = JobJournal(self._run_dir / JOURNAL_NAME)
        self._journal.append(
            "run_started", program=self.program.name,
            engine=self.resolved_engine, jobs=len(self._queue),
            workers=self._target_workers(), pid=os.getpid(),
            source=self.cfg.source, sweep=self.sweep_id)
        for job in self._queue:
            self._journal.append("job_enqueued", job=job.job_id,
                                 point=job.prediction.point.label(),
                                 entry_key=job.entry_key)

        clean = False
        try:
            with spans.span("service.spawn",
                            workers=self._target_workers()):
                self._checkout()
            with spans.span("service.drain",
                            jobs=len(self._unresolved)):
                # A worker goes back to the pool only with no lease
                # outstanding, so a clean end also waits for the
                # last ``lease_done`` (it trails the last result).
                while self._unresolved or any(
                        h.lease for h in self._workers.values()):
                    self._pump()
            self._journal.append("run_completed")
            clean = True
        except BaseException:
            if self._journal is not None:
                self._journal.append("run_aborted")
            raise
        finally:
            self._teardown(clean)

    # -- setup ----------------------------------------------------------------

    def _target_workers(self) -> int:
        """One worker per family, at most the configured count: a
        family is one lease at a time."""
        return max(1, min(self.cfg.workers or 1, self._family_count))

    def _checkout(self):
        """Borrow resident workers, spawn the rest (outside the restart
        budget), then start the sweep on each: a ``sweep`` message
        larger than the pipe buffer blocks until its worker has
        imported, and fresh workers should import side by side."""
        target = self._target_workers()
        for handle in self.pool.checkout(target):
            self._workers[handle.worker_id] = handle
            self._journal.append("worker_reused",
                                 worker=handle.worker_id,
                                 pid=handle.process.pid)
        while len(self._workers) < target and not self.pool.closed \
                and self._spawn_failures < self.cfg.spawn_attempts:
            self._spawn_worker(start=False)
        for handle in list(self._workers.values()):
            self._start_sweep(handle)

    def _spawn_worker(self, start: bool = True):
        try:
            handle = self.pool.spawn()
        except Exception as exc:
            if self.pool.closed:
                return
            self._spawn_failures += 1
            self._journal.append("worker_spawn_failed",
                                 error=f"{type(exc).__name__}: {exc}")
            if not self._workers and \
                    self._spawn_failures >= self.cfg.spawn_attempts:
                raise ServiceUnavailable(
                    f"could not spawn worker processes "
                    f"({self._spawn_failures} consecutive failures, "
                    f"last: {type(exc).__name__}: {exc})")
            return
        self._spawn_failures = 0
        self._workers[handle.worker_id] = handle
        self._journal.append("worker_spawned", worker=handle.worker_id,
                             pid=handle.process.pid)
        if start:
            self._start_sweep(handle)

    def _start_sweep(self, handle: _WorkerHandle):
        """Send the per-sweep facts, once per (worker, sweep), before
        the worker's first lease; the supervisor writes its pidfile."""
        handle.shard_path = self._run_dir / f"shard-{handle.worker_id}.json"
        handle.pidfile = self._run_dir / f"worker-{handle.worker_id}.pid"
        with contextlib.suppress(OSError):
            handle.pidfile.write_text(str(handle.process.pid))
        handle.lease = None
        handle.last_beat = time.monotonic()
        try:
            handle.conn.send({
                "type": "sweep", "sweep_id": self.sweep_id,
                "program": self.program, "platform": self.platform,
                "inputs": self.inputs, "engine_mode": self.engine_mode,
                "resolved_engine": self.resolved_engine,
                "deadlock_window": self.deadlock_window,
                "retries": self.retries,
                "retry_backoff": self.retry_backoff,
                "shard_path": str(handle.shard_path),
                # A spawned interpreter does not see our enable(): a
                # metrics shard path turns its telemetry on.
                "metrics_path": (str(self._run_dir /
                                     f"metrics-{handle.worker_id}.json")
                                 if metrics.enabled() else None),
            })
        except (OSError, ValueError):
            self._reap(handle, "pipe closed on sweep start")

    # -- the control loop -----------------------------------------------------

    def _pump(self):
        if self.pool.closed:
            # Journal the cut, then abort: a front missing the points
            # a shutdown cut off must not be stored as the answer.
            self._fail_remaining("the worker pool was closed")
            raise ServiceUnavailable("the worker pool was closed "
                                     "mid-sweep")
        # Grant leases before waiting: a resident worker has no
        # import time to hide a full poll behind.
        now = time.monotonic()
        self._check_workers(now)
        self._assign(now)
        if self._unresolved and not self._workers:
            # Everyone is dead and nothing is in flight: either the
            # budget buys a respawn or the rest of the queue fails.
            if self._restarts_used < self._max_restarts():
                self._restarts_used += 1
                self._spawn_worker()
            else:
                self._fail_remaining("worker restart budget "
                                     "exhausted")
        self._drain_messages()

    def _max_restarts(self) -> int:
        return RESTARTS_PER_WORKER * (self._target_workers() + 1)

    def _drain_messages(self):
        conns = {handle.conn: handle
                 for handle in self._workers.values()}
        if not conns:
            time.sleep(self.cfg.poll)
            return
        try:
            ready = connection.wait(list(conns), timeout=self.cfg.poll)
        except OSError:
            return
        for conn in ready:
            handle = conns[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # dead pipe: the exitcode check reaps it
                self._handle_message(handle, message)

    def _handle_message(self, handle: _WorkerHandle, message: dict):
        if message.get("sweep_id") != self.sweep_id:
            # Job ids restart at 1 per sweep: a late message from an
            # earlier sweep must never resolve a job of this one.
            return
        kind = message.get("type")
        now = time.monotonic()
        if kind == "heartbeat":
            metrics.histogram("service.heartbeat_gap_seconds").observe(
                now - handle.last_beat)
            handle.last_beat = now
            if handle.lease is not None:
                handle.lease.renew(LEASE_TTL, now)
            return
        if kind == "job_started":
            if handle.lease is not None:
                handle.lease.note_started(message["job_id"], now)
            handle.last_beat = now
            self._journal.append("job_started",
                                 job=message["job_id"],
                                 worker=handle.worker_id)
            return
        if kind == "result":
            job = self._jobs_by_id.get(message["job_id"])
            if job is None or job.job_id not in self._unresolved:
                return
            measurement = Measurement.from_json(message["measurement"])
            self._resolve_measurement(job, measurement)
            if handle.lease is not None:
                handle.lease.note_resolved(job.job_id)
            handle.last_beat = now
            return
        if kind == "failed":
            job = self._jobs_by_id.get(message["job_id"])
            if job is None or job.job_id not in self._unresolved:
                return
            failure = PointFailure.from_json(message["failure"])
            self._resolve_failure(job, failure, "job_failed")
            if handle.lease is not None:
                handle.lease.note_resolved(job.job_id)
            handle.last_beat = now
            return
        if kind == "lease_done":
            lease = handle.lease
            if lease is not None \
                    and lease.lease_id == message.get("lease_id"):
                # Defensive: anything the worker skipped goes back.
                for job in reversed(lease.outstanding):
                    self._requeue(job)
                self._leases.release(lease.lease_id)
                handle.lease = None
                self._journal.append("lease_released",
                                     lease=message["lease_id"],
                                     worker=handle.worker_id)
                metrics.counter("service.leases_released").inc()
            handle.last_beat = now

    def _resolve_measurement(self, job: Job, measurement: Measurement,
                             recovered: bool = False):
        self._unresolved.discard(job.job_id)
        self._journal.append("job_completed", job=job.job_id,
                             cycles=measurement.simulated_cycles,
                             recovered=recovered)
        metrics.counter("service.jobs_completed").inc()
        if recovered:
            metrics.counter("service.jobs_recovered").inc()
        self.settle(self._machines[job.job_id], measurement)

    def _resolve_failure(self, job: Job, failure: PointFailure,
                         event: str):
        self._unresolved.discard(job.job_id)
        self._journal.append(event, job=job.job_id,
                             kind=failure.kind,
                             message=failure.message,
                             attempts=failure.attempts)
        metrics.counter("service.jobs_failed",
                        kind=failure.kind).inc()
        self.settle(self._machines[job.job_id], failure)

    def _requeue(self, job: Job):
        self._queue.appendleft(job)
        self._journal.append("job_requeued", job=job.job_id,
                             deaths=job.deaths)
        metrics.counter("service.jobs_requeued").inc()

    # -- supervision ----------------------------------------------------------

    def _check_workers(self, now: float):
        for handle in list(self._workers.values()):
            lease = handle.lease
            if handle.process.exitcode is not None:
                self._reap(handle, "worker exited "
                           f"(code {handle.process.exitcode})")
            elif lease is not None and lease.current_overdue(
                    self.point_timeout, now):
                self._reap(handle, "point timeout",
                           timeout_job_id=lease.current_job_id)
            elif now - handle.last_beat > HEARTBEAT_TIMEOUT:
                self._reap(handle, "heartbeat lapsed")
            elif lease is not None and lease.expired(now):
                self._reap(handle, "lease expired")

    def _reap(self, handle: _WorkerHandle, reason: str,
              timeout_job_id: Optional[int] = None):
        """Kill a misbehaving worker and settle its lease."""
        self.pool.kill(handle)
        self._journal.append("worker_dead", worker=handle.worker_id,
                             reason=reason)
        # Coarse label: the parenthesized exit-code suffix is
        # point-specific and must stay out of the label set.
        metrics.counter("service.workers_dead",
                        reason=reason.split(" (")[0]).inc()
        self._workers.pop(handle.worker_id, None)
        _unlink(handle.pidfile)

        lease = handle.lease
        if lease is not None:
            # A measurement the worker sharded but never acked is
            # done work — recover it instead of repeating it.
            shard = read_json_guarded(handle.shard_path, quiet=True) \
                or {}
            for job in lease.outstanding:
                spec = shard.get(job.entry_key)
                if spec is None:
                    continue
                try:
                    measurement = Measurement.from_json(spec)
                except Exception:
                    continue
                self._resolve_measurement(job, measurement,
                                          recovered=True)
                lease.note_resolved(job.job_id)
            if timeout_job_id is not None \
                    and timeout_job_id in self._unresolved:
                job = self._jobs_by_id[timeout_job_id]
                self._resolve_failure(job, PointFailure(
                    kind="timeout",
                    message=f"simulation exceeded the per-point "
                            f"budget of {self.point_timeout:g}s"),
                    "job_failed")
                lease.note_resolved(timeout_job_id)
            requeue, culprit, poisoned = \
                self._leases.forfeit(lease.lease_id)
            metrics.counter("service.leases_forfeited").inc()
            handle.lease = None
            for job in poisoned:
                self._resolve_failure(job, PointFailure(
                    kind="poisoned",
                    message=f"point killed its worker "
                            f"{job.deaths} times (last: {reason}); "
                            f"quarantined as a crash loop",
                    attempts=job.deaths), "job_poisoned")
            for job in reversed(requeue):
                self._requeue(job)

        # Replace the worker while budget remains and work exists.
        if self._unresolved and \
                self._restarts_used < self._max_restarts():
            self._restarts_used += 1
            self._spawn_worker()

    def _assign(self, now: float):
        """Lease each idle worker the run of queued jobs that share the
        front job's family, measured by one ``measure`` call."""
        for handle in list(self._workers.values()):
            if handle.lease is not None or not self._queue:
                continue
            family = self._queue[0].prediction.family_hash
            batch = []
            while self._queue and \
                    self._queue[0].prediction.family_hash == family:
                batch.append(self._queue.popleft())
            lease = self._leases.grant(handle.worker_id, batch, now)
            handle.lease = lease
            metrics.counter("service.leases_granted").inc()
            self._journal.append(
                "lease_granted", lease=lease.lease_id,
                worker=handle.worker_id,
                jobs=[job.job_id for job in batch],
                deadline=lease.deadline)
            try:
                handle.conn.send({
                    "type": "jobs", "sweep_id": self.sweep_id,
                    "lease_id": lease.lease_id,
                    "jobs": [{"job_id": job.job_id,
                              "prediction": job.prediction,
                              "entry_key": job.entry_key}
                             for job in batch]})
            except (OSError, ValueError, BrokenPipeError):
                # Worker died between poll and send; settle it now.
                self._reap(handle, "pipe closed on lease grant")

    def _fail_remaining(self, why: str):
        while self._queue:
            job = self._queue.popleft()
            if job.job_id not in self._unresolved:
                continue
            self._resolve_failure(job, PointFailure(
                kind="error",
                message=f"{why} (after {job.deaths} worker "
                        f"death(s) on this point)",
                attempts=max(1, job.deaths)), "job_failed")
        # No workers, no queue: anything still unresolved (a lease
        # that leaked a job) must also terminate, or the control loop
        # would spin forever on an unreachable point.
        for job_id in sorted(self._unresolved):
            self._resolve_failure(self._jobs_by_id[job_id],
                                  PointFailure(kind="error",
                                               message=why,
                                               attempts=1),
                                  "job_failed")

    # -- teardown -------------------------------------------------------------

    def _teardown(self, clean: bool):
        """Return workers to the pool only from a clean end with no
        lease outstanding; shut every other worker down."""
        retiring = []
        for handle in self._workers.values():
            _unlink(handle.pidfile)
            try:
                if clean and handle.lease is None:
                    handle.conn.send({"type": "sweep_end",
                                      "sweep_id": self.sweep_id})
                    self.pool.checkin(handle)
                    continue
            except (OSError, ValueError):
                pass
            retiring.append(handle)
        self._workers.clear()
        self.pool.retire(retiring)
        if self._owns_pool:
            self.pool.close()
        with spans.span("service.compact"):
            self._compact_shards()
        if self._journal is not None:
            self._journal.close()
        self._export_telemetry()
        if clean and self._run_dir is not None \
                and not self.cfg.resolved_keep_run_dir():
            shutil.rmtree(self._run_dir, ignore_errors=True)

    def _export_telemetry(self):
        """Reconstruct per-worker spans from the journal and drop
        telemetry files into the run directory.

        The journal already records every control-loop transition with
        wall-clock timestamps, so one read at teardown yields a
        ``service.run`` span, one lane per worker, and a span per
        job/lease — no worker-side instrumentation.  When metrics or
        tracing are enabled the run dir additionally gets
        ``metrics.json`` / ``trace.json`` snapshots; they live and die
        with the run dir (``repro cache prune`` rules apply).
        """
        if self._run_dir is None \
                or not (spans.enabled() or metrics.enabled()):
            return
        # Telemetry must never fail the sweep.
        if spans.enabled():
            with contextlib.suppress(Exception):
                spans.tracer().extend(journal_spans(
                    JobJournal.read(self._run_dir / JOURNAL_NAME)))
        if metrics.enabled():
            with contextlib.suppress(OSError):
                metrics.registry().save(self._run_dir / "metrics.json")
        if spans.enabled():
            with contextlib.suppress(OSError):
                write_chrome_trace(self._run_dir / "trace.json",
                                   spans.tracer().records())

    def _compact_shards(self):
        """Fold per-worker shards into the shared result cache.

        This is the "per-worker shards + compaction" half of the
        concurrency story: workers never touch the shared persistent
        file, so there is nothing to lock while the sweep runs; one
        compaction at the end (plus the explorer's ordinary
        save-persistent) publishes everything.
        """
        if self._run_dir is None:
            return
        adopted = 0
        for shard_path in sorted(self._run_dir.glob("shard-*.json")):
            data = read_json_guarded(shard_path, quiet=True)
            if isinstance(data, dict):
                adopted += self.cache.adopt_serialized(data)
        if self._journal is not None and adopted:
            self._journal.append("shards_compacted", adopted=adopted)
            metrics.counter("service.shards_adopted").inc(adopted)
        if metrics.enabled():
            # Fold each worker's registry into ours, so a process-
            # backend sweep reports the same engine/cache totals an
            # in-process sweep would.
            for path in sorted(self._run_dir.glob("metrics-*.json")):
                snap = read_json_guarded(path, quiet=True)
                if isinstance(snap, dict):
                    metrics.registry().merge_snapshot(snap)
