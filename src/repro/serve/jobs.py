"""Background sweep jobs for frontier-index misses.

A query the index cannot answer becomes a *job*: a bounded
design-space sweep over the requested (program, shape, hardware)
triple, run by :func:`repro.api.explore` on a background thread of
the server's own process.  The HTTP layer returns ``202`` with the job
id; when the sweep lands, its report joins the store and the index,
and the poll endpoint starts returning the measured best
configuration.

Jobs dedupe on the index key: two clients asking for the same triple
share one sweep.  Concurrency is bounded (default: one sweep at a
time) so a burst of novel queries queues instead of starting a sweep
per request.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..obs import metrics
from .index import FrontierIndex, IndexKey, resolve_request

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobRecord:
    """One background sweep and its outcome."""

    job_id: str
    key: IndexKey
    query: str
    state: str = "queued"
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    error: Optional[str] = None
    #: The measured best entry (report-schema JSON) once done.
    best: Optional[dict] = None
    #: The index key's printable form, for clients that want to
    #: correlate with the report store.
    report_key: Optional[str] = None


class JobManager:
    """Dedup, bound, and run miss-triggered sweeps."""

    def __init__(self, index: FrontierIndex, *,
                 max_devices: int = 2,
                 beam_width: int = 4,
                 max_concurrent: int = 1,
                 explore_kwargs: Optional[dict] = None,
                 on_complete=None):
        self.index = index
        self.max_devices = max_devices
        self.beam_width = beam_width
        self.explore_kwargs = dict(explore_kwargs or {})
        self.on_complete = on_complete
        self._sema = threading.BoundedSemaphore(max(1, max_concurrent))
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._active_by_key: Dict[IndexKey, str] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._closed = False

    # -- public API -----------------------------------------------------------

    def enqueue(self, program, shape, platform, key: IndexKey
                ) -> Tuple[JobRecord, bool]:
        """Start (or join) the sweep for ``key``.

        Returns ``(job, created)`` — ``created`` is False when an
        active job for the same triple already exists, so a stampede
        of identical misses funds exactly one sweep.
        """
        with self._lock:
            active = self._active_by_key.get(key)
            if active is not None:
                job = self._jobs[active]
                if job.state in ("queued", "running"):
                    return job, False
            job = JobRecord(job_id=uuid.uuid4().hex[:12], key=key,
                            query=self._query_label(program, shape,
                                                    platform))
            self._jobs[job.job_id] = job
            self._active_by_key[key] = job.job_id
            thread = threading.Thread(
                target=self._run, name=f"repro-serve-job-{job.job_id}",
                args=(job, program, shape, platform), daemon=True)
            self._threads[job.job_id] = thread
        metrics.counter("serve.jobs_enqueued").inc()
        thread.start()
        return job, True

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Join every live job thread (tests and clean shutdown)."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._lock:
            threads = [thread for thread in self._threads.values()
                       if thread.is_alive()]
        for thread in threads:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            if thread.is_alive():
                return False
        return True

    def close(self, wait: float = 0.0) -> bool:
        """Wait up to ``wait`` seconds for running sweeps; queued jobs
        then fail without starting.  A sweep still running is left to
        its daemon thread, which dies with the process.  Returns
        whether every job ended."""
        finished = self.wait_all(wait)
        with self._lock:
            self._closed = True
        return finished

    # -- the sweep ------------------------------------------------------------

    def _run(self, job: JobRecord, program, shape, platform):
        try:
            with self._sema:
                self._sweep(job, program, shape, platform)
        finally:
            with self._lock:
                self._threads.pop(job.job_id, None)

    def _sweep(self, job: JobRecord, program, shape, platform):
        from .. import api
        with self._lock:
            job.state = "running"
            closed = self._closed
        try:
            if closed:
                raise RuntimeError("the server is shutting down")
            resolved = resolve_request(program, shape=shape)
            # explore_kwargs wins field-by-field (tests shrink spaces
            # and budgets through it); persistence stays on by default
            # — a sweep a miss paid for must land in the store.
            kwargs = dict(strategy="greedy", beam_width=self.beam_width,
                          persist=True)
            kwargs.update(self.explore_kwargs)
            kwargs.setdefault("space", self._space_for(resolved, platform))
            report = api.explore(resolved, platform=platform, **kwargs)
        except Exception as exc:
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
                self._active_by_key.pop(job.key, None)
            metrics.counter("serve.jobs_failed").inc()
            return
        path = report.store_path()
        key = self.index.insert_report(
            report, report_path=str(path) if path.is_file() else None)
        with self._lock:
            job.finished = time.time()
            if report.best is None:
                job.state = "failed"
                job.error = ("sweep completed but produced no "
                             "simulated entries")
                metrics.counter("serve.jobs_failed").inc()
            else:
                job.state = "done"
                job.best = report.best.to_json()
                job.report_key = path.name if path is not None \
                    else None
                metrics.counter("serve.jobs_completed").inc()
            self._active_by_key.pop(job.key, None)
        if self.on_complete is not None:
            try:
                self.on_complete(job, key)
            except Exception:
                pass  # snapshot refresh must never kill a job

    def _space_for(self, program, platform):
        """The bounded sweep a miss funds.

        The default space trimmed to the service's device budget: big
        enough to cover the paper's knobs, small enough that a miss
        converges in interactive time.
        """
        from ..explore import ConfigSpace
        return ConfigSpace.default_for(
            program, platform, max_devices=self.max_devices)

    @staticmethod
    def _query_label(program, shape, platform) -> str:
        name = program if isinstance(program, str) \
            else program.get("name", "<inline>") \
            if hasattr(program, "get") else getattr(program, "name",
                                                    "<program>")
        shape_text = "x".join(map(str, shape)) if shape else "-"
        return f"{name}@{shape_text} on {platform.name}" \
            if hasattr(platform, "name") else f"{name}@{shape_text}"
