"""Worker-process side of the supervised exploration service.

Spawn-entry module: :func:`worker_main` runs in a fresh interpreter
(``multiprocessing`` *spawn* context — no forked locks, no shared
NumPy state, a hard crash kills only this process) and may serve
many sweeps (:class:`~repro.service.supervisor.WorkerPool`).  The
worker:

* gets the per-sweep facts in one ``sweep`` message, then leases —
  each one family's outstanding machines, one job per machine — and
  tags all it sends with the sweep's id;
* heartbeats from a background thread between ``sweep`` and
  ``sweep_end``, so the supervisor can tell "busy" from "wedged" even
  when NumPy holds the core for seconds, and is silent while idle;
* measures a lease with one :func:`~repro.explore.explorer.measure`
  call, the thread backend's own measurement (one data pass, control
  runs for the rest), so both report identical entries; it announces
  each job before pulling its result, so a death or a timeout is
  charged to that machine;
* writes every measurement to its own per-sweep shard file (atomic,
  fsync'd) before acknowledging it, so the supervisor can recover a
  result whose worker died before reporting it.

Workers ignore SIGINT: an interactive Ctrl-C must reach only the
supervisor, which checkpoints and then tears workers down in order.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading

from ..explore.explorer import measure
from ..explore.report import PointFailure
from ..faults.store import write_json_atomic
from ..obs import metrics

#: Test-only chaos hook: a worker about to simulate a point whose
#: label equals this environment variable SIGKILLs itself instead.
#: Deterministic crash-loop: every attempt dies, so after
#: ``max_point_deaths`` the supervisor must quarantine the point as
#: poisoned.  Used by the test suite and the CI crash-recovery check.
POISON_ENV = "REPRO_SERVICE_POISON"


class _Heartbeat(threading.Thread):
    """Background pulse every interval while :attr:`sweep_id` is set;
    carries the current job so a death is charged to the right point.
    """

    def __init__(self, conn, send_lock, worker_id, interval):
        super().__init__(daemon=True)
        self.conn = conn
        self.send_lock = send_lock
        self.worker_id = worker_id
        self.interval = interval
        self.sweep_id = None
        self.current_job = None
        self._stop = threading.Event()

    def run(self):
        while not self._stop.wait(self.interval):
            sweep_id = self.sweep_id
            if sweep_id is None:
                continue  # idle between sweeps: silent
            try:
                with self.send_lock:
                    self.conn.send({"type": "heartbeat",
                                    "worker": self.worker_id,
                                    "sweep_id": sweep_id,
                                    "job": self.current_job})
            except (OSError, ValueError):
                return  # supervisor is gone; the main loop will exit

    def stop(self):
        self._stop.set()


def worker_main(conn, worker_id: int, payload: dict):
    """Spawn entry point: serve sweeps until told to shut down."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    send_lock = threading.Lock()
    heartbeat = _Heartbeat(conn, send_lock, worker_id,
                           payload["heartbeat_interval"])
    heartbeat.start()
    poison_label = os.environ.get(POISON_ENV) or None
    sweep: dict = {}
    shard: dict = {}

    def send(message: dict):
        message.update(worker=worker_id, sweep_id=sweep["sweep_id"])
        with send_lock:
            conn.send(message)

    def save_metrics():
        # Persisted after every lease, like the result shard; the
        # supervisor merges it at compaction.
        if sweep.get("metrics_path") is not None:
            with contextlib.suppress(OSError):
                metrics.registry().save(sweep["metrics_path"])

    def run_lease(message: dict):
        jobs = message["jobs"]
        results = measure(
            [job["prediction"] for job in jobs], sweep["program"],
            sweep["platform"], sweep["inputs"], sweep["engine_mode"],
            sweep["resolved_engine"], sweep["deadlock_window"],
            sweep["retries"], sweep["retry_backoff"])
        for job in jobs:
            heartbeat.current_job = job["job_id"]
            send({"type": "job_started", "job_id": job["job_id"]})
            if poison_label is not None \
                    and job["prediction"].point.label() == poison_label:
                # Chaos hook: die the hard way, mid-job.
                os.kill(os.getpid(), signal.SIGKILL)
            measurement = next(results)
            if isinstance(measurement, PointFailure):
                heartbeat.current_job = None
                send({"type": "failed", "job_id": job["job_id"],
                      "failure": measurement.to_json()})
                continue
            # Shard first, ack second: the measurement is durable
            # before the supervisor hears about it, so a crash in
            # between is recoverable from the shard.
            shard[job["entry_key"]] = measurement.to_json()
            with contextlib.suppress(OSError):  # insurance, not the ack
                write_json_atomic(sweep["shard_path"], shard)
            heartbeat.current_job = None
            send({"type": "result", "job_id": job["job_id"],
                  "measurement": measurement.to_json()})
        save_metrics()
        send({"type": "lease_done", "lease_id": message["lease_id"]})

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # supervisor died: exit rather than orphan
            kind = message["type"]
            if kind == "shutdown":
                return
            if kind == "sweep":
                sweep, shard = message, {}
                if sweep["metrics_path"] is not None:
                    # A reused worker starts each sweep's totals from
                    # zero, or compaction would count the last sweep
                    # twice.
                    metrics.enable()
                    metrics.registry().reset()
                heartbeat.sweep_id = sweep["sweep_id"]
            elif kind == "sweep_end":
                heartbeat.sweep_id = None
                sweep, shard = {}, {}
            elif kind == "jobs" \
                    and message["sweep_id"] == sweep.get("sweep_id"):
                run_lease(message)
    except OSError:
        return  # pipe gone mid-send: supervisor exited
    finally:
        save_metrics()
        heartbeat.stop()
