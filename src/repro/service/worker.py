"""Worker-process side of the supervised exploration service.

Spawn-entry module: :func:`worker_main` runs in a fresh interpreter
(``multiprocessing`` *spawn* context — no forked locks, no shared
NumPy state, a hard crash kills only this process).  The worker:

* receives leased job batches over a duplex pipe;
* heartbeats over the same pipe from a background thread while the
  main thread simulates, so the supervisor can tell "busy" from
  "wedged" even when NumPy holds the core for seconds;
* mirrors the thread backend's failure taxonomy exactly (deadlocks
  and model errors are deterministic and never retried; anything
  else retries with backoff) so both backends report identical
  entries;
* persists every measurement to its *own* :class:`ResultCache` shard
  file (atomic, fsync'd — ``faults.store`` primitives) before
  acknowledging it, so a worker killed between completing a job and
  reporting it loses nothing: the supervisor recovers the result
  from the shard at reap time.

Workers ignore SIGINT: an interactive Ctrl-C must reach only the
supervisor, which checkpoints and then tears workers down in order.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from ..errors import DeadlockError, StencilFlowError
from ..explore.cache import Measurement
from ..explore.report import PointFailure
from ..faults.store import write_json_atomic
from ..lowering import LoweringConfig, lower
from ..obs import clock, metrics
from ..simulator.engine import SimulatorConfig, simulate

#: Test-only chaos hook: a worker about to simulate a point whose
#: label equals this environment variable SIGKILLs itself instead.
#: Deterministic crash-loop: every attempt dies, so after
#: ``max_point_deaths`` the supervisor must quarantine the point as
#: poisoned.  Used by the test suite and the CI crash-recovery check.
POISON_ENV = "REPRO_SERVICE_POISON"


class _Heartbeat(threading.Thread):
    """Background pulse: ``{"type": "heartbeat", ...}`` every interval.

    Runs while the main thread is deep in a simulation; carries the
    job currently being worked on so the supervisor can attribute a
    death to the right point.
    """

    def __init__(self, conn, send_lock, worker_id, interval):
        super().__init__(daemon=True)
        self.conn = conn
        self.send_lock = send_lock
        self.worker_id = worker_id
        self.interval = interval
        self.current_job = None
        self._stop = threading.Event()

    def run(self):
        while not self._stop.wait(self.interval):
            try:
                with self.send_lock:
                    self.conn.send({"type": "heartbeat",
                                    "worker": self.worker_id,
                                    "job": self.current_job})
            except (OSError, ValueError, BrokenPipeError):
                return  # supervisor is gone; the main loop will exit

    def stop(self):
        self._stop.set()


def _simulate_job(job: dict, program, platform, inputs,
                  engine_mode, resolved_engine,
                  deadlock_window) -> Measurement:
    """One measurement, identical to the thread backend's
    ``measure_once`` (minus the cache probe, which the supervisor
    already did)."""
    prediction = job["prediction"]
    point = prediction.point
    lowered = lower(program, LoweringConfig(
        canonicalize=point.canonicalize, fusion=point.fusion,
        vectorization=point.vectorization), platform=platform)
    config = SimulatorConfig(
        engine_mode=engine_mode,
        network_words_per_cycle=point.network_words_per_cycle,
        network_latency=point.network_latency,
        min_channel_depth=point.min_channel_depth,
        network_link_rates=dict(prediction.link_rates_resolved)
        if prediction.link_rates_resolved else None,
        **({"deadlock_window": deadlock_window}
           if deadlock_window is not None else {}))
    began = clock.now()
    result = simulate(lowered.program, inputs, config,
                      device_of=prediction.device_of)
    return Measurement(
        simulated_cycles=result.cycles,
        sim_expected_cycles=result.expected_cycles,
        wall_seconds=clock.now() - began,
        engine=resolved_engine)


def _measure_with_retries(job, payload) -> Measurement:
    """The thread backend's retry taxonomy, verbatim: deterministic
    failures (deadlock, model errors) raise immediately; anything
    else retries with exponential backoff before giving up."""
    retries = payload["retries"]
    backoff = payload["retry_backoff"]
    attempts = 0
    while True:
        attempts += 1
        try:
            return _simulate_job(
                job, payload["program"], payload["platform"],
                payload["inputs"], payload["engine_mode"],
                payload["resolved_engine"],
                payload["deadlock_window"])
        except DeadlockError as exc:
            raise _JobFailed(PointFailure(
                kind="deadlock", message=str(exc),
                attempts=attempts,
                detail=(exc.report.to_json()
                        if exc.report is not None else None)))
        except StencilFlowError as exc:
            raise _JobFailed(PointFailure(
                kind="error", message=str(exc), attempts=attempts))
        except Exception as exc:
            if attempts > retries:
                raise _JobFailed(PointFailure(
                    kind="error",
                    message=f"{type(exc).__name__}: {exc}",
                    attempts=attempts))
            time.sleep(backoff * (2 ** (attempts - 1)))


class _JobFailed(Exception):
    def __init__(self, failure: PointFailure):
        self.failure = failure
        super().__init__(failure.message)


def worker_main(conn, worker_id: int, payload: dict):
    """Spawn entry point: drain leases until told to shut down."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pidfile = payload.get("pidfile")
    if pidfile:
        try:
            with open(pidfile, "w") as handle:
                handle.write(str(os.getpid()))
        except OSError:
            pass
    send_lock = threading.Lock()
    heartbeat = _Heartbeat(conn, send_lock, worker_id,
                           payload["heartbeat_interval"])
    heartbeat.start()
    poison_label = os.environ.get(POISON_ENV) or None
    shard_path = payload["shard_path"]
    shard: dict = {}
    # Telemetry rides the payload: the spawn context starts a fresh
    # interpreter, so the supervisor's in-process enable() cannot
    # reach us through module state.  With a metrics shard path the
    # worker's registry persists there after every lease (same
    # durability slot as the result shard), and the supervisor adopts
    # the totals at compaction via merge_snapshot.
    metrics_path = payload.get("metrics_path")
    if metrics_path is not None:
        metrics.enable()

    def save_metrics():
        if metrics_path is None:
            return
        try:
            metrics.registry().save(metrics_path)
        except OSError:
            pass

    def send(message: dict):
        with send_lock:
            conn.send(message)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # supervisor died: exit rather than orphan
            if message["type"] == "shutdown":
                return
            if message["type"] != "jobs":
                continue
            for job in message["jobs"]:
                point = job["prediction"].point
                heartbeat.current_job = job["job_id"]
                send({"type": "job_started", "worker": worker_id,
                      "job_id": job["job_id"]})
                if poison_label is not None \
                        and point.label() == poison_label:
                    # Chaos hook: die the hard way, mid-job.
                    os.kill(os.getpid(), signal.SIGKILL)
                try:
                    measurement = _measure_with_retries(job, payload)
                except _JobFailed as exc:
                    heartbeat.current_job = None
                    send({"type": "failed", "worker": worker_id,
                          "job_id": job["job_id"],
                          "failure": exc.failure.to_json()})
                    continue
                # Shard first, ack second: the measurement is durable
                # before the supervisor hears about it, so a crash in
                # between is recoverable from the shard.
                shard[job["entry_key"]] = measurement.to_json()
                try:
                    write_json_atomic(shard_path, shard)
                except OSError:
                    pass  # shard is recovery insurance, not the ack
                heartbeat.current_job = None
                send({"type": "result", "worker": worker_id,
                      "job_id": job["job_id"],
                      "measurement": measurement.to_json()})
            save_metrics()
            send({"type": "lease_done", "worker": worker_id,
                  "lease_id": message["lease_id"]})
    except (OSError, BrokenPipeError):
        return  # pipe gone mid-send: supervisor exited
    finally:
        save_metrics()
        heartbeat.stop()
