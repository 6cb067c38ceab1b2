"""Trace export: spans → Chrome trace-event JSON, journal → spans.

The Chrome trace-event format (the ``traceEvents`` JSON consumed by
Perfetto / ``chrome://tracing``) renders each span as a complete
``"ph": "X"`` event on a ``(pid, tid)`` lane.  Thread idents are
remapped to small stable lane numbers and named with ``thread_name``
metadata events so the viewer shows readable lanes.

:func:`journal_spans` rebuilds per-worker timelines from the service
job journal's existing records (``worker_spawned``, ``job_started``,
``job_completed`` … each carrying an epoch ``ts``), so supervised
sweeps get one lane per worker without instrumenting the workers.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .spans import SpanRecord

#: Lane ids for journal-reconstructed spans: the supervisor's control
#: loop is lane 0; worker ``w`` is lane ``w + 1``.
SUPERVISOR_LANE = 0


def chrome_events(records: Iterable[SpanRecord],
                  default_pid: int = 1) -> List[dict]:
    """Render span records as Chrome trace events (metadata first)."""
    events: List[dict] = []
    lane_of: Dict[Tuple[int, int], int] = {}
    lane_names: Dict[Tuple[int, int], str] = {}

    def lane(pid: int, tid: Optional[int], name: Optional[str]) -> int:
        raw = (pid, tid if tid is not None else 0)
        if raw not in lane_of:
            lane_of[raw] = len(lane_of)
            lane_names[raw] = name or f"thread-{lane_of[raw]}"
        return lane_of[raw]

    spans = sorted(records, key=lambda r: (r.start, r.span_id))
    for rec in spans:
        pid = rec.pid if rec.pid is not None else default_pid
        tid = lane(pid, rec.tid, rec.tid_name)
        args = {str(k): v for k, v in rec.attrs.items()}
        args["span_id"] = rec.span_id
        if rec.parent_id is not None:
            args["parent_id"] = rec.parent_id
        events.append({
            "name": rec.name,
            "cat": "repro",
            "ph": "X",
            "ts": rec.start * 1e6,
            "dur": max(rec.duration, 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    meta = [{"name": "thread_name", "ph": "M", "pid": raw_pid,
             "tid": lane_of[(raw_pid, raw_tid)],
             "args": {"name": lane_names[(raw_pid, raw_tid)]}}
            for (raw_pid, raw_tid) in lane_of]
    return meta + events


def chrome_trace(records: Iterable[SpanRecord],
                 default_pid: int = 1) -> dict:
    return {"traceEvents": chrome_events(records, default_pid),
            "displayTimeUnit": "ms"}


def write_chrome_trace(path, records: Iterable[SpanRecord],
                       default_pid: int = 1) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(records, default_pid), handle)


# -- journal reconstruction ---------------------------------------------------


def journal_spans(journal_records: Iterable[Mapping],
                  pid: int = 1) -> List[SpanRecord]:
    """Rebuild service spans from job-journal records.

    Produces one ``service.run`` span on the supervisor lane, one
    ``service.worker`` span per worker lifetime, and one
    ``service.job`` span per ``job_started`` → ``job_completed`` /
    ``job_failed`` pair, each on its worker's lane.  Records are
    tolerated out of order and incomplete (a crashed run's journal has
    open intervals; they are closed at the last timestamp seen).
    """
    records = sorted(journal_records,
                     key=lambda r: (r.get("ts", 0.0), r.get("seq", 0)))
    if not records:
        return []
    last_ts = max(float(r.get("ts", 0.0)) for r in records)
    spans: List[SpanRecord] = []
    next_id = iter(range(1, 1 << 30))

    def make(name, start, end, lane, lane_name, parent=None, **attrs):
        rec = SpanRecord(
            name=name, span_id=next(next_id), parent_id=parent,
            start=float(start), end=float(end),
            attrs={k: v for k, v in attrs.items() if v is not None},
            pid=pid, tid=lane, tid_name=lane_name)
        spans.append(rec)
        return rec

    def worker_lane(worker) -> Tuple[int, str]:
        try:
            w = int(worker)
        except (TypeError, ValueError):
            w = 0
        return w + 1, f"worker-{w}"

    run_start: Optional[Mapping] = None
    run_span_id: Optional[int] = None
    worker_open: Dict[int, Mapping] = {}
    job_open: Dict[object, Mapping] = {}
    lease_open: Dict[object, Mapping] = {}

    # The run span is emitted first so children can point at it.
    for rec in records:
        if rec.get("event") == "run_started":
            run_start = rec
            break
    run_end_ts = last_ts
    outcome = None
    for rec in records:
        if rec.get("event") in ("run_completed", "run_aborted"):
            run_end_ts = float(rec.get("ts", last_ts))
            outcome = rec.get("event")
            break
    if run_start is not None:
        run = make("service.run", run_start.get("ts", 0.0), run_end_ts,
                   SUPERVISOR_LANE, "supervisor",
                   program=run_start.get("program"),
                   engine=run_start.get("engine"),
                   jobs=run_start.get("jobs"),
                   workers=run_start.get("workers"),
                   outcome=outcome)
        run_span_id = run.span_id

    for rec in records:
        event = rec.get("event")
        ts = float(rec.get("ts", 0.0))
        if event in ("worker_spawned", "worker_reused"):
            worker_open[rec.get("worker")] = rec
        elif event == "worker_dead":
            start = worker_open.pop(rec.get("worker"), None)
            lane, lane_name = worker_lane(rec.get("worker"))
            begin = float(start.get("ts", ts)) if start else ts
            make("service.worker", begin, ts, lane, lane_name,
                 parent=run_span_id, worker=rec.get("worker"),
                 reason=rec.get("reason"),
                 spawn_pid=(start or {}).get("pid"))
        elif event == "lease_granted":
            lease_open[rec.get("lease")] = rec
        elif event == "lease_released":
            start = lease_open.pop(rec.get("lease"), None)
            if start is None:
                continue
            lane, lane_name = worker_lane(start.get("worker"))
            make("service.lease", start.get("ts", ts), ts, lane,
                 lane_name, parent=run_span_id,
                 lease=start.get("lease"),
                 jobs=start.get("jobs"))
        elif event == "job_started":
            job_open[rec.get("job")] = rec
        elif event in ("job_completed", "job_failed", "job_poisoned"):
            start = job_open.pop(rec.get("job"), None)
            if start is None:
                continue
            lane, lane_name = worker_lane(start.get("worker"))
            make("service.job", start.get("ts", ts), ts, lane,
                 lane_name, parent=run_span_id, job=rec.get("job"),
                 outcome=event, cycles=rec.get("cycles"),
                 recovered=rec.get("recovered"))

    # Close whatever a crash left open.
    for worker, start in worker_open.items():
        lane, lane_name = worker_lane(worker)
        make("service.worker", start.get("ts", last_ts), last_ts,
             lane, lane_name, parent=run_span_id, worker=worker,
             reason="open-at-end-of-journal",
             spawn_pid=start.get("pid"))
    for job, start in job_open.items():
        lane, lane_name = worker_lane(start.get("worker"))
        make("service.job", start.get("ts", last_ts), last_ts, lane,
             lane_name, parent=run_span_id, job=job,
             outcome="open-at-end-of-journal")
    return spans
