"""Trace export: spans → Chrome trace-event JSON.

The Chrome trace-event format (the ``traceEvents`` JSON consumed by
Perfetto / ``chrome://tracing``) renders each span as a complete
``"ph": "X"`` event on a ``(pid, tid)`` lane.  Thread idents are
remapped to small stable lane numbers and named with ``thread_name``
metadata events so the viewer shows readable lanes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from .spans import SpanRecord

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

