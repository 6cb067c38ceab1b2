"""Structured spans: nested wall-time intervals with ids and parents.

    from repro.obs import span

    with span("lowering.fusion", program="jacobi3d"):
        ...

Spans nest through a context variable, so parent/child links are
correct across threads (each thread sees its own stack) and the
exporter can rebuild the tree.  Records accumulate in a process-wide
:class:`Tracer` and export as Chrome trace-event JSON
(:mod:`repro.obs.export`), viewable in Perfetto or ``chrome://tracing``.

Tracing is **off by default**: ``span()`` yields ``None`` and touches
nothing until ``enable()`` (or ``REPRO_TELEMETRY=1``) turns it on, so
instrumented call sites cost one flag check when disabled.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import clock
from .metrics import _env_enabled


@dataclass
class SpanRecord:
    """One finished span: a named interval on a (pid, tid) lane."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float            #: epoch seconds
    end: float              #: epoch seconds
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Lane identity for the exporter; defaults to this process/thread.
    pid: Optional[int] = None
    tid: Optional[int] = None
    tid_name: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects :class:`SpanRecord` objects for one process."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar[Optional[int]] = \
            contextvars.ContextVar("repro_obs_span_parent",
                                   default=None)
        # Maps perf_counter() readings onto the epoch so durations
        # keep monotonic precision but timestamps are wall-clock
        # anchored.
        self._epoch_offset = clock.wall() - clock.now()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        token = self._parent.set(span_id)
        parent_id = token.old_value
        if parent_id is contextvars.Token.MISSING:
            parent_id = None
        start = clock.now()
        record = SpanRecord(
            name=name, span_id=span_id, parent_id=parent_id,
            start=0.0, end=0.0, attrs=attrs,
            tid=threading.get_ident(),
            tid_name=threading.current_thread().name)
        try:
            yield record
        finally:
            end = clock.now()
            self._parent.reset(token)
            record.start = start + self._epoch_offset
            record.end = end + self._epoch_offset
            with self._lock:
                self._records.append(record)

    def extend(self, records) -> None:
        with self._lock:
            self._records.extend(records)

    def records(self) -> Tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._records)


_default = Tracer(enabled=_env_enabled())


def tracer() -> Tracer:
    return _default


def set_tracer(new: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests); returns the old one."""
    global _default
    old, _default = _default, new
    return old


def enable() -> None:
    _default.enabled = True


def disable() -> None:
    _default.enabled = False


def enabled() -> bool:
    return _default.enabled


def span(name: str, **attrs):
    """Open a span on the process-wide tracer (context manager)."""
    return _default.span(name, **attrs)
