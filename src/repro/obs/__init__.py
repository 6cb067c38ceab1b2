"""Zero-dependency telemetry: metrics, spans, engine profiles.

The observability layer every subsystem reports into:

* :mod:`repro.obs.metrics` — process-wide registry of counters,
  gauges, and histograms with labels; snapshot-to-JSON.
* :mod:`repro.obs.spans` — nested wall-time spans with ids/parents,
  collected by a process-wide tracer.
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto).
* :mod:`repro.obs.profile` — always-on plan-level statistics attached
  to every ``SimulationResult``.
* :mod:`repro.obs.clock` — the single monkeypatchable time source
  behind every ``wall_seconds`` field.

Telemetry is **disabled by default** and a strict no-op when off (one
flag check per instrumented call site; nothing per simulated cycle).
Enable programmatically with :func:`enable`, per-process with
``REPRO_TELEMETRY=1``, or via the CLI's ``--trace`` / ``--metrics``
flags.  See ``docs/OBSERVABILITY.md`` for the metric and span
catalogs and the overhead contract.
"""

from __future__ import annotations

from . import clock, export, metrics, spans
from .export import chrome_trace, write_chrome_trace
from .metrics import TELEMETRY_ENV, MetricsRegistry
from .profile import EngineProfile
from .spans import SpanRecord, Tracer, span


def enable() -> None:
    """Turn on both metrics and span collection for this process."""
    metrics.enable()
    spans.enable()


def disable() -> None:
    metrics.disable()
    spans.disable()


__all__ = [
    "EngineProfile",
    "MetricsRegistry",
    "SpanRecord",
    "TELEMETRY_ENV",
    "Tracer",
    "chrome_trace",
    "clock",
    "disable",
    "enable",
    "export",
    "metrics",
    "span",
    "spans",
    "write_chrome_trace",
]
