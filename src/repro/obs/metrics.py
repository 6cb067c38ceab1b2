"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency (stdlib only) and **no-op when disabled**: every
instrument checks its registry's ``enabled`` flag before mutating, so
an instrumented call site costs one attribute check when telemetry is
off.  The registry is never consulted from per-cycle loops — the
engines aggregate locally and emit once per run (the overhead
contract, see docs/OBSERVABILITY.md).

Instruments are get-or-create by ``(name, labels)``:

    from repro.obs import metrics
    metrics.counter("explore.sweeps").inc()
    metrics.counter("artifact_cache.hits", kind="analysis").inc()
    metrics.histogram("explore.checkpoint_seconds").observe(0.12)

``snapshot()`` renders the whole registry as a JSON-serializable dict.

Enable with ``metrics.enable()``, a CLI telemetry flag, or
``REPRO_TELEMETRY=1`` in the environment.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Mapping, Optional, Tuple

TELEMETRY_ENV = "REPRO_TELEMETRY"

LabelKey = Tuple[Tuple[str, str], ...]

#: Upper bucket bounds (seconds-ish scale) shared by all histograms;
#: the final implicit bucket is +inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0, 300.0,
)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value", "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: LabelKey):
        self._registry = registry
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value += amount
            self._registry.ops += 1


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value", "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: LabelKey):
        self._registry = registry
        self.name = name
        self.labels = labels
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value = float(value)
            self._registry.ops += 1


class Histogram:
    """Count/sum/min/max plus fixed cumulative-style bucket counts."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "sum", "min", "max", "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: LabelKey,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self._registry = registry
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # last = +inf
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        with self._registry._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            else:
                self.bucket_counts[-1] += 1
            self._registry.ops += 1

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


class MetricsRegistry:
    """Get-or-create instrument store with a single enabled switch.

    ``ops`` counts instrument mutations since creation/reset — the
    overhead-guard tests read it to prove instrumentation stays off
    hot loops (ops must not scale with simulated cycles).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.ops = 0
        self._lock = threading.RLock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument lookup ---------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(self, name, key[1])
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(self, name, key[1])
        return inst

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(self, name,
                                                         key[1])
        return inst

    # -- aggregate views -----------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all label sets."""
        with self._lock:
            return sum(c.value for (n, _), c in self._counters.items()
                       if n == name)

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument."""
        with self._lock:
            counters: List[dict] = [
                {"name": c.name, "labels": dict(c.labels),
                 "value": c.value}
                for c in self._counters.values()]
            gauges: List[dict] = [
                {"name": g.name, "labels": dict(g.labels),
                 "value": g.value}
                for g in self._gauges.values()]
            histograms: List[dict] = [
                {"name": h.name, "labels": dict(h.labels),
                 "count": h.count, "sum": h.sum,
                 "min": h.min, "max": h.max, "mean": h.mean,
                 "buckets": list(h.buckets),
                 "bucket_counts": list(h.bucket_counts)}
                for h in self._histograms.values()]
        counters.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        gauges.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        histograms.sort(key=lambda r: (r["name"],
                                       sorted(r["labels"].items())))
        return {"schema": 1, "enabled": self.enabled, "ops": self.ops,
                "counters": counters, "gauges": gauges,
                "histograms": histograms}

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=2)


def _env_enabled() -> bool:
    return os.environ.get(TELEMETRY_ENV, "") not in ("", "0")


_default = MetricsRegistry(enabled=_env_enabled())


def registry() -> MetricsRegistry:
    return _default


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the old one."""
    global _default
    old, _default = _default, new
    return old


def enable() -> None:
    _default.enabled = True


def disable() -> None:
    _default.enabled = False


def enabled() -> bool:
    return _default.enabled


def counter(name: str, **labels) -> Counter:
    return _default.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _default.gauge(name, **labels)


def histogram(name: str, **labels) -> Histogram:
    return _default.histogram(name, **labels)


def snapshot() -> dict:
    return _default.snapshot()
