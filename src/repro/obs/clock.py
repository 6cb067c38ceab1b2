"""The one time source for all wall-time bookkeeping.

Every ``wall_seconds`` field in the tree (explorer measurements,
spans, engine profiles) is produced by calling
``clock.now()`` through this module, so tests can monkeypatch a single
attribute (``repro.obs.clock.now``) to get deterministic timings
everywhere at once.

``now()`` is monotonic (durations); ``wall()`` is epoch seconds
(trace anchoring).  Callers must import the module
and call ``clock.now()`` — binding the function at import time would
defeat monkeypatching.
"""

from __future__ import annotations

import time


def now() -> float:
    """Monotonic seconds, for measuring durations."""
    return time.perf_counter()


def wall() -> float:
    """Epoch seconds, for anchoring traces."""
    return time.time()
