"""The batched engine's channels: NumPy rings the executor moves words
through, and the link credit accounting every engine shares.

Channels model the Intel OpenCL channel abstraction the generated code
targets (Sec. VI-A): compile-time fixed capacity, blocking on full/empty.
Network links (Sec. VI-B, SMI remote streams) add propagation latency and
a bounded per-cycle transfer rate (:class:`RateLimiter`).  The scalar
oracle's deque-of-words channels live in :mod:`.oracle`.

:class:`ArrayChannel` / :class:`ArrayNetworkLink` keep one NumPy ring
per *stream* (:class:`StreamRing`), shared by every edge its producer
feeds, storing words as rows of an ``(n, W)`` slab (float64 for
float-typed streams, int64 for integer-typed ones).  Each word is
written once (:func:`stage_slab`) and read in place
(:class:`_EdgeBuffer`): an edge's FIFO is a set of counters over the
ring, which also holds the producer's latency-line words and the
consumers' sliding-window history.  They speak a slab protocol
(``stage_slab``/``commit_rows``/``read_rows``/``deliver_rows``) that
moves whole slabs as counter advances, and know no time: the batched
engine's planner decides every cycle on its own counters and keeps
every statistic.

A fractional-rate link's credit restarts from exactly 0.0 after every
spend, so a saturated link delivers on a strictly periodic mask
(:meth:`RateLimiter.delivery_period`); the batched engine's planner
sizes its window from those periods and replays the limiter itself.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import SimulationError

#: Memoized per-rate credit schedules (the refill iterate from 0.0 is a
#: pure function of the rate, so every limiter with the same rate shares
#: one schedule).
_CREDIT_SCHEDULES: Dict[float, Optional[Tuple[float, ...]]] = {}


def is_link_rate(rate: float) -> bool:
    """Whether ``rate`` is a usable words-per-cycle rate: finite and
    > 0 (NaN fails both tests; ``rate <= 0`` alone would pass it)."""
    return math.isfinite(rate) and rate > 0


class RateLimiter:
    """Fractional-bandwidth credit accounting.

    Used by the scalar oracle's ``NetworkLink`` and by the planner
    (modeling the QSFP wire rate): credit accumulates at ``rate`` words per cycle,
    capped at ``max(rate, 1.0)``, and each transferred word spends 1.0
    credit.  A
    0.5 words/cycle limiter therefore admits one word every other cycle;
    a rate >= 1 admits one word per cycle with no burst accumulation
    beyond the cap.

    For a sub-unit rate the credit is exactly 1.0 at every spend (the
    refill cap) and therefore exactly 0.0 right after, so the whole
    inter-delivery credit trajectory is the fixed per-rate vector of
    :meth:`credit_schedule` and a saturated link delivers on a strictly
    periodic mask with period :meth:`delivery_period` — the closed form
    the batched engine's planner builds its window from.
    """

    __slots__ = ("rate", "credit")

    #: Refill-replay budget of :meth:`credit_schedule`: within it the
    #: schedule is exact, past it the scan gives up (``None``).
    SCAN_LIMIT = 4096

    def __init__(self, rate: float):
        if not is_link_rate(rate):
            raise SimulationError(
                f"rate limiter: words_per_cycle must be finite and "
                f"positive, got {rate}")
        self.rate = float(rate)
        self.credit = 0.0

    def refill(self):
        """Accrue one cycle's worth of credit (call once per cycle)."""
        self.credit = min(self.credit + self.rate, max(self.rate, 1.0))

    @property
    def ready(self) -> bool:
        """Whether a word may be transferred right now."""
        return self.credit >= 1.0

    def spend(self):
        """Account one transferred word."""
        self.credit -= 1.0

    # -- closed-form schedule -------------------------------------------------

    def credit_schedule(self) -> Optional[Tuple[float, ...]]:
        """The per-cycle credit vector of a sub-unit rate between
        spends: entry ``j`` is the credit after ``j + 1`` refills from
        the post-spend credit of exactly 0.0; the last entry is the 1.0
        that admits the next word.  ``None`` for rates >= 1 (the credit
        is memoryless there) and for rates whose refill fixpoints below
        1.0 or exceeds the :attr:`SCAN_LIMIT` replay budget.

        Cached per rate — every limiter with the same rate shares one
        schedule.
        """
        if self.rate >= 1.0:
            return None
        if self.rate in _CREDIT_SCHEDULES:
            return _CREDIT_SCHEDULES[self.rate]
        schedule = []
        credit = 0.0
        result: Optional[Tuple[float, ...]] = None
        while len(schedule) < self.SCAN_LIMIT:
            refilled = min(credit + self.rate, 1.0)
            if refilled == credit:
                break  # float64 fixpoint below the cap: never ready
            schedule.append(refilled)
            if refilled >= 1.0:
                result = tuple(schedule)
                break
            credit = refilled
        _CREDIT_SCHEDULES[self.rate] = result
        return result

    def delivery_period(self) -> Optional[int]:
        """Cycles between successive deliveries on a saturated limiter:
        1 for rates >= 1 (one word per cycle), the credit-schedule
        length for sub-unit rates (credit restarts from exactly 0.0
        after every spend, so the gap is uniform), ``None`` when no
        finite schedule exists.

        Note the float64 quirk this inherits from the scalar engine:
        rates whose refill iterate rounds down (e.g. ``1/7``, whose
        seventh partial sum is just below 1.0) take one extra refill
        compared to the exact rational, so ``1/7`` has period 8, not 7.
        Both engines share this behaviour by construction.
        """
        if self.rate >= 1.0:
            return 1
        schedule = self.credit_schedule()
        return None if schedule is None else len(schedule)


def _inside(pos: int, n: int, size: int) -> int:
    """``pos``, checked to start a range of ``n`` within ``size``."""
    if pos < 0 or pos + n > size:
        raise SimulationError(
            f"ring range of {n} at {pos} leaves its {size} entries")
    return pos


class StreamRing:
    """The buffer of one stream, shared by the edges its producer
    feeds: ``rows + pad`` rows, word ``w`` at row ``w - origin``, so
    every range of words is one slice.  A store that would come within
    ``pad`` rows of the end first moves the live words to the front
    (``copied`` counts the bytes); ``pad`` holds what the taps reach
    past the stream's end, and ``origin`` starts at minus the largest
    history, for what they reach before its start."""

    __slots__ = ("buf", "pad", "origin", "edges", "copied")

    def __init__(self, rows: int, width: int, dtype=np.float64,
                 pad: int = 0):
        self.buf = np.zeros((rows + pad, width), dtype=dtype)
        self.pad = pad
        self.origin = 0
        self.edges = weakref.WeakSet()
        self.copied = 0

    def _compact(self, start: int):
        """Move words ``[oldest live, start)`` to the front."""
        low = min(edge._rd - edge._history for edge in self.edges)
        self.buf[:start - low] = self.buf[low - self.origin:
                                          start - self.origin]
        self.copied += (start - low) * self.buf.strides[0]
        self.origin = low


def claim_slab(edges, b: int) -> Optional[np.ndarray]:
    """The ``(b, W)`` rows the stream's next ``b`` words go to, for the
    caller to fill (None for a stream no edge reads).  Each sibling
    edge first checks that the words clear its own live range (a
    laggard's unread words and history): nothing is written before."""
    if not edges:
        return None
    for edge in edges:
        edge._stage(b)
    lead = edges[0]
    ring = lead._ring
    start = lead._staged - b
    if lead._staged - ring.origin + ring.pad > len(ring.buf):
        ring._compact(start)
    lead.stored += b
    row = start - ring.origin
    return ring.buf[row:row + b]


def stage_slab(edges, rows: np.ndarray):
    """Store the stream's next ``len(rows)`` words once, in the ring
    the sibling ``edges`` of one producer share."""
    if edges:
        claim_slab(edges, len(rows))[...] = rows


class _EdgeBuffer:
    """One edge's cursors over the :class:`StreamRing` of its stream:
    each word is written once and read in place by every edge sharing
    the ring.

    Monotone word counters partition the stream (oldest first):

    * ``[_rd - history, _rd)`` — consumed, but still read by the
      consuming stencil's taps (:meth:`cells`);
    * ``[_rd, _ready)`` — poppable; ``[_ready, _wr)`` — in flight on a
      network link (plain channels keep ``_ready == _wr``);
    * ``[_wr, _staged)`` — computed by the producing stencil and still
      travelling its latency line (:func:`stage_slab`).

    Moving a word between regions is a counter advance; the FIFO
    statistics never see the staged or history rows.  Rows and cells
    are handed out as views (a range outside the ring raises): a view
    is dead after the next write to its ring.
    """

    __slots__ = ("dtype", "_ring", "_buf", "_flat", "_rows", "base",
                 "_history", "_staged", "_wr", "_ready", "_rd", "stored",
                 "__weakref__")

    def __init__(self, ring: StreamRing, history: int = 0):
        self._ring, self._buf = ring, ring.buf
        self._flat = ring.buf.reshape(-1)
        self._rows = len(ring.buf) - ring.pad
        self.base = ring.buf.ctypes.data   # for native kernels' addresses
        self.dtype = ring.buf.dtype
        self._history = history
        self._staged = self._wr = self._ready = self._rd = 0
        self.stored = 0   # rows this edge wrote into the ring
        ring.edges.add(self)
        ring.origin = min(ring.origin, -history)

    def _stage(self, b: int):
        """Claim the next ``b`` ring rows for staged words."""
        if self._staged + b - self._rd + self._history > self._rows:
            raise SimulationError(
                f"ring overflow: {self._staged - self._rd}+{b}"
                f"+{self._history} > {self._rows}")
        self._staged += b

    def _commit(self, b: int):
        """Move the ``b`` oldest staged words into the FIFO."""
        if self._wr + b > self._staged:
            raise SimulationError(
                f"ring underflow: {b} > {self._staged - self._wr} staged")
        self._wr += b

    def position(self, start: int, n: int) -> int:
        """Offset of stream cells ``[start, start + n)`` in the ring's
        cells (a native kernel adds it to ``base``)."""
        return _inside(start - self._ring.origin * self._buf.shape[1], n,
                       self._flat.size)

    def cells(self, start: int, n: int) -> np.ndarray:
        """Stream cells ``[start, start + n)``; lanes outside the
        retained range hold arbitrary values (callers mask them)."""
        pos = self.position(start, n)
        return self._flat[pos:pos + n]

    def skip_rows(self, b: int) -> int:
        """Consume ``b`` poppable words in place (they stay readable
        through :meth:`cells` as history); returns the first's index."""
        start = self._rd
        if start + b > self._ready:
            raise SimulationError(
                f"ring underflow: {b} > {self._ready - start}")
        self._rd = start + b
        return start

    def read_rows(self, b: int) -> np.ndarray:
        row = _inside(self.skip_rows(b) - self._ring.origin, b,
                      len(self._buf))
        return self._buf[row:row + b]


class ArrayChannel(_EdgeBuffer):
    """One edge's bounded FIFO over its stream's ring (the scalar
    oracle's ``Channel``, as counters).

    Words are rows of width ``W``.  ``headroom`` extra rows absorb the
    transient where a batch writes all ``B`` producer words before the
    consumer's ``B`` pops are applied, plus the producer's latency
    line; ``history`` rows keep consumed words readable for the
    consumer's taps.  ``ring`` is the stream's :class:`StreamRing`,
    shared with the producer's other edges and of at least ``capacity
    + headroom + history + 1`` rows (a stream of one edge may leave it
    out).  ``dtype`` selects the element type of a ring made here:
    float64 for float-typed streams, int64 for integer-typed ones
    (exact Python-int words up to 2**63).
    """

    __slots__ = ("name", "capacity", "width")

    def __init__(self, name: str, capacity: int, width: int,
                 headroom: int = 0, dtype=np.float64, history: int = 0,
                 ring: Optional[StreamRing] = None):
        if ring is None:
            ring = StreamRing(capacity + headroom + history + 1, width,
                              dtype, pad=history)
        super().__init__(ring, history)
        self.name = name
        self.capacity = capacity
        self.width = width

    def __len__(self) -> int:
        return self._wr - self._rd

    def commit_rows(self, b: int):
        """Push the ``b`` oldest staged words (a latency-line drain)."""
        self._commit(b)
        self._ready = self._wr

    def write_rows(self, rows: np.ndarray):
        stage_slab((self,), rows)
        self.commit_rows(len(rows))


class ArrayNetworkLink(ArrayChannel):
    """One network link's FIFO over its stream's ring (the scalar
    oracle's ``NetworkLink``, as counters): committed words are in
    flight until :meth:`deliver_rows` makes them poppable — the planner
    decides when."""

    __slots__ = ()

    def commit_rows(self, b: int):
        """Send the ``b`` oldest staged words down the wire."""
        self._commit(b)

    def deliver_rows(self, b: int):
        """The ``b`` oldest in-flight words become poppable."""
        if self._ready + b > self._wr:
            raise SimulationError(
                f"ring underflow: {b} > {self._wr - self._ready} in flight")
        self._ready += b
