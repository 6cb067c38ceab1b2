"""Bounded FIFO channels — the communication substrate of the simulator.

Channels model the Intel OpenCL channel abstraction the generated code
targets (Sec. VI-A): compile-time fixed capacity, blocking on full/empty.
Network links (Sec. VI-B, SMI remote streams) add propagation latency and
a bounded per-cycle transfer rate.

Two implementations exist for each:

* :class:`Channel` / :class:`NetworkLink` — deque-of-words, used by the
  scalar engine, where a word is whatever Python object the producer
  pushes (a ``W``-tuple of floats in practice).
* :class:`ArrayChannel` / :class:`ArrayNetworkLink` — one NumPy ring
  per *stream*, shared by every edge its producer feeds, storing words
  as rows of an ``(n, W)`` slab (float64 for float-typed streams, int64
  for integer-typed ones), used by the batched engine.  Each word is
  written once (:func:`stage_slab`) and read in place
  (:class:`_EdgeBuffer`): an edge's FIFO is a set of counters over the
  ring, which also holds the producer's latency-line words and the
  consumers' sliding-window history.  They speak the same scalar
  ``push``/``pop`` protocol (words are 1-D rows) plus a slab protocol
  (``stage_slab``/``commit_rows``/``read_rows``/``deliver_rows``) that
  moves whole slabs as counter advances.  The slab protocol keeps no
  statistics: the window executor accounts ``pushes``, ``pops`` and
  ``max_occupancy`` from the cycles its planner stepped virtually.

A fractional-rate link's credit restarts from exactly 0.0 after every
spend, so a saturated link delivers on a strictly periodic mask
(:meth:`RateLimiter.delivery_period`); the batched engine's planner
sizes its window from those periods and replays the limiter itself —
:meth:`ArrayNetworkLink.sync_credit` hands the resulting credit back.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from ..errors import SimulationError

#: Memoized per-rate credit schedules (the refill iterate from 0.0 is a
#: pure function of the rate, so every limiter with the same rate shares
#: one schedule).
_CREDIT_SCHEDULES: Dict[float, Optional[Tuple[float, ...]]] = {}


class RateLimiter:
    """Fractional-bandwidth credit accounting.

    Shared by :class:`~repro.simulator.units.SourceUnit` (modeling shared
    memory bandwidth) and :class:`NetworkLink` (modeling the QSFP wire
    rate): credit accumulates at ``rate`` words per cycle, capped at
    ``max(rate, 1.0)``, and each transferred word spends 1.0 credit.  A
    0.5 words/cycle limiter therefore admits one word every other cycle;
    a rate >= 1 admits one word per cycle with no burst accumulation
    beyond the cap.

    For a sub-unit rate the credit is exactly 1.0 at every spend (the
    refill cap) and therefore exactly 0.0 right after, so the whole
    inter-delivery credit trajectory is the fixed per-rate vector of
    :meth:`credit_schedule` and a saturated link delivers on a strictly
    periodic mask with period :meth:`delivery_period` — the closed form
    the batched engine's planner builds its LCM window from.
    """

    __slots__ = ("rate", "credit")

    #: Refill-replay budget of :meth:`credit_schedule`: within it the
    #: schedule is exact, past it the scan gives up (``None``).
    SCAN_LIMIT = 4096

    def __init__(self, rate: float):
        if rate <= 0:
            raise SimulationError(
                f"rate limiter: words_per_cycle must be positive, "
                f"got {rate}")
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

    def refill_scaled(self, scale: float):
        """Accrue one *degraded* cycle's credit: a fault window scales
        the wire rate by ``scale`` in (0, 1); the cap is unchanged, so
        the sub-unit-rate invariant (spend from exactly 1.0 to exactly
        0.0) still holds once the window lifts."""
        self.credit = min(self.credit + self.rate * scale,
                          max(self.rate, 1.0))

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


class Channel:
    """A bounded FIFO carrying one stream of vector words.

    Attributes:
        name: diagnostic identifier (usually ``src->dst:data``).
        capacity: maximum number of words held.
    """

    __slots__ = ("name", "capacity", "_queue", "pushes", "pops",
                 "max_occupancy")

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise SimulationError(
                f"channel {name!r}: capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Any] = deque()
        self.pushes = 0
        self.pops = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._queue

    def push(self, word: Any):
        if self.full:
            raise SimulationError(f"push to full channel {self.name!r}")
        self._queue.append(word)
        self.pushes += 1
        if len(self._queue) > self.max_occupancy:
            self.max_occupancy = len(self._queue)

    def pop(self) -> Any:
        if not self._queue:
            raise SimulationError(f"pop from empty channel {self.name!r}")
        self.pops += 1
        return self._queue.popleft()

    def peek(self) -> Any:
        if not self._queue:
            raise SimulationError(f"peek at empty channel {self.name!r}")
        return self._queue[0]

    def __repr__(self) -> str:
        return (f"Channel({self.name!r}, {len(self._queue)}/"
                f"{self.capacity})")


class NetworkLink:
    """An inter-device stream (SMI remote channel).

    Words pushed on the sending side become poppable on the receiving
    side after ``latency`` cycles, and at most ``words_per_cycle`` words
    cross per cycle — modeling the 40 Gbit/s QSFP links of the testbed.
    The link must be :meth:`step`-ped once per simulation cycle.

    The receive buffer is bounded like a normal channel; in-flight words
    that arrive while it is full wait (backpressure propagates to the
    sender through ``full``).
    """

    __slots__ = ("name", "capacity", "latency", "_in_flight", "_ready",
                 "pushes", "pops", "max_occupancy", "_now", "_limiter")

    def __init__(self, name: str, capacity: int, latency: int = 16,
                 words_per_cycle: float = 1.0):
        if capacity < 1:
            raise SimulationError(
                f"link {name!r}: capacity must be >= 1, got {capacity}")
        if words_per_cycle <= 0:
            raise SimulationError(
                f"link {name!r}: words_per_cycle must be positive")
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self._in_flight: Deque[Tuple[int, Any]] = deque()
        self._ready: Deque[Any] = deque()
        self.pushes = 0
        self.pops = 0
        self.max_occupancy = 0
        self._now = 0
        self._limiter = RateLimiter(words_per_cycle)

    @property
    def words_per_cycle(self) -> float:
        return self._limiter.rate

    def __len__(self) -> int:
        return len(self._in_flight) + len(self._ready)

    @property
    def full(self) -> bool:
        """Sender-side view: no credit available."""
        return len(self) >= self.capacity

    @property
    def empty(self) -> bool:
        """Receiver-side view: nothing deliverable yet."""
        return not self._ready

    def push(self, word: Any):
        if self.full:
            raise SimulationError(f"push to full link {self.name!r}")
        # The word is transmitted over the wire: it becomes available
        # `latency` cycles from now, subject to the per-cycle rate.
        self._in_flight.append((self._now + self.latency, word))
        self.pushes += 1
        if len(self) > self.max_occupancy:
            self.max_occupancy = len(self)

    def pop(self) -> Any:
        if not self._ready:
            raise SimulationError(f"pop from empty link {self.name!r}")
        self.pops += 1
        return self._ready.popleft()

    def peek(self) -> Any:
        if not self._ready:
            raise SimulationError(f"peek at empty link {self.name!r}")
        return self._ready[0]

    def step(self, now: int):
        """Advance time: deliver in-flight words whose latency elapsed."""
        self._now = now
        # Fractional rates accumulate credit: a 0.5 words/cycle link
        # delivers one word every other cycle.
        self._limiter.refill()
        while (self._in_flight and self._limiter.ready
               and self._in_flight[0][0] <= now):
            _, word = self._in_flight.popleft()
            self._ready.append(word)
            self._limiter.spend()

    def step_frozen(self, now: int):
        """Advance time through a link *outage*: the wire is down, no
        credit accrues and nothing is delivered; in-flight words keep
        their delivery stamps and drain once the window lifts."""
        self._now = now

    def step_degraded(self, now: int, scale: float):
        """Advance time through a *degraded* window: credit accrues at
        ``scale`` times the configured rate, deliveries otherwise as
        normal."""
        self._now = now
        self._limiter.refill_scaled(scale)
        while (self._in_flight and self._limiter.ready
               and self._in_flight[0][0] <= now):
            _, word = self._in_flight.popleft()
            self._ready.append(word)
            self._limiter.spend()

    def __repr__(self) -> str:
        return (f"NetworkLink({self.name!r}, ready={len(self._ready)}, "
                f"in_flight={len(self._in_flight)})")


def _ring_slice(buf: np.ndarray, pos: int, n: int) -> np.ndarray:
    """``n`` entries of ring ``buf`` from ``pos`` — a *view* unless the
    range wraps (then one concatenate)."""
    end = pos + n
    if end <= len(buf):
        return buf[pos:end]
    return np.concatenate((buf[pos:], buf[:end - len(buf)]))


def _ring_store(buf: np.ndarray, pos: int, values: np.ndarray):
    """Store ``values`` into ring ``buf`` from ``pos`` (at most two
    slice copies)."""
    n = len(values)
    first = min(n, len(buf) - pos)
    buf[pos:pos + first] = values[:first]
    if first < n:
        buf[:n - first] = values[first:]


class _RowRing:
    """A preallocated FIFO of ready-times (in-flight link words,
    latency-line words).

    ``pop_rows`` and ``snapshot`` hand out views of the ring when the
    range does not wrap: every caller consumes them before the next
    ``push_rows``, after which a view is dead.
    """

    __slots__ = ("_buf", "_head", "_size")

    def __init__(self, rows: int):
        self._buf = np.zeros(rows, dtype=np.int64)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push_rows(self, rows: np.ndarray):
        b = len(rows)
        if self._size + b > len(self._buf):
            raise SimulationError(
                f"ring overflow: {self._size}+{b} > {len(self._buf)}")
        _ring_store(self._buf, (self._head + self._size) % len(self._buf),
                    rows)
        self._size += b

    def pop_rows(self, b: int) -> np.ndarray:
        if b > self._size:
            raise SimulationError(
                f"ring underflow: {b} > {self._size}")
        out = _ring_slice(self._buf, self._head, b)
        self._head = (self._head + b) % len(self._buf)
        self._size -= b
        return out

    def peek0(self):
        if not self._size:
            raise SimulationError("peek at empty ring")
        return self._buf[self._head]

    def snapshot(self) -> np.ndarray:
        """The live contents, oldest first."""
        return _ring_slice(self._buf, self._head, self._size)


def stage_slab(edges, rows: np.ndarray):
    """Store the stream's next ``len(rows)`` words once, in the ring
    the sibling ``edges`` of one producer share.  Staged in lockstep,
    the siblings agree on where the slab goes; each checks that it
    clears its own live range (a laggard's unread words and history)."""
    if not edges:
        return
    lead = edges[0]
    pos = lead._staged % len(lead._buf)
    for edge in edges:
        edge._stage(len(rows))
    _ring_store(lead._buf, pos, rows)
    lead.stored += len(rows)


class _EdgeBuffer:
    """One edge's cursors over the ring of its stream: each word of the
    stream is written once, at ``word index mod rows``, and read in
    place from there by every edge sharing the ring.

    Monotone word counters partition the ring (oldest first):

    * ``[_rd - history, _rd)`` — consumed, but still read by the
      consuming stencil's taps (:meth:`cells`);
    * ``[_rd, _ready)`` — poppable; ``[_ready, _wr)`` — in flight on a
      network link (plain channels keep ``_ready == _wr``);
    * ``[_wr, _staged)`` — computed by the producing stencil and still
      travelling its latency line (:func:`stage_slab`).

    Moving a word between regions is a counter advance; the FIFO
    statistics never see the staged or history rows.  Rows and cells are
    handed out as *views* unless the range wraps (one concatenate): a
    view is dead after the next write to its ring.
    """

    __slots__ = ("dtype", "_buf", "_flat", "_history", "_staged", "_wr",
                 "_ready", "_rd", "stored")

    def __init__(self, buf: np.ndarray, history: int = 0):
        self._buf = buf
        self._flat = buf.reshape(-1)
        self.dtype = buf.dtype
        self._history = history
        self._staged = self._wr = self._ready = self._rd = 0
        self.stored = 0   # rows this edge wrote into the ring

    def _stage(self, b: int):
        """Claim the next ``b`` ring rows for staged words."""
        rows_total = len(self._buf)
        if self._staged + b - self._rd + self._history > rows_total:
            raise SimulationError(
                f"ring overflow: {self._staged - self._rd}+{b}"
                f"+{self._history} > {rows_total}")
        self._staged += b

    def _commit(self, b: int):
        """Move the ``b`` oldest staged words into the FIFO."""
        if self._wr + b > self._staged:
            raise SimulationError(
                f"ring underflow: {b} > {self._staged - self._wr} staged")
        self._wr += b

    def cells(self, start: int, n: int) -> np.ndarray:
        """Stream cells ``[start, start + n)``; lanes outside the
        retained range hold arbitrary values (callers mask them)."""
        return _ring_slice(self._flat, start % self._flat.size, n)

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
        return _ring_slice(self._buf, self.skip_rows(b) % len(self._buf),
                           b)


class ArrayChannel(_EdgeBuffer):
    """NumPy edge-buffer variant of :class:`Channel`.

    Words are rows of width ``W``.  ``headroom`` extra rows absorb the
    transient where a batch writes all ``B`` producer words before the
    consumer's ``B`` pops are applied, plus the producer's latency
    line; ``history`` rows keep consumed words readable for the
    consumer's taps.  ``buf`` is the stream's ring, shared with the
    producer's other edges and at least ``capacity + headroom + history
    + 1`` rows (a stream of one edge may leave it out).  ``dtype``
    selects the element type: float64 for float-typed streams, int64
    for integer-typed ones (exact Python-int words up to 2**63).
    """

    __slots__ = ("name", "capacity", "width", "pushes", "pops",
                 "max_occupancy")

    kind = "channel"

    def __init__(self, name: str, capacity: int, width: int,
                 headroom: int = 0, dtype=np.float64, history: int = 0,
                 buf: Optional[np.ndarray] = None):
        if capacity < 1:
            raise SimulationError(
                f"{self.kind} {name!r}: capacity must be >= 1, "
                f"got {capacity}")
        if buf is None:
            buf = np.zeros((capacity + headroom + history + 1, width),
                           dtype=dtype)
        super().__init__(buf, history)
        self.name = name
        self.capacity = capacity
        self.width = width
        self.pushes = 0
        self.pops = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return self._wr - self._rd

    @property
    def full(self) -> bool:
        return self._wr - self._rd >= self.capacity

    @property
    def empty(self) -> bool:
        return self._ready == self._rd

    # -- scalar protocol (used by the batched engine's scalar steps) --------

    def push(self, word):
        # Every sibling stores its producer's word, to the same row.
        stage_slab((self,), np.asarray(word, dtype=self.dtype)
                   .reshape(1, self.width))
        self.push_staged()

    def push_staged(self):
        """Push the oldest staged word (a latency-line drain)."""
        if self.full:
            raise SimulationError(f"push to full {self.kind} {self.name!r}")
        self.commit_rows(1)
        self.pushes += 1
        if len(self) > self.max_occupancy:
            self.max_occupancy = len(self)

    def pop(self) -> np.ndarray:
        if self.empty:
            raise SimulationError(
                f"pop from empty {self.kind} {self.name!r}")
        self.pops += 1
        return self.read_rows(1)[0]

    def peek(self) -> np.ndarray:
        if self.empty:
            raise SimulationError(
                f"peek at empty {self.kind} {self.name!r}")
        return self._buf[self._rd % len(self._buf)]

    # -- slab protocol (the window executor applies the statistics) ---------

    def commit_rows(self, b: int):
        """Push the ``b`` oldest staged words (a latency-line drain)."""
        self._commit(b)
        self._ready = self._wr

    def write_rows(self, rows: np.ndarray):
        stage_slab((self,), rows)
        self.commit_rows(len(rows))

    def __repr__(self) -> str:
        return (f"ArrayChannel({self.name!r}, {len(self)}/"
                f"{self.capacity})")


class ArrayNetworkLink(ArrayChannel):
    """NumPy edge-buffer variant of :class:`NetworkLink`.

    In-flight words carry per-row delivery times
    (:meth:`in_flight_times`); the batched engine's planner replays
    them and the limiter's credit on counter state, then moves the
    delivered prefix in one counter advance (:meth:`deliver_rows`) and
    hands the closing credit back (:meth:`sync_credit`).
    """

    __slots__ = ("latency", "_limiter", "_now", "_in_times")

    kind = "link"

    def __init__(self, name: str, capacity: int, width: int,
                 latency: int = 16, words_per_cycle: float = 1.0,
                 headroom: int = 0, dtype=np.float64, history: int = 0,
                 buf: Optional[np.ndarray] = None):
        super().__init__(name, capacity, width, headroom=headroom,
                         dtype=dtype, history=history, buf=buf)
        self.latency = latency
        self._limiter = RateLimiter(words_per_cycle)
        self._now = 0
        self._in_times = _RowRing(capacity + headroom + 1)

    @property
    def words_per_cycle(self) -> float:
        return self._limiter.rate

    @property
    def in_flight_len(self) -> int:
        return len(self._in_times)

    @property
    def credit(self) -> float:
        """The limiter's current credit (the planner seeds a virtual
        limiter with it; see :meth:`sync_credit`)."""
        return self._limiter.credit

    def in_flight_times(self) -> np.ndarray:
        """Delivery times of the in-flight words, oldest first."""
        return self._in_times.snapshot()

    def delivery_period(self) -> Optional[int]:
        """Cycles between deliveries on this link when saturated — the
        per-link period the planner folds into its LCM window (see
        :meth:`RateLimiter.delivery_period`)."""
        return self._limiter.delivery_period()

    def sync_credit(self, credit: float):
        """Overwrite the limiter credit with the value the window
        planner's virtual limiter closed on."""
        self._limiter.credit = credit

    def step(self, now: int):
        """Advance time: deliver in-flight words whose latency elapsed."""
        self._now = now
        self._limiter.refill()
        while (len(self._in_times) and self._limiter.ready
               and self._in_times.peek0() <= now):
            self.deliver_rows(1)
            self._limiter.spend()

    def step_frozen(self, now: int):
        """Advance time through a link *outage* (see
        :meth:`NetworkLink.step_frozen`)."""
        self._now = now

    def step_degraded(self, now: int, scale: float):
        """Advance time through a *degraded* window (see
        :meth:`NetworkLink.step_degraded`)."""
        self._now = now
        self._limiter.refill_scaled(scale)
        while (len(self._in_times) and self._limiter.ready
               and self._in_times.peek0() <= now):
            self.deliver_rows(1)
            self._limiter.spend()

    # -- slab protocol ------------------------------------------------------

    def deliver_rows(self, b: int):
        """The ``b`` oldest in-flight words become poppable."""
        self._in_times.pop_rows(b)
        self._ready += b

    def commit_rows(self, b: int, times: Optional[np.ndarray] = None):
        """Send the ``b`` oldest staged words down the wire, arriving
        at ``times`` (omitted by the scalar protocol's single-word
        push, which leaves at the link's current cycle)."""
        self._commit(b)
        if times is None:
            times = np.asarray([self._now + self.latency], dtype=np.int64)
        else:
            self._now = int(times[-1]) - self.latency
        self._in_times.push_rows(times)

    def write_rows(self, rows: np.ndarray, times: np.ndarray):
        stage_slab((self,), rows)
        self.commit_rows(len(rows), np.asarray(times, dtype=np.int64))

    def __repr__(self) -> str:
        return (f"ArrayNetworkLink({self.name!r}, "
                f"ready={self._ready - self._rd}, "
                f"in_flight={len(self._in_times)})")
