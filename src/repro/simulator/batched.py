"""The batched NumPy execution engine.

Between stall points the simulated machine is *deterministic*: its
per-cycle behaviour repeats — every unit makes the same decision every
``q`` cycles while each channel occupancy evolves linearly.  The
batched engine exploits this with one planner: it steps a window of
``q`` cycles of the exact scalar semantics on counter state, proves by
state congruence how many times the window repeats — bounded by
decision margins on channel occupancy, link ready counts and
latency-line lengths, by the timed FIFOs' queued entries, by schedule
phase boundaries, ring headroom and remaining words — and then
executes all ``k * q`` cycles at once with NumPy slab operations
(``BatchedSimulator._plan_window`` / ``_execute_window``).

The batching invariant: **identical observable machine state at every
stall point**.  ``cycles``, per-unit ``stall_cycles``, channel
``max_occupancy`` high-water marks, streaming-continuity flags, and all
outputs are exactly — bitwise — what the scalar engine produces,
because every window is accounted from the virtually stepped cycles
with the scalar engine's own bookkeeping rules.  The cycle on which
the deadlock detector may fire is a true scalar step, so deadlock
detection (Fig. 4) and its diagnostics are unchanged.

The units mirror :mod:`repro.simulator.units` but hold NumPy state:

* :class:`BatchedSourceUnit` slices ``(B, W)`` slabs straight out of
  the input array instead of boxing tuples;
* :class:`BatchedStencilUnit` reads its taps as slices of its inbound
  edge buffers (float64, or int64 for integer-typed fields — the
  sliding window *is* the channel's storage), resolves boundaries with
  coordinate/boundary slabs precomputed once per program, evaluates
  the stencil through the array-mode compiler
  (:class:`~repro.simulator.compile.ArrayCompiledStencil`) and stores
  the result once, into the one ring its outbound edges share;
* :class:`BatchedSinkUnit` writes slabs directly into the output array.

Every supported configuration runs on this fast path:

* **The window period** ``q`` is the LCM of the delivery periods of
  the fractional-rate links (``words_per_cycle < 1``): credit restarts
  from exactly 0.0 after every spend, so a saturated link delivers on
  a strictly periodic mask, and steady fractional-rate stretches run
  as repeated windows.  Without such a link — one device, or rates
  >= 1, which admit one word per cycle whenever a timely word exists —
  ``q`` is 1: a single-cycle pattern is a period-1 window.  Ramps and
  drains repeat modulo a constant counter drift; what does not repeat
  is stepped virtually over a longer stretch and executed once.
* **Dead time costs one window**: a stall that lasts while links hold
  words passes the same congruence proof and repeats to the horizon
  (the cycle cap, or the next fault boundary); idle cycles with empty
  links are stepped virtually with the detector's streak carried in
  and out of each window.
* **Integer-typed streams** ride int64 slabs: exact to 2**63 where the
  former float64 slabs capped exactness at 2**53 (the scalar engine
  computes arbitrary-precision Python ints).  Stores into integer
  output arrays truncate and range-check exactly like the scalar
  engine's per-element NumPy stores.  Integer streams that boundary
  fills can leak floats into (shrink's NaN, float constants — see
  :func:`float_leaky_streams`) are demoted to float64 slabs so the
  floats flow downstream exactly as the scalar engine's Python floats
  do.  The one documented divergence is far outside realistic ranges:
  wherever a lane passes through float64 (division, math calls, mixed
  int/float selection, demoted streams), integer values beyond 2**53
  round as float64 where cell mode's Python ints stay exact.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from functools import cached_property
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.fields import row_major_strides
from ..core.program import StencilDefinition, StencilProgram
from ..errors import SimulationError
from ..expr.analysis import index_vars
from .channel import (
    ArrayChannel,
    ArrayNetworkLink,
    RateLimiter,
    _RowRing,
    stage_slab,
)
from ..lowering import compiled_stencil
from ..obs.profile import MAX_WINDOW_SAMPLES, EngineProfile
from .engine import SimulationResult, Simulator, deadlock_error
from .units import SinkUnit, SourceUnit, StencilBookkeeping, schedule_reads

_INF = float("inf")


def _pow2_ceil(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


_IOTA = np.arange(1, dtype=np.int64)


def _iota(n: int) -> np.ndarray:
    """A shared read-only ``arange(n)`` slice (grown on demand), so
    per-batch time vectors cost one addition instead of an arange."""
    global _IOTA
    if _IOTA.size < n:
        _IOTA = np.arange(_pow2_ceil(n), dtype=np.int64)
    return _IOTA[:n]


def float_leaky_streams(program: StencilProgram) -> Dict[str, str]:
    """Streams whose runtime values may be floats although their
    *inferred* dtype is integer, mapped to the kind of leak.

    Type inference cannot see boundary conditions: a shrink fill (NaN)
    or a float constant fill on an integer-typed field injects float
    lanes at run time, and the leak propagates to every downstream
    integer-typed stream.  Such streams must ride float64 slabs — the
    scalar engine carries the floats onward and only truncates at an
    integer store — at the price of capping integer exactness at 2**53
    on them (conservative: a leak is assumed whether or not the filled
    access can actually leave the domain).

    The kind distinguishes what leaked: ``"nan"`` streams carry cell
    values that are Python ints everywhere except NaN lanes (their
    int-typedness survives, because the zero-sign rules are moot on
    NaN), while ``"float"`` streams may hold genuine floats on lanes
    that cannot be identified downstream, so their int-typedness is
    dropped — the one remaining zero-sign corner.
    """
    leaky: Dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for stencil in program.stencils:
            if leaky.get(stencil.name) == "float":
                continue
            if not program.field_dtype(stencil.name).is_integer:
                continue
            kind = leaky.get(stencil.name)
            for field in stencil.accessed_fields:
                if not program.field_dtype(field).is_integer:
                    continue  # inference already made the result float
                if leaky.get(field) == "float":
                    kind = "float"
                    break
                if leaky.get(field) == "nan":
                    kind = kind or "nan"
                if stencil.boundary.shrink:
                    kind = kind or "nan"
                    continue
                if not stencil.boundary.has_input(field):
                    # No condition declared: a fill is never applied
                    # (an out-of-bounds access would raise in either
                    # engine), so nothing can leak.
                    continue
                condition = stencil.boundary.for_input(field)
                if condition.kind == "constant" and not (
                        isinstance(condition.value, int)
                        and not isinstance(condition.value, bool)):
                    kind = "float"
                    break
            if kind is not None and kind != leaky.get(stencil.name):
                leaky[stencil.name] = kind
                changed = True
    return leaky


class CoordSlabs:
    """Iteration geometry of one domain, shared by every stencil unit
    of a machine: memoized boundary data per distinct offset vector,
    and per-dimension cell coordinates for the stencils that read an
    iteration index as a value (sliced per batch)."""

    def __init__(self, domain: Tuple[int, ...]):
        self.domain = tuple(domain)
        self._boundary: Dict[Tuple, Optional[Tuple]] = {}

    @cached_property
    def coords(self) -> Tuple[np.ndarray, ...]:
        """Whole-domain int64 coordinates: built on first use only."""
        t = np.arange(math.prod(self.domain), dtype=np.int64)
        return tuple((t // stride) % extent for stride, extent
                     in zip(row_major_strides(self.domain), self.domain))

    def boundary(self, full: Tuple[int, ...], width: int):
        """Boundary data of offset vector ``full``: ``None`` when the
        access can never leave the domain, else ``(in_bounds, words)``
        with the whole-domain in-bounds mask and the sorted word
        indices containing at least one out-of-bounds lane (so batches
        that stay interior skip boundary handling entirely)."""
        key = (tuple(full), width)
        if key in self._boundary:
            return self._boundary[key]
        entry = None
        if any(full):
            # A nonzero offset leaves the domain on one face slab.
            in_bounds = np.ones(self.domain, dtype=bool)
            for axis, (off, extent) in enumerate(zip(full, self.domain)):
                if off:
                    face = slice(0, -off) if off < 0 \
                        else slice(max(extent - off, 0), None)
                    in_bounds[(slice(None),) * axis + (face,)] = False
            in_bounds = in_bounds.reshape(-1)
            words = np.unique(np.nonzero(~in_bounds)[0] // width)
            entry = (in_bounds, words)
        self._boundary[key] = entry
        return entry


def _commit_slab(channels, b: int, departures):
    """Push the ``b`` oldest staged words of sibling ``channels``;
    ``departures()`` gives the cycle each word leaves on, from which
    network links compute per-row delivery times."""
    times = None
    for channel in channels:
        if isinstance(channel, ArrayNetworkLink):
            if times is None:
                times = departures()
            channel.commit_rows(b, times + channel.latency)
        else:
            channel.commit_rows(b)


class BatchedSourceUnit(SourceUnit):
    """Array-slab variant of :class:`~repro.simulator.units.SourceUnit`.

    Inherits the scalar stepping (used on scalar-step cycles) and
    overrides only word materialization — channels carry array rows;
    the window executor slices ``rows`` into the stream's ring.
    """

    def __init__(self, name: str, data: np.ndarray, vector_width: int,
                 out_channels: Sequence, words_per_cycle: float = 1.0):
        super().__init__(name, data, vector_width, out_channels,
                         words_per_cycle)
        if (self._flat.dtype.kind == "u" and self._flat.size
                and int(self._flat.max()) > np.iinfo(np.int64).max):
            # Signed widths always fit; only huge uint64 values do not
            # (a wrapped int64 round-trips, so check the values).
            raise SimulationError(
                f"source {name!r}: integer values exceed int64's exact "
                f"range (2**63); use engine_mode='scalar'")
        # A native-dtype view of the input: the ring store casts each
        # chunk to the stream's slab dtype (int64 or float64, exact).
        self.rows = self._flat.reshape(self.num_words, vector_width)

    def _materialize_word(self):
        return self.rows[self.next_word]


class BatchedStencilUnit(StencilBookkeeping):
    """Vectorized variant of :class:`~repro.simulator.units.StencilUnit`.

    The unit owns no field data: its sliding windows *are* its inbound
    streams' rings (a pop is a counter advance, the popped words stay
    readable as history), every tap is a contiguous ring slice of
    ``lo + flat_offset`` cells, and computed words are stored once,
    straight into the ring its out-edges share, where they sit staged
    until the latency line — a ring of ready-times only — drains them
    (see ``docs/ARCHITECTURE.md``, "Batched data plane").

    ``coord_slabs`` carries the machine-wide :class:`CoordSlabs`
    shared by every stencil unit, so boundary masks are computed once
    per distinct offset vector.
    """

    def __init__(self, program: StencilProgram,
                 stencil: StencilDefinition,
                 in_channels: Dict[str, object],
                 out_channels: Sequence,
                 compute_latency: int,
                 max_batch_words: int,
                 coord_slabs: Optional[CoordSlabs] = None,
                 stream_meta=None):
        self.name = stencil.name
        self.program = program
        self.stencil = stencil
        self.in_channels = dict(in_channels)
        self.out_channels = list(out_channels)
        self.compute_latency = max(0, compute_latency)

        domain = program.shape
        self.domain = domain
        width = program.vectorization
        self.width = width
        self.num_cells = program.num_cells
        self.num_words = self.num_cells // width

        # The identical schedule the scalar unit derives, via the
        # array-mode compiler (argument order matches by design).
        self.compiled = compiled_stencil(stencil.ast, mode="array",
                                         code=stencil.canonical_code)
        fields = sorted(self.in_channels)
        (self.access_info, _readahead, self.init_words, self.pop_start,
         _min_flat) = schedule_reads(
            domain, width, program.index_names, self.compiled.accesses,
            fields)
        self.fields = fields

        # Slab dtypes mirror the scalar engine's exact Python numbers:
        # int64 for integer-typed streams, float64 otherwise (and for
        # integer streams that boundary fills can leak floats into).
        # The second element of the meta is the int-typedness seed of
        # the stream's lanes (see float_leaky_streams).  The simulator
        # passes its machine-wide resolver so the seeds match the edge
        # buffers exactly.
        if stream_meta is None:
            leaky = float_leaky_streams(program)

            def stream_meta(data: str):
                if not program.field_dtype(data).is_integer:
                    return np.float64, None
                leak = leaky.get(data)
                if leak is None:
                    return np.int64, True
                return np.float64, (True if leak == "nan" else None)

        self._field_int: Dict[str, Optional[bool]] = {
            field: stream_meta(field)[1] for field in fields}
        self.line_dtype = stream_meta(stencil.name)[0]

        # Machine-wide memoized per-offset boundary data; coordinates
        # only where the expression reads them (an access-free one also
        # takes its batch length from them).
        if coord_slabs is None:
            coord_slabs = CoordSlabs(domain)
        self._coords_all = coord_slabs.coords if (
            index_vars(stencil.ast) or not self.compiled.accesses) else ()
        self._access_boundary = [coord_slabs.boundary(full, width)
                                 for _access, full, _flat
                                 in self.access_info]

        # Latency line: a ring of ready-times; the words themselves sit
        # staged in the outbound stream's ring.
        self.line_capacity = self.compute_latency + 1
        self._line_times = _RowRing(self.line_capacity + max_batch_words
                                    + 1)

        self.local_step = 0
        self.stall_cycles = 0
        self.stall_after_init = 0
        self.first_push_cycle: Optional[int] = None
        self.last_push_cycle: Optional[int] = None
        self.words_pushed = 0
        self._block = ""

        boundary = stencil.boundary
        self.shrink = boundary.shrink
        self.boundary = boundary
        self.fill_value = math.nan

    @staticmethod
    def history_words(program: StencilProgram, stencil: StencilDefinition,
                      field: str) -> int:
        """Words behind its pop pointer that ``stencil`` still reads
        from the stream of ``field``: computing word ``w`` happens in
        the step that pops word ``w + readahead`` and reaches back to
        cell ``w * W + min(min_flat, 0)`` (the center, for copy
        boundaries) — the rows the inbound edge buffer must retain."""
        width = program.vectorization
        accesses = compiled_stencil(
            stencil.ast, mode="array", code=stencil.canonical_code).accesses
        _info, readahead, _init, _start, min_flat = schedule_reads(
            program.shape, width, program.index_names, accesses, [field])
        return readahead[field] - (min(min_flat[field], 0) // width)

    # -- introspection -------------------------------------------------------

    @property
    def line_head_time(self) -> int:
        return int(self._line_times.peek0())

    @property
    def done(self) -> bool:
        return (self.local_step >= self.init_words + self.num_words
                and not len(self._line_times))

    # -- scalar step (exact mirror of StencilUnit.step) ----------------------

    def step(self, now: int) -> bool:
        progressed = self._drain(now)
        if self.local_step >= self.init_words + self.num_words:
            return progressed
        needed = self.needed_fields()
        empty = [f for f in needed if self.in_channels[f].empty]
        if empty:
            self._note_stall(f"waiting on input(s) {empty}")
            return progressed
        if len(self._line_times) >= self.line_capacity:
            self._note_stall("output backpressure (latency line full)")
            return progressed
        for field in needed:
            self.in_channels[field].pop()
        if self.local_step >= self.init_words:
            self._line_push(
                self.compute_words(self.local_step - self.init_words, 1),
                np.asarray([now + self.compute_latency], dtype=np.int64))
        self.local_step += 1
        return True

    def _drain(self, now: int) -> bool:
        if not len(self._line_times):
            return False
        if self.line_head_time > now:
            return False
        if any(c.full for c in self.out_channels):
            return False
        self._line_times.pop_rows(1)
        for channel in self.out_channels:
            channel.push_staged()
        self._mark_pushed(now, 1)
        return True

    # -- slab operation (driven by the window executor) ----------------------

    def _line_push(self, rows: np.ndarray, times: np.ndarray):
        """Enter computed words into the latency line: the one store of
        each word, into the ring the outbound edges share."""
        stage_slab(self.out_channels, rows)
        self._line_times.push_rows(times)

    def compute_words(self, w0: int, b: int) -> np.ndarray:
        """Vectorized stencil evaluation of words ``[w0, w0 + b)``.

        Taps are views of the inbound edge buffers (and the result may
        alias one): the caller stores it before anything writes there.
        """
        width = self.width
        lo = w0 * width
        n = b * width
        hi = lo + n
        coords = tuple(c[lo:hi] for c in self._coords_all)
        args = []
        intish = []
        for (access, _full, flat), boundary in zip(
                self.access_info, self._access_boundary):
            stream = self.in_channels[access.field]
            values = stream.cells(lo + flat, n)
            # Lane int-typedness mirrors cell mode's Python values, not
            # the slab dtype: NaN-demoted integer streams ride float64
            # but their non-NaN lanes are still Python ints in cell
            # mode (see float_leaky_streams).
            base_int = self._field_int[access.field]
            lane_int = base_int
            if boundary is not None:
                in_bounds_all, oob_words = boundary
                # Binary-search the precomputed out-of-bounds word list
                # instead of scanning the batch's lanes.
                pos = int(np.searchsorted(oob_words, w0))
                if pos < oob_words.size and oob_words[pos] < w0 + b:
                    in_bounds = in_bounds_all[lo:hi]
                    if self.shrink:
                        fill = self.fill_value
                        fill_int = False
                    else:
                        condition = self.boundary.for_input(access.field)
                        if condition.kind == "constant":
                            fill = condition.value
                            fill_int = (isinstance(fill, int)
                                        and not isinstance(fill, bool))
                        else:  # copy: the center value
                            fill = stream.cells(lo, n)
                            fill_int = base_int is True
                    values = np.where(in_bounds, values, fill)
                    # Cell mode types each lane individually: an int
                    # fill on a float stream (or a float fill on an
                    # int stream) makes int-typedness per-lane.
                    if base_int is True and not fill_int:
                        lane_int = in_bounds
                    elif base_int is not True and fill_int:
                        lane_int = ~in_bounds
            args.append(values)
            intish.append(lane_int)
        out = self.compiled(args, coords, intish=intish,
                            out_dtype=self.line_dtype)
        return out.reshape(b, width)


class BatchedSinkUnit(SinkUnit):
    """Array-slab variant of :class:`~repro.simulator.units.SinkUnit`.

    Inherits the scalar stepping unchanged (an ``ArrayChannel`` pop
    yields a row, which the per-lane store consumes like a tuple) and
    adds the slab store.
    """

    def store_rows(self, rows: np.ndarray):
        """Range-check and store a slab of output words (the window
        executor accounts their arrival cycles itself)."""
        values = rows.reshape(-1)
        if self.flat.dtype.kind in "iu" and values.dtype != self.flat.dtype:
            # Mirror the scalar engine's per-lane store errors instead
            # of NumPy's silent wraparound on slab assignment: NaN and
            # infinity raise ValueError, out-of-range integers raise
            # OverflowError.
            info = np.iinfo(self.flat.dtype)
            if values.dtype.kind == "f":
                if not np.isfinite(values).all():
                    kind = "NaN" if np.isnan(values).any() else "infinity"
                    raise ValueError(
                        f"cannot convert float {kind} to integer")
                checked = np.trunc(values)  # the store truncates first
                # Compare against float bounds: float(info.max) rounds
                # *up* to 2**63 for int64, so the inclusive integer
                # comparison would pass values at exactly 2**63.
                out_of_range = ((checked < float(info.min))
                                | (checked >= float(info.max) + 1.0))
            else:
                checked = values
                out_of_range = (checked < info.min) | (checked > info.max)
            if out_of_range.any():
                bad = values[out_of_range][0]
                raise OverflowError(
                    f"Python integer {int(bad)} out of bounds for "
                    f"{self.flat.dtype}")
        base = self.received * self.width
        self.flat[base:base + values.size] = values
        self.received += values.size // self.width


class _WindowEvents:
    """Per-unit event record over one virtually executed window:
    which window-relative cycles each action fires on (the per-cycle
    masks the window executor replays as slabs)."""

    __slots__ = ("pushes", "advances", "line_pushes", "drains",
                 "arrivals", "stalls", "stalls_after_init",
                 "first_compute_local", "block")

    def __init__(self, drains: List[int]):
        self.pushes: List[int] = []       # source push cycle offsets
        self.advances = 0                 # stencil words consumed
        self.line_pushes: List[int] = []  # stencil compute offsets
        self.drains = drains              # stencil output-push offsets
        self.arrivals: List[int] = []     # sink arrival offsets
        self.stalls = 0
        self.stalls_after_init = 0
        self.first_compute_local: Optional[int] = None
        # What blocked the unit on its last stalled cycle, as data (the
        # executor renders the diagnostic): full channel names for a
        # source, empty field names for a stencil (None: line full).
        self.block: Optional[List[str]] = None


class _WindowPlan:
    """A virtually executed window of ``period`` cycles, proven to
    repeat ``repeats`` times from the live machine state."""

    __slots__ = ("period", "repeats", "events", "chan_push", "chan_pop",
                 "chan_deliver", "chan_peak", "end_credit",
                 "trailing_idle", "drift")

    def __init__(self):
        self.period = 0   # cycles stepped so far
        self.repeats = 1
        # True when the repeats were proven congruent modulo a nonzero
        # counter drift (ramp/drain transient batching).
        self.drift = False
        self.events: List[_WindowEvents] = []   # in unit order
        # Words moved per window: per channel slot (push, pop, peak
        # occupancy) and per link (deliveries, closing credit).
        self.chan_push: List[int] = []
        self.chan_pop: List[int] = []
        self.chan_peak: List[int] = []
        self.chan_deliver: List[int] = []
        self.end_credit: List[float] = []
        # The scalar engine's zero-progress streak after the (last)
        # window's final cycle, carried so a following standstill
        # still deadlocks on the same cycle.
        self.trailing_idle = 0

    @property
    def cycles(self) -> int:
        return self.period * self.repeats


def _window_times(offsets: Sequence[int], base: int, period: int,
                  repeats: int) -> np.ndarray:
    """Absolute cycles of an event firing at window-relative ``offsets``
    in each of ``repeats`` consecutive windows starting at ``base``."""
    offs = np.asarray(offsets, dtype=np.int64)
    starts = _iota(repeats) * period + base
    return (starts[:, None] + offs[None, :]).reshape(-1)


def _fifo_repeats(start: List[int], end: Sequence[int],
                  pops: List[int], now: int, q: int,
                  strict_only: bool) -> float:
    """How many consecutive windows a timed FIFO — a link's in-flight
    ring, a stencil's latency line — replays window 1's pops (0: not
    even congruent), given its ready-times at window ``start`` and
    ``end`` and the window-relative cycles it popped on.

    Strict case: every time shifted by exactly ``q``, so the FIFO is
    window 1's translated in time and replays indefinitely.  Otherwise
    the times themselves are checked, provided window 1 never consulted
    the FIFO and found it empty or its head immature (``strict_only``;
    also set for links at >= 1 word/cycle): repeats 2..k pop entries
    ``start[n:k*n]``, all queued before the window (pushes land behind
    them), each of which must be mature on the very cycle it is popped.
    """
    if len(end) == len(start) and all(
            e == s + q for e, s in zip(end, start)):
        return _INF
    if strict_only:
        return 0
    n = len(pops)
    if not n:
        return _INF
    k = len(start) // n
    if k > 1:
        due = (now + q * _iota(k)[1:, None]
               + np.asarray(pops, dtype=np.int64))
        late = (np.asarray(start[n:k * n], dtype=np.int64)
                .reshape(k - 1, n) > due).any(axis=1)
        if late.any():
            k = 1 + int(np.argmax(late))
    return k


#: Unit kinds of the window planner's counter-machine tables.
_SOURCE, _STENCIL, _SINK = range(3)


class BatchedSimulator(Simulator):
    """Drop-in :class:`~repro.simulator.engine.Simulator` replacement
    executing deterministic stretches as NumPy batches, cut by one
    planner: a virtually stepped window of ``q`` cycles (the LCM of the
    fractional-rate links' delivery periods, 1 without one) and a
    congruence proof of how often it repeats.

    Observable behaviour — outputs (bitwise), cycle count, stall
    counters, occupancy high-water marks, deadlock diagnostics — is
    identical to the scalar engine by construction; see the module
    docstring for the invariant and
    ``tests/test_engine_equivalence.py`` for the enforcement.

    Planner statistics are exposed for tests and benchmarks after
    :meth:`run`: ``plan_count`` planner invocations,
    ``window_count`` the windows they led to execute,
    ``window_cycles`` the cycles those covered, ``virtual_cycles`` the
    cycles the planner stepped on counter state to get there and
    ``scalar_cycles`` the cycles taken as true scalar steps (fault
    windows, a rate-limited source, the cycle a deadlock is raised on).
    """

    #: Upper bound on the window period (the LCM of the link delivery
    #: periods); machines whose LCM exceeds this plan period-1 windows.
    MAX_WINDOW = 4096

    #: How many periods a non-repeating window (ramp/drain transient)
    #: may stretch at most: the virtual schedule stays exact for any
    #: length, so stretching amortizes the slab pass over many periods.
    WINDOW_STRETCH = 64

    #: Fewest cycles a non-repeating window stretches before it may end
    #: on a regular-looking period: an executed window costs a slab
    #: pass over every unit, about as much host time as 25-40 virtual
    #: cycles, so shorter windows lose more than they save.
    MIN_STRETCH = 48

    def __init__(self, analysis, config=None,
                 device_of: Optional[Mapping[str, int]] = None):
        super().__init__(analysis, config, device_of=device_of)
        self.plan_count = 0
        self.scalar_cycles = 0
        self.window_count = 0
        self.window_cycles = 0
        self.drift_window_count = 0
        self.virtual_cycles = 0
        # Current lower bound on a non-repeating window's stretch
        # (cycles): doubled after each window that failed to repeat,
        # reset by one that did (see _plan_window).
        self._stretch_floor = self.MIN_STRETCH
        # Window sizes feed the run profile's histogram; capped so a
        # pathological sweep of tiny windows cannot grow the list
        # unboundedly (the count/cycle totals above stay exact).
        self._window_sizes: List[int] = []
        # Per producing node: its stream's one ring, its edges' layouts.
        self._rings: Dict[str, Tuple[np.ndarray, dict]] = {}
        # What _bind_native did to this run's stencil units.
        self._native = None

    def _make_profile(self, cycles: int,
                      wall_seconds: float) -> EngineProfile:
        chans = self.channels.values()
        native = self._native.profile() if self._native else {}
        return EngineProfile(engine="batched", cycles=cycles,
                             wall_seconds=wall_seconds, **native,
                             ring_bytes=sum({id(c._buf): c._buf.nbytes
                                             for c in chans}.values()),
                             stored_words=sum(c.stored for c in chans),
                             plan_count=self.plan_count,
                             scalar_cycles=self.scalar_cycles,
                             window_count=self.window_count,
                             window_cycles=self.window_cycles,
                             window_sizes=tuple(self._window_sizes),
                             drift_windows=self.drift_window_count,
                             virtual_cycles=self.virtual_cycles)

    # -- construction --------------------------------------------------------

    def _batch_cap(self) -> int:
        """Largest batch this machine will ever execute: the configured
        cap, clamped to the program's word count so ring headroom and
        window allocations stay proportional to small domains."""
        num_words = self.program.num_cells // self.program.vectorization
        return max(1, min(self.config.max_batch_words, num_words))

    def _stream_meta(self, data: str):
        """``(slab dtype, int-typedness seed)`` of the stream carrying
        field ``data``: int64 slabs for integer-typed streams, float64
        otherwise and for integer streams that boundary fills can leak
        floats into.
        The seed is True when every non-NaN cell value is a Python int
        in the scalar engine (see :func:`float_leaky_streams`)."""
        cache = getattr(self, "_stream_metas", None)
        if cache is None:
            cache = self._stream_metas = {}
            self._float_leaky = float_leaky_streams(self.program)
        if data not in cache:
            if self.program.field_dtype(data).is_integer:
                leak = self._float_leaky.get(data)
                if leak is None:
                    cache[data] = (np.int64, True)
                else:
                    cache[data] = (np.float64,
                                   True if leak == "nan" else None)
            else:
                cache[data] = (np.float64, None)
        return cache[data]

    def _coord_slabs(self):
        slabs = getattr(self, "_coords", None)
        if slabs is None:
            slabs = self._coords = CoordSlabs(self.program.shape)
        return slabs

    def _stream_width(self) -> int:
        """Lanes per streamed word (the control engine narrows it to 0)."""
        return self.program.vectorization

    def _edge_layout(self, key) -> dict:
        """Ring rows edge ``key`` needs beyond its FIFO capacity:
        ``headroom`` for one maximum batch in transit plus the
        producing stencil's latency line (its words are stored in the
        ring from the moment they are computed), ``history`` for the
        consumed words the consuming stencil's taps still read."""
        src, dst, data = key
        headroom = self._batch_cap()
        if src.startswith("stencil:"):
            headroom += max(
                0, self.analysis.node_delays[src].compute_cycles) + 1
        history = 0
        kind, _, name = dst.partition(":")
        if kind == "stencil":
            history = BatchedStencilUnit.history_words(
                self.program, self.program.stencil(name), data)
        return {"headroom": headroom, "history": history,
                "dtype": self._stream_meta(data)[0]}

    def _edge_storage(self, key) -> dict:
        """Storage keywords of edge ``key``: its layout plus ``buf``,
        the ring of the stream its source node produces, shared by all
        that node's out-edges — as many rows as the neediest of them
        would want alone (``capacity + headroom + history + 1``); see
        ``docs/ARCHITECTURE.md`` for why a laggard is never overwritten."""
        stream = self._rings.get(key[0])
        if stream is None:
            layouts = {k: self._edge_layout(k) for k in (
                (e.src, e.dst, e.data)
                for e in self.graph.out_edges(key[0]))}
            rows = max(self._fifo_capacity(k) + 1 + layout["headroom"]
                       + layout["history"] for k, layout in layouts.items())
            ring = np.zeros((rows, self._stream_width()),
                            dtype=layouts[key]["dtype"])
            stream = self._rings[key[0]] = (ring, layouts)
        return dict(stream[1][key], buf=stream[0])

    def _make_channel(self, key, name: str, capacity: int, data: str):
        return ArrayChannel(name, capacity, self._stream_width(),
                            **self._edge_storage(key))

    def _make_link(self, key, name: str, capacity: int, data: str):
        config = self.config
        return ArrayNetworkLink(
            name, capacity, self._stream_width(),
            latency=config.network_latency,
            words_per_cycle=config.link_rate(key),
            **self._edge_storage(key))

    def _make_source(self, name: str, data: np.ndarray, outs):
        return BatchedSourceUnit(name, data, self.program.vectorization,
                                 outs)

    def _make_stencil(self, stencil, ins, outs, latency: int):
        return BatchedStencilUnit(self.program, stencil, ins, outs, latency,
                                  self._batch_cap(),
                                  coord_slabs=self._coord_slabs(),
                                  stream_meta=self._stream_meta)

    def _make_sink(self, name: str, channel, dtype):
        return BatchedSinkUnit(name, channel, self.program.shape,
                               self.program.vectorization, dtype)

    def _bind_native(self, stencil_units):
        """Swap each eligible unit's ``compute_words`` for this
        machine's compiled kernel (:mod:`.native`) — the one place the
        native code is bound, for ring windows and the replay pass.
        The control engine (zero lanes) computes nothing to bind."""
        # Deferred: native builds on kernel.py, which imports this module.
        from .native import bind_native
        if self._stream_width():
            self._native = bind_native(stencil_units,
                                       self.program.num_cells)

    def _build(self, inputs):
        super()._build(inputs)
        self._bind_native([unit for unit in self.units
                           if isinstance(unit, BatchedStencilUnit)])
        # Topological unit order (producers strictly before consumers),
        # used by the window executor: whole-window slabs are applied
        # unit by unit, so every read must find its rows already
        # written.  Unit order itself is not guaranteed topological
        # (stencils appear in program order).
        producer_idx: Dict[int, int] = {}
        consumer_idx: Dict[int, int] = {}
        for idx, unit in enumerate(self.units):
            for channel in getattr(unit, "out_channels", []):
                producer_idx[id(channel)] = idx
            for channel in getattr(unit, "in_channels", {}).values():
                consumer_idx[id(channel)] = idx
            if hasattr(unit, "in_channel"):
                consumer_idx[id(unit.in_channel)] = idx
        succ: Dict[int, List[int]] = {i: [] for i in range(len(self.units))}
        indeg = [0] * len(self.units)
        for key, prod in producer_idx.items():
            cons = consumer_idx.get(key)
            if cons is not None:
                succ[prod].append(cons)
                indeg[cons] += 1
        heap = [i for i, degree in enumerate(indeg) if degree == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            i = heapq.heappop(heap)
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, j)
        self._topo_units = order if len(order) == len(self.units) \
            else list(range(len(self.units)))

        # Counter-machine tables of the window planner, built once so a
        # virtual cycle does no id(), isinstance or by-id dict lookup.
        # A channel is its slot t in [0, C); per slot: its capacity,
        # the counter slot of its ready count (t itself on a plain
        # channel, whose ready count *is* its total; C + j on link j),
        # its FIFO slot (j for link j's in-flight ring, else -1) and
        # its wire latency.  Latency line s has FIFO slot L + s and
        # counter slot C + L + s.
        chans = self._chan_list = list(self.channels.values())
        slot = {id(c): t for t, c in enumerate(chans)}
        n_chan, n_link = len(chans), len(self.links)
        ready_of, fifo_of = list(range(n_chan)), [-1] * n_chan
        for j, link in enumerate(self.links):
            ready_of[slot[id(link)]] = n_chan + j
            fifo_of[slot[id(link)]] = j
        self._vm_links = [slot[id(link)] for link in self.links]
        self._vm_chans = ([c.capacity for c in chans], ready_of, fifo_of,
                          [getattr(c, "latency", 0) for c in chans])
        # Per unit: (kind, unit, out slots, schedule phase boundaries,
        # ...); a sink adds its in slot, a stencil its in slots, the
        # needed (field, slot) pairs per pop phase as (end step,
        # pairs), its line's FIFO and counter slots, line capacity,
        # compute latency, init words and final step.
        self._vm_units = table = []
        fifo = n_link
        for unit in self.units:
            outs = tuple(slot[id(c)]
                         for c in getattr(unit, "out_channels", ()))
            if isinstance(unit, BatchedSourceUnit):
                table.append((_SOURCE, unit, outs, (unit.num_words,)))
            elif isinstance(unit, BatchedStencilUnit):
                words, start = unit.num_words, unit.pop_start
                end = unit.init_words + words
                ins = {f: slot[id(unit.in_channels[f])]
                       for f in unit.fields}
                cuts = sorted({cut for first in start.values()
                               for cut in (first, first + words)})
                phases = [(cut, tuple(
                    (f, t) for f, t in ins.items()
                    if start[f] < cut <= start[f] + words))
                    for cut in cuts] + [(end, ())]
                table.append((_STENCIL, unit, outs,
                              (unit.init_words, end, *cuts),
                              tuple(ins.values()), phases,
                              fifo, n_chan + fifo, unit.line_capacity,
                              unit.compute_latency, unit.init_words, end))
                fifo += 1
            else:
                table.append((_SINK, unit, (), (unit.num_words,),
                              slot[id(unit.in_channel)]))

    # -- planning ------------------------------------------------------------
    #
    # One planner (see the module docstring): step ``q`` cycles on
    # counter state, recording per-cycle delivery masks and unit
    # actions; prove how often the window repeats; execute all ``k * q``
    # cycles as single NumPy slabs per unit.
    #
    # Congruence has two rules (docs/ARCHITECTURE.md, "The planner").
    # Every decision of a cycle is either a threshold test on a counter
    # (channel occupancy, link ready count, latency-line length) or a
    # head-maturity test on a timed FIFO (a link's in-flight ring, a
    # stencil's latency line), plus the credit schedule.  Counters may
    # drift by a constant per window as long as no recorded decision
    # margin is crossed; a FIFO must be window 1's shifted by exactly
    # q, or never have made window 1 wait (then its already-queued
    # entries are checked against the cycles they will be popped on);
    # credits must return to their start values.  Identical decisions
    # give identical actions shifted by q, so the ramp and drain
    # transients — and a stall that lasts while links hold words —
    # repeat as well as the steady state.  What does not repeat is
    # stretched over many periods instead (exact for any length),
    # ending once the machine looks periodic.

    def _window_period(self) -> int:
        """Cycles per planned window: the LCM of the fractional-rate
        links' delivery periods; 1 without such a link, and when a
        rate has no finite schedule or the LCM exceeds ``MAX_WINDOW``
        (period-1 windows are exact at any rate, they only repeat
        less).  0 — never plan — with a rate-limited source, whose
        credit the counter machine does not model: that machine runs
        on the shared scalar step."""
        if any(isinstance(unit, BatchedSourceUnit)
               and unit.words_per_cycle != 1.0 for unit in self.units):
            return 0
        q = 1
        for link in self.links:
            g = link.delivery_period()
            if g is None:
                return 1
            q = math.lcm(q, g)
            if q > self.MAX_WINDOW:
                return 1
        return q

    def _plan_window(self, now: int, q: int, horizon: int,
                     idle_in: int) -> Optional[_WindowPlan]:
        """Virtually execute ``q`` cycles of the machine on counter
        state, mirroring the scalar engine's per-cycle semantics
        exactly, and prove how often they repeat before ``horizon``.
        ``idle_in`` is the zero-progress streak the deadlock detector
        has counted so far; the window ends before a cycle it could
        fire on.  Returns the window plan, or ``None`` when no window
        can start here: fewer than ``q`` cycles of room, more slab
        traffic in ``q`` cycles than a ring has headroom for, or a
        first cycle the detector may fire on."""
        self.plan_count += 1
        if horizon - now < q:
            return None
        plan = _WindowPlan()
        chans, links, units = (self._chan_list, self._vm_links,
                               self._vm_units)
        capacity, ready_of, fifo_of, latency_of = self._vm_chans
        n_chan, n_link = len(chans), len(links)

        # Virtual machine state, seeded from the live machine: channel
        # counters and timed FIFOs (slots as laid out in _build), link
        # credits, per-unit progress (source words pushed, stencil
        # local step, sink words received) and the work left before
        # the run completes (steps + latency-line words + words).
        cnt = [len(c) for c in chans]
        fifos: List[Deque[int]] = []
        limiters: List[RateLimiter] = []
        # A FIFO whose consultations ever found it empty or its head
        # immature only replays under the strict rule (_fifo_repeats).
        strict_only: List[bool] = []
        for t in links:
            link = chans[t]
            cnt.append(cnt[t] - link.in_flight_len)
            fifos.append(deque(link.in_flight_times().tolist()))
            limiter = RateLimiter(link.words_per_cycle)
            limiter.credit = link.credit
            limiters.append(limiter)
            strict_only.append(limiter.rate >= 1.0)
        pops: List[List[int]] = [[] for _ in range(n_link)]
        pos: List[int] = []
        need: List[Optional[Tuple]] = []
        events = plan.events
        remaining = 0
        for entry in units:
            unit = entry[1]
            drains: List[int] = []
            if entry[0] == _STENCIL:
                step, phases = unit.local_step, entry[5]
                line = deque(unit._line_times.snapshot().tolist())
                fifos.append(line)
                strict_only.append(False)
                pops.append(drains)
                need.append(next((p for p in phases if step < p[0]),
                                 phases[-1]))
                remaining += max(entry[11] - step, 0) + len(line)
            else:
                step = unit.next_word if entry[0] == _SOURCE \
                    else unit.received
                need.append(None)
                remaining += max(unit.num_words - step, 0)
            pos.append(step)
            events.append(_WindowEvents(drains))
        start_cnt, start_pos = list(cnt), list(pos)
        start_credit = [limiter.credit for limiter in limiters]
        start_fifo = [list(fifo) for fifo in fifos]
        start_remaining = remaining

        pushed = plan.chan_push = [0] * n_chan
        popped = plan.chan_pop = [0] * n_chan
        peak = plan.chan_peak = [0] * n_chan
        # Largest per-channel / per-line word count moved so far (ring
        # headroom is sized for one batch cap of slab traffic).
        traffic = 0

        # Decision margins over window 1, one table for every counter
        # (channel totals, link ready counts, line lengths): each
        # decision below is a threshold test ``value >= limit`` on a
        # counter that moves linearly under repeated actions, so in
        # repeat k it sees window 1's value displaced by (k-1)*d, d the
        # counter's per-window drift.  ``over[i]`` is the least excess
        # of a test that held (bounds a falling counter), ``under[i]``
        # the least slack of one that failed (bounds a rising one).
        # Margins are recorded only for tests that actually ran, which
        # is exactly the set replayed in every repeat.
        big = 1 << 62
        over = [big] * (n_chan + len(fifos))
        under = [big] * (n_chan + len(fifos))

        def at_least(i: int, value: int, limit: int) -> bool:
            if value >= limit:
                if value - limit < over[i]:
                    over[i] = value - limit
                return True
            if limit - 1 - value < under[i]:
                under[i] = limit - 1 - value
            return False

        def push_to(t: int, now_v: int):
            nonlocal traffic
            cnt[t] = occupancy = cnt[t] + 1
            if occupancy > peak[t]:
                peak[t] = occupancy
            pushed[t] = count = pushed[t] + 1
            if count > traffic:
                traffic = count
            if fifo_of[t] >= 0:
                fifos[fifo_of[t]].append(now_v + latency_of[t])

        def pop_from(t: int):
            nonlocal traffic
            cnt[t] -= 1
            if ready_of[t] != t:
                cnt[ready_of[t]] -= 1
            popped[t] = count = popped[t] + 1
            if count > traffic:
                traffic = count

        def run_cycle(off: int) -> bool:
            nonlocal remaining, traffic
            self.virtual_cycles += 1
            now_v = now + off
            progressed = False
            for j, limiter in enumerate(limiters):
                limiter.refill()
                flight = fifos[j]
                while flight and limiter.credit >= 1.0 \
                        and flight[0] <= now_v:
                    flight.popleft()
                    cnt[n_chan + j] += 1
                    limiter.spend()
                    pops[j].append(off)
                    if len(pops[j]) > traffic:
                        traffic = len(pops[j])
                if limiter.credit >= 1.0:
                    # Credit to spare: the ring was empty or its head
                    # still on the wire, so the delivery mask was not
                    # purely credit-driven.
                    strict_only[j] = True
            for i, entry in enumerate(units):
                kind = entry[0]
                ev = events[i]
                if kind == _STENCIL:
                    (_, _, outs, _, _, phases, f, slot, line_cap,
                     latency, init, end) = entry
                    line = fifos[f]
                    if not line or line[0] > now_v:
                        strict_only[f] = True
                    else:
                        # The short-circuit mirrors the scalar engine.
                        for t in outs:
                            if at_least(t, cnt[t], capacity[t]):
                                break
                        else:
                            line.popleft()
                            for t in outs:
                                push_to(t, now_v)
                            ev.drains.append(off)
                            remaining -= 1
                            progressed = True
                    step = pos[i]
                    if step >= end:
                        continue
                    if step >= need[i][0]:
                        need[i] = next(p for p in phases if step < p[0])
                    needed = need[i][1]
                    empty = None
                    for field, t in needed:
                        if not at_least(ready_of[t], cnt[ready_of[t]], 1):
                            empty = empty or []
                            empty.append(field)
                    if empty or at_least(slot, len(line), line_cap):
                        ev.stalls += 1
                        if step >= init:
                            ev.stalls_after_init += 1
                        ev.block = empty
                        continue
                    for _field, t in needed:
                        pop_from(t)
                    if step >= init:
                        line.append(now_v + latency)
                        ev.line_pushes.append(off)
                        if len(ev.line_pushes) > traffic:
                            traffic = len(ev.line_pushes)
                        if ev.first_compute_local is None:
                            ev.first_compute_local = step
                    else:
                        remaining -= 1
                    ev.advances += 1
                    pos[i] = step + 1
                    progressed = True
                elif kind == _SOURCE:
                    if pos[i] >= entry[3][0]:
                        continue
                    full = [chans[t].name for t in entry[2]
                            if at_least(t, cnt[t], capacity[t])]
                    if full:
                        ev.stalls += 1
                        ev.block = full
                        continue
                    for t in entry[2]:
                        push_to(t, now_v)
                    ev.pushes.append(off)
                    pos[i] += 1
                    remaining -= 1
                    progressed = True
                else:  # sink
                    if pos[i] >= entry[3][0]:
                        continue
                    t = entry[4]
                    if not at_least(ready_of[t], cnt[ready_of[t]], 1):
                        ev.stalls += 1
                        continue
                    pop_from(t)
                    ev.arrivals.append(off)
                    pos[i] += 1
                    remaining -= 1
                    progressed = True
            return progressed

        def links_hold_words() -> bool:
            """The deadlock detector's test on a zero-progress cycle:
            it cannot fire while any link holds a word.  The witness
            link's margin keeps it holding one in every repeat."""
            for t in links:
                if cnt[t]:
                    over[t] = min(over[t], cnt[t] - 1)
                    return True
            return False

        # The deadlock detector's state: the streak of zero-progress
        # cycles (the scalar loop's ``idle_streak``), which it reads on
        # a zero-progress cycle with empty links.  Link occupancy only
        # changes with unit progress, so links empty before such a
        # cycle are empty after it: the window ends before a cycle
        # that could complete the streak, and the main loop takes that
        # one as a shared scalar step — the raise, its cycle and its
        # diagnostic stay the oracle's.
        idle = idle_in
        deadline = self.config.deadlock_window - 1
        last = -1        # offset of the latest cycle that made progress
        frozen = False   # a zero-progress cycle ran with empty links

        def advance() -> bool:
            """Step the window's next cycle, unless the run is complete
            (the scalar loop exits there) or the detector could fire."""
            nonlocal idle, last, frozen
            if not remaining or (idle >= deadline
                                 and not links_hold_words()):
                return False
            if run_cycle(plan.period):
                last, idle = plan.period, 0
            else:
                idle += 1
                if not links_hold_words():
                    frozen = True
            plan.period += 1
            return True

        while plan.period < q and advance():
            pass
        if not plan.period:
            return None

        # Ring headroom: a channel's or latency line's slab traffic per
        # executed stretch must fit the batch headroom (a stall moves
        # nothing, and is bounded by the horizon alone).
        cap = self._batch_cap()
        if traffic > cap:
            return None
        repeats = (horizon - now) // q
        if traffic:
            repeats = min(repeats, cap // traffic)
        if plan.period < q or frozen:
            # Cut short, or idle with empty links: the streak such a
            # window starts its repeats on differs from ``idle_in``, so
            # it is executed once (and stretched, below).
            repeats = 1

        # Congruence: window 2 must make window 1's decisions, shifted
        # by q cycles — then so does every further window, until a
        # margin, a FIFO entry or a schedule phase runs out.  Credits
        # must return to their start values exactly; every timed FIFO
        # passes the one rule of _fifo_repeats; every counter may end
        # displaced by a constant drift, bounded by its margins.
        if [limiter.credit for limiter in limiters] != start_credit:
            repeats = 0
        for f, fifo in enumerate(fifos):
            if repeats < 2:
                break
            repeats = min(repeats, _fifo_repeats(
                start_fifo[f], fifo, pops[f], now, q, strict_only[f]))
        drift = [end - start for end, start in zip(cnt, start_cnt)] + [
            len(end) - len(start)
            for end, start in zip(fifos[n_link:], start_fifo[n_link:])]
        for i, d in enumerate(drift):
            if d > 0:
                repeats = min(repeats, 1 + under[i] // d)
            elif d < 0:
                repeats = min(repeats, 1 + over[i] // -d)
        # Phase bound: repeats 2..k replay window 1's decisions only
        # while no unit crosses a schedule boundary (pop windows, init
        # fill, completion), so clamp k strictly below the nearest one
        # — stall cycles *after* a unit's last word in a window are
        # only accounted correctly while the unit is not yet done, so
        # even landing exactly on a boundary at the window end is left
        # to the next window.  Likewise the run must not complete
        # inside the repeats (the scalar loop exits there).
        for entry, step, moved in zip(units, start_pos, pos):
            moved -= step
            if moved:
                for bound in entry[3]:
                    if bound > step:
                        repeats = min(repeats,
                                      (bound - step - 1) // moved)
        if remaining < start_remaining:
            repeats = min(repeats, (start_remaining - 1)
                          // (start_remaining - remaining))
        if repeats >= 2:
            plan.repeats = int(repeats)
            plan.drift = any(drift)
            # Window 1's recorded peak is the lowest of the repeats on
            # a filling channel; the true high-water mark lands in the
            # last repeat.
            for t in range(n_chan):
                if drift[t] > 0:
                    peak[t] += (plan.repeats - 1) * drift[t]
            self._stretch_floor = self.MIN_STRETCH
        else:
            # Transient that does not (yet) repeat: the virtual
            # schedule is exact for any stretch, so keep extending it
            # and amortize the slab pass over many periods — until two
            # consecutive periods moved every unit alike (the next
            # window will likely repeat), but never below the floor.
            limit = min(q * self.WINDOW_STRETCH, horizon - now)
            floor = self._stretch_floor
            self._stretch_floor = min(2 * floor, q * self.WINDOW_STRETCH)
            mark, moved = start_pos, None
            while plan.period < limit and traffic < cap:
                if not plan.period % q:
                    step = [a - b for a, b in zip(pos, mark)]
                    if step == moved and plan.period >= floor:
                        break
                    mark, moved = list(pos), step
                if not advance():
                    break
        # The streak the scalar loop would hold after the last cycle: a
        # window without progress extends the one it was handed.
        plan.trailing_idle = idle if last >= 0 \
            else idle + (plan.repeats - 1) * q
        plan.chan_deliver = [len(offsets) for offsets in pops[:n_link]]
        plan.end_credit = [limiter.credit for limiter in limiters]
        return plan

    # -- execution -----------------------------------------------------------

    def _execute_window(self, plan: _WindowPlan, now: int):
        """Apply ``plan.repeats`` windows as one slab pass in
        topological unit order.  All per-cycle accounting (times,
        stalls, continuity, occupancy peaks) comes from the virtual
        window's event offsets, so the terminal state is exactly what
        ``plan.cycles`` scalar cycles would have produced."""
        k = plan.repeats
        chans, fifo_of = self._chan_list, self._vm_chans[2]
        for i in self._topo_units:
            entry, ev = self._vm_units[i], plan.events[i]
            (self._window_source, self._window_stencil,
             self._window_sink)[entry[0]](entry, ev, plan, now)
            # Deliveries follow the producer's slab so the in-flight
            # ring holds every row they move; consumers come later in
            # topological order.
            for t in entry[2]:
                if fifo_of[t] >= 0 and plan.chan_deliver[fifo_of[t]]:
                    chans[t].deliver_rows(
                        plan.chan_deliver[fifo_of[t]] * k)
        for link, credit in zip(self.links, plan.end_credit):
            link.sync_credit(credit)
        for channel, pushed, popped, peak in zip(
                chans, plan.chan_push, plan.chan_pop, plan.chan_peak):
            channel.pushes += pushed * k
            channel.pops += popped * k
            if peak > channel.max_occupancy:
                channel.max_occupancy = peak

    def _window_source(self, entry, ev: _WindowEvents, plan: _WindowPlan,
                       now: int):
        unit = entry[1]
        count = len(ev.pushes) * plan.repeats
        if count:
            stage_slab(unit.out_channels,
                       unit.rows[unit.next_word:unit.next_word + count])
            _commit_slab(unit.out_channels, count, lambda: _window_times(
                ev.pushes, now, plan.period, plan.repeats))
            unit.next_word += count
        if ev.stalls:
            unit.stall_cycles += ev.stalls * plan.repeats
            unit._block = f"output full: {ev.block}"

    def _window_stencil(self, entry, ev: _WindowEvents, plan: _WindowPlan,
                        now: int):
        unit = entry[1]
        q, k = plan.period, plan.repeats
        for t in entry[4]:
            if plan.chan_pop[t]:
                self._chan_list[t].skip_rows(plan.chan_pop[t] * k)
        computed = len(ev.line_pushes) * k
        if computed:
            unit._line_push(
                unit.compute_words(
                    ev.first_compute_local - unit.init_words, computed),
                _window_times(ev.line_pushes, now, q, k)
                + unit.compute_latency)
        drained = len(ev.drains) * k
        if drained:
            unit._line_times.pop_rows(drained)
            _commit_slab(unit.out_channels, drained,
                         lambda: _window_times(ev.drains, now, q, k))
            if unit.first_push_cycle is None:
                unit.first_push_cycle = now + ev.drains[0]
            unit.last_push_cycle = now + (k - 1) * q + ev.drains[-1]
            unit.words_pushed += drained
        unit.local_step += ev.advances * k
        if ev.stalls:
            unit.stall_cycles += ev.stalls * k
            unit.stall_after_init += ev.stalls_after_init * k
            unit._block = (f"waiting on input(s) {ev.block}" if ev.block
                           else "output backpressure (latency line full)")

    def _window_sink(self, entry, ev: _WindowEvents, plan: _WindowPlan,
                     now: int):
        unit = entry[1]
        q, k = plan.period, plan.repeats
        count = len(ev.arrivals) * k
        if count:
            unit.store_rows(unit.in_channel.read_rows(count))
            if unit.first_word_cycle is None:
                unit.first_word_cycle = now + ev.arrivals[0]
            unit.last_word_cycle = now + (k - 1) * q + ev.arrivals[-1]
        if ev.stalls:
            unit.stall_cycles += ev.stalls * k
            unit._block = "waiting on producer"

    # -- main loop -----------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Simulate to completion; see :meth:`Simulator.run`."""
        self._build(inputs)
        expected = self._expected_cycles()
        max_cycles = self._max_cycles(expected)
        period = self._window_period()
        faults = self._faults
        now = 0
        idle_streak = 0
        while not all(u.done for u in self.units):
            if now >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(expected ~{expected})")
            # Inside a fault window every cycle runs through the shared
            # scalar step — fault semantics stay identical to the
            # reference engine by construction.
            fault_active = faults is not None and faults.any_active(now)
            window = None
            if period and not fault_active:
                # Never plan across a fault boundary: when inactive at
                # ``now``, the next boundary is a window start strictly
                # ahead, so the horizon keeps at least one cycle.
                horizon = max_cycles
                if faults is not None:
                    boundary = faults.next_boundary(now)
                    if boundary is not None:
                        horizon = min(horizon, boundary)
                window = self._plan_window(now, period, horizon,
                                           idle_streak)
                if window is None and period > 1:
                    # No room or ring headroom for the LCM window: one
                    # cycle moves at most one word per channel.
                    window = self._plan_window(now, 1, horizon,
                                               idle_streak)
            if window is not None:
                self._execute_window(window, now)
                self.window_count += 1
                self.window_cycles += window.cycles
                if window.drift:
                    self.drift_window_count += 1
                if len(self._window_sizes) < MAX_WINDOW_SAMPLES:
                    self._window_sizes.append(window.cycles)
                now += window.cycles
                idle_streak = window.trailing_idle
                continue
            # Exact scalar step, as the scalar engine's loop takes it:
            # fault windows (whose frozen cycles never count toward the
            # deadlock detector), a rate-limited source, and the cycle
            # the detector may fire on.
            self.scalar_cycles += 1
            if self._step_cycle(now) or fault_active:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= self.config.deadlock_window and \
                        not self._links_hold_words():
                    raise deadlock_error(self.units, now, simulator=self)
            now += 1

        return self._collect_result(now)
