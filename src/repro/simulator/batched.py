"""The batched NumPy execution engine: plan, then execute.

Simulated control flow — cycles, stalls, occupancy, the Fig. 4
deadlock — never depends on the streamed values, so the engine runs in
two stages with a :class:`Schedule` value between them:

1. :meth:`BatchedSimulator.plan` runs the machine on counters alone.
   Between stall points the machine is *deterministic*: every unit
   makes the same decision every ``q`` cycles while each channel
   occupancy evolves linearly.  The planner steps a window of ``q``
   cycles of the exact scalar semantics on its own counters, FIFO
   ready-times, link credits and unit positions (seeded once, at cycle
   0), proves by state congruence how many times the window repeats —
   bounded by decision margins on channel occupancy, link ready counts
   and latency-line lengths, by the timed FIFOs' queued entries, by
   schedule phase boundaries, ring headroom and remaining words — and
   advances its state over all ``k * q`` cycles
   (``BatchedSimulator._plan_window``).  The cycle the deadlock
   detector may fire on is a one-cycle plan, so the deadlock (and the
   cycle cap) are raised here, from counter state.  The schedule sums
   every timing observable and groups the windows into slab passes.
2. :meth:`BatchedSimulator.execute` only moves data: pass by pass, in
   topological unit order, each unit stages, computes and commits the
   words the schedule counts for it with NumPy slab operations.  A
   replay is the same stage over a cached schedule; a control run
   (:func:`~repro.simulator.control.simulate_control`) is stage 1
   alone.

The batching invariant: **identical observable machine state at every
stall point**.  ``cycles``, per-unit ``stall_cycles``, channel
``max_occupancy`` high-water marks, streaming-continuity flags, deadlock
diagnostics and all outputs are exactly — bitwise — what the scalar
engine produces, because every window is accounted from the virtually
stepped cycles with the scalar engine's own bookkeeping rules, and the
values a unit computes do not depend on when it computes them.

The units hold NumPy state:

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

Every supported configuration runs on this path:

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
  (the cycle cap); idle cycles with empty links are stepped virtually
  with the detector's streak carried in and out of each window.
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
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import sub
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.fields import row_major_strides
from ..core.program import StencilDefinition, StencilProgram
from ..errors import DeadlockError, SimulationError
from ..expr.analysis import index_vars
from ..lowering import compiled_stencil
from ..lowering.cache import content_key, default_cache
from ..lowering.pipeline import program_content_hash
from ..obs import clock
from ..obs.profile import MAX_WINDOW_SAMPLES, EngineProfile
from .channel import (
    ArrayChannel,
    ArrayNetworkLink,
    RateLimiter,
    StreamRing,
    claim_slab,
    stage_slab,
)
from .engine import SimulationResult, Simulator, deadlock_error
from .units import SinkUnit, SourceUnit, schedule_reads

_INF = float("inf")


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


def stream_metas(program: StencilProgram):
    """``data -> (slab dtype, int-typedness seed)`` of ``program``'s
    streams: int64 slabs for integer-typed ones, float64 otherwise and
    for those boundary fills can leak floats into; the seed is True when
    every non-NaN cell is a Python int (see :func:`float_leaky_streams`)."""
    leaky = float_leaky_streams(program)

    def meta(data: str):
        if not program.field_dtype(data).is_integer:
            return np.float64, None
        leak = leaky.get(data)
        if leak is None:
            return np.int64, True
        return np.float64, (True if leak == "nan" else None)
    return meta


class CoordSlabs:
    """Iteration geometry of one domain, shared by every stencil unit
    of a machine: memoized read schedules per stencil and boundary
    data per distinct offset vector, and per-dimension cell
    coordinates for the stencils that read an iteration index as a
    value (sliced per batch)."""

    def __init__(self, domain: Tuple[int, ...]):
        self.domain = tuple(domain)
        self._boundary: Dict[Tuple, Optional[Tuple]] = {}
        self._schedules: Dict[str, Tuple] = {}

    def schedule(self, program: StencilProgram,
                 stencil: StencilDefinition) -> Tuple:
        """``(compiled, schedule)`` of ``stencil``: its array-mode
        compiled expression and :func:`schedule_reads` over the fields
        it reads, as the scalar unit derives them — once per machine,
        for the unit and for the rings of its in-edges."""
        if stencil.name not in self._schedules:
            compiled = compiled_stencil(stencil.ast, mode="array",
                                        code=stencil.canonical_code)
            self._schedules[stencil.name] = compiled, schedule_reads(
                program.shape, program.vectorization, program.index_names,
                compiled.accesses, stencil.accessed_fields)
        return self._schedules[stencil.name]

    def history_words(self, program: StencilProgram,
                      stencil: StencilDefinition, field: str) -> int:
        """Words behind its pop pointer that ``stencil`` still reads
        from the stream of ``field``: computing word ``w`` happens in
        the step that pops word ``w + readahead`` and reaches back to
        cell ``w * W + min(min_flat, 0)`` (the center, for copy
        boundaries) — the rows the inbound edge buffer must retain."""
        _info, readahead, _init, _start, min_flat = self.schedule(
            program, stencil)[1]
        return readahead[field] - (min(min_flat[field], 0)
                                   // program.vectorization)

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


def exact_source(name: str, data: np.ndarray) -> np.ndarray:
    """``data``, checked to fit the int64 slabs an integer stream rides:
    signed widths always fit; only huge uint64 values do not (a wrapped
    int64 round-trips, so check the values)."""
    if (data.dtype.kind == "u" and data.size
            and int(data.max()) > np.iinfo(np.int64).max):
        raise SimulationError(
            f"source {name!r}: integer values exceed int64's exact "
            f"range (2**63); use engine_mode='scalar'")
    return data


class BatchedSourceUnit(SourceUnit):
    """Array-slab variant of :class:`~repro.simulator.units.SourceUnit`:
    the executor stores :meth:`words` into the stream's ring, which
    casts them to the stream's slab dtype (int64 or float64, exact)."""

    def __init__(self, name: str, data: np.ndarray, vector_width: int,
                 out_channels: Sequence):
        super().__init__(name, exact_source(name, data), vector_width,
                         out_channels)


class BatchedStencilUnit:
    """Vectorized evaluation of one stencil
    (:class:`~repro.simulator.units.StencilUnit`'s values, not its
    timing: the schedule carries that).

    The unit owns no field data: its sliding windows *are* its inbound
    streams' rings (a pop is a counter advance, the popped words stay
    readable as history), every tap is a contiguous ring slice of
    ``lo + flat_offset`` cells, and computed words are stored once,
    straight into the ring its out-edges share, where they sit staged
    until the schedule commits them (see ``docs/ARCHITECTURE.md``,
    "Batched data plane").

    ``coord_slabs`` carries the machine-wide :class:`CoordSlabs`
    shared by every stencil unit, so read schedules are derived once
    per stencil and boundary masks once per distinct offset vector.
    """

    def __init__(self, program: StencilProgram,
                 stencil: StencilDefinition,
                 in_channels: Dict[str, object],
                 out_channels: Sequence,
                 coord_slabs: Optional[CoordSlabs] = None,
                 stream_meta=None):
        self.name = stencil.name
        self.program = program
        self.stencil = stencil
        self.in_channels = dict(in_channels)
        self.out_channels = list(out_channels)

        domain = program.shape
        self.domain = domain
        width = program.vectorization
        self.width = width
        self.num_cells = program.num_cells
        self.num_words = self.num_cells // width

        if coord_slabs is None:
            coord_slabs = CoordSlabs(domain)
        self.compiled, (self.access_info, *_) = coord_slabs.schedule(
            program, stencil)
        self.fields = fields = sorted(self.in_channels)

        # Slab dtypes mirror the scalar engine's exact Python numbers
        # (see stream_metas).  The simulator passes its machine-wide
        # resolver so the seeds match the edge buffers exactly.
        stream_meta = stream_meta or stream_metas(program)
        self._field_int: Dict[str, Optional[bool]] = {
            field: stream_meta(field)[1] for field in fields}
        self.line_dtype = stream_meta(stencil.name)[0]

        # Machine-wide memoized per-offset boundary data; coordinates
        # only where the expression reads them (an access-free one also
        # takes its batch length from them).
        self._coords_all = coord_slabs.coords if (
            index_vars(stencil.ast) or not self.compiled.accesses) else ()
        self._access_boundary = [coord_slabs.boundary(full, width)
                                 for _access, full, _flat
                                 in self.access_info]

        boundary = stencil.boundary
        self.shrink = boundary.shrink
        self.boundary = boundary
        self.fill_value = math.nan

    def store_words(self, w0: int, b: int):
        """Compute words ``[w0, w0 + b)`` into rows claimed first (the
        overflow checks run before any write) in the ring the outbound
        edges share — each word's one store."""
        self.compute_words(w0, b, claim_slab(self.out_channels, b))

    def compute_words(self, w0: int, b: int,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorized stencil evaluation of words ``[w0, w0 + b)``,
        also stored into ``out`` (``(b, W)`` rows) when given.

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
        values = self.compiled(args, coords, intish=intish,
                               out_dtype=self.line_dtype).reshape(b, width)
        if out is not None:
            out[...] = values
        return values


class BatchedSinkUnit(SinkUnit):
    """Array-slab variant of :class:`~repro.simulator.units.SinkUnit`:
    the executor hands it slabs of output words."""

    def store_rows(self, rows: np.ndarray):
        """Range-check and store a slab of output words (the schedule
        accounts their arrival cycles)."""
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
    """Per-unit event record over one virtually executed window: which
    window-relative cycles each action fires on."""

    __slots__ = ("moves", "drains", "stalls", "stalls_after_init")

    def __init__(self, drains: List[int]):
        # A source's pushes, a stencil's computes, a sink's arrivals.
        self.moves: List[int] = []
        self.drains = drains              # stencil output-push offsets
        self.stalls = 0
        self.stalls_after_init = 0


class _WindowPlan:
    """A virtually executed window of ``period`` cycles, proven to
    repeat ``repeats`` times from the planner VM's state, with the
    words it moves over all of them (what stage 2 executes)."""

    __slots__ = ("period", "repeats", "drift", "traffic", "trailing_idle",
                 "made", "sent", "popped", "delivered")

    def __init__(self):
        self.period = 0   # cycles stepped so far
        self.repeats = 1
        # True when the repeats were proven congruent modulo a nonzero
        # counter drift (ramp/drain transient batching).
        self.drift = False
        # The most words any channel, link or latency line moves in one
        # window (ring headroom holds ``traffic * repeats`` of them).
        self.traffic = 0
        # The scalar engine's zero-progress streak after the (last)
        # window's final cycle, carried so a following standstill
        # still deadlocks on the same cycle.
        self.trailing_idle = 0

    @property
    def cycles(self) -> int:
        return self.period * self.repeats


class _Counters:
    """The planner VM's machine state between windows: channel counters
    (slots as laid out in :attr:`BatchedSimulator._machine`), timed
    FIFOs, link credits, unit positions (source words pushed, stencil
    local step, sink words received), each unit's last block and the
    work left (steps + latency-line words + words) — plus the timing
    observables summed so far."""

    __slots__ = ("cnt", "fifos", "credits", "pos", "block", "remaining",
                 "stalls", "steady", "first", "last", "count", "peak")

    def __init__(self, n_chan: int, n_link: int, units):
        self.cnt = [0] * (n_chan + n_link)
        self.fifos = [deque() for entry in units if entry[0] == _STENCIL]
        self.fifos[:0] = [deque() for _ in range(n_link)]
        self.credits = [0.0] * n_link
        self.pos = [0] * len(units)
        self.block = [""] * len(units)
        self.remaining = sum(entry[-1] if entry[0] == _STENCIL
                             else entry[3][0] for entry in units)
        self.stalls = [0] * len(units)
        self.steady = [0] * len(units)
        # First and last output cycle and words out, of stencils and
        # sinks (streaming continuity).
        self.first: List[Optional[int]] = [None] * len(units)
        self.last = [0] * len(units)
        self.count = [0] * len(units)
        self.peak = [0] * n_chan

    def continuous(self, i: int) -> bool:
        return self.first[i] is not None \
            and self.last[i] - self.first[i] == self.count[i] - 1


def _describe(kind: int, block) -> str:
    """A unit's ``describe_block()`` text from the VM's record of its
    last stall ("" before any)."""
    if block == "":
        return ""
    if kind == _SOURCE:
        return f"output full: {list(block)}"
    if kind == _SINK:
        return "waiting on producer"
    return (f"waiting on input(s) {list(block)}" if block
            else "output backpressure (latency line full)")


@dataclass(frozen=True)
class Schedule:
    """What stage 1 hands stage 2, and what a machine publishes.

    ``passes`` holds the slab passes, each ``(made, sent, popped,
    delivered)``: per unit the words it pushes, computes or stores, per
    unit the words a stencil commits, per channel the words a stencil
    pops and per link the words delivered.  ``timing`` holds the
    :class:`~repro.simulator.engine.SimulationResult` timing fields as
    ``(field, items)`` pairs, the rest the planner's statistics.
    ``failure`` is the deadlock or cycle-cap error the run ends in
    after its passes (never set on a published schedule)."""

    passes: Tuple
    cycles: int
    timing: Tuple
    plan_count: int
    virtual_cycles: int
    window_count: int
    window_cycles: int
    window_sizes: Tuple[int, ...]
    drift_windows: int
    failure: Optional[Exception] = None


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
        due = (now + q * np.arange(1, k, dtype=np.int64)[:, None]
               + np.asarray(pops, dtype=np.int64))
        late = (np.asarray(start[n:k * n], dtype=np.int64)
                .reshape(k - 1, n) > due).any(axis=1)
        if late.any():
            k = 1 + int(np.argmax(late))
    return k


def _replayed_fifo(start: List[int], pushed: List[int], popped: int,
                   k: int, q: int) -> Deque[int]:
    """A timed FIFO after ``k`` windows of ``q`` cycles that each pop
    ``popped`` entries and push window 1's ``pushed`` times shifted by
    ``q`` a window: ``start`` and the pushes, less the first
    ``k * popped``."""
    skip, m = k * popped, len(pushed)
    fifo = deque(start[skip:])
    for p in range(max(0, skip - len(start)), k * m):
        window, r = divmod(p, m)
        fifo.append(pushed[r] + window * q)
    return fifo


def machine_key_parts(sim) -> list:
    """The machine ``sim`` builds, as content-key parts: the width-
    normalized program hash and the width, the stage delays, every
    edge with its capacity, remoteness and link rate, the wire
    latency, the placement and the deadlock window.  Keys the batched
    engine's window schedule and the kernel engine's recorded outcome
    (``kernel.py``)."""
    program = sim.program
    config = sim.config
    edges = []
    for edge in sorted(sim.graph.edges,
                       key=lambda e: (e.src, e.dst, e.data)):
        key = (edge.src, edge.dst, edge.data)
        remote = sim._edge_is_remote(edge.src, edge.dst)
        edges.append([list(key), sim._capacity(key), remote,
                      config.link_rate(key) if remote else None])
    return [
        program_content_hash(program, normalize_width=True),
        program.vectorization,
        sim.analysis.pipeline_latency,
        sorted((node, delay.compute_cycles)
               for node, delay in sim.analysis.node_delays.items()),
        edges,
        config.network_latency,
        sorted(sim.device_of.items()),
        config.deadlock_window,
    ]


#: Unit kinds of the window planner's counter-machine tables.
_SOURCE, _STENCIL, _SINK = range(3)


class BatchedSimulator(Simulator):
    """Drop-in :class:`~repro.simulator.engine.Simulator` replacement
    that plans the run on counters (:meth:`plan`: virtually stepped
    windows of ``q`` cycles — the LCM of the fractional-rate links'
    delivery periods, 1 without one — and congruence proofs of how
    often they repeat), then moves the data in NumPy slab passes
    (:meth:`execute`).

    Observable behaviour — outputs (bitwise), cycle count, stall
    counters, occupancy high-water marks, deadlock diagnostics — is
    identical to the scalar engine by construction; see the module
    docstring for the invariant and
    ``tests/test_engine_equivalence.py`` for the enforcement.

    Planner statistics are exposed for tests and benchmarks after
    :meth:`plan`: ``plan_count`` planner invocations,
    ``window_count`` the windows they led to, ``window_cycles`` the
    cycles those cover and ``virtual_cycles`` the cycles the planner
    stepped on counter state to get there (a replay reports the
    recording run's).
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
        self.window_count = 0
        self.window_cycles = 0
        self.drift_window_count = 0
        self.virtual_cycles = 0
        # True when plan() returned a published schedule (see run).
        self.schedule_replayed = False
        # Current lower bound on a non-repeating window's stretch
        # (cycles): doubled after each window that failed to repeat,
        # reset by one that did (see _plan_window).
        self._stretch_floor = self.MIN_STRETCH
        # Per producing node: its stream's one ring, its edges' layouts.
        self._rings: Dict[str, Tuple[StreamRing, dict]] = {}
        # What _bind_native did to this run's stencil units.
        self._native = None
        self._vm: Optional[_Counters] = None

    def _make_profile(self, cycles: int, wall_seconds: float,
                      **fields) -> EngineProfile:
        native = self._native.profile() if self._native else {}
        return EngineProfile(**{"engine": "batched", **native, **fields},
                             cycles=cycles, wall_seconds=wall_seconds)

    def _result(self, schedule: Schedule, outputs: Dict[str, np.ndarray],
                **fields) -> SimulationResult:
        """The run's result: ``outputs``, and the schedule's timing and
        planner statistics (a control run's ``fields`` name its engine;
        an executed run's add its data plane's)."""
        profile = self._make_profile(
            schedule.cycles, clock.now() - self._run_began,
            plan_count=schedule.plan_count,
            virtual_cycles=schedule.virtual_cycles,
            window_count=schedule.window_count,
            window_cycles=schedule.window_cycles,
            window_sizes=schedule.window_sizes,
            drift_windows=schedule.drift_windows,
            schedule_replayed=self.schedule_replayed, **fields)
        self._emit_run_metrics(profile)
        return SimulationResult(
            outputs=outputs, cycles=schedule.cycles,
            expected_cycles=self._expected_cycles(), profile=profile,
            **{name: dict(values) for name, values in schedule.timing})

    # -- construction --------------------------------------------------------

    def _batch_cap(self) -> int:
        """Largest batch this machine will ever execute: the configured
        cap, clamped to the program's word count so ring headroom and
        window allocations stay proportional to small domains."""
        num_words = self.program.num_cells // self.program.vectorization
        return max(1, min(self.config.max_batch_words, num_words))

    @cached_property
    def _stream_meta(self):
        """The machine's :func:`stream_metas` resolver."""
        return stream_metas(self.program)

    @cached_property
    def _coord_slabs(self) -> CoordSlabs:
        return CoordSlabs(self.program.shape)

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
            history = self._coord_slabs.history_words(
                self.program, self.program.stencil(name), data)
        return {"headroom": headroom, "history": history,
                "dtype": self._stream_meta(data)[0]}

    def _edge_storage(self, key) -> dict:
        """Storage keywords of edge ``key``: its layout plus ``buf``,
        the ring of the stream its source node produces, shared by all
        that node's out-edges — as many rows as the neediest of them
        would want alone (``capacity + headroom + history + 1``) and a
        pad (``docs/ARCHITECTURE.md``: why a laggard is never
        overwritten, why no range wraps)."""
        stream = self._rings.get(key[0])
        if stream is None:
            layouts = {k: self._edge_layout(k) for k in (
                (e.src, e.dst, e.data)
                for e in self.graph.out_edges(key[0]))}
            rows = max(self._fifo_capacity(k) + 1 + layout["headroom"]
                       + layout["history"] for k, layout in layouts.items())
            pad = max(layout["history"] for layout in layouts.values())
            ring = StreamRing(rows, self.program.vectorization,
                              layouts[key]["dtype"], pad)
            stream = self._rings[key[0]] = (ring, layouts)
        return dict(stream[1][key], ring=stream[0])

    def _make_channel(self, key, name: str, capacity: int, data: str):
        return ArrayChannel(name, capacity, self.program.vectorization,
                            **self._edge_storage(key))

    def _make_link(self, key, name: str, capacity: int, data: str):
        return ArrayNetworkLink(name, capacity, self.program.vectorization,
                                **self._edge_storage(key))

    def _make_source(self, name: str, data: np.ndarray, outs):
        return BatchedSourceUnit(name, data, self.program.vectorization,
                                 outs)

    def _make_stencil(self, stencil, ins, outs, latency: int):
        return BatchedStencilUnit(self.program, stencil, ins, outs,
                                  coord_slabs=self._coord_slabs,
                                  stream_meta=self._stream_meta)

    def _make_sink(self, name: str, channel, dtype):
        return BatchedSinkUnit(name, channel, self.program.shape,
                               self.program.vectorization, dtype)

    def _bind_native(self, stencil_units):
        """Swap each eligible unit's ``compute_words`` for this
        machine's compiled kernel (:mod:`.native`) — the one place the
        native code is bound, for slab passes and the replay pass."""
        # Deferred: native builds on kernel.py, which imports this module.
        from .native import bind_native
        self._native = bind_native(stencil_units, self.program.num_cells)

    @cached_property
    def _machine(self):
        """The machine as the counter VM sees it, from the lowered graph
        alone — no unit or ring is built: ``(chans, links, rates,
        units, names, order)``.

        A channel is its slot t in [0, C), in ``graph.edges`` order (the
        order :meth:`_build` makes them in); ``chans`` holds per slot
        its name, capacity, the counter slot of its ready count (t
        itself on a plain channel, whose ready count *is* its total;
        C + j on link j), its FIFO slot (j for link j's in-flight ring,
        else -1), its wire latency, and its producing and consuming
        unit.  ``links`` holds each link's slot, ``rates`` its
        :class:`RateLimiter`.  Latency line s has FIFO slot L + s and
        counter slot C + L + s.

        ``units`` holds per unit, in build order (sources, stencils,
        sinks): ``(kind, name, out slots, schedule phase boundaries,
        ...)``; a sink adds the ``(None, slot, ready slot)`` of its
        pops, a stencil its in slots, the needed ``(field, slot, ready
        slot)`` per pop phase as ``(end step, triples)``, its line's
        FIFO and counter slots, line capacity, compute latency, init
        words and final step.  ``names`` are the units' names,
        ``order`` a topological unit order (producers strictly before
        consumers), the one a slab pass applies units in."""
        program, graph, config = self.program, self.graph, self.config
        keys = [(e.src, e.dst, e.data) for e in graph.edges]
        slot = {key: t for t, key in enumerate(keys)}
        n_chan = len(keys)
        names, capacity, latency_of = [], [], []
        ready_of, fifo_of = list(range(n_chan)), [-1] * n_chan
        links, rates = [], []
        for t, key in enumerate(keys):
            name = f"{key[0]}->{key[1]}:{key[2]}"
            remote = self._edge_is_remote(key[0], key[1])
            size = self._fifo_capacity(key)
            if size < 1:
                raise SimulationError(
                    f"{'link' if remote else 'channel'} {name!r}: "
                    f"capacity must be >= 1, got {size}")
            names.append(name)
            capacity.append(size)
            latency_of.append(config.network_latency if remote else 0)
            if remote:
                ready_of[t], fifo_of[t] = n_chan + len(links), len(links)
                links.append(t)
                rates.append(RateLimiter(config.link_rate(key)))
        producer, consumer = [0] * n_chan, [0] * n_chan

        def slots(edges):
            return tuple(slot[(e.src, e.dst, e.data)] for e in edges)

        words = program.num_cells // program.vectorization
        units, fifo = [], len(links)
        for name in program.inputs:
            units.append((_SOURCE, name,
                          slots(graph.out_edges(f"input:{name}")),
                          (words,)))
        for stencil in program.stencils:
            node = f"stencil:{stencil.name}"
            ins = {e.data: slot[(e.src, e.dst, e.data)]
                   for e in graph.in_edges(node)}
            ins = {field: ins[field] for field in sorted(ins)}
            _info, _reach, init, start, _flat = self._coord_slabs.schedule(
                program, stencil)[1]
            end = init + words
            cuts = sorted({cut for first in start.values()
                           for cut in (first, first + words)})
            phases = [(cut, tuple(
                (f, t, ready_of[t]) for f, t in ins.items()
                if start[f] < cut <= start[f] + words))
                for cut in cuts] + [(end, ())]
            latency = max(0, self.analysis.node_delays[node].compute_cycles)
            units.append((_STENCIL, stencil.name,
                          slots(graph.out_edges(node)),
                          (init, end, *cuts), tuple(ins.values()), phases,
                          fifo, n_chan + fifo, latency + 1, latency, init,
                          end))
            fifo += 1
        for out in program.outputs:
            (t,) = slots(graph.in_edges(f"output:{out}"))
            units.append((_SINK, out, (), (words,),
                          ((None, t, ready_of[t]),)))
        for i, entry in enumerate(units):
            for t in entry[2]:
                producer[t] = i
            for t in (entry[4] if entry[0] == _STENCIL else
                      (entry[4][0][1],) if entry[0] == _SINK else ()):
                consumer[t] = i

        # Unit order itself is not guaranteed topological (stencils
        # appear in program order): a slab pass applies whole units, so
        # every read must find its rows already written.
        succ: List[List[int]] = [[] for _ in units]
        indeg = [0] * len(units)
        for prod, cons in zip(producer, consumer):
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
        if len(order) != len(units):
            order = list(range(len(units)))
        return ((names, capacity, ready_of, fifo_of, latency_of, producer,
                 consumer), links, rates, units,
                [entry[1] for entry in units], order)

    # -- planning ------------------------------------------------------------
    #
    # One planner (see the module docstring): step ``q`` cycles on
    # counter state, recording per-cycle delivery masks and unit
    # actions; prove how often the window repeats; advance the VM over
    # all ``k * q`` cycles.
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
        less)."""
        q = 1
        for limiter in self._machine[2]:
            g = limiter.delivery_period()
            if g is None:
                return 1
            q = math.lcm(q, g)
            if q > self.MAX_WINDOW:
                return 1
        return q

    def _plan_window(self, now: int, q: int, horizon: int,
                     idle_in: int) -> Optional[_WindowPlan]:
        """Virtually execute ``q`` cycles of the machine from the VM's
        state, mirroring the scalar engine's per-cycle semantics
        exactly, prove how often they repeat before ``horizon`` and
        advance the VM over all of them.  ``idle_in`` is the
        zero-progress streak the deadlock detector has counted so far:
        a window ends before a cycle it could fire on, and that cycle
        is a one-cycle plan of its own, which raises the
        :class:`DeadlockError` when the detector fires.  Returns None,
        leaving the VM as it was, when no window of ``q`` > 1 cycles
        can start here: fewer than ``q`` cycles of room, or more slab
        traffic than a ring has headroom for."""
        self.plan_count += 1
        if horizon - now < q:
            return None
        plan = _WindowPlan()
        vm = self._vm
        (chans, links, rates, units, _names, _order) = self._machine
        (chan_names, capacity, ready_of, fifo_of, latency_of, producer,
         consumer) = chans
        rates = [limiter.rate for limiter in rates]
        n_chan, n_link = len(capacity), len(links)

        # The window runs on copies of the VM's state, committed once
        # its repeats are proven.
        cnt, pos, block = list(vm.cnt), list(vm.pos), list(vm.block)
        fifos: List[Deque[int]] = [deque(fifo) for fifo in vm.fifos]
        credits = list(vm.credits)   # refilled and spent as RateLimiter
        remaining = vm.remaining
        # A FIFO whose consultations ever found it empty or its head
        # immature only replays under the strict rule (_fifo_repeats).
        strict_only = [rate >= 1.0 for rate in rates]
        pops: List[List[int]] = [[] for _ in range(n_link)]
        need: List[Optional[Tuple]] = []
        # The active set (below) skips units with nothing left to do (a
        # finished stencil's line is strict_only: empty on every visit).
        active: List[bool] = []
        events: List[_WindowEvents] = []
        for entry, step in zip(units, pos):
            drains: List[int] = []
            if entry[0] == _STENCIL:
                phases = entry[5]
                active.append(step < entry[11] or bool(fifos[entry[6]]))
                strict_only.append(not active[-1])
                pops.append(drains)
                need.append(next((p for p in phases if step < p[0]),
                                 phases[-1]))
            else:
                active.append(step < entry[3][0])
                need.append(None)
            events.append(_WindowEvents(drains))
        start_cnt, start_pos, start_credit = vm.cnt, vm.pos, vm.credits
        start_fifo = [list(fifo) for fifo in vm.fifos]
        start_remaining = remaining

        pushed = [0] * n_chan
        popped = [0] * n_chan
        peak = [0] * n_chan
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

        # The active set (docs/ARCHITECTURE.md): a unit whose visit
        # changed nothing sleeps — ``since``: that visit's offset, -1
        # when awake or finished — until a counter it tests crosses its
        # threshold or its line head matures (``timers``: a heap of
        # (offset, unit)).
        since = [-1] * len(units)
        timers: List[Tuple[int, int]] = []

        def sleep(i: int, off: int, line: Sequence[int] = ()):
            active[i], since[i] = False, off
            if line and line[0] > now + off:
                heapq.heappush(timers, (line[0] - now, i))

        def wake(i: int, off: int):
            """Visit sleeping unit ``i`` again on cycle ``off``.  Each
            visit it skipped saw its counters moved only away from the
            thresholds it tests, so it decided alike and recorded no
            new margin (a minimum); it stalled, unless it only waited
            to drain."""
            if since[i] >= 0:
                entry, skipped = units[i], off - 1 - since[i]
                if entry[0] != _STENCIL or pos[i] < entry[11]:
                    events[i].stalls += skipped
                    if entry[0] == _STENCIL and pos[i] >= entry[10]:
                        events[i].stalls_after_init += skipped
                active[i], since[i] = True, -1

        def run_cycle(off: int) -> bool:
            nonlocal remaining, traffic
            self.virtual_cycles += 1
            now_v = now + off
            progressed = False
            while timers and timers[0][0] <= off:
                wake(heapq.heappop(timers)[1], off)
            for j, rate in enumerate(rates):
                credit = min(credits[j] + rate, max(rate, 1.0))
                flight = fifos[j]
                while flight and credit >= 1.0 and flight[0] <= now_v:
                    flight.popleft()
                    if not cnt[n_chan + j]:
                        wake(consumer[links[j]], off)
                    cnt[n_chan + j] += 1
                    credit -= 1.0
                    pops[j].append(off)
                    if len(pops[j]) > traffic:
                        traffic = len(pops[j])
                if credit >= 1.0:
                    # Credit to spare: the ring was empty or its head
                    # still on the wire, so the delivery mask was not
                    # purely credit-driven.
                    strict_only[j] = True
                credits[j] = credit
            for i in compress(range(len(units)), active):
                entry, ev, step = units[i], events[i], pos[i]
                kind, outs = entry[0], entry[2]
                push = False   # a word leaves for the out-channels
                needed = None  # the (field, slot, ready slot)s a step pops
                if kind == _STENCIL:
                    (_, _, _, _, _, phases, f, slot, line_cap,
                     latency, init, end) = entry
                    line = fifos[f]
                    if not line or line[0] > now_v:
                        strict_only[f] = True
                    else:
                        # The short-circuit mirrors the scalar engine.
                        for t in outs:
                            slack = capacity[t] - 1 - cnt[t]
                            if slack < 0:
                                over[t] = min(over[t], -1 - slack)
                                break
                            if slack < under[t]:
                                under[t] = slack
                        else:
                            line.popleft()
                            ev.drains.append(off)
                            remaining -= 1
                            push = True
                    if step < end:
                        needed = need[i]
                        if step >= needed[0]:
                            needed = need[i] = next(p for p in phases
                                                    if step < p[0])
                        needed = needed[1]
                    elif not push and line:
                        sleep(i, off, line)  # waits to drain
                    elif not push:
                        active[i] = False    # finished
                elif step >= entry[3][0]:
                    active[i] = False  # a finished source or sink
                    continue
                elif kind == _SOURCE:
                    full = []
                    for t in outs:
                        slack = capacity[t] - 1 - cnt[t]
                        if slack < 0:
                            over[t] = min(over[t], -1 - slack)
                            full.append(chan_names[t])
                        elif slack < under[t]:
                            under[t] = slack
                    if full:
                        ev.stalls += 1
                        block[i] = full
                        sleep(i, off)
                        continue
                    ev.moves.append(off)
                    pos[i] += 1
                    remaining -= 1
                    push = True
                else:
                    needed, line = entry[4], ()  # a sink's one input
                if needed is not None:
                    # A step pops its words, unless an input is empty
                    # or (a stencil's) the latency line is full.
                    empty = None
                    for field, t, r in needed:
                        if cnt[r]:
                            if cnt[r] - 1 < over[r]:
                                over[r] = cnt[r] - 1
                        else:
                            under[r] = 0
                            empty = empty or []
                            empty.append(field)
                    if kind == _STENCIL and not empty:
                        slack = line_cap - 1 - len(line)
                        if slack < 0:
                            over[slot] = min(over[slot], -1 - slack)
                            empty = ()
                        elif slack < under[slot]:
                            under[slot] = slack
                    if empty is not None:
                        ev.stalls += 1
                        block[i] = empty or None
                        if kind == _STENCIL:
                            ev.stalls_after_init += step >= init
                        if not push:
                            sleep(i, off, line)
                    else:
                        for _field, t, r in needed:
                            if cnt[t] >= capacity[t] \
                                    and since[producer[t]] >= 0:
                                wake(producer[t], off + (producer[t] < i))
                            cnt[t] -= 1
                            if r != t:
                                cnt[r] -= 1
                            popped[t] = count = popped[t] + 1
                            if count > traffic:
                                traffic = count
                        if kind == _SINK:
                            ev.moves.append(off)
                            remaining -= 1
                        elif step >= init:
                            line.append(now_v + latency)
                            ev.moves.append(off)
                            if len(ev.moves) > traffic:
                                traffic = len(ev.moves)
                        else:
                            remaining -= 1
                        pos[i] = step + 1
                        progressed = True
                if push:
                    # A word leaves a source or a latency line.
                    for t in outs:
                        if fifo_of[t] >= 0:
                            fifos[fifo_of[t]].append(
                                now_v + latency_of[t])
                        elif not cnt[t] and since[consumer[t]] >= 0:
                            wake(consumer[t], off + (consumer[t] < i))
                        cnt[t] = occupancy = cnt[t] + 1
                        if occupancy > peak[t]:
                            peak[t] = occupancy
                        pushed[t] = count = pushed[t] + 1
                        if count > traffic:
                            traffic = count
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
        # cycle are empty after it: a window ends before a cycle that
        # could complete the streak, and that cycle is a plan of its
        # own — the raise, its cycle and its diagnostic stay the
        # oracle's.
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

        cap = self._batch_cap()
        if idle >= deadline and not links_hold_words():
            # The detector's cycle: stepped alone, as the scalar loop
            # steps it, and the deadlock when nothing progresses.
            if not run_cycle(0):
                raise self._deadlock_error(now, cnt, pos, fifos, block)
            plan.period, last, idle = 1, 0, 0
        else:
            while plan.period < q and advance():
                pass
            # Ring headroom: a channel's or latency line's slab traffic
            # per executed stretch must fit the batch headroom (a stall
            # moves nothing, and is bounded by the horizon alone); one
            # cycle moves at most one word per channel and line, so
            # only a multi-word link delivery can exceed it there, and
            # that moves no row.
            if traffic > cap and q > 1:
                return None
            repeats = (horizon - now) // q
            if traffic:
                repeats = min(repeats, cap // traffic)
            if plan.period < q or frozen:
                # Cut short, or idle with empty links: the streak such a
                # window starts its repeats on differs from ``idle_in``,
                # so it is executed once (and stretched, below).
                repeats = 1

            # Congruence: window 2 must make window 1's decisions,
            # shifted by q cycles — then so does every further window,
            # until a margin, a FIFO entry or a schedule phase runs
            # out.  Credits must return to their start values exactly;
            # every timed FIFO passes the one rule of _fifo_repeats;
            # every counter may end displaced by a constant drift,
            # bounded by its margins.
            if credits != start_credit:
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
            # while no unit crosses a schedule boundary (pop windows,
            # init fill, completion), so clamp k strictly below the
            # nearest one — stall cycles *after* a unit's last word in a
            # window are only accounted correctly while the unit is not
            # yet done, so even landing exactly on a boundary at the
            # window end is left to the next window.  Likewise the run
            # must not complete inside the repeats (the scalar loop
            # exits there).
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
                # Window 1's recorded peak is the lowest of the repeats
                # on a filling channel; the true high-water mark lands
                # in the last repeat.
                for t in range(n_chan):
                    if drift[t] > 0:
                        peak[t] += (plan.repeats - 1) * drift[t]
                self._stretch_floor = self.MIN_STRETCH
            else:
                # Transient that does not (yet) repeat: the virtual
                # schedule is exact for any stretch, so keep extending
                # it and amortize the slab pass over many periods —
                # until two consecutive periods moved every unit alike
                # (the next window will likely repeat), but never below
                # the floor.
                limit = min(q * self.WINDOW_STRETCH, horizon - now)
                floor = self._stretch_floor
                self._stretch_floor = min(2 * floor,
                                          q * self.WINDOW_STRETCH)
                mark, moved = start_pos, None
                while plan.period < limit and traffic < cap:
                    if not plan.period % q:
                        step = list(map(sub, pos, mark))
                        if step == moved and plan.period >= floor:
                            break
                        mark, moved = list(pos), step
                    if not advance():
                        break
        # The streak the scalar loop would hold after the last cycle: a
        # window without progress extends the one it was handed.
        k, period = plan.repeats, plan.period
        plan.trailing_idle = idle if last >= 0 else idle + (k - 1) * period
        plan.traffic = traffic
        for i in range(len(units)):
            wake(i, period)

        # Commit: the words moved over all k windows, the timing they
        # add, and the VM state after them.
        plan.made = tuple(len(ev.moves) * k for ev in events)
        plan.sent = tuple(len(ev.drains) * k for ev in events)
        plan.popped = tuple(count * k for count in popped)
        plan.delivered = tuple(len(offsets) * k for offsets in pops[:n_link])
        for i, (entry, ev) in enumerate(zip(units, events)):
            vm.stalls[i] += ev.stalls * k
            vm.steady[i] += ev.stalls_after_init * k
            out = (ev.drains if entry[0] == _STENCIL else
                   ev.moves if entry[0] == _SINK else ())
            if out:
                if vm.first[i] is None:
                    vm.first[i] = now + out[0]
                vm.last[i] = now + (k - 1) * period + out[-1]
                vm.count[i] += len(out) * k
        vm.peak = list(map(max, vm.peak, peak))
        if k > 1:
            # Every repeat pushes window 1's FIFO times shifted by q.
            times = [(events[producer[t]].moves
                      if units[producer[t]][0] == _SOURCE
                      else events[producer[t]].drains, now + latency_of[t])
                     for t in links] + [
                (ev.moves, now + entry[9])
                for entry, ev in zip(units, events) if entry[0] == _STENCIL]
            fifos = [_replayed_fifo(start_fifo[f],
                                    [base + off for off in offsets],
                                    len(pops[f]), k, period)
                     for f, (offsets, base) in enumerate(times)]
            cnt = [c + (k - 1) * d for c, d in zip(cnt, drift)]
            pos = [p + (k - 1) * (p - s) for p, s in zip(pos, start_pos)]
            remaining += (k - 1) * (remaining - start_remaining)
        vm.cnt, vm.fifos, vm.pos, vm.remaining = cnt, fifos, pos, remaining
        vm.credits, vm.block = credits, block
        return plan

    def _deadlock_error(self, now: int, cnt, pos, fifos, block):
        """The detector's error on cycle ``now``, read off the VM's
        state after it as the scalar engine reads it off its units and
        channels (``Simulator._deadlock_error``)."""
        (chans, _links, _rates, units, names, _order) = self._machine
        chan_names, capacity, _ready, _fifo, _lat, producer, consumer = \
            chans
        blocked = []
        for i, (entry, step) in enumerate(zip(units, pos)):
            kind = entry[0]
            if kind == _STENCIL:
                if step >= entry[11] and not fifos[entry[6]]:
                    continue
                needed = next((p for p in entry[5] if step < p[0]),
                              entry[5][-1])[1]
                waits = [producer[t] for _f, t, r in needed if not cnt[r]]
            elif step >= entry[3][0]:
                continue
            else:
                waits = [producer[entry[4][0][1]]] if kind == _SINK else []
            if not waits:
                outs = entry[2]
                waits = [consumer[t] for t in [
                    t for t in outs if cnt[t] >= capacity[t]] or outs]
            blocked.append((names[i], _describe(kind, block[i]),
                            {names[u] for u in waits}))
        return deadlock_error(now, blocked, [
            (name, cnt[t], capacity[t]) for t, name in enumerate(chan_names)])

    def _schedule_key(self, max_cycles: int) -> str:
        """Content address of this machine's window schedule: the
        machine (:func:`machine_key_parts`) plus every other input of
        the planner — the batch cap, the horizon, the planner
        constants."""
        return content_key("schedule", *machine_key_parts(self),
                           self.config.max_batch_words, max_cycles,
                           self.MAX_WINDOW, self.WINDOW_STRETCH,
                           self.MIN_STRETCH)

    def plan(self) -> Schedule:
        """Stage 1: the machine's schedule, planned on counters alone.

        A machine is planned once per process: a full run that
        completes publishes its schedule to the lowering cache, and
        this returns it (``schedule_replayed``) instead of planning
        again (``docs/ARCHITECTURE.md``, "Planned once per process").
        Otherwise the planner VM is seeded at cycle 0 and plans window
        after window; passes gather consecutive windows while their
        summed traffic fits the batch cap, the envelope the rings are
        sized for.  A deadlock or a cycle-cap overrun ends the schedule
        as its ``failure``."""
        machine = self._machine
        expected = self._expected_cycles()
        max_cycles = self._max_cycles(expected)
        schedule = default_cache().lookup(self._schedule_key(max_cycles))
        if schedule is not None:
            self.schedule_replayed = True
            self.plan_count = schedule.plan_count
            self.virtual_cycles = schedule.virtual_cycles
            self.window_count = schedule.window_count
            self.window_cycles = schedule.window_cycles
            self.drift_window_count = schedule.drift_windows
            return schedule
        (chans, links, _rates, units, names, _order) = machine
        vm = self._vm = _Counters(len(chans[1]), len(links), units)
        period, cap = self._window_period(), self._batch_cap()
        passes: List[List[List[int]]] = []
        sizes: List[int] = []
        load, failure = 0, None
        now = idle = 0
        while vm.remaining:
            if now >= max_cycles:
                failure = SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(expected ~{expected})")
                break
            try:
                window = self._plan_window(now, period, max_cycles, idle)
                if window is None:
                    # No room or ring headroom for the LCM window: one
                    # cycle moves at most one word per channel.
                    window = self._plan_window(now, 1, max_cycles, idle)
            except DeadlockError as exc:
                failure = exc
                break
            counts = (window.made, window.sent, window.popped,
                      window.delivered)
            weight = window.traffic * window.repeats
            if passes and load + weight <= cap:
                for total, add in zip(passes[-1], counts):
                    total[:] = map(sum, zip(total, add))
                load += weight
            else:
                passes.append([list(add) for add in counts])
                load = weight
            self.window_count += 1
            self.window_cycles += window.cycles
            self.drift_window_count += window.drift
            if len(sizes) < MAX_WINDOW_SAMPLES:
                sizes.append(window.cycles)
            now += window.cycles
            idle = window.trailing_idle
        stencils = [i for i, entry in enumerate(units)
                    if entry[0] == _STENCIL]
        sinks = [i for i, entry in enumerate(units) if entry[0] == _SINK]
        timing = {
            "stall_cycles": {names[i]: vm.stalls[i]
                             for i in range(len(units))},
            "steady_stall_cycles": {names[i]: vm.steady[i]
                                    for i in stencils},
            "channel_occupancy": dict(zip(chans[0], vm.peak)),
            "output_continuous": {names[i]: vm.continuous(i)
                                  for i in sinks},
            "stencil_continuous": {names[i]: vm.continuous(i)
                                   for i in stencils},
        }
        self._vm = None
        return Schedule(
            passes=tuple(tuple(map(tuple, counts)) for counts in passes),
            cycles=now, plan_count=self.plan_count,
            timing=tuple((name, tuple(values.items()))
                         for name, values in timing.items()),
            virtual_cycles=self.virtual_cycles,
            window_count=self.window_count,
            window_cycles=self.window_cycles, window_sizes=tuple(sizes),
            drift_windows=self.drift_window_count, failure=failure)

    # -- execution -----------------------------------------------------------

    def execute(self, schedule: Schedule,
                inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Stage 2: build the units and rings over ``inputs`` and move
        the words of ``schedule``'s passes — nothing here decides a
        cycle.  A pass applies each unit once, in topological order:
        it stages, computes and commits all of the pass's words of
        that unit at once.  Values do not depend on timing, and a
        pass's summed traffic fits the ring headroom, so every
        producer's words may all be written before its consumers pop.
        A schedule that ends in a failure raises it once its passes
        have run: a data error among them still wins."""
        self._build(inputs)
        self._bind_native([unit for unit in self.units
                           if isinstance(unit, BatchedStencilUnit)])
        chans = list(self.channels.values())
        (tables, _links, _rates, units, _names, order) = self._machine
        fifo_of = tables[3]
        moved = [0] * len(units)   # words each unit has pushed/computed
        for made, sent, popped, delivered in schedule.passes:
            for i in order:
                entry, unit, n = units[i], self.units[i], made[i]
                if entry[0] == _SOURCE:
                    if n:
                        stage_slab(unit.out_channels,
                                   unit.words(moved[i], n))
                        for channel in unit.out_channels:
                            channel.commit_rows(n)
                elif entry[0] == _STENCIL:
                    for t in entry[4]:
                        if popped[t]:
                            chans[t].skip_rows(popped[t])
                    if n:
                        unit.store_words(moved[i], n)
                    if sent[i]:
                        for channel in unit.out_channels:
                            channel.commit_rows(sent[i])
                elif n:
                    unit.store_rows(unit.in_channel.read_rows(n))
                moved[i] += n
                # Deliveries follow the producer's slab, so the words
                # they move are committed; consumers come later.
                for t in entry[2]:
                    if fifo_of[t] >= 0 and delivered[fifo_of[t]]:
                        chans[t].deliver_rows(delivered[fifo_of[t]])
        if schedule.failure is not None:
            raise schedule.failure
        return self._result(
            schedule, {name: sink.data for name, sink in self.sinks.items()},
            slab_passes=len(schedule.passes),
            ring_bytes=sum({id(c._buf): c._buf.nbytes
                            for c in chans}.values()),
            ring_copy_bytes=sum({id(c._ring): c._ring.copied
                                 for c in chans}.values()),
            stored_words=sum(c.stored for c in chans))

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Simulate to completion; see :meth:`Simulator.run`: stage 1
        (:meth:`plan`), then stage 2 (:meth:`execute`).  A run that
        completes publishes the schedule it planned; one that raises
        publishes nothing."""
        self._run_began = clock.now()
        schedule = self.plan()
        result = self.execute(schedule, inputs)
        if not self.schedule_replayed:
            default_cache().get_or_build(
                self._schedule_key(self._max_cycles(result.expected_cycles)),
                lambda: schedule)
        return result
