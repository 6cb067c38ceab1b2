"""Stage 2 of the batched engine: the executor.

Stage 1 (:mod:`.plan`) plans the run on counters into a frozen
:class:`~repro.simulator.plan.Schedule`; :meth:`BatchedSimulator.execute`
only moves the data it counts, in NumPy slab passes (a replay executes
a cached schedule).  Outputs are bitwise the scalar engine's: the values
a unit computes do not depend on when it computes them.

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

**Integer-typed streams** ride int64 slabs: exact to 2**63 where
float64 slabs would cap exactness at 2**53 (the scalar engine computes
arbitrary-precision Python ints).  Stores into integer output arrays
truncate and range-check exactly like the scalar engine's per-element
NumPy stores.  Integer streams that boundary fills can leak floats into
(shrink's NaN, float constants — see :func:`float_leaky_streams`) are
demoted to float64 slabs so the floats flow downstream exactly as the
scalar engine's Python floats do.  The one documented divergence is far
outside realistic ranges: wherever a lane passes through float64
(division, math calls, mixed int/float selection, demoted streams),
integer values beyond 2**53 round as float64 where cell mode's Python
ints stay exact.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.fields import row_major_strides
from ..core.program import StencilDefinition, StencilProgram
from ..errors import SimulationError
from ..expr.analysis import index_vars
from ..lowering.cache import default_cache
from ..obs import clock
from ..obs.profile import EngineProfile
from .channel import (
    ArrayChannel,
    ArrayNetworkLink,
    StreamRing,
    claim_slab,
    stage_slab,
)
from .engine import (
    SimulationResult,
    SimulatorConfig,
    describe_machine,
    resolve_input_array,
)
from .plan import (
    _SOURCE,
    _STENCIL,
    Machine,
    Schedule,
    plan,
    read_schedule,
)


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
        """``stencil``'s :func:`~repro.simulator.plan.read_schedule`,
        once per machine: for the planner's tables, the unit and the
        rings of its in-edges."""
        if stencil.name not in self._schedules:
            self._schedules[stencil.name] = read_schedule(program, stencil)
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


class BatchedSourceUnit:
    """One input's words, read as ``(B, W)`` slabs straight out of the
    input array (:meth:`words`); the executor stores them into the
    stream's ring, which casts them to the stream's slab dtype (int64
    or float64, exact)."""

    def __init__(self, name: str, data: np.ndarray, vector_width: int,
                 out_channels: Sequence):
        # ``data`` may be a broadcast view of a lower-dimensional input:
        # words are read from it lazily, never from a full-domain copy.
        self.data = exact_source(name, data)
        self._plane = data[:1].size   # cells per outer-axis plane
        self.width = vector_width
        self.num_words = data.size // vector_width
        self.out_channels = list(out_channels)

    def words(self, w0: int, count: int) -> np.ndarray:
        """Words ``[w0, w0 + count)`` as ``(count, W)`` cells, taken
        from the outer-axis planes of ``data`` that cover them: a view
        when ``data`` is contiguous, else a copy of those planes only."""
        lo, n = w0 * self.width, count * self.width
        first = lo // self._plane
        cells = self.data[first:-(-(lo + n) // self._plane)].reshape(-1)
        lo -= first * self._plane
        return cells[lo:lo + n].reshape(count, self.width)


class BatchedStencilUnit:
    """Vectorized evaluation of one stencil
    (:class:`~repro.simulator.oracle.StencilUnit`'s values, not its
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


class BatchedSinkUnit:
    """Collects one program output from the slabs of words the executor
    hands it."""

    def __init__(self, name: str, in_channel, domain: Tuple[int, ...],
                 vector_width: int, dtype: np.dtype):
        self.name, self.in_channel = name, in_channel
        self.domain, self.width = tuple(domain), vector_width
        self.flat = np.empty(math.prod(self.domain), dtype=dtype)
        self.received = 0

    @property
    def data(self) -> np.ndarray:
        return self.flat.reshape(self.domain)

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


class BatchedSimulator:
    """The batched engine: :meth:`run` plans the machine
    (:func:`~repro.simulator.plan.plan`) and moves the data of that
    schedule in NumPy slab passes (:meth:`execute`), observably
    identical to the scalar oracle
    (``tests/test_engine_equivalence.py``).  Its channels and units are
    wired from the planner's tables (:class:`~repro.simulator.plan.Machine`):
    channel t is slot t, unit i is unit i."""

    def __init__(self, analysis, config=None,
                 device_of: Optional[Mapping[str, int]] = None):
        self.spec = describe_machine(analysis, config or SimulatorConfig(),
                                     device_of)
        self.analysis, self.program = self.spec.analysis, self.spec.program
        self.graph = self.spec.graph
        # What _bind_native did to this run's stencil units.
        self._native = None

    def _make_profile(self, cycles: int, wall_seconds: float,
                      **fields) -> EngineProfile:
        native = self._native.profile() if self._native else {}
        return EngineProfile(**{"engine": "batched", **native, **fields},
                             cycles=cycles, wall_seconds=wall_seconds)

    # -- construction --------------------------------------------------------

    @cached_property
    def _machine(self) -> Machine:
        """The machine's tables (:class:`~repro.simulator.plan.Machine`),
        for the planner, the wiring and the passes; they share the
        units' read schedules."""
        return Machine(self.spec, self._coord_slabs.schedule)

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
        headroom = self._machine.cap
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

    def _build(self, inputs: Mapping[str, np.ndarray]):
        """The channels and units over ``inputs``, wired from the
        machine's tables: ``channels`` by edge key (slot order),
        ``units`` in the machine's unit order, ``sinks`` by output.
        The edges a unit feeds share one ring, as many rows as the
        neediest of them would want alone (``capacity + headroom +
        history + 1``) and a pad (``docs/ARCHITECTURE.md``: why a
        laggard is never overwritten, why no range wraps)."""
        program, width = self.program, self.program.vectorization
        edges = list(self.spec.edges.values())
        chans = [None] * len(edges)
        for _kind, _name, outs, *_ in self._machine.units:
            layouts = [self._edge_layout(edges[t].key) for t in outs]
            if layouts:
                ring = StreamRing(max(
                    edges[t].capacity + 1 + layout["headroom"]
                    + layout["history"] for t, layout in zip(outs, layouts)),
                    width, layouts[0]["dtype"],
                    max(layout["history"] for layout in layouts))
            for t, layout in zip(outs, layouts):
                kind = ArrayNetworkLink if edges[t].remote else ArrayChannel
                chans[t] = kind(edges[t].name, edges[t].capacity, width,
                                **layout, ring=ring)
        self.channels = dict(zip(self.spec.edges, chans))
        self.units, self.sinks = [], {}
        for kind, name, outs, *entry in self._machine.units:
            outs = [chans[t] for t in outs]
            if kind == _SOURCE:
                self.units.append(BatchedSourceUnit(
                    name, resolve_input_array(program, inputs, name,
                                              program.inputs[name]),
                    width, outs))
            elif kind == _STENCIL:
                self.units.append(BatchedStencilUnit(
                    program, program.stencil(name),
                    {edges[t].key[2]: chans[t] for t in entry[1]}, outs,
                    coord_slabs=self._coord_slabs,
                    stream_meta=self._stream_meta))
            else:
                self.sinks[name] = BatchedSinkUnit(
                    name, chans[entry[1][0][1]], program.shape, width,
                    program.field_dtype(name).numpy)
                self.units.append(self.sinks[name])

    def _bind_native(self, stencil_units):
        """Swap each eligible unit's ``compute_words`` for this
        machine's compiled kernel (:mod:`.native`) — the one place the
        native code is bound, for slab passes and the replay pass."""
        # Deferred: native builds on kernel.py, which imports this module.
        from .native import bind_native
        self._native = bind_native(stencil_units, self.program.num_cells)

    # -- execution -----------------------------------------------------------

    def execute(self, schedule: Schedule,
                inputs: Mapping[str, np.ndarray], *,
                began: Optional[float] = None) -> SimulationResult:
        """Stage 2: build the units and rings over ``inputs`` and move
        the words of ``schedule``'s passes — nothing here decides a
        cycle.  A pass applies each unit once, in topological order:
        it stages, computes and commits all of the pass's words of
        that unit at once.  Values do not depend on timing, and a
        pass's summed traffic fits the ring headroom, so every
        producer's words may all be written before its consumers pop.
        A schedule that ends in a failure raises it once its passes
        have run: a data error among them still wins.  The profile's
        wall time counts from ``began`` (:meth:`run` passes its start,
        so planning counts), by default from this call."""
        if began is None:
            began = clock.now()
        self._build(inputs)
        self._bind_native([unit for unit in self.units
                           if isinstance(unit, BatchedStencilUnit)])
        chans = list(self.channels.values())
        units, fifo_of = self._machine.units, self._machine.chans[3]
        moved = [0] * len(units)   # words each unit has pushed/computed
        for made, sent, popped, delivered in schedule.passes:
            for i in self._machine.order:
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
        profile = self._make_profile(
            schedule.cycles, clock.now() - began,
            **schedule.stats(), slab_passes=len(schedule.passes),
            ring_bytes=sum({id(c._buf): c._buf.nbytes
                            for c in chans}.values()),
            ring_copy_bytes=sum({id(c._ring): c._ring.copied
                                 for c in chans}.values()),
            stored_words=sum(c.stored for c in chans))
        return schedule.result(
            self.spec, {name: sink.data for name, sink in self.sinks.items()},
            profile)

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Simulate to completion, as the scalar oracle's
        :meth:`~repro.simulator.oracle.Simulator.run` does: stage 1
        (:func:`~repro.simulator.plan.plan`), then stage 2
        (:meth:`execute`).  A run that completes publishes the schedule
        it planned; one that raises publishes nothing."""
        began = clock.now()
        schedule = plan(self._machine)
        result = self.execute(schedule, inputs, began=began)
        if not schedule.replayed:
            default_cache().get_or_build(self._machine.key, lambda: schedule)
        return result
