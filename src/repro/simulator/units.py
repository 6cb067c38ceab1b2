"""Dataflow units: memory readers, stencil pipelines, memory writers.

Each unit is stepped once per simulation cycle and either makes progress
or stalls. A stencil unit models the fully pipelined circuit of
Sec. III-A / Fig. 12:

* one word (W cells) is consumed per input field per cycle, with smaller
  internal buffers starting their fill later so all fields stay
  synchronized;
* out-of-bounds accesses are predicated into the pipeline via the
  stencil's boundary conditions;
* the computed word traverses a latency line of depth equal to the AST
  critical path before being pushed to all consumers;
* if any needed input is empty, or the output side is backed up, the
  whole pipeline stalls (nothing advances).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.boundary import BoundaryConditions
from ..core.fields import flatten_offset, row_major_strides, unflatten_index
from ..core.program import StencilDefinition, StencilProgram
from ..errors import SimulationError
from .channel import RateLimiter
from ..lowering import compiled_stencil
from .compile import CompiledStencil

Word = Tuple[float, ...]


def schedule_reads(domain: Tuple[int, ...], width: int,
                   index_names: Sequence[str], accesses,
                   fields: Sequence[str]):
    """Per-access and per-field streaming schedule of a stencil unit.

    Shared by the scalar and batched stencil units — the engines'
    equivalence invariant depends on both deriving the identical
    schedule.

    Returns ``(access_info, readahead, init_words, pop_start,
    min_flat)`` where ``access_info`` is a list of ``(access,
    full_offset, flat_offset)`` triples, ``readahead`` the per-field
    forward reach in words, ``init_words`` the unit's fill phase,
    ``pop_start`` the per-field step at which popping begins, and
    ``min_flat`` the furthest-back flattened offset per field.
    """
    access_info = []
    for access in accesses:
        by_dim = dict(zip(access.dims, access.offsets))
        full = tuple(by_dim.get(d, 0) for d in index_names)
        access_info.append((access, full, flatten_offset(full, domain)))
    readahead: Dict[str, int] = {}
    min_flat: Dict[str, int] = {}
    for field in fields:
        flats = [flat for access, _full, flat in access_info
                 if access.field == field]
        max_flat = max(flats) if flats else 0
        readahead[field] = max(0, -(-max(0, max_flat) // width))
        min_flat[field] = min(flats) if flats else 0
    init_words = max(readahead.values(), default=0)
    pop_start = {f: init_words - readahead[f] for f in fields}
    return access_info, readahead, init_words, pop_start, min_flat


class Unit:
    """Common interface: :meth:`step` returns True on progress."""

    name: str

    def step(self, now: int) -> bool:
        raise NotImplementedError

    @property
    def done(self) -> bool:
        raise NotImplementedError

    def describe_block(self) -> str:
        """Human-readable reason the unit did not progress last step."""
        return "unknown"


class SourceUnit(Unit):
    """Reads an input field from "DRAM" and streams it to all consumers.

    The field is streamed in iteration order over the *full* domain
    (lower-dimensional fields are broadcast), one vector word per cycle,
    blocking if any consumer channel is full. ``words_per_cycle`` caps
    the read rate to model shared memory bandwidth.
    """

    def __init__(self, name: str, data: np.ndarray, vector_width: int,
                 out_channels: Sequence, words_per_cycle: float = 1.0):
        self.name = name
        flat = np.ascontiguousarray(data).ravel()
        if flat.size % vector_width != 0:
            raise SimulationError(
                f"source {name!r}: size {flat.size} not divisible by "
                f"W={vector_width}")
        # Words are sliced lazily from the flat array: materializing a
        # Python tuple per word up front is O(cells) allocation before
        # the machine has simulated a single cycle.
        self._flat = flat
        self.width = vector_width
        self.num_words = flat.size // vector_width
        self.out_channels = list(out_channels)
        self.next_word = 0
        self.stall_cycles = 0
        self._limiter = RateLimiter(words_per_cycle)
        self._block = ""

    @property
    def words_per_cycle(self) -> float:
        return self._limiter.rate

    def step(self, now: int) -> bool:
        if self.done:
            return False
        self._limiter.refill()
        if not self._limiter.ready:
            self._block = "bandwidth throttled"
            return False
        blocked = [c.name for c in self.out_channels if c.full]
        if blocked:
            self.stall_cycles += 1
            self._block = f"output full: {blocked}"
            return False
        word = self._materialize_word()
        for channel in self.out_channels:
            channel.push(word)
        self.next_word += 1
        self._limiter.spend()
        return True

    def _materialize_word(self):
        """The next word in pushable form (hook for the batched engine,
        whose channels carry NumPy rows instead of tuples)."""
        base = self.next_word * self.width
        return tuple(self._flat[base:base + self.width].tolist())

    @property
    def done(self) -> bool:
        return self.next_word >= self.num_words

    def describe_block(self) -> str:
        return self._block


class StencilBookkeeping:
    """Stall and streaming-continuity accounting shared by the scalar
    and batched stencil units.

    This bookkeeping is load-bearing for the engines' equivalence
    invariant (stall counters and continuity flags must match exactly),
    so both unit implementations draw it from here.
    """

    def _note_stall(self, reason: str):
        self.stall_cycles += 1
        if self.local_step >= self.init_words:
            self.stall_after_init += 1
        self._block = reason

    def _mark_pushed(self, now: int, count: int):
        """Record ``count`` consecutive output words leaving, the last
        at cycle ``now + count - 1``."""
        if self.first_push_cycle is None:
            self.first_push_cycle = now
        self.last_push_cycle = now + count - 1
        self.words_pushed += count

    @property
    def streamed_continuously(self) -> bool:
        """True when every output word left in consecutive cycles —
        the pipeline never hiccuped once streaming began."""
        if self.first_push_cycle is None:
            return False
        return (self.last_push_cycle - self.first_push_cycle
                == self.words_pushed - 1)

    def needed_fields(self) -> List[str]:
        """Fields whose pop window covers the current local step."""
        return [f for f in self.fields
                if self.pop_start[f] <= self.local_step
                < self.pop_start[f] + self.num_words]

    def describe_block(self) -> str:
        return self._block


class StencilUnit(StencilBookkeeping, Unit):
    """One pipelined stencil operator."""

    def __init__(self, program: StencilProgram,
                 stencil: StencilDefinition,
                 in_channels: Dict[str, object],
                 out_channels: Sequence,
                 compute_latency: int):
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

        # Per-access precomputation (full-domain offset vectors, linear
        # offsets) and the per-field read-ahead / fill-start schedule.
        self.compiled: CompiledStencil = compiled_stencil(
            stencil.ast, code=stencil.canonical_code)
        fields = sorted(self.in_channels)
        (self.access_info, _readahead, self.init_words, self.pop_start,
         self.min_flat) = schedule_reads(
            domain, width, program.index_names, self.compiled.accesses,
            fields)
        self.fields = fields

        # Streaming state.
        self.local_step = 0
        self.buffers: Dict[str, Dict[int, float]] = {f: {} for f in fields}
        self.evict_next: Dict[str, int] = {f: 0 for f in fields}
        self.latency_line: Deque[Tuple[int, Word]] = deque()
        self.line_capacity = self.compute_latency + 1
        self.stall_cycles = 0
        self.stall_after_init = 0
        self.first_push_cycle: Optional[int] = None
        self.last_push_cycle: Optional[int] = None
        self.words_pushed = 0
        self._block = ""
        self._strides = row_major_strides(domain)

        boundary = stencil.boundary
        self.shrink = boundary.shrink
        self.boundary = boundary
        self.fill_value = math.nan

    # -- per-cycle operation -------------------------------------------------

    def step(self, now: int) -> bool:
        progressed = self._drain(now)
        if self.local_step >= self.init_words + self.num_words:
            return progressed
        # Which fields must deliver a word this step?
        needed = self.needed_fields()
        empty = [f for f in needed if self.in_channels[f].empty]
        if empty:
            self._note_stall(f"waiting on input(s) {empty}")
            return progressed
        if len(self.latency_line) >= self.line_capacity:
            self._note_stall("output backpressure (latency line full)")
            return progressed
        for field in needed:
            word = self.in_channels[field].pop()
            base = (self.local_step - self.pop_start[field]) * self.width
            buffer = self.buffers[field]
            for lane, value in enumerate(word):
                buffer[base + lane] = value
        if self.local_step >= self.init_words:
            out_word = self._compute_word(self.local_step - self.init_words)
            self.latency_line.append((now + self.compute_latency, out_word))
        self.local_step += 1
        return True

    def _drain(self, now: int) -> bool:
        if not self.latency_line:
            return False
        ready, word = self.latency_line[0]
        if ready > now:
            return False
        if any(c.full for c in self.out_channels):
            return False
        self.latency_line.popleft()
        for channel in self.out_channels:
            channel.push(word)
        self._mark_pushed(now, 1)
        return True

    def _compute_word(self, word_index: int) -> Word:
        width = self.width
        values = []
        for lane in range(width):
            t = word_index * width + lane
            values.append(self._compute_cell(t))
        self._evict(word_index)
        return tuple(values)

    def _compute_cell(self, t: int) -> float:
        coords = unflatten_index(t, self.domain, self._strides)
        args: List[float] = []
        for access, full, flat in self.access_info:
            in_bounds = True
            for c, off, extent in zip(coords, full, self.domain):
                pos = c + off
                if pos < 0 or pos >= extent:
                    in_bounds = False
                    break
            if in_bounds:
                args.append(self.buffers[access.field][t + flat])
            elif self.shrink:
                args.append(self.fill_value)
            else:
                condition = self.boundary.for_input(access.field)
                if condition.kind == "constant":
                    args.append(condition.value)
                else:  # copy: the center value
                    args.append(self.buffers[access.field][t])
        try:
            value = self.compiled(args, coords)
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            # Math-domain errors poison the cell: pow(0, -n) is the one
            # zero-division the IEEE-flavoured _div cannot intercept,
            # and TypeError arises when pow(negative, fractional)
            # promotes to complex and hits a comparison.
            return math.nan
        if isinstance(value, complex):
            return math.nan
        return value

    def _evict(self, word_index: int):
        """Drop buffered elements no future cell can access.

        The center element is always retained (``min(min_flat, 0)``)
        because copy boundary conditions may read it even when every
        declared access offset is ahead of the center.
        """
        for field in self.fields:
            low = ((word_index + 1) * self.width
                   + min(self.min_flat[field], 0))
            buffer = self.buffers[field]
            nxt = self.evict_next[field]
            while nxt < low:
                buffer.pop(nxt, None)
                nxt += 1
            self.evict_next[field] = nxt

    @property
    def done(self) -> bool:
        return (self.local_step >= self.init_words + self.num_words
                and not self.latency_line)


class SinkUnit(Unit):
    """Collects one program output back into an array."""

    def __init__(self, name: str, in_channel, domain: Tuple[int, ...],
                 vector_width: int, dtype: np.dtype):
        self.name = name
        self.in_channel = in_channel
        self.domain = tuple(domain)
        self.width = vector_width
        num_cells = 1
        for extent in domain:
            num_cells *= extent
        self.num_words = num_cells // vector_width
        self.flat = np.empty(num_cells, dtype=dtype)
        self.received = 0
        self.stall_cycles = 0
        self.first_word_cycle: Optional[int] = None
        self.last_word_cycle: Optional[int] = None
        self._block = ""

    def step(self, now: int) -> bool:
        if self.done:
            return False
        if self.in_channel.empty:
            self.stall_cycles += 1
            self._block = "waiting on producer"
            return False
        word = self.in_channel.pop()
        base = self.received * self.width
        for lane, value in enumerate(word):
            self.flat[base + lane] = value
        if self.first_word_cycle is None:
            self.first_word_cycle = now
        self.last_word_cycle = now
        self.received += 1
        return True

    @property
    def streamed_continuously(self) -> bool:
        """True when all output words arrived in consecutive cycles."""
        if self.first_word_cycle is None:
            return False
        return (self.last_word_cycle - self.first_word_cycle
                == self.received - 1)

    @property
    def done(self) -> bool:
        return self.received >= self.num_words

    @property
    def data(self) -> np.ndarray:
        return self.flat.reshape(self.domain)

    def describe_block(self) -> str:
        return self._block
