"""The scalar oracle: the machine model every other engine is checked
against, stepped one cycle at a time.

A design is a buffered pipeline read off its machine description
(:class:`~repro.simulator.engine.MachineSpec`): one :class:`SourceUnit`
per input, one pipelined :class:`StencilUnit` per stencil, one
:class:`SinkUnit` per program output, a bounded :class:`Channel` on
every edge and a :class:`NetworkLink` on every edge the placement cuts.
:meth:`Simulator.run` steps the links, then every unit, once per cycle
until all units are done, and declares a deadlock after
``deadlock_window`` cycles without progress while no link holds a word.

Channels model the Intel OpenCL channels the generated code targets
(Sec. VI-A): compile-time fixed capacity, blocking on full/empty.  A
network link (Sec. VI-B, SMI remote streams) adds propagation latency
and a bounded per-cycle transfer rate.  A stencil unit models the fully
pipelined circuit of Sec. III-A / Fig. 12:

* one word (W cells) is consumed per input field per cycle, with smaller
  internal buffers starting their fill later so all fields stay
  synchronized;
* out-of-bounds accesses are predicated into the pipeline via the
  stencil's boundary conditions;
* the computed word traverses a latency line of depth equal to the AST
  critical path before being pushed to all consumers;
* if any needed input is empty, or the output side is backed up, the
  whole pipeline stalls (nothing advances).

A word is whatever Python object its producer pushes: a ``W``-tuple of
the cell mode compiler's Python numbers (:mod:`.compile`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.fields import row_major_strides, unflatten_index
from ..core.program import StencilDefinition, StencilProgram
from ..errors import DeadlockError, SimulationError
from ..lowering import compiled_stencil
from ..obs import clock
from ..obs.profile import EngineProfile
from .channel import RateLimiter, is_link_rate
from .compile import CompiledStencil
from .engine import (
    SimulationResult,
    SimulatorConfig,
    deadlock_error,
    describe_machine,
    emit_run_metrics,
    resolve_input_array,
    schedule_reads,
)

Word = Tuple[float, ...]


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
        if not is_link_rate(words_per_cycle):
            raise SimulationError(
                f"link {name!r}: words_per_cycle must be finite and "
                f"positive, got {words_per_cycle}")
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


# Every unit's ``step(now)`` returns True on progress; ``block`` is
# why it did not progress last step.

class SourceUnit:
    """Reads an input field from "DRAM" and streams it to all consumers.

    The field is streamed in iteration order over the *full* domain
    (lower-dimensional fields are broadcast), one vector word per cycle,
    blocking if any consumer channel is full.
    """

    def __init__(self, name: str, data: np.ndarray, vector_width: int,
                 out_channels: Sequence):
        self.name = name
        if data.size % vector_width != 0:
            raise SimulationError(
                f"source {name!r}: size {data.size} not divisible by "
                f"W={vector_width}")
        # Words are read lazily from ``data``, which may be a broadcast
        # view of a lower-dimensional input: neither a Python tuple per
        # word nor a full-domain copy is made before the first cycle.
        self.data = data
        self.width = vector_width
        self.num_words = data.size // vector_width
        self.out_channels = list(out_channels)
        self.next_word = 0
        self.stall_cycles = 0
        self.block = ""

    def step(self, now: int) -> bool:
        if self.done:
            return False
        blocked = [c.name for c in self.out_channels if c.full]
        if blocked:
            self.stall_cycles += 1
            self.block = f"output full: {blocked}"
            return False
        lo = self.next_word * self.width
        word = tuple(self.data.flat[lo:lo + self.width].tolist())
        for channel in self.out_channels:
            channel.push(word)
        self.next_word += 1
        return True

    @property
    def done(self) -> bool:
        return self.next_word >= self.num_words


class StencilUnit:
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
        self.block = ""
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
        if self.first_push_cycle is None:
            self.first_push_cycle = now
        self.last_push_cycle = now
        self.words_pushed += 1
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

    def _note_stall(self, reason: str):
        self.stall_cycles += 1
        if self.local_step >= self.init_words:
            self.stall_after_init += 1
        self.block = reason

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


class SinkUnit:
    """Collects one program output back into an array."""

    def __init__(self, name: str, in_channel, domain: Tuple[int, ...],
                 vector_width: int, dtype: np.dtype):
        self.name = name
        self.in_channel = in_channel
        self.domain = tuple(domain)
        self.width = vector_width
        self.flat = np.empty(math.prod(self.domain), dtype=dtype)
        self.num_words = self.flat.size // vector_width
        self.received = 0
        self.stall_cycles = 0
        self.first_word_cycle: Optional[int] = None
        self.last_word_cycle: Optional[int] = None
        self.block = ""

    def step(self, now: int) -> bool:
        if self.done:
            return False
        if self.in_channel.empty:
            self.stall_cycles += 1
            self.block = "waiting on producer"
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


def _key(edge) -> Tuple[str, str, str]:
    return edge.src, edge.dst, edge.data


class Simulator:
    """Cycle-level simulator of one StencilFlow design.

    Args:
        analysis: buffering analysis of the program (or a program, which
            will be analyzed with defaults).
        config: machine tunables.
        device_of: optional stencil-name → device-id placement; edges
            crossing devices become network links (Sec. III-B).
    """

    def __init__(self, analysis, config: SimulatorConfig = None,
                 device_of: Optional[Mapping[str, int]] = None):
        self.spec = describe_machine(analysis, config or SimulatorConfig(),
                                     device_of)

    def _build(self, inputs: Mapping[str, np.ndarray]):
        """The machine over ``inputs``: its channels by edge key, its
        links, and its units by graph node (sources, stencils, sinks)."""
        spec = self.spec
        program, graph = spec.program, spec.graph
        width = program.vectorization
        self.channels = {key: NetworkLink(edge.name, edge.capacity,
                                          edge.latency, edge.rate)
                         if edge.remote else Channel(edge.name, edge.capacity)
                         for key, edge in spec.edges.items()}
        self.links = [self.channels[key] for key, edge in spec.edges.items()
                      if edge.remote]

        def outs(node: str) -> list:
            return [self.channels[_key(e)] for e in graph.out_edges(node)]

        self.units = {}
        for name, field in program.inputs.items():
            data = resolve_input_array(program, inputs, name, field)
            self.units[f"input:{name}"] = SourceUnit(
                name, data, width, outs(f"input:{name}"))
        for stencil in program.stencils:
            node = f"stencil:{stencil.name}"
            ins = {e.data: self.channels[_key(e)]
                   for e in graph.in_edges(node)}
            self.units[node] = StencilUnit(
                program, stencil, ins, outs(node),
                spec.analysis.node_delays[node].compute_cycles)
        self.sinks = {}
        for out in program.outputs:
            (edge,) = graph.in_edges(f"output:{out}")
            self.sinks[out] = self.units[f"output:{out}"] = SinkUnit(
                out, self.channels[_key(edge)], program.shape, width,
                program.field_dtype(out).numpy)

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        """Simulate to completion. Raises :class:`DeadlockError` if the
        machine wedges, :class:`SimulationError` on cycle-cap overrun."""
        # The profile's wall clock starts here, as every engine's does.
        began = clock.now()
        self._build(inputs)
        spec, units = self.spec, list(self.units.values())
        now = idle = 0
        while not all(u.done for u in units):
            if now >= spec.max_cycles:
                raise SimulationError(
                    f"simulation exceeded {spec.max_cycles} cycles "
                    f"(expected ~{spec.expected})")
            for link in self.links:
                link.step(now)
            if any([unit.step(now) for unit in units]):
                idle = 0
            else:
                idle += 1
                # No deadlock while a link holds a word (in flight or
                # delivered, unpopped); the planner's twin is
                # ``links_hold_words`` in ``plan.py::_Planner._plan_window``.
                if idle >= spec.config.deadlock_window and \
                        not any(len(link) for link in self.links):
                    raise self._deadlock_error(now)
            now += 1

        stencils = [u for u in units if isinstance(u, StencilUnit)]
        profile = EngineProfile(engine="scalar", cycles=now,
                                wall_seconds=clock.now() - began,
                                scalar_cycles=now)
        emit_run_metrics(profile)
        return SimulationResult(
            outputs={name: sink.data for name, sink in self.sinks.items()},
            cycles=now,
            expected_cycles=spec.expected,
            stall_cycles={u.name: u.stall_cycles for u in units},
            steady_stall_cycles={u.name: u.stall_after_init
                                 for u in stencils},
            channel_occupancy={c.name: c.max_occupancy
                               for c in self.channels.values()},
            output_continuous={name: sink.streamed_continuously
                               for name, sink in self.sinks.items()},
            stencil_continuous={u.name: u.streamed_continuously
                                for u in stencils},
            profile=profile,
        )

    def _deadlock_error(self, now: int) -> DeadlockError:
        """The detector's error, read off the wedged machine and its
        graph: a blocked stencil waits on the producers of its empty
        needed inputs, else (like a source) on the consumers of its full
        outputs — of all of them when none is full; a sink waits on its
        producer."""
        graph, chans = self.spec.graph, self.channels
        blocked = []
        for node, unit in self.units.items():
            if unit.done:
                continue
            ins, outs = graph.in_edges(node), graph.out_edges(node)
            if isinstance(unit, SinkUnit):
                waits = {ins[0].src}
            else:
                needed = (unit.needed_fields()
                          if isinstance(unit, StencilUnit) else ())
                waits = {e.src for e in ins if e.data in needed
                         and chans[_key(e)].empty}
                waits = waits or {e.dst for e in (
                    [e for e in outs if chans[_key(e)].full] or outs)}
            blocked.append((unit.name, unit.block,
                            {wait.split(":", 1)[1] for wait in waits}))
        return deadlock_error(now, blocked, [
            (c.name, len(c), c.capacity) for c in chans.values()])
