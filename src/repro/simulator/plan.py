"""Stage 1 of the batched engine: the planner.

Simulated control flow — cycles, stalls, occupancy, the Fig. 4
deadlock — never depends on the streamed values, only on the machine's
structure (delay buffers, channel depths, link rates, latency).  So
:func:`plan` runs the machine (:class:`Machine`, from the lowered
analysis, configuration and placement alone) on counters and hands the
run's frozen :class:`Schedule` to stage 2 (:mod:`.batched`), which only
moves data.  A control run
(:func:`~repro.simulator.control.simulate_control`) is this stage
alone.

Between stall points the machine is *deterministic*: every unit makes
the same decision every ``q`` cycles (:func:`_window_period`) while
each channel occupancy evolves linearly.  The planner steps a window of
``q`` cycles of the exact scalar semantics on its own counters, FIFO
ready-times, link credits and unit positions (seeded once, at cycle
0), proves by state congruence how many times the window repeats —
bounded by decision margins on channel occupancy, link ready counts
and latency-line lengths, by the timed FIFOs' queued entries, by
schedule phase boundaries, ring headroom and remaining words — and
advances its state over all ``k * q`` cycles
(:meth:`_Planner._plan_window`).  Ramps, drains and a stall that lasts
while links hold words repeat modulo a constant counter drift; what
does not repeat is stepped virtually over a longer stretch and executed
once, and idle cycles with empty links carry the deadlock detector's
streak in and out of each window.  The cycle the detector may fire on
is a one-cycle plan, so the deadlock (and the cycle cap) are raised
here, from counter state.  The schedule sums every timing observable
and groups the windows into slab passes.
"""

from __future__ import annotations

import dataclasses
import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import List, Optional, Tuple

import numpy as np

from ..core.program import StencilDefinition, StencilProgram
from ..errors import DeadlockError, SimulationError
from ..lowering import compiled_stencil
from ..lowering.cache import content_key, default_cache
from ..lowering.pipeline import program_content_hash
from ..obs import clock
from ..obs.profile import MAX_WINDOW_SAMPLES, EngineProfile
from .channel import RateLimiter
from .engine import (
    MachineSpec,
    SimulationResult,
    deadlock_error,
    emit_run_metrics,
    schedule_reads,
)

_INF = float("inf")

#: Upper bound on the window period (the links' delivery period); it
#: equals ``RateLimiter.SCAN_LIMIT``, the longest period a rate can have.
MAX_WINDOW = 4096

#: How many periods a non-repeating window (ramp/drain transient) may
#: stretch at most (any length is exact): past 24 a new plan, which may
#: repeat, costs less than the cycles it would otherwise step.
WINDOW_STRETCH = 24

#: Fewest cycles a non-repeating window stretches before it may end on
#: a regular-looking period.  A plan's fixed cost is about 6 virtual
#: cycles' (docs/ARCHITECTURE.md, "Stretching"), and floors of 6 to 32
#: plan equally fast; 32 cuts a transient into the fewest windows.
MIN_STRETCH = 32

#: Unit kinds of the planner's machine tables.
_SOURCE, _STENCIL, _SINK = range(3)


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
    (slots as laid out in :class:`Machine`), timed
    FIFOs, link credits, unit positions (source words pushed, stencil
    local step, sink words received), each unit's last block and the
    work left (steps + latency-line words + words) — plus the timing
    observables summed so far.

    A timed FIFO is a list of ready-times less its ``offsets`` entry,
    live from its ``heads`` entry on (pops move the head, pushes
    append); ``runs`` records entries proven ``q`` apart."""

    __slots__ = ("cnt", "fifos", "heads", "offsets", "runs", "credits",
                 "pos", "block", "remaining", "stalls", "steady", "first",
                 "last", "count", "peak")

    def __init__(self, n_chan: int, n_link: int, units):
        self.cnt = [0] * (n_chan + n_link)
        n_fifo = n_link + sum(entry[0] == _STENCIL for entry in units)
        self.fifos: List[List[int]] = [[] for _ in range(n_fifo)]
        self.heads, self.offsets, self.runs = \
            [0] * n_fifo, [0] * n_fifo, [(0, 0, 0, 0)] * n_fifo
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
    """A unit's ``block`` text (``oracle.py``) from the VM's record of its
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
    ``(field, items)`` pairs, the rest the planner's statistics — the
    only record of them.  ``failure`` is the deadlock or cycle-cap
    error the run ends in after its passes (never set on a published
    schedule); ``replayed`` marks a published schedule read back
    (:func:`plan`), whose statistics are the recording run's but for
    ``plan_seconds``, the wall time :func:`plan` took, 0.0 on a replay."""

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
    replayed: bool = False
    plan_seconds: float = 0.0

    def stats(self) -> dict:
        """The planner statistics, as
        :class:`~repro.obs.profile.EngineProfile` fields."""
        return dict(plan_count=self.plan_count,
                    virtual_cycles=self.virtual_cycles,
                    window_count=self.window_count,
                    window_cycles=self.window_cycles,
                    window_sizes=self.window_sizes,
                    drift_windows=self.drift_windows,
                    schedule_replayed=self.replayed,
                    plan_seconds=0.0 if self.replayed else self.plan_seconds)

    def result(self, spec: MachineSpec, outputs, profile: EngineProfile
               ) -> SimulationResult:
        """``outputs`` with this schedule's timing and ``profile``."""
        emit_run_metrics(profile)
        return SimulationResult(
            outputs=outputs, cycles=self.cycles,
            expected_cycles=spec.expected, profile=profile,
            **{name: dict(values) for name, values in self.timing})


def _fifo_repeats(fifo: List[int], start: int, stop: int, pops: List[int],
                  now: int, q: int, strict_only: bool,
                  run: Tuple[int, int, int, int]) -> Tuple[float, bool]:
    """How many consecutive windows a timed FIFO — a link's in-flight
    ring, a stencil's latency line — replays window 1's pops (0: not
    even congruent), and whether it is window 1's shifted by ``q``.
    ``fifo[start:stop]`` held its ready-times at window start (less its
    offset, as ``now`` is), window 1 popped ``n`` on the window-relative
    cycles ``pops`` and pushed ``fifo[stop:]``; ``run`` is ``(first,
    end, n, q)``: ``fifo[i + n] - fifo[i] == q`` for i in [first, end).

    Strict case: as many pushes as pops, each entry ``q`` after the one
    ``n`` before it (checked outside ``run``), so the FIFO is window
    1's translated in time and replays indefinitely.  Otherwise, if
    window 1 never found it empty or its head immature (``strict_only``;
    also set for links at >= 1 word/cycle), repeat w pops entry
    ``start + w*n + r``, queued before the window, on cycle ``now + w*q
    + pops[r]``: mature if ``run`` chains it to entry ``start + r``,
    which window 1 popped mature, else checked."""
    n = len(pops)
    end = run[1] if run[0] <= start and run[2:] == (n, q) else start
    if len(fifo) - stop == n:
        for i in range(max(start, end), stop):
            if fifo[i + n] - fifo[i] != q:
                break
        else:
            return _INF, True
    if strict_only:
        return 0, False
    if not n:
        return _INF, False
    k = (stop - start) // n
    w = max(1, (end - start) // n + 1)
    if k > w:
        due = (now + q * np.arange(w, k, dtype=np.int64)[:, None]
               + np.asarray(pops, dtype=np.int64))
        late = (np.asarray(fifo[start + w * n:start + k * n],
                           dtype=np.int64).reshape(k - w, n) > due).any(1)
        if late.any():
            k = w + int(np.argmax(late))
    return k, False


def _advance_fifo(fifo: List[int], start: int, head: int, stop: int,
                  k: int, q: int, shifted: bool) -> Tuple[int, int]:
    """``(head, offset step)`` of a timed FIFO after ``k`` windows of
    ``q`` cycles, given window 1's (:func:`_fifo_repeats`): a shifted
    one only moves its offset by ``(k-1)*q``; otherwise repeats 2..k pop
    queued entries and push window 1's ``fifo[stop:]``, ``q`` later."""
    if shifted:
        return head, (k - 1) * q
    pushed = fifo[stop:]
    fifo.extend([time + w * q for w in range(1, k) for time in pushed])
    return head + (k - 1) * (head - start), 0


def machine_key_parts(spec: MachineSpec) -> list:
    """The machine ``spec`` describes, as content-key parts: the width-
    normalized program hash and the width, the stage delays, every
    edge with its capacity less the link credits, remoteness and link
    rate, the wire latency, the placement and the deadlock window.
    Keys the batched engine's window schedule and the kernel engine's
    recorded outcome (``kernel.py``)."""
    program, config, analysis = spec.program, spec.config, spec.analysis
    return [
        program_content_hash(program, normalize_width=True),
        program.vectorization,
        analysis.pipeline_latency,
        sorted((node, delay.compute_cycles)
               for node, delay in analysis.node_delays.items()),
        [[list(key), edge.capacity - edge.latency, edge.remote, edge.rate]
         for key, edge in sorted(spec.edges.items())],
        config.network_latency,
        spec.placement,
        config.deadlock_window,
    ]


def read_schedule(program: StencilProgram,
                  stencil: StencilDefinition) -> Tuple:
    """``(compiled, schedule)`` of ``stencil``: its array-mode compiled
    expression and :func:`~repro.simulator.engine.schedule_reads` over
    the fields it reads, as the scalar unit derives them."""
    compiled = compiled_stencil(stencil.ast, mode="array",
                                code=stencil.canonical_code)
    return compiled, schedule_reads(
        program.shape, program.vectorization, program.index_names,
        compiled.accesses, stencil.accessed_fields)


class Machine:
    """The machine as the counter VM sees it, from the lowered graph
    alone — no unit or ring is built.

    ``spec`` describes it (:class:`~repro.simulator.engine.MachineSpec`).
    The executor passes its memo of :func:`read_schedule`, which its
    units share.  ``key`` addresses the machine's schedule
    (:func:`_schedule_key`), ``max_cycles`` caps it.

    A channel is its slot t in [0, C), in ``graph.edges`` order (the
    order of ``spec.edges``); ``chans`` holds per slot
    its name, capacity, the counter slot of its ready count (t itself
    on a plain channel, whose ready count *is* its total; C + j on link
    j), its FIFO slot (j for link j's in-flight ring, else -1), its
    wire latency, and its producing and consuming unit.  ``links``
    holds each link's slot, ``rates`` its :class:`RateLimiter`.
    Latency line s has FIFO slot L + s and counter slot C + L + s.

    ``units`` holds per unit, in build order (sources, stencils,
    sinks): ``(kind, name, out slots, schedule phase boundaries,
    ...)``; a sink adds the ``(None, slot, ready slot)`` of its pops, a
    stencil its in slots, the needed ``(field, slot, ready slot)`` per
    pop phase as ``(end step, triples)``, its line's FIFO and counter
    slots, line capacity, compute latency, init words and final step.
    ``names`` are the units' names, ``order`` a topological unit order
    (producers strictly before consumers), the one a slab pass applies
    units in.  ``cap`` is the largest batch the machine ever executes:
    the configured cap, clamped to the program's word count so ring
    headroom and window allocations stay proportional to small
    domains."""

    def __init__(self, spec: MachineSpec, read_schedule=read_schedule):
        self.config = config = spec.config
        self.expected, self.max_cycles = spec.expected, spec.max_cycles
        self.key = _schedule_key(spec)
        program, graph = spec.program, spec.graph
        slot = {key: t for t, key in enumerate(spec.edges)}
        edges, n_chan = list(spec.edges.values()), len(slot)
        for edge in edges:
            if edge.capacity < 1:
                raise SimulationError(
                    f"{'link' if edge.remote else 'channel'} "
                    f"{edge.name!r}: capacity must be >= 1, "
                    f"got {edge.capacity}")
        links = [t for t, edge in enumerate(edges) if edge.remote]
        rates = [RateLimiter(edges[t].rate) for t in links]
        ready_of, fifo_of = list(range(n_chan)), [-1] * n_chan
        for j, t in enumerate(links):
            ready_of[t], fifo_of[t] = n_chan + j, j
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
            _info, _reach, init, start, _flat = read_schedule(
                program, stencil)[1]
            end = init + words
            cuts = sorted({cut for first in start.values()
                           for cut in (first, first + words)})
            phases = [(cut, tuple(
                (f, t, ready_of[t]) for f, t in ins.items()
                if start[f] < cut <= start[f] + words))
                for cut in cuts] + [(end, ())]
            latency = max(0, spec.analysis.node_delays[node].compute_cycles)
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
        self.chans = ([edge.name for edge in edges],
                      [edge.capacity for edge in edges], ready_of, fifo_of,
                      [edge.latency for edge in edges], producer, consumer)
        self.links, self.rates, self.units = links, rates, units
        self.names, self.order = [entry[1] for entry in units], order
        self.cap = max(1, min(config.max_batch_words, words))


def _window_period(machine: Machine) -> int:
    """Cycles per planned window: the delivery period of the machine's
    one link rate; 1 without a link, and when the rate has no finite
    schedule (period-1 windows are exact at any rate, they only repeat
    less).  A period never exceeds ``RateLimiter.SCAN_LIMIT``, which
    equals ``MAX_WINDOW``."""
    if not machine.rates:
        return 1
    return machine.rates[0].delivery_period() or 1


class _Planner:
    """The planner VM of one machine: its state between windows
    (:class:`_Counters`), the stretch floor and its work counts.

    Congruence has two rules (docs/ARCHITECTURE.md, "The planner").
    Every decision of a cycle is either a threshold test on a counter
    (channel occupancy, link ready count, latency-line length) or a
    head-maturity test on a timed FIFO (a link's in-flight ring, a
    stencil's latency line), plus the credit schedule.  Counters may
    drift by a constant per window as long as no recorded decision
    margin is crossed; a FIFO must be window 1's shifted by exactly q,
    or never have made window 1 wait (then its already-queued entries
    are checked against the cycles they will be popped on); credits
    must return to their start values.  Identical decisions give
    identical actions shifted by q, so the ramp and drain transients —
    and a stall that lasts while links hold words — repeat as well as
    the steady state.  What does not repeat is stretched over many
    periods instead (exact for any length), ending once the machine
    looks periodic."""

    def __init__(self, machine: Machine):
        self.machine, units = machine, machine.units
        self.vm = _Counters(len(machine.chans[1]), len(machine.links),
                            units)
        self.rates = [limiter.rate for limiter in machine.rates]
        self.ceilings = [max(rate, 1.0) for rate in self.rates]  # credit cap
        _names, capacity, _ready, fifo_of, latency_of, _prod, consumer = \
            machine.chans
        # Per unit, unpacked once: kind, out slots as ``(slot, capacity
        # - 1, FIFO, latency, consumer)``, pop phases (a sink's pops),
        # line FIFO (-1 without) and counter slots, line capacity,
        # latency, init words and end step (a source's or sink's words,
        # twice).
        self.fields = []
        for kind, _name, outs, bounds, *entry in units:
            outs = tuple((t, capacity[t] - 1, fifo_of[t], latency_of[t],
                          consumer[t]) for t in outs)
            self.fields.append(
                (kind, outs, *entry[1:]) if kind == _STENCIL else
                (kind, outs, entry[0] if kind == _SINK else (), -1, 0, 0,
                 0, *bounds * 2))
        self.stencils = [i for i, e in enumerate(units) if e[0] == _STENCIL]
        self.bounds = [sorted(entry[3]) for entry in units]
        # Each stencil's pop phase, looked up again once its step
        # reaches the phase end (steps only grow between windows).
        self.need = [(-1, ())] * len(units)
        # Current lower bound on a non-repeating window's stretch
        # (cycles): doubled after each window that failed to repeat,
        # reset by one that did (see _plan_window).
        self.stretch_floor = MIN_STRETCH
        self.plan_count = 0
        self.virtual_cycles = 0

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
        vm, machine, fields = self.vm, self.machine, self.fields
        chans, links, units = machine.chans, machine.links, machine.units
        chan_names, capacity, _ready, _fifo, _lat, producer, consumer = chans
        rates, ceilings, need = self.rates, self.ceilings, self.need
        n_chan, n_link, n_unit = len(capacity), len(links), len(units)

        # The window runs on copies of the VM's counters, committed once
        # its repeats are proven, and on its FIFOs in place: pops move
        # window-local heads, pushes land past ``stop``.
        cnt, pos, block = list(vm.cnt), list(vm.pos), list(vm.block)
        fifos, offsets, heads = vm.fifos, vm.offsets, list(vm.heads)
        stop = [len(fifo) for fifo in fifos]
        credits = list(vm.credits)   # refilled and spent as RateLimiter
        remaining = vm.remaining
        # A cycle visits the links that hold words or lack credit (an
        # idle one only finds credit to spare) and the active set below.
        busy = [h < end or credit < ceiling for h, end, credit, ceiling
                in zip(heads, stop, credits, ceilings)]
        active = [step < fld[8] or (fld[0] == _STENCIL
                                    and heads[fld[3]] < stop[fld[3]])
                  for fld, step in zip(fields, pos)]
        live = list(compress(range(n_unit), active))
        # A FIFO ever found empty or its head immature (an idle link, a
        # finished stencil's line) replays under the strict rule only.
        strict_only = [rate >= 1.0 or not idle for rate, idle
                       in zip(rates, busy)] + [not active[i]
                                               for i in self.stencils]
        # Per unit, the window-relative cycles of its moves (pushes,
        # computes, arrivals) and drains, its stalls (after init).
        moves: List[List[int]] = [[] for _ in units]
        drains = [[] if fld[0] == _STENCIL else () for fld in fields]
        stalls, steady = [0] * n_unit, [0] * n_unit
        pops = [[] for _ in range(n_link)] + [drains[i]
                                              for i in self.stencils]
        start_cnt, start_pos, start_credit = vm.cnt, vm.pos, vm.credits
        start_head, start_remaining = vm.heads, remaining

        popped, peak = [0] * n_chan, [0] * n_chan
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
        since = [-1] * n_unit
        timers: List[Tuple[int, int]] = []

        def sleep(i: int, off: int, f: int = -1):
            active[i], since[i] = False, off
            ready = fifos[f][heads[f]] + offsets[f] - now \
                if f >= 0 and heads[f] < len(fifos[f]) else 0
            if ready > off:
                heapq.heappush(timers, (ready, i))

        def wake(i: int, off: int):
            """Visit sleeping unit ``i`` again on cycle ``off``.  Each
            visit it skipped saw its counters moved only away from the
            thresholds it tests, so it decided alike and recorded no
            new margin (a minimum); it stalled, unless it only waited
            to drain."""
            if since[i] >= 0:
                fld, step = fields[i], pos[i]
                if step < fld[8]:
                    stalls[i] += off - 1 - since[i]
                    if step >= fld[7]:
                        steady[i] += off - 1 - since[i]
                active[i], since[i] = True, -1

        def run_cycle(off: int) -> bool:
            nonlocal remaining, traffic
            self.virtual_cycles += 1
            now_v = now + off
            progressed = False
            while timers and timers[0][0] <= off:
                wake(heapq.heappop(timers)[1], off)
            for j in compress(range(n_link), busy):
                credit = credits[j] + rates[j]
                if credit < 1.0:   # no delivery: below every ceiling
                    credits[j] = credit
                    continue
                if credit > ceilings[j]:
                    credit = ceilings[j]
                flight, h, due = fifos[j], heads[j], now_v - offsets[j]
                while credit >= 1.0 and h < len(flight) and flight[h] <= due:
                    h += 1
                    if not cnt[n_chan + j]:
                        wake(consumer[links[j]], off)
                    cnt[n_chan + j] += 1
                    credit -= 1.0
                    pops[j].append(off)
                    if len(pops[j]) > traffic:
                        traffic = len(pops[j])
                heads[j] = h
                if credit >= 1.0:
                    # Credit to spare: the ring was empty or its head
                    # still on the wire, so the delivery mask was not
                    # purely credit-driven.
                    strict_only[j] = True
                    busy[j] = h < len(flight) or credit < ceilings[j]
                credits[j] = credit
            for i in compress(range(n_unit), active):
                kind, outs, phases, f, slot, line_cap, latency, init, end = \
                    fields[i]
                step = pos[i]
                pushes = None  # the push cycles, when a word leaves
                needed = None  # the pops a step makes
                if kind == _STENCIL:
                    line, h = fifos[f], heads[f]
                    if h == len(line) or line[h] + offsets[f] > now_v:
                        strict_only[f] = True
                    else:
                        # The short-circuit mirrors the scalar engine.
                        for t, top, _fifo, _lat, _cons in outs:
                            slack = top - cnt[t]
                            if slack < under[t]:
                                if slack < 0:
                                    over[t] = min(over[t], -1 - slack)
                                    break
                                under[t] = slack
                        else:
                            heads[f] = h = h + 1
                            pushes = drains[i]
                            pushes.append(off)
                            remaining -= 1
                    if step < end:
                        needed = need[i]
                        if step >= needed[0]:
                            needed = need[i] = next(p for p in phases
                                                    if step < p[0])
                        needed = needed[1]
                    elif pushes is None and h < len(line):
                        sleep(i, off, f)     # waits to drain
                    elif pushes is None:
                        active[i] = False    # finished
                elif step >= end:
                    active[i] = False  # a finished source or sink
                    continue
                elif kind == _SOURCE:
                    full = None
                    for t, top, _fifo, _lat, _cons in outs:
                        slack = top - cnt[t]
                        if slack < under[t]:
                            if slack >= 0:
                                under[t] = slack
                                continue
                            over[t] = min(over[t], -1 - slack)
                            full = full or []
                            full.append(chan_names[t])
                    if full:
                        stalls[i] += 1
                        block[i] = full
                        sleep(i, off)
                        continue
                    pushes = moves[i]
                    pushes.append(off)
                    pos[i] += 1
                    remaining -= 1
                else:
                    needed = phases  # a sink's one input
                if needed is not None:
                    # A step pops its words, unless an input is empty
                    # or (a stencil's) the latency line is full.
                    empty = None
                    for field, t, r in needed:
                        count = cnt[r]
                        if count <= over[r]:
                            if count:
                                over[r] = count - 1
                                continue
                            under[r] = 0
                            empty = empty or []
                            empty.append(field)
                    if kind == _STENCIL and not empty:
                        slack = line_cap - 1 - len(line) + h
                        if slack < 0:
                            over[slot] = min(over[slot], -1 - slack)
                            empty = ()
                        elif slack < under[slot]:
                            under[slot] = slack
                    if empty is not None:
                        stalls[i] += 1
                        block[i] = empty or None
                        if kind == _STENCIL:
                            steady[i] += step >= init
                        if pushes is None:
                            sleep(i, off, f)
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
                            moves[i].append(off)
                            remaining -= 1
                        elif step >= init:
                            line.append(now_v + latency - offsets[f])
                            moves[i].append(off)
                            if len(moves[i]) > traffic:
                                traffic = len(moves[i])
                        else:
                            remaining -= 1
                        pos[i] = step + 1
                        progressed = True
                if pushes is not None:
                    # A word leaves a source or a latency line.
                    for t, _top, j, lat, cons in outs:
                        if j >= 0:
                            fifos[j].append(now_v + lat - offsets[j])
                            busy[j] = True
                        elif not cnt[t] and since[cons] >= 0:
                            wake(cons, off + (cons < i))
                        cnt[t] = occupancy = cnt[t] + 1
                        if occupancy > peak[t]:
                            peak[t] = occupancy
                    if outs and len(pushes) > traffic:
                        traffic = len(pushes)
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
        deadline = machine.config.deadlock_window - 1
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

        cap = machine.cap
        if idle >= deadline and not links_hold_words():
            # The detector's cycle: stepped alone, as the scalar loop
            # steps it, and the deadlock when nothing progresses.
            if not run_cycle(0):
                raise self._deadlock_error(now, cnt, pos, [
                    len(fifo) - h for fifo, h in zip(fifos, heads)], block)
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
                for fifo, end in zip(fifos, stop):
                    del fifo[end:]
                self.need = [(-1, ())] * n_unit   # steps went back
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
            # every counter may end displaced by a constant drift,
            # bounded by its margins; every timed FIFO passes the one
            # rule of _fifo_repeats (tested last, the costliest).
            if credits != start_credit:
                repeats = 0
            drift = [end - start for end, start in zip(cnt, start_cnt)] + [
                len(fifo) - end - len(times) for fifo, end, times
                in zip(fifos[n_link:], stop[n_link:], pops[n_link:])]
            for i in compress(range(len(drift)), drift):
                d = drift[i]
                repeats = min(repeats, 1 + (under[i] // d if d > 0
                                            else over[i] // -d))
            # Phase bound: repeats 2..k replay window 1's decisions only
            # while no unit crosses a schedule boundary (pop windows,
            # init fill, completion), so clamp k strictly below the
            # nearest one — stall cycles *after* a unit's last word in a
            # window are only accounted correctly while the unit is not
            # yet done, so even landing exactly on a boundary at the
            # window end is left to the next window.  Likewise the run
            # must not complete inside the repeats (the scalar loop
            # exits there).
            for i in compress(range(n_unit), map(sub, pos, start_pos)):
                bounds, step = self.bounds[i], start_pos[i]
                b = bisect_right(bounds, step)
                if b < len(bounds):
                    repeats = min(repeats, (bounds[b] - step - 1)
                                  // (pos[i] - step))
            if remaining < start_remaining:
                repeats = min(repeats, (start_remaining - 1)
                              // (start_remaining - remaining))
            shifted = [False] * len(fifos)
            for f, fifo in enumerate(fifos):
                if repeats < 2:
                    break
                if start_head[f] == len(fifo):   # empty, untouched
                    continue
                bound, shifted[f] = _fifo_repeats(
                    fifo, start_head[f], stop[f], pops[f], now - offsets[f],
                    q, strict_only[f], vm.runs[f])
                if shifted[f]:
                    vm.runs[f] = (start_head[f], stop[f], len(pops[f]), q)
                repeats = min(repeats, bound)
            if repeats >= 2:
                plan.repeats = int(repeats)
                plan.drift = any(drift)
                # Window 1's recorded peak is the lowest of the repeats
                # on a filling channel; the true high-water mark lands
                # in the last repeat.
                for t in range(n_chan):
                    if drift[t] > 0:
                        peak[t] += (plan.repeats - 1) * drift[t]
                self.stretch_floor = MIN_STRETCH
            else:
                # Transient that does not (yet) repeat: the virtual
                # schedule is exact for any stretch, so keep extending
                # it and amortize the slab pass over many periods —
                # until two consecutive periods moved every unit alike
                # (the next window will likely repeat), but never below
                # the floor.
                limit = min(q * WINDOW_STRETCH, horizon - now)
                floor = self.stretch_floor
                self.stretch_floor = min(2 * floor, q * WINDOW_STRETCH)
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
        for i in compress(range(n_unit), [off >= 0 for off in since]):
            wake(i, period)

        # Commit: the words moved over all k windows, the timing they
        # add, and the VM state after them.
        plan.made = tuple(len(times) * k for times in moves)
        plan.sent = tuple(len(times) * k for times in drains)
        plan.popped = tuple(count * k for count in popped)
        plan.delivered = tuple(len(times) * k for times in pops[:n_link])
        vm.stalls = [a + b * k for a, b in zip(vm.stalls, stalls)]
        vm.steady = [a + b * k for a, b in zip(vm.steady, steady)]
        for i in live:
            kind = fields[i][0]
            out = (drains[i] if kind == _STENCIL else
                   moves[i] if kind == _SINK else ())
            if out:
                if vm.first[i] is None:
                    vm.first[i] = now + out[0]
                vm.last[i] = now + (k - 1) * period + out[-1]
                vm.count[i] += len(out) * k
        vm.peak = list(map(max, vm.peak, peak))
        for f, fifo in enumerate(fifos):
            h = heads[f]
            if k > 1 and (h > start_head[f] or len(fifo) > stop[f]):
                h, shift = _advance_fifo(fifo, start_head[f], h, stop[f], k,
                                         period, shifted[f])
                offsets[f] += shift
            if h > 64 and 2 * h > len(fifo):   # drop the popped entries
                del fifo[:h]
                first, end, n, step = vm.runs[f]
                vm.runs[f], h = (first - h, end - h, n, step), 0
            heads[f] = h
        if k > 1:
            cnt = [c + (k - 1) * d for c, d in zip(cnt, drift)]
            pos = [p + (k - 1) * (p - s) for p, s in zip(pos, start_pos)]
            remaining += (k - 1) * (remaining - start_remaining)
        vm.cnt, vm.heads, vm.pos, vm.remaining = cnt, heads, pos, remaining
        vm.credits, vm.block = credits, block
        return plan

    def _deadlock_error(self, now: int, cnt, pos, held, block):
        """The detector's error on cycle ``now``, read off the VM's
        state after it (``held``: FIFO lengths) as the scalar engine
        reads it off its units and graph (``oracle.py::Simulator``)."""
        units, names = self.machine.units, self.machine.names
        chan_names, capacity, _ready, _fifo, _lat, producer, consumer = \
            self.machine.chans
        blocked = []
        for i, (entry, step) in enumerate(zip(units, pos)):
            kind = entry[0]
            if kind == _STENCIL:
                if step >= entry[11] and not held[entry[6]]:
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

    def schedule(self) -> Schedule:
        """The machine's schedule, planned window after window from the
        VM seeded at cycle 0.  Passes gather consecutive windows while
        their summed traffic fits the batch cap, the envelope the rings
        are sized for.  A deadlock or a cycle-cap overrun ends the
        schedule as its ``failure``."""
        machine, vm = self.machine, self.vm
        units, names = machine.units, machine.names
        expected, max_cycles = machine.expected, machine.max_cycles
        period, cap = _window_period(machine), machine.cap
        passes: List[List[List[int]]] = []
        sizes: List[int] = []
        failure = None
        now = idle = load = windows = window_cycles = drift_windows = 0
        while vm.remaining:
            if now >= max_cycles:
                failure = SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(expected ~{expected})")
                break
            try:
                window = self._plan_window(now, period, max_cycles, idle)
                if window is None:
                    # No room or ring headroom for the period window: one
                    # cycle moves at most one word per channel.
                    window = self._plan_window(now, 1, max_cycles, idle)
            except DeadlockError as exc:
                failure = exc
                break
            counts = (window.made, window.sent, window.popped,
                      window.delivered)
            weight = window.traffic * window.repeats
            if passes and load + weight <= cap:
                for total, more in zip(passes[-1], counts):
                    total[:] = map(add, total, more)
                load += weight
            else:
                passes.append([list(more) for more in counts])
                load = weight
            windows += 1
            window_cycles += window.cycles
            drift_windows += window.drift
            if len(sizes) < MAX_WINDOW_SAMPLES:
                sizes.append(window.cycles)
            now += window.cycles
            idle = window.trailing_idle
        sinks = [i for i, entry in enumerate(units) if entry[0] == _SINK]
        timing = {
            "stall_cycles": dict(zip(names, vm.stalls)),
            "steady_stall_cycles": {names[i]: vm.steady[i]
                                    for i in self.stencils},
            "channel_occupancy": dict(zip(machine.chans[0], vm.peak)),
            "output_continuous": {names[i]: vm.continuous(i)
                                  for i in sinks},
            "stencil_continuous": {names[i]: vm.continuous(i)
                                   for i in self.stencils},
        }
        return Schedule(
            passes=tuple(tuple(map(tuple, counts)) for counts in passes),
            cycles=now, plan_count=self.plan_count,
            timing=tuple((name, tuple(values.items()))
                         for name, values in timing.items()),
            virtual_cycles=self.virtual_cycles, window_count=windows,
            window_cycles=window_cycles, window_sizes=tuple(sizes),
            drift_windows=drift_windows, failure=failure)


def _schedule_key(spec: MachineSpec) -> str:
    """Content address of the window schedule of the machine ``spec``
    describes: the machine (:func:`machine_key_parts`) plus every other
    input of the planner — the batch cap, the horizon, the planner
    constants."""
    return content_key("schedule", *machine_key_parts(spec),
                       spec.config.max_batch_words, spec.max_cycles,
                       MAX_WINDOW, WINDOW_STRETCH, MIN_STRETCH)


def plan(machine: Machine) -> Schedule:
    """Stage 1: the machine's schedule, planned on counters alone.

    A machine is planned once per process: a full run that completes
    publishes its schedule under ``machine.key``, and this returns it
    (``replayed``) instead of planning again (``docs/ARCHITECTURE.md``,
    "Planned once per process")."""
    schedule = default_cache().lookup(machine.key)
    if schedule is not None:
        return dataclasses.replace(schedule, replayed=True)
    began = clock.now()
    schedule = _Planner(machine).schedule()
    return dataclasses.replace(schedule, plan_seconds=clock.now() - began)
