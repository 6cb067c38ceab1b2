"""The compiled kernel engine: a cached timing record plus one data pass.

The batched engine's output values are *data-independent in control
flow*: cycle counts, stall counters, occupancy high-water marks and
continuity flags depend only on the lowered machine (program structure,
configuration, placement), never on the streamed values.  The streamed
values in turn are *configuration-independent*: the same program and
inputs produce bitwise-identical outputs under every machine
configuration.  The kernel engine exploits both halves:

* The first run of a machine executes through the batched engine
  unchanged (the *cold* path), then records its control-flow outcome
  (cycles, stalls, occupancy) — plain JSON data,
  content-addressed under the lowered-machine hash
  (``_kernel_key_for``), both in the in-process
  :class:`~repro.lowering.cache.ArtifactCache` and on disk under
  :func:`kernel_store_dir`.  Nothing read back from disk is ever
  compiled or executed.
* Every later run of the same machine (the *hit* path) replays the
  record and runs :func:`_replay_pass` — one topological sweep of
  whole-stream slab computes, no planner, no channels, no cycle loop.
  Outputs are bitwise identical because each slab compute is the
  batched engine's own :meth:`BatchedStencilUnit.compute_words`, fed
  the same window contents.

This module also holds what the native compute binding
(:mod:`repro.simulator.native`, ``docs/KERNELS.md`` "Native compute")
rests its equality guarantee on: the restricted expression class a C
kernel may translate, the per-access tap plan, and
:class:`_CheckedBackendFn`, which bitwise-validates a compiled kernel's
first chunk against ``compute_words`` and discards it on any mismatch.

Error parity on the hit path: input validation, source range checks,
the cycle-cap check, stencil int64-overflow checks and sink store
range checks all run with the shared engine code, so a run that would
fail cold fails identically warm.  Multi-error *ordering* can differ
(the hit path runs topologically, not temporally) — see
``docs/KERNELS.md`` for the exact contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import weakref
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.fields import row_major_strides
from ..errors import SimulationError, ValidationError
from ..expr.ast_nodes import (
    BinaryOp,
    Call,
    FieldAccess,
    IndexVar,
    Literal,
    Ternary,
    UnaryOp,
)
from ..expr.cexpr import render
from ..faults.store import KERNELS, read_json_guarded, write_json_atomic
from ..lowering.cache import content_key, default_cache
from ..obs import clock, metrics, span
from .batched import (
    BatchedSimulator,
    BatchedSinkUnit,
    BatchedSourceUnit,
    BatchedStencilUnit,
)
from .channel import StreamRing, _EdgeBuffer, claim_slab, stage_slab
from .engine import SimulationResult, emit_run_metrics, resolve_input_array
from .plan import machine_key_parts

#: Words per replay compute chunk.  Keeps each slab compute (its
#: boundary-fill and expression temporaries) inside cache-friendly
#: working sets while amortizing the per-call overhead over tens of
#: thousands of cells.
CHUNK_WORDS = 65536

#: On-disk kernel artifact schema; bump on any record change so stale
#: artifacts stop hitting instead of replaying wrong records.  3: the
#: artifact is data only (schema 2 carried generated Python source).
KERNEL_SCHEMA = 3

#: Environment override for the native compute binding
#: (``auto`` / ``python`` / ``native``; see :mod:`.native`).
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Process-lifetime hit/miss counts for the kernel artifact store
#: (disk + in-process combined).
_STATS = {"hits": 0, "misses": 0}

#: First-chunk verdict per compiled-kernel source digest, for the life
#: of the process: True once it bitwise-matched ``compute_words`` (later
#: chunks and runs skip the reference), False once it did not (every
#: unit with that kernel stays on NumPy).
_VALIDATED: Dict[str, bool] = {}


def backend_mode() -> str:
    """``REPRO_KERNEL_BACKEND``: ``auto`` (bind above the threshold),
    ``python`` (never) or ``native`` (always; ``cffi`` is its old name)."""
    mode = os.environ.get(KERNEL_BACKEND_ENV, "").strip().lower() or "auto"
    mode = "native" if mode == "cffi" else mode
    if mode not in ("auto", "python", "native"):
        raise ValidationError(
            f"unknown {KERNEL_BACKEND_ENV} {mode!r} "
            f"(expected 'auto', 'python', or 'native')")
    return mode


def kernel_cache_stats() -> Tuple[int, int]:
    """(hits, misses) against the kernel artifact store since load."""
    return _STATS["hits"], _STATS["misses"]


def reset_kernel_cache_stats():
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def kernel_store_dir() -> Path:
    """On-disk home of compiled kernel artifacts (JSON files)."""
    return KERNELS.dir()


def _artifact_path(key: str) -> Path:
    return KERNELS.path(hashlib.sha1(key.encode()).hexdigest())


# -- cache key ---------------------------------------------------------------

def _kernel_key_for(spec) -> str:
    """The recorded control outcome depends on the machine ``spec``
    describes alone.  Deliberately excluded: ``max_cycles`` (enforced
    at replay against the recorded cycle count), ``max_batch_words`` (a
    planner knob that cannot change observable results), and
    ``engine_mode``."""
    return content_key("kernel", *machine_key_parts(spec))


# -- the restricted class and its first-chunk check --------------------------

def _same_bits(candidate: np.ndarray, reference: np.ndarray) -> bool:
    """Equal bit patterns, NaN payloads aside — ``==`` alone would call
    ``-0.0`` and ``+0.0`` equal, which the scalar oracle does not."""
    if candidate.dtype != reference.dtype \
            or candidate.shape != reference.shape:
        return False
    if reference.dtype.kind != "f":
        return np.array_equal(candidate, reference)
    bits = f"u{reference.dtype.itemsize}"
    return bool(((candidate.view(bits) == reference.view(bits))
                 | (np.isnan(candidate) & np.isnan(reference))).all())


class _CheckedBackendFn:
    """A compiled per-chunk function in ``compute_words``' place, with
    one-time bitwise validation against it.

    The first chunk computed for a given kernel-source digest (per
    process) runs both paths and compares bitwise (NaN-payload
    agnostic); a mismatch — or an exception out of the compiled
    function — discards that kernel for the rest of the process and
    counts ``kernel.backend_discarded``.  Once a digest validates, later
    chunks — and later runs in the process — skip the reference
    computation entirely.

    ``fast(unit, w0, b, out)`` takes the unit as an argument and the
    wrapper holds it weakly: the wrapper is stored *on* the unit, and a
    reference back would make a cycle that keeps a dead machine's rings
    alive until a full collection.  Only the candidate writes ``out``
    (the ring rows of the chunk) before the check, so it never compares
    a result with itself.
    """

    def __init__(self, unit, fast, digest: str):
        self._unit = weakref.ref(unit)
        self._reference = type(unit).compute_words
        self.fast = fast
        self.digest = digest

    @property
    def discarded(self) -> bool:
        return _VALIDATED.get(self.digest) is False

    def __call__(self, w0: int, b: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        unit = self._unit()
        verdict = _VALIDATED.get(self.digest)
        if verdict:
            return self.fast(unit, w0, b, out)
        reference = self._reference(unit, w0, b)
        if verdict is None:
            try:
                candidate = self.fast(unit, w0, b, out)
            except Exception:
                candidate = None
            verdict = _VALIDATED[self.digest] = (
                candidate is not None
                and _same_bits(candidate, reference))
            if not verdict and metrics.enabled():
                metrics.counter("kernel.backend_discarded",
                                backend="native").inc()
        if out is not None:
            out[...] = reference
        return reference


#: Binary operators a compiled kernel translates: IEEE-total
#: operations whose C semantics provably match the array
#: compiler's per-lane float64 semantics.  Division is handled apart
#: (literal nonzero finite divisors only).
_SAFE_BINOPS = frozenset({"+", "-", "*",
                          "<", ">", "<=", ">=", "==", "!=",
                          "&&", "||"})


def _restricted_expr_ok(node) -> bool:
    """Whether a compiled kernel may translate this expression.

    Excluded on purpose (each has a proven divergence from the array
    compiler's semantics): ``floor``/``ceil``/``round`` (signed-zero
    normalization), ``min``/``max`` (Python-min NaN ordering),
    ``sqrt``/``log``/``exp``/``pow`` (guarded-ufunc NaN poisoning),
    division by non-literal or zero/non-finite divisors (signed-zero
    ``copysign`` semantics), bool and non-finite literals, integer
    literals beyond 2**53 (inexact as doubles), and negating or
    multiplying integer-typed operands (integer zeros have no sign).
    """
    if isinstance(node, Literal):
        value = node.value
        if isinstance(value, bool):
            return False
        if isinstance(value, int):
            return abs(value) <= 2 ** 53
        if isinstance(value, float):
            return math.isfinite(value)
        return False
    if isinstance(node, (IndexVar, FieldAccess)):
        return True
    if isinstance(node, BinaryOp):
        if node.op == "/":
            divisor = node.right
            if not (isinstance(divisor, Literal)
                    and isinstance(divisor.value, (int, float))
                    and not isinstance(divisor.value, bool)):
                return False
            value = float(divisor.value)
            if value == 0.0 or not math.isfinite(value):
                return False
        elif node.op not in _SAFE_BINOPS or node.op == "*" and (
                _may_be_int(node.left) and _may_be_int(node.right)):
            return False
        return (_restricted_expr_ok(node.left)
                and _restricted_expr_ok(node.right))
    if isinstance(node, UnaryOp):
        return ((node.op == "!" or node.op == "-"
                 and not _may_be_int(node.operand))
                and _restricted_expr_ok(node.operand))
    if isinstance(node, Ternary):
        return (_restricted_expr_ok(node.cond)
                and _restricted_expr_ok(node.then)
                and _restricted_expr_ok(node.orelse))
    if isinstance(node, Call):
        if node.func not in ("fabs", "abs"):
            return False
        return all(_restricted_expr_ok(a) for a in node.args)
    return False


def _may_be_int(node) -> bool:
    """Whether a lane of ``node`` may be integer-typed in the array
    compiler (``intish``; the restricted class's fields are float64)."""
    if isinstance(node, BinaryOp):
        both = _may_be_int(node.left) and _may_be_int(node.right)
        return both if node.op in ("+", "-", "*") else node.op != "/"
    if isinstance(node, Ternary):
        return _may_be_int(node.then) or _may_be_int(node.orelse)
    if isinstance(node, UnaryOp):
        return node.op == "!" or _may_be_int(node.operand)
    if isinstance(node, Call):          # abs / fabs keep int-ness
        return _may_be_int(node.args[0])
    return isinstance(node, IndexVar) or (
        isinstance(node, Literal) and isinstance(node.value, int))


def _unit_restricted(unit) -> bool:
    """Eligibility of a unit for a compiled kernel: every stream
    float64 with no integer-typed lanes, and a translatable AST.  (A
    stream without integer-typed lanes rides float64 slabs; the kernel
    checks the dtype of every window it is handed regardless.)"""
    if unit.line_dtype is not np.float64:
        return False
    if any(unit._field_int[field] is not None for field in unit.fields):
        return False
    return _restricted_expr_ok(unit.stencil.ast)


def _access_taps(unit):
    """Per-access tap plan ``(flat, fill)``: ``fill`` is None where the
    access never leaves the domain, else ``("nan",)``,
    ``("const", value)`` or ``("copy",)``.  Returns None when any
    boundary shape is outside the restricted class."""
    taps = []
    for (access, _full, flat), boundary in zip(unit.access_info,
                                               unit._access_boundary):
        fill = None
        if boundary is not None and unit.shrink:
            fill = ("nan",)
        elif boundary is not None:
            condition = unit.boundary.for_input(access.field)
            if condition.kind != "constant":
                fill = ("copy",)
            # Integer (or bool) fills flip per-lane int-typedness,
            # which the compiled class does not model.
            elif (isinstance(condition.value, float)
                    and math.isfinite(condition.value)):
                fill = ("const", condition.value)
            else:
                return None
        taps.append((int(flat), fill))
    return taps


def _c_literal(value) -> str:
    # Exact double spelling: repr() round-trips, and the restricted
    # class guarantees |int| <= 2**53 so the cast is exact.
    return repr(float(value))


def _coord_lines(domain) -> List[str]:
    """C lines recovering row-major coordinates ``t -> (i0, i1, ...)``."""
    lines = ["long long rem = t;"]
    for d, stride in enumerate(row_major_strides(domain)):
        lines += [f"long long i{d} = rem / {stride};",
                  f"rem -= i{d} * {stride};"]
    return lines


def _render_c_expr(unit, tap_names: Dict[Tuple[str, Tuple[int, ...]], str]
                   ) -> str:
    axis_of = {name: d for d, name in enumerate(unit.program.index_names)}
    return render(
        unit.stencil.ast,
        access=lambda acc: tap_names[(acc.field, tuple(acc.offsets))],
        index=lambda name: f"(double)i{axis_of[name]}",
        literal=_c_literal)


# -- the replay pass ---------------------------------------------------------

def _whole_stream(num_words: int, width: int, dtype, pad: int):
    """A whole stream in the rings' layout, ``pad`` words of taps'
    reach (masked) before the first and after the last."""
    return _EdgeBuffer(StreamRing(num_words + pad, width, dtype, pad=pad),
                       history=pad)


def _replay_pass(units: Dict[str, BatchedStencilUnit],
                 slabs: Dict[str, _EdgeBuffer],
                 sinks: List[Tuple[BatchedSinkUnit, str]],
                 order: List[Tuple[str, List[str]]],
                 consumers: Mapping[str, int], pad: int):
    """Outputs without a timing model: every stencil of ``order``
    (topological ``(name, input streams)``) over its whole input
    streams, then every ``(sink, stream)`` store.

    Each whole stream (:func:`_whole_stream`) is bound as the unit's
    inbound edge buffer — taps read it in place, nothing is copied —
    and filled in :data:`CHUNK_WORDS` chunks by the unit's own
    ``compute_words``.  A stream is dropped once its last ``consumers``
    ran.
    """
    live = dict(consumers)

    def release(stream: str):
        live[stream] -= 1
        if not live[stream]:
            del slabs[stream]

    for name, fields in order:
        unit = units[name]
        for field in fields:
            unit.in_channels[field] = slabs[field]
        out = [_whole_stream(unit.num_words, unit.width, unit.line_dtype,
                             pad)]
        for w0 in range(0, unit.num_words, CHUNK_WORDS):
            b = min(CHUNK_WORDS, unit.num_words - w0)
            unit.compute_words(w0, b, claim_slab(out, b))
        slabs[name] = out[0]
        for field in fields:
            unit.in_channels[field] = None
            release(field)
    for sink, stream in sinks:
        sink.store_rows(slabs[stream].cells(0, sink.flat.size))
        release(stream)


class KernelSimulator(BatchedSimulator):
    """The compiled kernel engine (``engine_mode="kernel"``).

    Cold (no cached record for this machine): runs the batched engine
    unchanged, then records the outcome.  Warm: replays the record and
    runs :func:`_replay_pass` — bitwise identical results with no
    planner, channels, or cycle loop.
    """

    def _make_profile(self, cycles, wall_seconds, **fields):
        profile = super()._make_profile(cycles, wall_seconds, **fields)
        return dataclasses.replace(profile, engine="kernel")

    # -- artifact store ------------------------------------------------------

    #: The timing record: per-name dict members, then the rest.
    _RECORD_DICTS = ("stall_cycles", "steady_stall_cycles",
                     "channel_occupancy", "output_continuous",
                     "stencil_continuous")
    _RECORD_FIELDS = _RECORD_DICTS + ("cycles", "expected_cycles")

    def _load_record(self, key: str) -> Optional[dict]:
        """The machine's timing record, or None.  An artifact is data:
        exactly ``{schema, key, record}``.  Anything else on disk — an
        older schema, a foreign key, a missing record field, or any
        extra member (schema 2 carried a ``source`` to execute) — is
        quarantined and never interpreted."""
        cache = default_cache()
        record = cache.peek(key)
        if record is not None:
            return record

        def check(data: dict) -> dict:
            record = data.get("record")
            if (set(data) != {"schema", "key", "record"}
                    or data["schema"] != KERNEL_SCHEMA
                    or data["key"] != key
                    or not isinstance(record, dict)
                    or any(name not in record
                           for name in self._RECORD_FIELDS)):
                raise ValueError("malformed kernel artifact")
            return record

        record = read_json_guarded(_artifact_path(key), parse=check)
        if record is None:
            return None
        return cache.get_or_build(key, lambda: record)

    def _make_record(self, result: SimulationResult) -> dict:
        record = {name: dict(getattr(result, name))
                  for name in self._RECORD_DICTS}
        record.update(cycles=result.cycles,
                      expected_cycles=result.expected_cycles)
        return record

    def _store_record(self, key: str, result: SimulationResult):
        record = self._make_record(result)
        default_cache().get_or_build(key, lambda: record)
        try:
            write_json_atomic(_artifact_path(key), {
                "schema": KERNEL_SCHEMA, "key": key, "record": record})
        except OSError:
            pass  # read-only cache homes disable persistence, not runs

    # -- replay order --------------------------------------------------------

    def _replay_order(self):
        """``(order, sink streams, consumers)`` of :func:`_replay_pass`:
        the stencils in topological order with the streams each reads
        (stream name == producing stencil or input name), the stream
        each output stores, and readers per stream."""
        graph = self.graph
        order = [(name, sorted({e.data for e in graph.in_edges(
            f"stencil:{name}")}))
            for name in graph.stencil_topological_order()]
        sink_stream = {out: graph.in_edges(f"output:{out}")[0].data
                       for out in self.program.outputs}
        consumers: Dict[str, int] = {}
        for stream in [f for _name, fields in order for f in fields] \
                + list(sink_stream.values()):
            consumers[stream] = consumers.get(stream, 0) + 1
        return order, sink_stream, consumers

    # -- execution -----------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        key = _kernel_key_for(self.spec)
        record = self._load_record(key)
        if record is not None:
            _STATS["hits"] += 1
            if metrics.enabled():
                metrics.counter("kernel.cache_hits").inc()
            return self._run_compiled(record, inputs)
        _STATS["misses"] += 1
        if metrics.enabled():
            metrics.counter("kernel.cache_misses").inc()
        result = super().run(inputs)
        self._store_record(key, result)
        return result

    def _run_compiled(self, record: dict,
                      inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        began = clock.now()
        program = self.program
        width = program.vectorization
        slabs: Dict[str, _EdgeBuffer] = {}
        # Words of every tap's reach, either way along a whole stream.
        pad = max((abs(flat) for stencil in program.stencils
                   for _access, _full, flat in self._coord_slabs.schedule(
                       program, stencil)[1][0]), default=0) // width + 1
        with span("kernel.build"):
            # Input validation and source range checks run the shared
            # engine code first, in the shared order, so a run that
            # would fail cold fails identically warm.
            for name, spec in program.inputs.items():
                full = resolve_input_array(program, inputs, name, spec)
                source = BatchedSourceUnit(name, full, width, ())
                stream = _whole_stream(source.num_words, width,
                                       self._stream_meta(name)[0], pad)
                stage_slab([stream], source.words(0, source.num_words))
                slabs[name] = stream
            if record["cycles"] > self.spec.max_cycles:
                raise SimulationError(
                    f"simulation exceeded {self.spec.max_cycles} cycles "
                    f"(expected ~{self.spec.expected})")
            order, sink_stream, consumers = self._replay_order()
            units: Dict[str, BatchedStencilUnit] = {}
            for stencil in program.stencils:
                # The pass binds each whole input stream as the unit's
                # edge buffer.
                ins = {e.data: None for e in self.graph.in_edges(
                    f"stencil:{stencil.name}")}
                units[stencil.name] = BatchedStencilUnit(
                    program, stencil, ins, [],
                    coord_slabs=self._coord_slabs,
                    stream_meta=self._stream_meta)
            sinks = {out: BatchedSinkUnit(
                out, None, program.shape, width,
                program.field_dtype(out).numpy)
                for out in program.outputs}
            self._bind_native(list(units.values()))
        with span("kernel.execute"):
            _replay_pass(units, slabs,
                         [(sinks[out], sink_stream[out])
                          for out in program.outputs],
                         order, consumers, pad)
        outputs = {name: sink.data for name, sink in sinks.items()}
        wall = clock.now() - began
        profile = self._make_profile(record["cycles"], wall,
                                     kernel_cached=True,
                                     kernel_slabs=len(units))
        emit_run_metrics(profile)
        return SimulationResult(
            outputs=outputs,
            cycles=record["cycles"],
            expected_cycles=record["expected_cycles"],
            profile=profile,
            **{name: dict(record[name]) for name in self._RECORD_DICTS})
