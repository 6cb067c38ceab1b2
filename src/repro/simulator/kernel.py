"""The compiled kernel engine: cached per-program slab passes.

The batched engine's output values are *data-independent in control
flow*: cycle counts, stall counters, occupancy high-water marks and
continuity flags depend only on the lowered machine (program structure,
configuration, placement), never on the streamed values.  The streamed
values in turn are *configuration-independent*: the same program and
inputs produce bitwise-identical outputs under every machine
configuration.  The kernel engine exploits both halves:

* The first run of a machine executes through the batched engine
  unchanged (the *cold* path), then records its control-flow outcome
  (cycles, stalls, occupancy, fault accounting) and generates a
  straight-line ``kernel_pass`` — one topologically-ordered sweep of
  whole-stream slab computes, specialized on the unit topology via
  ``compile()``/``exec`` — content-addressed under the lowered-machine
  hash (:func:`kernel_cache_key`), both in the in-process
  :class:`~repro.lowering.cache.ArtifactCache` and as JSON on disk
  under :func:`kernel_store_dir`.
* Every later run of the same machine (the *hit* path) replays the
  recorded control-flow outcome and executes the compiled pass once
  per stencil — no planner, no channels, no cycle loop.  Outputs are
  bitwise identical because each slab compute is the batched engine's
  own :meth:`BatchedStencilUnit.compute_words` (or a stricter compiled
  backend validated against it), fed the same window contents.

Backends (``REPRO_KERNEL_BACKEND`` = ``auto``/``python``/``cffi``/
``numba``): the pure-Python backend reuses ``compute_words`` verbatim
and is always available; the cffi backend compiles a restricted
expression class (float64 streams, IEEE-total operations — see
``docs/KERNELS.md``) to C through :func:`repro.codegen.cexpr.render`;
the numba backend JIT-compiles the same restricted class.  Both
compiled backends bitwise-validate their first chunk against
``compute_words`` and permanently fall back on any mismatch, so the
equality guarantee never rests on the compiler.

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
import importlib.util
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

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
from ..faults.runtime import FaultReport
from ..faults.store import quarantine_file, read_json_guarded, \
    write_json_atomic
from ..lowering.cache import content_key, default_cache
from ..lowering.pipeline import program_content_hash
from ..obs import clock, metrics, span
from .batched import (
    BatchedSimulator,
    BatchedSinkUnit,
    BatchedSourceUnit,
    BatchedStencilUnit,
)
from .channel import _EdgeBuffer
from .engine import SimulationResult, resolve_input_array

#: Words per generated-kernel compute chunk.  Keeps each slab compute
#: (its boundary-fill and expression temporaries) inside cache-friendly
#: working sets while amortizing the per-call overhead over tens of
#: thousands of cells.
CHUNK_WORDS = 65536

#: On-disk kernel artifact schema; bump on any record/source change so
#: stale artifacts stop hitting instead of replaying wrong records.
KERNEL_SCHEMA = 2

#: Environment override for the compute backend.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: ``auto`` only reaches for the cffi backend above this cell count:
#: below it the C call overhead and one-off compile cannot beat the
#: NumPy slab path.
_CFFI_AUTO_MIN_CELLS = 1 << 17

#: Process-lifetime hit/miss counts for the kernel artifact store
#: (disk + in-process combined), surfaced by ``repro cache stats``.
_STATS = {"hits": 0, "misses": 0}

#: Compiled cffi modules by C-source digest (process-wide: identical
#: machines share one extension module).
_CFFI_CACHE: Dict[str, Tuple[object, object]] = {}

#: Backend source digests whose first chunk bitwise-matched
#: ``compute_words`` this process; later runs skip re-validation.
_VALIDATED: set = set()


def kernel_cache_stats() -> Tuple[int, int]:
    """(hits, misses) against the kernel artifact store since load."""
    return _STATS["hits"], _STATS["misses"]


def reset_kernel_cache_stats():
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def kernel_store_dir() -> Path:
    """On-disk home of compiled kernel artifacts (JSON files)."""
    from ..explore.cache import default_cache_dir
    return default_cache_dir() / "kernels"


def _artifact_path(key: str) -> Path:
    digest = hashlib.sha1(key.encode()).hexdigest()
    return kernel_store_dir() / f"{digest}.json"


# -- cache key ---------------------------------------------------------------

def _machine_key_parts(sim) -> list:
    """Everything the recorded control-flow outcome depends on.

    Deliberately excluded: ``max_cycles`` (enforced at replay against
    the recorded cycle count), ``max_batch_words`` and ``superpattern``
    (planner knobs that cannot change observable results), and
    ``engine_mode`` itself.
    """
    program = sim.program
    config = sim.config
    edges = []
    for edge in sorted(sim.graph.edges,
                       key=lambda e: (e.src, e.dst, e.data)):
        key = (edge.src, edge.dst, edge.data)
        remote = sim._edge_is_remote(edge.src, edge.dst)
        edges.append([list(key), sim._capacity(key), remote,
                      config.link_rate(key) if remote else None])
    plan = config.fault_plan
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
        plan.to_json() if plan is not None and not plan.empty else None,
    ]


def _kernel_key_for(sim) -> str:
    return content_key("kernel", *_machine_key_parts(sim))


def kernel_cache_key(analysis, config=None,
                     device_of: Optional[Mapping[str, int]] = None) -> str:
    """Content address of the compiled-kernel artifact for a machine."""
    sim = BatchedSimulator(analysis, config, device_of=device_of)
    return _kernel_key_for(sim)


def kernel_available(analysis, config=None,
                     device_of: Optional[Mapping[str, int]] = None) -> bool:
    """Whether a compiled kernel for this machine exists *on disk*.

    ``engine_mode="auto"`` consults this before upgrading to the kernel
    engine: disk-only on purpose, so the upgrade decision is stable
    across processes and test isolation (a per-test cache dir) is never
    leaked around by in-process state.
    """
    try:
        key = kernel_cache_key(analysis, config, device_of)
    except Exception:
        return False
    return _artifact_path(key).exists()


# -- compute backends --------------------------------------------------------

def _cffi_usable() -> bool:
    if importlib.util.find_spec("cffi") is None:
        return False
    return bool(shutil.which("cc") or shutil.which("gcc"))


def _numba_usable() -> bool:
    return importlib.util.find_spec("numba") is not None


def _resolve_backend(num_cells: int):
    """Pick the compute backend per the fallback ladder.

    ``auto`` prefers numba, then cffi (large domains only), then pure
    Python; an explicit unavailable backend degrades to pure Python
    rather than failing, so the same config runs everywhere.
    """
    mode = os.environ.get(KERNEL_BACKEND_ENV, "auto").strip().lower() \
        or "auto"
    if mode not in ("auto", "python", "cffi", "numba"):
        raise ValidationError(
            f"unknown {KERNEL_BACKEND_ENV} {mode!r} "
            f"(expected 'auto', 'python', 'cffi', or 'numba')")
    if mode == "auto":
        if _numba_usable():
            return _NumbaBackend()
        if _cffi_usable() and num_cells >= _CFFI_AUTO_MIN_CELLS:
            return _CffiBackend()
        return _PythonBackend()
    if mode == "numba":
        return _NumbaBackend() if _numba_usable() else _PythonBackend()
    if mode == "cffi":
        return _CffiBackend() if _cffi_usable() else _PythonBackend()
    return _PythonBackend()


class _PythonBackend:
    """The always-available backend: the batched engine's own
    vectorized ``compute_words``, bitwise-exact by construction."""

    name = "python"

    def bind(self, unit):
        return unit.compute_words


class _CheckedBackendFn:
    """Wraps a compiled per-chunk function with one-time bitwise
    validation against ``compute_words``.

    The first chunk computed for a given generated-source digest (per
    process) runs both paths and compares bitwise (NaN-payload
    agnostic); a mismatch permanently discards the compiled function
    for this unit and counts ``kernel.backend_discarded``.  Once a
    digest validates, later chunks — and later runs in the process —
    skip the reference computation entirely.
    """

    def __init__(self, unit, fast, digest: str, backend: str):
        self.unit = unit
        self.fast = fast
        self.digest = digest
        self.backend = backend
        self.discarded = False

    def __call__(self, w0: int, b: int) -> np.ndarray:
        if self.discarded:
            return self.unit.compute_words(w0, b)
        if self.digest in _VALIDATED:
            return self.fast(w0, b)
        reference = self.unit.compute_words(w0, b)
        try:
            candidate = self.fast(w0, b)
        except Exception:
            candidate = None
        if (candidate is not None
                and candidate.dtype == reference.dtype
                and candidate.shape == reference.shape
                and np.array_equal(candidate, reference, equal_nan=True)):
            _VALIDATED.add(self.digest)
        else:
            self.discarded = True
            if metrics.enabled():
                metrics.counter("kernel.backend_discarded",
                                backend=self.backend).inc()
        return reference


#: Binary operators the compiled backends translate: IEEE-total
#: operations whose C/njit semantics provably match the array
#: compiler's per-lane float64 semantics.  Division is handled apart
#: (literal nonzero finite divisors only).
_SAFE_BINOPS = frozenset({"+", "-", "*",
                          "<", ">", "<=", ">=", "==", "!=",
                          "&&", "||"})


def _restricted_expr_ok(node) -> bool:
    """Whether the compiled backends may translate this expression.

    Excluded on purpose (each has a proven divergence from the array
    compiler's semantics): ``floor``/``ceil``/``round`` (signed-zero
    normalization), ``min``/``max`` (Python-min NaN ordering),
    ``sqrt``/``log``/``exp``/``pow`` (guarded-ufunc NaN poisoning),
    division by non-literal or zero/non-finite divisors (signed-zero
    ``copysign`` semantics), bool and non-finite literals, and integer
    literals beyond 2**53 (inexact as doubles).
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
        elif node.op not in _SAFE_BINOPS:
            return False
        return (_restricted_expr_ok(node.left)
                and _restricted_expr_ok(node.right))
    if isinstance(node, UnaryOp):
        return (node.op in ("-", "!")
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


def _unit_restricted(unit) -> bool:
    """Eligibility of a unit for the compiled backends: every stream
    float64 with no integer-typed lanes, and a translatable AST."""
    if unit.line_dtype is not np.float64:
        return False
    for field in unit.fields:
        if unit._field_int[field] is not None:
            return False
        if unit.in_channels[field].dtype != np.float64:
            return False
    return _restricted_expr_ok(unit.stencil.ast)


def _whole_streams(unit) -> List[np.ndarray]:
    """The unit's input streams as flat arrays (views: the hit path
    binds each whole stream as the unit's edge buffer)."""
    return [unit.in_channels[f].cells(0, unit.num_cells)
            for f in unit.fields]


def _access_taps(unit):
    """Per-access tap plan: ``(field_slot, flat, bounds, fill)`` where
    ``bounds`` is None (never out of domain) or the per-axis offset
    vector to range-check, and ``fill`` is ``("nan",)``,
    ``("const", value)`` or ``("copy",)``.  Returns None when any
    boundary shape is outside the restricted class."""
    slot = {field: i for i, field in enumerate(unit.fields)}
    taps = []
    for (access, full, flat), boundary in zip(unit.access_info,
                                              unit._access_boundary):
        if boundary is None:
            taps.append((slot[access.field], int(flat), None, None))
            continue
        if unit.shrink:
            fill = ("nan",)
        else:
            condition = unit.boundary.for_input(access.field)
            if condition.kind == "constant":
                # Integer (or bool) fills flip per-lane int-typedness,
                # which the compiled class does not model.
                if not isinstance(condition.value, float):
                    return None
                if not math.isfinite(condition.value):
                    return None
                fill = ("const", condition.value)
            else:
                fill = ("copy",)
        taps.append((slot[access.field], int(flat), tuple(full), fill))
    return taps


def _c_literal(value) -> str:
    # Exact double spelling: repr() round-trips, and the restricted
    # class guarantees |int| <= 2**53 so the cast is exact.
    return repr(float(value))


def _coord_lines(domain, declare: str, div: str = "/") -> List[str]:
    """Row-major coordinate recovery ``t -> (i0, i1, ...)``, shared by
    the C and njit source generators."""
    strides = []
    acc = 1
    for extent in reversed(domain):
        strides.append(acc)
        acc *= extent
    strides.reverse()
    lines = [f"{declare}rem = t;"]
    for d, stride in enumerate(strides):
        if stride == 1:
            lines.append(f"{declare}i{d} = rem;")
        else:
            lines.append(f"{declare}i{d} = rem {div} {stride};")
            lines.append(f"rem = rem - i{d} * {stride};")
    return lines


def _render_c_expr(unit, tap_names: Dict[Tuple[str, Tuple[int, ...]], str],
                   axis_of: Dict[str, int]) -> str:
    from ..codegen.cexpr import render
    return render(
        unit.stencil.ast,
        access=lambda acc: tap_names[(acc.field, tuple(acc.offsets))],
        index=lambda name: f"(double)i{axis_of[name]}",
        literal=_c_literal)


def _c_source_for(unit) -> Optional[Tuple[str, int]]:
    """C source of a per-chunk compute for ``unit``, or None when the
    unit is outside the restricted class.  The signature is
    ``run(lo, n, f0, ..., out)`` over cells ``[lo, lo + n)`` of the
    full streams (the hit path binds each whole stream as the unit's
    edge buffer, so ``f[cell]`` is the stream value)."""
    if not _unit_restricted(unit):
        return None
    taps = _access_taps(unit)
    if taps is None:
        return None
    domain = unit.domain
    num_cells = unit.num_cells
    fields = unit.fields
    tap_names = {}
    body: List[str] = []
    body.extend("        " + line
                for line in _coord_lines(domain, "long long "))
    for i, ((access, full, _flat), tap) in enumerate(
            zip(unit.access_info, taps)):
        slot, flat, bounds, fill = tap
        name = f"a{i}"
        tap_names[(access.field, tuple(access.offsets))] = name
        read = f"f{slot}[t + ({flat})]"
        if bounds is None:
            body.append(f"        double {name} = {read};")
            continue
        checks = []
        for d, off in enumerate(bounds):
            if off:
                checks.append(f"i{d} + ({off}) >= 0")
                checks.append(f"i{d} + ({off}) < {domain[d]}")
        cond = " && ".join(checks) if checks else "1"
        if fill[0] == "nan":
            fill_c = "NAN"
        elif fill[0] == "const":
            fill_c = _c_literal(fill[1])
        else:
            fill_c = f"f{slot}[t]"
        body.append(f"        double {name} = ({cond}) ? {read} "
                    f": {fill_c};")
    axis_of = {name: d for d, name in enumerate(unit.program.index_names)}
    expr = _render_c_expr(unit, tap_names, axis_of)
    params = ", ".join(
        ["long long lo", "long long n"]
        + [f"const double *f{i}" for i in range(len(fields))]
        + ["double *out"])
    lines = [
        "#include <math.h>",
        "",
        f"/* cells={num_cells} domain={tuple(domain)} */",
        f"void run({params})",
        "{",
        "    long long t;",
        "    for (t = lo; t < lo + n; t++) {",
        *body,
        f"        out[t - lo] = {expr};",
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n", len(fields)


def _build_cffi_module(digest: str, csource: str, field_count: int):
    import cffi
    modname = f"_repro_kernel_{digest[:16]}"
    ffi = cffi.FFI()
    params = ", ".join(
        ["long long lo", "long long n"]
        + [f"const double *f{i}" for i in range(field_count)]
        + ["double *out"])
    ffi.cdef(f"void run({params});")
    ffi.set_source(modname, csource,
                   extra_compile_args=["-O2", "-ffp-contract=off",
                                       "-Wno-unused-variable"])
    tmpdir = tempfile.mkdtemp(prefix="repro-kernel-")
    libpath = ffi.compile(tmpdir=tmpdir, verbose=False)
    spec = importlib.util.spec_from_file_location(modname, libpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lib, module.ffi


class _CffiBackend:
    """Per-unit C compilation of the restricted expression class.

    Compiled with ``-ffp-contract=off`` (no FMA contraction) so every
    arithmetic operation is the same IEEE double operation NumPy
    performs; the remaining semantic gaps are excluded by
    :func:`_restricted_expr_ok`, and the first chunk is bitwise
    validated regardless.
    """

    name = "cffi"

    def bind(self, unit):
        try:
            return self._bind(unit)
        except Exception:
            if metrics.enabled():
                metrics.counter("kernel.backend_discarded",
                                backend=self.name).inc()
            return unit.compute_words

    def _bind(self, unit):
        generated = _c_source_for(unit)
        if generated is None:
            return unit.compute_words
        csource, field_count = generated
        digest = hashlib.sha1(csource.encode()).hexdigest()
        cached = _CFFI_CACHE.get(digest)
        if cached is None:
            began = clock.now()
            cached = _build_cffi_module(digest, csource, field_count)
            _CFFI_CACHE[digest] = cached
            if metrics.enabled():
                metrics.histogram("kernel.compile_seconds",
                                  backend=self.name) \
                    .observe(clock.now() - began)
        lib, ffi = cached
        width = unit.width
        streams = _whole_streams(unit)
        pointers = [ffi.cast("double *", stream.ctypes.data)
                    for stream in streams]

        def fast(w0: int, b: int) -> np.ndarray:
            n = b * width
            out = np.empty(n, dtype=np.float64)
            lib.run(w0 * width, n, *pointers,
                    ffi.cast("double *", out.ctypes.data))
            return out.reshape(b, width)

        return _CheckedBackendFn(unit, fast, "cffi:" + digest, self.name)


def _render_njit_expr(unit, tap_names, axis_of) -> str:
    """Python spelling of the restricted class for numba's njit: C
    truthiness (``x != 0.0``, NaN truthy) spelled explicitly so the
    jitted scalar semantics match the array compiler's."""
    def go(node) -> str:
        if isinstance(node, Literal):
            return repr(float(node.value))
        if isinstance(node, IndexVar):
            return f"float(i{axis_of[node.name]})"
        if isinstance(node, FieldAccess):
            return tap_names[(node.field, tuple(node.offsets))]
        if isinstance(node, BinaryOp):
            left, right = go(node.left), go(node.right)
            if node.op in ("+", "-", "*", "/"):
                return f"({left} {node.op} {right})"
            if node.op == "&&":
                return (f"(1.0 if ({left}) != 0.0 and ({right}) != 0.0 "
                        f"else 0.0)")
            if node.op == "||":
                return (f"(1.0 if ({left}) != 0.0 or ({right}) != 0.0 "
                        f"else 0.0)")
            return f"(1.0 if ({left}) {node.op} ({right}) else 0.0)"
        if isinstance(node, UnaryOp):
            if node.op == "!":
                return f"(1.0 if ({go(node.operand)}) == 0.0 else 0.0)"
            return f"({node.op}{go(node.operand)})"
        if isinstance(node, Ternary):
            return (f"(({go(node.then)}) if ({go(node.cond)}) != 0.0 "
                    f"else ({go(node.orelse)}))")
        if isinstance(node, Call):  # fabs/abs only
            args = ", ".join(go(a) for a in node.args)
            return f"abs({args})"
        raise ValueError(f"unrenderable node {type(node).__name__}")
    return go(unit.stencil.ast)


def _njit_source_for(unit) -> Optional[str]:
    if not _unit_restricted(unit):
        return None
    taps = _access_taps(unit)
    if taps is None:
        return None
    domain = unit.domain
    tap_names = {}
    body: List[str] = []
    for line in _coord_lines(domain, "", div="//"):
        body.append("        " + line.rstrip(";"))
    for i, ((access, full, _flat), tap) in enumerate(
            zip(unit.access_info, taps)):
        slot, flat, bounds, fill = tap
        name = f"a{i}"
        tap_names[(access.field, tuple(access.offsets))] = name
        read = f"f{slot}[t + ({flat})]"
        if bounds is None:
            body.append(f"        {name} = {read}")
            continue
        checks = []
        for d, off in enumerate(bounds):
            if off:
                checks.append(f"0 <= i{d} + ({off}) < {domain[d]}")
        cond = " and ".join(checks) if checks else "True"
        if fill[0] == "nan":
            fill_py = "float('nan')"
        elif fill[0] == "const":
            fill_py = repr(float(fill[1]))
        else:
            fill_py = f"f{slot}[t]"
        body.append(f"        {name} = {read} if ({cond}) "
                    f"else {fill_py}")
    axis_of = {name: d for d, name in enumerate(unit.program.index_names)}
    expr = _render_njit_expr(unit, tap_names, axis_of)
    fields = ", ".join(f"f{i}" for i in range(len(unit.fields)))
    lines = [
        f"def chunk(lo, n, {fields}, out):",
        "    for t in range(lo, lo + n):",
    ]
    lines.extend(line.replace("        ", "        ", 1) for line in body)
    lines.append(f"        out[t - lo] = {expr}")
    return "\n".join(lines) + "\n"


class _NumbaBackend:
    """njit compilation of the restricted class; every step is guarded
    so an unusable numba install degrades to the Python backend."""

    name = "numba"

    def bind(self, unit):
        try:
            return self._bind(unit)
        except Exception:
            if metrics.enabled():
                metrics.counter("kernel.backend_discarded",
                                backend=self.name).inc()
            return unit.compute_words

    def _bind(self, unit):
        source = _njit_source_for(unit)
        if source is None:
            return unit.compute_words
        import numba
        began = clock.now()
        namespace: dict = {}
        exec(compile(source, "<repro-kernel-njit>", "exec"), namespace)
        jitted = numba.njit(namespace["chunk"], error_model="numpy",
                            cache=False)
        if metrics.enabled():
            metrics.histogram("kernel.compile_seconds",
                              backend=self.name) \
                .observe(clock.now() - began)
        width = unit.width
        streams = _whole_streams(unit)
        digest = "numba:" + hashlib.sha1(source.encode()).hexdigest()

        def fast(w0: int, b: int) -> np.ndarray:
            n = b * width
            out = np.empty(n, dtype=np.float64)
            jitted(w0 * width, n, *streams, out)
            return out.reshape(b, width)

        return _CheckedBackendFn(unit, fast, digest, self.name)


# -- the compiled pass -------------------------------------------------------

class _KernelContext:
    """Runtime services of a generated ``kernel_pass``: stream slabs
    keyed by stream name, the rebuilt stencil/sink units, output
    allocation, and backend-dispatched chunk computes."""

    def __init__(self, slabs: Dict[str, np.ndarray],
                 units: Dict[str, BatchedStencilUnit],
                 sinks: Dict[str, BatchedSinkUnit],
                 backend):
        self.slabs = slabs
        self.units = units
        self.sinks = sinks
        self.backend = backend
        self._bound: Dict[str, object] = {}

    #: Wraps a whole stream slab as a stencil unit's inbound edge
    #: buffer: taps read it in place, nothing is copied.
    stream = _EdgeBuffer

    def alloc(self, name: str) -> np.ndarray:
        unit = self.units[name]
        return np.empty((unit.num_words, unit.width),
                        dtype=unit.line_dtype)

    def compute(self, name: str, unit, w0: int, b: int) -> np.ndarray:
        fn = self._bound.get(name)
        if fn is None:
            fn = self.backend.bind(unit)
            self._bound[name] = fn
        return fn(w0, b)


class KernelSimulator(BatchedSimulator):
    """The compiled kernel engine (``engine_mode="kernel"``).

    Cold (no cached kernel for this machine): runs the batched engine
    unchanged, then records the outcome and the generated pass.  Warm:
    replays the record and executes the compiled pass — bitwise
    identical results with no planner, channels, or cycle loop.
    """

    def __init__(self, analysis, config=None,
                 device_of: Optional[Mapping[str, int]] = None):
        super().__init__(analysis, config, device_of=device_of)
        self._kernel_cached = False
        self._kernel_slabs = 0

    def _make_profile(self, cycles, wall_seconds):
        profile = super()._make_profile(cycles, wall_seconds)
        return dataclasses.replace(profile, engine="kernel",
                                   kernel_cached=self._kernel_cached,
                                   kernel_slabs=self._kernel_slabs)

    # -- artifact store ------------------------------------------------------

    _RECORD_FIELDS = ("cycles", "expected_cycles", "stall_cycles",
                      "steady_stall_cycles", "channel_occupancy",
                      "output_continuous", "stencil_continuous",
                      "fault_report")

    def _load_artifact(self, key: str) -> Optional[dict]:
        cache = default_cache()
        artifact = cache.peek(key)
        if artifact is not None:
            return artifact
        path = _artifact_path(key)
        if not path.exists():
            return None
        data = read_json_guarded(path, expect=dict)
        if data is None:
            return None
        record = data.get("record")
        if (data.get("schema") != KERNEL_SCHEMA
                or data.get("key") != key
                or not isinstance(record, dict)
                or not isinstance(data.get("source"), str)
                or any(name not in record
                       for name in self._RECORD_FIELDS)):
            quarantine_file(path, reason="malformed kernel artifact")
            return None
        try:
            code = compile(data["source"], "<repro-kernel>", "exec")
        except SyntaxError:
            quarantine_file(path, reason="kernel source does not compile")
            return None
        artifact = {"record": record, "source": data["source"],
                    "code": code}
        return cache.get_or_build(key, lambda: artifact)

    def _make_record(self, result: SimulationResult) -> dict:
        fault = result.fault_report
        return {
            "cycles": result.cycles,
            "expected_cycles": result.expected_cycles,
            "stall_cycles": dict(result.stall_cycles),
            "steady_stall_cycles": dict(result.steady_stall_cycles),
            "channel_occupancy": dict(result.channel_occupancy),
            "output_continuous": dict(result.output_continuous),
            "stencil_continuous": dict(result.stencil_continuous),
            "fault_report": fault.to_json() if fault is not None else None,
        }

    def _store_artifact(self, key: str, result: SimulationResult):
        source = self._generate_source()
        code = compile(source, "<repro-kernel>", "exec")
        record = self._make_record(result)
        artifact = {"record": record, "source": source, "code": code}
        default_cache().get_or_build(key, lambda: artifact)
        path = _artifact_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_json_atomic(path, {"schema": KERNEL_SCHEMA,
                                     "key": key,
                                     "record": record,
                                     "source": source})
        except OSError:
            pass  # read-only cache homes disable persistence, not runs

    # -- source generation ---------------------------------------------------

    def _stencil_input_streams(self) -> Dict[str, List[str]]:
        graph = self.graph
        return {
            stencil.name: sorted({e.data for e in graph.in_edges(
                f"stencil:{stencil.name}")})
            for stencil in self.program.stencils}

    def _topo_stencils(self):
        """Stencils ordered so every consumed stream is produced first
        (stream name == producing stencil name; inputs are roots)."""
        program = self.program
        needs = self._stencil_input_streams()
        produced = {name for name in program.inputs}
        remaining = list(program.stencils)
        order = []
        while remaining:
            progressed = False
            for stencil in list(remaining):
                if all(f in produced for f in needs[stencil.name]):
                    order.append(stencil)
                    produced.add(stencil.name)
                    remaining.remove(stencil)
                    progressed = True
            if not progressed:
                raise SimulationError(
                    "kernel codegen: cyclic stencil graph")
        return order

    def _generate_source(self) -> str:
        program = self.program
        graph = self.graph
        num_words = program.num_cells // program.vectorization
        chunk = max(1, min(CHUNK_WORDS, num_words))
        needs = self._stencil_input_streams()
        consumers: Dict[str, int] = {}
        for fields in needs.values():
            for field in fields:
                consumers[field] = consumers.get(field, 0) + 1
        sink_stream: Dict[str, str] = {}
        for out in program.outputs:
            (edge,) = graph.in_edges(f"output:{out}")
            sink_stream[out] = edge.data
            consumers[edge.data] = consumers.get(edge.data, 0) + 1

        lines = [
            "def kernel_pass(ctx):",
            "    slabs = ctx.slabs",
            "    units = ctx.units",
            "    sinks = ctx.sinks",
            "    compute = ctx.compute",
            "    alloc = ctx.alloc",
            "    stream = ctx.stream",
        ]
        live = dict(consumers)

        def release(stream: str):
            live[stream] -= 1
            if live[stream] == 0:
                lines.append(f"    slabs.pop({stream!r}, None)")

        for stencil in self._topo_stencils():
            name = stencil.name
            lines.append(f"    u = units[{name!r}]")
            for field in needs[name]:
                lines.append(f"    u.in_channels[{field!r}] = "
                             f"stream(slabs[{field!r}])")
            lines.append(f"    out = alloc({name!r})")
            lines.append(f"    for w0 in range(0, {num_words}, {chunk}):")
            lines.append(f"        b = min({chunk}, {num_words} - w0)")
            lines.append(
                f"        out[w0:w0 + b] = compute({name!r}, u, w0, b)")
            lines.append(f"    slabs[{name!r}] = out")
            for field in needs[name]:
                release(field)
        for out in program.outputs:
            stream = sink_stream[out]
            lines.append(
                f"    sinks[{out!r}].store_rows(slabs[{stream!r}])")
            release(stream)
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        key = _kernel_key_for(self)
        artifact = self._load_artifact(key)
        if artifact is not None:
            _STATS["hits"] += 1
            if metrics.enabled():
                metrics.counter("kernel.cache_hits").inc()
            return self._run_compiled(artifact, inputs)
        _STATS["misses"] += 1
        if metrics.enabled():
            metrics.counter("kernel.cache_misses").inc()
        result = super().run(inputs)
        began = clock.now()
        self._store_artifact(key, result)
        if metrics.enabled():
            metrics.histogram("kernel.compile_seconds",
                              backend="codegen") \
                .observe(clock.now() - began)
        return result

    def _run_compiled(self, artifact: dict,
                      inputs: Mapping[str, np.ndarray]) -> SimulationResult:
        self._run_began = clock.now()
        record = artifact["record"]
        program = self.program
        width = program.vectorization
        slabs: Dict[str, np.ndarray] = {}
        with span("kernel.build"):
            # Input validation and source range checks run the shared
            # engine code first, in the shared order, so a run that
            # would fail cold fails identically warm.
            for name, spec in program.inputs.items():
                full = resolve_input_array(program, inputs, name, spec)
                source = BatchedSourceUnit(name, full, width, ())
                rows = source.rows
                dtype = self._stream_meta(name)[0]
                if rows.dtype != dtype:
                    # The one whole-input conversion left: the pass
                    # reads the stream in place, no ring store casts it.
                    rows = rows.astype(dtype)
                slabs[name] = rows
            expected = self._expected_cycles()
            cap = self._max_cycles(expected)
            if record["cycles"] > cap:
                raise SimulationError(
                    f"simulation exceeded {cap} cycles "
                    f"(expected ~{expected})")
            units: Dict[str, BatchedStencilUnit] = {}
            for stencil in program.stencils:
                node_id = f"stencil:{stencil.name}"
                ins = {e.data: None
                       for e in self.graph.in_edges(node_id)}
                latency = self.analysis.node_delays[node_id] \
                    .compute_cycles
                # The pass binds each whole input stream as the unit's
                # edge buffer and never touches the latency line.
                units[stencil.name] = BatchedStencilUnit(
                    program, stencil, ins, [], latency,
                    max_batch_words=0,
                    coord_slabs=self._coord_slabs(),
                    stream_meta=self._stream_meta)
            sinks: Dict[str, BatchedSinkUnit] = {}
            for out in program.outputs:
                sinks[out] = BatchedSinkUnit(
                    out, None, program.shape, width,
                    program.field_dtype(out).numpy)
            backend = _resolve_backend(program.num_cells)
            context = _KernelContext(slabs, units, sinks, backend)
        with span("kernel.execute", backend=backend.name):
            namespace: dict = {}
            exec(artifact["code"], namespace)
            namespace["kernel_pass"](context)
        self._kernel_cached = True
        self._kernel_slabs = len(units)
        outputs = {name: sink.data for name, sink in sinks.items()}
        fault = record["fault_report"]
        fault_report = None
        if fault:
            fault_report = FaultReport(
                link_outage_cycles=dict(fault["link_outage_cycles"]),
                link_degraded_cycles=dict(
                    fault["link_degraded_cycles"]),
                unit_stall_cycles=dict(fault["unit_stall_cycles"]))
        wall = clock.now() - self._run_began
        profile = self._make_profile(record["cycles"], wall)
        self._emit_run_metrics(profile)
        return SimulationResult(
            outputs=outputs,
            cycles=record["cycles"],
            expected_cycles=record["expected_cycles"],
            stall_cycles=dict(record["stall_cycles"]),
            steady_stall_cycles=dict(record["steady_stall_cycles"]),
            channel_occupancy=dict(record["channel_occupancy"]),
            output_continuous=dict(record["output_continuous"]),
            stencil_continuous=dict(record["stencil_continuous"]),
            fault_report=fault_report,
            profile=profile,
        )
