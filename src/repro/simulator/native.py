"""Native compute: one C translation unit per machine, bound at
``compute_words``.

:func:`bind_native` renders one C function per eligible stencil unit
(the restricted float64 class of :mod:`.kernel`), compiles them with one
``cc`` run, loads the object with ``ctypes`` and puts a first-chunk-
validated wrapper in each unit's ``compute_words`` — from the chunk
after the object loads: ``cc`` runs on a background thread, so no run
waits for it.  A kernel takes one
address per *access* — ring base plus ``stream.position(lo + flat,
n)``, the cells ``stream.cells`` slices for the NumPy path — and writes
its chunk into the ring rows ``out``, so rings, cursors, the planner
and every simulated statistic are untouched, and one kernel serves
ring windows and the replay pass's whole streams.  See
``docs/KERNELS.md``, "Native compute".
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..expr.analysis import index_vars
from ..obs import clock, metrics
from .kernel import (
    _CheckedBackendFn,
    _access_taps,
    _c_literal,
    _coord_lines,
    _render_c_expr,
    _unit_restricted,
    backend_mode,
)

#: ``auto`` binds a machine only from this many cell evaluations
#: (``num_cells x eligible units``) up: where the compile's CPU (it
#: runs beside the run) is repaid within ten runs.  On a 2-core x86-64
#: box with gcc, hdiff's compile takes 0.165 s and a kernel saves 8-20
#: ns per evaluation: 0.165 s / (10 x ~12 ns) = 1.4 M.
NATIVE_MIN_CELL_EVALS = 1_400_000

#: Never ``-ffast-math`` / ``-Ofast`` and no FMA contraction: every C
#: operation must be the IEEE double operation NumPy performs.  ``-O2``
#: vectorises these loops; ``-O3`` ran no faster and compiles slower.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CC_TIMEOUT_S = 60.0

#: Loaded shared objects by translation-unit digest (None: that source
#: failed to build), for the life of the process — identical machines
#: share one compile.  Never written to or read from a cache directory.
_LIBS: Dict[str, Optional[ctypes.CDLL]] = {}
#: Builds in flight by digest, and the seconds each finished one took.
#: A forked child has none of the parent's threads: it forgets them.
_PENDING: Dict[str, threading.Thread] = {}
_COMPILE_S: Dict[str, float] = {}
os.register_at_fork(after_in_child=lambda: _PENDING.clear())


class _Kernel:
    """One unit's compiled function and the argument plan of a call:
    ``reads`` are the distinct ``(field, flat)`` stream windows,
    ``taps`` / ``fills`` pick one of them per ``a`` / ``c`` pointer
    parameter, ``masks`` are the in-bounds byte slabs (kept alive here;
    passed as ``base + lo``).  Holds nothing of the unit it serves."""

    def __init__(self, fn, reads, taps, masks, fills):
        self.fn, self.reads, self.taps, self.fills = fn, reads, taps, fills
        self.masks = masks
        self.mask_bases = [mask.ctypes.data for mask in masks]
        fn.restype = None
        fn.argtypes = [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * (
            len(taps) + len(masks) + len(fills) + 1)

    def __call__(self, unit, w0: int, b: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        width = unit.width
        lo, n = w0 * width, b * width
        out = np.empty((b, width)) if out is None else out
        edges = [unit.in_channels[field] for field, _flat in self.reads]
        # The pointers' contract, checked where it is cheap: n float64
        # cells per window (``position`` checks they are in the ring)
        # and in contiguous ``out``, and mask slabs over [lo, lo+n).
        if lo < 0 or lo + n > unit.num_cells or out.size != n \
                or not out.flags.c_contiguous or any(
                    a.dtype.char != "d" for a in (out, *edges)):
            raise SimulationError(
                f"stencil {unit.name!r}: native kernel handed a window "
                f"that is not {n} float64 cells at {lo}")
        pointers = [edge.base + 8 * edge.position(lo + flat, n)
                    for edge, (_field, flat) in zip(edges, self.reads)]
        self.fn(lo, n, *[pointers[i] for i in self.taps],
                *[base + lo for base in self.mask_bases],
                *[pointers[i] for i in self.fills], out.ctypes.data)
        return out


def _generate(unit, taps, name: str) -> Tuple[str, tuple]:
    """C function ``name`` for ``unit`` and its :class:`_Kernel` plan: a
    pointer per access, a branch-free select on the in-bounds mask per
    boundary access (fill: NaN, the constant, or the centre cell),
    coordinates recovered only where the expression reads one."""
    index: Dict[tuple, int] = {}
    reads, masks, fills, tap_names = [], [], [], {}
    for i, ((access, _full, _flat), (flat, fill), boundary) in enumerate(
            zip(unit.access_info, taps, unit._access_boundary)):
        reads.append(index.setdefault((access.field, flat), len(index)))
        read = f"a{i}[t - lo]"
        if fill is not None:
            if fill[0] == "copy":
                other = f"c{len(fills)}[t - lo]"
                fills.append(index.setdefault((access.field, 0),
                                              len(index)))
            else:
                other = "NAN" if fill[0] == "nan" else _c_literal(fill[1])
            read = f"(m{len(masks)}[t - lo] ? {read} : {other})"
            masks.append(boundary[0])
        tap_names[(access.field, tuple(access.offsets))] = read
    lines = _coord_lines(unit.domain) if index_vars(unit.stencil.ast) else []
    lines.append(f"out[t - lo] = {_render_c_expr(unit, tap_names)};")
    params = ["long long lo", "long long n"] \
        + [f"const double *a{i}" for i in range(len(reads))] \
        + [f"const unsigned char *m{i}" for i in range(len(masks))] \
        + [f"const double *c{i}" for i in range(len(fills))] \
        + ["double *out"]
    body = "\n".join(f"        {line}" for line in lines)
    source = (f"void {name}({', '.join(params)})\n{{\n"
              f"    long long t;\n"
              f"    for (t = lo; t < lo + n; t++) {{\n{body}\n    }}\n}}\n")
    return source, (list(index), reads, masks, fills)


def _compile(source: str) -> Optional[ctypes.CDLL]:
    """``source`` as a loaded shared object — built in a fresh temp dir
    that is removed once loaded — or None without a working ``cc``."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    tmp = tempfile.mkdtemp(prefix="repro-native-")
    try:
        src, lib = os.path.join(tmp, "tu.c"), os.path.join(tmp, "tu.so")
        with open(src, "w") as handle:
            handle.write(source)
        subprocess.run([cc, *_CFLAGS, "-o", lib, src, "-lm"], check=True,
                       timeout=_CC_TIMEOUT_S, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return ctypes.CDLL(lib)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _build(digest: str, text: str, registry) -> None:
    """A background build: the object (None on any failure) lands in
    ``_LIBS`` before the digest leaves ``_PENDING``."""
    began = clock.now()
    lib = _compile(text)
    seconds = _COMPILE_S[digest] = clock.now() - began
    _LIBS[digest] = lib
    _PENDING.pop(digest, None)
    if registry.enabled:
        registry.histogram("kernel.compile_seconds", backend="native") \
            .observe(seconds)


class _Deferred(_CheckedBackendFn):
    """A unit's checked kernel whose object may still be building:
    until it is in ``_LIBS`` the unit computes NumPy chunks (counted in
    ``pending``), and a failed build leaves it on them for good."""

    def __init__(self, unit, build: str, name: str, plan, digest: str):
        super().__init__(unit, None, digest)
        self.build, self.name, self.plan, self.pending = build, name, plan, 0

    def landed(self) -> bool:
        """Whether the kernel is loaded (binding it on first sight)."""
        lib = _LIBS.get(self.build)
        if self.fast is None and lib is not None:
            self.fast = _Kernel(getattr(lib, self.name), *self.plan)
        return self.fast is not None

    def __call__(self, w0: int, b: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        if self.landed():
            return super().__call__(w0, b, out)
        self.pending += self.build not in _LIBS
        return self._reference(self._unit(), w0, b, out)


class NativeBinding:
    """What one :func:`bind_native` call did: stencil units of a bound
    machine, the wrappers, and the digest if it was still building."""

    def __init__(self):
        self.considered, self.wrappers, self.building = 0, [], None

    def profile(self) -> dict:
        """The run's ``EngineProfile`` fields, read at end of run: a
        unit that ran a kept kernel counts as native; the compile time
        is that of a build that landed during the run."""
        units = sum(w.fast is not None and not w.discarded
                    for w in self.wrappers)
        return {"native_units": units,
                "native_fallback_units": self.considered - units,
                "native_pending_chunks": sum(w.pending
                                             for w in self.wrappers),
                "native_compile_s": _COMPILE_S[self.building]
                if self.building in _LIBS else 0.0}


def bind_native(units, num_cells: int) -> NativeBinding:
    """Bind every eligible unit of one machine to its compiled kernel,
    built in the background (``native`` mode waits for it); an
    ineligible unit, a missing or failing ``cc`` and a failed first
    chunk each leave that unit's ``compute_words`` on NumPy."""
    binding = NativeBinding()
    mode = backend_mode()
    floor = NATIVE_MIN_CELL_EVALS if mode == "auto" else 0
    if mode == "python" or num_cells * len(units) < floor:
        return binding      # small machines: not even an AST walk
    eligible = [(unit, taps) for unit in units if _unit_restricted(unit)
                and (taps := _access_taps(unit)) is not None]
    if not eligible or num_cells * len(eligible) < floor:
        return binding
    binding.considered = len(units)
    kernels = [_generate(unit, taps, f"k{i}")
               for i, (unit, taps) in enumerate(eligible)]
    text = "#include <math.h>\n\n" + "\n".join(
        source for source, _plan in kernels)
    digest = hashlib.sha1(text.encode()).hexdigest()
    binding.building = digest if digest not in _LIBS else None
    if binding.building and digest not in _PENDING:
        _PENDING[digest] = threading.Thread(
            target=_build, args=(digest, text, metrics.registry()),
            daemon=False)
        _PENDING[digest].start()
    if mode == "native" and (thread := _PENDING.get(digest)) is not None:
        thread.join()
    for i, ((unit, _taps), (source, plan)) in enumerate(
            zip(eligible, kernels)):
        unit.compute_words = _Deferred(
            unit, digest, f"k{i}", plan,
            "native:" + hashlib.sha1(source.encode()).hexdigest())
        binding.wrappers.append(unit.compute_words)
    return binding
