"""Native compute: one C translation unit per machine, bound at
``compute_words``.

:func:`bind_native` renders one C function per eligible stencil unit
(the restricted float64 class of :mod:`.kernel`), compiles them with one
``cc`` run, loads the object with ``ctypes`` and puts a first-chunk-
validated wrapper in each unit's ``compute_words``.  A kernel takes one
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
#: (``num_cells x eligible units``) up: a compile costs ~0.17 s and a
#: kernel saves 6-8 ns per cell evaluation, so one run breaks even near
#: 25 M and two runs near half that (paper-domain hdiff is 28.8 M).
NATIVE_MIN_CELL_EVALS = 20_000_000

#: Never ``-ffast-math`` / ``-Ofast`` and no FMA contraction: every C
#: operation must be the IEEE double operation NumPy performs.  ``-O2``
#: vectorises these loops; ``-O3`` ran no faster and compiles slower.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CC_TIMEOUT_S = 60.0

#: Loaded shared objects by translation-unit digest (None: that source
#: failed to build), for the life of the process — identical machines
#: share one compile.  Never written to or read from a cache directory.
_LIBS: Dict[str, Optional[ctypes.CDLL]] = {}


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


class NativeBinding:
    """What one :func:`bind_native` call did: stencil units of a bound
    machine, this call's ``cc`` time (0 when the process had the object
    already) and the installed wrappers."""

    def __init__(self):
        self.considered, self.compile_s, self.wrappers = 0, 0.0, []

    def profile(self) -> dict:
        """The run's ``EngineProfile`` fields, read at end of run: a
        wrapper discarded by its first chunk counts as a fallback."""
        units = sum(not w.discarded for w in self.wrappers)
        return {"native_units": units,
                "native_fallback_units": self.considered - units,
                "native_compile_s": self.compile_s}


def bind_native(units, num_cells: int) -> NativeBinding:
    """Bind every eligible unit of one machine to its compiled kernel;
    an ineligible unit, a missing or failing ``cc`` and (later) a failed
    first chunk each leave that unit's ``compute_words`` on NumPy."""
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
    if digest not in _LIBS:
        began = clock.now()
        _LIBS[digest] = _compile(text)
        binding.compile_s = clock.now() - began
        if metrics.enabled():
            metrics.histogram("kernel.compile_seconds", backend="native") \
                .observe(binding.compile_s)
    lib = _LIBS[digest]
    if lib is None:
        return binding
    for i, ((unit, _taps), (source, plan)) in enumerate(
            zip(eligible, kernels)):
        unit.compute_words = _CheckedBackendFn(
            unit, _Kernel(getattr(lib, f"k{i}"), *plan),
            "native:" + hashlib.sha1(source.encode()).hexdigest())
        binding.wrappers.append(unit.compute_words)
    return binding
