"""Reference execution of stencil programs (Sec. VI-C).

Stencil evaluations are executed sequentially — no fusion or parallelism
between stencil evaluations — exactly like the CPU-executed reference
graphs the paper uses to verify generated hardware kernels. This is the
functional ground truth for every other backend in the repository.

Only the stencils that the *kept* fields depend on are evaluated, in a
depth-first post-order from those fields (a topological order that
finishes one output's chain before starting the next), and every field
is freed after its last reader unless it is kept. Every stencil is a
pure function of its inputs, so the order changes no result; on
horizontal diffusion it bounds the live fields at 7 of 24.

Each stencil is evaluated over its valid region only, in cache-sized
blocks of whole outer-axis planes; a field access is a view of its
producer at the block plus the access offset, copied only where a
boundary condition substitutes out-of-domain reads or promotes the dtype.

Boundary semantics:

* ``constant`` / ``copy`` inputs: out-of-domain reads are substituted
  (with the constant, or the center value respectively).
* ``shrink`` outputs: cells whose computation would read out of the
  domain are not produced. In the result array they are filled with NaN
  (floats) or 0 (integers), and each result carries its *valid region* so
  consumers and tests know which cells are defined.

Cells reading *upstream-invalid* data (a shrunk producer's boundary) are
likewise invalid — boundary conditions protect against the domain edge,
not against undefined upstream cells — and valid regions propagate
through the DAG accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from ..core.boundary import InputBoundary
from ..core.program import StencilDefinition, StencilProgram
from ..errors import ValidationError
from ..expr.analysis import index_vars
from ..expr.ast_nodes import FieldAccess
from ..expr.evaluator import evaluate

#: Valid region: per-dimension (lo, hi) half-open bounds.
Region = Tuple[Tuple[int, int], ...]

#: Cells per evaluation block: 256 KB per float32 operand, L2-sized.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class FieldResult:
    """One computed field: data plus its valid region."""

    name: str
    data: np.ndarray
    valid: Region

    @property
    def valid_slice(self) -> Tuple[slice, ...]:
        return tuple(slice(lo, hi) for lo, hi in self.valid)

    @property
    def valid_view(self) -> np.ndarray:
        return self.data[self.valid_slice]

    @property
    def is_fully_valid(self) -> bool:
        return all(lo == 0 and hi == extent
                   for (lo, hi), extent in zip(self.valid, self.data.shape))


def run_reference(program: StencilProgram,
                  inputs: Mapping[str, np.ndarray],
                  keep: Iterable[str] = None
                  ) -> Dict[str, FieldResult]:
    """Execute ``program`` over concrete input arrays.

    Args:
        program: the stencil program.
        inputs: one array per declared input, shaped per the input's
            declared dims over the program's domain. Scalars may be
            Python numbers.
        keep: the stencils whose results to return; by default every
            stencil. Only these and what they depend on are evaluated,
            depth-first from ``keep`` in its order, and every other
            field is freed after its last reader. Naming anything but a
            stencil raises :class:`ValidationError`.

    Returns:
        A result per kept stencil, keyed by name, each with its valid
        region.
    """
    keep = program.stencil_names if keep is None else tuple(keep)
    unknown = [name for name in keep if name not in program.stencil_names]
    if unknown:
        raise ValidationError(
            f"cannot keep {', '.join(map(repr, unknown))}: "
            f"not a stencil of {program.name!r}")
    executor = _Executor(program, program.shape)
    executor.bind_inputs(inputs)
    order = _post_order(program, keep)
    last_reader = {field: name for name in order
                   for field in program.stencil(name).accessed_fields}
    for name in order:
        stencil = program.stencil(name)
        executor.execute(stencil)
        for field in stencil.accessed_fields:
            if last_reader[field] == name and field not in keep:
                del executor.arrays[field], executor.valid[field]
    return {name: FieldResult(name, executor.arrays[name],
                              executor.valid[name]) for name in keep}


def _post_order(program: StencilProgram, roots) -> List[str]:
    """The stencils ``roots`` depend on, ``roots`` included, each after
    every stencil it reads: a depth-first post-order from ``roots``,
    dependencies visited in ``accessed_fields`` order. Iterative, so a
    long chain cannot reach the recursion limit."""
    order: List[str] = []
    seen = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(program.stencil(root).accessed_fields))]
        while stack:
            name, deps = stack[-1]
            for dep in deps:
                if dep not in seen and dep not in program.inputs:
                    seen.add(dep)
                    stack.append(
                        (dep, iter(program.stencil(dep).accessed_fields)))
                    break
            else:
                stack.pop()
                order.append(name)
    return order


class _Executor:
    def __init__(self, program: StencilProgram, domain: Tuple[int, ...]):
        self.program = program
        self.domain = tuple(domain)
        self.index_names = program.index_names
        # Full-domain broadcast views of every data container.
        self.arrays: Dict[str, np.ndarray] = {}
        self.valid: Dict[str, Region] = {}

    # -- input binding -------------------------------------------------------

    def bind_inputs(self, inputs: Mapping[str, np.ndarray]):
        for name, spec in self.program.inputs.items():
            if name not in inputs:
                raise ValidationError(f"missing input array {name!r}")
            expected = spec.shape(self.domain, self.index_names)
            array = np.asarray(inputs[name], dtype=spec.dtype.numpy)
            if array.shape != expected:
                raise ValidationError(
                    f"input {name!r}: expected shape {expected}, "
                    f"got {array.shape}")
            self.arrays[name] = self._broadcast(array, spec.dims)
            self.valid[name] = tuple((0, e) for e in self.domain)

    def _broadcast(self, array: np.ndarray,
                   dims: Tuple[str, ...]) -> np.ndarray:
        """View a (possibly lower-dimensional) field over the full domain."""
        shape = [1] * len(self.domain)
        for axis, name in enumerate(self.index_names):
            if name in dims:
                shape[axis] = self.domain[axis]
        reshaped = array.reshape(shape)
        return np.broadcast_to(reshaped, self.domain)

    # -- stencil execution ---------------------------------------------------

    def execute(self, stencil: StencilDefinition):
        out_dtype = self.program.field_dtype(stencil.name).numpy
        valid = self._valid_region(stencil)
        result = np.empty(self.domain, dtype=out_dtype)
        fill = np.nan if np.issubdtype(out_dtype, np.floating) else 0
        for slab in _margin_slabs(self.domain, valid):
            result[slab] = fill
        reads_indices = bool(index_vars(stencil.ast))
        for box in _blocks(valid):
            grids = dict(zip(self.index_names, np.ogrid[_slices(box)])) \
                if reads_indices else None
            result[_slices(box)] = evaluate(
                stencil.ast, partial(self._resolve, stencil, box), grids)
        self.arrays[stencil.name] = result
        self.valid[stencil.name] = valid

    def _resolve(self, stencil: StencilDefinition, box: Region,
                 access: FieldAccess) -> np.ndarray:
        """``access`` over the block ``box``, boundary handling applied."""
        source = self.arrays[access.field]
        by_dim = dict(zip(access.dims, access.offsets))
        offsets = tuple(by_dim.get(d, 0) for d in self.index_names)
        if stencil.boundary.shrink or not any(offsets):
            # Under shrink the valid region, and so every block, lies
            # inside each access's shift box: no read leaves the domain.
            return source[_slices(box, offsets)]
        return _shifted_block(source, box, offsets,
                              stencil.boundary.for_input(access.field))

    def _valid_region(self, stencil: StencilDefinition) -> Region:
        """Propagate valid regions through this stencil's accesses."""
        lo = [0] * len(self.domain)
        hi = list(self.domain)
        shrink = stencil.boundary.shrink
        for field, offsets in stencil.accesses.items():
            dims = stencil.access_dims[field]
            src_valid = self.valid[field]
            for off in offsets:
                by_dim = dict(zip(dims, off))
                for axis, name in enumerate(self.index_names):
                    o = by_dim.get(name, 0)
                    src_lo, src_hi = src_valid[axis]
                    extent = self.domain[axis]
                    # Reads of upstream-invalid cells are never protected.
                    if src_lo > 0:
                        lo[axis] = max(lo[axis], src_lo - o)
                    if src_hi < extent:
                        hi[axis] = min(hi[axis], src_hi - o)
                    if shrink:
                        # Out-of-domain reads also invalidate the cell.
                        lo[axis] = max(lo[axis], -o)
                        hi[axis] = min(hi[axis], extent - o)
        lo = [max(0, min(l, e)) for l, e in zip(lo, self.domain)]
        hi = [min(h, e) for h, e in zip(hi, self.domain)]
        return tuple((l, max(l, h)) for l, h in zip(lo, hi))


def check_output(name: str, got: np.ndarray, expected: FieldResult,
                 rtol: float, atol: float):
    """Raise :class:`ValidationError` unless ``got`` matches ``expected``
    on its valid region by ``np.allclose(..., equal_nan=True)``, naming
    how many cells deviate, the first one, and the largest deviation in
    float64 (``inf`` for a NaN against a number)."""
    deviating, first, worst = 0, None, 0.0
    for block in map(_slices, _blocks(expected.valid)):
        ours, theirs = got[block], expected.data[block]
        bad = ~np.isclose(ours, theirs, rtol=rtol, atol=atol, equal_nan=True)
        if bad.any():
            cells = np.argwhere(bad)
            first = first or tuple(int(i) + s.start
                                   for i, s in zip(cells[0], block))
            deviating += len(cells)
            error = np.abs(ours[bad].astype(np.float64) - theirs[bad])
            worst = max(worst, np.where(np.isnan(error), np.inf, error).max())
    if deviating:
        raise ValidationError(
            f"output {name!r} deviates from the reference in {deviating} "
            f"of {expected.valid_view.size} valid cells (first at {first}: "
            f"got {got[first]}, expected {expected.data[first]}; "
            f"max abs error {worst:.12g})")


def _blocks(box: Region):
    """Cut ``box`` along its outer axis into blocks of whole planes of
    about ``_BLOCK_CELLS`` cells (the last one may be shorter); an empty
    box has none."""
    if any(lo >= hi for lo, hi in box):
        return
    (lo, hi), inner = box[0], box[1:]
    step = max(1, _BLOCK_CELLS // math.prod(h - l for l, h in inner))
    for start in range(lo, hi, step):
        yield ((start, min(start + step, hi)), *inner)


def _slices(box: Region, offsets: Tuple[int, ...] = None
            ) -> Tuple[slice, ...]:
    """``box``, shifted by ``offsets`` if given, as a slice tuple."""
    return tuple(slice(lo + o, hi + o)
                 for (lo, hi), o in zip(box, offsets or [0] * len(box)))


def _shifted_block(source: np.ndarray, box: Region,
                   offsets: Tuple[int, ...],
                   condition: InputBoundary) -> np.ndarray:
    """``out[idx] == source[idx + offsets]`` over the block ``box``, with
    every read that leaves the domain substituted: by the center value
    ``source[idx]`` (``copy``) or by the constant (``constant``, promoted
    like ``np.result_type(source, value)``). A view unless a read leaves."""
    dtype = source.dtype if condition.kind == "copy" else \
        np.result_type(source, condition.value)
    # The part of the block whose reads stay inside the domain.
    inside = tuple((max(lo, -o), max(lo, -o, min(hi, extent - o)))
                   for (lo, hi), o, extent in zip(box, offsets, source.shape))
    if inside == box:
        return source[_slices(box, offsets)].astype(dtype, copy=False)
    if condition.kind == "copy":
        out = source[_slices(box)].copy()
    else:
        out = np.full([hi - lo for lo, hi in box], condition.value, dtype)
    out[_slices(inside, [-lo for lo, _ in box])] = \
        source[_slices(inside, offsets)]
    return out


def _margin_slabs(domain: Tuple[int, ...], box: Region):
    """Disjoint slice tuples covering exactly ``domain`` minus ``box``:
    per axis, the slabs below and above the box's bounds on that axis,
    inside the box on earlier axes and spanning the later ones."""
    inner: Tuple[slice, ...] = ()
    for (lo, hi), extent in zip(box, domain):
        for start, stop in ((0, lo), (hi, extent)):
            if start < stop:
                yield (*inner, slice(start, stop))
        if lo >= hi:
            return   # empty box: the two slabs were the whole remainder
        inner += (slice(lo, hi),)
