"""Reference execution of stencil programs (Sec. VI-C).

Stencil evaluations are executed sequentially in topological order — no
fusion or parallelism between stencil evaluations — exactly like the
CPU-executed reference graphs the paper uses to verify generated hardware
kernels. This is the functional ground truth for every other backend in
the repository.

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

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.boundary import BoundaryConditions
from ..core.program import StencilDefinition, StencilProgram
from ..errors import ValidationError
from ..expr.analysis import index_vars
from ..expr.ast_nodes import FieldAccess
from ..expr.evaluator import evaluate
from ..graph.dag import StencilGraph

#: Valid region: per-dimension (lo, hi) half-open bounds.
Region = Tuple[Tuple[int, int], ...]


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
                  inputs: Mapping[str, np.ndarray]
                  ) -> Dict[str, FieldResult]:
    """Execute ``program`` over concrete input arrays.

    Args:
        program: the stencil program.
        inputs: one array per declared input, shaped per the input's
            declared dims over the program's domain. Scalars may be
            Python numbers.

    Returns:
        A result per stencil node (not only program outputs), keyed by
        name, each with its valid region.
    """
    domain = program.shape
    executor = _Executor(program, domain)
    executor.bind_inputs(inputs)
    for name in StencilGraph(program).stencil_topological_order():
        executor.execute(program.stencil(name))
    return executor.results


class _Executor:
    def __init__(self, program: StencilProgram, domain: Tuple[int, ...]):
        self.program = program
        self.domain = tuple(domain)
        self.index_names = program.index_names
        # Full-domain broadcast views of every data container.
        self.arrays: Dict[str, np.ndarray] = {}
        self.valid: Dict[str, Region] = {}
        self.results: Dict[str, FieldResult] = {}
        # Index grids cost a domain of int64 per axis: built only when
        # some stencil reads an iteration index as a value.
        grids = np.indices(self.domain) if any(
            index_vars(s.ast) for s in program.stencils) else ()
        self.index_grids = dict(zip(self.index_names, grids))

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

        def resolve(access: FieldAccess) -> np.ndarray:
            return self._resolve(stencil, access)

        raw = evaluate(stencil.ast, resolve, self.index_grids)
        result = np.empty(self.domain, dtype=out_dtype)
        result[...] = raw
        valid = self._valid_region(stencil)
        fill = np.nan if np.issubdtype(out_dtype, np.floating) else 0
        # Under shrink this also covers every cell that read out of the
        # domain: the valid region lies inside each access's shift box.
        for slab in _margin_slabs(self.domain, valid):
            result[slab] = fill
        self.arrays[stencil.name] = result
        self.valid[stencil.name] = valid
        self.results[stencil.name] = FieldResult(stencil.name, result, valid)

    def _resolve(self, stencil: StencilDefinition,
                 access: FieldAccess) -> np.ndarray:
        """Shifted view of ``access`` with boundary handling applied."""
        source = self.arrays[access.field]
        offsets = self._full_offsets(access)
        if not any(offsets):
            return source
        shifted, box = _shift(source, offsets)
        if stencil.boundary.shrink:
            return shifted   # its margin is invalid (see execute)
        condition = stencil.boundary.for_input(access.field)
        if condition.kind == "constant":
            # Promoted like ``np.where(in_bounds, shifted, value)``.
            shifted = shifted.astype(
                np.result_type(shifted, condition.value), copy=False)
            for slab in _margin_slabs(self.domain, box):
                shifted[slab] = condition.value
        # copy: the margin already holds the center value.
        return shifted

    def _full_offsets(self, access: FieldAccess) -> Tuple[int, ...]:
        """Offsets of an access expanded to the full iteration space."""
        by_dim = dict(zip(access.dims, access.offsets))
        return tuple(by_dim.get(d, 0) for d in self.index_names)

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


def _shift(source: np.ndarray, offsets: Tuple[int, ...]
           ) -> Tuple[np.ndarray, Region]:
    """Shift ``source`` so out[idx] == source[idx + off].

    Returns the shifted array and the destination box the shift is
    defined on; the margin outside it (the out-of-bounds reads) holds
    the unshifted value, harmless for any dtype.
    """
    domain = source.shape
    out = np.empty_like(source)
    src_slices = []
    box = []
    for off, extent in zip(offsets, domain):
        lo = min(max(0, -off), extent)
        hi = max(lo, extent - max(0, off))
        src_slices.append(slice(lo + off, hi + off))
        box.append((lo, hi))
    out[tuple(slice(lo, hi) for lo, hi in box)] = source[tuple(src_slices)]
    for slab in _margin_slabs(domain, box):
        out[slab] = source[slab]
    return out, tuple(box)


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
