"""Internal buffers for intra-stencil reuse (Sec. IV-A).

Within one stencil, the same input field is often accessed at several
offsets relative to the center. Streaming the field in memory order, a
buffer holding the window between the lowest and highest accessed offset
makes every element available to all its accesses — each element is
loaded exactly once.

A stencil has 0 or 1 internal buffer per field: one if the field is
accessed at two or more distinct offsets, none otherwise. The size is the
largest distance between any two offsets in memory order, plus the vector
width W (plus one in the scalar case, W = 1): accesses ``a[0,1,0]`` and
``a[0,-1,0]`` over a {K, J, I} space buffer two rows, ``2I + W``
elements; ``b[0,0,0]`` and ``b[1,0,0]`` buffer a 2D slice, ``2IJ + W``.
Accesses *between* the extremes do not change the size — they only add
tap points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.fields import flatten_offset
from ..core.program import StencilDefinition, StencilProgram


@dataclass(frozen=True)
class InternalBuffer:
    """Reuse buffer of one field within one stencil.

    Attributes:
        stencil: owning stencil name.
        field: buffered field name.
        size: buffer size in *elements* (includes the +W term).
        span: distance between extreme accesses in memory order
            (``size - vector_width``).
        accesses: the distinct offsets, in field-local dims, sorted by
            flattened position (ascending).
        taps: flattened positions of each access relative to the lowest
            one — the shift-register tap points used by code generation.
        vector_width: the W the size was computed for.
    """

    stencil: str
    field: str
    size: int
    span: int
    accesses: Tuple[Tuple[int, ...], ...]
    taps: Tuple[int, ...]
    vector_width: int

    @property
    def num_taps(self) -> int:
        return len(self.taps)

    def bytes(self, element_bytes: int) -> int:
        return self.size * element_bytes


@dataclass(frozen=True)
class StencilBuffering:
    """All internal buffers of one stencil, plus its derived schedule.

    Attributes:
        stencil: stencil name.
        buffers: internal buffers, keyed by field (only multi-access
            fields appear).
        init_elements: the initialization phase of the stencil in
            *elements*: ``max(B_1..B_F)``, or 0 without buffers. The
            stencil cannot begin computing until its largest internal
            buffer has filled (Sec. IV-A).
        fill_start: per buffered field, the number of elements after
            which the buffer starts filling, ``max(B) - B_f`` — smaller
            buffers are delayed so all fields stay synchronized; the
            largest buffer starts reading immediately.
        readahead: per accessed field, the forward distance (elements,
            in the streamed full-domain order) between the center and
            the field's highest access — how far ahead of the output
            point the field's stream must be consumed. Zero for fields
            only read at or behind the center.
    """

    stencil: str
    buffers: Dict[str, InternalBuffer]
    init_elements: int
    fill_start: Dict[str, int]
    readahead: Dict[str, int] = None

    def __post_init__(self):
        if self.readahead is None:
            object.__setattr__(self, "readahead", {})

    def init_cycles(self, vector_width: int) -> int:
        """Initialization phase in cycles (vector words)."""
        return -(-self.init_elements // vector_width)

    def readahead_words(self, field: str, vector_width: int) -> int:
        """Read-ahead of one field's stream, in vector words."""
        return -(-self.readahead.get(field, 0) // vector_width)

    def max_readahead_words(self, vector_width: int) -> int:
        """Words consumed before the first output word is produced."""
        return max((self.readahead_words(f, vector_width)
                    for f in self.readahead), default=0)


def field_domain(program: StencilProgram, field: str) -> Tuple[int, ...]:
    """Extent of a data container, outermost dimension first."""
    dims = program.field_dims(field)
    lookup = dict(zip(program.index_names, program.shape))
    return tuple(lookup[d] for d in dims)


def internal_buffers(program: StencilProgram,
                     stencil: StencilDefinition) -> StencilBuffering:
    """Compute internal buffers and the init phase for one stencil."""
    width = program.vectorization
    buffers: Dict[str, InternalBuffer] = {}
    for field, offsets in stencil.accesses.items():
        if len(offsets) < 2:
            continue
        domain = field_domain(program, field)
        flat = sorted(flatten_offset(off, domain) for off in offsets)
        span = flat[-1] - flat[0]
        if span == 0:
            # Distinct multi-dim offsets can still flatten to the same
            # position only if some extent is degenerate; treat as one tap.
            continue
        by_flat = sorted(offsets,
                         key=lambda off: flatten_offset(off, domain))
        taps = tuple(flatten_offset(off, domain) - flat[0]
                     for off in by_flat)
        buffers[field] = InternalBuffer(
            stencil=stencil.name,
            field=field,
            size=span + width,
            span=span,
            accesses=tuple(by_flat),
            taps=taps,
            vector_width=width,
        )
    if buffers:
        init = max(b.size for b in buffers.values())
        fill_start = {f: init - b.size for f, b in buffers.items()}
    else:
        init = 0
        fill_start = {}

    # Read-ahead per field, in the streamed (full-domain) order: lower-
    # dimensional fields are broadcast over the iteration space when
    # streamed, so their offsets are expanded before flattening.
    readahead: Dict[str, int] = {}
    access_dims = stencil.access_dims
    index_names = program.index_names
    for field, offsets in stencil.accesses.items():
        dims = access_dims[field]
        worst = 0
        for off in offsets:
            by_dim = dict(zip(dims, off))
            full = tuple(by_dim.get(d, 0) for d in index_names)
            worst = max(worst, flatten_offset(full, program.shape))
        readahead[field] = worst

    return StencilBuffering(
        stencil=stencil.name,
        buffers=buffers,
        init_elements=init,
        fill_start=fill_start,
        readahead=readahead,
    )


def program_internal_buffers(
        program: StencilProgram) -> Dict[str, StencilBuffering]:
    """Internal-buffer analysis for every stencil, keyed by name."""
    return {s.name: internal_buffers(program, s) for s in program.stencils}
