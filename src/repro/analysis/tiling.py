"""Spatial tiling (Sec. IX-D).

When the domain grows, internal and delay buffers — proportional to
(D-1)-dimensional slices — eventually exceed on-chip memory. Spatial
tiling splits the domain into tiles processed independently, at the
cost of *redundant computation* at tile boundaries: each stencil level
of the DAG widens the halo by its access extent, so the overhead is
proportional to the DAG depth and the tile's surface-to-volume ratio.

This module plans tilings: it computes the halo required by a program's
dependency structure, the redundancy factor of a candidate tile shape,
the resulting on-chip memory footprint, and picks the cheapest tile
that fits a memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.program import StencilProgram
from ..errors import AnalysisError
from ..graph.dag import StencilGraph


def accumulated_halo(program: StencilProgram) -> Dict[str, int]:
    """Halo each *non-innermost* dimension needs at the program inputs.

    Propagates access extents through the DAG: a chain of two stencils
    each reading j±1 needs a halo of 2 in j. The innermost dimension is
    streamed, not tiled, so it is excluded.
    """
    graph = StencilGraph(program)
    # halo[data][dim] = cells of `data` needed beyond a tile of the
    # final outputs.
    names = program.index_names
    halo: Dict[str, Dict[str, int]] = {
        s.name: {d: 0 for d in names} for s in program.stencils}
    for name in program.inputs:
        halo[name] = {d: 0 for d in names}
    order = graph.stencil_topological_order()
    for stencil_name in reversed(order):
        stencil = program.stencil(stencil_name)
        own = halo[stencil_name]
        for field, offsets in stencil.accesses.items():
            dims = stencil.access_dims[field]
            for off in offsets:
                by_dim = dict(zip(dims, off))
                for d in names:
                    reach = abs(by_dim.get(d, 0)) + own[d]
                    if halo[field][d] < reach:
                        halo[field][d] = reach
    worst = {d: 0 for d in names[:-1]}
    for name in program.inputs:
        for d in worst:
            worst[d] = max(worst[d], halo[name][d])
    return worst


@dataclass(frozen=True)
class TilingPlan:
    """One candidate spatial tiling.

    Attributes:
        program: the tiled program.
        tile: tile extents over the non-innermost dims (innermost is
            streamed whole).
        halo: per-dimension one-sided halo from the DAG structure.
        num_tiles: tiles needed to cover the domain.
    """

    program: StencilProgram
    tile: Tuple[int, ...]
    halo: Tuple[int, ...]
    num_tiles: int

    @property
    def tile_cells(self) -> int:
        """Useful cells per tile (including the streamed dimension)."""
        cells = 1
        for extent in self.tile:
            cells *= extent
        return cells * self.program.shape[-1]

    @property
    def padded_cells(self) -> int:
        """Computed cells per tile, halo included."""
        cells = 1
        for extent, halo in zip(self.tile, self.halo):
            cells *= extent + 2 * halo
        return cells * self.program.shape[-1]

    @property
    def redundancy(self) -> float:
        """Computed / useful cells (1.0 = no redundant work)."""
        return self.padded_cells / self.tile_cells

    @property
    def total_computed_cells(self) -> int:
        return self.padded_cells * self.num_tiles

    def buffer_bytes(self) -> int:
        """On-chip buffer footprint of one tile's dataflow design.

        Buffers scale with (D-1)-dimensional slices, so shrinking the
        tiled dimensions shrinks them proportionally.
        """
        padded = tuple(t + 2 * h for t, h in zip(self.tile, self.halo))
        shape = padded + (self.program.shape[-1],)
        tiled = _with_shape(self.program, shape)
        # Deferred: repro.lowering imports repro.analysis modules.
        from ..lowering import analysis_for
        return analysis_for(tiled).fast_memory_bytes()


def _with_shape(program: StencilProgram,
                shape: Tuple[int, ...]) -> StencilProgram:
    from dataclasses import replace
    width = program.vectorization
    if shape[-1] % width != 0:
        width = 1
    return replace(program, shape=tuple(shape), vectorization=width)


def plan_tiling(program: StencilProgram,
                tile: Tuple[int, ...]) -> TilingPlan:
    """Plan a tiling with the given tile extents (non-innermost dims)."""
    names = program.index_names
    if len(tile) != len(names) - 1:
        raise AnalysisError(
            f"tile must cover the {len(names) - 1} non-innermost "
            f"dimensions, got {len(tile)}")
    halo_map = accumulated_halo(program)
    halo = tuple(halo_map[d] for d in names[:-1])
    num_tiles = 1
    for extent, t in zip(program.shape[:-1], tile):
        if t <= 0:
            raise AnalysisError(f"non-positive tile extent {t}")
        num_tiles *= -(-extent // t)
    return TilingPlan(program=program, tile=tuple(tile), halo=halo,
                      num_tiles=num_tiles)


def choose_tiling(program: StencilProgram,
                  memory_budget_bytes: int,
                  min_tile: int = 8) -> TilingPlan:
    """Smallest-redundancy tiling whose buffers fit the budget.

    Halves the tiled dimensions (starting from the full domain) until
    the dataflow design's buffers fit; raises :class:`AnalysisError`
    when even the minimum tile exceeds the budget.
    """
    names = program.index_names
    tile = list(program.shape[:-1])
    while True:
        plan = plan_tiling(program, tuple(tile))
        if plan.buffer_bytes() <= memory_budget_bytes:
            return plan
        # Shrink the largest tiled dimension first.
        largest = max(range(len(tile)), key=lambda n: tile[n])
        if tile[largest] // 2 < min_tile:
            raise AnalysisError(
                f"no tiling >= {min_tile} fits a budget of "
                f"{memory_budget_bytes} bytes")
        tile[largest] //= 2
