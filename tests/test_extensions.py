"""Tests for the extension features: spatial tiling and CSE analysis."""

import pytest

from repro.analysis import (
    accumulated_halo,
    analyze_buffers,
    choose_tiling,
    plan_tiling,
)
from repro.errors import AnalysisError
from repro.expr import (
    census,
    census_after_cse,
    cse_savings,
    parse,
    shared_subexpressions,
)
from repro.programs import chain, horizontal_diffusion


class TestTiling:
    def test_halo_grows_with_depth(self):
        shallow = accumulated_halo(chain(1, shape=(32, 32, 32)))
        deep = accumulated_halo(chain(4, shape=(32, 32, 32)))
        assert deep["i"] > shallow["i"]
        # Jacobi reads ±1 per dim per level.
        assert deep["i"] == 4
        assert shallow["i"] == 1

    def test_hdiff_halo(self):
        # lap (±1) -> flux (+1) -> divergence (-1): depth-3 reach.
        halo = accumulated_halo(horizontal_diffusion(shape=(32, 32, 8)))
        assert halo == {"i": 3, "j": 3}

    def test_redundancy_grows_as_tiles_shrink(self):
        program = chain(3, shape=(64, 64, 16))
        big = plan_tiling(program, (64, 64))
        small = plan_tiling(program, (16, 16))
        assert big.redundancy < small.redundancy
        assert big.num_tiles == 1
        assert small.num_tiles == 16

    def test_full_domain_tile_still_padded(self):
        # Even the full domain counts halo at its edges in this model
        # (boundary tiles compute their halo region redundantly).
        program = chain(2, shape=(32, 32, 16))
        plan = plan_tiling(program, (32, 32))
        assert plan.redundancy > 1.0

    def test_buffer_bytes_shrink_with_tiles(self):
        program = chain(3, shape=(64, 64, 16))
        big = plan_tiling(program, (64, 64))
        small = plan_tiling(program, (16, 16))
        assert small.buffer_bytes() < big.buffer_bytes()

    def test_choose_tiling_respects_budget(self):
        program = chain(3, shape=(64, 64, 16))
        budget = plan_tiling(program, (64, 64)).buffer_bytes() // 2
        plan = choose_tiling(program, budget)
        assert plan.buffer_bytes() <= budget
        assert plan.tile < (64, 64)

    def test_choose_tiling_impossible_budget(self):
        program = chain(3, shape=(64, 64, 16))
        with pytest.raises(AnalysisError, match="no tiling"):
            choose_tiling(program, 16)

    def test_wrong_tile_rank(self):
        program = chain(2, shape=(32, 32, 16))
        with pytest.raises(AnalysisError, match="non-innermost"):
            plan_tiling(program, (32,))

    def test_total_computed_cells(self):
        program = chain(2, shape=(32, 32, 16))
        plan = plan_tiling(program, (16, 16))
        assert plan.total_computed_cells == \
            plan.padded_cells * plan.num_tiles


class TestCSE:
    def test_shared_subexpressions_found(self):
        node = parse("(a[i]+b[i]) * (a[i]+b[i])")
        shared = shared_subexpressions(node)
        assert len(shared) == 1
        assert list(shared.values()) == [2]

    def test_census_after_cse_counts_once(self):
        node = parse("(a[i]+b[i]) * (a[i]+b[i])")
        assert census(node).adds == 2
        assert census_after_cse(node).adds == 1
        assert cse_savings(node) == 1

    def test_no_sharing_no_savings(self):
        node = parse("a[i]*b[i] + a[i-1]*b[i-1]")
        assert cse_savings(node) == 0

    def test_fusion_duplicates_recovered_by_cse(self):
        # Fusing a producer read 3 times (the hdiff clamp pattern)
        # triples its syntactic ops; CSE prices them once.
        from repro.core import StencilProgram
        from repro.transforms import fuse
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["t"],
            "shape": [16],
            "program": {
                "s": {"code": "a[i] * 2.0 + 1.0",
                      "boundary_condition": "shrink"},
                "t": {"code": "s[i] > 4.0 ? 4.0 : (s[i] < 0.0 ? "
                              "0.0 : s[i])",
                      "boundary_condition": "shrink"},
            },
        })
        fused = fuse(program, "s", "t")
        ast = fused.stencil("t").ast
        assert census(ast).multiplies == 3          # syntactic
        assert census_after_cse(ast).multiplies == 1  # hardware

    def test_ternary_branch_counted(self):
        node = parse("a[i] > 0 ? a[i] : 1")
        counts = census_after_cse(node)
        assert counts.branches == 1
        assert counts.data_dependent_branches == 1
