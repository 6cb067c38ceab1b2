"""Unit tests for the transformations: fusion, shift and
canonicalization."""

import numpy as np
import pytest

from repro.analysis import analyze_buffers
from repro.core import StencilProgram
from repro.errors import TransformationError
from repro.expr import parse
from repro.programs import horizontal_diffusion
from repro.run import run_reference
from repro.transforms import (
    aggressive_fusion,
    can_fuse,
    canonicalize,
    fold_program,
    fuse,
    fusion_candidates,
    shift_expr,
    substitute_field,
)
from util import lst1_program, random_inputs


def _two_stage(code_s, code_t, shape=(8, 8)):
    return StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
        "outputs": ["t"],
        "shape": list(shape),
        "program": {
            "s": {"code": code_s, "boundary_condition": "shrink"},
            "t": {"code": code_t, "boundary_condition": "shrink"},
        },
    })


def _valid_overlap(a, b):
    return tuple(slice(max(lo1, lo2), min(hi1, hi2))
                 for (lo1, hi1), (lo2, hi2) in zip(a.valid, b.valid))


class TestShift:
    def test_shift_offsets(self):
        node = shift_expr(parse("a[i-1,j,k] + b[i,k]"), {"i": 2})
        assert str(node) == "(a[i+1, j, k] + b[i+2, k])"

    def test_shift_missing_dim_noop(self):
        node = shift_expr(parse("b[i,k]"), {"j": 5})
        assert str(node) == "b[i, k]"

    def test_substitute_inlines_shifted(self):
        target = parse("2.0 * p[i-1,j]")
        replacement = parse("a[i,j] + a[i,j+1]")
        result = substitute_field(target, "p", replacement, {})
        assert str(result) == "(2.0 * (a[i-1, j] + a[i-1, j+1]))"


class TestFusionHeuristics:
    def test_single_consumer_center_read_fusable(self):
        program = _two_stage("a[i,j-1] + a[i,j+1]", "2.0*s[i,j]")
        ok, _ = can_fuse(program, "s", "t")
        assert ok

    def test_output_not_fusable(self):
        program = lst1_program()
        ok, reason = can_fuse(program, "b4", "b4")
        assert not ok

    def test_multi_consumer_rejected(self):
        program = lst1_program()
        ok, reason = can_fuse(program, "b0", "b1")
        assert not ok
        assert "one consumer" in reason

    def test_multi_offset_rejected(self):
        program = _two_stage("a[i,j] * 2.0", "s[i,j-1] + s[i,j+1]")
        ok, reason = can_fuse(program, "s", "t")
        assert not ok
        assert "offsets" in reason

    def test_mismatched_boundaries_rejected(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [8, 8],
            "program": {
                "s": {"code": "a[i,j-1] + a[i,j+1]",
                      "boundary_condition": {
                          "a": {"type": "constant", "value": 0}}},
                "t": {"code": "2.0*s[i,j]",
                      "boundary_condition": "shrink"},
            },
        })
        ok, reason = can_fuse(program, "s", "t")
        assert not ok

    def test_fusion_candidates_lst1(self):
        # b1 feeds only b3 but at offsets i±1 -> rejected; b3 feeds only
        # b4 at the center -> accepted.
        candidates = fusion_candidates(lst1_program())
        assert ("b3", "b4") in candidates
        assert ("b1", "b3") not in candidates


class TestFusionSemantics:
    def test_semantics_preserved(self):
        program = _two_stage("a[i,j-1] + a[i,j+1]", "2.0*s[i-1,j]")
        inputs = random_inputs(program)
        before = run_reference(program, inputs)["t"]
        fused = fuse(program, "s", "t")
        after = run_reference(fused, inputs)["t"]
        window = _valid_overlap(before, after)
        np.testing.assert_allclose(before.data[window],
                                   after.data[window], rtol=1e-5)

    def test_reduces_stencil_count(self):
        program = _two_stage("a[i,j] + 1.0", "2.0*s[i,j]")
        assert len(fuse(program, "s", "t").stencils) == 1

    def test_unfusable_raises(self):
        program = _two_stage("a[i,j] * 2.0", "s[i,j-1] + s[i,j+1]")
        with pytest.raises(TransformationError):
            fuse(program, "s", "t")

    def test_aggressive_fusion_hdiff(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        fused = aggressive_fusion(program)
        assert len(fused.stencils) < len(program.stencils)
        assert fusion_candidates(fused) == []
        inputs = random_inputs(program, seed=4)
        for name in inputs:
            inputs[name] = inputs[name].astype(np.float32) * 0.1 + 1.0
        before = run_reference(program, inputs)["u_out"]
        after = run_reference(fused, inputs)["u_out"]
        window = _valid_overlap(before, after)
        np.testing.assert_allclose(before.data[window],
                                   after.data[window], rtol=1e-4)

    def test_chain_fusion_reduces_latency(self):
        # Fusing center-read chained stencils merges init phases.
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [16, 16],
            "program": {
                "s": {"code": "a[i-1,j] + a[i+1,j]",
                      "boundary_condition": "shrink"},
                "t": {"code": "s[i,j] * 0.5",
                      "boundary_condition": "shrink"},
            },
        })
        fused = aggressive_fusion(program)
        assert analyze_buffers(fused).pipeline_latency <= \
            analyze_buffers(program).pipeline_latency


class TestCanonicalize:
    def test_fold_program(self):
        program = _two_stage("a[i,j] * (2.0 - 1.0) + 0.0",
                             "s[i,j] + (3 - 3)")
        folded = fold_program(program)
        assert folded.stencil("s").code == "a[i, j]"

    def test_canonicalize_folds_and_fuses(self):
        program = _two_stage("a[i,j] + 0.0", "s[i,j] * 1.0")
        canonical = canonicalize(program)
        assert len(canonical.stencils) == 1
