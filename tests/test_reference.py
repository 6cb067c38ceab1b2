"""Unit tests for the NumPy reference executor."""

import json
import math
import os

import numpy as np
import pytest

from repro.core import StencilProgram
from repro.errors import ValidationError
from repro.run import run_reference
from util import lst1_inputs, lst1_program


def _program(code, boundary="shrink", shape=(6, 6), dims=("i", "j")):
    return StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float32", "dims": list(dims)}},
        "outputs": ["s"],
        "shape": list(shape),
        "program": {"s": {"code": code, "boundary_condition": boundary}},
    })


class TestBoundaries:
    def test_constant_boundary(self):
        program = _program("a[i,j-1] + a[i,j+1]",
                           {"a": {"type": "constant", "value": 10.0}})
        a = np.ones((6, 6), dtype=np.float32)
        result = run_reference(program, {"a": a})["s"]
        assert result.is_fully_valid
        # Interior: 1 + 1; edges: 10 + 1.
        assert result.data[0, 0] == pytest.approx(11.0)
        assert result.data[0, 3] == pytest.approx(2.0)

    def test_copy_boundary(self):
        program = _program("a[i,j-1] + a[i,j+1]", {"a": {"type": "copy"}})
        a = np.arange(36, dtype=np.float32).reshape(6, 6)
        result = run_reference(program, {"a": a})["s"]
        # At j=0 the left neighbour is replaced by the center.
        assert result.data[2, 0] == pytest.approx(a[2, 0] + a[2, 1])

    def test_shrink_marks_invalid(self):
        program = _program("a[i,j-1] + a[i,j+1]")
        a = np.ones((6, 6), dtype=np.float32)
        result = run_reference(program, {"a": a})["s"]
        assert result.valid == ((0, 6), (1, 5))
        assert np.isnan(result.data[:, 0]).all()
        assert np.isnan(result.data[:, 5]).all()
        assert np.all(result.valid_view == 2.0)

    def test_shrink_propagates(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [6, 6],
            "program": {
                "s": {"code": "a[i,j-1] + a[i,j+1]",
                      "boundary_condition": "shrink"},
                "t": {"code": "s[i,j-1] + s[i,j+1]",
                      "boundary_condition": "shrink"},
            },
        })
        a = np.ones((6, 6), dtype=np.float32)
        result = run_reference(program, {"a": a})["t"]
        assert result.valid == ((0, 6), (2, 4))
        assert np.all(result.valid_view == 4.0)

    def test_constant_after_shrink_does_not_revalidate(self):
        # A constant-boundary consumer of a shrunk producer still reads
        # the producer's invalid boundary cells; they stay invalid.
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [6, 6],
            "program": {
                "s": {"code": "a[i,j-1] + a[i,j+1]",
                      "boundary_condition": "shrink"},
                "t": {"code": "s[i,j-1] + s[i,j+1]",
                      "boundary_condition": {
                          "s": {"type": "constant", "value": 0}}},
            },
        })
        a = np.ones((6, 6), dtype=np.float32)
        result = run_reference(program, {"a": a})["t"]
        assert result.valid == ((0, 6), (2, 4))


class TestSemantics:
    def test_lst1_manual_check(self):
        program = lst1_program()
        inputs = lst1_inputs()
        results = run_reference(program, inputs)
        b0 = inputs["a0"] + inputs["a1"]
        b1 = 0.5 * (b0 + inputs["a2"][:, None, :])
        b2 = 0.5 * (b0 - inputs["a2"][:, None, :])
        b3 = b1[:-2] + b1[2:]
        expected = b2[1:7] + b3
        np.testing.assert_allclose(results["b4"].valid_view, expected,
                                   rtol=1e-6)

    def test_lower_dim_broadcast(self):
        program = StencilProgram.from_json({
            "inputs": {
                "a": {"dtype": "float32", "dims": ["i", "j"]},
                "row": {"dtype": "float32", "dims": ["j"]},
            },
            "outputs": ["s"],
            "shape": [4, 5],
            "program": {"s": {"code": "a[i,j] + row[j]",
                              "boundary_condition": "shrink"}},
        })
        a = np.zeros((4, 5), dtype=np.float32)
        row = np.arange(5, dtype=np.float32)
        result = run_reference(program, {"a": a, "row": row})["s"]
        np.testing.assert_allclose(result.data, np.tile(row, (4, 1)))

    def test_scalar_input(self):
        program = StencilProgram.from_json({
            "inputs": {
                "a": {"dtype": "float32", "dims": ["i"]},
                "c": {"dtype": "float32", "dims": []},
            },
            "outputs": ["s"],
            "shape": [8],
            "program": {"s": {"code": "a[i] * c",
                              "boundary_condition": "shrink"}},
        })
        a = np.ones(8, dtype=np.float32)
        result = run_reference(program, {"a": a, "c": 3.0})["s"]
        np.testing.assert_allclose(result.data, 3.0)

    def test_data_dependent_branch(self):
        program = _program("a[i,j] > 0 ? a[i,j] : -a[i,j]")
        a = np.array([[-1.0, 2.0], [3.0, -4.0]], dtype=np.float32)
        result = run_reference(
            _program("a[i,j] > 0 ? a[i,j] : -a[i,j]", shape=(2, 2)),
            {"a": a})["s"]
        np.testing.assert_allclose(result.data, np.abs(a))

    def test_output_dtype(self):
        program = lst1_program()
        results = run_reference(program, lst1_inputs())
        assert results["b4"].data.dtype == np.float32

    def test_all_intermediates_returned(self):
        results = run_reference(lst1_program(), lst1_inputs())
        assert set(results) == {"b0", "b1", "b2", "b3", "b4"}


class TestInputValidation:
    def test_missing_input(self):
        with pytest.raises(ValidationError, match="missing input"):
            run_reference(lst1_program(), {})

    def test_wrong_shape(self):
        inputs = lst1_inputs()
        inputs["a2"] = np.ones((3, 3), dtype=np.float32)
        with pytest.raises(ValidationError, match="expected shape"):
            run_reference(lst1_program(), inputs)


class TestMarginSlabs:
    DOMAIN = (5, 4, 6)

    @pytest.mark.parametrize("box", [
        ((1, 4), (1, 3), (2, 5)),      # touches no face
        ((0, 4), (1, 3), (2, 5)),      # one face
        ((0, 5), (0, 4), (0, 6)),      # all faces: no margin
        ((2, 2), (1, 3), (0, 6)),      # empty on the first axis
        ((1, 4), (1, 3), (6, 6)),      # empty on the last axis
    ])
    def test_disjoint_and_cover_the_complement(self, box):
        from repro.run.reference import _margin_slabs
        hits = np.zeros(self.DOMAIN, dtype=int)
        slabs = list(_margin_slabs(self.DOMAIN, box))
        for slab in slabs:
            hits[slab] += 1
        expected = np.ones(self.DOMAIN, dtype=int)
        expected[tuple(slice(lo, hi) for lo, hi in box)] = 0
        np.testing.assert_array_equal(hits, expected)
        assert all(hits[slab].size for slab in slabs)   # none is empty

    def test_shift_leaves_the_center_value_in_the_margin(self):
        from repro.core.boundary import CopyBoundary
        from repro.run.reference import _shifted_block
        source = np.arange(20.0).reshape(4, 5)
        whole = ((0, 4), (0, 5))
        shifted = _shifted_block(source, whole, (-1, 2), CopyBoundary())
        np.testing.assert_array_equal(shifted[1:4, 0:3], source[0:3, 2:5])
        np.testing.assert_array_equal(shifted[0], source[0])
        np.testing.assert_array_equal(shifted[:, 3:], source[:, 3:])
        out = _shifted_block(source, whole, (4, 0), CopyBoundary())
        np.testing.assert_array_equal(out, source)   # shifted right out
        # One block (rows 2-3, columns 1-4) of the same shift.
        block = _shifted_block(source, ((2, 4), (1, 5)), (-1, 2),
                               CopyBoundary())
        np.testing.assert_array_equal(block[:, :2], source[1:3, 3:5])
        np.testing.assert_array_equal(block[:, 2:], source[2:4, 3:5])
        # A block none of whose reads leaves the domain is a view.
        inside = _shifted_block(source, ((1, 4), (0, 3)), (-1, 2),
                                CopyBoundary())
        np.testing.assert_array_equal(inside, source[0:3, 2:5])
        assert np.shares_memory(inside, source)

    def test_constant_block_is_promoted_whether_or_not_it_leaves(self):
        from repro.core.boundary import ConstantBoundary
        from repro.run.reference import _shifted_block
        source = np.arange(20, dtype=np.int32).reshape(4, 5)
        condition = ConstantBoundary(2.5)
        leaving = _shifted_block(source, ((0, 2), (0, 5)), (-1, 0),
                                 condition)
        assert leaving.dtype == np.float64
        np.testing.assert_array_equal(leaving[0], 2.5)
        np.testing.assert_array_equal(leaving[1], source[0])
        inside = _shifted_block(source, ((1, 4), (0, 5)), (-1, 0),
                                condition)
        assert inside.dtype == np.float64
        np.testing.assert_array_equal(inside, source[0:3])


# -- parity with the executor this one replaced -------------------------------

def _parity_programs():
    """The programs whose reference results are pinned, by digest, in
    ``tests/data/reference_digests.json``.  The first eight entries were
    written by running this module as a script on the commit *before*
    the executor stopped shifting, masking and filling whole domains;
    the rest on the commit before it started evaluating blockwise
    through views.  So the file is what "results bitwise unchanged" is
    checked against."""
    from repro.programs import build

    def boundary(name, condition, code="a[i-1,j] + a[i,j+2] - a[i,j]",
                 dtype="float32", shape=(9, 7)):
        return name, StencilProgram.from_json({
            "name": name,
            "inputs": {"a": {"dtype": dtype, "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": list(shape),
            "program": {
                "s": {"code": code, "boundary_condition": condition},
                "t": {"code": "s[i+1,j-1] * 0.5 + s[i,j]",
                      "boundary_condition": "shrink"},
            },
        })

    def transcendental(dtype):
        # Strided, broadcast (q: stride 0 on the inner axis) and scalar
        # operands, over a box that is two blocks at the default size.
        return f"transcendental_{dtype}", StencilProgram.from_json({
            "inputs": {"a": {"dtype": dtype, "dims": ["i", "j"]},
                       "q": {"dtype": dtype, "dims": ["i"]},
                       "r": {"dtype": dtype, "dims": ["j"]},
                       "c": {"dtype": dtype, "dims": []}},
            "outputs": ["t"],
            "shape": [300, 230],
            "program": {
                "s": {"code": "exp(a[i,j+1]) + log(a[i-1,j] + 0.5)"
                              " * sin(a[i,j-1] * 3.0 + c)"
                              " - pow(a[i+1,j], 1.7) + tanh(q[i-1] - r[j+1])",
                      "boundary_condition": "shrink"},
                "t": {"code": "tanh(s[i,j+1] - s[i,j]) + exp(q[i])"
                              " * sin(r[j]) + log(s[i+1,j] * s[i,j] + 9.0)",
                      "boundary_condition": "shrink"},
            },
        })

    yield "hdiff_24x24x16", build("horizontal_diffusion",
                                  shape=(24, 24, 16))
    yield "hdiff_64x64x32", build("horizontal_diffusion",
                                  shape=(64, 64, 32))
    yield "laplace2d", build("laplace2d")
    yield "jacobi3d", build("jacobi3d", shape=(20, 12, 16))
    yield boundary("constant", {"a": {"type": "constant", "value": 2.5}})
    yield boundary("constant_on_int",
                   {"a": {"type": "constant", "value": 2.5}}, dtype="int32")
    yield boundary("copy", {"a": {"type": "copy"}})
    yield boundary("index_reading", "shrink",
                   code="a[i,j-1] * i + (j > 2 ? a[i+1,j] : j)")
    yield transcendental("float32")
    yield transcendental("float64")
    outer = "a[i-2,j] + a[i+3,j-1] * a[i,j]"
    yield boundary("constant_outer",
                   {"a": {"type": "constant", "value": -1.5}}, code=outer)
    yield boundary("copy_outer", {"a": {"type": "copy"}}, code=outer)
    # 99 valid planes in blocks of 50: a partial last block.
    yield "jacobi3d_outer_101", build("jacobi3d", shape=(101, 40, 36))
    yield boundary("index_reading_blocks", "shrink",
                   code="a[i,j-1] * i + (j > 2 ? a[i+1,j] : j)",
                   shape=(400, 300))


def _digests(program, keep=None):
    import hashlib
    from util import random_inputs
    results = run_reference(program, random_inputs(program), keep=keep)
    return {name: {"sha256": hashlib.sha256(
                       np.ascontiguousarray(result.data).tobytes()
                   ).hexdigest(),
                   "dtype": str(result.data.dtype),
                   "valid": [list(bounds) for bounds in result.valid]}
            for name, result in results.items()}


_DIGEST_FILE = os.path.join(os.path.dirname(__file__), "data",
                            "reference_digests.json")


_PARITY_CASES = dict(_parity_programs())


@pytest.mark.parametrize("case", _PARITY_CASES)
def test_reference_matches_pinned_digests(case):
    with open(_DIGEST_FILE) as handle:
        pinned = json.load(handle)
    assert _digests(_PARITY_CASES[case]) == pinned[case]


@pytest.mark.parametrize("planes", [1, 3])
@pytest.mark.parametrize("case", _PARITY_CASES)
def test_reference_matches_pinned_digests_in_small_blocks(case, planes,
                                                          monkeypatch):
    """The same digests with every stencil cut into many blocks: of one
    plane each, or of three or more with a partial last one somewhere."""
    from repro.run import reference
    program = _PARITY_CASES[case]
    plane = math.prod(program.shape[1:])
    monkeypatch.setattr(reference, "_BLOCK_CELLS",
                        1 if planes == 1 else planes * plane + 1)
    spans = []
    blocks = reference._blocks
    monkeypatch.setattr(reference, "_blocks",
                        lambda box: spans.append(list(blocks(box)))
                        or spans[-1])
    test_reference_matches_pinned_digests(case)
    assert all(len(span) > 1 for span in spans if span)

    def planes_of(box):
        return box[0][1] - box[0][0]

    if planes > 1:
        assert any(planes_of(span[-1]) < planes_of(span[0]) >= planes
                   for span in spans if span)


# -- keep: evaluate what is checked, free what is read for the last time ----

@pytest.mark.parametrize("case", _PARITY_CASES)
def test_keeping_the_outputs_changes_no_result(case):
    """Only the outputs come back, each bitwise the keep-everything
    result and its pinned digest, though the fields between them were
    freed on the way."""
    from util import random_inputs
    program = _PARITY_CASES[case]
    inputs = random_inputs(program)
    everything = run_reference(program, inputs)
    kept = run_reference(program, inputs, keep=program.outputs)
    assert list(kept) == list(program.outputs)
    for name, result in kept.items():
        assert result.data.tobytes() == everything[name].data.tobytes()
        assert result.data.dtype == everything[name].data.dtype
        assert result.valid == everything[name].valid
    with open(_DIGEST_FILE) as handle:
        pinned = json.load(handle)[case]
    assert _digests(program, keep=program.outputs) == \
        {name: pinned[name] for name in program.outputs}


class TestKeep:
    @staticmethod
    def _read_output():
        """``s`` is an output that ``t``, the other output, also reads."""
        return StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["s", "t"],
            "shape": [7, 6],
            "program": {
                "r": {"code": "a[i,j+1] * 2.0", "boundary_condition":
                      "shrink"},
                "s": {"code": "r[i,j] + a[i-1,j]", "boundary_condition":
                      "shrink"},
                "t": {"code": "s[i+1,j] - r[i,j-1]", "boundary_condition":
                      "shrink"},
            },
        })

    @pytest.mark.parametrize("keep", [("s", "t"), ("t", "s"), ("s",)])
    def test_an_output_another_stencil_reads_is_kept(self, keep):
        from util import random_inputs
        program = self._read_output()
        inputs = random_inputs(program)
        everything = run_reference(program, inputs)
        kept = run_reference(program, inputs, keep=keep)
        assert list(kept) == list(keep)
        for name, result in kept.items():
            np.testing.assert_array_equal(result.data,
                                          everything[name].data)
            assert result.valid == everything[name].valid

    def test_only_what_the_kept_fields_read_is_evaluated(self, monkeypatch):
        from repro.run import reference
        evaluated = []
        execute = reference._Executor.execute
        monkeypatch.setattr(reference._Executor, "execute",
                            lambda self, stencil: evaluated.append(
                                stencil.name) or execute(self, stencil))
        run_reference(lst1_program(), lst1_inputs(), keep=("b1",))
        assert evaluated == ["b0", "b1"]

    def test_post_order_is_depth_first_from_the_outputs(self):
        from repro.programs import build
        from repro.run.reference import _post_order
        program = build("horizontal_diffusion", shape=(8, 8, 4))
        order = _post_order(program, program.outputs)
        assert order[:9] == ["lap_u", "flx_u", "fly_u", "s_uv", "t_s",
                             "smag_u", "raw_u", "u_out", "lap_v"]
        assert sorted(order) == sorted(program.stencil_names)

    def test_a_long_chain_does_not_recurse(self):
        from repro.run.reference import _post_order
        depth = 3000   # well past the default recursion limit
        chain = {"s0": "a[i] + 1.0"}
        chain.update({f"s{n}": f"s{n - 1}[i] + 1.0"
                      for n in range(1, depth)})
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": [f"s{depth - 1}"],
            "shape": [4],
            "program": {name: {"code": code, "boundary_condition": "shrink"}
                        for name, code in chain.items()},
        })
        assert _post_order(program, program.outputs) == list(chain)

    @pytest.mark.parametrize("name", ["nope", "a0"])
    def test_only_stencils_can_be_kept(self, name):
        with pytest.raises(ValidationError, match=f"cannot keep '{name}'"):
            run_reference(lst1_program(), lst1_inputs(), keep=("b4", name))

    def test_peak_memory_is_the_live_set(self):
        """hdiff 64x64x32 keeps at most 7 of its 24 fields live when
        only its outputs are kept, so the traced peak stays under 8
        fields plus the expression evaluator's block temporaries; the
        keep-everything path holds all 24."""
        import tracemalloc
        from repro.programs import build
        from repro.run import reference
        from util import random_inputs
        program = build("horizontal_diffusion", shape=(64, 64, 32))
        inputs = random_inputs(program)
        field = math.prod(program.shape) * 4
        temporaries = 4 * reference._BLOCK_CELLS * 4
        tracemalloc.start()
        try:
            run_reference(program, inputs, keep=program.outputs)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            run_reference(program, inputs)
            everything = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * field + temporaries
        assert everything > 24 * field


if __name__ == "__main__":   # regenerate: python tests/test_reference.py
    with open(_DIGEST_FILE, "w") as handle:
        json.dump({case: _digests(program)
                   for case, program in _PARITY_CASES.items()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
