"""Unit tests for the NumPy reference executor."""

import json
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
        from repro.run.reference import _shift
        source = np.arange(20.0).reshape(4, 5)
        shifted, box = _shift(source, (-1, 2))
        assert box == ((1, 4), (0, 3))
        np.testing.assert_array_equal(shifted[1:4, 0:3], source[0:3, 2:5])
        np.testing.assert_array_equal(shifted[0], source[0])
        np.testing.assert_array_equal(shifted[:, 3:], source[:, 3:])
        _whole, empty = _shift(source, (4, 0))     # shifted right out
        assert empty == ((0, 0), (0, 5))
        np.testing.assert_array_equal(_whole, source)


# -- parity with the executor this one replaced -------------------------------

def _parity_programs():
    """The programs whose reference results are pinned, by digest, in
    ``tests/data/reference_digests.json``.  The file was written by
    running this module as a script on the commit *before* the executor
    stopped shifting, masking and filling whole domains, so it is what
    "results bitwise unchanged" is checked against."""
    from repro.programs import build

    def boundary(name, condition, code="a[i-1,j] + a[i,j+2] - a[i,j]",
                 dtype="float32"):
        return name, StencilProgram.from_json({
            "name": name,
            "inputs": {"a": {"dtype": dtype, "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [9, 7],
            "program": {
                "s": {"code": code, "boundary_condition": condition},
                "t": {"code": "s[i+1,j-1] * 0.5 + s[i,j]",
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


def _digests(program):
    import hashlib
    from util import random_inputs
    results = run_reference(program, random_inputs(program))
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


if __name__ == "__main__":   # regenerate: python tests/test_reference.py
    with open(_DIGEST_FILE, "w") as handle:
        json.dump({case: _digests(program)
                   for case, program in _PARITY_CASES.items()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
