"""Edge-case tests for the simulator and reference executor: 1D
programs, integer dtypes, scalar inputs, bandwidth-throttled sources."""

import numpy as np
import pytest

from repro.core import StencilProgram
from repro.run import run_reference
from repro.simulator import SimulatorConfig, simulate
from repro.simulator.oracle import Channel, SourceUnit


class Test1DPrograms:
    def _program(self, code="a[i-1] + a[i+1]"):
        return StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["s"],
            "shape": [32],
            "program": {"s": {"code": code,
                              "boundary_condition": "shrink"}},
        })

    def test_reference(self):
        program = self._program()
        a = np.arange(32, dtype=np.float32)
        result = run_reference(program, {"a": a})["s"]
        assert result.valid == ((1, 31),)
        np.testing.assert_allclose(result.valid_view, a[:-2] + a[2:])

    def test_simulator_matches(self):
        program = self._program()
        a = np.arange(32, dtype=np.float32)
        reference = run_reference(program, {"a": a})["s"]
        result = simulate(program, {"a": a})
        np.testing.assert_allclose(
            result.outputs["s"][reference.valid_slice],
            reference.valid_view)

    def test_1d_vectorized(self):
        program = self._program().with_vectorization(4)
        a = np.arange(32, dtype=np.float32)
        reference = run_reference(self._program(), {"a": a})["s"]
        result = simulate(program, {"a": a})
        np.testing.assert_allclose(
            result.outputs["s"][reference.valid_slice],
            reference.valid_view)


class TestIntegerPrograms:
    def test_int32_arithmetic(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "int32", "dims": ["i", "j"]}},
            "outputs": ["s"],
            "shape": [8, 8],
            "program": {"s": {"code": "a[i,j] * 2 + 1",
                              "boundary_condition": "shrink"}},
        })
        a = np.arange(64, dtype=np.int32).reshape(8, 8)
        reference = run_reference(program, {"a": a})["s"]
        np.testing.assert_array_equal(reference.data, a * 2 + 1)
        result = simulate(program, {"a": a})
        np.testing.assert_array_equal(result.outputs["s"], a * 2 + 1)

    def test_shrink_fill_is_zero_for_ints(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "int32", "dims": ["i"]}},
            "outputs": ["s"],
            "shape": [8],
            "program": {"s": {"code": "a[i-1] + a[i+1]",
                              "boundary_condition": "shrink"}},
        })
        a = np.ones(8, dtype=np.int32)
        reference = run_reference(program, {"a": a})["s"]
        assert reference.data[0] == 0


class TestScalarInputs:
    def test_scalar_through_simulator(self):
        program = StencilProgram.from_json({
            "inputs": {
                "a": {"dtype": "float32", "dims": ["i", "j"]},
                "c": {"dtype": "float32", "dims": []},
            },
            "outputs": ["s"],
            "shape": [4, 4],
            "program": {"s": {"code": "a[i,j] * c",
                              "boundary_condition": "shrink"}},
        })
        a = np.ones((4, 4), dtype=np.float32)
        result = simulate(program, {"a": a, "c": np.float32(2.5)})
        np.testing.assert_allclose(result.outputs["s"], 2.5)


class TestSourceThrottling:
    def test_indivisible_width_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="not divisible"):
            SourceUnit("a", np.arange(10, dtype=np.float32), 4,
                       [Channel("c", 4)])


class TestCopyBoundarySimulated:
    def test_copy_matches_reference(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["s"],
            "shape": [6, 6],
            "program": {"s": {"code": "a[i,j-1] + a[i,j+1]",
                              "boundary_condition": {
                                  "a": {"type": "copy"}}}},
        })
        rng = np.random.default_rng(3)
        a = rng.random((6, 6), dtype=np.float32)
        reference = run_reference(program, {"a": a})["s"]
        result = simulate(program, {"a": a})
        np.testing.assert_allclose(result.outputs["s"], reference.data,
                                   rtol=1e-6)

    def test_constant_matches_reference(self):
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["s"],
            "shape": [6, 6],
            "program": {"s": {"code": "a[i-1,j] + a[i+1,j]",
                              "boundary_condition": {
                                  "a": {"type": "constant",
                                        "value": 7.5}}}},
        })
        rng = np.random.default_rng(3)
        a = rng.random((6, 6), dtype=np.float32)
        reference = run_reference(program, {"a": a})["s"]
        result = simulate(program, {"a": a})
        np.testing.assert_allclose(result.outputs["s"], reference.data,
                                   rtol=1e-6)
