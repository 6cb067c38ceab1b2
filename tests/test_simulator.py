"""Unit and integration tests for the cycle-level simulator."""

import numpy as np
import pytest

from repro.analysis import analyze_buffers
from repro.errors import DeadlockError, SimulationError
from repro.run import run_reference
from repro.simulator import SimulatorConfig, compile_stencil, simulate
from repro.simulator.oracle import Channel, NetworkLink
from repro.expr import parse
from util import (
    chain_program,
    diamond_program,
    edge_keys,
    lst1_inputs,
    lst1_program,
    random_inputs,
)


class TestChannel:
    def test_fifo_order(self):
        channel = Channel("c", 4)
        channel.push(1)
        channel.push(2)
        assert channel.pop() == 1
        assert channel.pop() == 2

    def test_full_and_empty(self):
        channel = Channel("c", 2)
        assert channel.empty
        channel.push(1)
        channel.push(2)
        assert channel.full
        with pytest.raises(SimulationError, match="full"):
            channel.push(3)
        channel.pop()
        channel.pop()
        with pytest.raises(SimulationError, match="empty"):
            channel.pop()

    def test_stats(self):
        channel = Channel("c", 4)
        for n in range(3):
            channel.push(n)
        channel.pop()
        assert channel.pushes == 3
        assert channel.pops == 1
        assert channel.max_occupancy == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Channel("c", 0)


class TestNetworkLink:
    def test_latency(self):
        link = NetworkLink("l", 16, latency=5)
        link.step(0)
        link.push("x")
        for now in range(1, 5):
            link.step(now)
            assert link.empty
        link.step(5)
        assert not link.empty
        assert link.pop() == "x"

    def test_rate_limit(self):
        link = NetworkLink("l", 64, latency=0, words_per_cycle=0.5)
        link.step(0)
        for n in range(10):
            link.push(n)
        delivered = 0
        for now in range(1, 9):
            link.step(now)
            while not link.empty:
                link.pop()
                delivered += 1
        # 0.5 words/cycle over 8 cycles -> ~4 words.
        assert 3 <= delivered <= 5

    def test_backpressure_via_capacity(self):
        link = NetworkLink("l", 2, latency=10)
        link.push("a")
        link.push("b")
        assert link.full


class TestCompile:
    def test_simple(self):
        compiled = compile_stencil(parse("a[i] * 2 + b[i]"))
        assert len(compiled.accesses) == 2
        # accesses sorted by (field, offsets): a then b
        assert compiled([3.0, 4.0], (0,)) == 10.0

    def test_ternary(self):
        compiled = compile_stencil(parse("a[i] > 0 ? 1 : 2"))
        assert compiled([5.0], (0,)) == 1
        assert compiled([-5.0], (0,)) == 2

    def test_math(self):
        compiled = compile_stencil(parse("sqrt(a[i])"))
        assert compiled([9.0], (0,)) == 3.0

    def test_duplicate_accesses_deduplicated(self):
        compiled = compile_stencil(parse("a[i] * a[i]"))
        assert len(compiled.accesses) == 1
        assert compiled([3.0], (0,)) == 9.0

    def test_division_by_zero_is_ieee(self):
        compiled = compile_stencil(parse("a[i] / b[i]"))
        assert np.isinf(compiled([1.0, 0.0], (0,)))
        assert np.isnan(compiled([0.0, 0.0], (0,)))

    def test_index_use(self):
        compiled = compile_stencil(parse("a[i,j] * 0 + i * 10 + j"))
        assert compiled([1.0], (3, 4)) == 34


class TestFunctionalEquivalence:
    """Simulator output must match the reference executor exactly."""

    def test_lst1(self):
        program = lst1_program()
        inputs = lst1_inputs()
        reference = run_reference(program, inputs)["b4"]
        result = simulate(program, inputs)
        np.testing.assert_allclose(
            result.outputs["b4"][reference.valid_slice],
            reference.valid_view, rtol=1e-6)

    def test_lst1_vectorized(self):
        program = lst1_program().with_vectorization(4)
        inputs = lst1_inputs()
        reference = run_reference(lst1_program(), inputs)["b4"]
        result = simulate(program, inputs)
        np.testing.assert_allclose(
            result.outputs["b4"][reference.valid_slice],
            reference.valid_view, rtol=1e-6)

    def test_diamond(self):
        program = diamond_program()
        inputs = random_inputs(program)
        reference = run_reference(program, inputs)["join"]
        result = simulate(program, inputs)
        np.testing.assert_allclose(
            result.outputs["join"][reference.valid_slice],
            reference.valid_view, rtol=1e-6)

    def test_chain(self):
        program = chain_program(4)
        inputs = random_inputs(program)
        reference = run_reference(program, inputs)["s3"]
        result = simulate(program, inputs)
        np.testing.assert_allclose(result.outputs["s3"],
                                   reference.data, rtol=1e-6)

    def test_multi_output(self):
        from repro.core import StencilProgram
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["x", "y"],
            "shape": [6, 8],
            "program": {
                "x": {"code": "a[i,j] * 2", "boundary_condition": "shrink"},
                "y": {"code": "x[i,j] + 1", "boundary_condition": "shrink"},
            },
        })
        inputs = random_inputs(program)
        reference = run_reference(program, inputs)
        result = simulate(program, inputs)
        np.testing.assert_allclose(result.outputs["x"],
                                   reference["x"].data, rtol=1e-6)
        np.testing.assert_allclose(result.outputs["y"],
                                   reference["y"].data, rtol=1e-6)


class TestTiming:
    def test_cycles_close_to_model(self):
        program = lst1_program()
        result = simulate(program, lst1_inputs())
        assert result.cycles <= result.expected_cycles
        assert result.cycles >= program.num_cells
        assert result.model_accuracy > 0.8

    def test_continuous_streaming(self):
        result = simulate(lst1_program(), lst1_inputs())
        assert all(result.output_continuous.values())
        assert all(result.stencil_continuous.values())

    def test_vectorization_speedup(self):
        program = lst1_program()
        scalar = simulate(program, lst1_inputs())
        vector = simulate(program.with_vectorization(4), lst1_inputs())
        # Steady state shrinks by ~W; init shrinks too.
        assert vector.cycles < scalar.cycles / 2

    def test_sources_never_throttled_by_default(self):
        result = simulate(chain_program(3), random_inputs(chain_program(3)))
        assert result.cycles > 0


class TestDeadlock:
    def test_starved_channels_deadlock(self):
        program = diamond_program(long_branch=2)
        config = SimulatorConfig(
            channel_capacities={k: 2 for k in edge_keys(program)},
            deadlock_window=64)
        with pytest.raises(DeadlockError) as info:
            simulate(program, random_inputs(program), config)
        assert info.value.cycle > 0
        assert info.value.blocked_units

    def test_computed_buffers_no_deadlock(self):
        program = diamond_program(long_branch=2)
        result = simulate(program, random_inputs(program))
        assert all(result.output_continuous.values())

    def test_multitree_survives_small_channels(self):
        # Chains cannot deadlock even with minimal capacities.
        program = chain_program(3)
        config = SimulatorConfig(
            channel_capacities={k: 1 for k in edge_keys(program)},
            deadlock_window=64)
        result = simulate(program, random_inputs(program), config)
        assert result.cycles > 0

    def test_lst1_deadlocks_without_buffers(self):
        program = lst1_program(shape=(8, 8, 8))
        config = SimulatorConfig(
            channel_capacities={k: 4 for k in edge_keys(program)},
            deadlock_window=64)
        with pytest.raises(DeadlockError):
            simulate(program, lst1_inputs(), config)


class TestDistributed:
    def test_two_device_functional(self):
        program = lst1_program()
        inputs = lst1_inputs()
        reference = run_reference(program, inputs)["b4"]
        result = simulate(program, inputs, device_of={
            "b0": 0, "b1": 0, "b2": 0, "b3": 1, "b4": 1})
        np.testing.assert_allclose(
            result.outputs["b4"][reference.valid_slice],
            reference.valid_view, rtol=1e-6)

    def test_network_latency_costs_cycles(self):
        program = chain_program(4)
        inputs = random_inputs(program)
        local = simulate(program, inputs)
        remote = simulate(program, inputs,
                          device_of={"s0": 0, "s1": 0, "s2": 1, "s3": 1})
        assert remote.cycles > local.cycles

    def test_rate_limited_link_slows_stream(self):
        program = chain_program(2, shape=(4, 4, 8))
        inputs = random_inputs(program)
        slow = SimulatorConfig(network_words_per_cycle=0.25)
        fast = simulate(program, inputs, device_of={"s0": 0, "s1": 1})
        throttled = simulate(program, inputs, slow,
                             device_of={"s0": 0, "s1": 1})
        assert throttled.cycles > fast.cycles
