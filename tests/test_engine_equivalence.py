"""Scalar vs batched engine equivalence.

The batched engine's contract is *identical observable machine state at
every stall point*: bitwise-equal outputs, and exactly equal cycle
counts, stall counters, steady-state stall counters, channel occupancy
high-water marks, and streaming-continuity flags.  This suite enforces
the contract across the program catalog, boundary conditions,
vectorization widths, multi-device placements, and failure modes
(deadlock, cycle-cap overrun).
"""

import numpy as np
import pytest
from hypothesis import given

from repro.core import StencilProgram
from repro.errors import DeadlockError, SimulationError, ValidationError
from repro.programs import build, horizontal_diffusion
from repro.simulator import (
    BatchedSimulator,
    SimulatorConfig,
    resolve_engine_mode,
    simulate,
)
from repro.simulator.engine import make_simulator
from test_properties import random_dag_program as _random_program
from test_properties import random_machines
from util import (
    chain_program,
    diamond_program,
    edge_keys,
    lst1_inputs,
    lst1_program,
    random_inputs,
)

#: SimulationResult fields that must match *exactly* between engines.
_EXACT_FIELDS = (
    "cycles",
    "expected_cycles",
    "stall_cycles",
    "steady_stall_cycles",
    "channel_occupancy",
    "output_continuous",
    "stencil_continuous",
    "fault_report",
)


def assert_equivalent(program, inputs, device_of=None, **config_kwargs):
    scalar = simulate(program, inputs,
                      SimulatorConfig(engine_mode="scalar",
                                      **config_kwargs), device_of)
    batched = simulate(program, inputs,
                       SimulatorConfig(engine_mode="batched",
                                       **config_kwargs), device_of)
    assert_same_results(scalar, batched)
    return scalar, batched


def assert_same_results(scalar, batched):
    assert scalar.outputs.keys() == batched.outputs.keys()
    for name in scalar.outputs:
        a, b = scalar.outputs[name], batched.outputs[name]
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), \
            f"output {name!r} not bitwise identical"
        if a.dtype.kind == "f":
            # == treats -0.0 as +0.0; enforce the sign bit on zeros
            # too (NaN payloads are the one tolerated difference).
            zeros = a == 0
            assert np.array_equal(np.signbit(a[zeros]),
                                  np.signbit(b[zeros])), \
                f"output {name!r} differs in zero signs"
    for field in _EXACT_FIELDS:
        assert getattr(scalar, field) == getattr(batched, field), field


CATALOG_CASES = [
    ("laplace2d", dict(shape=(16, 16))),
    ("jacobi2d", dict(shape=(16, 16))),
    ("jacobi3d", dict(shape=(8, 8, 8))),
    ("diffusion2d", dict(shape=(16, 16))),
    ("diffusion3d", dict(shape=(8, 8, 8))),
    ("horizontal_diffusion", dict(shape=(8, 8, 8))),
]


@pytest.mark.parametrize("name,kwargs", CATALOG_CASES,
                         ids=[c[0] for c in CATALOG_CASES])
def test_catalog_programs(name, kwargs):
    program = build(name, **kwargs)
    assert_equivalent(program, random_inputs(program))


@pytest.mark.parametrize("width", [1, 4])
def test_lst1_boundaries_and_vectorization(width):
    # lst1 exercises constant and copy boundary conditions plus shrink.
    program = lst1_program().with_vectorization(width)
    assert_equivalent(program, lst1_inputs())


@pytest.mark.parametrize("width", [1, 4])
def test_hdiff_vectorized(width):
    program = horizontal_diffusion(shape=(8, 8, 8), vectorization=width)
    assert_equivalent(program, random_inputs(program))


def test_chain():
    program = chain_program(4)
    assert_equivalent(program, random_inputs(program))


def test_diamond_delay_buffers():
    program = diamond_program()
    scalar, _batched = assert_equivalent(program, random_inputs(program))
    # Sanity: this shape actually exercises steady streaming.
    assert all(scalar.output_continuous.values())


def _int_program(code="a[i-1] + a[i] * 2", dtype="int32",
                 boundary=None):
    return StencilProgram.from_json({
        "inputs": {"a": {"dtype": dtype, "dims": ["i"]}},
        "outputs": ["s"],
        "shape": [32],
        "program": {"s": {
            "code": code,
            "boundary_condition": boundary or {
                "a": {"type": "constant", "value": 3}}}},
    })


def test_integer_program_small_values_equivalent():
    program = _int_program()
    inputs = {"a": np.arange(32, dtype=np.int32)}
    assert_equivalent(program, inputs)


def test_integer_program_auto_batches_beyond_2_53():
    # Integer streams ride int64 slabs: "auto" now selects the batched
    # engine for integer-typed programs, bit-exact far beyond float64's
    # 2**53 integer range.
    program = _int_program(dtype="int64")
    assert resolve_engine_mode(SimulatorConfig(),
                               program=program) == "batched"
    inputs = {"a": np.full(32, (1 << 60) + 1, dtype=np.int64)}
    scalar, batched = assert_equivalent(program, inputs)
    # Sanity: the values really exceed float64's exact-integer range.
    assert int(scalar.outputs["s"][1]) == 3 * ((1 << 60) + 1)


def test_uint64_overflow_rejected_by_batched():
    # uint64 values beyond int64's range cannot ride int64 slabs; the
    # batched engine must fail loudly instead of wrapping.
    program = _int_program(code="a[i] + 1", dtype="uint64",
                           boundary={"a": {"type": "constant",
                                           "value": 0}})
    inputs = {"a": np.full(32, (1 << 63) + 7, dtype=np.uint64)}
    with pytest.raises(SimulationError, match="2\\*\\*63"):
        simulate(program, inputs, SimulatorConfig(engine_mode="batched"))


def test_integer_sink_overflow_raises_in_both_engines():
    # int32 output receiving a result beyond int32 range: the scalar
    # engine's per-element store raises OverflowError; the batched
    # slab store must do the same instead of wrapping.
    program = _int_program(code="a[i] * 65536")
    inputs = {"a": np.full(32, 1 << 16, dtype=np.int32)}
    for mode in ("scalar", "batched"):
        with pytest.raises(OverflowError, match="out of bounds"):
            simulate(program, inputs, SimulatorConfig(engine_mode=mode))


def test_integer_output_nan_raises_in_both_engines():
    # A shrink boundary injects NaN into an int-typed output; the
    # scalar engine raises at the per-lane cast and the batched engine
    # must do the same instead of storing INT_MIN.
    program = _int_program(boundary="shrink")
    inputs = {"a": np.arange(32, dtype=np.int32)}
    for mode in ("scalar", "batched"):
        with pytest.raises(ValueError, match="NaN"):
            simulate(program, inputs, SimulatorConfig(engine_mode=mode))


def test_literal_call_arguments():
    # All-literal math-call arguments exercise the guarded fallback's
    # scalar path (frompyfunc returns plain scalars there).
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
        "outputs": ["s"],
        "shape": [8, 8],
        "program": {"s": {"code": "a[i,j] + log(1.947)",
                          "boundary_condition": "shrink"}},
    })
    assert_equivalent(program, random_inputs(program))


def test_complex_pow_poisons_identically():
    # pow(negative, fractional) promotes to complex in Python; both
    # engines must poison those cells with NaN rather than crash.
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
        "outputs": ["s"],
        "shape": [8, 8],
        "program": {"s": {"code": "pow(a[i,j] - 2.0, 0.5)",
                          "boundary_condition": "shrink"}},
    })
    scalar, _batched = assert_equivalent(program, random_inputs(program))
    assert np.isnan(scalar.outputs["s"]).all()  # all inputs < 2


def test_one_dimensional_program():
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float64", "dims": ["i"]}},
        "outputs": ["s"],
        "shape": [64],
        "program": {"s": {"code": "a[i-1] + 2*a[i] + a[i+1]",
                          "boundary_condition": {
                              "a": {"type": "constant", "value": 1.5}}}},
    })
    assert_equivalent(program, random_inputs(program))


def test_ternary_and_sqrt_program():
    # Data-dependent branches and a domain-error-prone call; shrink
    # boundaries inject NaNs that must propagate identically.
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
        "outputs": ["t"],
        "shape": [12, 12],
        "program": {
            "s": {"code": "a[i,j] - 0.5", "boundary_condition": "shrink"},
            "t": {"code": "s[i-1,j] > 0 ? sqrt(s[i,j-1]) : s[i+1,j] / "
                          "s[i,j+1]",
                  "boundary_condition": "shrink"},
        },
    })
    assert_equivalent(program, random_inputs(program))


class TestMultiDevice:
    def test_two_device_chain(self):
        program = chain_program(4)
        assert_equivalent(program, random_inputs(program),
                          device_of={"s0": 0, "s1": 0, "s2": 1, "s3": 1})

    def test_two_device_lst1(self):
        program = lst1_program()
        assert_equivalent(program, lst1_inputs(), device_of={
            "b0": 0, "b1": 0, "b2": 0, "b3": 1, "b4": 1})

    def test_four_device_chain(self):
        program = chain_program(4, shape=(4, 8, 8))
        assert_equivalent(program, random_inputs(program),
                          device_of={f"s{n}": n for n in range(4)})

    def test_deep_links_lift_in_flight_bound(self):
        # A wire latency comparable to the whole run used to cap every
        # batch at ~latency cycles; the lifted bound must stay exact.
        program = chain_program(3, shape=(4, 8, 8))
        assert_equivalent(program, random_inputs(program),
                          device_of={"s0": 0, "s1": 1, "s2": 2},
                          network_latency=64)

    @pytest.mark.parametrize("rate", [0.25, 0.5, 1.5,
                                      # irreducible p/q with p > 1
                                      1.0 / 3.0, 3.0 / 7.0, 5.0 / 8.0])
    def test_fractional_link_rates_batch_exactly(self, rate):
        # words_per_cycle != 1 batches through the closed-form credit
        # schedule (and the super-pattern window planner) and must
        # still match the scalar engine exactly.
        program = chain_program(2, shape=(4, 4, 8))
        assert_equivalent(program, random_inputs(program),
                          device_of={"s0": 0, "s1": 1},
                          network_words_per_cycle=rate)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fractional_rate_fuzz(self, seed):
        # Random rates x random placements x random wire latencies.
        rng = np.random.default_rng(1000 + seed)
        program = chain_program(int(rng.integers(2, 5)), shape=(4, 4, 8))
        names = program.stencil_names
        devices = int(rng.integers(2, min(4, len(names)) + 1))
        split = sorted(rng.choice(
            np.arange(1, len(names)), size=devices - 1, replace=False))
        device_of = {}
        for idx, name in enumerate(names):
            device_of[name] = sum(idx >= s for s in split)
        rate = float(rng.choice([0.25, 0.5, 0.75, 1.5,
                                 1.0 / 3.0, 3.0 / 7.0]))
        latency = int(rng.choice([1, 4, 32, 64]))
        assert_equivalent(program, random_inputs(program),
                          device_of=device_of,
                          network_words_per_cycle=rate,
                          network_latency=latency)

    _MIXED_RATES = [1.0 / 3.0, 0.5, 3.0 / 7.0, 0.75, 1.0, 1.5]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mixed_rate_fuzz(self, seed):
        # Different p/q per link in one placement: each link follows its
        # own credit schedule and the super-pattern window is the LCM
        # of all of them.
        rng = np.random.default_rng(3000 + seed)
        program = chain_program(int(rng.integers(3, 5)), shape=(4, 4, 8))
        names = program.stencil_names
        devices = int(rng.integers(2, min(4, len(names)) + 1))
        split = sorted(rng.choice(
            np.arange(1, len(names)), size=devices - 1, replace=False))
        device_of = {}
        for idx, name in enumerate(names):
            device_of[name] = sum(idx >= s for s in split)
        rates = {key: float(rng.choice(self._MIXED_RATES))
                 for key in edge_keys(program)}
        assert_equivalent(program, random_inputs(program),
                          device_of=device_of,
                          network_words_per_cycle=0.5,
                          network_link_rates=rates,
                          network_latency=int(rng.choice([1, 8, 32])))

    def test_completion_inside_stretched_window(self):
        # Regression: a non-repeating super-pattern stretch used to
        # extend one zero-progress cycle past machine completion,
        # reporting cycles+1 vs the scalar engine.  Mixed irreducible
        # rates with tight capacities and a deep wire finish the run
        # inside a stretched window.
        program = chain_program(4, shape=(4, 4, 8))
        keys = edge_keys(program)
        rates = dict(zip(keys, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 7.0,
                                1.0 / 3.0, 5.0 / 8.0)))
        capacities = dict(zip(keys, (2, 5, 5, 3, 1)))
        assert_equivalent(program, random_inputs(program),
                          device_of={"s0": 0, "s1": 1, "s2": 1, "s3": 1},
                          network_link_rates=rates,
                          channel_capacities=capacities,
                          network_latency=64)

    def test_mixed_rate_two_cuts_exact(self):
        # A deterministic mixed-rate machine: two cut edges at 1/3 and
        # 5/8 words/cycle; the slower link must dominate and both
        # engines must agree exactly.
        program = chain_program(3, shape=(4, 4, 8))
        keys = edge_keys(program)
        rates = {key: rate for key, rate in zip(keys[1:], (1.0 / 3.0,
                                                           5.0 / 8.0))}
        scalar, _ = assert_equivalent(
            program, random_inputs(program),
            device_of={"s0": 0, "s1": 1, "s2": 2},
            network_link_rates=rates)
        words = program.num_cells // program.vectorization
        assert scalar.cycles > 3 * words  # 1/3-rate link dominates


class TestIntegerPrograms:
    @pytest.mark.parametrize("dtype", ["int32", "int64", "uint16"])
    def test_dtype_fuzz(self, dtype):
        # Integer arithmetic (+, -, *, min/max, ternary selection) must
        # be exactly equal through int64 slabs.
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": dtype, "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [8, 8],
            "program": {
                "s": {"code": "a[i-1,j] + a[i,j] * 3 - a[i,j+1]",
                      "boundary_condition": {
                          "a": {"type": "constant", "value": 2}}},
                "t": {"code": "min(max(s[i,j-1], -s[i,j]), 100 + s[i,j])",
                      "boundary_condition": {
                          "s": {"type": "copy"}}},
            },
        })
        rng = np.random.default_rng(7)
        inputs = {"a": rng.integers(0, 50, (8, 8)).astype(dtype)}
        assert_equivalent(program, inputs)

    def test_integer_multi_device(self):
        # Integer slabs must survive network links (int64 ring rows).
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "int64", "dims": ["i"]}},
            "outputs": ["t"],
            "shape": [32],
            "program": {
                "s": {"code": "a[i-1] + a[i] * 2",
                      "boundary_condition": {
                          "a": {"type": "constant", "value": 3}}},
                "t": {"code": "s[i] - s[i+1]",
                      "boundary_condition": {
                          "s": {"type": "constant", "value": 0}}},
            },
        })
        inputs = {"a": np.arange(32, dtype=np.int64) + (1 << 55)}
        assert_equivalent(program, inputs,
                          device_of={"s": 0, "t": 1})

    @pytest.mark.parametrize("fill", [2.5, "shrink"])
    def test_float_leaking_boundaries_on_integer_fields(self, fill):
        # A shrink (NaN) or float-constant fill on an integer field
        # injects float lanes invisible to type inference; the affected
        # streams must be demoted to float64 slabs so the floats flow
        # downstream exactly as the scalar engine's Python floats do.
        boundary = "shrink" if fill == "shrink" else {
            "a": {"type": "constant", "value": fill}}
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "int32", "dims": ["i", "j"]}},
            "outputs": ["t"],
            "shape": [8, 8],
            "program": {
                "s": {"code": "a[i-1,j] * 3 + a[i,j+1]",
                      "boundary_condition": boundary},
                "t": {"code": "s[i,j-1] + s[i,j] * 2",
                      "boundary_condition": {
                          "s": {"type": "constant", "value": 0}}},
            },
        })
        from repro.simulator.batched import float_leaky_streams
        kind = "nan" if fill == "shrink" else "float"
        assert float_leaky_streams(program) == {"s": kind, "t": kind}
        rng = np.random.default_rng(11)
        inputs = {"a": rng.integers(-20, 20, (8, 8)).astype(np.int32)}
        if fill == "shrink":
            # NaN fills reach the int-typed sink: both engines raise
            # the same integer-store error.
            for mode in ("scalar", "batched"):
                with pytest.raises(ValueError, match="NaN"):
                    simulate(program, inputs,
                             SimulatorConfig(engine_mode=mode))
        else:
            assert_equivalent(program, inputs)

    def test_int64_overflow_raises_instead_of_wrapping(self):
        # An intermediate beyond int64 (exact in the scalar engine's
        # Python ints) must fail loudly, not silently wrap.
        program = _int_program(code="(a[i] * a[i]) > 100 ? 1 : 0",
                               dtype="int64")
        inputs = {"a": np.full(32, 1 << 32, dtype=np.int64)}
        scalar = simulate(program, inputs,
                          SimulatorConfig(engine_mode="scalar"))
        assert int(scalar.outputs["s"][0]) == 1
        with pytest.raises(SimulationError, match="overflows int64"):
            simulate(program, inputs,
                     SimulatorConfig(engine_mode="batched"))

    def test_int64_min_times_minus_one_raises(self):
        # floor_divide(int64_min, -1) wraps back to int64_min, so the
        # divide-back overflow check must special-case right == -1.
        program = _int_program(code="a[i] * -1", dtype="int64",
                               boundary={"a": {"type": "constant",
                                               "value": 0}})
        inputs = {"a": np.full(32, np.iinfo(np.int64).min,
                               dtype=np.int64)}
        with pytest.raises(OverflowError):
            simulate(program, inputs,
                     SimulatorConfig(engine_mode="scalar"))
        with pytest.raises((SimulationError, OverflowError)):
            simulate(program, inputs,
                     SimulatorConfig(engine_mode="batched"))

    def test_demoted_stream_keeps_integer_zero_signs(self):
        # A NaN-demoted integer stream rides float64 slabs, but its
        # non-NaN lanes are still Python ints in cell mode: negating an
        # integer zero must not produce -0.0 downstream.
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "int32", "dims": ["i"]}},
            "outputs": ["c"],
            "shape": [8],
            "program": {
                "b": {"code": "a[i-1] + a[i]",
                      "boundary_condition": "shrink"},
                "c": {"code": "atan2(-b[i] * 1.0, -1.0)",
                      "boundary_condition": {
                          "b": {"type": "constant", "value": 0}}},
            },
        })
        inputs = {"a": np.zeros(8, dtype=np.int32)}
        scalar, _ = assert_equivalent(program, inputs)
        # Sanity: the sign actually matters here (atan2(+0, -1) = pi).
        assert scalar.outputs["c"][1] > 3

    def test_mixed_int_float_fields(self):
        program = StencilProgram.from_json({
            "inputs": {
                "a": {"dtype": "int32", "dims": ["i", "j"]},
                "w": {"dtype": "float32", "dims": ["i", "j"]},
            },
            "outputs": ["t"],
            "shape": [8, 8],
            "program": {
                "t": {"code": "a[i-1,j] * w[i,j] + a[i,j+1]",
                      "boundary_condition": {
                          "a": {"type": "constant", "value": 1},
                          "w": {"type": "copy"}}},
            },
        })
        rng = np.random.default_rng(3)
        inputs = {"a": rng.integers(-9, 9, (8, 8)).astype(np.int32),
                  "w": rng.random((8, 8), dtype=np.float32)}
        assert_equivalent(program, inputs)


class TestFailureModes:
    def test_underprovisioned_deadlock_identical(self):
        program = diamond_program(long_branch=2)
        inputs = random_inputs(program)
        errors = {}
        for mode in ("scalar", "batched"):
            config = SimulatorConfig(
                engine_mode=mode,
                channel_capacities={k: 2 for k in edge_keys(program)},
                deadlock_window=64)
            with pytest.raises(DeadlockError) as info:
                simulate(program, inputs, config)
            errors[mode] = info.value
        scalar, batched = errors["scalar"], errors["batched"]
        assert scalar.cycle == batched.cycle
        assert scalar.blocked_units == batched.blocked_units
        assert str(scalar) == str(batched)
        # Structured forensics are built from terminal machine state,
        # so they must be identical too — and expose the Fig. 4
        # signature: a wait-for cycle through the join.
        assert scalar.report is not None
        assert scalar.report == batched.report
        assert scalar.report.wait_cycle is not None
        assert "join" in scalar.report.wait_cycle

    def test_cycle_cap_overrun_identical(self):
        program = chain_program(2)
        inputs = random_inputs(program)
        for mode in ("scalar", "batched"):
            with pytest.raises(SimulationError, match="exceeded 100"):
                simulate(program, inputs,
                         SimulatorConfig(engine_mode=mode, max_cycles=100))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_randomized_programs(seed):
    """Seeded fuzz: random DAGs must be exactly equivalent, and random
    under-provisioned capacities must fail (or not) identically."""
    rng = np.random.default_rng(seed)
    program = _random_program(rng)
    inputs = random_inputs(program)
    assert_equivalent(program, inputs)

    capacities = {k: int(rng.integers(1, 5)) for k in edge_keys(program)}
    outcomes = {}
    for mode in ("scalar", "batched"):
        config = SimulatorConfig(engine_mode=mode,
                                 channel_capacities=capacities,
                                 deadlock_window=64)
        try:
            result = simulate(program, inputs, config)
            outcomes[mode] = ("done", result.cycles)
        except DeadlockError as exc:
            outcomes[mode] = ("deadlock", exc.cycle, exc.blocked_units)
    assert outcomes["scalar"] == outcomes["batched"]


@given(random_machines())
def test_differential_machine_fuzz(machine):
    """Differential fuzz as a strategy: any drawn machine — placement,
    link rate, wire latency, starved capacities, fault plan — ends the
    same way on both engines (same deadlock cycle, blocked units and
    diagnostic, same cycle-cap overrun, or exactly equal results).  The
    example budget is the loaded hypothesis profile's
    (``tests/conftest.py``): derandomized and small in tier-1, long and
    random in CI's ``fuzz`` job."""
    program, device_of, config_kwargs = machine
    inputs = random_inputs(program)
    runs = {}
    for mode in ("scalar", "batched"):
        config = SimulatorConfig(engine_mode=mode, **config_kwargs)
        try:
            runs[mode] = simulate(program, inputs, config, device_of)
        except (DeadlockError, SimulationError) as exc:
            runs[mode] = exc
    scalar, batched = runs["scalar"], runs["batched"]
    assert type(scalar) is type(batched)
    if isinstance(scalar, DeadlockError):
        assert (scalar.cycle, scalar.blocked_units, str(scalar)) \
            == (batched.cycle, batched.blocked_units, str(batched))
    elif isinstance(scalar, SimulationError):
        assert str(scalar) == str(batched)
    else:
        assert_same_results(scalar, batched)


class TestFaultInjection:
    """Seeded fault plans must be engine-equivalent: identical cycles,
    stalls, outputs, and fault reports (``_EXACT_FIELDS`` includes
    ``fault_report``, so ``assert_equivalent`` pins all of it)."""

    def test_unit_stall_equivalent(self):
        from repro.faults import FaultPlan, UnitStall
        program = chain_program(3)
        plan = FaultPlan(unit_stalls=(UnitStall("s1", 50, 120),))
        scalar, _ = assert_equivalent(program, random_inputs(program),
                                      fault_plan=plan)
        assert scalar.fault_report is not None
        assert scalar.fault_report.unit_stall_cycles["s1"] == 70

    def test_link_outage_and_degradation_equivalent(self):
        from repro.faults import FaultPlan, LinkFault
        program = chain_program(3, shape=(8, 8, 8))
        device_of = {"s0": 0, "s1": 0, "s2": 1}
        plan = FaultPlan(link_faults=(
            LinkFault("s1", "s2", 100, 220),
            LinkFault("s1", "s2", 300, 400, rate_scale=0.5),
        ))
        scalar, _ = assert_equivalent(program, random_inputs(program),
                                      device_of=device_of,
                                      fault_plan=plan)
        report = scalar.fault_report
        (outage,) = report.link_outage_cycles.values()
        (degraded,) = report.link_degraded_cycles.values()
        assert outage == 120
        assert degraded == 100

    def test_fault_windows_do_not_trip_deadlock_detector(self):
        # An outage longer than the deadlock window freezes the
        # machine without progress; both engines must ride it out.
        from repro.faults import FaultPlan, LinkFault
        program = chain_program(2, shape=(4, 4, 8))
        device_of = {"s0": 0, "s1": 1}
        plan = FaultPlan(link_faults=(
            LinkFault("s0", "s1", 40, 400),))
        assert_equivalent(program, random_inputs(program),
                          device_of=device_of, fault_plan=plan,
                          deadlock_window=64)

    def test_faulted_outputs_match_healthy_outputs(self):
        # Faults delay the machine but never corrupt data: the same
        # words come out, later.
        from repro.faults import FaultPlan, UnitStall
        program = chain_program(3)
        inputs = random_inputs(program)
        healthy = simulate(program, inputs, SimulatorConfig())
        plan = FaultPlan(unit_stalls=(UnitStall("s0", 10, 90),))
        faulted = simulate(program, inputs,
                           SimulatorConfig(fault_plan=plan))
        assert faulted.cycles > healthy.cycles
        for name in healthy.outputs:
            assert np.array_equal(healthy.outputs[name],
                                  faulted.outputs[name], equal_nan=True)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_randomized_fault_plans(self, seed):
        """Seeded fuzz over random programs *and* random fault plans:
        both engines must agree on every exact field, including the
        fault report — or fail identically."""
        from repro.faults import random_fault_plan
        rng = np.random.default_rng(9000 + seed)
        program = _random_program(rng)
        inputs = random_inputs(program)
        names = program.stencil_names
        device_of = {name: min(idx, 1)
                     for idx, name in enumerate(names)}
        plan = random_fault_plan(program, seed=seed, horizon=600,
                                 device_of=device_of)
        if plan.empty:
            plan = random_fault_plan(program, seed=seed + 100,
                                     horizon=600, device_of=device_of)
        outcomes = {}
        for mode in ("scalar", "batched"):
            config = SimulatorConfig(engine_mode=mode, fault_plan=plan,
                                     deadlock_window=128)
            try:
                result = simulate(program, inputs, config,
                                  device_of=device_of)
                outcomes[mode] = ("done", result.cycles,
                                  result.fault_report)
            except DeadlockError as exc:
                report = exc.report.to_json() if exc.report else None
                outcomes[mode] = ("deadlock", exc.cycle,
                                  exc.blocked_units, report)
        assert outcomes["scalar"] == outcomes["batched"]
        if outcomes["scalar"][0] == "done":
            assert_equivalent(program, inputs, device_of=device_of,
                              fault_plan=plan, deadlock_window=128)


def _copy_boundary_program():
    # Copy fills read the *center* cell: behind every tap in "s" (all
    # offsets ahead of the center), between the taps in "t".
    return StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float64", "dims": ["i", "j"]}},
        "outputs": ["t"],
        "shape": [6, 8],
        "vectorization": 2,
        "program": {
            "s": {"code": "a[i,j+1] + 2.0 * a[i+1,j+2]",
                  "boundary_condition": {"a": {"type": "copy"}}},
            "t": {"code": "s[i-1,j] - s[i,j-1] + s[i,j+1]",
                  "boundary_condition": {"s": {"type": "copy"}}},
        },
    })


def _int_leak_program():
    # int64 input, float-constant fill: "s" and "t" ride demoted
    # float64 buffers, "a" a native int64 one.
    return StencilProgram.from_json({
        "inputs": {"a": {"dtype": "int64", "dims": ["i", "j"]}},
        "outputs": ["t"],
        "shape": [8, 8],
        "program": {
            "s": {"code": "a[i-1,j] * 3 + a[i,j+1]",
                  "boundary_condition": {
                      "a": {"type": "constant", "value": 2.5}}},
            "t": {"code": "s[i,j-1] + s[i,j] * 2",
                  "boundary_condition": {
                      "s": {"type": "constant", "value": 0}}},
        },
    })


def _identity_program():
    # "s" evaluates to its input tap itself (a view of the inbound
    # edge buffer) and fans out to a sink and a consumer.
    return StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
        "outputs": ["s", "t"],
        "shape": [8, 8],
        "vectorization": 2,
        "program": {
            "s": {"code": "a[i,j]", "boundary_condition": "shrink"},
            "t": {"code": "s[i,j-2] + s[i,j+2]",
                  "boundary_condition": {
                      "s": {"type": "constant", "value": 0.5}}},
        },
    })


def _links_with_fault():
    # 2-device split behind a half-rate link with an outage and a
    # degraded window: (program, simulate kwargs).
    from repro.faults import FaultPlan, LinkFault
    program = chain_program(3, shape=(4, 8, 8), vectorization=2)
    plan = FaultPlan(link_faults=(
        LinkFault("s1", "s2", 40, 90),
        LinkFault("s1", "s2", 120, 160, rate_scale=0.5)))
    return program, dict(device_of={"s0": 0, "s1": 0, "s2": 1},
                         fault_plan=plan, network_latency=4,
                         network_words_per_cycle=0.5)


class TestEdgeBufferWraparound:
    """Tiny batches over minimal channels: every edge buffer is a few
    rows long and wraps on nearly every batch, so pops, taps, staged
    latency-line words and link deliveries all cross the ring end
    against the scalar oracle."""

    CASES = {
        "copy_boundary": lambda: (_copy_boundary_program(), {}),
        "int64_float_leak": lambda: (_int_leak_program(), {}),
        "fan_out": lambda: (diamond_program(), {}),
        "identity_view": lambda: (_identity_program(), {}),
        "links_with_fault": _links_with_fault,
    }

    @pytest.mark.parametrize("max_batch_words", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scalar_parity(self, case, max_batch_words):
        program, kwargs = self.CASES[case]()
        if program.field_dtype(next(iter(program.inputs))).is_integer:
            rng = np.random.default_rng(5)
            inputs = {"a": rng.integers(-20, 20, program.shape)
                      + (1 << 40)}
        else:
            inputs = random_inputs(program)
        device_of = kwargs.pop("device_of", None)
        assert_equivalent(program, inputs, device_of=device_of,
                          max_batch_words=max_batch_words,
                          min_channel_depth=1, **kwargs)


class TestEngineSelection:
    def test_auto_prefers_batched(self):
        assert resolve_engine_mode(SimulatorConfig()) == "batched"
        simulator = make_simulator(chain_program(2))
        assert isinstance(simulator, BatchedSimulator)

    def test_auto_batches_fractional_links(self):
        # Fractional-rate links no longer defeat batching: "auto"
        # selects the batched engine regardless of rate or placement.
        config = SimulatorConfig(network_words_per_cycle=0.5)
        assert resolve_engine_mode(config, {"s1": 1}) == "batched"
        assert resolve_engine_mode(config) == "batched"
        program = chain_program(2)
        assert resolve_engine_mode(config, {"s0": 0, "s1": 1},
                                   program) == "batched"

    def test_explicit_modes(self):
        assert resolve_engine_mode(
            SimulatorConfig(engine_mode="scalar")) == "scalar"
        assert resolve_engine_mode(
            SimulatorConfig(engine_mode="batched"), {"s1": 1}) == "batched"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="engine_mode"):
            resolve_engine_mode(SimulatorConfig(engine_mode="turbo"))

    def test_session_engine_override(self):
        from repro.run import Session
        program = lst1_program()
        session = Session(program)
        result = session.run(lst1_inputs(), engine_mode="batched")
        assert result.validated

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_never_falls_back_to_scalar_stepping(self, seed):
        # engine_mode="auto" must select the batched engine for every
        # fuzzed healthy config — fractional and mixed link rates
        # included — and the batched engine must simulate it end to end
        # without a single scalar-stepped cycle (the fallback is
        # reserved for true standstills, i.e. deadlock detection).
        from repro.simulator import build_simulator
        rng = np.random.default_rng(4000 + seed)
        program = chain_program(int(rng.integers(2, 4)), shape=(4, 4, 8))
        names = program.stencil_names
        device_of = {name: min(idx, 1) for idx, name in enumerate(names)}
        rates = {key: float(rng.choice([1.0 / 3.0, 0.5, 3.0 / 7.0, 1.0]))
                 for key in edge_keys(program)}
        config = SimulatorConfig(
            network_words_per_cycle=float(rng.choice([0.5, 1.0])),
            network_link_rates=rates,
            network_latency=int(rng.choice([1, 8, 32])))
        assert resolve_engine_mode(config, device_of, program) == "batched"
        simulator = build_simulator(program, config, device_of)
        assert isinstance(simulator, BatchedSimulator)
        simulator.run(random_inputs(program))
        assert simulator.scalar_cycles == 0


class TestKernelEngine:
    """Batched vs compiled-kernel replay equivalence.

    The kernel engine records a batched run's control decisions into a
    content-addressed artifact and replays later runs as a cached slab
    pass; its contract is the batched engine's contract verbatim.  The
    artifact life cycle (invalidation, quarantine, backend ladder) is
    covered by ``test_kernel.py`` — here we only enforce equivalence,
    cold (record-and-compile) and warm (replay).
    """

    def _assert_kernel_matches(self, program, inputs, device_of=None,
                               **config_kwargs):
        batched = simulate(program, inputs,
                           SimulatorConfig(engine_mode="batched",
                                           **config_kwargs), device_of)
        kernel_cfg = SimulatorConfig(engine_mode="kernel",
                                     **config_kwargs)
        # Cold (records via the batched engine, then compiles) and warm
        # (pure replay) runs must both match; the in-process artifact
        # cache may pre-warm the first run, which is fine — the replay
        # path is guaranteed exercised by the second.
        for _ in range(2):
            kernel = simulate(program, inputs, kernel_cfg, device_of)
            assert kernel.profile.engine == "kernel"
            assert kernel.outputs.keys() == batched.outputs.keys()
            for name in batched.outputs:
                a, b = batched.outputs[name], kernel.outputs[name]
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b, equal_nan=True), \
                    f"output {name!r} not bitwise identical"
            for field in _EXACT_FIELDS:
                assert getattr(batched, field) == \
                    getattr(kernel, field), field
        return batched, kernel

    @pytest.mark.parametrize("name,kwargs", CATALOG_CASES,
                             ids=[c[0] for c in CATALOG_CASES])
    def test_catalog_programs(self, name, kwargs):
        program = build(name, **kwargs)
        self._assert_kernel_matches(program, random_inputs(program))

    def test_fractional_rates_multi_device(self):
        program = lst1_program((8, 8, 8)).with_vectorization(4)
        names = program.stencil_names
        device_of = {n: (0 if i < len(names) // 2 else 1)
                     for i, n in enumerate(names)}
        self._assert_kernel_matches(
            program, lst1_inputs((8, 8, 8)), device_of,
            network_words_per_cycle=1 / 3, network_latency=16)

    def test_int64_beyond_2_53(self):
        program = _int_program(dtype="int64")
        inputs = {"a": np.full(32, (1 << 60) + 1, dtype=np.int64)}
        batched, _kernel = self._assert_kernel_matches(program, inputs)
        assert any(np.abs(arr.astype(np.float64)).max() > 2 ** 53
                   for arr in batched.outputs.values())

    def test_fault_plan_replayed(self):
        from repro.faults import FaultPlan, UnitStall
        program = chain_program(3)
        plan = FaultPlan(unit_stalls=(UnitStall("s1", 50, 120),))
        batched, _kernel = self._assert_kernel_matches(
            program, random_inputs(program), fault_plan=plan)
        assert batched.fault_report is not None


class TestStackedSimulation:
    """One data pass plus control runs: the width-0 control engine times
    every configuration of a program bitwise like its full simulation,
    and the full runs' outputs do not depend on the configuration, so
    the representative's data pass stands in for every member's."""

    def _assert_stacked_matches(self, program, inputs, configs,
                                device_ofs=None):
        from repro.simulator import simulate_control
        if device_ofs is None:
            device_ofs = [None] * len(configs)
        representative = simulate(program, inputs, configs[0],
                                  device_ofs[0])
        for config, device_of in zip(configs, device_ofs):
            full = simulate(program, inputs, config, device_of)
            timed = simulate_control(program, inputs, config, device_of)
            for field in _EXACT_FIELDS:
                assert getattr(full, field) == \
                    getattr(timed, field), field
            assert full.outputs.keys() == representative.outputs.keys()
            for name in full.outputs:
                assert np.array_equal(full.outputs[name],
                                      representative.outputs[name],
                                      equal_nan=True), name

    def test_members_match_full_runs(self):
        program = build("laplace2d", shape=(16, 16))
        configs = [
            SimulatorConfig(network_latency=latency,
                            network_words_per_cycle=rate)
            for latency in (1, 8, 32)
            for rate in (1.0, 0.5, 1 / 3)
        ]
        self._assert_stacked_matches(program, random_inputs(program),
                                     configs)

    def test_multi_device_members(self):
        program = chain_program(3, shape=(4, 4, 8))
        names = program.stencil_names
        placements = [
            None,
            {n: min(i, 1) for i, n in enumerate(names)},
        ]
        configs = [SimulatorConfig(network_latency=8)] * len(placements)
        self._assert_stacked_matches(program, random_inputs(program),
                                     configs, placements)

    def test_member_deadlock_propagates(self):
        from repro.simulator import simulate_control
        program = diamond_program(long_branch=2)
        inputs = random_inputs(program)
        caps = {k: 2 for k in edge_keys(program)}
        simulate(program, inputs, SimulatorConfig())  # healthy member
        doomed = SimulatorConfig(channel_capacities=caps,
                                 deadlock_window=64)
        with pytest.raises(DeadlockError) as control_err:
            simulate_control(program, inputs, doomed)
        with pytest.raises(DeadlockError) as full_err:
            simulate(program, inputs, doomed)
        assert control_err.value.cycle == full_err.value.cycle
        assert control_err.value.blocked_units == \
            full_err.value.blocked_units


class TestConfigParallelExplore:
    """Every sweep measures a lowered program with one data pass plus
    control runs, and points that build one machine share a
    simulation; the report must match a test-only sweep that runs every
    point in full, field for field except timing and cache provenance."""

    SPACE = dict(vectorizations=(1, 2), device_counts=(1, 2),
                 network_rates=(1.0, 0.5), network_latencies=(8, 24),
                 fusions=(False, True))

    @staticmethod
    def _comparable(report):
        record = report.to_json()
        for field in ("wall_seconds", "cache_hits",
                      "lowering_cache_hits", "relowered_programs"):
            record.pop(field)
        for entry in record["entries"] + [record["summary"]["best"]]:
            entry.pop("wall_seconds")
            entry.pop("cache_hit")
        return record

    def _sweep(self, program, **kwargs):
        from repro.explore import ConfigSpace, ResultCache, explore
        settings = dict(space=ConfigSpace(**self.SPACE),
                        strategy="exhaustive", workers=1, persist=False,
                        cache=ResultCache())
        settings.update(kwargs)
        return explore(program, **settings)

    def _all_full(self, monkeypatch, program, **kwargs):
        """The sweep with every machine its own group: a full run per
        distinct measurement key, no control runs."""
        from repro.explore import explorer
        with monkeypatch.context() as patch:
            patch.setattr(explorer, "_families",
                          lambda pending: [[[p]] for p in pending])
            return self._sweep(program, **kwargs)

    @staticmethod
    def _counted(sweep):
        """Run ``sweep()`` under a private metrics registry."""
        from repro.obs import metrics
        old = metrics.set_registry(metrics.MetricsRegistry(enabled=True))
        try:
            return sweep(), metrics.registry()
        finally:
            metrics.set_registry(old)

    @staticmethod
    def _service(tmp_path):
        from repro.service import ServiceConfig
        return ServiceConfig(run_root=tmp_path / "service",
                             heartbeat_interval=0.05, poll=0.01)

    @pytest.mark.parametrize("workers, backend",
                             [(1, "thread"), (4, "thread"), (2, "process")],
                             ids=["serial", "pool", "process"])
    def test_reports_identical(self, workers, backend, monkeypatch,
                               tmp_path):
        program = diamond_program(long_branch=2)
        full, full_counts = self._counted(lambda: self._all_full(
            monkeypatch, program, workers=workers))
        extra = {"backend": "process",
                 "service": self._service(tmp_path)} \
            if backend == "process" else {}
        grouped, counts = self._counted(
            lambda: self._sweep(program, workers=workers, **extra))
        assert self._comparable(grouped) == self._comparable(full)
        assert grouped.simulated_points == len(grouped.entries) == 33
        assert not grouped.failed_points
        # Twenty machines in two families (fused or not): two data
        # passes, eighteen control runs, on either backend (a process
        # sweep merges its workers' counters).  The all-full sweep runs
        # each of its 33 measurement keys in full.
        assert counts.counter_total("engine.runs") == 20
        assert counts.counter_total("explore.control_points") == 18
        assert full_counts.counter_total("engine.runs") == 33
        assert full_counts.counter_total("explore.control_points") == 0

    def test_process_backend_rejected(self, tmp_path):
        """The process backend, one lease per family, reports what the
        thread backend reports, entry for entry."""
        program = diamond_program(long_branch=2)
        thread = self._sweep(program, workers=2)
        process = self._sweep(program, workers=2, backend="process",
                              service=self._service(tmp_path))
        assert self._comparable(process) == self._comparable(thread)

    def test_control_deadlock_gets_full_run_forensics(self,
                                                      monkeypatch):
        """A member that deadlocks under its control run is re-run in
        full: its failure, forensics ``detail`` included, is the one
        the all-full sweep reports."""
        from repro.explore import ConfigSpace
        from repro.explore import explorer
        program = diamond_program(long_branch=2)
        real_config = explorer.SimulatorConfig
        real_control = explorer.simulate_control
        controlled = []

        def starved(**kwargs):
            # Depth 16 stands for an under-provisioned machine (Fig. 4);
            # depth 8 ranks first, so it is the healthy representative.
            if kwargs.get("min_channel_depth") == 16:
                kwargs["channel_capacities"] = {
                    key: 2 for key in edge_keys(program)}
            return real_config(**kwargs)

        def control(program, inputs, config, device_of=None):
            controlled.append(config.min_channel_depth)
            return real_control(program, inputs, config,
                                device_of=device_of)

        monkeypatch.setattr(explorer, "SimulatorConfig", starved)
        monkeypatch.setattr(explorer, "simulate_control", control)
        kwargs = dict(space=ConfigSpace(channel_depths=(8, 16)),
                      deadlock_window=64)
        grouped = self._sweep(program, **kwargs)
        assert controlled == [16]
        full = self._all_full(monkeypatch, program, **kwargs)
        [failed] = grouped.failed_points
        assert failed.point.min_channel_depth == 16
        assert failed.failure.kind == "deadlock"
        assert failed.failure.detail is not None
        assert self._comparable(grouped) == self._comparable(full)

    def test_failed_representative_hands_over_data_pass(self,
                                                        monkeypatch):
        from repro.explore import ConfigSpace
        from repro.explore import explorer
        real = explorer.simulate
        ran = []

        def cursed(program, inputs, config, device_of=None):
            ran.append(config.network_latency)
            if len(ran) == 1:
                raise ValidationError("data-dependent failure")
            return real(program, inputs, config, device_of=device_of)

        monkeypatch.setattr(explorer, "simulate", cursed)
        # Four machines of one family, told apart by their latency
        # (the single-device baseline keeps the default 32).
        report = self._sweep(diamond_program(long_branch=2),
                             space=ConfigSpace(device_counts=(2,),
                                               network_latencies=(8, 16,
                                                                  24)))
        [failed] = report.failed_points
        assert failed.point.network_latency == ran[0]
        assert failed.failure.message == "data-dependent failure"
        assert report.simulated_points == 3
        # The next member made the data pass; the other two were
        # control runs.
        assert len(ran) == 2

    def test_single_device_link_aliases_share_a_simulation(self):
        """On one device no edge is remote, so ``r1`` and ``r0.5`` build
        one machine: one simulation, stored under both keys, so a
        later sweep selecting only the alias hits the cache."""
        from repro.explore import ConfigSpace, ResultCache
        program = build("laplace2d", shape=(16, 16), vectorization=2)
        cache = ResultCache()
        first, counts = self._counted(lambda: self._sweep(
            program, cache=cache,
            space=ConfigSpace(network_rates=(1.0, 0.5))))
        # W1 r1 and W1 r0.5 are one machine, the W2 baseline another
        # of the same family: one data pass and one control run.
        assert first.simulated_points == 3
        assert counts.counter_total("engine.runs") == 2
        assert counts.counter_total("explore.control_points") == 1
        again, counts = self._counted(lambda: self._sweep(
            program, cache=cache, space=ConfigSpace(network_rates=(0.5,))))
        assert counts.counter_total("engine.runs") == 0
        [alias] = [e for e in again.entries
                   if e.point.network_words_per_cycle == 0.5]
        assert alias.simulated and alias.cache_hit


class TestDriftWindows:
    """Drifting-occupancy congruence: transient ramp/drain windows whose
    plain channels fill or drain at a constant per-window rate batch as
    repeated windows (with margin-clamped repeat counts) instead of
    stretching cycle by cycle — and stay bitwise exact."""

    def test_fractional_rate_ramp_batches_with_drift(self):
        program = lst1_program((16, 16, 16)).with_vectorization(4)
        names = program.stencil_names
        device_of = {n: (0 if i < len(names) // 2 else 1)
                     for i, n in enumerate(names)}
        inputs = lst1_inputs((16, 16, 16))
        scalar, batched = assert_equivalent(
            program, inputs, device_of,
            network_words_per_cycle=1 / 3, network_latency=16)
        # The contract check above is the point; this asserts the new
        # mechanism actually fired on a config known to ramp gradually.
        assert batched.profile.drift_windows > 0
        assert batched.profile.drift_windows <= \
            batched.profile.window_count

    def test_ramp_where_only_a_link_drifts(self):
        # A full-rate producer behind a deep 1/3-rate link: the link
        # gains two words per period until it is full while every plain
        # channel already sits at its steady occupancy.
        program = chain_program(2, shape=(4, 8, 8))
        link = ("stencil:s0", "stencil:s1", "s0")
        assert link in edge_keys(program)
        _scalar, batched = assert_equivalent(
            program, random_inputs(program), {"s0": 0, "s1": 1},
            network_words_per_cycle=1 / 3, network_latency=4,
            channel_capacities={link: 120})
        assert batched.profile.scalar_cycles == 0
        assert batched.profile.drift_windows > 0

    def test_drain_where_only_a_latency_line_carries_a_backlog(self):
        # A 70-cycle pipeline in front of the slow link: once the
        # source is done (its one-word channel empties at once) the
        # stencil's latency line still holds ~70 mature words and
        # drains them one per period — no channel drifts, the line does.
        program = StencilProgram.from_json({
            "name": "deep",
            "inputs": {"inp": {"dtype": "float64",
                               "dims": ["i", "j", "k"]}},
            "outputs": ["s1"],
            "shape": [4, 8, 8],
            "program": {
                "s0": {"code": "sqrt(sqrt(sqrt(sqrt(inp[i,j,k] + 1.0))))",
                       "boundary_condition": "shrink"},
                "s1": {"code": "s0[i,j,k] * 0.5",
                       "boundary_condition": "shrink"},
            },
        })
        _scalar, batched = assert_equivalent(
            program, random_inputs(program), {"s0": 0, "s1": 1},
            network_words_per_cycle=1 / 3, network_latency=2,
            channel_capacities={("input:inp", "stencil:s0", "inp"): 1})
        assert batched.profile.scalar_cycles == 0
        assert batched.profile.drift_windows > 0

    def test_drift_absent_on_trivial_config(self):
        program = build("laplace2d", shape=(16, 16))
        _scalar, batched = assert_equivalent(program,
                                             random_inputs(program))
        assert batched.profile.drift_windows >= 0


class TestOnePlanner:
    """One planner: what the single-cycle pattern planner used to own
    — latency waits with empty links, over-budget and unschedulable
    link periods, windows too heavy for the rings, idle streaks against
    the deadlock window, stalls to the cycle cap — held to the scalar
    oracle on period-q and period-1 windows alone."""

    @staticmethod
    def _run_both(program, device_of=None, **config_kwargs):
        """``(scalar outcome, batched outcome, batched simulator)``; an
        outcome is the run's result, or the error it ended in."""
        from repro.simulator import build_simulator
        inputs = random_inputs(program)
        outcomes = []
        for mode in ("scalar", "batched"):
            simulator = build_simulator(
                program, SimulatorConfig(engine_mode=mode, **config_kwargs),
                device_of)
            try:
                outcomes.append(simulator.run(inputs))
            except (DeadlockError, SimulationError) as exc:
                outcomes.append(exc)
        return outcomes[0], outcomes[1], simulator

    @staticmethod
    def _assert_same_error(scalar, batched):
        assert type(scalar) is type(batched)
        assert str(scalar) == str(batched)
        if isinstance(scalar, DeadlockError):
            assert (scalar.cycle, scalar.blocked_units, scalar.report) \
                == (batched.cycle, batched.blocked_units, batched.report)

    @staticmethod
    def _stencil_edges(program):
        """The stencil-to-stencil edges of a chain, in chain order."""
        return [key for key in edge_keys(program)
                if key[0].startswith("stencil:")
                and key[1].startswith("stencil:")]

    @staticmethod
    def _deep_pipeline(shape):
        """Two ~70-cycle pipelines in a row: with fewer words than a
        pipeline is deep, every unit waits on a latency line."""
        code = "sqrt(sqrt(sqrt(sqrt({}[i,j,k] + 1.0))))"
        return StencilProgram.from_json({
            "name": "deep",
            "inputs": {"inp": {"dtype": "float64",
                               "dims": ["i", "j", "k"]}},
            "outputs": ["s1"],
            "shape": list(shape),
            "program": {
                "s0": {"code": code.format("inp"),
                       "boundary_condition": "shrink"},
                "s1": {"code": code.format("s0"),
                       "boundary_condition": "shrink"},
            },
        })

    @pytest.mark.parametrize("rate", [1.0, 1.0 / 3.0])
    def test_latency_waits_with_empty_links(self, rate, monkeypatch):
        # (a) Four words through two 70-cycle pipelines on two devices:
        # in the fill and again in the drain tail every unit waits on a
        # latency line while all links are empty.  Those cycles are
        # stepped virtually and never reach the (default) deadlock
        # window; at period 1 a window stretches 64 cycles at most, so
        # the idle streak is handed from window to window.
        streaks = []
        plan_window = BatchedSimulator._plan_window

        def spy(self, now, q, horizon, idle_in):
            streaks.append(idle_in)
            return plan_window(self, now, q, horizon, idle_in)

        monkeypatch.setattr(BatchedSimulator, "_plan_window", spy)
        scalar, batched, simulator = self._run_both(
            self._deep_pipeline((1, 1, 4)), {"s0": 0, "s1": 1},
            network_words_per_cycle=rate, network_latency=2)
        assert_same_results(scalar, batched)
        assert simulator.scalar_cycles == 0
        assert simulator.window_cycles == batched.cycles
        if rate == 1.0:
            assert max(streaks) > 32

    def test_lcm_beyond_max_window_plans_period_one(self):
        # (b) Link periods 5, 9, 11 and 14: their LCM is over budget,
        # so every window is stepped at period 1 — exact at any rate.
        import math

        from repro.simulator import RateLimiter
        program = chain_program(5, shape=(2, 4, 4))
        links = self._stencil_edges(program)
        rates = dict(zip(links, (1 / 5, 1 / 9, 1 / 11, 1 / 13)))
        assert math.lcm(*(RateLimiter(rate).delivery_period()
                          for rate in rates.values())) \
            > BatchedSimulator.MAX_WINDOW
        scalar, batched, simulator = self._run_both(
            program, {f"s{n}": n for n in range(5)},
            network_latency=3, network_link_rates=rates)
        assert_same_results(scalar, batched)
        assert simulator._window_period() == 1
        assert simulator.scalar_cycles == 0

    def test_unschedulable_rate_plans_period_one(self):
        # (b) 2**-13 words/cycle has no delivery period within the
        # schedule scan's budget: one word per 8 192 cycles, period-1
        # windows all the way (stalls under a credit that never repeats
        # are stepped virtually, 64 cycles to the window).
        scalar, batched, simulator = self._run_both(
            chain_program(2, shape=(1, 2, 2)), {"s0": 0, "s1": 1},
            network_latency=3, network_words_per_cycle=2.0 ** -13,
            max_cycles=100_000)
        assert_same_results(scalar, batched)
        assert batched.cycles > 4 * 8192
        assert simulator._window_period() == 1
        assert simulator.scalar_cycles == 0

    def test_window_heavier_than_the_rings_replans_at_period_one(self):
        # (c) A 15-cycle LCM window moves up to 15 words per channel,
        # the rings have headroom for four: the period-15 plan finds no
        # room and the same planner runs again at period 1.
        program = chain_program(3, shape=(2, 4, 8))
        links = self._stencil_edges(program)
        scalar, batched, simulator = self._run_both(
            program, {"s0": 0, "s1": 1, "s2": 2}, network_latency=3,
            network_link_rates=dict(zip(links, (1 / 3, 1 / 5))),
            max_batch_words=4)
        assert_same_results(scalar, batched)
        assert simulator._window_period() == 15
        assert simulator.plan_count > simulator.window_count
        assert simulator.scalar_cycles == 0

    @pytest.mark.parametrize("deadlock_window", [64, 200])
    def test_deadlock_streak_straddles_windows(self, deadlock_window):
        # (d) The starved diamond idles for the whole deadlock window
        # before it is called: the streak spans several windows (a
        # non-repeating window stretches 64 cycles at most) and the
        # raising cycle — alone — is a scalar step.
        program = diamond_program(long_branch=2)
        scalar, batched, simulator = self._run_both(
            program, deadlock_window=deadlock_window,
            channel_capacities={k: 2 for k in edge_keys(program)})
        assert isinstance(scalar, DeadlockError)
        self._assert_same_error(scalar, batched)
        assert simulator.scalar_cycles == 1
        assert simulator.window_cycles == scalar.cycle
        assert simulator.window_count >= 1 + deadlock_window // 64

    def test_idle_streak_one_short_of_the_deadlock_window(self):
        # (d) The deep pipeline idles 64 cycles in its fill and 64 in
        # its drain: a deadlock at any window up to 64, completion from
        # 65 — where each streak ends one cycle short of the window,
        # on a cycle taken as a scalar step that then progresses.
        program = self._deep_pipeline((1, 1, 4))
        outcomes = {}
        for deadlock_window in range(60, 70):
            scalar, batched, simulator = self._run_both(
                program, deadlock_window=deadlock_window)
            if isinstance(scalar, DeadlockError):
                self._assert_same_error(scalar, batched)
            else:
                assert_same_results(scalar, batched)
            outcomes[deadlock_window] = (type(scalar).__name__,
                                         simulator.scalar_cycles)
        assert outcomes[64] == ("DeadlockError", 1)
        assert outcomes[65] == ("SimulationResult", 2)
        assert outcomes[66] == ("SimulationResult", 0)

    def test_wedged_with_a_link_word_costs_windows_not_cycles(self):
        # (e) The diamond's join on a second device: the fast link
        # fills with delivered words the join cannot pop, so no
        # detector may call the wedge and the run ends at the cycle
        # cap — in a constant number of windows, whatever the cap.
        program = diamond_program(long_branch=2)
        device_of = {name: int(name == "join")
                     for name in program.stencil_names}
        config = dict(channel_capacities={k: 2 for k in edge_keys(program)},
                      deadlock_window=64, network_latency=4)
        scalar, batched, simulator = self._run_both(
            program, device_of, max_cycles=5_000, **config)
        assert isinstance(scalar, SimulationError)
        assert "exceeded 5000 cycles" in str(scalar)
        self._assert_same_error(scalar, batched)
        assert simulator.scalar_cycles == 0
        assert simulator.window_cycles == 5_000
        counts = (simulator.plan_count, simulator.virtual_cycles)
        assert counts[0] <= 4 and counts[1] <= 100
        from repro.simulator import build_simulator
        far = build_simulator(
            program, SimulatorConfig(engine_mode="batched",
                                     max_cycles=5_000_000, **config),
            device_of)
        with pytest.raises(SimulationError, match="exceeded 5000000"):
            far.run(random_inputs(program))
        assert (far.plan_count, far.virtual_cycles) == counts

    def test_rate_limited_source_runs_on_scalar_steps(self):
        # (f) The counter machine does not model a source's memory
        # bandwidth limiter: such a machine never plans a window.
        from repro.simulator import Simulator
        from repro.simulator.batched import BatchedSourceUnit
        from repro.simulator.units import SourceUnit

        class HalfRateScalar(Simulator):
            def _make_source(self, name, data, outs):
                return SourceUnit(name, data, self.program.vectorization,
                                  outs, words_per_cycle=0.5)

        class HalfRateBatched(BatchedSimulator):
            def _make_source(self, name, data, outs):
                return BatchedSourceUnit(name, data,
                                         self.program.vectorization, outs,
                                         words_per_cycle=0.5)

        program = lst1_program()
        device_of = {"b0": 0, "b1": 0, "b2": 0, "b3": 1, "b4": 1}
        scalar = HalfRateScalar(program, device_of=device_of) \
            .run(lst1_inputs())
        simulator = HalfRateBatched(program, device_of=device_of)
        batched = simulator.run(lst1_inputs())
        assert_same_results(scalar, batched)
        words = program.num_cells // program.vectorization
        assert scalar.cycles >= 2 * words
        assert simulator.scalar_cycles == batched.cycles
        assert simulator.plan_count == 0
