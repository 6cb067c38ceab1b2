"""Simulator engines at benchmark scale: the deterministic half.

Runs the COSMO horizontal-diffusion program at the paper's
vectorization (W = 8) through every engine configuration the batched
engine supports, and pins what must never move:

* **single device** and **multi-device** (fig14-style: 2 and 4 devices
  behind a deep 64-cycle wire — the lifted in-flight bound);
* **integer programs**: an int32 smoothing chain on native int64 slabs;
* **fractional-rate links**: 2 devices on a 1/3 words/cycle wire —
  period-3 windows, where every other row plans period-1 windows;
* **kernel**: the compiled-replay engine — a cold run records the
  batched engine's control outcome, warm runs replay it.

On a reduced domain every configuration is held to the scalar engine
(exact cycles, stall counters, bitwise outputs); on the paper's domain
(Sec. IX) the batched engine's cycle, plan and window counts are pinned
— they are data-independent, so any drift means machine semantics or
planner behaviour moved — and the planner's *work* is gated as counts:
how many cycles it stepped on counter state
(``profile.virtual_cycles``) and how many windows it cut the run into.

The data plane is gated the same way, as counts: ring rows stored per
run (``profile.stored_words``), the ``tracemalloc`` peak of one run, and
which machines bind native compute (``profile.native_units``: decided
by machine size alone, and never moving a pin).

Nothing here reads a clock or writes a file: wall-clock throughput is
measured from outside the program by ``benchmarks/e2e`` (see
``BENCHMARK.json``), never asserted in tier-1.
"""

import shutil
import tracemalloc

import numpy as np

from harness import seeded_inputs
from repro.core import StencilProgram
from repro.distributed import contiguous_device_split
from repro.programs import horizontal_diffusion
from repro.simulator import SimulatorConfig, simulate

#: The paper's performance-benchmark domain (Sec. IX) and W.
PAPER_DOMAIN = (128, 128, 80)
#: Reduced domain the scalar engine can afford.
SCALAR_DOMAIN = (24, 24, 16)
VECTORIZATION = 8

#: Deep wire for the multi-device rows: without the lifted in-flight
#: bound every batch would cap at ~64 cycles.
NETWORK_LATENCY = 64

#: The fractional-rate row's wire: 1/3 words/cycle over a 16-cycle
#: wire — the configuration class the explorer's ``network_rates``
#: sweeps hit hardest before super-pattern batching.
FRACTIONAL_RATE = 1.0 / 3.0
FRACTIONAL_LATENCY = 16

#: Paper-domain batched-engine pins: (cycles, plan_count, window_count).
#: The cycle counts are simulated statistics; the plan and window counts
#: are *planner* counts — planner invocations and the windows they led
#: to execute, i.e. how the planner happened to cut the run — re-pinned
#: whenever its policy or the batch cap changes (no simulated statistic
#: depends on them).  They coincide here: every call found room for a
#: window.  These are at the default ``max_batch_words`` of 4 096: one
#: window retires at most one cap.
PAPER_PINS = {
    "single": (166470, 52, 52),
    "two_device": (166534, 58, 58),
    "four_device": (166662, 64, 64),
    "integer": (163918, 47, 47),
    "fractional": (499229, 81, 81),
}

#: Planner work ceilings, in virtual cycles (parent commit of the
#: timed-FIFO congruence rule: 19 531 and 4 159 on the first two; today
#: 1 607, 1 481, 455 and 358) and in windows (today 52).
FRACTIONAL_VIRTUAL_CYCLES_MAX = 2500
RUN_LINKS_VIRTUAL_CYCLES_MAX = 1600
SINGLE_VIRTUAL_CYCLES_MAX = 600
SINGLE_WINDOWS_MAX = 64
EXPLORE_SWEEP_VIRTUAL_CYCLES_MAX = 500
#: The end-to-end benchmark's ``run_links`` machine
#: (``benchmarks/e2e/workloads.json``): same wire, smaller domain.
RUN_LINKS_DOMAIN = (64, 64, 32)
RUN_LINKS_CYCLES = 50717
#: ``tracemalloc`` ceiling of one warm ``simulate`` on that machine.
RUN_LINKS_PEAK_BYTES = 40 * 2 ** 20
#: The ``explore_sweep`` workload's domain and its most common width:
#: like ``run_links``, far below the size from which ``auto`` binds
#: native compute.
EXPLORE_SWEEP_DOMAIN = (48, 48, 32)
EXPLORE_SWEEP_VECTORIZATION = 4


def _int_chain(shape):
    """An integer smoothing chain (3 stages, int32 fields): +, *, and
    min/max only, so every stream stays integer-typed."""
    program = {}
    prev = "inp"
    for stage in range(3):
        name = f"s{stage}"
        program[name] = {
            "code": (f"{prev}[i,j-1,k] + 2*{prev}[i,j,k] "
                     f"+ {prev}[i,j+1,k] - min({prev}[i,j,k], 3)"),
            "boundary_condition": {prev: {"type": "constant",
                                          "value": 1}},
        }
        prev = name
    return StencilProgram.from_json({
        "name": "int_chain",
        "inputs": {"inp": {"dtype": "int32", "dims": ["i", "j", "k"]}},
        "outputs": [prev],
        "shape": list(shape),
        "vectorization": VECTORIZATION,
        "program": program,
    })


def _hdiff(shape):
    return horizontal_diffusion(shape=shape, vectorization=VECTORIZATION)


def _run(program, engine_mode, device_count=None, latency=32, rate=1.0):
    placement = contiguous_device_split(program, device_count) \
        if device_count else None
    config = SimulatorConfig(engine_mode=engine_mode,
                             network_latency=latency,
                             network_words_per_cycle=rate)
    return simulate(program, seeded_inputs(program), config,
                    device_of=placement)


def _assert_same_run(expected, actual):
    assert actual.cycles == expected.cycles
    assert actual.stall_cycles == expected.stall_cycles
    assert actual.channel_occupancy == expected.channel_occupancy
    for name, array in expected.outputs.items():
        assert np.array_equal(array, actual.outputs[name],
                              equal_nan=True), name


def _row(label, build, **machine):
    """One configuration: scalar parity on the reduced domain, then the
    pinned control-flow counts on the paper domain."""
    small = build(SCALAR_DOMAIN)
    _assert_same_run(_run(small, "scalar", **machine),
                     _run(small, "batched", **machine))
    result = _run(build(PAPER_DOMAIN), "batched", **machine)
    profile = result.profile
    assert profile.scalar_cycles == 0
    assert (result.cycles, profile.plan_count,
            profile.window_count) == PAPER_PINS[label]
    return result


def test_engine_throughput(monkeypatch):
    """Times nothing, despite the name (kept from the seed): pins the
    paper-domain cycle counts, the planner's call / window counts and
    its virtual-cycle ceilings, scalar parity on the reduced domain
    and kernel replay parity."""
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    single = _row("single", _hdiff)
    # One planner covers the whole run: the fill and drain are a few
    # dozen stretched or drifting windows, the steady state one window
    # per batch cap.
    assert single.profile.window_cycles == single.cycles
    assert single.profile.virtual_cycles <= SINGLE_VIRTUAL_CYCLES_MAX
    assert single.profile.window_count <= SINGLE_WINDOWS_MAX
    # Native compute under ``auto``: the paper-domain machine (28.8 M
    # cell evaluations) binds every unit of the restricted class — all
    # but the two ``smag_*`` units (min / max / sqrt) — when a C
    # compiler exists, and the same run on NumPy alone has the same
    # counts and the same output bits.
    bound = (22, 2) if shutil.which("cc") else (0, 0)
    assert (single.profile.native_units,
            single.profile.native_fallback_units) == bound
    with monkeypatch.context() as numpy_only:
        numpy_only.setenv("REPRO_KERNEL_BACKEND", "python")
        unbound = _run(_hdiff(PAPER_DOMAIN), "batched")
    assert unbound.profile.native_units == 0
    assert (unbound.profile.plan_count, unbound.profile.window_count,
            unbound.profile.virtual_cycles) == (
        single.profile.plan_count, single.profile.window_count,
        single.profile.virtual_cycles)
    _assert_same_run(single, unbound)
    del unbound
    _row("two_device", _hdiff, device_count=2, latency=NETWORK_LATENCY)
    _row("four_device", _hdiff, device_count=4, latency=NETWORK_LATENCY)
    _row("integer", _int_chain)
    fractional = dict(device_count=2, latency=FRACTIONAL_LATENCY,
                      rate=FRACTIONAL_RATE)
    paper = _row("fractional", _hdiff, **fractional).profile
    assert paper.virtual_cycles <= FRACTIONAL_VIRTUAL_CYCLES_MAX
    assert paper.drift_windows > 0

    # The window planner's work on the benchmark's run_links machine:
    # the ramp and drain repeat as drifting windows instead of being
    # stepped cycle by cycle.
    links = _run(_hdiff(RUN_LINKS_DOMAIN), "batched", **fractional)
    assert links.cycles == RUN_LINKS_CYCLES
    assert links.profile.scalar_cycles == 0
    assert links.profile.drift_windows > 0
    assert links.profile.virtual_cycles <= RUN_LINKS_VIRTUAL_CYCLES_MAX
    # Machines this small never spawn a compiler.
    assert links.profile.native_units == 0
    assert _run(_hdiff(EXPLORE_SWEEP_DOMAIN), "batched") \
        .profile.native_units == 0
    # The sweep's machines are planned as cheaply as they are small.
    sweep = _run(horizontal_diffusion(
        shape=EXPLORE_SWEEP_DOMAIN,
        vectorization=EXPLORE_SWEEP_VECTORIZATION), "batched").profile
    assert sweep.scalar_cycles == 0
    assert sweep.virtual_cycles <= EXPLORE_SWEEP_VIRTUAL_CYCLES_MAX

    # The data plane on the same machine, as counts: every word of every
    # stream is stored once (one ring per producing unit, not one per
    # edge: 34 streams feed 70 edges), and one warm run allocates less
    # than RUN_LINKS_PEAK_BYTES (99.7 MiB with per-edge rings, float64
    # input copies and whole-domain coordinates; 18 MiB without).
    program = _hdiff(RUN_LINKS_DOMAIN)
    streams = len(program.inputs) + len(program.stencils)
    assert links.profile.stored_words \
        == streams * (program.num_cells // VECTORIZATION)
    tracemalloc.start()
    try:
        _run(program, "batched", **fractional)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RUN_LINKS_PEAK_BYTES

    # Kernel engine on the paper domain: the cold run records, the warm
    # run replays the compiled pass — same control outcome, bitwise the
    # batched engine's outputs.
    large = _hdiff(PAPER_DOMAIN)
    cold = _run(large, "kernel")
    warm = _run(large, "kernel")
    assert not cold.profile.kernel_cached
    assert warm.profile.kernel_cached
    assert warm.profile.kernel_slabs == len(large.stencils)
    _assert_same_run(single, cold)
    _assert_same_run(single, warm)
