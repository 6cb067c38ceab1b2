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
by machine size, and never moving a pin).

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
from repro.lowering import reset_default_cache
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
    "single": (166470, 59, 59),
    "two_device": (166534, 75, 75),
    "four_device": (166662, 89, 89),
    "integer": (163918, 53, 53),
    "fractional": (499229, 90, 90),
}

#: Planner work ceilings, in virtual cycles (parent commit of the
#: timed-FIFO congruence rule: 19 531 and 4 159 on the first two; at
#: the 48-cycle stretch floor 1 607, 1 481, 455 and 358; today, at 32,
#: 1 286, 1 100, 297 and 261) and in windows (today 59).
FRACTIONAL_VIRTUAL_CYCLES_MAX = 1500
RUN_LINKS_VIRTUAL_CYCLES_MAX = 1300
SINGLE_VIRTUAL_CYCLES_MAX = 400
SINGLE_WINDOWS_MAX = 64
EXPLORE_SWEEP_VIRTUAL_CYCLES_MAX = 350
#: The end-to-end benchmark's ``run_links`` machine
#: (``benchmarks/e2e/workloads.json``): same wire, smaller domain.
RUN_LINKS_DOMAIN = (64, 64, 32)
RUN_LINKS_CYCLES = 50717
#: ``tracemalloc`` ceiling of one warm ``simulate`` on that machine.
RUN_LINKS_PEAK_BYTES = 40 * 2 ** 20
#: The ``explore_sweep`` workload's domain and its most common width
#: (its sweep makes control runs only, which bind nothing).
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
    # Build hdiff's native object first, and wait for it: ``native``
    # binds a machine of any size and joins the ``cc`` build.  The
    # object's source does not depend on the domain, so the ``auto``
    # runs below bind it from their first chunk, however long ``cc``
    # takes; without the wait a unit counts as native only if the
    # background build lands before the run's last chunk.
    with monkeypatch.context() as native:
        native.setenv("REPRO_KERNEL_BACKEND", "native")
        _run(_hdiff(SCALAR_DOMAIN), "batched")
    # The planner counts below are the planner's, not a replay of an
    # earlier test's published schedule.
    reset_default_cache()
    single = _row("single", _hdiff)
    # One planner covers the whole run: the fill and drain are a few
    # dozen stretched or drifting windows, the steady state one window
    # per batch cap.
    assert single.profile.window_cycles == single.cycles
    assert single.profile.virtual_cycles <= SINGLE_VIRTUAL_CYCLES_MAX
    assert single.profile.window_count <= SINGLE_WINDOWS_MAX
    # Native compute under ``auto``: the paper-domain machine (28.8 M
    # cell evaluations) considers all 24 units and binds every unit of
    # the restricted class — all but the two ``smag_*`` units (min /
    # max / sqrt) — when a C compiler exists, from its first chunk; the
    # same run on NumPy alone has the same counts and the same output
    # bits.
    bound = (22, 2) if shutil.which("cc") else (0, 24)
    assert (single.profile.native_units,
            single.profile.native_fallback_units) == bound
    assert single.profile.native_pending_chunks == 0
    reset_default_cache()  # NumPy alone plans alike, not only replays
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
    # Machines this size bind too (2.9 M and 1.6 M cell evaluations,
    # above the 1.4 M floor), and start on kernels: hdiff's object,
    # built above, does not depend on the domain or the device count.
    assert (links.profile.native_units,
            links.profile.native_fallback_units) == bound
    assert links.profile.native_pending_chunks == 0
    assert (_run(_hdiff(EXPLORE_SWEEP_DOMAIN), "batched").profile
            .native_units, links.profile.native_compile_s) == (bound[0], 0.0)
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
