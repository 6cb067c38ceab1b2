#!/usr/bin/env python3
"""Multi-FPGA scaling: chained iterative stencils across devices.

Recreates the Sec. VIII-C experiment: grow a chain of Jacobi stencils
until one device fills, then continue the chain over 2/4/8 devices
connected by network streams — and, on a reduced domain, actually
*simulate* a two-device execution with SMI-like links to show the
cut streams working.

Run:  python examples/multi_fpga_scaling.py
"""

import numpy as np

from repro.codegen import generate_package
from repro.distributed import partition_fixed, partition_program
from repro.hardware import STRATIX10, estimate_resources
from repro.perf import model_multi_device, model_performance
from repro.programs import chain
from repro.run import run_reference
from repro.simulator import (
    SimulatorConfig,
    resolve_engine_mode,
    simulate,
)


def main():
    # -- modeled scaling sweep (Fig. 14 shape) ---------------------------
    print("single-device scaling (8-Op Jacobi chain, 2^15 x 32 x 32):")
    for stencils in (16, 32, 64, 96, 112):
        program = chain(stencils, kernel="jacobi3d")
        report = model_performance(program, STRATIX10)
        util = report.resources.utilization
        print(f"  {stencils:4d} stencils: {report.gops:7.1f} GOp/s @ "
              f"{report.frequency_mhz:5.1f} MHz, "
              f"ALM {util.alm:5.1%}, DSP {util.dsp:5.1%}")

    print("\nmulti-device scaling (resource-driven partitioning):")
    for devices in (2, 4, 8):
        stencils = 112 * devices
        program = chain(stencils, kernel="jacobi3d")
        partition = partition_program(program, STRATIX10,
                                      max_devices=devices,
                                      fill_fraction=0.9)
        report = model_multi_device(program, partition, STRATIX10)
        print(f"  {devices} devices, {stencils} stencils "
              f"({partition.num_devices} used): "
              f"{report.gops:7.1f} GOp/s @ {report.frequency_mhz:.0f} MHz")

    # -- a real two-device simulation on a small domain -------------------
    print("\nsimulating a 2-device chain (6 stencils, 8x16x16 domain):")
    program = chain(6, shape=(8, 16, 16))
    placement = {f"s{n}": 0 if n < 3 else 1 for n in range(6)}
    partition = partition_fixed(program, placement)
    print(f"  cut edges: {[key[2] for key in partition.cut_edges]}")

    # A deep wire shows off the batched engine's lifted in-flight
    # bound: link batches are sized by channel capacity, not by the
    # 64-cycle latency ("auto" selects the batched engine for
    # multi-device runs too).
    config = SimulatorConfig(network_latency=64)
    engine = resolve_engine_mode(config)
    print(f"  engine: {engine} (network latency "
          f"{config.network_latency} cycles)")

    rng = np.random.default_rng(0)
    inputs = {"inp": rng.random((8, 16, 16), dtype=np.float32)}
    result = simulate(program, inputs, config, device_of=placement)
    reference = run_reference(program, inputs, keep=("s5",))["s5"]
    ok = np.allclose(result.outputs["s5"], reference.data, rtol=1e-5)
    print(f"  simulated {result.cycles} cycles "
          f"(model: {result.expected_cycles}); outputs match "
          f"reference: {ok}")

    # -- generated code for the distributed design -----------------------
    files = generate_package(program, partition=partition)
    print(f"\ngenerated distributed code package: {sorted(files)}")
    print("  (per-device OpenCL, SMI header + descriptors, host code)")


if __name__ == "__main__":
    main()
