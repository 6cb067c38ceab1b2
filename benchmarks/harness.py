"""Shared benchmark machinery for the paper-reproduction tests: chain
scaling points, device filling, and seeded inputs.

Wall-clock performance is not measured here: the end-to-end benchmark
under ``benchmarks/e2e`` (``BENCHMARK.json``) times the program from
outside, and CI's ``bench-regression`` job runs its exact pins.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distributed import partition_fixed
from repro.hardware import STRATIX10, estimate_resources
from repro.perf import model_multi_device, model_performance
from repro.programs import chain
from repro.programs.iterative import SCALING_DOMAIN


def single_device_point(num_stencils: int, kernel: str = "jacobi3d",
                        vectorization: int = 1,
                        ops_per_stencil: Optional[int] = None):
    """Modeled single-device performance of a chain design."""
    program = chain(num_stencils, shape=SCALING_DOMAIN, kernel=kernel,
                    vectorization=vectorization,
                    ops_per_stencil=ops_per_stencil)
    return model_performance(program, STRATIX10)


def multi_device_point(num_stencils: int, num_devices: int,
                       kernel: str = "jacobi3d", vectorization: int = 1,
                       ops_per_stencil: Optional[int] = None):
    """Modeled chain split evenly across ``num_devices`` devices."""
    program = chain(num_stencils, shape=SCALING_DOMAIN, kernel=kernel,
                    vectorization=vectorization,
                    ops_per_stencil=ops_per_stencil)
    per_device = -(-num_stencils // num_devices)
    placement = {f"s{n}": min(n // per_device, num_devices - 1)
                 for n in range(num_stencils)}
    partition = partition_fixed(program, placement)
    return model_multi_device(program, partition, STRATIX10)


def fill_device(kernel: str, vectorization: int = 1,
                ops_per_stencil: Optional[int] = None,
                shape=SCALING_DOMAIN,
                platform=STRATIX10,
                upper: int = 256) -> int:
    """Largest chain length that fits one device (the paper's method of
    growing the chain until the FPGA is fully utilized)."""
    lo, hi = 1, upper
    while lo < hi:
        mid = (lo + hi + 1) // 2
        program = chain(mid, shape=shape, kernel=kernel,
                        vectorization=vectorization,
                        ops_per_stencil=ops_per_stencil)
        if estimate_resources(program, platform).fits:
            lo = mid
        else:
            hi = mid - 1
    return lo


def seeded_inputs(program, seed: int = 0) -> dict:
    """Deterministic random arrays for every program input."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, spec in program.inputs.items():
        shape = spec.shape(program.shape, program.index_names)
        if spec.dtype.is_integer:
            data = rng.integers(0, 8, shape)
        else:
            data = rng.random(shape) if shape else rng.random()
        inputs[name] = np.asarray(data, dtype=spec.dtype.numpy)
    return inputs
