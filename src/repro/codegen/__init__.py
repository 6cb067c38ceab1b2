"""Code generation: OpenCL kernels, SMI, host code, C reference."""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.delay_buffers import BufferingAnalysis
from ..core.program import StencilProgram
from ..lowering import analysis_for
from ..distributed.partition import Partition
from .host import generate_host
from .opencl import MIN_CHANNEL_DEPTH, OpenCLGenerator, generate_opencl
from .reference_c import generate_reference_c
from .smi import (
    SMIPort,
    assign_ports,
    generate_device_smi,
    generate_smi_header,
    routing_table,
)


def generate_package(program: StencilProgram,
                     analysis: Optional[BufferingAnalysis] = None,
                     partition: Optional[Partition] = None
                     ) -> Dict[str, str]:
    """Generate the complete code package for a program.

    Returns a mapping from file name to source text: one OpenCL file
    per device, the host program, SMI headers when the design spans
    devices, and the sequential C reference.
    """
    analysis = analysis or analysis_for(program)
    files: Dict[str, str] = {}
    devices = partition.num_devices if partition else 1
    for device in range(devices):
        files[f"{program.name}_device{device}.cl"] = generate_opencl(
            program, analysis, partition, device)
    files["host.cpp"] = generate_host(program, partition)
    files["reference.c"] = generate_reference_c(program)
    if partition is not None and not partition.is_single_device:
        files["smi.h"] = generate_smi_header(partition)
        for device in range(devices):
            files[f"smi_device{device}.cl"] = generate_device_smi(
                partition, device)
    return files


__all__ = [
    "MIN_CHANNEL_DEPTH",
    "OpenCLGenerator",
    "SMIPort",
    "assign_ports",
    "generate_device_smi",
    "generate_host",
    "generate_opencl",
    "generate_package",
    "generate_reference_c",
    "generate_smi_header",
    "routing_table",
]
