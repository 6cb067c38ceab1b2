"""Streaming Message Interface (SMI) code generation (Sec. VI-B).

SMI exposes inter-device communication as channels with FIFO semantics,
so remote streams look like on-chip channels in the generated code.
This module emits the per-device SMI artifacts for a partitioned
program: port assignments for every cut edge, the routing table of the
device chain, and channel-descriptor initialization.

When more than one physical link connects two endpoints, a stream can
be split across links and recombined (the paper uses this to raise the
cross-device vectorization width); ``links_per_neighbor`` controls the
split factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..distributed.partition import Partition
from ..errors import CodeGenError


@dataclass(frozen=True)
class SMIPort:
    """One logical SMI port: a cut dataflow edge."""

    port: int
    data: str
    src_stencil: str
    dst_stencil: str
    src_device: int
    dst_device: int
    credits: int


def assign_ports(partition: Partition,
                 credits: int = 64) -> Tuple[SMIPort, ...]:
    """Deterministically number every cut edge as an SMI port."""
    ports: List[SMIPort] = []
    for n, (src, dst, data) in enumerate(partition.cut_edges):
        src_name = src.split(":", 1)[1]
        dst_name = dst.split(":", 1)[1]
        ports.append(SMIPort(
            port=n,
            data=data,
            src_stencil=src_name,
            dst_stencil=dst_name,
            src_device=partition.device_of[src_name],
            dst_device=partition.device_of[dst_name],
            credits=credits,
        ))
    return tuple(ports)


def routing_table(partition: Partition) -> Dict[int, Dict[int, int]]:
    """Next-hop table for the linear device chain.

    ``table[device][destination] = next device``. The testbed chains
    FPGAs through a fully connected optical switch in a sequence
    (Sec. VIII-B), so routing is monotone along the chain.
    """
    n = partition.num_devices
    table: Dict[int, Dict[int, int]] = {}
    for dev in range(n):
        table[dev] = {}
        for dst in range(n):
            if dst == dev:
                continue
            table[dev][dst] = dev + 1 if dst > dev else dev - 1
    return table


def generate_smi_header(partition: Partition,
                        links_per_neighbor: int = 2) -> str:
    """Emit the ``smi.h`` shared by all devices of one program."""
    if partition.is_single_device:
        raise CodeGenError("single-device programs do not use SMI")
    ports = assign_ports(partition)
    lines = [
        "// SMI configuration generated by the StencilFlow reproduction.",
        f"// {partition.num_devices} devices, {len(ports)} remote "
        f"streams, {links_per_neighbor} link(s) per neighbor.",
        "#pragma once",
        f"#define SMI_NUM_DEVICES {partition.num_devices}",
        f"#define SMI_NUM_PORTS {len(ports)}",
        f"#define SMI_LINKS_PER_NEIGHBOR {links_per_neighbor}",
        "",
    ]
    for port in ports:
        lines += [
            f"// port {port.port}: {port.data} "
            f"(device {port.src_device} -> {port.dst_device})",
            f"#define SMI_PORT_{port.data.upper()} {port.port}",
            f"#define SMI_CREDITS_{port.data.upper()} {port.credits}",
        ]
    lines.append("")
    table = routing_table(partition)
    lines.append("// next-hop routing (linear chain)")
    for dev in sorted(table):
        hops = ", ".join(f"[{dst}] = {nxt}"
                         for dst, nxt in sorted(table[dev].items()))
        lines.append(f"// device {dev}: {hops}")
    return "\n".join(lines) + "\n"


def generate_device_smi(partition: Partition, device: int) -> str:
    """Emit the per-device SMI channel setup source."""
    ports = [p for p in assign_ports(partition)
             if device in (p.src_device, p.dst_device)]
    lines = [
        f"// SMI channel descriptors for device {device}.",
        '#include "smi.h"',
        "",
    ]
    for port in ports:
        if port.src_device == device:
            lines.append(
                f"SMI_Channel smi_{port.data}_{port.dst_device} = "
                f"SMI_Open_send_channel({port.port}, SMI_FLOAT, "
                f"{port.dst_device}, SMI_CREDITS_{port.data.upper()});")
        else:
            lines.append(
                f"SMI_Channel smi_recv_{port.data} = "
                f"SMI_Open_receive_channel({port.port}, SMI_FLOAT, "
                f"{port.src_device}, SMI_CREDITS_{port.data.upper()});")
    return "\n".join(lines) + "\n"
