"""Intel-FPGA-OpenCL code generation (Sec. VI, Fig. 12).

Emits annotated OpenCL of the kind the Intel HLS compiler lowers to RTL:

* one ``channel`` declaration per dataflow edge, with the delay-buffer
  depth from the analysis;
* one ``autorun`` kernel per stencil unit, containing the shift /
  update / compute phases over the internal shift-register buffers,
  boundary handling predicated into the pipeline, and a conditional
  write suppressing output during the initialization phase;
* dedicated prefetcher kernels at source nodes and writer kernels at
  sink nodes;
* vectorized data types and unrolled per-lane compute when W > 1.

There is no OpenCL toolchain in this environment, so the output is
validated structurally (tests) and functionally via the cycle-level
simulator, which executes the same machine the code describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.delay_buffers import BufferingAnalysis
from ..lowering import analysis_for
from ..core.fields import flatten_offset
from ..core.program import StencilDefinition, StencilProgram
from ..distributed.partition import Partition
from ..expr import cexpr
from ..expr.ast_nodes import FieldAccess
from ..graph.dag import StencilGraph

#: Minimum hardware FIFO depth added to every computed delay buffer.
MIN_CHANNEL_DEPTH = 8


def channel_name(src: str, dst: str, data: str) -> str:
    return ("chan_" + data + "_"
            + src.replace(":", "_") + "_" + dst.replace(":", "_"))


class OpenCLGenerator:
    """Generates one device's OpenCL source."""

    def __init__(self, program: StencilProgram,
                 analysis: Optional[BufferingAnalysis] = None,
                 partition: Optional[Partition] = None,
                 device: int = 0):
        self.program = program
        self.analysis = analysis or analysis_for(program)
        self.graph: StencilGraph = self.analysis.graph
        self.partition = partition
        self.device = device
        self.width = program.vectorization

    # -- top level -------------------------------------------------------

    def generate(self) -> str:
        parts = [self._header(), self._channel_declarations()]
        for name, spec in self.program.inputs.items():
            if self._on_device(f"input:{name}"):
                parts.append(self._reader_kernel(name))
        for stencil in self.program.stencils:
            if self._on_device(f"stencil:{stencil.name}"):
                parts.append(self._stencil_kernel(stencil))
        for name in self.program.outputs:
            if self._on_device(f"output:{name}"):
                parts.append(self._writer_kernel(name))
        return "\n\n".join(parts) + "\n"

    def _on_device(self, node_id: str) -> bool:
        if self.partition is None:
            return True
        kind, name = node_id.split(":", 1)
        if kind == "stencil":
            return self.partition.device_of[name] == self.device
        if kind == "input":
            consumers = self.graph.successors(node_id)
            return any(self._on_device(c) for c in consumers)
        producers = self.graph.predecessors(node_id)
        return any(self._on_device(p) for p in producers)

    def _is_remote(self, src: str, dst: str) -> bool:
        if self.partition is None:
            return False
        key_src = src.split(":", 1)
        key_dst = dst.split(":", 1)
        if key_src[0] != "stencil" or key_dst[0] != "stencil":
            return False
        return (self.partition.device_of[key_src[1]]
                != self.partition.device_of[key_dst[1]])

    # -- pieces ------------------------------------------------------------

    def _header(self) -> str:
        lines = [
            "// Generated by the StencilFlow reproduction.",
            f"// Program: {self.program.name}, device {self.device}, "
            f"W = {self.width}.",
            "#pragma OPENCL EXTENSION cl_intel_channels : enable",
        ]
        if self._uses_smi():
            lines.append('#include "smi.h"')
        return "\n".join(lines)

    def _uses_smi(self) -> bool:
        return (self.partition is not None
                and not self.partition.is_single_device)

    def _vtype(self, data: str) -> str:
        return self.program.field_dtype(data).vector_ctype(self.width)

    def _channel_declarations(self) -> str:
        lines: List[str] = ["// Dataflow channels (FIFO depths from the "
                            "delay-buffer analysis, Sec. IV-B)."]
        for (src, dst, data), buf in self.analysis.delay_buffers.items():
            src_local = self._on_device(src)
            dst_local = self._on_device(dst)
            if not src_local and not dst_local:
                continue
            depth = buf.size + MIN_CHANNEL_DEPTH
            if self._is_remote(src, dst):
                lines.append(
                    f"// remote stream via SMI: {data} "
                    f"({src} -> {dst}), credits {depth}")
                continue
            lines.append(
                f"channel {self._vtype(data)} "
                f"{channel_name(src, dst, data)} "
                f"__attribute__((depth({depth})));")
        return "\n".join(lines)

    def _reader_kernel(self, name: str) -> str:
        node_id = f"input:{name}"
        out_edges = self.graph.out_edges(node_id)
        vtype = self._vtype(name)
        num_words = self.program.num_cells // self.width
        body = [
            f"__attribute__((max_global_work_dim(0)))",
            f"__kernel void read_{name}(__global const "
            f"{vtype} *restrict mem) {{",
            f"  for (long w = 0; w < {num_words}; ++w) {{",
            f"    {vtype} value = mem[w];",
        ]
        for edge in out_edges:
            body.append(self._emit_push(edge, "value", indent="    "))
        body += ["  }", "}"]
        return "\n".join(body)

    def _writer_kernel(self, name: str) -> str:
        node_id = f"output:{name}"
        (edge,) = self.graph.in_edges(node_id)
        vtype = self._vtype(name)
        num_words = self.program.num_cells // self.width
        pop = self._emit_pop(edge)
        return "\n".join([
            f"__attribute__((max_global_work_dim(0)))",
            f"__kernel void write_{name}(__global {vtype} "
            f"*restrict mem) {{",
            f"  for (long w = 0; w < {num_words}; ++w) {{",
            f"    mem[w] = {pop};",
            f"  }}",
            f"}}",
        ])

    def _emit_push(self, edge, value: str, indent: str) -> str:
        if self._is_remote(edge.src, edge.dst):
            return (f"{indent}SMI_Push(&smi_{edge.data}_"
                    f"{self.partition.device_of[edge.dst.split(':')[1]]}"
                    f", &{value});")
        return (f"{indent}write_channel_intel("
                f"{channel_name(edge.src, edge.dst, edge.data)}, "
                f"{value});")

    def _emit_pop(self, edge) -> str:
        if self._is_remote(edge.src, edge.dst):
            return f"smi_pop_{edge.data}()"
        return (f"read_channel_intel("
                f"{channel_name(edge.src, edge.dst, edge.data)})")

    # -- the stencil unit -----------------------------------------------------

    def _stencil_kernel(self, stencil: StencilDefinition) -> str:
        program = self.program
        width = self.width
        node_id = f"stencil:{stencil.name}"
        graph = self.graph
        domain = program.shape
        num_words = program.num_cells // width
        buffering = self.analysis.internal[stencil.name]

        in_edges = {e.data: e for e in graph.in_edges(node_id)}
        out_edges = graph.out_edges(node_id)
        ctype = program.field_dtype(stencil.name).ctype

        # Buffer geometry per field (size W for single-access fields).
        buffer_size: Dict[str, int] = {}
        min_flat: Dict[str, int] = {}
        for field in stencil.accessed_fields:
            buf = buffering.buffers.get(field)
            if buf is not None:
                buffer_size[field] = buf.size
            else:
                buffer_size[field] = width
            dims = stencil.access_dims[field]
            field_domain = [
                dict(zip(program.index_names, domain))[d] for d in dims]
            flats = [flatten_offset(off, field_domain)
                     for off in stencil.accesses[field]]
            min_flat[field] = min(flats) if flats else 0

        init_words = buffering.init_cycles(width)
        lines: List[str] = [
            f"// Stencil unit {stencil.name}: init {init_words} words, "
            f"compute latency "
            f"{self.analysis.node_delays[node_id].compute_cycles} cycles.",
            "__attribute__((max_global_work_dim(0)))",
            "__attribute__((autorun))",
            f"__kernel void stencil_{stencil.name}() {{",
        ]
        for field in stencil.accessed_fields:
            ftype = program.field_dtype(field).ctype
            lines.append(
                f"  {ftype} buffer_{field}[{buffer_size[field]}];"
                f"  // shift register")
        lines.append(
            f"  for (long t = 0; t < {init_words + num_words}; ++t) {{")

        # Shift phase (fully unrolled).
        lines.append("    // -- shift phase --")
        for field in stencil.accessed_fields:
            size = buffer_size[field]
            if size <= width:
                continue
            lines += [
                "    #pragma unroll",
                f"    for (int s = {size - 1}; s >= {width}; --s) "
                f"buffer_{field}[s] = buffer_{field}[s - {width}];",
            ]

        # Update phase: pop one word per live input stream.
        lines.append("    // -- update phase --")
        for field in stencil.accessed_fields:
            edge = in_edges[field]
            ftype = program.field_dtype(field)
            vtype = ftype.vector_ctype(width)
            lines += [
                f"    if (t < {num_words}) {{",
                f"      {vtype} word_{field} = {self._emit_pop(edge)};",
            ]
            if width == 1:
                lines.append(
                    f"      buffer_{field}[0] = word_{field};")
            else:
                lines += [
                    "      #pragma unroll",
                    f"      for (int v = 0; v < {width}; ++v) "
                    f"buffer_{field}[v] = word_{field}[v];",
                ]
            lines.append("    }")

        # Compute phase, vector-unrolled, boundary-predicated.
        lines += [
            "    // -- compute phase --",
            f"    if (t >= {init_words}) {{",
            f"      {program.field_dtype(stencil.name).vector_ctype(width)}"
            f" result;",
            "      #pragma unroll",
            f"      for (int v = 0; v < {width}; ++v) {{",
            f"        long cell = (t - {init_words}) * {width} + v;",
        ]
        lines += self._coords(domain)
        lines += self._compute_cell(stencil, buffer_size, min_flat)
        if width == 1:
            lines.append("        result = value;")
        else:
            lines.append("        result[v] = value;")
        lines.append("      }")
        for edge in out_edges:
            lines.append(self._emit_push(edge, "result", indent="      "))
        lines += ["    }", "  }", "}"]
        return "\n".join(lines)

    def _coords(self, domain) -> List[str]:
        names = self.program.index_names
        lines = []
        stride = 1
        strides = []
        for extent in reversed(domain):
            strides.append(stride)
            stride *= extent
        strides.reverse()
        rest = "cell"
        for name, s, extent in zip(names, strides, domain):
            lines.append(f"        const long {name} = ({rest}) / {s};")
            rest = f"cell % {s}" if s > 1 else "0"
        return lines

    def _compute_cell(self, stencil: StencilDefinition,
                      buffer_size: Dict[str, int],
                      min_flat: Dict[str, int]) -> List[str]:
        program = self.program
        domain = dict(zip(program.index_names, program.shape))
        lines: List[str] = []
        taps: Dict[FieldAccess, str] = {}
        counter = 0
        for node in stencil.ast.walk():
            if not isinstance(node, FieldAccess) or node in taps:
                continue
            var = f"tap_{counter}"
            counter += 1
            taps[node] = var
            field_domain = [domain[d] for d in node.dims]
            flat = flatten_offset(node.offsets, field_domain)
            position = flat - min_flat[node.field]
            # The newest element sits at index v (lane offset).
            index = f"{buffer_size[node.field] - 1 - position} - v" \
                if self.width > 1 else f"{position}"
            raw = f"buffer_{node.field}[{index}]"
            guard = self._bounds_guard(node)
            ftype = program.field_dtype(node.field).ctype
            if guard is None:
                lines.append(f"        const {ftype} {var} = {raw};")
            else:
                fallback = self._boundary_value(stencil, node,
                                                buffer_size, min_flat)
                lines.append(
                    f"        const {ftype} {var} = ({guard}) ? {raw} "
                    f": {fallback};")
        body = cexpr.render(stencil.ast, lambda a: taps[a])
        ctype = program.field_dtype(stencil.name).ctype
        lines.append(f"        const {ctype} value = {body};")
        return lines

    def _bounds_guard(self, access: FieldAccess) -> Optional[str]:
        domain = dict(zip(self.program.index_names, self.program.shape))
        terms = []
        for dim, off in zip(access.dims, access.offsets):
            if off < 0:
                terms.append(f"{dim} >= {-off}")
            elif off > 0:
                terms.append(f"{dim} < {domain[dim] - off}")
        if not terms:
            return None
        return " && ".join(terms)

    def _boundary_value(self, stencil: StencilDefinition,
                        access: FieldAccess,
                        buffer_size: Dict[str, int],
                        min_flat: Dict[str, int]) -> str:
        if stencil.boundary.shrink:
            # Shrink: the value is never used in a retained output cell.
            return "0.0f /* shrink: discarded */"
        condition = stencil.boundary.for_input(access.field)
        if condition.kind == "constant":
            return f"{float(condition.value)!r}f"
        # copy: the center element of the same field.
        position = -min_flat[access.field]
        if self.width > 1:
            return (f"buffer_{access.field}"
                    f"[{buffer_size[access.field] - 1 - position} - v]")
        return f"buffer_{access.field}[{position}]"


def generate_opencl(program: StencilProgram,
                    analysis: Optional[BufferingAnalysis] = None,
                    partition: Optional[Partition] = None,
                    device: int = 0) -> str:
    """Generate one device's annotated OpenCL source."""
    return OpenCLGenerator(program, analysis, partition, device).generate()
