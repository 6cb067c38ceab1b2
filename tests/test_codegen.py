"""Unit tests for code generation: OpenCL, SMI, host, C reference."""

import shutil
import subprocess

import pytest

from repro.analysis import analyze_buffers
from repro.codegen import (
    MIN_CHANNEL_DEPTH,
    assign_ports,
    generate_host,
    generate_opencl,
    generate_package,
    generate_reference_c,
    generate_smi_header,
    routing_table,
)
from repro.codegen.opencl import channel_name
from repro.distributed import partition_fixed
from repro.errors import CodeGenError
from repro.programs import (
    available_programs,
    build,
    chain,
    horizontal_diffusion,
)
from repro.simulator import native
from util import lst1_program


class TestOpenCL:
    def test_channel_depths_match_analysis(self):
        program = lst1_program(shape=(16, 16, 16))
        analysis = analyze_buffers(program)
        source = generate_opencl(program, analysis)
        buffer = analysis.buffer_for_edge("stencil:b2", "stencil:b4",
                                          "b2")
        expected = buffer.size + MIN_CHANNEL_DEPTH
        name = channel_name("stencil:b2", "stencil:b4", "b2")
        assert f"{name} __attribute__((depth({expected})))" in source

    def test_kernel_per_stencil(self):
        source = generate_opencl(lst1_program())
        for name in ("b0", "b1", "b2", "b3", "b4"):
            assert f"__kernel void stencil_{name}()" in source

    def test_autorun_annotation(self):
        source = generate_opencl(lst1_program())
        assert source.count("__attribute__((autorun))") == 5

    def test_reader_writer_kernels(self):
        source = generate_opencl(lst1_program())
        assert "__kernel void read_a0" in source
        assert "__kernel void write_b4" in source

    def test_shift_register_phases(self):
        source = generate_opencl(lst1_program())
        assert "// -- shift phase --" in source
        assert "// -- update phase --" in source
        assert "// -- compute phase --" in source
        assert "#pragma unroll" in source

    def test_boundary_predication(self):
        # b3 reads b1 at i±1: guards on i appear in its kernel.
        source = generate_opencl(lst1_program(shape=(16, 16, 16)))
        assert "i >= 1" in source
        assert "i < 15" in source

    def test_constant_boundary_value(self):
        program = chain(1, shape=(8, 8, 8))
        source = generate_opencl(program)
        assert "0.0f" in source

    def test_vectorized_types(self):
        program = lst1_program().with_vectorization(4)
        source = generate_opencl(program)
        assert "float4" in source
        assert "for (int v = 0; v < 4; ++v)" in source

    def test_math_function_spelling(self):
        from repro.core import StencilProgram
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["s"],
            "shape": [8],
            "program": {"s": {"code": "sqrt(max(a[i], 0.0))",
                              "boundary_condition": "shrink"}},
        })
        source = generate_opencl(program)
        assert "sqrt(fmax(" in source


class TestDistributedCodegen:
    def _partition(self):
        program = lst1_program()
        return program, partition_fixed(program, {
            "b0": 0, "b1": 0, "b2": 0, "b3": 1, "b4": 1})

    def test_device_filtering(self):
        program, partition = self._partition()
        dev0 = generate_opencl(program, partition=partition, device=0)
        dev1 = generate_opencl(program, partition=partition, device=1)
        assert "stencil_b0" in dev0 and "stencil_b0" not in dev1
        assert "stencil_b4" in dev1 and "stencil_b4" not in dev0

    def test_remote_streams_use_smi(self):
        program, partition = self._partition()
        dev0 = generate_opencl(program, partition=partition, device=0)
        assert "SMI_Push" in dev0
        assert '#include "smi.h"' in dev0

    def test_smi_header(self):
        _program, partition = self._partition()
        header = generate_smi_header(partition)
        assert "#define SMI_NUM_DEVICES 2" in header
        assert "SMI_PORT_B1" in header

    def test_smi_single_device_rejected(self):
        program = lst1_program()
        single = partition_fixed(program,
                                 {n: 0 for n in program.stencil_names})
        with pytest.raises(CodeGenError):
            generate_smi_header(single)

    def test_ports_deterministic(self):
        _program, partition = self._partition()
        ports = assign_ports(partition)
        assert [p.port for p in ports] == list(range(len(ports)))
        assert {p.data for p in ports} == {"b1", "b2"}

    def test_routing_linear_chain(self):
        program = chain(3, shape=(8, 8, 8))
        partition = partition_fixed(program,
                                    {"s0": 0, "s1": 1, "s2": 2})
        table = routing_table(partition)
        assert table[0][2] == 1
        assert table[2][0] == 1


class TestHostAndReference:
    def test_host_mentions_buffers(self):
        source = generate_host(lst1_program())
        assert "alloc_and_copy" in source
        assert "write_b4" in source

    def test_host_replication_note(self):
        program = lst1_program()
        partition = partition_fixed(program, {
            "b0": 0, "b1": 0, "b2": 1, "b3": 0, "b4": 1})
        source = generate_host(program, partition)
        assert "replicated to 2 devices" in source

    def test_reference_c_structure(self):
        source = generate_reference_c(lst1_program())
        assert "void lst1(" in source
        assert source.count("for (long") >= 15  # 5 stencils x 3 loops
        assert "malloc" in source and "free" in source

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="no C compiler on PATH")
    @pytest.mark.parametrize("name", available_programs())
    def test_reference_c_compiles_on_its_own(self, name, tmp_path):
        # Compilers before GCC 14 only warn about an undeclared
        # function, so the check names that error.
        source = tmp_path / "reference.c"
        source.write_text(generate_reference_c(build(name)))
        subprocess.run(
            ["cc", "-c", *native._CFLAGS,
             "-Werror=implicit-function-declaration",
             "-o", str(tmp_path / "reference.o"), str(source)],
            check=True, capture_output=True, text=True)

    def test_package_contents(self):
        files = generate_package(lst1_program())
        assert set(files) == {"lst1_device0.cl", "host.cpp",
                              "reference.c"}

    def test_package_distributed(self):
        program = lst1_program()
        partition = partition_fixed(program, {
            "b0": 0, "b1": 0, "b2": 0, "b3": 1, "b4": 1})
        files = generate_package(program, partition=partition)
        assert "smi.h" in files
        assert "lst1_device1.cl" in files

    def test_hdiff_generates(self):
        # The full application study program code-generates cleanly.
        files = generate_package(horizontal_diffusion(
            shape=(16, 16, 8), vectorization=8))
        kernel = files["horizontal_diffusion_device0.cl"]
        assert kernel.count("__attribute__((autorun))") == 24
        assert "float8" in kernel
