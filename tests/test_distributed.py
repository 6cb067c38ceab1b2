"""Unit tests for multi-device partitioning."""

import pytest

from repro.distributed import (
    check_network_feasible,
    contiguous_device_split,
    edge_latency_map,
    partition_fixed,
    partition_program,
)
from repro.errors import MappingError
from repro.hardware import STRATIX10
from repro.programs import chain, horizontal_diffusion
from util import lst1_program


class TestPartitionFixed:
    def test_cut_edges(self):
        program = chain(4, shape=(16, 8, 8))
        partition = partition_fixed(
            program, {"s0": 0, "s1": 0, "s2": 1, "s3": 1})
        assert partition.num_devices == 2
        assert partition.cut_edges == (
            ("stencil:s1", "stencil:s2", "s1"),)

    def test_stencils_on(self):
        program = chain(4, shape=(16, 8, 8))
        partition = partition_fixed(
            program, {"s0": 0, "s1": 0, "s2": 1, "s3": 1})
        assert partition.stencils_on(0) == ("s0", "s1")
        assert partition.stencils_on(1) == ("s2", "s3")

    def test_missing_stencil_rejected(self):
        program = chain(3, shape=(16, 8, 8))
        with pytest.raises(MappingError, match="missing"):
            partition_fixed(program, {"s0": 0})

    def test_replicated_inputs(self):
        # lst1's a2 is read by b1 and b2; placing them on different
        # devices forces replication (Fig. 5).
        program = lst1_program()
        partition = partition_fixed(program, {
            "b0": 0, "b1": 0, "b2": 1, "b3": 0, "b4": 1})
        assert partition.replicated_inputs["a2"] == (0, 1)
        assert partition.replicated_inputs["a0"] == (0,)

    def test_single_device(self):
        program = chain(2, shape=(16, 8, 8))
        partition = partition_fixed(program, {"s0": 0, "s1": 0})
        assert partition.is_single_device
        assert partition.cut_edges == ()

    def test_link_operands(self):
        program = chain(4, shape=(16, 8, 8), vectorization=4)
        partition = partition_fixed(
            program, {"s0": 0, "s1": 0, "s2": 1, "s3": 1})
        # One cut stream at W=4.
        assert partition.required_link_operands_per_cycle() == 4


class TestPartitionProgram:
    def test_small_program_single_device(self):
        partition = partition_program(lst1_program(), STRATIX10)
        assert partition.is_single_device

    def test_large_chain_spans_devices(self):
        program = chain(150, shape=(256, 32, 32), vectorization=8)
        partition = partition_program(program, STRATIX10, max_devices=8)
        assert partition.num_devices > 1
        # Chain order is preserved: devices are monotone along the chain.
        devices = [partition.device_of[f"s{n}"] for n in range(150)]
        assert devices == sorted(devices)

    def test_max_devices_enforced(self):
        program = chain(150, shape=(256, 32, 32), vectorization=8)
        with pytest.raises(MappingError, match="more than 1 device"):
            partition_program(program, STRATIX10, max_devices=1)

    def test_hdiff_fits_one_device(self):
        partition = partition_program(
            horizontal_diffusion(vectorization=8), STRATIX10)
        assert partition.is_single_device


class TestNetwork:
    def test_edge_latency_map(self):
        program = chain(2, shape=(16, 8, 8))
        partition = partition_fixed(program, {"s0": 0, "s1": 1})
        latencies = edge_latency_map(partition, 32)
        assert latencies == {("stencil:s0", "stencil:s1", "s0"): 32}

    def test_feasible_low_width(self):
        program = chain(2, shape=(16, 8, 8))
        partition = partition_fixed(program, {"s0": 0, "s1": 1})
        headroom = check_network_feasible(partition, STRATIX10, 300.0)
        assert headroom > 1.0

    def test_infeasible_high_width(self):
        program = chain(2, shape=(16, 8, 16), vectorization=16)
        partition = partition_fixed(program, {"s0": 0, "s1": 1})
        # 16 operands/cycle > ~8 available on two 40 Gbit/s links.
        with pytest.raises(MappingError, match="network-bound"):
            check_network_feasible(partition, STRATIX10, 300.0)

    def test_no_cuts_infinite_headroom(self):
        program = chain(2, shape=(16, 8, 8))
        partition = partition_fixed(program, {"s0": 0, "s1": 0})
        assert check_network_feasible(partition) == float("inf")

    def test_links_are_priced_at_the_stream_element_size(self):
        # The int64 image pipeline moves 8-byte pixels: the same cut
        # typed float32 has twice the headroom on the same links.
        from repro.core import StencilProgram
        from repro.programs import image_pipeline
        from repro.perf import model_multi_device
        wide = image_pipeline(shape=(32, 32))
        spec = wide.to_json()
        for declared in spec["inputs"].values():
            declared["dtype"] = "float32"
        narrow = StencilProgram.from_json(spec)
        assert wide.field_dtype("blur").bytes == 8
        assert narrow.field_dtype("blur").bytes == 4
        device_of = contiguous_device_split(wide, 2)
        cut_wide = partition_fixed(wide, device_of)
        cut_narrow = partition_fixed(narrow, device_of)
        assert cut_wide.cut_edges == cut_narrow.cut_edges
        assert (cut_wide.link_element_bytes,
                cut_narrow.link_element_bytes) == (8, 4)
        assert check_network_feasible(cut_wide) == pytest.approx(
            check_network_feasible(cut_narrow) / 2)
        # An explicit size still overrides the stream's.
        assert check_network_feasible(cut_wide, element_bytes=4) \
            == check_network_feasible(cut_narrow)

        # The throughput model throttles on the same arithmetic: once
        # the links bind, int64 streams run at half the float32 rate.
        def factor(program):
            vectorized = program.with_vectorization(8)
            report = model_multi_device(
                vectorized, partition_fixed(vectorized, device_of),
                check_network=False)
            return report.memory_throughput_factor

        assert factor(narrow) < 1.0
        assert factor(wide) == pytest.approx(factor(narrow) / 2)
