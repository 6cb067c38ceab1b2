"""Performance modeling: Eq. 1, arithmetic intensity, rooflines."""

from .comparison import (
    PlatformResult,
    fpga_result,
    hdiff_comparison_table,
    loadstore_result,
)
from .intensity import (
    OperandTraffic,
    arithmetic_intensity_ops_per_byte,
    arithmetic_intensity_ops_per_operand,
    arithmetic_ops_per_cell,
    operand_traffic,
    operands_per_cycle,
    program_census,
    total_ops_per_cell,
)
from .pipeline import (
    PerformanceReport,
    model_multi_device,
    model_performance,
)
from .roofline import required_bandwidth_gbs, roofline_gops

__all__ = [
    "OperandTraffic",
    "PerformanceReport",
    "PlatformResult",
    "arithmetic_intensity_ops_per_byte",
    "arithmetic_intensity_ops_per_operand",
    "arithmetic_ops_per_cell",
    "fpga_result",
    "hdiff_comparison_table",
    "loadstore_result",
    "model_multi_device",
    "model_performance",
    "operand_traffic",
    "operands_per_cycle",
    "program_census",
    "required_bandwidth_gbs",
    "roofline_gops",
    "total_ops_per_cell",
]
