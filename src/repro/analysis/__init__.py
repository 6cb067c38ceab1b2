"""Buffering and scheduling analysis (Sec. IV)."""

from .deadlock import (
    CapacityViolation,
    ChannelKey,
    DeadlockCertificate,
    certify,
    certify_analysis,
    required_capacities,
)
from .delay_buffers import (
    BufferingAnalysis,
    DelayBuffer,
    NodeDelay,
    analyze_buffers,
)
from .tiling import (
    TilingPlan,
    accumulated_halo,
    choose_tiling,
    plan_tiling,
)
from .internal_buffers import (
    InternalBuffer,
    StencilBuffering,
    internal_buffers,
    program_internal_buffers,
)

__all__ = [
    "BufferingAnalysis",
    "CapacityViolation",
    "ChannelKey",
    "DeadlockCertificate",
    "DelayBuffer",
    "InternalBuffer",
    "NodeDelay",
    "StencilBuffering",
    "TilingPlan",
    "accumulated_halo",
    "analyze_buffers",
    "certify",
    "certify_analysis",
    "choose_tiling",
    "internal_buffers",
    "plan_tiling",
    "program_internal_buffers",
    "required_capacities",
]
