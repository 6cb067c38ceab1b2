"""Unified lowering pipeline: staged passes + content-addressed cache.

The single entry point of the stencil-to-hardware flow.  See
``docs/ARCHITECTURE.md`` for the stage list, the artifact keying, and
the cache-invalidation contract.
"""

from .cache import (
    ArtifactCache,
    content_key,
    default_cache,
    reset_default_cache,
)
from .pipeline import (
    LoweredProgram,
    LoweringConfig,
    Pass,
    PassManager,
    PIPELINE_STAGES,
    analysis_for,
    compiled_stencil,
    freeze_placement,
    graph_for,
    lower,
    placement_for,
    platform_content_key,
    program_content_hash,
    remote_edges,
)

__all__ = [
    "ArtifactCache",
    "LoweredProgram",
    "LoweringConfig",
    "PIPELINE_STAGES",
    "Pass",
    "PassManager",
    "analysis_for",
    "compiled_stencil",
    "content_key",
    "default_cache",
    "freeze_placement",
    "graph_for",
    "lower",
    "placement_for",
    "platform_content_key",
    "program_content_hash",
    "remote_edges",
    "reset_default_cache",
]
