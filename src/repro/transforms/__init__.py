"""Program transformations (Sec. V)."""

from .canonicalize import canonicalize, fold_program
from .shift import shift_expr, substitute_field
from .stencil_fusion import (
    aggressive_fusion,
    can_fuse,
    fuse,
    fusion_candidates,
)

__all__ = [
    "aggressive_fusion",
    "can_fuse",
    "canonicalize",
    "fold_program",
    "fuse",
    "fusion_candidates",
    "shift_expr",
    "substitute_field",
]
