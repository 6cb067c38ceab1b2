"""Core stencil-program definitions: fields, boundaries, programs."""

from .boundary import (
    BoundaryConditions,
    ConstantBoundary,
    CopyBoundary,
)
from .dtypes import (
    DType,
    all_dtypes,
    dtype,
    float16,
    float32,
    float64,
    int8,
    int16,
    int32,
    int64,
    result_type,
)
from .fields import (
    INDEX_NAMES,
    Access,
    FieldSpec,
    flatten_offset,
)
from .program import StencilDefinition, StencilProgram

__all__ = [
    "Access",
    "BoundaryConditions",
    "ConstantBoundary",
    "CopyBoundary",
    "DType",
    "FieldSpec",
    "INDEX_NAMES",
    "StencilDefinition",
    "StencilProgram",
    "all_dtypes",
    "dtype",
    "flatten_offset",
    "float16",
    "float32",
    "float64",
    "int8",
    "int16",
    "int32",
    "int64",
    "result_type",
]
