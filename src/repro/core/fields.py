"""Field specifications and accesses.

A *field* is a logical input read by a stencil (Sec. II). Fields can be
lower-dimensional than the iteration space — a 3D stencil may read 3D, 2D,
1D, or 0D (scalar) arrays using subsets of its indices, e.g. ``a2[i, k]``
inside an ``[i, j, k]`` iteration space.

An *access* is a constant offset vector relative to the center of the
iteration point, e.g. ``a[i-1, j, k+2]`` has offset ``(-1, 0, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..errors import DefinitionError
from .dtypes import DType, dtype

#: Canonical index variable names, in iteration order (outermost first).
INDEX_NAMES = ("i", "j", "k")


@dataclass(frozen=True)
class FieldSpec:
    """Declaration of one logical input field.

    Attributes:
        name: field identifier used in stencil code.
        dtype: element type.
        dims: tuple of index names the field spans, in iteration order;
            a subset of the program's index names. Empty for scalars (0D).
    """

    name: str
    dtype: DType
    dims: Tuple[str, ...]

    def __post_init__(self):
        if not self.name.isidentifier():
            raise DefinitionError(f"invalid field name: {self.name!r}")
        seen = set()
        for d in self.dims:
            if d not in INDEX_NAMES:
                raise DefinitionError(
                    f"field {self.name!r}: unknown dimension {d!r} "
                    f"(expected one of {INDEX_NAMES})")
            if d in seen:
                raise DefinitionError(
                    f"field {self.name!r}: duplicate dimension {d!r}")
            seen.add(d)
        order = [INDEX_NAMES.index(d) for d in self.dims]
        if order != sorted(order):
            raise DefinitionError(
                f"field {self.name!r}: dimensions must be in iteration "
                f"order {INDEX_NAMES}, got {self.dims}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_scalar(self) -> bool:
        return self.rank == 0

    def shape(self, domain: Sequence[int],
              index_names: Sequence[str]) -> Tuple[int, ...]:
        """Concrete array shape of this field for a given iteration domain.

        Args:
            domain: iteration-space extent per index, outermost first.
            index_names: names of the iteration indices, same length.
        """
        lookup = dict(zip(index_names, domain))
        try:
            return tuple(lookup[d] for d in self.dims)
        except KeyError as exc:
            raise DefinitionError(
                f"field {self.name!r} uses dimension {exc} not present in "
                f"the iteration space {tuple(index_names)}") from None

    @classmethod
    def from_json(cls, name: str, spec: dict) -> "FieldSpec":
        """Build from the JSON input format: ``{"dtype": .., "dims": [..]}``.

        ``dims`` defaults to the full 3D space for backward compatibility
        with the paper's examples where only ``data_type`` is given.
        """
        if not isinstance(spec, dict):
            raise DefinitionError(
                f"input {name!r}: expected an object, got {type(spec).__name__}")
        dt = spec.get("dtype", spec.get("data_type"))
        if dt is None:
            raise DefinitionError(f"input {name!r}: missing 'dtype'")
        dims = tuple(spec.get("dims", list(INDEX_NAMES)))
        return cls(name=name, dtype=dtype(dt), dims=dims)

    def to_json(self) -> dict:
        return {"dtype": self.dtype.name, "dims": list(self.dims)}


@dataclass(frozen=True)
class Access:
    """One constant-offset access to a field.

    The offset vector is expressed in the *field's* dimensions (so a 2D
    field accessed from a 3D stencil has a 2-element offset).
    """

    field: str
    offsets: Tuple[int, ...]

    def __str__(self) -> str:
        if not self.offsets:
            return self.field
        return f"{self.field}[{', '.join(str(o) for o in self.offsets)}]"

    def expand(self, field_dims: Sequence[str],
               index_names: Sequence[str]) -> Tuple[Optional[int], ...]:
        """Expand to the full iteration space, with ``None`` for missing dims.

        >>> Access("a", (1, -2)).expand(("i", "k"), ("i", "j", "k"))
        (1, None, -2)
        """
        by_dim = dict(zip(field_dims, self.offsets))
        return tuple(by_dim.get(d) for d in index_names)


def row_major_strides(domain: Sequence[int]) -> Tuple[int, ...]:
    """Row-major element strides of an iteration domain.

    >>> row_major_strides((4, 8, 8))
    (64, 8, 1)
    """
    strides = [1] * len(domain)
    for axis in range(len(domain) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * domain[axis + 1]
    return tuple(strides)


def unflatten_index(t: int, domain: Sequence[int],
                    strides: Optional[Tuple[int, ...]] = None
                    ) -> Tuple[int, ...]:
    """Invert row-major flattening: linear cell index -> coordinates.

    ``strides`` may be supplied (from :func:`row_major_strides`) to avoid
    recomputation in per-cell loops.

    >>> unflatten_index(13, (4, 8, 8))
    (0, 1, 5)
    """
    coords = []
    for stride in strides or row_major_strides(domain):
        coords.append(t // stride)
        t %= stride
    return tuple(coords)


def flatten_offset(offsets: Sequence[int], domain: Sequence[int]) -> int:
    """Flatten a multi-dimensional offset into a signed linear distance.

    Row-major: the last dimension is contiguous.

    >>> flatten_offset((0, 0, 1), (32, 32, 32))
    1
    >>> flatten_offset((0, 1, 0), (32, 32, 32))
    32
    >>> flatten_offset((-1, 0, 0), (32, 32, 32))
    -1024
    """
    linear = 0
    stride = 1
    for off, extent in zip(reversed(offsets), reversed(list(domain))):
        linear += off * stride
        stride *= extent
    return linear
