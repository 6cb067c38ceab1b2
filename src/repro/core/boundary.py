"""Boundary conditions for out-of-bounds stencil accesses (Sec. II).

Supported conditions:

* ``constant`` — out-of-bounds accesses are replaced with a given constant
  value. Specified per input field.
* ``copy`` — out-of-bounds accesses are replaced by the value at offset 0
  in all dimensions (the "center" value). Specified per input field.
* ``shrink`` — all computed values that read out-of-bounds values are
  ignored in the output. Specified on the stencil's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from ..errors import DefinitionError


@dataclass(frozen=True)
class ConstantBoundary:
    """Replace out-of-bounds reads with ``value``."""

    value: float

    kind = "constant"

    def to_json(self) -> dict:
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class CopyBoundary:
    """Replace out-of-bounds reads with the center value (offset 0)."""

    kind = "copy"

    def to_json(self) -> dict:
        return {"type": "copy"}


InputBoundary = Union[ConstantBoundary, CopyBoundary]


@dataclass(frozen=True)
class BoundaryConditions:
    """The complete boundary specification of one stencil node.

    Either ``shrink`` is set (output-level condition, per-input map empty),
    or every input field with non-center accesses has an entry in
    ``per_input``.
    """

    shrink: bool = False
    per_input: Dict[str, InputBoundary] = None

    def __post_init__(self):
        object.__setattr__(
            self, "per_input",
            dict(self.per_input) if self.per_input else {})
        if self.shrink and self.per_input:
            raise DefinitionError(
                "shrink is an output condition and cannot be combined with "
                "per-input boundary conditions")

    def for_input(self, name: str) -> InputBoundary:
        if self.shrink:
            raise DefinitionError(
                f"stencil uses 'shrink'; no per-input condition for {name!r}")
        try:
            return self.per_input[name]
        except KeyError:
            raise DefinitionError(
                f"no boundary condition specified for input {name!r}"
            ) from None

    def has_input(self, name: str) -> bool:
        return name in self.per_input

    @classmethod
    def from_json(cls, spec) -> "BoundaryConditions":
        """Parse the JSON form.

        Accepts either the string ``"shrink"`` or a per-input object such as
        ``{"a0": {"type": "constant", "value": 1}, "a1": {"type": "copy"}}``.
        A missing spec (``None``) defaults to shrink, the most conservative
        condition.
        """
        if spec is None or spec == "shrink":
            return cls(shrink=True)
        if isinstance(spec, dict) and spec.get("type") == "shrink":
            return cls(shrink=True)
        if not isinstance(spec, dict):
            raise DefinitionError(
                f"invalid boundary condition: {spec!r}")
        per_input = {}
        for name, sub in spec.items():
            per_input[name] = _input_boundary_from_json(name, sub)
        return cls(shrink=False, per_input=per_input)

    def to_json(self):
        if self.shrink:
            return "shrink"
        return {name: bc.to_json() for name, bc in self.per_input.items()}

    def matches(self, other: "BoundaryConditions") -> bool:
        """Whether two stencils have compatible boundary definitions.

        Used as a necessary condition for :class:`StencilFusion`
        (Sec. V-B): fused stencils must agree on boundary handling.
        """
        if self.shrink != other.shrink:
            return False
        shared = set(self.per_input) & set(other.per_input)
        return all(self.per_input[n] == other.per_input[n] for n in shared)


def _input_boundary_from_json(name: str, sub) -> InputBoundary:
    if not isinstance(sub, dict) or "type" not in sub:
        raise DefinitionError(
            f"boundary condition for {name!r} must be an object with 'type'")
    btype = sub["type"]
    if btype == "constant":
        if "value" not in sub:
            raise DefinitionError(
                f"constant boundary for {name!r} requires 'value'")
        return ConstantBoundary(value=sub["value"])
    if btype == "copy":
        return CopyBoundary()
    raise DefinitionError(
        f"unknown boundary condition type {btype!r} for input {name!r}")
