"""Stencil-program definition (Sec. II).

A *stencil program* is a directed acyclic graph of stencil operations on a
structured grid. Each node is either a stencil performed on the full
output domain or a memory container; edges are dependencies. Each stencil
takes one or more inputs (off-chip memory or previous stencils) and
produces exactly one output.

:class:`StencilProgram` is the in-memory form of the JSON input format
(Lst. 1 of the paper); :mod:`repro.graph` turns it into an explicit DAG.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping, Tuple

from ..errors import DefinitionError
from ..expr import analysis as expr_analysis, cse as expr_cse
from ..expr.ast_nodes import Expr, unparse
from ..expr.parser import parse as parse_expr
from .boundary import BoundaryConditions
from .dtypes import DType
from .fields import INDEX_NAMES, FieldSpec


@dataclass(frozen=True)
class StencilDefinition:
    """One stencil node of the program.

    Attributes:
        name: the stencil's output name (each stencil produces exactly one
            output, named after the node).
        code: the source text of the per-cell computation.
        ast: the parsed expression.
        boundary: boundary-condition specification.

    Everything derived from ``ast`` is a *fact* of this frozen object:
    computed on first use and kept on the instance for its lifetime
    (``docs/ARCHITECTURE.md``, "Program facts").  Readers must treat
    the returned containers as read-only.
    """

    # ``cached_property`` takes no lock on Python >= 3.12: two threads
    # racing on a first access may both compute the value.  Facts are
    # pure functions of a frozen object, so the duplicates are equal
    # and either may win.

    name: str
    code: str
    ast: Expr
    boundary: BoundaryConditions

    @cached_property
    def accessed_fields(self) -> Tuple[str, ...]:
        """Names of all fields this stencil reads, sorted."""
        return tuple(sorted(expr_analysis.accessed_fields(self.ast)))

    @cached_property
    def accesses(self) -> Dict[str, List[Tuple[int, ...]]]:
        """Distinct offsets per accessed field (field-local dims)."""
        return expr_analysis.field_accesses(self.ast)

    @cached_property
    def access_dims(self) -> Dict[str, Tuple[str, ...]]:
        """Index dimensions used to subscript each accessed field."""
        return expr_analysis.field_access_dims(self.ast)

    @cached_property
    def census(self) -> expr_analysis.OpCensus:
        """Syntactic operation census of one evaluation (Sec. IX-A)."""
        return expr_analysis.census(self.ast)

    @cached_property
    def census_cse(self) -> expr_analysis.OpCensus:
        """Operation census after common-subexpression sharing — the
        hardware the HLS compiler builds."""
        return expr_cse.census_after_cse(self.ast)

    @cached_property
    def canonical_code(self) -> str:
        """``code`` normalized through the AST printer."""
        return unparse(self.ast)

    def extent(self) -> Dict[str, Tuple[int, int]]:
        """Min/max offset per *iteration* dimension across all accesses.

        Used to compute the shrink region and halo requirements.
        """
        lo_hi = {d: (0, 0) for d in INDEX_NAMES}
        for name, offsets in self.accesses.items():
            dims = self.access_dims[name]
            for off in offsets:
                for d, o in zip(dims, off):
                    lo, hi = lo_hi[d]
                    lo_hi[d] = (min(lo, o), max(hi, o))
        return lo_hi


@dataclass(frozen=True)
class StencilProgram:
    """A complete stencil program.

    Attributes:
        inputs: declaration of every off-chip input field.
        outputs: names of stencil results written back to off-chip memory.
        shape: iteration-space extent, outermost dimension first
            (1, 2, or 3 dimensions).
        stencils: the stencil nodes, in definition order.
        vectorization: SIMD width W applied to the innermost dimension
            (Sec. IV-C). Must divide the innermost extent.
        name: optional program name (used in generated code).
    """

    inputs: Dict[str, FieldSpec]
    outputs: Tuple[str, ...]
    shape: Tuple[int, ...]
    stencils: Tuple[StencilDefinition, ...]
    vectorization: int = 1
    name: str = "stencil_program"

    def __post_init__(self):
        _validate_program(self)

    # -- convenience accessors ---------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def index_names(self) -> Tuple[str, ...]:
        """Iteration index names for this program's rank.

        3D programs iterate ``(i, j, k)``; 2D ``(i, j)``; 1D ``(i,)``.
        """
        return INDEX_NAMES[:self.rank]

    @property
    def num_cells(self) -> int:
        """Number of points in the iteration space."""
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    @property
    def stencil_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.stencils)

    @cached_property
    def _by_name(self) -> Dict[str, StencilDefinition]:
        return {s.name: s for s in self.stencils}

    @cached_property
    def _dtypes(self) -> Dict[str, DType]:
        """Element type of every data container: one inference pass
        over the stencils, in definition order."""
        # Deferred: the typechecker imports this package's dtypes.
        from ..expr.typecheck import infer_type
        types = {n: f.dtype for n, f in self.inputs.items()}
        for stencil in self.stencils:
            types[stencil.name] = infer_type(stencil.ast, types)
        return types

    @cached_property
    def _consumers(self) -> Dict[str, Tuple[str, ...]]:
        """Data container -> the stencils reading it, program order."""
        readers: Dict[str, List[str]] = {}
        for stencil in self.stencils:
            for field_name in stencil.accessed_fields:
                readers.setdefault(field_name, []).append(stencil.name)
        return {name: tuple(names) for name, names in readers.items()}

    @cached_property
    def content_hash(self) -> str:
        """Content address of the program's canonical JSON description.

        Stencil expressions are normalized through the AST printer, so
        formatting differences — including the rewritten-but-equal text
        a no-op transform produces — do not change the identity: a
        fusion or canonicalization pass that leaves a program
        semantically unchanged hashes to the same artifact keys.
        """
        return _content_hash(self, self.vectorization)

    @cached_property
    def family_hash(self) -> str:
        """:attr:`content_hash` with the vectorization normalized to 1
        — the identity measurement caches use, where the width is a
        configuration axis rather than program identity."""
        if self.vectorization == 1:
            return self.content_hash
        return _content_hash(self, 1)

    def stencil(self, name: str) -> StencilDefinition:
        try:
            return self._by_name[name]
        except KeyError:
            raise DefinitionError(f"no stencil named {name!r}") from None

    def consumers_of(self, name: str) -> Tuple[str, ...]:
        """Stencils that read data container ``name``."""
        return self._consumers.get(name, ())

    def field_dims(self, name: str) -> Tuple[str, ...]:
        """Dimension names of a data container (input or stencil result).

        Stencil results always span the full iteration space.
        """
        if name in self.inputs:
            return self.inputs[name].dims
        if name in self._by_name:
            return self.index_names
        raise DefinitionError(f"unknown data container {name!r}")

    def field_dtype(self, name: str) -> DType:
        """Element type of a data container.

        Stencil results are typed by inference over their expression.
        """
        if name in self.inputs:
            return self.inputs[name].dtype
        if name in self._by_name:
            return self._dtypes[name]
        raise DefinitionError(f"unknown data container {name!r}")

    def with_vectorization(self, width: int) -> "StencilProgram":
        """A copy of the program with a different vectorization factor
        (sharing this program's stencil objects, and so their facts)."""
        return replace(self, vectorization=width)

    def with_shape(self, shape) -> "StencilProgram":
        """A copy of the program over a different iteration domain.

        The rank must match the original program (stencil subscripts
        are written against its index names); the copy is rebuilt from
        the JSON form so all derived structures stay consistent.
        """
        spec = self.to_json()
        spec["shape"] = [int(extent) for extent in shape]
        if len(spec["shape"]) != self.rank:
            raise DefinitionError(
                f"with_shape: expected rank {self.rank}, "
                f"got shape {tuple(shape)}")
        return type(self).from_json(spec)

    # -- JSON serialization --------------------------------------------------

    @classmethod
    def from_json(cls, spec: Mapping) -> "StencilProgram":
        """Build a program from the paper's JSON input format (Lst. 1)."""
        try:
            raw_inputs = spec["inputs"]
            raw_outputs = spec["outputs"]
            raw_shape = spec["shape"]
            raw_program = spec["program"]
        except KeyError as exc:
            raise DefinitionError(f"missing top-level key {exc}") from None
        inputs = {name: FieldSpec.from_json(name, sub)
                  for name, sub in raw_inputs.items()}
        shape = tuple(int(x) for x in raw_shape)
        index_names = INDEX_NAMES[:len(shape)]
        field_dims = {name: f.dims for name, f in inputs.items()}
        # Stencil results span the full space; register them so the parser
        # can check subscripts.
        for name in raw_program:
            field_dims[name] = index_names
        stencils = []
        for name, sub in raw_program.items():
            if isinstance(sub, str):
                sub = {"code": sub}
            if "code" not in sub:
                raise DefinitionError(f"stencil {name!r}: missing 'code'")
            code = sub["code"]
            ast = parse_expr(code, field_dims, index_names)
            boundary = BoundaryConditions.from_json(
                sub.get("boundary_condition"))
            stencils.append(StencilDefinition(name, code, ast, boundary))
        return cls(
            inputs=inputs,
            outputs=tuple(raw_outputs),
            shape=shape,
            stencils=tuple(stencils),
            vectorization=int(spec.get("vectorization", 1)),
            name=spec.get("name", "stencil_program"),
        )

    @classmethod
    def from_json_file(cls, path) -> "StencilProgram":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    @classmethod
    def from_json_string(cls, text: str) -> "StencilProgram":
        return cls.from_json(json.loads(text))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inputs": {n: f.to_json() for n, f in self.inputs.items()},
            "outputs": list(self.outputs),
            "shape": list(self.shape),
            "vectorization": self.vectorization,
            "program": {
                s.name: {
                    "code": s.code,
                    "boundary_condition": s.boundary.to_json(),
                }
                for s in self.stencils
            },
        }

    def to_json_string(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)


def _content_hash(program: StencilProgram, width: int) -> str:
    # Deferred: repro.lowering imports this module.
    from ..lowering.cache import content_key
    spec = program.to_json()
    for stencil in program.stencils:
        spec["program"][stencil.name]["code"] = stencil.canonical_code
    spec["vectorization"] = width
    return content_key("program", spec)


def _validate_program(program: StencilProgram):
    """Structural validation applied at construction time."""
    if not 1 <= len(program.shape) <= 3:
        raise DefinitionError(
            f"stencil programs have 1, 2, or 3 dimensions, got shape "
            f"{program.shape}")
    if any(extent <= 0 for extent in program.shape):
        raise DefinitionError(f"non-positive domain extent: {program.shape}")
    if program.vectorization < 1:
        raise DefinitionError(
            f"vectorization factor must be >= 1, got {program.vectorization}")
    if program.shape[-1] % program.vectorization != 0:
        raise DefinitionError(
            f"vectorization {program.vectorization} must divide the "
            f"innermost extent {program.shape[-1]}")
    if not program.stencils:
        raise DefinitionError("program has no stencils")
    if not program.outputs:
        raise DefinitionError("program has no outputs")

    index_names = program.index_names
    by_name = program._by_name
    names_seen = set(program.inputs)
    for spec in program.inputs.values():
        for d in spec.dims:
            if d not in index_names:
                raise DefinitionError(
                    f"input {spec.name!r} spans dimension {d!r} outside "
                    f"the {len(index_names)}D iteration space")
    for stencil in program.stencils:
        if stencil.name in names_seen:
            raise DefinitionError(
                f"duplicate definition of {stencil.name!r}")
        names_seen.add(stencil.name)
        for field_name in stencil.accessed_fields:
            if field_name not in program.inputs \
                    and field_name not in by_name:
                raise DefinitionError(
                    f"stencil {stencil.name!r} reads undefined field "
                    f"{field_name!r}")
        for field_name, dims in stencil.access_dims.items():
            expected = program.inputs[field_name].dims \
                if field_name in program.inputs else index_names
            if dims != expected:
                raise DefinitionError(
                    f"stencil {stencil.name!r} accesses {field_name!r} "
                    f"with dims {dims}, declared {expected}")
    for out in program.outputs:
        if out not in by_name:
            raise DefinitionError(
                f"output {out!r} is not produced by any stencil")
    _check_acyclic(program)


def _check_acyclic(program: StencilProgram):
    """Reject cyclic dependency structures (the input must be a DAG).

    An iterative depth-first walk: a chain of any length loads without
    recursion, and the path is one list, extended and popped in place."""
    produced_by = program._by_name
    GRAY, BLACK = 1, 2
    color: Dict[str, int] = {}

    def deps(name: str):
        return (dep for dep in produced_by[name].accessed_fields
                if dep not in program.inputs and dep in produced_by)

    for root in produced_by:
        if root in color:
            continue
        color[root] = GRAY
        path, pending = [root], [deps(root)]
        while pending:
            for dep in pending[-1]:
                if color.get(dep) == GRAY:
                    cycle = " -> ".join(path + [dep])
                    raise DefinitionError(f"dependency cycle: {cycle}")
                if dep not in color:
                    color[dep] = GRAY
                    path.append(dep)
                    pending.append(deps(dep))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
