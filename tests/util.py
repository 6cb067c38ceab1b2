"""Shared test helpers: canonical programs and generators."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import StencilProgram


def lst1_spec(shape=(8, 8, 8)) -> dict:
    """The paper's Lst. 1 example program (with the typo fixed)."""
    return {
        "name": "lst1",
        "inputs": {
            "a0": {"dtype": "float32", "dims": ["i", "j", "k"]},
            "a1": {"dtype": "float32", "dims": ["i", "j", "k"]},
            "a2": {"dtype": "float32", "dims": ["i", "k"]},
        },
        "outputs": ["b4"],
        "shape": list(shape),
        "program": {
            "b0": {"code": "a0[i,j,k] + a1[i,j,k]",
                   "boundary_condition": {
                       "a0": {"type": "constant", "value": 1},
                       "a1": {"type": "copy"}}},
            "b1": {"code": "0.5*(b0[i,j,k] + a2[i,k])",
                   "boundary_condition": "shrink"},
            "b2": {"code": "0.5*(b0[i,j,k] - a2[i,k])",
                   "boundary_condition": "shrink"},
            "b3": {"code": "b1[i-1,j,k] + b1[i+1,j,k]",
                   "boundary_condition": "shrink"},
            "b4": {"code": "b2[i,j,k] + b3[i,j,k]",
                   "boundary_condition": "shrink"},
        },
    }


def lst1_program(shape=(8, 8, 8)) -> StencilProgram:
    return StencilProgram.from_json(lst1_spec(shape))


def lst1_inputs(shape=(8, 8, 8), seed=0) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    i, j, k = shape
    return {
        "a0": rng.random((i, j, k), dtype=np.float32),
        "a1": rng.random((i, j, k), dtype=np.float32),
        "a2": rng.random((i, k), dtype=np.float32),
    }


def diamond_program(shape=(4, 8, 8), long_branch=3) -> StencilProgram:
    """A fork-join diamond: a -> s0 -> {fast, slow chain} -> join.

    The slow branch is a chain of ``long_branch`` j-offset stencils, each
    adding init delay, so the fast edge into the join needs a nonzero
    delay buffer. This is the Fig. 4 deadlock shape.
    """
    program = {
        "s0": {"code": "a[i,j,k] + 1", "boundary_condition": "shrink"},
    }
    prev = "s0"
    for n in range(long_branch):
        name = f"slow{n}"
        program[name] = {
            "code": f"{prev}[i,j-1,k] + {prev}[i,j+1,k]",
            "boundary_condition": "shrink",
        }
        prev = name
    program["join"] = {
        "code": f"s0[i,j,k] + {prev}[i,j,k]",
        "boundary_condition": "shrink",
    }
    return StencilProgram.from_json({
        "name": "diamond",
        "inputs": {"a": {"dtype": "float32", "dims": ["i", "j", "k"]}},
        "outputs": ["join"],
        "shape": list(shape),
        "program": program,
    })


def chain_program(length: int, shape=(4, 8, 8),
                  code_template: Optional[str] = None,
                  vectorization: int = 1) -> StencilProgram:
    """A linear chain of ``length`` identical j-direction stencils."""
    template = code_template or (
        "0.25 * ({prev}[i,j-1,k] + 2.0*{prev}[i,j,k] + {prev}[i,j+1,k])")
    program = {}
    prev = "inp"
    for n in range(length):
        name = f"s{n}"
        program[name] = {
            "code": template.format(prev=prev),
            "boundary_condition": {prev: {"type": "constant", "value": 0}},
        }
        prev = name
    return StencilProgram.from_json({
        "name": f"chain{length}",
        "inputs": {"inp": {"dtype": "float32", "dims": ["i", "j", "k"]}},
        "outputs": [prev],
        "shape": list(shape),
        "vectorization": vectorization,
        "program": program,
    })


def random_inputs(program: StencilProgram, seed=0) -> Dict[str, np.ndarray]:
    """Random arrays matching every input declaration."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, spec in program.inputs.items():
        shape = spec.shape(program.shape, program.index_names)
        data = rng.random(shape) if shape else rng.random()
        out[name] = np.asarray(data, dtype=spec.dtype.numpy)
    return out


def edge_keys(program: StencilProgram) -> List[Tuple[str, str, str]]:
    from repro.graph import StencilGraph
    return [(e.src, e.dst, e.data) for e in StencilGraph(program).edges]


def reference_program_hash(program: StencilProgram,
                           normalize_width: bool = False) -> str:
    """The persisted program-identity formula, spelled out: cache
    keys on disk depend on it, so the memoised hashes must equal it."""
    from repro.expr import unparse
    from repro.lowering import content_key
    spec = program.to_json()
    for stencil in program.stencils:
        spec["program"][stencil.name]["code"] = unparse(stencil.ast)
    if normalize_width:
        spec["vectorization"] = 1
    return content_key("program", spec)


def assert_facts_sound(program: StencilProgram):
    """Every memoised fact of ``program`` and its stencils equals the
    pure function applied to a twin rebuilt from ``to_json()``, and
    populating the facts changes nothing observable."""
    from repro.expr import analysis as pure
    from repro.expr import census_after_cse, infer_type, unparse
    from repro.lowering import program_content_hash
    twin = StencilProgram.from_json(program.to_json())
    types = {name: spec.dtype for name, spec in twin.inputs.items()}
    for stencil, ref in zip(program.stencils, twin.stencils):
        assert stencil.accessed_fields == \
            tuple(sorted(pure.accessed_fields(ref.ast)))
        assert stencil.accesses == pure.field_accesses(ref.ast)
        assert stencil.access_dims == pure.field_access_dims(ref.ast)
        assert stencil.census == pure.census(ref.ast)
        assert stencil.census_cse == census_after_cse(ref.ast)
        assert stencil.canonical_code == unparse(ref.ast)
        types[ref.name] = infer_type(ref.ast, types)
        assert program.stencil(ref.name) is stencil
    for name, expected in types.items():
        assert program.field_dtype(name) == expected
        assert program.consumers_of(name) == tuple(
            ref.name for ref in twin.stencils
            if name in pure.accessed_fields(ref.ast))
    for normalize in (False, True):
        assert program_content_hash(program, normalize) \
            == reference_program_hash(twin, normalize)
    # ``twin`` has derived nothing beyond validation; ``program`` now
    # carries every fact.
    assert program == twin
    assert program.to_json() == twin.to_json()
