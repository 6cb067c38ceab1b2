"""The emitted sequential C reference (``codegen/reference_c.py``),
compiled and run: every catalog program at 12 cells per axis, compared
with the reference executor on the valid region."""

import ctypes
import shutil
import subprocess

import numpy as np
import pytest

from repro.codegen import generate_reference_c
from repro.programs import available_programs, build
from repro.run.reference import run_reference
from repro.simulator.native import _CFLAGS
from util import random_inputs

if shutil.which("cc") is None:
    pytest.skip("no C compiler on PATH", allow_module_level=True)

#: Programs whose emitted reference reads the domain's edge where the
#: program's boundary condition says otherwise.
_CLAMPED = {"jacobi2d", "jacobi3d", "diffusion2d", "diffusion3d"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="reference_c clamps every index whatever "
        "`boundary_condition` says (ROADMAP 2(c))"))
    if name in _CLAMPED else name
    for name in available_programs()])
def test_emitted_reference_matches_the_executor(name, tmp_path):
    program = build(name)
    program = build(name, shape=(12,) * len(program.shape))
    source = tmp_path / "reference.c"
    source.write_text(generate_reference_c(program))
    lib = tmp_path / "reference.so"
    subprocess.run([shutil.which("cc"), *_CFLAGS, "-o", str(lib),
                    str(source), "-lm"], check=True)
    inputs = {field: np.ascontiguousarray(array) for field, array in
              random_inputs(program, seed=3).items()}
    outputs = {out: np.zeros(program.shape, program.field_dtype(out).numpy)
               for out in program.outputs}
    function = getattr(ctypes.CDLL(str(lib)), program.name)
    function.argtypes = [ctypes.c_void_p] * (len(inputs) + len(outputs))
    function(*(np.atleast_1d(array).ctypes.data for array in
               (*inputs.values(), *outputs.values())))
    expected = run_reference(program, inputs, keep=program.outputs)
    for out, array in outputs.items():
        region = expected[out].valid_slice
        assert np.array_equal(array[region], expected[out].data[region]), out
