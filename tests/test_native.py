"""The native compute binding (``repro.simulator.native``): compiled C
kernels against the NumPy ``compute_words`` they replace, and every way
the binding is allowed to fail.

The whole module needs a C compiler; the failure-path tests fake its
absence themselves.
"""

import gc
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

if shutil.which("cc") is None:
    pytest.skip("no C compiler on PATH", allow_module_level=True)

from repro.core import StencilProgram
from repro.distributed import contiguous_device_split
from repro.expr import unparse
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.programs import build, horizontal_diffusion
from repro.simulator import SimulatorConfig, kernel, native, simulate
from repro.simulator.batched import BatchedStencilUnit
from repro.simulator.channel import StreamRing, _EdgeBuffer
from repro.simulator.kernel import KERNEL_BACKEND_ENV
from test_engine_equivalence import assert_same_results
from test_properties import _expressions
from util import (
    chain_program,
    diamond_program,
    lst1_inputs,
    lst1_program,
    random_inputs,
)


@pytest.fixture(autouse=True)
def _fresh_native_state(monkeypatch, tmp_path):
    """Each test starts with no loaded object, no build in flight and no
    first-chunk verdict, binds regardless of size (and waits for the
    build), and builds under its own temp dir so leftovers are
    visible."""
    monkeypatch.setattr(native, "_LIBS", {})
    monkeypatch.setattr(native, "_PENDING", {})
    monkeypatch.setattr(kernel, "_VALIDATED", {})
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "native")
    build_dir = tmp_path / "tmp"
    build_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(build_dir))
    yield
    _join_builds()
    assert not list(build_dir.iterdir())


def _join_builds():
    for thread in list(native._PENDING.values()):
        thread.join()


def _simulate(program, inputs, mode="batched", device_of=None, **config):
    return simulate(program, inputs,
                    SimulatorConfig(engine_mode=mode, **config), device_of)


def _numpy_run(program, inputs, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setenv(KERNEL_BACKEND_ENV, "python")
        return _simulate(program, inputs)


# -- (a) kernel vs NumPy, bitwise ---------------------------------------------

_SHAPE = (10, 8)
_CHUNK_CELLS = 16
#: Words before and after a stream: the widest tap reach (offsets +-2
#: in both dimensions) at one lane per word.
_PAD = 2 * _SHAPE[1] + 2


def _bits(values: np.ndarray) -> bytes:
    """Every bit but NaN payloads: zero signs and NaN placement count."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _one_stencil_unit(code, fields, boundary, width):
    program = StencilProgram.from_json({
        "inputs": {f: {"dtype": "float64", "dims": ["i", "j"]}
                   for f in fields},
        "outputs": ["s"], "shape": list(_SHAPE), "vectorization": width,
        "program": {"s": {"code": code, "boundary_condition": boundary}}})
    words = program.num_cells // width
    rings = {f: _EdgeBuffer(StreamRing(words + _PAD, width, pad=_PAD),
                            history=_PAD)
             for f in fields}
    return BatchedStencilUnit(program, program.stencil("s"), rings, [])


@given(_expressions().filter(kernel._restricted_expr_ok),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_kernel_matches_compute_words_bitwise(node, seed):
    fields = sorted({n.field for n in node.walk() if hasattr(n, "field")})
    assume(fields)
    code = unparse(node)
    boundaries = (
        "shrink",
        {f: {"type": "constant", "value": -1.5} for f in fields},
        {f: {"type": "copy"} for f in fields})
    units = [_one_stencil_unit(code, fields, boundary, width)
             for boundary in boundaries for width in (1, 4, 8)]
    native.bind_native(units, 0)
    # Integer-typed results and the like stay on NumPy: nothing to test.
    units = [unit for unit in units if isinstance(
        unit.compute_words, native._Deferred)
        and unit.compute_words.landed()]
    assume(units)
    rng = np.random.default_rng(seed)
    # Signed zeros and repeated values among the data, so comparisons
    # tie and products cancel.
    streams = {f: rng.choice([0.0, -0.0, 1.0, -2.5, 3.25, 0.001],
                             size=units[0].num_cells) for f in fields}
    for unit in units:
        for field, stream in streams.items():
            unit.in_channels[field].cells(0, unit.num_cells)[...] = stream
        words = _CHUNK_CELLS // unit.width
        for w0 in range(0, unit.num_words, words):
            want = BatchedStencilUnit.compute_words(unit, w0, words)
            got = unit.compute_words.fast(unit, w0, words)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert _bits(got) == _bits(want), (code, unit.width, w0)


# -- (b) whole machines against the scalar oracle -----------------------------

_HDIFF = horizontal_diffusion(shape=(24, 24, 16), vectorization=4)
_MACHINES = {
    "lst1": (lst1_program(), lst1_inputs(), None, {}),
    "lst1-two-devices": (lst1_program(), lst1_inputs(),
                         contiguous_device_split(lst1_program(), 2),
                         dict(network_latency=8,
                              network_words_per_cycle=0.5)),
    "diamond": (diamond_program(), None, None, {}),
    "chain": (chain_program(4), None, None, {}),
    "laplace2d": (build("laplace2d", shape=(16, 16)), None, None, {}),
    "hdiff": (_HDIFF, None, None, {}),
}


@pytest.mark.parametrize("case", sorted(_MACHINES))
def test_native_machines_equal_the_scalar_oracle(case):
    program, inputs, device_of, config = _MACHINES[case]
    inputs = inputs or random_inputs(program)
    scalar = _simulate(program, inputs, "scalar", device_of, **config)
    bound = _simulate(program, inputs, "batched", device_of, **config)
    assert_same_results(scalar, bound)
    profile = bound.profile
    if case == "chain":     # integer boundary fills: no unit eligible
        assert (profile.native_units, profile.native_fallback_units) == \
            (0, 0)
    else:
        assert profile.native_units > 0
        assert profile.native_units + profile.native_fallback_units == \
            len(program.stencils)
    # The replay pass binds the same kernels over whole streams.
    _simulate(program, inputs, "kernel", device_of, **config)
    replay = _simulate(program, inputs, "kernel", device_of, **config)
    assert replay.profile.kernel_cached
    assert replay.profile.native_units == profile.native_units
    assert_same_results(scalar, replay)


def test_hdiff_binds_all_but_its_min_max_sqrt_units():
    result = _simulate(_HDIFF, random_inputs(_HDIFF))
    profile = result.profile
    assert (profile.native_units, profile.native_fallback_units) == (22, 2)
    assert profile.native_compile_s > 0
    assert "data: native 22/24 units" in "\n".join(profile.summary_lines())
    again = _simulate(_HDIFF, random_inputs(_HDIFF)).profile
    assert (again.native_units, again.native_compile_s) == (22, 0.0)


def test_auto_leaves_small_machines_on_numpy(monkeypatch):
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
    compiles = []
    monkeypatch.setattr(native, "_compile", compiles.append)
    # The floor sits between hdiff at 24x24x16 (0.2 M cell evaluations)
    # and at the explore_sweep domain with W = 8 (1.6 M).
    above = horizontal_diffusion(shape=(48, 48, 32), vectorization=8)
    assert _HDIFF.num_cells * 22 < native.NATIVE_MIN_CELL_EVALS \
        <= above.num_cells * 22
    profile = _simulate(_HDIFF, random_inputs(_HDIFF)).profile
    assert (profile.native_units, profile.native_fallback_units) == (0, 0)
    _join_builds()
    assert not compiles
    # ...and binds one whose cell evaluations clear it.
    _simulate(above, random_inputs(above))
    _join_builds()
    assert len(compiles) == 1


def test_run_switches_to_kernels_when_the_build_lands(monkeypatch):
    """The build is held until the machine has computed a few chunks on
    NumPy; the units take their kernels at their next chunk and the run
    is the scalar oracle's, bit for bit and cycle for cycle."""
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
    monkeypatch.setattr(native, "NATIVE_MIN_CELL_EVALS", 0)
    gate, compile_ = threading.Event(), native._compile
    monkeypatch.setattr(native, "_compile",
                        lambda text: gate.wait() and compile_(text))
    numpy_chunks = []
    compute_words = BatchedStencilUnit.compute_words

    def counted(unit, w0, b, out=None):
        numpy_chunks.append(unit.name)
        if len(numpy_chunks) == 5:
            gate.set()
            _join_builds()
        return compute_words(unit, w0, b, out)

    monkeypatch.setattr(BatchedStencilUnit, "compute_words", counted)
    program = horizontal_diffusion(shape=(12, 12, 8), vectorization=2)
    inputs = random_inputs(program)
    result = _simulate(program, inputs)
    assert gate.is_set()
    assert_same_results(_simulate(program, inputs, "scalar"), result)
    profile = result.profile
    assert (profile.native_units, profile.native_fallback_units) == (22, 2)
    assert 0 < profile.native_pending_chunks <= 5
    assert profile.native_compile_s > 0
    again = _simulate(program, inputs).profile
    assert (again.native_units, again.native_pending_chunks,
            again.native_compile_s) == (22, 0, 0.0)


# -- (c) a wrong kernel is discarded by its first chunk ------------------------

def test_wrong_kernel_is_discarded_for_the_rest_of_the_process(monkeypatch):
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    want = _numpy_run(program, inputs, monkeypatch)
    render = native._render_c_expr
    monkeypatch.setattr(
        native, "_render_c_expr",
        lambda unit, taps: render(unit, taps).replace("+", "-"))
    old = metrics.set_registry(MetricsRegistry(enabled=True))
    try:
        first = _simulate(program, inputs)
        second = _simulate(program, inputs)
        discarded = metrics.registry().counter_total(
            "kernel.backend_discarded")
    finally:
        metrics.set_registry(old)
    for result in (first, second):
        assert_same_results(want, result)
        assert result.profile.native_units == 0
        assert result.profile.native_fallback_units == len(program.stencils)
    # Counted once: the second machine finds the verdict and never
    # calls the kernel again.
    assert discarded == len(program.stencils)
    assert list(kernel._VALIDATED.values()) == \
        [False] * len(program.stencils)


def test_first_chunk_check_never_compares_a_candidate_with_itself(
        monkeypatch):
    # The kernel writes its chunk into the outbound ring; the reference
    # must live elsewhere, or the check would compare one array with
    # itself and pass any kernel.  ``s`` is an identity, whose NumPy
    # result is a view of its inbound ring.
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float64", "dims": ["i", "j"]}},
        "outputs": ["t"], "shape": [12, 8], "vectorization": 2,
        "program": {"s": {"code": "a[i,j]", "boundary_condition": "shrink"},
                    "t": {"code": "s[i,j] * 2.0 + s[i-1,j]",
                          "boundary_condition": "shrink"}}})
    compared = []
    same_bits = kernel._same_bits

    def spy(candidate, reference):
        compared.append((candidate, reference))
        return same_bits(candidate, reference)

    monkeypatch.setattr(kernel, "_same_bits", spy)
    inputs = random_inputs(program)
    result = _simulate(program, inputs)
    assert_same_results(_numpy_run(program, inputs, monkeypatch), result)
    assert result.profile.native_units == len(compared) == 2
    assert not any(np.may_share_memory(candidate, reference)
                   for candidate, reference in compared)


def test_kernel_differing_only_in_a_zero_sign_is_discarded(monkeypatch):
    # ``a * 0.0`` is +0.0 on every lane; a kernel that negates the
    # expression computes -0.0 everywhere, which ``==`` calls equal.
    # The first-chunk check compares bits: the kernel is discarded
    # and the run keeps the oracle's zero signs.
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float64", "dims": ["i", "j"]}},
        "outputs": ["s"], "shape": [8, 8], "vectorization": 2,
        "program": {"s": {"code": "a[i,j] * 0.0",
                          "boundary_condition": "shrink"}}})
    inputs = random_inputs(program)
    want = _simulate(program, inputs, mode="scalar")
    assert not np.signbit(want.outputs["s"]).any()
    render = native._render_c_expr
    monkeypatch.setattr(
        native, "_render_c_expr",
        lambda unit, taps: f"(-({render(unit, taps)}))")
    old = metrics.set_registry(MetricsRegistry(enabled=True))
    try:
        first = _simulate(program, inputs)
        second = _simulate(program, inputs)
        discarded = metrics.registry().counter(
            "kernel.backend_discarded", backend="native").value
    finally:
        metrics.set_registry(old)
    for result in (first, second):
        assert result.outputs["s"].tobytes() == want.outputs["s"].tobytes()
        assert_same_results(want, result)
        assert (result.profile.native_units,
                result.profile.native_fallback_units) == (0, 1)
    assert discarded == 1
    assert list(kernel._VALIDATED.values()) == [False]


# -- (d) no usable compiler -----------------------------------------------------

def _fake_cc(tmp_path, body: str) -> str:
    script = tmp_path / "fake-cc"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("failure", ["absent", "exits-nonzero", "times-out"])
def test_unusable_compiler_leaves_a_correct_numpy_run(failure, monkeypatch,
                                                      tmp_path):
    program = lst1_program()
    inputs = lst1_inputs()
    want = _numpy_run(program, inputs, monkeypatch)
    cc = {"absent": None,
          "exits-nonzero": _fake_cc(tmp_path, "exit 1"),
          "times-out": _fake_cc(tmp_path, "exec sleep 20")}[failure]
    monkeypatch.setattr(native.shutil, "which", lambda name: cc)
    monkeypatch.setattr(native, "_CC_TIMEOUT_S", 0.2)
    for _ in range(2):      # the failure is remembered, not retried
        result = _simulate(program, inputs)
        assert_same_results(want, result)
        assert result.profile.native_units == 0
        assert result.profile.native_fallback_units == len(program.stencils)
    assert list(native._LIBS.values()) == [None]


def test_hung_compiler_never_blocks_a_run(monkeypatch, tmp_path):
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
    monkeypatch.setattr(native, "NATIVE_MIN_CELL_EVALS", 0)
    monkeypatch.setattr(native, "_CC_TIMEOUT_S", 1.0)
    cc = _fake_cc(tmp_path, "exec sleep 20")
    monkeypatch.setattr(native.shutil, "which", lambda name: cc)
    program = lst1_program()
    inputs = lst1_inputs()
    want = _numpy_run(program, inputs, monkeypatch)
    began = time.perf_counter()
    result = _simulate(program, inputs)
    assert time.perf_counter() - began < 0.5
    assert_same_results(want, result)
    assert result.profile.native_units == 0
    assert result.profile.native_fallback_units == len(program.stencils)
    assert result.profile.native_pending_chunks > 0
    _join_builds()
    assert list(native._LIBS.values()) == [None]


_EXIT_IN_FLIGHT = """
import glob, os, tempfile, time
from repro.simulator import SimulatorConfig, native, simulate
from util import lst1_inputs, lst1_program
native.NATIVE_MIN_CELL_EVALS = 0
simulate(lst1_program(), lst1_inputs(), SimulatorConfig())
while not glob.glob(os.path.join(tempfile.gettempdir(), "repro-native-*")):
    time.sleep(0.01)    # the build has made its dir and started cc
print(len(native._PENDING))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_exit_with_a_build_in_flight_leaves_nothing_behind(tmp_path):
    """The interpreter's exit waits for the build thread, which removes
    its temp dir and reaps its ``cc``: no dir and no process survive
    a process that exits with a compile in flight."""
    bin_dir, build_dir = tmp_path / "bin", tmp_path / "build"
    bin_dir.mkdir()
    build_dir.mkdir()
    slow_cc = bin_dir / "cc"
    real_cc = shutil.which("cc")
    slow_cc.write_text(f"#!/bin/sh\nsleep 0.5\nexec {real_cc} \"$@\"\n")
    slow_cc.chmod(0o755)
    root = Path(__file__).resolve().parent
    env = dict(os.environ, TMPDIR=str(build_dir),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join([str(root.parent / "src"),
                                           str(root)]))
    env[KERNEL_BACKEND_ENV] = "auto"
    done = subprocess.run([sys.executable, "-c", _EXIT_IN_FLIGHT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]     # in flight at exit
    assert not list(build_dir.glob("repro-native-*"))
    survivors = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if str(tmp_path).encode() in cmdline:
            survivors.append(cmdline)
    assert not survivors


# -- (e) a dead machine frees its rings without a collection ------------------

def test_repeated_native_runs_do_not_accumulate_memory():
    """Reference counting alone frees a finished machine (the wrapper
    bound on a unit holds it weakly): with the cycle collector off,
    three runs leave what one run leaves."""
    inputs = random_inputs(_HDIFF)
    gc.disable()
    tracemalloc.start()
    try:
        _simulate(_HDIFF, inputs)
        after_one = tracemalloc.get_traced_memory()[0]
        _simulate(_HDIFF, inputs)
        _simulate(_HDIFF, inputs)
        after_three = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert abs(after_three - after_one) < 2 ** 20


# -- (f) nothing of the program's text reaches the compiler --------------------

_FLOAT = re.compile(r"(?<![\w.])-?(\d+\.\d+(e[+-]?\d+)?|\d+e[+-]?\d+)(?![\w.])")
_GENERATED = re.compile(r"k\d+|a\d+|m\d+|c\d+|i\d|lo|n|t|out|rem")
_C_WORDS = {"include", "math", "h", "void", "long", "const", "double",
            "unsigned", "char", "for", "NAN", "fabs"}


def test_translation_unit_holds_only_generated_identifiers(monkeypatch):
    sources = []
    compile_ = native._compile
    monkeypatch.setattr(
        native, "_compile",
        lambda text: sources.append(text) or compile_(text))
    program = StencilProgram.from_json({
        "inputs": {"out": {"dtype": "float64", "dims": ["i", "j", "k"]},
                   "__asm__": {"dtype": "float64", "dims": ["i", "j", "k"]},
                   "système": {"dtype": "float64", "dims": ["i", "k"]}},
        "outputs": ["main"], "shape": [4, 6, 8],
        "program": {
            "system": {
                "code": "out[i,j-1,k] * 1e-05 + fabs(__asm__[i+1,j,k]) "
                        "- système[i,k] / 4",
                "boundary_condition": {
                    "out": {"type": "constant", "value": 2.5e+20},
                    "__asm__": {"type": "copy"}}},
            "exit": {"code": "system[i,j,k-1] > 0.5 ? -system[i,j,k] : k",
                     "boundary_condition": "shrink"},
            "main": {"code": "exit[i,j,k] + system[i-1,j,k] * 3",
                     "boundary_condition": "shrink"}}})
    inputs = random_inputs(program)
    assert_same_results(_simulate(program, inputs, "scalar"),
                        _simulate(program, inputs))
    (text,) = sources
    assert text.count("\nvoid k") == 3
    words = set(re.findall(r"[^\W\d]\w*", _FLOAT.sub(" ", text)))
    assert {w for w in words
            if w not in _C_WORDS and not _GENERATED.fullmatch(w)} == set()
    # What is left once names and float literals are gone is C syntax
    # and the integer strides of the coordinate recovery.
    rest = re.sub(r"[^\W\d]\w*", "", _FLOAT.sub("", text))
    assert set(rest) <= set(" \n#<>.(){}[]*,;=?:+-/&|!0123456789")
