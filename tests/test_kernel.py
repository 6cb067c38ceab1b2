"""The compiled-kernel engine: cache behaviour, invalidation,
quarantine, backend ladder, and error parity.

Bitwise equivalence of the kernel engine against the batched engine is
enforced in ``test_engine_equivalence.py``; this file covers the
artifact life cycle — a cold run records and compiles, a warm run
replays without planning, a changed machine recompiles, a corrupt
artifact is quarantined and rebuilt — plus the failure modes the
replay path must reproduce faithfully.
"""

import json

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.programs import build
from repro.simulator import (
    SimulatorConfig,
    kernel_available,
    kernel_cache_stats,
    kernel_store_dir,
    reset_kernel_cache_stats,
    simulate,
)
from repro.simulator.kernel import KERNEL_BACKEND_ENV
from util import lst1_inputs, lst1_program, random_inputs


def _kernel_cfg(**kwargs):
    return SimulatorConfig(engine_mode="kernel", **kwargs)


def _artifacts():
    store = kernel_store_dir()
    if not store.is_dir():
        return []
    return sorted(p for p in store.iterdir()
                  if p.suffix == ".json" and ".corrupt-" not in p.name)


def _drop_in_process_artifacts():
    """Forget in-process compiled kernels.

    The lowering ``ArtifactCache`` is process-wide and content-
    addressed, so a kernel compiled by an earlier test would be a
    legitimate in-memory hit here; dropping it forces the disk path
    this file is exercising."""
    from repro.lowering import default_cache
    default_cache().clear()


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_kernel_cache_stats()
    _drop_in_process_artifacts()
    yield
    reset_kernel_cache_stats()


def test_cold_then_warm_hit_and_stats():
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    cold = simulate(program, inputs, _kernel_cfg())
    assert kernel_cache_stats() == (0, 1)
    assert len(_artifacts()) == 1
    assert cold.profile.engine == "kernel"
    assert not cold.profile.kernel_cached
    warm = simulate(program, inputs, _kernel_cfg())
    assert kernel_cache_stats() == (1, 1)
    assert warm.profile.engine == "kernel"
    assert warm.profile.kernel_cached
    assert warm.profile.kernel_slabs > 0
    assert warm.profile.plan_count == 0
    assert warm.profile.window_count == 0
    assert warm.cycles == cold.cycles
    for name in cold.outputs:
        assert np.array_equal(cold.outputs[name], warm.outputs[name],
                              equal_nan=True)


def test_invalidation_program_change_recompiles():
    a = build("laplace2d", shape=(16, 16))
    b = build("jacobi2d", shape=(16, 16))
    simulate(a, random_inputs(a), _kernel_cfg())
    assert kernel_cache_stats() == (0, 1)
    simulate(b, random_inputs(b), _kernel_cfg())
    # A different program misses; the same program again hits.
    assert kernel_cache_stats() == (0, 2)
    assert len(_artifacts()) == 2
    simulate(a, random_inputs(a), _kernel_cfg())
    assert kernel_cache_stats() == (1, 2)


def test_invalidation_machine_change_recompiles():
    program = lst1_program((8, 8, 8))
    inputs = lst1_inputs((8, 8, 8))
    names = [s.name for s in program.stencils]
    device_of = {n: (0 if i < len(names) // 2 else 1)
                 for i, n in enumerate(names)}
    simulate(program, inputs, _kernel_cfg(network_latency=8),
             device_of)
    simulate(program, inputs, _kernel_cfg(network_latency=16),
             device_of)
    # Different network latency is a different machine: two artifacts.
    assert kernel_cache_stats() == (0, 2)
    simulate(program, inputs, _kernel_cfg(network_latency=8),
             device_of)
    assert kernel_cache_stats() == (1, 2)


def test_max_cycles_excluded_from_key():
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    simulate(program, inputs, _kernel_cfg())
    # The cycle cap is an observer knob, not machine structure: a
    # generous cap still hits the cached kernel.
    warm = simulate(program, inputs, _kernel_cfg(max_cycles=10 ** 9))
    assert kernel_cache_stats() == (1, 1)
    assert warm.profile.kernel_cached
    # A cap below the recorded cycle count raises exactly as a live
    # run would have.
    with pytest.raises(SimulationError, match="exceeded"):
        simulate(program, inputs, _kernel_cfg(max_cycles=10))


def test_corrupt_artifact_quarantined_and_rebuilt():
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    cold = simulate(program, inputs, _kernel_cfg())
    (path,) = _artifacts()
    path.write_text("{not json")
    _drop_in_process_artifacts()
    rerun = simulate(program, inputs, _kernel_cfg())
    # The corrupt file was quarantined aside, the run fell back to a
    # cold record-and-compile, and the artifact exists again.
    assert kernel_cache_stats() == (0, 2)
    quarantined = [p for p in kernel_store_dir().iterdir()
                   if ".corrupt-" in p.name]
    assert quarantined
    assert len(_artifacts()) == 1
    assert rerun.cycles == cold.cycles


def test_malformed_record_quarantined():
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    simulate(program, inputs, _kernel_cfg())
    (path,) = _artifacts()
    data = json.loads(path.read_text())
    del data["record"]["cycles"]
    path.write_text(json.dumps(data))
    _drop_in_process_artifacts()
    rerun = simulate(program, inputs, _kernel_cfg())
    assert rerun.profile.engine == "kernel"
    assert kernel_cache_stats() == (0, 2)
    assert any(".corrupt-" in p.name
               for p in kernel_store_dir().iterdir())


@pytest.mark.parametrize("schema", [2, 3])
def test_artifact_source_is_never_executed(schema, tmp_path):
    """Artifacts are data.  Schema 2 stored a generated ``kernel_pass``
    that the hit path ``exec``-ed; planted in an artifact of either
    schema, code is not run — the file is quarantined, the run rebuilt
    cold."""
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    cold = simulate(program, inputs, _kernel_cfg())
    (path,) = _artifacts()
    marker = tmp_path / "executed"
    planted = f"open({str(marker)!r}, 'w').close()"
    data = json.loads(path.read_text())
    data["schema"] = schema
    data["source"] = (f"import os; os.system({('touch ' + str(marker))!r})\n"
                      f"{planted}\n"
                      f"def kernel_pass(ctx):\n    {planted}\n")
    path.write_text(json.dumps(data))
    _drop_in_process_artifacts()
    rerun = simulate(program, inputs, _kernel_cfg())
    warm = simulate(program, inputs, _kernel_cfg())
    assert not marker.exists()
    assert kernel_cache_stats() == (1, 2)
    assert not rerun.profile.kernel_cached and warm.profile.kernel_cached
    assert any(".corrupt-" in p.name for p in kernel_store_dir().iterdir())
    (rebuilt,) = _artifacts()
    assert set(json.loads(rebuilt.read_text())) == {"schema", "key",
                                                    "record"}
    for result in (rerun, warm):
        assert result.cycles == cold.cycles
        for name in cold.outputs:
            assert np.array_equal(cold.outputs[name], result.outputs[name],
                                  equal_nan=True)


def test_auto_upgrades_after_kernel_run():
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    auto_cold = simulate(program, inputs,
                         SimulatorConfig(engine_mode="auto"))
    # No artifact yet: auto resolves to the batched engine.
    assert auto_cold.profile.engine == "batched"
    kernel = simulate(program, inputs, _kernel_cfg())
    assert kernel_available(program)
    auto_warm = simulate(program, inputs,
                         SimulatorConfig(engine_mode="auto"))
    assert auto_warm.profile.engine == "kernel"
    assert auto_warm.profile.kernel_cached
    assert auto_warm.cycles == kernel.cycles


@pytest.mark.parametrize("backend", ["python", "cffi"])
def test_forced_backend_bitwise(backend, monkeypatch):
    if backend == "cffi":
        pytest.importorskip("cffi")
    program = build("horizontal_diffusion", shape=(8, 8, 8))
    inputs = random_inputs(program)
    batched = simulate(program, inputs,
                       SimulatorConfig(engine_mode="batched"))
    monkeypatch.setenv(KERNEL_BACKEND_ENV, backend)
    simulate(program, inputs, _kernel_cfg())
    warm = simulate(program, inputs, _kernel_cfg())
    assert warm.profile.kernel_cached
    assert warm.cycles == batched.cycles
    for name in batched.outputs:
        assert np.array_equal(batched.outputs[name],
                              warm.outputs[name], equal_nan=True)


def test_invalid_backend_env_rejected(monkeypatch):
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    simulate(program, inputs, _kernel_cfg())
    monkeypatch.setenv(KERNEL_BACKEND_ENV, "cuda")
    with pytest.raises(ValidationError, match="REPRO_KERNEL_BACKEND"):
        simulate(program, inputs, _kernel_cfg())


def test_error_parity_on_hit_missing_input():
    program = build("laplace2d", shape=(16, 16))
    inputs = random_inputs(program)
    simulate(program, inputs, _kernel_cfg())
    broken = dict(inputs)
    (name, arr) = next(iter(broken.items()))
    with pytest.raises(ValidationError):
        simulate(program, {}, _kernel_cfg())
    with pytest.raises(ValidationError):
        broken[name] = arr.reshape(-1)[:-1]
        simulate(program, broken, _kernel_cfg())
    # The cache is unaffected by rejected runs.
    good = simulate(program, inputs, _kernel_cfg())
    assert good.profile.kernel_cached


def test_tracing_rejects_kernel_mode():
    from repro.simulator import simulate_traced
    program = build("laplace2d", shape=(8, 8))
    inputs = random_inputs(program)
    with pytest.raises(ValidationError, match="kernel"):
        simulate_traced(program, inputs,
                        config=_kernel_cfg())
