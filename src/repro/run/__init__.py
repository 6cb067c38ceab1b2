"""Program execution: seeded inputs, the reference executor and
end-to-end sessions.  The executor and sessions load on first use, so
the explorer takes :func:`default_inputs` without importing them."""

from importlib import import_module
from typing import Dict

import numpy as np

_HOMES = {"FieldResult": "reference", "Region": "reference",
          "run_reference": "reference", "RunResult": "session",
          "Session": "session"}

__all__ = ["default_inputs", *_HOMES]


def default_inputs(program, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic random inputs for ``program`` (the CLI's scheme)."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, spec in program.inputs.items():
        shape = spec.shape(program.shape, program.index_names)
        if shape:
            inputs[name] = rng.random(shape).astype(spec.dtype.numpy)
        else:
            inputs[name] = spec.dtype.numpy.type(rng.random())
    return inputs


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)
