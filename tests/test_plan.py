"""The planner is its own stage: ``simulator/plan.py`` turns a machine
description into a :class:`~repro.simulator.plan.Schedule` without the
executor, the kernel engine, native compute or the expression
compiler, and without building a ring or a unit."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import repro.simulator.plan as planner

#: Modules of ``repro.simulator`` stage 1 may not import from.
_EXECUTION = {"batched", "kernel", "native", "compile"}


def _imports():
    """``(module, names)`` of every import statement in ``plan.py``,
    relative modules resolved against ``repro.simulator``."""
    tree = ast.parse(Path(planner.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "repro.simulator")
            yield module, tuple(alias.name for alias in node.names)


def test_plan_imports_no_execution_module():
    for module, names in _imports():
        parts = module.split(".")
        assert not _EXECUTION & set(parts[2:]), module
        if module == "repro.simulator":
            assert not _EXECUTION & set(names), names


def test_plan_imports_no_ring_or_unit_class():
    from repro.simulator.channel import Channel, NetworkLink, StreamRing
    from repro.simulator.channel import _EdgeBuffer
    from repro.simulator.units import Unit
    data_plane = (Channel, NetworkLink, StreamRing, _EdgeBuffer, Unit)
    for module, names in _imports():
        if module.startswith("repro."):
            for name in names:
                value = getattr(importlib.import_module(module), name)
                assert not (inspect.isclass(value)
                            and issubclass(value, data_plane)), name
