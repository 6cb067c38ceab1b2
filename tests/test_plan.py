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


def _functions(tree):
    """``(qualified name, node)`` of every module-level function and
    method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def test_plan_reads_a_machine_description_and_no_private_attribute():
    # The planner takes the machine from its description
    # (``engine.MachineSpec``), never from a simulator's private state.
    readers = set()
    tree = ast.parse(Path(planner.__file__).read_text())
    for name, function in _functions(tree):
        for arg in function.args.args:
            if isinstance(arg.annotation, ast.Name) \
                    and arg.annotation.id == "MachineSpec":
                readers.add(name)
                private = [node.attr for node in ast.walk(function)
                           if isinstance(node, ast.Attribute)
                           and isinstance(node.value, ast.Name)
                           and node.value.id == arg.arg
                           and node.attr.startswith("_")]
                assert not private, (name, private)
    assert {"Machine.__init__", "Schedule.result", "machine_key_parts",
            "_schedule_key"} <= readers
    for module, names in _imports():
        assert "Simulator" not in names, module
