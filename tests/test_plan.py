"""The planner is its own stage: ``simulator/plan.py`` turns a machine
description into a :class:`~repro.simulator.plan.Schedule` without the
executor, the kernel engine, native compute or the expression
compiler, and without building a ring or a unit.  The scalar oracle
(``simulator/oracle.py``) stands alone: no other engine imports or
subclasses it."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.simulator.plan as planner
from repro.simulator import oracle

#: Modules of ``repro.simulator`` stage 1 may not import from.
_EXECUTION = {"batched", "kernel", "native", "compile"}

#: The engines that share no code with the scalar oracle.
_NOT_ORACLE = ("plan", "batched", "control", "native", "kernel")


def _imports(module=planner):
    """``(module, names)`` of every import statement in ``module``
    (``plan.py`` by default), relative modules resolved against
    ``repro.simulator``."""
    tree = ast.parse(Path(module.__file__).read_text())
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
    from repro.simulator.batched import (
        BatchedSinkUnit,
        BatchedSourceUnit,
        BatchedStencilUnit,
    )
    from repro.simulator.channel import StreamRing, _EdgeBuffer
    data_plane = (oracle.Channel, oracle.NetworkLink, oracle.SourceUnit,
                  oracle.StencilUnit, oracle.SinkUnit, StreamRing,
                  _EdgeBuffer, BatchedSourceUnit, BatchedStencilUnit,
                  BatchedSinkUnit)
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


def _oracle_classes() -> set:
    """The classes ``oracle.py`` defines."""
    return {cls for _n, cls in inspect.getmembers(oracle, inspect.isclass)
            if cls.__module__ == oracle.__name__}


@pytest.mark.parametrize("name", _NOT_ORACLE)
def test_engine_imports_nothing_from_the_oracle(name):
    names_of_ours = {cls.__name__ for cls in _oracle_classes()}
    module = importlib.import_module(f"repro.simulator.{name}")
    for imported, names in _imports(module):
        assert imported != oracle.__name__, (name, names)
        if imported == "repro.simulator":
            assert not ({"oracle"} | names_of_ours) & set(names), names


def test_no_class_outside_the_oracle_subclasses_one_of_its_classes():
    ours = _oracle_classes()
    assert {"Channel", "NetworkLink", "SourceUnit", "StencilUnit",
            "SinkUnit", "Simulator"} <= {cls.__name__ for cls in ours}
    modules = [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if not info.name.endswith("__main__")]
    assert "repro.simulator.batched" in modules
    for name in modules:
        for _n, cls in inspect.getmembers(importlib.import_module(name),
                                          inspect.isclass):
            if cls.__module__ == name != oracle.__name__:
                assert not ours & set(cls.__mro__), cls


def test_the_oracle_has_no_construction_hook():
    assert not [name for name in dir(oracle.Simulator)
                if name.startswith("_make_")]


def test_the_executor_wires_its_units_in_the_machines_order():
    # Only ``plan.Machine`` knows the unit order: the executor's unit i
    # is the machine's unit i and channel t its slot t.
    from repro.core import StencilProgram
    from repro.simulator import SimulatorConfig, build_simulator
    from util import random_inputs
    program = StencilProgram.from_json({
        "inputs": {"a": {"dtype": "float64", "dims": ["i", "j"]},
                   "b": {"dtype": "float64", "dims": ["j"]}},
        "outputs": ["late", "early"],
        "shape": [6, 4],
        "program": {
            "early": {"code": "a[i-1,j] * a[i+1,j] - b[j]",
                      "boundary_condition": "shrink"},
            "late": {"code": "early[i,j] + b[j]",
                     "boundary_condition": "shrink"},
        },
    })
    simulator = build_simulator(program,
                                SimulatorConfig(engine_mode="batched"))
    simulator.run(random_inputs(program))
    from repro.simulator.batched import (
        BatchedSinkUnit,
        BatchedSourceUnit,
        BatchedStencilUnit,
    )
    from repro.simulator.plan import _SINK, _SOURCE, _STENCIL
    machine = simulator._machine
    classes = {_SOURCE: BatchedSourceUnit, _STENCIL: BatchedStencilUnit,
               _SINK: BatchedSinkUnit}
    assert [type(unit) for unit in simulator.units] == \
        [classes[entry[0]] for entry in machine.units]
    assert [getattr(unit, "name", name) for unit, name in zip(
        simulator.units, machine.names)] == machine.names
    chans = list(simulator.channels.values())
    assert [channel.name for channel in chans] == machine.chans[0]
    for unit, (kind, _name, outs, *entry) in zip(simulator.units,
                                                 machine.units):
        assert [id(c) for c in getattr(unit, "out_channels", ())] == \
            [id(chans[t]) for t in outs]
        if hasattr(unit, "in_channels"):
            assert sorted(map(id, unit.in_channels.values())) == \
                sorted(id(chans[t]) for t in entry[1])
        if hasattr(unit, "in_channel"):
            assert unit.in_channel is chans[entry[1][0][1]]
