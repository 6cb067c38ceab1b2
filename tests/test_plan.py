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
import math
import pkgutil
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
import repro.simulator.plan as planner
from repro.simulator import oracle
from test_engine_equivalence import _pinned_in_tier1

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


# -- timed FIFOs in closed form ---------------------------------------------


def _word_by_word_repeats(start, end, pops, now, q, strict_only):
    """The congruence test on copied ready-times, entry by entry: the
    reference the closed form (:func:`planner._fifo_repeats`) must
    match."""
    if len(end) == len(start) and all(
            e == s + q for e, s in zip(end, start)):
        return math.inf
    if strict_only:
        return 0
    n = len(pops)
    if not n:
        return math.inf
    k = len(start) // n
    if k > 1:
        due = (now + q * np.arange(1, k, dtype=np.int64)[:, None]
               + np.asarray(pops, dtype=np.int64))
        late = (np.asarray(start[n:k * n], dtype=np.int64)
                .reshape(k - 1, n) > due).any(axis=1)
        if late.any():
            k = 1 + int(np.argmax(late))
    return k


def _word_by_word_fifo(start, pushed, popped, k, q):
    """A timed FIFO after ``k`` windows that each pop ``popped`` entries
    and push window 1's ``pushed`` shifted by ``q`` a window, rebuilt
    entry by entry: the reference for :func:`planner._advance_fifo`."""
    skip, m = k * popped, len(pushed)
    fifo = deque(start[skip:])
    for p in range(max(0, skip - len(start)), k * m):
        window, r = divmod(p, m)
        fifo.append(pushed[r] + window * q)
    return list(fifo)


@st.composite
def _fifo_windows(draw):
    """``(q, now, start, pushed, pops, strict_only)``: a timed FIFO's
    ready-times at window start (strictly increasing, all pushed before
    the window), window 1's pushes (distinct cycles of the window plus a
    latency) and the window-relative cycles it popped on.  A FIFO whose
    pops never waited on an immature head may be drawn not
    ``strict_only``."""
    q = draw(st.integers(1, 6))
    now = draw(st.integers(0, 40))
    base = now + draw(st.integers(0, 12))
    pushed = [base + t for t in sorted(draw(st.sets(
        st.integers(0, q - 1), max_size=q)))]
    # A start is an arbitrary head, a periodic middle — window 1's
    # pushes, or a pattern of their own, repeated back in time — and an
    # arbitrary tail, each possibly empty.
    pattern = draw(st.sampled_from([pushed, sorted(draw(st.sets(
        st.integers(base - 2 * q, base - q - 1), min_size=1,
        max_size=q))), []]))
    blocks = draw(st.integers(0, 6)) if pattern else 0
    middle = [t - q * w for w in range(blocks, 0, -1) for t in pattern]
    middle = [t - q * (blocks + 1) for t in pattern[len(pattern) - draw(
        st.integers(0, len(pattern) - 1)) if pattern else 0:]] + middle
    low = middle[0] if middle else base
    high = middle[-1] + 1 if middle else base - 40
    head = sorted(draw(st.sets(st.integers(low - 30, low - 1), max_size=8)))
    tail = sorted(draw(st.sets(st.integers(high, base - 1), max_size=8))
                  if high < base else ())
    start = sorted({*head, *middle, *tail})
    times = start + pushed
    n = draw(st.sampled_from(sorted({len(pushed), len(start),
                                     draw(st.integers(0, len(times)))}
                                    & set(range(len(times) + 1)))))
    pops, strict_only = [], draw(st.booleans())
    for time in times[:n]:
        off = max(time - now, pops[-1] if pops else 0,
                  draw(st.integers(0, q - 1)))
        strict_only |= off >= q   # an immature head made it wait
        pops.append(min(off, q - 1))
    return q, now, start, pushed, pops, strict_only


@_pinned_in_tier1
@given(_fifo_windows(), st.integers(0, 3), st.integers(-30, 30),
       st.data())
def test_fifo_closed_form_matches_word_by_word(window, dead, offset, data):
    """The closed form decides the strict and the queued congruence
    tests and the FIFO after ``k`` repeats as the word-by-word code did,
    whatever the VM's list holds before the head (``dead`` popped
    entries), whatever its offset, and with any true record of entries
    ``q`` apart (``run``)."""
    q, now, start, pushed, pops, strict_only = window
    n, first = len(pops), (start + pushed + [now])[0]
    fifo = [t - offset for t in [first - dead - 1 + j for j in range(dead)]
            + start + pushed]
    stop = dead + len(start)
    # A run covers a stretch of true pairs, here or at any later index.
    true = [i for i in range(len(fifo) - n) if fifo[i + n] - fifo[i] == q]
    run = (0, 0, 0, 0)
    if n and true and data.draw(st.integers(0, 3)):
        lo = data.draw(st.sampled_from(true))
        hi = lo
        while hi in true:
            hi += 1
        run = (lo, data.draw(st.integers(lo, hi)), n, q)
    bound, shifted = planner._fifo_repeats(
        fifo, dead, stop, pops, now - offset, q, strict_only, run)
    assert bound == _word_by_word_repeats(
        start, (start + pushed)[n:], pops, now, q, strict_only)
    if bound >= 2:
        k = data.draw(st.integers(2, min(bound, 8)))
        head, shift = planner._advance_fifo(fifo, dead, dead + n, stop, k,
                                            q, shifted)
        assert [t + offset + shift for t in fifo[head:]] == \
            _word_by_word_fifo(start, pushed, n, k, q)
