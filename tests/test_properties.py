"""Property-based tests (hypothesis) for the core invariants.

These encode DESIGN.md Sec. 5: round-trips, folding soundness, buffer
algebra, delay-buffer structure, and — most importantly — functional
equivalence of the cycle-level simulator and the sequential reference
on randomly generated stencil programs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_buffers, certify_analysis
from repro.core import (
    BoundaryConditions,
    StencilDefinition,
    StencilProgram,
)
from repro.core.fields import flatten_offset
from repro.expr import analysis as expr_analysis
from repro.expr import (
    census_after_cse,
    evaluate_scalar,
    fold,
    parse,
    unparse,
)
from repro.expr.ast_nodes import (
    BinaryOp,
    Call,
    Expr,
    FieldAccess,
    Literal,
    Ternary,
    UnaryOp,
)
from repro.faults import random_fault_plan
from repro.graph import StencilGraph
from repro.graph.dag import node_device
from repro.run import run_reference
from repro.simulator import simulate
from repro.transforms import shift_expr
from util import assert_facts_sound, edge_keys

# -- strategies ---------------------------------------------------------------

_INDEX_NAMES = ("i", "j", "k")


def _literals():
    return st.one_of(
        st.integers(min_value=-8, max_value=8).map(Literal),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                  width=32).map(lambda x: Literal(round(float(x), 3))),
    )


def _accesses(fields=("a", "b"), rank=2):
    dims = _INDEX_NAMES[:rank]
    return st.builds(
        FieldAccess,
        st.sampled_from(fields),
        st.tuples(*(st.integers(-2, 2) for _ in range(rank))),
        st.just(dims),
    )


def _expressions(rank=2, max_depth=3):
    base = st.one_of(_literals(), _accesses(rank=rank))

    def extend(children):
        return st.one_of(
            st.builds(BinaryOp, st.sampled_from(["+", "-", "*"]),
                      children, children),
            # The parser folds negated literals, so only negate
            # non-literal operands (parseable trees never contain
            # UnaryOp over Literal).
            children.map(lambda x: Literal(-x.value)
                         if isinstance(x, Literal) else UnaryOp("-", x)),
            st.builds(lambda c, t, o: Ternary(
                BinaryOp(">", c, Literal(0)), t, o),
                children, children, children),
            st.builds(lambda x: Call("max", (x, Literal(0))), children),
        )

    return st.recursive(base, extend, max_leaves=8)


# -- random machines (engine differential fuzz) --------------------------------


def random_dag_program(rng):
    """A random small DAG: random rank, offsets, boundaries, and W.

    ``rng`` is a NumPy ``Generator`` (the seeded equivalence tests) or
    a :class:`_DrawnRng` (hypothesis draws, so counterexamples
    shrink)."""
    rank = int(rng.integers(1, 4))
    dims = ["i", "j", "k"][:rank]
    shape = [int(rng.integers(4, 9)) * 2 for _ in range(rank)]
    width = int(rng.choice([w for w in (1, 2, 4) if shape[-1] % w == 0]))

    def access(field):
        offsets = []
        for d in dims:
            o = int(rng.integers(-2, 3))
            offsets.append(f"{d}{'+' if o > 0 else '-'}{abs(o)}" if o
                           else d)
        return f"{field}[{','.join(offsets)}]"

    program = {}
    available = ["a0"]
    for n in range(int(rng.integers(2, 5))):
        reads = list(rng.choice(
            available, size=min(len(available), int(rng.integers(1, 3))),
            replace=False))
        terms = [access(f) for f in reads
                 for _ in range(int(rng.integers(1, 3)))]
        code = " + ".join(f"{rng.random():.3f}*{t}" for t in terms)
        if rng.random() < 0.5:
            boundary = "shrink"
        else:
            boundary = {
                f: ({"type": "constant", "value": float(rng.random())}
                    if rng.random() < 0.5 else {"type": "copy"})
                for f in reads}
        program[f"s{n}"] = {"code": code, "boundary_condition": boundary}
        available.append(f"s{n}")
    return StencilProgram.from_json({
        "name": "fuzz",
        "inputs": {"a0": {"dtype": "float32", "dims": dims}},
        "outputs": [available[-1]],
        "shape": shape,
        "vectorization": width,
        "program": program,
    })


class _DrawnRng:
    """The slice of NumPy's ``Generator`` that
    :func:`random_dag_program` uses, answered by hypothesis draws."""

    def __init__(self, draw):
        self._draw = draw

    def integers(self, low, high):
        return self._draw(st.integers(low, high - 1))

    def random(self):
        return self._draw(st.integers(0, 999)) / 1000.0

    def choice(self, options, size=None, replace=True):
        options = list(options)
        if size is None:
            return self._draw(st.sampled_from(options))
        return self._draw(st.lists(st.sampled_from(options), min_size=size,
                                   max_size=size, unique=not replace))


#: Link rates of the machine fuzz: every period from 2 to 7 cycles,
#: several words per period, the unit rate.
LINK_RATES = (1 / 5, 1 / 4, 0.3, 1 / 3, 2 / 5, 3 / 7, 1 / 2, 2 / 3, 5 / 7,
              3 / 4, 1.0)
LINK_LATENCIES = (0, 1, 2, 3, 8, 16, 40)
#: Per-link overrides add long, pairwise coprime delivery periods (64,
#: 67, 73: any two push the LCM window past ``MAX_WINDOW``) and a rate
#: with no finite schedule — both plan period-1 windows.
LONG_PERIOD_RATES = (1 / 64, 1 / 67, 1 / 73, 2.0 ** -13)
#: Batch caps far below a window's traffic: the LCM window finds no
#: ring headroom and is re-planned at period 1.
SMALL_BATCH_CAPS = (2, 7, 64)


@st.composite
def random_machines(draw):
    """``(program, device_of, SimulatorConfig keywords)`` of a random
    multi-device machine: a random DAG, a per-stencil or contiguous
    placement over 2-3 devices, a link rate and wire latency, and
    optionally per-link rates (long and unschedulable periods among
    them), a small batch cap, starved per-edge capacities (deadlocking
    draws included) and a fault plan.  The cycle cap bounds the draws
    that wedge with words still on a link, which no deadlock detector
    may call (the longest healthy run is ~4096 words at 1/5
    word/cycle), and the draws whose links are slower than that."""
    program = random_dag_program(_DrawnRng(draw))
    names = program.stencil_names
    devices = draw(st.integers(2, 3))
    if draw(st.booleans()):
        device_of = {name: draw(st.integers(0, devices - 1))
                     for name in names}
    else:
        cuts = draw(st.lists(st.integers(1, len(names) - 1),
                             min_size=devices - 1, max_size=devices - 1))
        device_of = {name: sum(idx >= cut for cut in cuts)
                     for idx, name in enumerate(names)}
    config = {"network_words_per_cycle": draw(st.sampled_from(LINK_RATES)),
              "network_latency": draw(st.sampled_from(LINK_LATENCIES)),
              "max_cycles": 40_000}
    if draw(st.integers(0, 7)) == 0:
        graph = StencilGraph(program)
        config["network_link_rates"] = {
            key: draw(st.sampled_from(LONG_PERIOD_RATES
                                      + (1 / 5, 1 / 3, 1.0)))
            for key in edge_keys(program)
            if node_device(graph, key[0], device_of)
            != node_device(graph, key[1], device_of)}
        config["max_cycles"] = 12_000
    if draw(st.integers(0, 3)) == 0:
        config["max_batch_words"] = draw(st.sampled_from(SMALL_BATCH_CAPS))
    if draw(st.booleans()):
        config["channel_capacities"] = {
            key: draw(st.integers(1, 39)) for key in edge_keys(program)}
        config["deadlock_window"] = 64
    if draw(st.booleans()):
        config["fault_plan"] = random_fault_plan(
            program, seed=draw(st.integers(0, 2 ** 16)), horizon=600,
            device_of=device_of)
    return program, device_of, config


# -- expression properties -----------------------------------------------------


class TestExpressionProperties:
    @given(_expressions())
    @settings(max_examples=60, deadline=None)
    def test_unparse_parse_roundtrip(self, node):
        assert parse(unparse(node)) == node

    @given(_expressions())
    @settings(max_examples=60, deadline=None)
    def test_fold_idempotent(self, node):
        folded = fold(node)
        assert fold(folded) == folded

    @given(_expressions(rank=0))
    @settings(max_examples=60, deadline=None)
    def test_fold_preserves_closed_value(self, node):
        # rank=0 accesses never occur: the strategy only yields literals
        # when rank is 0 via accesses of empty tuple; guard anyway.
        assume(not any(isinstance(n, FieldAccess) for n in node.walk()))
        try:
            original = evaluate_scalar(node)
        except ZeroDivisionError:
            assume(False)
        folded_value = evaluate_scalar(fold(node))
        assert math.isclose(float(original), float(folded_value),
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(_expressions(), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_shift_composes(self, node, da, db):
        one = shift_expr(shift_expr(node, {"i": da}), {"i": db})
        both = shift_expr(node, {"i": da + db})
        assert one == both

    @given(_expressions())
    @settings(max_examples=40, deadline=None)
    def test_shift_zero_is_identity(self, node):
        assert shift_expr(node, {}) == node


class TestFlattenProperties:
    @given(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                     st.integers(-4, 4)),
           st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                     st.integers(-4, 4)))
    @settings(max_examples=60, deadline=None)
    def test_flatten_is_linear(self, a, b):
        domain = (16, 16, 16)
        total = tuple(x + y for x, y in zip(a, b))
        assert flatten_offset(total, domain) == \
            flatten_offset(a, domain) + flatten_offset(b, domain)

    @given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    @settings(max_examples=40, deadline=None)
    def test_flatten_matches_numpy_ravel(self, offset):
        domain = (8, 8)
        base = (4, 4)
        position = tuple(b + o for b, o in zip(base, offset))
        expected = (np.ravel_multi_index(position, domain)
                    - np.ravel_multi_index(base, domain))
        assert flatten_offset(offset, domain) == expected


# -- random-program properties --------------------------------------------------


def _random_program(draw):
    """Build a small random 2D stencil program (shrink boundaries)."""
    rank = 2
    shape = (8, 8)
    num_stencils = draw(st.integers(1, 4))
    names = ["inp"]
    program = {}
    for n in range(num_stencils):
        name = f"s{n}"
        # Each stencil reads 1-2 existing containers at random offsets.
        sources = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=2))
        terms = []
        for source in sources:
            di = draw(st.integers(-1, 1))
            dj = draw(st.integers(-1, 1))
            sub_i = f"i{'+' if di >= 0 else '-'}{abs(di)}" if di else "i"
            sub_j = f"j{'+' if dj >= 0 else '-'}{abs(dj)}" if dj else "j"
            terms.append(f"{source}[{sub_i},{sub_j}]")
        coeff = draw(st.sampled_from(["0.5", "1.0", "2.0"]))
        program[name] = {
            "code": f"{coeff}*(" + " + ".join(terms) + ")",
            "boundary_condition": "shrink",
        }
        names.append(name)
    return StencilProgram.from_json({
        "name": "random",
        "inputs": {"inp": {"dtype": "float32", "dims": ["i", "j"]}},
        "outputs": [f"s{num_stencils - 1}"],
        "shape": list(shape),
        "program": program,
    })


class TestProgramProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_simulator_matches_reference(self, data):
        """The headline invariant: hardware simulation == reference."""
        program = _random_program(data.draw)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        inputs = {"inp": rng.random(program.shape, dtype=np.float32)}
        reference = run_reference(program, inputs)
        result = simulate(program, inputs)
        out = program.outputs[0]
        expected = reference[out]
        got = result.outputs[out][expected.valid_slice]
        np.testing.assert_allclose(got, expected.valid_view,
                                   rtol=1e-5, atol=1e-6,
                                   equal_nan=True)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_delay_buffers_well_formed(self, data):
        """Every node has a zero-size in-edge; capacities certify."""
        program = _random_program(data.draw)
        analysis = analyze_buffers(program)
        certify_analysis(analysis)
        by_dst = {}
        for (src, dst, _d), buffer in analysis.delay_buffers.items():
            by_dst.setdefault(dst, []).append(buffer.size)
        for dst, sizes in by_dst.items():
            assert min(sizes) == 0, dst

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_model_bounds_simulation(self, data):
        """Eq. 1 upper-bounds the stall-free machine; N/W lower-bounds
        it."""
        program = _random_program(data.draw)
        inputs = {"inp": np.ones(program.shape, dtype=np.float32)}
        result = simulate(program, inputs)
        assert result.cycles <= result.expected_cycles
        assert result.cycles >= program.num_cells

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_vectorization_functional_invariance(self, data):
        """W changes timing, never results."""
        program = _random_program(data.draw)
        rng = np.random.default_rng(7)
        inputs = {"inp": rng.random(program.shape, dtype=np.float32)}
        scalar = simulate(program, inputs)
        vector = simulate(program.with_vectorization(4), inputs)
        out = program.outputs[0]
        np.testing.assert_allclose(
            scalar.outputs[out], vector.outputs[out],
            rtol=1e-6, equal_nan=True)
        assert vector.cycles < scalar.cycles

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_facts_equal_the_pure_functions(self, data):
        """Memoised facts are sound on random programs, at any width."""
        program = _random_program(data.draw)
        assert_facts_sound(program)
        assert_facts_sound(program.with_vectorization(4))

    @given(_expressions())
    @settings(max_examples=50, deadline=None)
    def test_stencil_facts_equal_the_pure_functions(self, node):
        """...and on expressions with selects, calls and negations,
        which the random programs above never contain."""
        stencil = StencilDefinition(
            "s", unparse(node), node, BoundaryConditions.from_json(None))
        for _ in range(2):  # derived, then read back
            assert stencil.accessed_fields == \
                tuple(sorted(expr_analysis.accessed_fields(node)))
            assert stencil.accesses == expr_analysis.field_accesses(node)
            assert stencil.access_dims == \
                expr_analysis.field_access_dims(node)
            assert stencil.census == expr_analysis.census(node)
            assert stencil.census_cse == census_after_cse(node)
            assert stencil.canonical_code == unparse(node)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_json_roundtrip_random(self, data):
        program = _random_program(data.draw)
        again = StencilProgram.from_json_string(program.to_json_string())
        assert again.to_json() == program.to_json()


class TestBufferAlgebraProperties:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=2, max_size=6, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_internal_buffer_span(self, offsets):
        """Buffer size = extreme distance + W, regardless of middles."""
        from repro.analysis import internal_buffers
        code = " + ".join(
            f"a[{_sub('i', di)},{_sub('j', dj)}]" for di, dj in offsets)
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["s"],
            "shape": [16, 16],
            "program": {"s": {"code": code,
                              "boundary_condition": "shrink"}},
        })
        buffering = internal_buffers(program, program.stencil("s"))
        flats = sorted(flatten_offset(off, (16, 16)) for off in offsets)
        span = flats[-1] - flats[0]
        if span == 0:
            assert buffering.buffers == {}
        else:
            assert buffering.buffers["a"].size == span + 1

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=2, max_size=5, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_extremes_determine_size(self, offsets):
        """Adding an access between the extremes never grows the buffer."""
        from repro.analysis import internal_buffers

        def build(offs):
            code = " + ".join(
                f"a[{_sub('i', di)},{_sub('j', dj)}]" for di, dj in offs)
            program = StencilProgram.from_json({
                "inputs": {"a": {"dtype": "float32",
                                 "dims": ["i", "j"]}},
                "outputs": ["s"],
                "shape": [16, 16],
                "program": {"s": {"code": code,
                                  "boundary_condition": "shrink"}},
            })
            buffering = internal_buffers(program, program.stencil("s"))
            buffer = buffering.buffers.get("a")
            return buffer.size if buffer else 0

        with_center = build(list(offsets) + [(0, 0)])
        flats = [flatten_offset(off, (16, 16)) for off in offsets]
        if min(flats) <= 0 <= max(flats):
            assert with_center == build(offsets)
        else:
            assert with_center >= build(offsets)


def _sub(name, off):
    if off == 0:
        return name
    return f"{name}{'+' if off > 0 else '-'}{abs(off)}"
