"""Unit tests for the batched engine's building blocks: the rate
limiter, the NumPy ring channels/links, array-mode stencil compilation,
and the array-slab units."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.expr import parse
from repro.simulator import (
    ArrayChannel,
    ArrayNetworkLink,
    BatchedSourceUnit,
    BatchedStencilUnit,
    RateLimiter,
    compile_stencil,
)
from repro.simulator.channel import StreamRing
from repro.simulator.oracle import Channel, NetworkLink


class TestRateLimiter:
    def test_unit_rate_admits_every_cycle(self):
        limiter = RateLimiter(1.0)
        for _ in range(5):
            limiter.refill()
            assert limiter.ready
            limiter.spend()

    def test_fractional_rate(self):
        limiter = RateLimiter(0.5)
        admitted = 0
        for _ in range(10):
            limiter.refill()
            if limiter.ready:
                limiter.spend()
                admitted += 1
        assert admitted == 5

    def test_credit_cap_allows_bursts(self):
        # rate 3 caps at 3 credits: up to three words in one cycle.
        limiter = RateLimiter(3.0)
        limiter.refill()
        burst = 0
        while limiter.ready:
            limiter.spend()
            burst += 1
        assert burst == 3

    def test_credit_cap_is_one_for_subunit_rates(self):
        # A 0.25 rate never accumulates more than one word of credit.
        limiter = RateLimiter(0.25)
        for _ in range(100):
            limiter.refill()
        assert limiter.credit == 1.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SimulationError, match="positive"):
            RateLimiter(0.0)


class TestArrayChannel:
    def test_matches_channel_semantics(self):
        # The slab protocol moves words as the scalar FIFO does: a
        # random script of batched pushes and pops, each within the
        # capacity the planner keeps, sees the same words and lengths.
        rng = np.random.default_rng(7)
        scalar = Channel("c", 5)
        batched = ArrayChannel("c", 5, width=2, headroom=8)
        word = 0
        for _ in range(200):
            if rng.random() < 0.55:
                b = int(rng.integers(0, 5 - len(scalar) + 1))
                rows = [(float(n), float(-n)) for n in range(word, word + b)]
                for row in rows:
                    scalar.push(row)
                batched.write_rows(np.asarray(rows).reshape(b, 2))
                word += b
            else:
                b = int(rng.integers(0, len(scalar) + 1))
                expected = [scalar.pop() for _ in range(b)]
                assert list(map(tuple, batched.read_rows(b).tolist())) \
                    == expected
            assert len(batched) == len(scalar)
        assert word > 100

    def test_slab_roundtrip_with_wraparound(self):
        channel = ArrayChannel("c", 8, width=1, headroom=0)
        total = []
        for base in range(0, 40, 4):
            rows = np.arange(base, base + 4, dtype=np.float64)
            channel.write_rows(rows.reshape(4, 1))
            total.extend(channel.read_rows(4).ravel().tolist())
        assert total == list(range(40))


class TestArrayNetworkLink:
    def test_matches_network_link(self):
        # The link moves words; when they arrive is the planner's
        # decision (here the scalar link's).  Committed words stay in
        # flight until delivered, and arrive in order.
        rng = np.random.default_rng(3)
        for rate in (1.0, 0.5):
            scalar = NetworkLink("l", 12, latency=4, words_per_cycle=rate)
            batched = ArrayNetworkLink("l", 12, width=1, headroom=4)
            log = []
            counter = 0
            for now in range(60):
                ready = len(scalar._ready)
                scalar.step(now)
                batched.deliver_rows(len(scalar._ready) - ready)
                if rng.random() < 0.6 and not scalar.full:
                    scalar.push((float(counter),))
                    batched.write_rows(np.array([[float(counter)]]))
                    counter += 1
                if scalar.empty:
                    with pytest.raises(SimulationError, match="underflow"):
                        batched.read_rows(1)
                elif rng.random() < 0.5:
                    log.append((scalar.pop()[0],
                                float(batched.read_rows(1)[0, 0])))
                assert len(scalar) == len(batched)
            assert log and all(a == b for a, b in log)

    def test_deliver_rows(self):
        link = ArrayNetworkLink("l", 64, width=1)
        link.write_rows(np.arange(3, dtype=np.float64).reshape(3, 1))
        with pytest.raises(SimulationError, match="underflow"):
            link.read_rows(1)                  # all three in flight
        link.deliver_rows(2)
        assert link.read_rows(2).ravel().tolist() == [0.0, 1.0]
        with pytest.raises(SimulationError, match="in flight"):
            link.deliver_rows(2)
        assert len(link) == 1

    def test_sink_rejects_float_at_int64_edge(self):
        # float(int64 max) rounds up to 2**63: a float lane at exactly
        # 2**63 must still raise like the scalar per-element store.
        from repro.simulator.batched import BatchedSinkUnit
        channel = ArrayChannel("c", 8, width=1, headroom=4)
        channel.write_rows(np.array([[2.0 ** 63]]))
        sink = BatchedSinkUnit("o", channel, (1,), 1,
                               np.dtype(np.int64))
        with pytest.raises(OverflowError, match="out of bounds"):
            sink.store_rows(channel.read_rows(1))

    def test_integer_slab_rows(self):
        # Integer streams ride int64 rows bit-exactly beyond 2**53.
        link = ArrayNetworkLink("l", 8, width=1, dtype=np.int64)
        link.write_rows(np.array([[(1 << 60) + 1]]))
        link.deliver_rows(1)
        assert int(link.read_rows(1)[0, 0]) == (1 << 60) + 1


class TestCreditSchedule:
    """The link credit accounting the planner replays on its counters
    (``plan._Planner._plan_window``) — the scalar link's refill and
    spend — and the closed-form delivery schedule its window period is
    built from."""

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 0.3, 0.1, 1.0,
                                      1.5, 3.0])
    def test_next_ready_in_matches_stepping(self, rate):
        # With a timely backlog the cycles a link delivers on are
        # exactly the cycles a reference limiter stepping beside it
        # turns ready on (up to the cap's burst above rate 1), and the
        # credit it carries is bitwise the reference's.
        link = NetworkLink("l", 256, latency=0, words_per_cycle=rate)
        for n in range(200):
            link.push((float(n),))
        reference = RateLimiter(rate)
        for now in range(40):
            reference.refill()
            expected = 0
            while reference.ready:
                reference.spend()
                expected += 1
            before = len(link._in_flight)
            link.step(now)
            assert before - len(link._in_flight) == expected, (rate, now)
            assert link._limiter.credit == reference.credit

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.3])
    def test_advance_credit_matches_scalar_delivery(self, rate):
        # A fractional delivery spends the credit to exactly 0.0.
        # The planner's refill and spend, replayed on a plain float,
        # land on the same float state the scalar link's limiter does.
        scalar = NetworkLink("s", 64, latency=0, words_per_cycle=rate)
        for n in range(10):
            scalar.push((float(n),))
        credit, now, delivered = 0.0, 0, 0
        while delivered < 10 and now < 200:
            scalar.step(now)
            got = 0
            while not scalar.empty:
                scalar.pop()
                got += 1
            credit = min(credit + rate, max(rate, 1.0))
            if credit >= 1.0:
                credit -= 1.0
                assert got == 1
            else:
                assert got == 0
            assert scalar._limiter.credit == credit
            delivered += got
            now += 1
        assert delivered == 10

    def test_tiny_rate_returns_scan_bound(self):
        # A microscopic rate exceeds the exact-replay budget: the
        # schedule scan gives up at the bound instead of spinning, and
        # the link has no delivery period (the planner then plans
        # period-1 windows).  The bound itself is still exact.
        assert RateLimiter(1e-18).credit_schedule() is None
        assert RateLimiter(1e-18).delivery_period() is None
        bound = RateLimiter.SCAN_LIMIT
        assert RateLimiter(1.0 / bound).delivery_period() == bound
        assert RateLimiter(0.5 / bound).delivery_period() is None

    def test_fixpoint_rate_returns_none(self):
        # Once the refill hits its float64 fixpoint below 1.0 the link
        # can never become ready again: it has no delivery period, and
        # stepping it delivers nothing however long.
        link = NetworkLink("l", 8, latency=0, words_per_cycle=1e-18)
        assert link._limiter.delivery_period() is None
        link.push((1.0,))
        stuck = 1.0 - 1e-16  # one ulp short of the cap
        link._limiter.credit = stuck
        for now in range(100):
            link.step(now)
        assert link._limiter.credit == stuck
        assert link.empty and len(link._in_flight) == 1

    def test_rate_at_least_one_is_memoryless(self):
        # Above rate 1 the refill saturates at the cap every cycle:
        # no schedule to scan, one word per cycle, however long the
        # link idled before.
        assert RateLimiter(1.5).credit_schedule() is None
        link = NetworkLink("l", 8, latency=0, words_per_cycle=1.5)
        assert link._limiter.delivery_period() == 1
        for now in range(1000):
            link.step(now)
        assert link._limiter.credit == 1.5
        link.push((1.0,))
        link.step(1000)
        assert not link.empty and link._limiter.credit == 0.5

    @pytest.mark.parametrize("rate,period", [
        (0.5, 2), (0.25, 4), (0.75, 2), (0.2, 5),
        # Irreducible p/q with p > 1: ceil(q/p) refills reach the cap.
        (1.0 / 3.0, 3), (3.0 / 7.0, 3), (5.0 / 8.0, 2), (7.0 / 16.0, 3),
        # Float64 quirk shared with the scalar engine: 1/7's seventh
        # partial sum rounds just below 1.0, costing an extra refill.
        (1.0 / 7.0, 8),
        (1.0, 1), (1.5, 1), (3.0, 1),
    ])
    def test_delivery_period(self, rate, period):
        # ... and the planner's window over a link at that rate.
        from repro.simulator import SimulatorConfig, build_simulator
        from repro.simulator.plan import _window_period
        from util import chain_program
        assert RateLimiter(rate).delivery_period() == period
        simulator = build_simulator(
            chain_program(2, shape=(1, 2, 2)),
            SimulatorConfig(engine_mode="batched",
                            network_words_per_cycle=rate),
            {"s0": 0, "s1": 1})
        assert _window_period(simulator._machine) == period

    @pytest.mark.parametrize("rate", [0.25, 1.0 / 3.0, 3.0 / 7.0,
                                      5.0 / 8.0, 2.0 / 3.0, 5.0 / 9.0,
                                      7.0 / 16.0, 0.9])
    def test_delivery_mask_pins_scalar_limiter(self, rate):
        # A saturated link delivers on a strictly periodic per-cycle
        # mask (credit restarts from exactly 0.0 after every spend).
        # Pin the closed-form schedule — period and phase — against
        # the scalar limiter stepping cycle by cycle, for irreducible
        # p/q rates with p > 1.
        scalar = NetworkLink("s", 512, latency=0, words_per_cycle=rate)
        for n in range(200):
            scalar.push((float(n),))
        period = RateLimiter(rate).delivery_period()
        assert period is not None
        mask = []
        for now in range(120):
            before = len(scalar._ready)
            scalar.step(now)
            delivered = len(scalar._ready) - before
            assert delivered in (0, 1)
            mask.append(delivered)
        # The mask is exactly one delivery every `period` cycles, the
        # first after a full refill run-up from zero credit.
        expected = [1 if (now + 1) % period == 0 else 0
                    for now in range(120)]
        assert mask == expected
        assert sum(mask) == 120 // period

    def test_credit_schedule_cached_and_exact(self):
        limiter = RateLimiter(3.0 / 7.0)
        schedule = limiter.credit_schedule()
        assert schedule is not None and schedule[-1] == 1.0
        assert RateLimiter(3.0 / 7.0).credit_schedule() is schedule
        # Entries replay the refill iterate bitwise.
        replay = RateLimiter(3.0 / 7.0)
        for credit in schedule:
            replay.refill()
            assert replay.credit == credit
        assert RateLimiter(2.5).credit_schedule() is None


class TestCoordSlabs:
    def test_boundary_masks_match_bruteforce(self):
        from repro.core.fields import row_major_strides, unflatten_index
        from repro.simulator.batched import CoordSlabs
        domain = (4, 5, 3)
        slabs = CoordSlabs(domain)
        strides = row_major_strides(domain)
        for full in [(0, 0, 0), (1, 0, 0), (-1, 2, 0), (0, -1, 1)]:
            entry = slabs.boundary(full, width=1)
            n = 4 * 5 * 3
            expected = []
            for t in range(n):
                coords = unflatten_index(t, domain, strides)
                expected.append(all(
                    0 <= c + off < extent
                    for c, off, extent in zip(coords, full, domain)))
            if all(expected):
                assert entry is None
            else:
                in_bounds, words = entry
                assert in_bounds.tolist() == expected
                assert words.tolist() == sorted(
                    {t for t, ok in enumerate(expected) if not ok})

    def test_boundary_memoized(self):
        from repro.simulator.batched import CoordSlabs
        slabs = CoordSlabs((4, 4))
        first = slabs.boundary((1, 0), width=2)
        assert slabs.boundary((1, 0), width=2) is first


class TestArrayCompile:
    CASES = [
        "a[i,j] * 2 + b[i,j]",
        "a[i,j] / b[i,j]",
        "a[i,j] > 0 ? sqrt(b[i,j]) : b[i,j]",
        "min(a[i,j], b[i,j]) + max(a[i,j], 0.5)",
        "exp(a[i,j] * 700)",
        "log(a[i,j]) < 0 ? 1 : 2",
        "a[i,j] && b[i,j] ? i * 10 + j : -a[i,j]",
        "!(a[i,j] > b[i,j]) || a[i,j] == 0 ? fmod(a[i,j], b[i,j]) "
        ": floor(b[i,j])",
        "pow(a[i,j], b[i,j] * 400)",
        "sin(a[i,j]) * cos(b[i,j]) + tanh(a[i,j] * b[i,j])",
        "ceil(a[i,j]) - round(b[i,j]) + atan2(a[i,j], b[i,j])",
        "a[i,j] + log(1.947)",  # literal-only call arguments
        "atan2(ceil(a[i,j]), -1.0)",  # sign of ceil(-0.5)'s zero
        "atan2(floor(a[i,j]) * 0.0, -1.0) - b[i,j]",
        "atan2(-floor(a[i,j] * 0.1), -1.0)",  # negated int zero
        "atan2(floor(a[i,j] * 0.1) * -3, -1.0)",  # int zero * negative
        "atan2(-min(abs(a[i,j]), i), b[i,j])",  # mixed int/float min
        "atan2(b[i,j] > 0 ? -round(a[i,j] * 0.1) : -0.0, -1.0)",
        "fmod(a[i,j], 0.0 * a[i,j]) > 0.0 ? 1.0 : 2.0",  # inf % nan
    ]

    @staticmethod
    def _lanes():
        rng = np.random.default_rng(0)
        n = 64
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 2.0]
        a[:len(specials)] = specials
        b[:len(specials)] = specials[::-1]
        i = rng.integers(0, 4, n)
        j = rng.integers(0, 4, n)
        return n, {"a": a, "b": b}, i, j

    @pytest.mark.parametrize("code", CASES)
    def test_bitwise_matches_cell_mode(self, code):
        dims = {"a": ("i", "j"), "b": ("i", "j")}
        ast = parse(code, dims, ("i", "j"))
        cell = compile_stencil(ast)
        array = compile_stencil(ast, mode="array")
        assert array.accesses == cell.accesses
        n, fields, i, j = self._lanes()
        reference = []
        for lane in range(n):
            args = [float(fields[acc.field][lane])
                    for acc in cell.accesses]
            try:
                value = cell(args, (int(i[lane]), int(j[lane])))
                if isinstance(value, complex):
                    value = math.nan
            except (ValueError, OverflowError, ZeroDivisionError):
                value = math.nan
            reference.append(value)
        got = array([fields[acc.field] for acc in array.accesses], (i, j))
        reference = np.asarray(reference, dtype=np.float64)
        assert np.array_equal(reference, got, equal_nan=True), code
        zeros = reference == 0
        assert np.array_equal(np.signbit(reference[zeros]),
                              np.signbit(got[zeros])), \
            f"{code}: zero signs differ"

    def test_lazy_ternary_does_not_poison(self):
        # cell mode never evaluates the unselected branch; a would-raise
        # call there must not poison the cell in array mode either.
        ast = parse("a[i] > 0 ? log(a[i]) : 1", {"a": ("i",)}, ("i",))
        array = compile_stencil(ast, mode="array")
        out = array([np.array([-3.0, math.e])], (np.array([0, 1]),))
        assert out[0] == 1.0
        assert out[1] == 1.0  # log(e)

    def test_selected_branch_error_poisons(self):
        ast = parse("a[i] < 0 ? log(a[i]) : 1", {"a": ("i",)}, ("i",))
        array = compile_stencil(ast, mode="array")
        out = array([np.array([-3.0, 2.0])], (np.array([0, 1]),))
        assert math.isnan(out[0])
        assert out[1] == 1.0

    def test_unknown_mode_rejected(self):
        from repro.errors import CodeGenError
        ast = parse("a[i]", {"a": ("i",)}, ("i",))
        with pytest.raises(CodeGenError, match="mode"):
            compile_stencil(ast, mode="quantum")


class TestSuperPattern:
    """End-to-end behaviour of the planner on fractional-rate links:
    steady state executes as repeating windows of the link period, with no
    planning per delivery and no scalar step."""

    RATE = 1.0 / 3.0

    @staticmethod
    def _build(shape, rate, **kwargs):
        from repro.distributed import contiguous_device_split
        from repro.programs import horizontal_diffusion
        from repro.simulator import SimulatorConfig, build_simulator

        program = horizontal_diffusion(shape=shape, vectorization=4)
        rng = np.random.default_rng(0)
        inputs = {
            name: rng.random(
                spec.shape(program.shape, program.index_names)
            ).astype(spec.dtype.numpy)
            for name, spec in program.inputs.items()}
        config = SimulatorConfig(engine_mode="batched",
                                 network_words_per_cycle=rate,
                                 network_latency=8, **kwargs)
        simulator = build_simulator(
            program, config, contiguous_device_split(program, 2))
        return simulator, inputs

    def test_zero_per_delivery_replans(self):
        # The planner-call count must not scale with the word count:
        # steady state is a few repeating windows, so only the fill
        # and drain transients add calls.  (Planning per delivery
        # would cost ~2 calls per delivered word — thousands here.)
        counts = {}
        for shape in ((16, 16, 8), (16, 16, 32)):
            simulator, inputs = self._build(shape, self.RATE)
            profile = simulator.run(inputs).profile
            words = simulator.program.num_cells // 4
            assert profile.plan_count < 64, shape
            assert profile.plan_count < words // 8, shape
            assert profile.window_cycles == profile.cycles, shape
            counts[shape] = profile.plan_count
        # 4x the words (+1 536) add a few transient windows — the drain
        # crosses more schedule phases — not calls per word.
        assert counts[(16, 16, 32)] - counts[(16, 16, 8)] < 1536 // 50

    def test_integer_rate_has_no_window(self):
        # No period window, that is: rate 1.0 links deliver every cycle,
        # so integer-rate links plan period-1 windows — on the same
        # planner, over the whole run.
        from repro.simulator.plan import _window_period
        simulator, inputs = self._build((16, 16, 8), 1.0)
        profile = simulator.run(inputs).profile
        assert _window_period(simulator._machine) == 1
        assert profile.window_count > 0
        assert profile.window_cycles == profile.cycles

    def test_mixed_rate_windows(self):
        # Only the cut edge is a link (the input edge stays local):
        # the window is its delivery period and still covers steady
        # state.
        from repro.simulator import SimulatorConfig, build_simulator
        from repro.core import StencilProgram

        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float64", "dims": ["i"]}},
            "outputs": ["t"],
            "shape": [512],
            "program": {
                "s": {"code": "a[i-1] + a[i]",
                      "boundary_condition": {
                          "a": {"type": "constant", "value": 1.0}}},
                "t": {"code": "s[i] * 0.5",
                      "boundary_condition": {
                          "s": {"type": "constant", "value": 0.0}}},
            },
        })
        device_of = {"s": 0, "t": 1}
        keys = [("input:a", "stencil:s", "a"),
                ("stencil:s", "stencil:t", "s")]
        config = SimulatorConfig(
            engine_mode="batched", network_latency=4,
            network_words_per_cycle=0.5)
        simulator = build_simulator(program, config, device_of)
        assert [edge.key for edge in simulator.spec.edges.values()
                if edge.remote] == keys[1:]
        inputs = {"a": np.arange(512, dtype=np.float64)}
        result = simulator.run(inputs)
        assert result.profile.window_count > 0
        assert result.profile.window_cycles == result.cycles
        assert result.cycles > 2 * 512  # the 0.5-rate link dominates


class TestBatchedSourceUnit:
    def test_slabs_match_lazy_tuple_stream(self):
        from repro.simulator.channel import stage_slab
        data = np.arange(24, dtype=np.float32).reshape(6, 4)
        channel = ArrayChannel("c", 64, width=2, headroom=16)
        source = BatchedSourceUnit("a", data, 2, [channel])
        assert source.num_words == 12
        # What the window executor does with a source's pushes: store
        # the native-dtype words into the stream's ring, commit them.
        for first, count in ((0, 5), (5, 7)):
            stage_slab([channel], source.words(first, count))
            channel.commit_rows(count)
        slab = channel.read_rows(12)
        np.testing.assert_array_equal(
            slab.ravel(), np.arange(24, dtype=np.float64))

    def test_words_read_the_input_view(self):
        data = np.arange(6 * 4 * 2, dtype=np.float32).reshape(6, 4, 2)
        source = BatchedSourceUnit("a", data, 2, [])
        # Contiguous input: a view, across outer-axis planes too.
        words = source.words(3, 5)
        assert np.shares_memory(words, data)
        np.testing.assert_array_equal(
            words, data.reshape(-1)[6:16].reshape(5, 2))
        # A broadcast lower-dimensional input: only the covering
        # planes are copied; the words are the broadcast array's.
        column = np.arange(4, dtype=np.float32)[None, :, None]
        full = np.broadcast_to(column, (6, 4, 2))
        source = BatchedSourceUnit("c", full, 2, [])
        assert source.num_words == 24
        for w0, count in ((0, 24), (3, 5), (7, 1), (23, 1)):
            np.testing.assert_array_equal(
                source.words(w0, count),
                np.ascontiguousarray(full).reshape(24, 2)[w0:w0 + count])

    def test_no_full_domain_copy_per_1d_input(self):
        # hdiff streams five 1-D inputs broadcast over the domain: a
        # source reads its words from the broadcast view, so above its
        # outputs and stream rings a simulation holds less than what
        # one full-domain copy per 1-D input alone would take.
        import tracemalloc

        from repro.programs import horizontal_diffusion
        from repro.simulator import (
            SimulatorConfig,
            simulate,
            simulate_control,
        )
        from util import random_inputs
        program = horizontal_diffusion(shape=(64, 64, 32))
        inputs = random_inputs(program)
        flat = [name for name, spec in program.inputs.items()
                if len(spec.dims) == 1]
        assert len(flat) == 5
        field = program.num_cells * 4   # one float32 domain
        for run in (lambda: simulate(program, inputs, SimulatorConfig(
                        engine_mode="batched")),
                    lambda: simulate_control(program, inputs)):
            run()   # lowering, compiled stencils and kernels cached
            tracemalloc.start()
            try:
                result = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = peak - result.profile.ring_bytes - sum(
                out.nbytes for out in result.outputs.values())
            assert held < len(flat) * field, result.profile.engine


class TestZeroCopyDataPlane:
    """The batched data plane writes each word once and reads it in
    place: pops and taps are always views of the edge buffer, and a
    stencil result that *is* such a view survives its source being
    overwritten because the latency line stores it first."""

    WIDTH = 2

    def _unit(self, code, capacity=4, batch=4):
        from repro.core import StencilProgram
        from repro.simulator.batched import BatchedStencilUnit, CoordSlabs
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float64", "dims": ["i"]}},
            "outputs": ["s"],
            "shape": [80],
            "vectorization": self.WIDTH,
            "program": {"s": {"code": code,
                              "boundary_condition": "shrink"}},
        })
        stencil = program.stencil("s")
        latency = 1
        inbound = ArrayChannel(
            "in", capacity, self.WIDTH, headroom=batch,
            history=CoordSlabs(program.shape).history_words(
                program, stencil, "a"))
        outbound = ArrayChannel("out", capacity, self.WIDTH,
                                headroom=batch + latency + 1)
        unit = BatchedStencilUnit(program, stencil, {"a": inbound},
                                  [outbound])
        return unit, inbound, outbound

    def _feed(self, channel, first_word, words):
        cells = np.arange(first_word * self.WIDTH,
                          (first_word + words) * self.WIDTH,
                          dtype=np.float64)
        channel.write_rows(cells.reshape(words, self.WIDTH))
        channel.skip_rows(words)

    def test_pops_are_views_on_every_lap(self):
        channel = ArrayChannel("c", 6, width=1, headroom=0)  # 7 rows
        word = 0
        for _ in range(5):            # 25 words: over three laps of 7
            channel.write_rows(np.arange(word, word + 5.0).reshape(5, 1))
            rows = channel.read_rows(5)
            assert np.shares_memory(rows, channel._buf)
            assert rows.ravel().tolist() == list(range(word, word + 5))
            word += 5
        assert word > 3 * channel._rows

    def test_taps_are_views_of_the_inbound_edge_buffer(self):
        unit, inbound, _outbound = self._unit("a[i-1] + a[i+1]")
        seen = []
        compiled = unit.compiled
        unit.compiled = lambda args, coords, **kw: (
            seen.extend(args), compiled(args, coords, **kw))[1]
        self._feed(inbound, 0, 4)
        out = unit.compute_words(1, 2)            # interior: no fills
        assert out.ravel().tolist() == [1 + 3, 2 + 4, 3 + 5, 4 + 6]
        assert len(seen) == 2
        assert all(np.shares_memory(values, inbound._buf)
                   for values in seen)

    def test_wrapping_taps_still_read_the_right_cells(self):
        unit, inbound, _outbound = self._unit("a[i-1] + a[i+1]")
        expected = lambda w: [  # noqa: E731
            2.0 * c for c in range(w * self.WIDTH, (w + 2) * self.WIDTH)]
        self._feed(inbound, 0, 4)
        assert unit.compute_words(1, 2).ravel().tolist() == expected(1)
        # Stream on through several ring-fulls: the live words move to
        # the front whenever a store would reach the ring's end.
        rows = inbound._rows
        for first in range(4, 3 * rows, 2):
            self._feed(inbound, first, 2)
            got = unit.compute_words(first - 1, 2)
            assert got.ravel().tolist() == expected(first - 1), first

    def test_identity_result_survives_source_overwrite(self):
        unit, inbound, outbound = self._unit("a[i]", capacity=2, batch=2)
        self._feed(inbound, 0, 2)
        out = unit.compute_words(0, 2)
        assert np.shares_memory(out, inbound._buf)   # the result *is* a view
        # The words are computed straight into the outbound ring, the
        # one store of each word.
        unit.store_words(0, 2)
        # Stream the source ring all the way round: the view is dead...
        rows = inbound._rows
        for first in range(2, 2 + rows, 2):
            self._feed(inbound, first, 2)
        assert out.ravel().tolist() != [0.0, 1.0, 2.0, 3.0]
        # ...but the word was stored once, in the outbound buffer.
        outbound.commit_rows(2)
        assert outbound.read_rows(2).ravel().tolist() \
            == [0.0, 1.0, 2.0, 3.0]

    def test_an_overflowing_line_push_raises_before_any_live_row_changes(
            self):
        # A store is claimed before it is computed.
        unit, _inbound, outbound = self._unit("a[i]", capacity=2, batch=2)
        for word in (0, 2, 4):                # 6 of the ring's 7 rows
            outbound.write_rows(np.full((2, self.WIDTH), float(word)))
        before = outbound._buf.copy()
        computed = []
        unit.compute_words = lambda *args: computed.append(args)
        with pytest.raises(SimulationError, match="overflow"):
            unit.store_words(0, 2)
        assert computed == []
        np.testing.assert_array_equal(outbound._buf, before)

    def test_history_rows_cannot_be_overwritten(self):
        channel = ArrayChannel("c", 2, width=1, headroom=1, history=2)
        for word in range(6):                      # 6 rows in the ring
            channel.write_rows(np.full((1, 1), float(word)))
            channel.skip_rows(1)
        channel.write_rows(np.zeros((3, 1)))       # capacity + headroom
        with pytest.raises(SimulationError, match="overflow"):
            channel.write_rows(np.zeros((2, 1)))
        assert channel.cells(4, 2).tolist() == [4.0, 5.0]  # history intact

    # -- one ring per stream, shared by the producer's sibling edges ---------

    def test_sibling_edges_share_their_producers_ring(self):
        from repro.core import StencilProgram
        from repro.simulator import SimulatorConfig, build_simulator
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "float32", "dims": ["i", "j"]}},
            "outputs": ["join"],
            "shape": [12, 8],
            "vectorization": 2,
            "program": {
                "near": {"code": "a[i,j] * 2",
                         "boundary_condition": "shrink"},
                "far": {"code": "a[i-2,j] + a[i+2,j]",
                        "boundary_condition": "shrink"},
                "join": {"code": "near[i,j] + far[i,j] + a[i,j]",
                         "boundary_condition": "shrink"},
            },
        })
        sim = build_simulator(program, SimulatorConfig(engine_mode="batched"))
        a = np.arange(96, dtype=np.float32).reshape(12, 8)
        profile = sim.run({"a": a}).profile
        streams = {}
        for (src, _dst, _data), channel in sim.channels.items():
            streams.setdefault(src, []).append(channel)
        assert len(streams["input:a"]) == 3
        for siblings in streams.values():
            assert all(c._buf is siblings[0]._buf for c in siblings)
        rings = [siblings[0]._buf for siblings in streams.values()]
        assert not any(np.shares_memory(x, y) for i, x in enumerate(rings)
                       for y in rings[:i])
        assert profile.ring_bytes == sum(ring.nbytes for ring in rings)
        # Every word of every stream was stored exactly once.
        assert profile.scalar_cycles == 0
        assert profile.stored_words == len(streams) * (96 // 2)

    def test_lagging_siblings_history_survives_the_leader_wrapping(self):
        from repro.simulator.channel import stage_slab
        ring = StreamRing(8, 1)
        lead = ArrayChannel("lead", 4, 1, headroom=3, ring=ring)
        lag = ArrayChannel("lag", 4, 1, headroom=1, history=2, ring=ring)
        word = 0
        for _ in range(9):                 # 18 words: the ring wraps twice
            stage_slab([lead, lag], np.arange(word, word + 2.0)
                       .reshape(2, 1))
            word += 2
            for edge in (lead, lag):
                edge.commit_rows(2)
            # The leader drains at once; the sibling trails four words.
            assert lead.read_rows(2).ravel().tolist() == [word - 2, word - 1]
            if word > 4:
                lag.skip_rows(2)
            start = max(lag._rd - 2, 0)    # its history, then its FIFO
            assert lag.cells(start, word - start).tolist() \
                == list(range(start, word))
        assert lead.stored == 18 and lag.stored == 0
        # The leader alone has room for three more words; the sibling's
        # live range (2 history + 4 unread) does not.
        with pytest.raises(SimulationError, match="overflow"):
            stage_slab([lead, lag], np.zeros((3, 1)))

    def test_link_sibling_reads_the_words_its_plain_sibling_read(self):
        from repro.simulator.channel import stage_slab
        latency = 40
        ring = StreamRing(64, 2)
        plain = ArrayChannel("plain", 8, 2, headroom=8, ring=ring)
        link = ArrayNetworkLink("link", 8 + latency, 2, headroom=8,
                                ring=ring)
        sent = np.arange(2 * 48, dtype=np.float64).reshape(48, 2)
        got_plain, got_link = [], []
        delivered = 0
        for first in range(0, 48, 8):
            stage_slab([plain, link], sent[first:first + 8])
            plain.commit_rows(8)
            link.commit_rows(8)
            got_plain.append(plain.read_rows(8).copy())
            # Word w arrives a wire latency after it left on cycle w:
            # the link trails its sibling by 40 of the ring's 64 rows.
            due = max(0, first + 8 - latency) - delivered
            assert bool(due) == (first + 8 > latency)
            if due:
                link.deliver_rows(due)
                delivered += due
                got_link.append(link.read_rows(due).copy())
        assert delivered < 48
        link.deliver_rows(48 - delivered)
        got_link.append(link.read_rows(len(link)).copy())
        np.testing.assert_array_equal(np.concatenate(got_plain), sent)
        np.testing.assert_array_equal(np.concatenate(got_link), sent)


class TestRingLayout:
    """A stream's ring is linear: every tap, pop and store is one
    contiguous slice, the live words move to the front when a store
    would reach the end, and a range outside the ring raises."""

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_many_laps_equal_the_scalar_engine_bitwise(self, backend,
                                                       monkeypatch):
        import shutil
        from repro.programs import horizontal_diffusion
        from repro.simulator import (
            SimulatorConfig,
            build_simulator,
            kernel,
            simulate,
        )
        from test_engine_equivalence import assert_same_results
        from util import random_inputs
        monkeypatch.setenv(kernel.KERNEL_BACKEND_ENV, backend)
        monkeypatch.setattr(kernel, "_VALIDATED", {})
        program = horizontal_diffusion(shape=(12, 12, 8), vectorization=2)
        inputs = random_inputs(program)
        scalar = simulate(program, inputs,
                          SimulatorConfig(engine_mode="scalar"))
        sim = build_simulator(program, SimulatorConfig(
            engine_mode="batched", max_batch_words=4))
        batched = sim.run(inputs)
        assert_same_results(scalar, batched)
        native = backend == "native" and shutil.which("cc") is not None
        assert (batched.profile.native_units > 0) == native
        assert batched.profile.ring_copy_bytes > 0
        for channel in sim.channels.values():
            assert channel._staged >= 3 * channel._rows   # three laps
            assert channel._ring.origin > 2 * channel._rows

    def test_a_range_outside_the_ring_raises(self):
        channel = ArrayChannel("c", 3, 2)                # 4 rows
        channel.write_rows(np.arange(6.0).reshape(3, 2))
        assert channel.read_rows(3).ravel().tolist() == list(range(6))
        assert np.shares_memory(channel.cells(0, 8), channel._buf)
        for start, n in ((0, 9), (-2, 2)):
            with pytest.raises(SimulationError, match="leaves"):
                channel.cells(start, n)
        # The next store moves the live words (none) to the front:
        # words 0-2 are gone, and reading them raises.
        channel.write_rows(np.full((3, 2), 7.0))
        assert channel._ring.origin == 3
        assert channel.cells(6, 6).tolist() == [7.0] * 6
        with pytest.raises(SimulationError, match="leaves"):
            channel.cells(0, 2)


class TestPlannerPins:
    """The planner's decisions on the two benchmark machine shapes, as
    counts taken from the engine before the VM's active set: how many
    plans, how many virtual cycles, which window sizes and how many
    drifting windows.  A planner change that alters any decision moves
    one of them; one that only makes the VM cheaper moves none.  A
    control run is the same planner alone."""

    RUN_LINKS = (3773, 24, 692, 8, (
        36, 9, 39, 66, 72, 36, 36, 66, 261, 2586, 33, 21, 33, 81, 39, 66, 72,
        9, 33, 9, 39, 30, 69, 32))
    EXPLORE_SWEEP = (2566, 19, 257, 7, (
        24, 67, 24, 24, 24, 56, 24, 24, 2036, 24, 68, 24, 8, 24, 5, 67, 24,
        10, 9))
    #: sha256 of each machine's whole ``Schedule``: its slab passes,
    #: timing and cycles (:meth:`_digest`).
    DIGESTS = (
        "dfbe0a717de625b2f55cdbefd54f45719874a69a2bd27cead133d2846ed5878b",
        "0ef40d4326631671cdf854cee830f4584525711f1a79248320b5287e05c44e2d")

    @staticmethod
    def _machines():
        """The ``run_links`` and ``explore_sweep`` quick machines of
        ``benchmarks/e2e/workloads.json`` (the sweep's at W = 4)."""
        from repro.distributed import contiguous_device_split
        from repro.programs import horizontal_diffusion
        links = horizontal_diffusion(shape=(24, 24, 16), vectorization=8)
        yield (links, contiguous_device_split(links, 2),
               dict(network_latency=16, network_words_per_cycle=1 / 3),
               TestPlannerPins.RUN_LINKS)
        sweep = horizontal_diffusion(shape=(24, 24, 16), vectorization=4)
        yield sweep, None, {}, TestPlannerPins.EXPLORE_SWEEP

    @staticmethod
    def _digest(schedule) -> str:
        import hashlib
        import json
        text = json.dumps([schedule.passes, schedule.timing, schedule.cycles])
        return hashlib.sha256(text.encode()).hexdigest()

    def test_schedules_are_pinned(self):
        """Every decision, not only the counts: the planner's whole
        schedule of each machine, slab passes and timing included."""
        from repro.lowering import reset_default_cache
        from repro.simulator import SimulatorConfig
        from repro.simulator.engine import describe_machine, placed_analysis
        from repro.simulator.plan import Machine, plan
        reset_default_cache()
        digests = []
        for program, placement, network, _pins in self._machines():
            config = SimulatorConfig(**network)
            schedule = plan(Machine(describe_machine(
                placed_analysis(program, config, placement), config,
                placement)))
            assert not schedule.replayed and schedule.failure is None
            digests.append(self._digest(schedule))
        assert tuple(digests) == self.DIGESTS

    @pytest.mark.parametrize("engine", ["batched", "control"])
    def test_planner_decisions_are_pinned(self, engine):
        from repro.lowering import reset_default_cache
        from repro.simulator import SimulatorConfig, simulate
        from repro.simulator.control import simulate_control
        from util import random_inputs
        # Pins the planner, not a replay of an earlier test's schedule.
        reset_default_cache()
        for program, placement, network, pins in self._machines():
            inputs = random_inputs(program)
            if engine == "batched":
                result = simulate(program, inputs, SimulatorConfig(
                    engine_mode="batched", **network), device_of=placement)
            else:
                result = simulate_control(program, inputs, SimulatorConfig(
                    **network), device_of=placement)
            profile = result.profile
            assert (result.cycles, profile.plan_count,
                    profile.virtual_cycles, profile.drift_windows,
                    profile.window_sizes) == pins


class TestScheduleReplay:
    """A machine is planned once per process: a completed full run
    publishes its schedule to the lowering cache, and every later
    batched run of the same machine executes it instead of planning —
    with the data path, statistics and errors unchanged.  A cold run
    executes the schedule it just planned the same way."""

    NETWORK = dict(network_latency=16, network_words_per_cycle=1 / 3)

    @pytest.fixture(autouse=True)
    def _cold(self):
        from repro.lowering import reset_default_cache
        reset_default_cache()
        yield
        reset_default_cache()

    @staticmethod
    def _links_machine():
        """The ``run_links`` quick machine: 2 devices, 1/3-rate wire."""
        from repro.distributed import contiguous_device_split
        from repro.programs import horizontal_diffusion
        program = horizontal_diffusion(shape=(24, 24, 16), vectorization=8)
        return program, contiguous_device_split(program, 2)

    @staticmethod
    def _chain_machine():
        """A 3-stencil chain split over 2 devices at the default link."""
        from util import chain_program
        return (chain_program(3, shape=(8, 8, 8)),
                {"s0": 0, "s1": 0, "s2": 1}, {})

    def _machines(self):
        program, placement = self._links_machine()
        yield program, placement, self.NETWORK
        yield self._chain_machine()

    @staticmethod
    def _run(program, placement, inputs=None, **config):
        from repro.simulator import SimulatorConfig, simulate
        from util import random_inputs
        config.setdefault("engine_mode", "batched")
        return simulate(program, random_inputs(program)
                        if inputs is None else inputs,
                        SimulatorConfig(**config), device_of=placement)

    @staticmethod
    def _assert_same(first, second):
        from test_engine_equivalence import assert_same_results
        assert_same_results(first, second)
        counts = ("plan_count", "virtual_cycles", "scalar_cycles",
                  "window_count", "window_cycles", "window_sizes",
                  "drift_windows", "ring_bytes", "stored_words")
        assert [getattr(first.profile, name) for name in counts] \
            == [getattr(second.profile, name) for name in counts]

    def test_second_run_replays_bitwise(self):
        from repro.lowering import default_cache
        for program, placement, config in self._machines():
            first = self._run(program, placement, **config)
            second = self._run(program, placement, **config)
            assert not first.profile.schedule_replayed
            assert second.profile.schedule_replayed
            assert second.profile.to_json()["schedule_replayed"]
            assert "(schedule replayed)" in "\n".join(
                second.profile.summary_lines())
            self._assert_same(first, second)
        # One miss per published schedule, one hit per replayed run.
        assert default_cache().stats("schedule") == (2, 2)

    def test_execute_alone_matches_run(self):
        # plan() and execute() are separately callable stages: execute
        # called alone times itself and yields run()'s result.
        from repro.programs import laplace2d
        from repro.simulator import SimulatorConfig, build_simulator
        from repro.simulator.plan import plan
        from util import random_inputs
        program = laplace2d(shape=(16, 16))
        inputs = random_inputs(program)
        config = SimulatorConfig(engine_mode="batched")
        ran = build_simulator(program, config).run(inputs)
        sim = build_simulator(program, config)
        alone = sim.execute(plan(sim._machine), inputs)
        self._assert_same(ran, alone)
        assert alone.profile.wall_seconds > 0.0

    def test_plan_seconds_times_only_a_cold_plan(self):
        from repro.lowering import reset_default_cache
        from repro.simulator import SimulatorConfig, simulate_control
        from util import random_inputs
        program, placement = self._links_machine()
        cold = self._run(program, placement, **self.NETWORK)
        replay = self._run(program, placement, **self.NETWORK)
        control = simulate_control(program, random_inputs(program),
                                   SimulatorConfig(**self.NETWORK),
                                   device_of=placement)
        assert 0.0 < cold.profile.plan_seconds < cold.profile.wall_seconds
        assert replay.profile.schedule_replayed
        assert replay.profile.plan_seconds == 0.0
        assert control.profile.plan_seconds == 0.0   # replayed too
        assert replay.profile.to_json()["plan_seconds"] == 0.0
        lines = "\n".join(cold.profile.summary_lines())
        assert (f"{cold.profile.virtual_cycles} virtual cycles in "
                f"{cold.profile.plan_seconds * 1e3:.1f} ms") in lines
        reset_default_cache()
        control = simulate_control(program, random_inputs(program),
                                   SimulatorConfig(**self.NETWORK),
                                   device_of=placement)
        assert 0.0 < control.profile.plan_seconds \
            <= control.profile.wall_seconds

    def test_replay_on_new_inputs_equals_a_cold_run(self):
        from repro.lowering import reset_default_cache
        from util import random_inputs
        program, placement = self._links_machine()
        self._run(program, placement, **self.NETWORK)
        fresh = random_inputs(program, seed=5)
        replayed = self._run(program, placement, fresh, **self.NETWORK)
        assert replayed.profile.schedule_replayed
        reset_default_cache()
        planned = self._run(program, placement, fresh, **self.NETWORK)
        assert not planned.profile.schedule_replayed
        self._assert_same(planned, replayed)

    def test_replay_runs_consecutive_windows_in_one_pass(self):
        from repro.simulator import SimulatorConfig, build_simulator
        from test_engine_equivalence import assert_same_results
        from util import random_inputs
        program, placement = self._links_machine()
        inputs = random_inputs(program)
        cold, replay = (build_simulator(program, SimulatorConfig(
            engine_mode="batched", **self.NETWORK), placement).run(inputs)
            for _ in range(2))
        # Planned first, a cold run executes its windows in the
        # replay's passes.
        assert replay.profile.schedule_replayed
        assert 0 < cold.profile.slab_passes == replay.profile.slab_passes \
            < replay.profile.window_count
        assert replay.profile.mean_batch == (
            replay.cycles / replay.profile.slab_passes)
        assert (f"{replay.profile.window_count} windows in "
                f"{replay.profile.slab_passes} slab passes") in "\n".join(
            replay.profile.summary_lines())
        self._assert_same(cold, replay)
        scalar = self._run(program, placement, inputs,
                           engine_mode="scalar", **self.NETWORK)
        assert_same_results(scalar, replay)

    def test_spans_stay_within_the_batch_cap(self, monkeypatch):
        from repro.simulator import batched, channel
        from test_engine_equivalence import assert_same_results
        program, placement, config = self._chain_machine()
        config = dict(config, max_batch_words=16)
        claims = []
        claim = channel.claim_slab

        def spy(edges, b):
            claims.append(b)
            return claim(edges, b)

        monkeypatch.setattr(channel, "claim_slab", spy)
        monkeypatch.setattr(batched, "claim_slab", spy)
        cold = self._run(program, placement, **config)
        replay = self._run(program, placement, **config)
        assert replay.profile.schedule_replayed
        assert claims and max(claims) <= 16
        # The cap splits the run into many passes, some of them still
        # of several windows.
        assert 1 < cold.profile.slab_passes == replay.profile.slab_passes \
            < replay.profile.window_count
        self._assert_same(cold, replay)
        scalar = self._run(program, placement, engine_mode="scalar",
                           **config)
        assert_same_results(scalar, replay)

    def test_replayed_data_error_is_the_cold_runs(self):
        from repro.core.program import StencilProgram
        from repro.lowering import reset_default_cache
        program = StencilProgram.from_json({
            "inputs": {"a": {"dtype": "int32", "dims": ["i", "j", "k"]}},
            "outputs": ["s2"],
            "shape": [8, 8, 8],
            "program": {f"s{n}": {
                "code": f"{prev}[i,j,k] + {prev}[i,j-1,k] * 0 + 1",
                "boundary_condition": {prev: {"type": "constant",
                                              "value": 0}}}
                for n, prev in enumerate(("a", "s0", "s1"))},
        })
        placement = {"s0": 0, "s1": 0, "s2": 1}
        good = {"a": np.ones((8, 8, 8), dtype=np.int32)}
        bad = {"a": good["a"].copy()}
        bad["a"][6, 3, 2] = np.iinfo(np.int32).max - 2   # one cell
        self._run(program, placement, good, **self.NETWORK)
        replay = self._run(program, placement, good, **self.NETWORK)
        assert replay.profile.slab_passes < replay.profile.window_count
        raised = []
        for cold in (False, True):
            if cold:
                reset_default_cache()
            with pytest.raises(OverflowError) as info:
                self._run(program, placement, bad, **self.NETWORK)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        assert "2147483648" in raised[0]

    def test_control_run_is_the_plan_alone(self, monkeypatch):
        # A control run builds no simulator of any engine, executor,
        # unit, ring or output array, publishes nothing, reads a
        # published schedule, and ends as the full run does — a
        # deadlock, report included, too.
        from repro.errors import DeadlockError
        from repro.lowering import default_cache
        from repro.simulator import (
            BatchedSimulator,
            BatchedSinkUnit,
            SimulatorConfig,
            channel,
            oracle,
            simulate,
            simulate_control,
        )
        from test_engine_equivalence import _EXACT_FIELDS
        from util import diamond_program, edge_keys, random_inputs
        built = []
        for cls in (oracle.SourceUnit, oracle.StencilUnit, oracle.SinkUnit,
                    oracle.Channel, oracle.NetworkLink, oracle.Simulator,
                    BatchedSourceUnit, BatchedStencilUnit, BatchedSinkUnit,
                    channel.StreamRing, channel._EdgeBuffer,
                    BatchedSimulator):
            init = cls.__init__

            def spy(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        program, placement = self._links_machine()
        inputs = random_inputs(program)
        config = SimulatorConfig(**self.NETWORK)
        first = simulate_control(program, inputs, config, placement)
        assert built == [] and first.outputs == {}
        assert not first.profile.schedule_replayed
        assert first.profile.engine == "control"
        assert first.profile.slab_passes == first.profile.ring_bytes == 0
        assert default_cache().stats("schedule") == (0, 0)
        full = simulate(program, inputs, config, placement)
        assert "BatchedSimulator" in built
        for field in _EXACT_FIELDS:
            assert getattr(first, field) == getattr(full, field), field
        # A later control run of the machine reads the full run's.
        built.clear()
        again = simulate_control(program, inputs, config, placement)
        assert again.profile.schedule_replayed and built == []
        assert again.cycles == full.cycles
        wedged = diamond_program(long_branch=2)
        starved = SimulatorConfig(
            channel_capacities={k: 2 for k in edge_keys(wedged)},
            deadlock_window=64)
        raised = []
        for run in (simulate_control, simulate):
            with pytest.raises(DeadlockError) as info:
                run(wedged, random_inputs(wedged), starved)
            error = info.value
            raised.append((str(error), error.cycle, error.blocked_units,
                           error.report.to_json()))
        assert raised[0] == raised[1]
        assert default_cache().stats("schedule") == (1, 1)

    def test_described_links_are_the_lowered_links(self):
        # The machine description takes its links from the one
        # remote-edge rule, the rule lowering priced them with.
        from repro.distributed import contiguous_device_split
        from repro.lowering import (
            LoweringConfig,
            freeze_placement,
            lower,
            remote_edges,
        )
        from repro.simulator import SimulatorConfig
        from repro.simulator.engine import describe_machine
        program, placement = self._links_machine()
        config = SimulatorConfig(**self.NETWORK)
        for device_of in (placement,
                          contiguous_device_split(program, 3)):
            artifact = lower(program, LoweringConfig(
                device_of=freeze_placement(device_of),
                network_latency=config.network_latency))
            spec = describe_machine(artifact.analysis, config, device_of)
            described = [key for key, edge in spec.edges.items()
                         if edge.remote]
            assert described
            assert described == list(remote_edges(spec.graph, device_of))
            assert {key: spec.edges[key].latency for key in described} \
                == artifact.edge_latency

    def test_failed_runs_publish_nothing(self):
        from repro.errors import DeadlockError
        from repro.lowering import default_cache
        from repro.simulator import SimulatorConfig, build_simulator
        from repro.simulator.plan import plan
        from test_engine_equivalence import _int_program
        from util import diamond_program, edge_keys, random_inputs
        wedged = diamond_program(long_branch=2)
        overflow = _int_program(code="(a[i] * a[i]) > 100 ? 1 : 0",
                                dtype="int64")
        failing = [
            (wedged, random_inputs(wedged), DeadlockError,
             dict(channel_capacities={k: 2 for k in edge_keys(wedged)},
                  deadlock_window=64)),
            (wedged, random_inputs(wedged), SimulationError,
             dict(max_cycles=100)),
            (overflow, {"a": np.full(32, 1 << 32, dtype=np.int64)},
             SimulationError, {}),
        ]
        for program, inputs, error, config in failing:
            raised = []
            for _ in range(2):
                simulator = build_simulator(program, SimulatorConfig(
                    engine_mode="batched", **config))
                with pytest.raises(error) as info:
                    simulator.run(inputs)
                raised.append(str(info.value))
                # Nothing to replay: the machine plans again.
                schedule = plan(simulator._machine)
                assert not schedule.replayed and schedule.plan_count > 0
            assert raised[0] == raised[1]
            assert default_cache().stats("schedule") == (0, 0)

    def test_every_planner_input_is_in_the_key(self, monkeypatch):
        import dataclasses

        from repro.distributed import contiguous_device_split
        from repro.lowering import graph_for, remote_edges
        from repro.programs import horizontal_diffusion
        from repro.simulator import SimulatorConfig
        from repro.simulator import plan as planner
        program, placement = self._links_machine()
        link = min(remote_edges(graph_for(program), placement))
        variants = {
            "min_channel_depth": 9,
            "max_cycles": 10 ** 6,
            "deadlock_window": 300,
            "channel_capacities": {link: 160},
            "network_latency": 17,
            "network_words_per_cycle": 1 / 4,
            "max_batch_words": 1024,
        }
        assert set(variants) == {
            field.name for field in dataclasses.fields(SimulatorConfig)
        } - {"engine_mode"}

        def replayed(program=program, placement=placement, **changes):
            config = dict(self.NETWORK, **changes)
            return self._run(program, placement,
                             **config).profile.schedule_replayed

        assert not replayed()
        assert replayed() and replayed(engine_mode="auto")
        for name, value in variants.items():
            assert not replayed(**{name: value}), name
        assert not replayed(placement=contiguous_device_split(program, 3))
        assert not replayed(program=horizontal_diffusion(
            shape=(24, 24, 16), vectorization=4))
        for constant in ("MAX_WINDOW", "WINDOW_STRETCH", "MIN_STRETCH"):
            with monkeypatch.context() as patched:
                patched.setattr(planner, constant,
                                getattr(planner, constant) + 1)
                assert not replayed(), constant

    def test_published_schedule_is_frozen_and_holds_no_simulator(self):
        import gc
        import weakref

        from repro.lowering import default_cache
        from repro.simulator import SimulatorConfig, build_simulator
        from repro.simulator.plan import Schedule
        from util import random_inputs
        program, placement = self._links_machine()
        simulator = build_simulator(program, SimulatorConfig(
            engine_mode="batched", **self.NETWORK), placement)
        simulator.run(random_inputs(program))
        alive = weakref.ref(simulator)
        del simulator
        gc.collect()
        assert alive() is None
        cache = default_cache()
        (key,) = [key for key in cache._entries
                  if key.startswith("schedule:")]

        def mutable(obj) -> bool:
            if isinstance(obj, (list, dict, set)):
                return True
            return isinstance(obj, tuple) and any(map(mutable, obj))

        schedule = cache.peek(key)
        assert isinstance(schedule, Schedule) and schedule.passes
        assert schedule.failure is None
        assert not any(mutable(getattr(schedule, field.name))
                       for field in dataclasses.fields(schedule))
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.cycles = 0
