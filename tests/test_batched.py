"""Unit tests for the batched engine's building blocks: the rate
limiter, the NumPy ring channels/links, array-mode stencil compilation,
and the array-slab units."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.expr import parse
from repro.simulator import (
    ArrayChannel,
    ArrayNetworkLink,
    BatchedSourceUnit,
    Channel,
    NetworkLink,
    RateLimiter,
    compile_stencil,
)


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


def replay(channel, ops):
    """Apply a push/pop script, returning the observed behaviour."""
    seen = []
    for op, value in ops:
        if op == "push":
            if channel.full:
                seen.append(("full",))
            else:
                channel.push(value)
        else:
            if channel.empty:
                seen.append(("empty",))
            else:
                seen.append(("pop", tuple(np.ravel(channel.pop()))))
    return (seen, len(channel), channel.pushes, channel.pops,
            channel.max_occupancy)


class TestArrayChannel:
    def test_matches_channel_semantics(self):
        rng = np.random.default_rng(7)
        ops = []
        for n in range(200):
            kind = "push" if rng.random() < 0.55 else "pop"
            ops.append((kind, (float(n), float(-n))))
        scalar = Channel("c", 5)
        batched = ArrayChannel("c", 5, width=2, headroom=8)
        assert replay(scalar, ops) == replay(batched, ops)

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
        rng = np.random.default_rng(3)
        for rate in (1.0, 0.5):
            scalar = NetworkLink("l", 12, latency=4, words_per_cycle=rate)
            batched = ArrayNetworkLink("l", 12, width=1, latency=4,
                                       words_per_cycle=rate)
            log = []
            counter = 0
            for now in range(60):
                scalar.step(now)
                batched.step(now)
                if rng.random() < 0.6 and not scalar.full:
                    scalar.push((float(counter),))
                    batched.push((float(counter),))
                    counter += 1
                if rng.random() < 0.5 and not scalar.empty:
                    a = scalar.pop()
                    b = batched.pop()
                    log.append((a[0], float(b[0])))
                assert len(scalar) == len(batched)
                assert scalar.empty == batched.empty
                assert scalar.full == batched.full
            assert log and all(a == b for a, b in log)

    def test_deliver_rows(self):
        link = ArrayNetworkLink("l", 64, width=1, latency=1)
        link.write_rows(np.arange(3, dtype=np.float64).reshape(3, 1),
                        np.array([1, 2, 3]))
        assert link.in_flight_len == 3
        link.deliver_rows(2)
        assert link.in_flight_len == 1
        assert link.read_rows(2).ravel().tolist() == [0.0, 1.0]

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
        link = ArrayNetworkLink("l", 8, width=1, latency=0,
                                dtype=np.int64)
        link.step(0)
        link.push(((1 << 60) + 1,))
        link.step(1)
        assert int(link.pop()[0]) == (1 << 60) + 1


class TestCreditSchedule:
    """The batched link's credit accounting — stepped cycle by cycle,
    or replayed by the planner on a virtual limiter and handed back
    through ``sync_credit`` — must reproduce the scalar limiter's
    refill/spend behaviour exactly."""

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 0.3, 0.1, 1.0,
                                      1.5, 3.0])
    def test_next_ready_in_matches_stepping(self, rate):
        # With a timely backlog the cycles a link delivers on are
        # exactly the cycles a reference limiter stepping beside it
        # turns ready on (up to the cap's burst above rate 1), and the
        # credit it carries is bitwise the reference's.
        link = ArrayNetworkLink("l", 256, width=1, latency=0,
                                words_per_cycle=rate)
        for n in range(200):
            link.push((float(n),))
        reference = RateLimiter(rate)
        for now in range(40):
            reference.refill()
            expected = 0
            while reference.ready:
                reference.spend()
                expected += 1
            before = link.in_flight_len
            link.step(now)
            assert before - link.in_flight_len == expected, (rate, now)
            assert link.credit == reference.credit

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.3])
    def test_advance_credit_matches_scalar_delivery(self, rate):
        # A fractional delivery spends the credit to exactly 0.0.
        # Advancing a link's credit the way the window executor does —
        # a virtual limiter seeded from ``credit``, replayed, handed
        # back through ``sync_credit`` — must land on the same float
        # state the scalar step loop produces.
        scalar = NetworkLink("s", 64, latency=0, words_per_cycle=rate)
        batched = ArrayNetworkLink("b", 64, width=1, latency=0,
                                   words_per_cycle=rate)
        for n in range(10):
            scalar.push((float(n),))
            batched.push((float(n),))
        now = 0
        delivered = 0
        while delivered < 10 and now < 200:
            scalar.step(now)
            got = 0
            while not scalar.empty:
                scalar.pop()
                got += 1
            virtual = RateLimiter(rate)
            virtual.credit = batched.credit
            virtual.refill()
            if virtual.ready:
                batched.deliver_rows(1)
                batched.read_rows(1)
                virtual.spend()
                assert got == 1
            else:
                assert got == 0
            batched.sync_credit(virtual.credit)
            delivered += got
            assert scalar._limiter.credit == batched.credit
            now += 1
        assert delivered == 10

    def test_tiny_rate_returns_scan_bound(self):
        # A microscopic rate exceeds the exact-replay budget: the
        # schedule scan gives up at the bound instead of spinning, and
        # the link has no delivery period (the planner then plans
        # period-1 windows).  The bound itself is still exact.
        assert RateLimiter(1e-18).credit_schedule() is None
        link = ArrayNetworkLink("l", 8, width=1, words_per_cycle=1e-18)
        assert link.delivery_period() is None
        bound = RateLimiter.SCAN_LIMIT
        assert RateLimiter(1.0 / bound).delivery_period() == bound
        assert RateLimiter(0.5 / bound).delivery_period() is None

    def test_fixpoint_rate_returns_none(self):
        # Once the refill hits its float64 fixpoint below 1.0 the link
        # can never become ready again: it has no delivery period, and
        # stepping it delivers nothing however long.
        link = ArrayNetworkLink("l", 8, width=1, latency=0,
                                words_per_cycle=1e-18)
        assert link.delivery_period() is None
        link.push((1.0,))
        stuck = 1.0 - 1e-16  # one ulp short of the cap
        link.sync_credit(stuck)
        for now in range(100):
            link.step(now)
        assert link.credit == stuck
        assert link.empty and link.in_flight_len == 1

    def test_rate_at_least_one_is_memoryless(self):
        # Above rate 1 the refill saturates at the cap every cycle:
        # no schedule to scan, one word per cycle, however long the
        # link idled before.
        assert RateLimiter(1.5).credit_schedule() is None
        link = ArrayNetworkLink("l", 8, width=1, latency=0,
                                words_per_cycle=1.5)
        assert link.delivery_period() == 1
        for now in range(1000):
            link.step(now)
        assert link.credit == 1.5
        link.push((1.0,))
        link.step(1000)
        assert not link.empty and link.credit == 0.5

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
        assert RateLimiter(rate).delivery_period() == period
        link = ArrayNetworkLink("l", 8, width=1, words_per_cycle=rate)
        assert link.delivery_period() == period

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
        batched = ArrayNetworkLink("b", 512, width=1, latency=0,
                                   words_per_cycle=rate)
        for n in range(200):
            scalar.push((float(n),))
            batched.push((float(n),))
        period = batched.delivery_period()
        assert period is not None
        mask = []
        for now in range(120):
            before = len(scalar._ready)
            scalar.step(now)
            delivered = len(scalar._ready) - before
            assert delivered in (0, 1)
            in_flight = batched.in_flight_len
            batched.step(now)
            assert in_flight - batched.in_flight_len == delivered, \
                (rate, now)
            mask.append(delivered)
            assert scalar._limiter.credit == batched.credit
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
    steady state executes as repeating LCM-period windows, with no
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
            result = simulator.run(inputs)
            words = simulator.program.num_cells // 4
            assert simulator.plan_count < 64, shape
            assert simulator.plan_count < words // 8, shape
            assert simulator.scalar_cycles == 0, shape
            assert simulator.window_cycles == result.cycles, shape
            counts[shape] = simulator.plan_count
        # 4x the words (+1 536) add a few transient windows — the drain
        # crosses more schedule phases — not calls per word.
        assert counts[(16, 16, 32)] - counts[(16, 16, 8)] < 1536 // 50

    def test_integer_rate_has_no_window(self):
        # No LCM window, that is: rate 1.0 links deliver every cycle,
        # so integer-rate links plan period-1 windows — on the same
        # planner, over the whole run, with 0 scalar cycles.
        simulator, inputs = self._build((16, 16, 8), 1.0)
        result = simulator.run(inputs)
        assert simulator._window_period() == 1
        assert simulator.window_count > 0
        assert simulator.window_cycles == result.cycles
        assert simulator.scalar_cycles == 0

    def test_mixed_rate_windows(self):
        # Two links with different sub-unit rates: the window is the
        # LCM of both delivery periods and still covers steady state.
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
            network_link_rates={keys[1]: 0.5},
            network_words_per_cycle=1.0)
        # Only the cut edge is a link; give it rate 0.5.
        simulator = build_simulator(program, config, device_of)
        inputs = {"a": np.arange(512, dtype=np.float64)}
        result = simulator.run(inputs)
        assert simulator.window_count > 0
        assert simulator.scalar_cycles == 0
        assert result.cycles > 2 * 512  # the 0.5-rate link dominates


class TestBatchedSourceUnit:
    def test_slabs_match_lazy_tuple_stream(self):
        from repro.simulator.channel import stage_slab
        data = np.arange(24, dtype=np.float32).reshape(6, 4)
        channel = ArrayChannel("c", 64, width=2, headroom=16)
        source = BatchedSourceUnit("a", data, 2, [channel])
        assert source.num_words == 12
        # What the window executor does with a source's pushes: slice
        # the native-dtype rows into the stream's ring, commit them.
        for first, count in ((0, 5), (5, 7)):
            stage_slab([channel], source.rows[first:first + count])
            channel.commit_rows(count)
            source.next_word += count
        assert source.done
        slab = channel.read_rows(12)
        np.testing.assert_array_equal(
            slab.ravel(), np.arange(24, dtype=np.float64))

    def test_scalar_step_parity(self):
        from repro.simulator import SourceUnit
        data = np.arange(8, dtype=np.float32)
        scalar_channel = Channel("c", 16)
        array_channel = ArrayChannel("c", 16, width=1, headroom=4)
        scalar = SourceUnit("a", data, 1, [scalar_channel])
        batched = BatchedSourceUnit("a", data, 1, [array_channel])
        for now in range(8):
            assert scalar.step(now) == batched.step(now)
        assert scalar.done and batched.done
        assert scalar_channel.max_occupancy == array_channel.max_occupancy
        scalar_words = [scalar_channel.pop() for _ in range(8)]
        batched_words = array_channel.read_rows(8)
        np.testing.assert_array_equal(
            np.asarray(scalar_words, dtype=np.float64),
            batched_words)


class TestZeroCopyDataPlane:
    """The batched data plane writes each word once and reads it in
    place: pops and taps are views of the edge buffer whenever the
    range does not wrap (one concatenate when it does), and a stencil
    result that *is* such a view survives its source being
    overwritten because the latency line stores it first."""

    WIDTH = 2

    def _unit(self, code, capacity=4, batch=4):
        from repro.core import StencilProgram
        from repro.simulator.batched import BatchedStencilUnit
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
            history=BatchedStencilUnit.history_words(program, stencil,
                                                     "a"))
        outbound = ArrayChannel("out", capacity, self.WIDTH,
                                headroom=batch + latency + 1)
        unit = BatchedStencilUnit(program, stencil, {"a": inbound},
                                  [outbound], latency, batch)
        return unit, inbound, outbound

    def _feed(self, channel, first_word, words):
        cells = np.arange(first_word * self.WIDTH,
                          (first_word + words) * self.WIDTH,
                          dtype=np.float64)
        channel.write_rows(cells.reshape(words, self.WIDTH))
        channel.skip_rows(words)

    def test_pops_are_views_until_the_ring_wraps(self):
        channel = ArrayChannel("c", 6, width=1, headroom=0)  # 7 rows
        channel.write_rows(np.arange(5.0).reshape(5, 1))
        rows = channel.read_rows(5)
        assert np.shares_memory(rows, channel._buf)
        assert rows.ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        channel.write_rows(np.arange(5.0, 10.0).reshape(5, 1))
        wrapped = channel.read_rows(5)            # rows 5, 6, 0, 1, 2
        assert not np.shares_memory(wrapped, channel._buf)
        assert wrapped.ravel().tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]

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
        # Stream on until the taps of one batch straddle the ring end.
        rows = len(inbound._buf)
        for first in range(4, 3 * rows, 2):
            self._feed(inbound, first, 2)
            got = unit.compute_words(first - 1, 2)
            assert got.ravel().tolist() == expected(first - 1), first

    def test_identity_result_survives_source_overwrite(self):
        unit, inbound, outbound = self._unit("a[i]", capacity=2, batch=2)
        self._feed(inbound, 0, 2)
        out = unit.compute_words(0, 2)
        assert np.shares_memory(out, inbound._buf)   # the result *is* a view
        unit._line_push(out, np.asarray([1, 2], dtype=np.int64))
        # Stream the source ring all the way round: the view is dead...
        rows = len(inbound._buf)
        for first in range(2, 2 + rows, 2):
            self._feed(inbound, first, 2)
        assert out.ravel().tolist() != [0.0, 1.0, 2.0, 3.0]
        # ...but the word was stored once, in the outbound buffer.
        outbound.commit_rows(2)
        assert outbound.read_rows(2).ravel().tolist() \
            == [0.0, 1.0, 2.0, 3.0]

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
        ring = np.zeros((8, 1))
        lead = ArrayChannel("lead", 4, 1, headroom=3, buf=ring)
        lag = ArrayChannel("lag", 4, 1, headroom=1, history=2, buf=ring)
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
        ring = np.zeros((64, 2))
        plain = ArrayChannel("plain", 8, 2, headroom=8, buf=ring)
        link = ArrayNetworkLink("link", 8 + latency, 2, latency=latency,
                                headroom=8, buf=ring)
        sent = np.arange(2 * 48, dtype=np.float64).reshape(48, 2)
        got_plain, got_link = [], []
        for first in range(0, 48, 8):
            stage_slab([plain, link], sent[first:first + 8])
            plain.commit_rows(8)
            link.commit_rows(8, np.arange(first, first + 8) + latency)
            got_plain.append(plain.read_rows(8).copy())
            # Nothing is deliverable until a wire latency has passed:
            # the link trails its sibling by 40 of the ring's 64 rows.
            due = int(np.searchsorted(link.in_flight_times(), first + 8,
                                      side="right"))
            assert bool(due) == (first + 8 >= latency)
            if due:
                link.deliver_rows(due)
                got_link.append(link.read_rows(due).copy())
        assert link.in_flight_len
        link.deliver_rows(link.in_flight_len)
        got_link.append(link.read_rows(len(link)).copy())
        np.testing.assert_array_equal(np.concatenate(got_plain), sent)
        np.testing.assert_array_equal(np.concatenate(got_link), sent)
