"""Tests for the telemetry subsystem (``repro.obs``): metrics
registry semantics, span capture and Chrome-trace export, journal
span reconstruction, engine profiles, the per-cycle trace engine's
sampling, the no-op-when-disabled overhead contract, and thread-vs-
process sweep metric equivalence."""

import json
import warnings

import pytest

from repro.errors import ValidationError
from repro.explore import ConfigSpace, explore
from repro.obs import (
    EngineProfile,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    journal_spans,
    metrics,
    spans,
    write_chrome_trace,
)
from repro.obs.export import SUPERVISOR_LANE
from repro.programs import laplace2d
from repro.service import ServiceConfig
from repro.simulator import SimulatorConfig, simulate, simulate_traced
from util import lst1_inputs, lst1_program


@pytest.fixture
def telemetry():
    """Swap in fresh, enabled registry and tracer; restore after."""
    old_registry = metrics.set_registry(MetricsRegistry(enabled=True))
    old_tracer = spans.set_tracer(Tracer(enabled=True))
    yield metrics.registry(), spans.tracer()
    metrics.set_registry(old_registry)
    spans.set_tracer(old_tracer)


@pytest.fixture
def disabled_telemetry():
    """Fresh registry/tracer left disabled (the default posture)."""
    old_registry = metrics.set_registry(MetricsRegistry(enabled=False))
    old_tracer = spans.set_tracer(Tracer(enabled=False))
    yield metrics.registry(), spans.tracer()
    metrics.set_registry(old_registry)
    spans.set_tracer(old_tracer)


def _fractional_two_device_run():
    """A windowed machine: lst1 over 2 devices behind a 1/3 word/cycle
    link, where almost every cycle is retired by a super-pattern
    window rather than a single-cycle pattern plan."""
    program = lst1_program((8, 8, 8))
    names = program.stencil_names
    device_of = {name: int(idx >= len(names) // 2)
                 for idx, name in enumerate(names)}
    config = SimulatorConfig(engine_mode="batched",
                             network_words_per_cycle=1 / 3,
                             network_latency=4)
    return simulate(program, lst1_inputs((8, 8, 8)), config, device_of)


def _counter_values(registry, name):
    snap = registry.snapshot()
    return {tuple(sorted(rec["labels"].items())): rec["value"]
            for rec in snap["counters"] if rec["name"] == name}


class TestMetricsRegistry:
    def test_counters_by_label(self, telemetry):
        registry, _ = telemetry
        registry.counter("hits", kind="analysis").inc()
        registry.counter("hits", kind="analysis").inc(2)
        registry.counter("hits", kind="sdfg").inc()
        assert registry.counter("hits", kind="analysis").value == 3
        assert registry.counter("hits", kind="sdfg").value == 1
        assert registry.counter_total("hits") == 4

    def test_same_instrument_regardless_of_label_order(self, telemetry):
        registry, _ = telemetry
        a = registry.counter("x", p="1", q="2")
        b = registry.counter("x", q="2", p="1")
        assert a is b

    def test_gauge_keeps_last_value(self, telemetry):
        registry, _ = telemetry
        registry.gauge("workers_live").set(3)
        registry.gauge("workers_live").set(1)
        assert registry.gauge("workers_live").value == 1.0

    def test_histogram_statistics(self, telemetry):
        registry, _ = telemetry
        hist = registry.histogram("seconds")
        for value in (0.002, 0.002, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(3.004)
        assert hist.min == pytest.approx(0.002)
        assert hist.max == pytest.approx(3.0)
        assert hist.mean == pytest.approx(3.004 / 3)
        # 0.002 lands in the 0.005 bucket, 3.0 in the 10.0 bucket.
        by_bound = dict(zip(hist.buckets, hist.bucket_counts))
        assert by_bound[0.005] == 2
        assert by_bound[10.0] == 1

    def test_disabled_registry_is_inert(self, disabled_telemetry):
        registry, _ = disabled_telemetry
        registry.counter("c").inc()
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert registry.counter("c").value == 0
        assert registry.gauge("g").value is None
        assert registry.histogram("h").count == 0
        assert registry.ops == 0

    def test_snapshot_is_json_and_sorted(self, telemetry):
        registry, _ = telemetry
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["schema"] == 1
        assert [rec["name"] for rec in snap["counters"]] == ["a", "b"]
        [hist] = snap["histograms"]
        assert hist["count"] == 1 and hist["mean"] == 0.5

    def test_merge_snapshot_adds_totals(self, telemetry):
        registry, _ = telemetry
        registry.counter("runs").inc(2)
        worker = MetricsRegistry(enabled=True)
        worker.counter("runs").inc(3)
        worker.counter("cycles", engine="batched").inc(100)
        worker.gauge("live").set(7)
        worker.histogram("secs").observe(0.01)
        worker.histogram("secs").observe(2.0)
        registry.merge_snapshot(worker.snapshot())
        assert registry.counter("runs").value == 5
        assert registry.counter(
            "cycles", engine="batched").value == 100
        assert registry.gauge("live").value == 7.0
        merged = registry.histogram("secs")
        assert merged.count == 2
        assert merged.min == pytest.approx(0.01)
        assert merged.max == pytest.approx(2.0)
        assert sum(merged.bucket_counts) == 2


class TestSpans:
    def test_disabled_span_yields_none_and_records_nothing(
            self, disabled_telemetry):
        _, tracer = disabled_telemetry
        with tracer.span("anything") as record:
            assert record is None
        assert tracer.records() == ()

    def test_nesting_builds_parent_links(self, telemetry):
        _, tracer = telemetry
        with tracer.span("outer") as outer:
            with tracer.span("inner", detail="x") as inner:
                pass
        records = {r.name: r for r in tracer.records()}
        assert records["inner"].parent_id == outer.span_id
        assert records["outer"].parent_id is None
        assert records["inner"].attrs == {"detail": "x"}
        assert records["inner"].duration >= 0
        # Inner finished first, so it was recorded first.
        assert [r.name for r in tracer.records()] == ["inner", "outer"]
        assert inner.start >= outer.start

    def test_sibling_spans_share_a_parent(self, telemetry):
        _, tracer = telemetry
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["a"].parent_id == root.span_id
        assert by_name["b"].parent_id == root.span_id

    def test_chrome_export_shape(self, telemetry, tmp_path):
        _, tracer = telemetry
        with tracer.span("work", program="lst1"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.records())
        spec = json.loads(path.read_text())
        events = spec["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "thread_name"
        [event] = [e for e in events if e["ph"] == "X"]
        assert event["name"] == "work"
        assert event["args"]["program"] == "lst1"
        assert event["dur"] >= 0
        # Lanes are remapped to small ints, not raw thread idents.
        assert event["tid"] == 0


def _journal(*records):
    """Synthetic journal records with auto seq numbers."""
    return [dict(rec, seq=i + 1) for i, rec in enumerate(records)]


class TestJournalSpans:
    def test_one_lane_per_worker(self):
        records = _journal(
            {"event": "run_started", "ts": 10.0, "jobs": 2},
            {"event": "worker_spawned", "ts": 10.1, "worker": 1,
             "pid": 100},
            {"event": "worker_spawned", "ts": 10.1, "worker": 2,
             "pid": 101},
            {"event": "job_started", "ts": 10.2, "worker": 1,
             "job": 1},
            {"event": "job_completed", "ts": 10.5, "worker": 1,
             "job": 1},
            {"event": "job_started", "ts": 10.2, "worker": 2,
             "job": 2},
            {"event": "job_failed", "ts": 10.4, "worker": 2,
             "job": 2},
            {"event": "worker_dead", "ts": 10.6, "worker": 1,
             "reason": "clean exit"},
            {"event": "worker_dead", "ts": 10.6, "worker": 2,
             "reason": "clean exit"},
            {"event": "run_completed", "ts": 10.7},
        )
        result = journal_spans(records)
        by_name = {}
        for span in result:
            by_name.setdefault(span.name, []).append(span)
        [run] = by_name["service.run"]
        assert run.tid == SUPERVISOR_LANE
        assert run.start == 10.0 and run.end == 10.7
        assert run.attrs["outcome"] == "run_completed"
        workers = by_name["service.worker"]
        # Worker w gets lane w + 1 (the supervisor holds lane 0).
        assert {w.tid for w in workers} == {2, 3}
        assert {w.tid_name for w in workers} == {"worker-1", "worker-2"}
        assert all(w.parent_id == run.span_id for w in workers)
        jobs = {j.attrs["job"]: j for j in by_name["service.job"]}
        assert jobs[1].tid == 2 and jobs[2].tid == 3
        assert jobs[1].attrs["outcome"] == "job_completed"
        assert jobs[2].attrs["outcome"] == "job_failed"
        assert jobs[2].end == 10.4

    def test_crashed_journal_closes_open_intervals(self):
        records = _journal(
            {"event": "run_started", "ts": 1.0},
            {"event": "worker_spawned", "ts": 1.1, "worker": 1},
            {"event": "job_started", "ts": 1.2, "worker": 1,
             "job": 9},
        )
        result = journal_spans(records)
        by_name = {span.name: span for span in result}
        assert by_name["service.worker"].end == 1.2
        assert by_name["service.worker"].attrs["reason"] == \
            "open-at-end-of-journal"
        assert by_name["service.job"].attrs["outcome"] == \
            "open-at-end-of-journal"

    def test_empty_journal_is_empty(self):
        assert journal_spans([]) == []

    def test_lane_names_survive_chrome_export(self):
        records = _journal(
            {"event": "run_started", "ts": 1.0},
            {"event": "worker_spawned", "ts": 1.1, "worker": 3},
            {"event": "worker_dead", "ts": 2.0, "worker": 3,
             "reason": "clean exit"},
            {"event": "run_completed", "ts": 2.1},
        )
        spec = chrome_trace(journal_spans(records))
        names = {e["args"]["name"] for e in spec["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"supervisor", "worker-3"}


class TestEngineProfile:
    def test_batched_run_is_self_describing(self, disabled_telemetry):
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        result = simulate(program, inputs,
                          SimulatorConfig(engine_mode="batched"))
        profile = result.profile
        assert profile.engine == "batched"
        assert profile.cycles == result.cycles
        assert profile.plan_count > 0
        assert profile.scalar_cycles + profile.batched_cycles \
            == profile.cycles
        assert profile.mean_batch > 1  # batching actually batched
        assert 0.0 <= profile.scalar_fraction < 1.0
        assert profile.wall_seconds > 0
        spec = json.loads(json.dumps(profile.to_json()))
        assert spec["engine"] == "batched"
        assert any("planner calls" in line
                   for line in profile.summary_lines())
        # The data plane's two counts ride along.
        assert spec["ring_bytes"] == profile.ring_bytes > 0
        assert spec["stored_words"] == profile.stored_words > 0
        assert any("stream rings" in line
                   for line in profile.summary_lines())

    def test_mean_batch_counts_window_passes(self, disabled_telemetry):
        # Every slab pass is an executed window; ``plan_count`` counts
        # planner invocations, executed or not, so it can only exceed
        # the windows (a period-q plan that found no room and was
        # re-planned at period 1) and is not what a batch is divided by.
        profile = _fractional_two_device_run().profile
        assert profile.scalar_cycles == 0
        assert profile.window_count > 0
        assert profile.window_cycles == profile.cycles
        assert profile.plan_count >= profile.window_count
        assert profile.slab_passes == profile.window_count
        assert profile.mean_batch == profile.cycles / profile.window_count
        assert profile.virtual_cycles > 0
        spec = profile.to_json()
        assert spec["mean_batch"] == profile.mean_batch
        assert spec["virtual_cycles"] == profile.virtual_cycles
        summary = "\n".join(profile.summary_lines())
        assert (f"{profile.window_count} windows (mean batch "
                f"{profile.mean_batch:.1f} cycles") in summary
        assert (f"from {profile.plan_count} planner calls on "
                f"{profile.virtual_cycles} virtual cycles") in summary

    def test_scalar_profile_counts_every_cycle_scalar(
            self, disabled_telemetry):
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        result = simulate(program, inputs,
                          SimulatorConfig(engine_mode="scalar"))
        assert result.profile.engine == "scalar"
        assert result.profile.scalar_cycles == result.cycles
        assert result.profile.scalar_fraction == 1.0

    def test_run_metrics_emitted_once_per_run(self, telemetry):
        registry, _ = telemetry
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        result = simulate(program, inputs,
                          SimulatorConfig(engine_mode="batched"))
        assert registry.counter(
            "engine.runs", engine="batched").value == 1
        assert registry.counter(
            "engine.cycles", engine="batched").value == result.cycles
        assert registry.counter("engine.plans").value \
            == result.profile.plan_count

    def test_planner_work_emitted_once_per_run(self, telemetry):
        registry, _ = telemetry
        profile = _fractional_two_device_run().profile
        assert profile.virtual_cycles > 0
        assert profile.drift_windows > 0
        assert registry.counter("engine.virtual_cycles").value \
            == profile.virtual_cycles
        assert registry.counter("engine.drift_windows").value \
            == profile.drift_windows
        assert registry.counter("engine.windows").value \
            == profile.window_count

    def test_telemetry_ops_do_not_scale_with_cycles(self, telemetry):
        """The overhead contract: a longer simulation performs the
        same number of instrument mutations as a short one — the
        engines aggregate locally and emit once per run — plus one
        window-size sample per executed window (capped at
        ``MAX_WINDOW_SAMPLES``), and windows do not scale with cycles
        either."""
        registry, _ = telemetry
        shapes = ((6, 6, 6), (12, 12, 12))
        config = SimulatorConfig(engine_mode="batched")
        for shape in shapes:  # warm the artifact cache for both
            simulate(lst1_program(shape), lst1_inputs(shape), config)
        deltas, cycle_counts, windows = [], [], []
        for shape in shapes:
            before = registry.ops
            result = simulate(lst1_program(shape), lst1_inputs(shape),
                              config)
            samples = len(result.profile.window_sizes)
            assert samples == result.profile.window_count
            deltas.append(registry.ops - before - samples)
            cycle_counts.append(result.cycles)
            windows.append(samples)
        assert cycle_counts[1] > 2 * cycle_counts[0]
        assert deltas[0] == deltas[1]
        assert windows[1] < 2 * windows[0]

    def test_disabled_telemetry_is_free_and_identical(
            self, disabled_telemetry):
        registry, tracer = disabled_telemetry
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        result = simulate(program, inputs,
                          SimulatorConfig(engine_mode="batched"))
        assert registry.ops == 0
        assert tracer.records() == ()
        registry.enabled = True
        enabled = simulate(program, inputs,
                           SimulatorConfig(engine_mode="batched"))
        assert enabled.cycles == result.cycles
        for name in ("stall_cycles", "channel_occupancy"):
            assert getattr(enabled, name) == getattr(result, name)


class TestTracedSimulation:
    def test_sampling_cadence_and_series(self, disabled_telemetry):
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, trace = simulate_traced(program, inputs,
                                            sample_every=4)
        assert trace.sample_every == 4
        assert trace.cycles[0] == 0
        assert all(b - a == 4 for a, b in zip(trace.cycles,
                                              trace.cycles[1:]))
        assert trace.cycles[-1] < result.cycles
        for series in trace.occupancy.values():
            assert len(series) == len(trace.cycles)
        # Peaks can undershoot the true high-water mark (sampling)
        # but never overshoot it.
        for channel, peak in result.channel_occupancy.items():
            assert trace.peak_occupancy(channel) <= peak
        for unit, series in trace.progress.items():
            fraction = trace.stalled_fraction(unit)
            assert 0.0 <= fraction <= 1.0
            # Progress counters are cumulative, so monotone.
            assert all(b >= a for a, b in zip(series, series[1:]))
        assert "stalled" in trace.summary()

    def test_auto_mode_warns_and_forces_scalar(self, disabled_telemetry):
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        with pytest.warns(UserWarning, match="forces the scalar "
                                             "engine"):
            result, _ = simulate_traced(program, inputs)
        assert result.profile.engine == "scalar"

    def test_explicit_batched_mode_is_rejected(self, disabled_telemetry):
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        with pytest.raises(ValidationError, match="cannot be traced"):
            simulate_traced(program, inputs,
                            SimulatorConfig(engine_mode="batched"))

    def test_scalar_mode_is_accepted_silently(self, disabled_telemetry):
        program, inputs = lst1_program((6, 6, 6)), lst1_inputs((6, 6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = simulate_traced(
                program, inputs, SimulatorConfig(engine_mode="scalar"))
        untraced = simulate(program, inputs,
                            SimulatorConfig(engine_mode="scalar"))
        assert result.cycles == untraced.cycles


def _sweep(tmp_path, backend):
    program = laplace2d().with_shape((24, 24))
    kwargs = {}
    if backend == "process":
        kwargs["service"] = ServiceConfig(
            run_root=tmp_path / f"service-{backend}",
            heartbeat_interval=0.05, poll=0.01, join_timeout=3.0)
    return explore(program,
                   space=ConfigSpace(vectorizations=(1, 2)),
                   strategy="exhaustive", workers=2, persist=False,
                   backend=backend, **kwargs)


class TestSweepTelemetry:
    #: Counters whose totals must not depend on the backend.
    EQUIVALENT = ("explore.sweeps", "explore.points_priced",
                  "explore.points_measured", "explore.cache_hits",
                  "engine.runs", "engine.cycles")

    def test_thread_and_process_totals_match(self, tmp_path):
        totals = {}
        for backend in ("thread", "process"):
            old_registry = metrics.set_registry(
                MetricsRegistry(enabled=True))
            old_tracer = spans.set_tracer(Tracer(enabled=True))
            try:
                report = _sweep(tmp_path, backend)
                assert not report.failed_points
                totals[backend] = {
                    name: metrics.registry().counter_total(name)
                    for name in self.EQUIVALENT}
                if backend == "process":
                    process_spans = spans.tracer().records()
            finally:
                metrics.set_registry(old_registry)
                spans.set_tracer(old_tracer)
        assert totals["thread"] == totals["process"]
        assert totals["thread"]["explore.points_measured"] == 2
        assert totals["thread"]["engine.runs"] == 2
        # The process sweep also reconstructed per-worker lanes from
        # the journal: every worker gets its own (tid, name) lane.
        workers = [s for s in process_spans
                   if s.name == "service.worker"]
        assert workers
        assert len({(w.tid, w.tid_name) for w in workers}) \
            == len(workers)
        assert all(w.tid_name.startswith("worker-") for w in workers)
        [run] = [s for s in process_spans if s.name == "service.run"]
        assert run.tid == SUPERVISOR_LANE

    def test_sweep_stages_are_spanned_once_each(self, telemetry):
        # Once per sweep, never per point: together the stage spans
        # account for a sweep's wall time, set-up and persistence
        # included.
        _, tracer = telemetry
        program = laplace2d().with_shape((24, 24))
        space = ConfigSpace(vectorizations=(1, 2, 4))
        explore(program, space=space, strategy="exhaustive", workers=1)
        names = [record.name for record in tracer.records()
                 if record.name.startswith("explore.")
                 and record.name != "explore.point"]
        assert names == ["explore.load", "explore.prune",
                         "explore.select", "explore.simulate",
                         "explore.report", "explore.persist"]

    def test_unpersisted_sweep_opens_no_store_spans(self, telemetry):
        _, tracer = telemetry
        explore(laplace2d().with_shape((24, 24)),
                space=ConfigSpace(vectorizations=(1,)), workers=1,
                persist=False)
        names = {record.name for record in tracer.records()}
        assert "explore.prune" in names
        assert not names & {"explore.load", "explore.persist"}

    def test_prune_reason_labels_are_bounded(self, telemetry):
        from repro.explore.prune import reason_label
        assert reason_label(None) == "none"
        assert reason_label(
            "vectorization 3 does not divide extent 8") \
            == "vectorization-indivisible"
        assert reason_label("placement failed: no feasible cut") \
            == "placement"
        assert reason_label(
            "design overflows platform logic by 2.1x") \
            == "resource-overflow"
        assert reason_label("link b1->b2 rate 0.5 under-provisioned") \
            == "network"
        assert reason_label("anything else entirely") == "other"
