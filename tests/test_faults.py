"""Tests for the fault-injection and resilience subsystem
(``repro.faults``): plan parsing and validation, seeded plan
generation, deadlock forensics, crash-safe storage primitives, cache
quarantine hardening, and the explorer's failure handling."""

import json
import time

import pytest

from repro.errors import DeadlockError, ValidationError
from repro.explore import (
    ConfigSpace,
    ExplorationReport,
    PointFailure,
    ResultCache,
    explore,
)
from repro.explore.report import ExplorationEntry
from repro.faults import (
    FaultPlan,
    FileLock,
    LinkFault,
    UnitStall,
    parse_link_fault_spec,
    parse_unit_stall_spec,
    quarantine_file,
    random_fault_plan,
    read_json_guarded,
)
from repro.lowering.cache import ArtifactCache, content_key
from repro.programs import laplace2d
from repro.simulator.engine import SimulatorConfig, simulate
from util import chain_program, diamond_program, edge_keys, random_inputs


class TestFaultPlan:
    def test_link_fault_spec_round_trip(self):
        fault = parse_link_fault_spec("s0:s1@100:200")
        assert fault == LinkFault("s0", "s1", 100, 200)
        assert fault.is_outage
        assert "outage" in fault.describe()

        degraded = parse_link_fault_spec("s0:s1:a@64:96*0.5")
        assert degraded.data == "a"
        assert degraded.rate_scale == 0.5
        assert not degraded.is_outage
        assert "degraded" in degraded.describe()

    def test_unit_stall_spec(self):
        stall = parse_unit_stall_spec("s1@100:150")
        assert stall == UnitStall("s1", 100, 150)
        assert stall.covers(100) and stall.covers(149)
        assert not stall.covers(150)

    def test_bad_specs_are_rejected(self):
        with pytest.raises(ValidationError, match="link-fault spec"):
            parse_link_fault_spec("s0:s1")
        with pytest.raises(ValidationError, match="link-fault spec"):
            parse_link_fault_spec("s0@1:2")
        with pytest.raises(ValidationError, match="fault window"):
            parse_link_fault_spec("s0:s1@nope")
        with pytest.raises(ValidationError, match="rate scale"):
            parse_link_fault_spec("s0:s1@1:2*fast")
        with pytest.raises(ValidationError, match="unit-stall spec"):
            parse_unit_stall_spec("s0")
        with pytest.raises(ValidationError, match="empty unit"):
            parse_unit_stall_spec("@1:2")

    def test_window_validation(self):
        with pytest.raises(ValidationError, match="end must be > start"):
            UnitStall("s0", 9, 3)
        with pytest.raises(ValidationError, match="start must be >= 0"):
            UnitStall("s0", -1, 3)
        with pytest.raises(ValidationError, match="rate_scale"):
            LinkFault("a", "b", 0, 8, rate_scale=1.0)

    def test_plan_json_round_trip(self):
        plan = FaultPlan(
            link_faults=(LinkFault("s0", "s1", 10, 20, rate_scale=0.25,
                                   data="a"),),
            unit_stalls=(UnitStall("s1", 5, 9),))
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_json(
            json.loads(json.dumps(plan.to_json()))) == plan

    def test_empty_and_totals(self):
        assert FaultPlan().empty
        plan = FaultPlan(unit_stalls=(UnitStall("s0", 0, 10),
                                      UnitStall("s1", 5, 20)))
        assert not plan.empty
        assert plan.total_fault_cycles() == 25
        assert len(plan.describe_lines()) == 2

    def test_random_plan_is_seed_deterministic(self):
        program = chain_program(3)
        device_of = {"s0": 0, "s1": 0, "s2": 1}
        plans = [random_fault_plan(program, seed=7, horizon=500,
                                   device_of=device_of)
                 for _ in range(2)]
        assert plans[0] == plans[1]
        distinct = {random_fault_plan(program, seed=s, horizon=500,
                                      device_of=device_of)
                    for s in range(8)}
        assert len(distinct) > 1

    def test_random_plan_faults_only_remote_links(self):
        program = chain_program(3)
        # No placement: every edge is local, so no link can fail.
        for seed in range(6):
            plan = random_fault_plan(program, seed=seed, horizon=500)
            assert plan.link_faults == ()


class TestFaultResolution:
    def test_unknown_edge_is_rejected(self):
        program = chain_program(2)
        plan = FaultPlan(link_faults=(LinkFault("nope", "s1", 0, 8),))
        with pytest.raises(ValidationError, match="matches no edge"):
            simulate(program, random_inputs(program),
                     SimulatorConfig(fault_plan=plan))

    def test_unknown_unit_is_rejected(self):
        program = chain_program(2)
        plan = FaultPlan(unit_stalls=(UnitStall("nope", 0, 8),))
        with pytest.raises(ValidationError, match="names no unit"):
            simulate(program, random_inputs(program),
                     SimulatorConfig(fault_plan=plan))

    def test_report_counts_only_simulated_fault_cycles(self):
        program = chain_program(2)
        inputs = random_inputs(program)
        plan = FaultPlan(unit_stalls=(UnitStall("s0", 50, 60),))
        result = simulate(program, inputs,
                          SimulatorConfig(fault_plan=plan))
        assert result.fault_report is not None
        assert result.fault_report.unit_stall_cycles == {"s0": 10}
        assert result.fault_report.any_faults
        assert any("injected stall" in line for line in
                   result.fault_report.summary_lines())

    def test_empty_plan_is_inert(self):
        program = chain_program(2)
        inputs = random_inputs(program)
        plain = simulate(program, inputs, SimulatorConfig())
        empty = simulate(program, inputs,
                         SimulatorConfig(fault_plan=FaultPlan()))
        assert plain.fault_report is None
        assert empty.fault_report is None
        assert plain.cycles == empty.cycles


class TestDeadlockForensics:
    def _wedge(self):
        program = diamond_program(long_branch=2)
        config = SimulatorConfig(
            engine_mode="scalar",
            channel_capacities={k: 2 for k in edge_keys(program)},
            deadlock_window=64)
        with pytest.raises(DeadlockError) as info:
            simulate(program, random_inputs(program), config)
        return info.value

    def test_report_rides_on_the_error(self):
        exc = self._wedge()
        report = exc.report
        assert report is not None
        assert report.cycle == exc.cycle
        assert {name for name, _ in report.blocked} >= {"join"}
        assert report.wait_cycle is not None
        assert report.wait_cycle[0] == min(report.wait_cycle)
        assert report.fault_window is None

    def test_explain_is_one_paragraph(self):
        report = self._wedge().report
        text = report.explain()
        assert text.startswith(f"deadlock at cycle {report.cycle}")
        assert "Wait-for cycle:" in text
        assert "Frontier:" in text
        assert "\n" not in text

    def test_to_json_is_serializable(self):
        report = self._wedge().report
        spec = json.loads(json.dumps(report.to_json()))
        assert spec["cycle"] == report.cycle
        assert spec["wait_cycle"] == list(report.wait_cycle)
        assert spec["fault_window"] is None
        assert len(spec["channel_occupancy"]) == \
            len(report.channel_occupancy)


class TestStorePrimitives:
    def test_quarantine_never_clobbers(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        quarantined = []
        for _ in range(2):
            path.write_text("garbage")
            moved = quarantine_file(path, reason="test")
            assert moved is not None and moved.exists()
            quarantined.append(moved)
        assert quarantined[0] != quarantined[1]
        assert not path.exists()
        assert "quarantined corrupt file" in capsys.readouterr().err

    def test_quarantine_of_missing_file(self, tmp_path):
        assert quarantine_file(tmp_path / "gone.json") is None

    def test_read_json_guarded(self, tmp_path):
        path = tmp_path / "data.json"
        assert read_json_guarded(path) is None  # missing: no quarantine
        assert list(tmp_path.iterdir()) == []

        path.write_text('{"a": 1}')
        assert read_json_guarded(path) == {"a": 1}

        path.write_text('{"a": 1')  # truncated
        assert read_json_guarded(path, quiet=True) is None
        assert not path.exists()
        assert any(".corrupt-" in p.name for p in tmp_path.iterdir())

        path.write_text("[1, 2]")  # schema mismatch: expect dict
        assert read_json_guarded(path, quiet=True) is None
        assert not path.exists()

    def test_file_lock_round_trip(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock as held:
            assert held.locked
        assert not lock.locked

    def test_file_lock_contention_degrades(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path)
        assert holder.acquire()
        waiter = FileLock(path, timeout=0.1, poll=0.01)
        with waiter as entered:  # enters anyway, unlocked
            assert not entered.locked
        holder.release()
        assert FileLock(path, timeout=0.5).acquire()


class TestFileLockFallback:
    """The ``O_CREAT|O_EXCL`` pid-lockfile path used when ``fcntl``
    is unavailable (non-POSIX platforms): it must actually lock —
    before this path existed, no-``fcntl`` platforms silently ran
    every merge unlocked."""

    @pytest.fixture(autouse=True)
    def _no_fcntl(self, monkeypatch):
        from repro.faults import store
        monkeypatch.setattr(store, "fcntl", None)

    def test_fallback_lock_round_trip(self, tmp_path):
        import os
        path = tmp_path / "x.lock"
        lock = FileLock(path)
        with lock as held:
            assert held.locked
            # The lockfile itself is the lock and records the owner.
            assert path.read_text().strip() == str(os.getpid())
        assert not lock.locked
        assert not path.exists()  # released by unlinking

    def test_fallback_lock_excludes_contenders(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path)
        assert holder.acquire()
        waiter = FileLock(path, timeout=0.1, poll=0.01)
        assert not waiter.acquire()  # live same-pid owner: held
        assert path.exists()
        holder.release()
        assert FileLock(path, timeout=0.5).acquire()

    def test_fallback_breaks_stale_dead_pid_lock(self, tmp_path):
        import os
        path = tmp_path / "x.lock"
        # Find a pid that cannot be alive: fork a child and reap it.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        path.write_text(str(pid))
        lock = FileLock(path, timeout=1.0, poll=0.01)
        assert lock.acquire()  # dead owner: stale lock broken
        assert path.read_text().strip() == str(os.getpid())
        lock.release()

    def test_fallback_breaks_pidless_lock(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("")  # holder crashed between create and write
        assert FileLock(path, timeout=1.0, poll=0.01).acquire()

    def test_fallback_unwritable_dir_degrades(self, tmp_path):
        missing = tmp_path / "file"
        missing.write_text("x")
        # Lock path nested under a *file*: mkdir fails, acquire is
        # best-effort False rather than an exception.
        lock = FileLock(missing / "nested" / "x.lock", timeout=0.1)
        with lock as entered:
            assert not entered.locked


class TestResultCacheHardening:
    def test_corrupt_persistent_cache_is_quarantined(self, tmp_path,
                                                     capsys):
        path = tmp_path / "explore_cache.json"
        path.write_text('{"trunc')
        cache = ResultCache()
        assert cache.load_persistent(path) == 0
        assert not path.exists()
        assert any(".corrupt-" in p.name for p in tmp_path.iterdir())
        assert "quarantined" in capsys.readouterr().err
        # The end-of-sweep save rebuilds a clean file.
        assert cache.save_persistent(path)
        assert cache.load_persistent(path) == 0  # empty but valid

    def test_schema_drift_is_quarantined(self, tmp_path):
        path = tmp_path / "explore_cache.json"
        path.write_text(json.dumps({"key": {"not": "a measurement"}}))
        assert ResultCache().load_persistent(path, quiet=True) == 0
        assert not path.exists()

    def test_missing_cache_is_just_empty(self, tmp_path):
        assert ResultCache().load_persistent(
            tmp_path / "absent.json") == 0
        assert list(tmp_path.iterdir()) == []


class TestArtifactCacheInProcess:
    def test_artifacts_never_reach_disk(self, tmp_path, monkeypatch):
        """The artifact cache is in-process only: the retired
        ``REPRO_ARTIFACT_DIR`` spill no longer writes (or unpickles)
        anything, and a second instance shares nothing."""
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        key = content_key("analysis", "probe")
        first = ArtifactCache()
        assert first.get_or_build(key, lambda: {"depth": 42}) == \
            {"depth": 42}
        second = ArtifactCache()
        assert second.get_or_build(key, lambda: "rebuilt") == "rebuilt"
        assert second.stats("analysis") == (0, 1)
        assert list(tmp_path.iterdir()) == []


def _small_sweep_kwargs(tmp_path):
    return dict(space=ConfigSpace(vectorizations=(1, 2)),
                strategy="exhaustive", workers=1,
                cache_path=tmp_path / "cache.json",
                retry_backoff=0.0, checkpoint_every=1)


class TestExplorerResilience:
    def test_transient_crash_is_retried(self, tmp_path, monkeypatch):
        from repro.explore import explorer as explorer_mod
        real = explorer_mod.simulate
        crashes = {"left": 1}

        def flaky(program, inputs, config, device_of=None):
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("transient worker crash")
            return real(program, inputs, config, device_of=device_of)

        monkeypatch.setattr(explorer_mod, "simulate", flaky)
        report = explore(laplace2d(shape=(12, 12)), retries=2,
                         **_small_sweep_kwargs(tmp_path))
        assert crashes["left"] == 0
        assert report.failed_points == ()
        assert all(e.simulated for e in report.entries if e.feasible)

    def test_permanent_crash_yields_partial_report(self, tmp_path,
                                                   monkeypatch):
        from repro.explore import explorer as explorer_mod
        real = explorer_mod.simulate

        def cursed(program, inputs, config, device_of=None):
            if program.vectorization == 2:
                raise RuntimeError("cursed machine")
            return real(program, inputs, config, device_of=device_of)

        monkeypatch.setattr(explorer_mod, "simulate", cursed)
        report = explore(laplace2d(shape=(12, 12)), retries=1,
                         **_small_sweep_kwargs(tmp_path))
        failed = report.failed_points
        assert len(failed) == 1
        failure = failed[0].failure
        assert failure.kind == "error"
        assert "cursed machine" in failure.message
        assert failure.attempts == 2  # first try + one retry
        # The healthy point still measured, and the report says so.
        assert any(e.simulated for e in report.entries)
        text = "\n".join(report.summary_lines())
        assert "failed points: 1" in text
        assert report.to_json()["summary"]["failed_points"] == 1

    def test_deterministic_failures_are_not_retried(self, tmp_path,
                                                    monkeypatch):
        from repro.errors import StencilFlowError
        from repro.explore import explorer as explorer_mod

        def doomed(program, inputs, config, device_of=None):
            raise StencilFlowError("model violation")

        monkeypatch.setattr(explorer_mod, "simulate", doomed)
        report = explore(laplace2d(shape=(12, 12)), retries=3,
                         **_small_sweep_kwargs(tmp_path))
        assert report.failed_points
        assert all(e.failure.attempts == 1
                   for e in report.failed_points)

    def test_point_timeout_records_failed_points(self, tmp_path,
                                                 monkeypatch):
        from repro.explore import explorer as explorer_mod

        def glacial(program, inputs, config, device_of=None):
            time.sleep(0.4)
            raise AssertionError("should have timed out first")

        monkeypatch.setattr(explorer_mod, "simulate", glacial)
        kwargs = _small_sweep_kwargs(tmp_path)
        kwargs.update(workers=2, persist=False)
        report = explore(laplace2d(shape=(12, 12)),
                         point_timeout=0.05, retries=0, **kwargs)
        assert report.failed_points
        assert all(e.failure.kind == "timeout"
                   for e in report.failed_points)
        assert "per-point budget" in \
            report.failed_points[0].failure.message

    def test_point_timeout_is_charged_per_family_member(self, tmp_path,
                                                        monkeypatch):
        """Widths 1, 2, 4 are one lowered-program family, measured by
        one task: each member fits the budget, so none times out,
        although the family as a whole takes longer than it."""
        from repro.explore import explorer as explorer_mod

        def slowed(real):
            def run(program, inputs, config, device_of=None):
                time.sleep(0.2)
                return real(program, inputs, config, device_of=device_of)
            return run

        for name in ("simulate", "simulate_control"):
            monkeypatch.setattr(explorer_mod, name,
                                slowed(getattr(explorer_mod, name)))
        kwargs = _small_sweep_kwargs(tmp_path)
        kwargs.update(space=ConfigSpace(vectorizations=(1, 2, 4)),
                      workers=2, persist=False)
        report = explore(laplace2d(shape=(12, 12)), point_timeout=0.45,
                         **kwargs)
        assert report.failed_points == ()
        assert report.simulated_points == 3

    def test_failed_sweep_resumes_to_completion(self, tmp_path,
                                                monkeypatch):
        from repro.explore import explorer as explorer_mod
        real = explorer_mod.simulate

        def cursed(program, inputs, config, device_of=None):
            if program.vectorization == 2:
                raise RuntimeError("cursed machine")
            return real(program, inputs, config, device_of=device_of)

        program = laplace2d(shape=(12, 12))
        kwargs = _small_sweep_kwargs(tmp_path)
        monkeypatch.setattr(explorer_mod, "simulate", cursed)
        first = explore(program, retries=0, **kwargs)
        assert len(first.failed_points) == 1
        assert (tmp_path / "cache.json").exists()  # checkpointed

        # Next run: the healthy point hits the cache, the failed one
        # is retried (now healthy) — the sweep completes fully.
        monkeypatch.setattr(explorer_mod, "simulate", real)
        second = explore(program, retries=0, **kwargs)
        assert second.failed_points == ()
        assert second.cache_hits >= 1
        assert all(e.simulated for e in second.entries if e.feasible)


class TestFailureRecords:
    def test_point_failure_round_trip(self):
        failure = PointFailure(kind="deadlock", message="wedged",
                               attempts=3, detail={"cycle": 72})
        assert PointFailure.from_json(failure.to_json()) == failure

    def test_entry_round_trip_with_failure(self):
        from repro.explore import ConfigPoint
        entry = ExplorationEntry(
            point=ConfigPoint(vectorization=2), feasible=True,
            failed=True,
            failure=PointFailure(kind="timeout", message="slow"))
        again = ExplorationEntry.from_json(
            json.loads(json.dumps(entry.to_json())))
        assert again == entry

    def test_old_reports_without_failure_fields_load(self):
        from repro.explore import ConfigPoint
        entry = ExplorationEntry(point=ConfigPoint(), feasible=True)
        spec = entry.to_json()
        del spec["failed"], spec["failure"]  # pre-resilience schema
        loaded = ExplorationEntry.from_json(spec)
        assert not loaded.failed
        assert loaded.failure is None


class TestReportRoundTripWithFailures:
    def test_full_report_round_trip(self, tmp_path, monkeypatch):
        from repro.explore import explorer as explorer_mod

        def doomed(program, inputs, config, device_of=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(explorer_mod, "simulate", doomed)
        report = explore(laplace2d(shape=(12, 12)), retries=0,
                         **_small_sweep_kwargs(tmp_path))
        again = ExplorationReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert len(again.failed_points) == len(report.failed_points)
        assert again.failed_points[0].failure == \
            report.failed_points[0].failure
