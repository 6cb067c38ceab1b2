"""Tests for the resilience subsystem (``repro.faults``): deadlock
forensics, crash-safe storage primitives, cache quarantine hardening,
the cross-process persistent-cache hammer,
and the explorer's failure handling."""

import json
import os
import subprocess
import sys

import pytest

from repro.errors import DeadlockError
from repro.explore import (
    ConfigSpace,
    ExplorationReport,
    PointFailure,
    ResultCache,
    explore,
)
from repro.explore.report import ExplorationEntry
from repro.faults import FileLock, quarantine_file, read_json_guarded
from repro.lowering.cache import ArtifactCache, content_key
from repro.programs import laplace2d
from repro.simulator.engine import SimulatorConfig, simulate
from util import diamond_program, edge_keys, random_inputs


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
        assert set(spec) == {"cycle", "blocked", "waits_on",
                             "wait_cycle", "channel_occupancy"}
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

    def test_compact_and_indented_store_files_both_load(self):
        """Store files are written compact (one C-encoder pass); files
        written indented by earlier versions load the same."""
        from repro.faults.store import REPORTS, RESULTS
        report = explore(laplace2d(shape=(16, 16)),
                         space=ConfigSpace(vectorizations=(1, 2)),
                         strategy="exhaustive")
        results = RESULTS.path()
        [stored] = REPORTS.members()
        for path in (results, stored):
            assert "\n" not in path.read_text()
        entries = ResultCache().load_persistent(results)
        assert entries > 0
        for path in (results, stored):
            path.write_text(json.dumps(json.loads(path.read_text()),
                                       indent=2))
        assert ResultCache().load_persistent(results) == entries
        assert ExplorationReport.load(stored).ranking_signature() == \
            report.ranking_signature()


_HAMMER = """
import sys
sys.path.insert(0, {src!r})
{defeat_fcntl}
from repro.explore.cache import Measurement, ResultCache

path, tag = sys.argv[1], sys.argv[2]
cache = ResultCache()
for i in range({rounds}):
    cache.put(tag, (i,), Measurement(
        simulated_cycles=i, sim_expected_cycles=i,
        wall_seconds=0.0, engine="batched"))
    assert cache.save_persistent(path)
"""


class TestConcurrentPersistence:
    @pytest.mark.parametrize("locking", ["flock", "fallback"])
    def test_two_processes_hammer_one_cache(self, tmp_path, locking):
        """Two real processes interleave read-merge-write cycles on
        one persistent cache file: every entry from both survives
        and nothing gets quarantined."""
        rounds = 12
        defeat = "" if locking == "flock" else \
            "import repro.faults.store as _store; _store.fcntl = None"
        src = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src")
        script = _HAMMER.format(src=os.path.abspath(src),
                                defeat_fcntl=defeat, rounds=rounds)
        path = tmp_path / "explore_cache.json"
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(path), tag],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for tag in ("left", "right")]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()

        merged = ResultCache()
        assert merged.load_persistent(path) == 2 * rounds
        for tag in ("left", "right"):
            for i in range(rounds):
                assert merged.get(tag, (i,)) is not None
        assert not any(".corrupt-" in p.name
                       for p in tmp_path.iterdir())

    def test_lockfile_fallback_serializes_rounds(self, tmp_path):
        """Sanity on the shape of the file after the hammer: valid
        JSON, every key distinct (merge-on-save, not last-writer-
        wins clobbering)."""
        cache = ResultCache()
        path = tmp_path / "cache.json"
        from repro.explore.cache import Measurement
        cache.put("f", (1,), Measurement(1, 1, 0.0, "batched"))
        assert cache.save_persistent(path)
        data = json.loads(path.read_text())
        assert len(data) == 1


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
                strategy="exhaustive",
                cache_path=tmp_path / "cache.json",
                checkpoint_every=1)


@pytest.fixture
def data_passes(monkeypatch):
    """Give laplace2d's families the data pass a family whose data can
    fail makes: these tests break the full runs it would otherwise
    skip."""
    from repro.explore import explorer as explorer_mod
    monkeypatch.setattr(explorer_mod, "data_can_fail",
                        lambda program: True)


@pytest.mark.usefixtures("data_passes")
class TestExplorerResilience:
    def test_permanent_crash_yields_partial_report(self, tmp_path,
                                                   monkeypatch):
        # A run is deterministic: a crash is recorded on its one try.
        from repro.explore import explorer as explorer_mod
        real = explorer_mod.simulate
        crashes = []

        def cursed(program, inputs, config, device_of=None):
            if program.vectorization == 2:
                crashes.append(program.name)
                raise RuntimeError("cursed machine")
            return real(program, inputs, config, device_of=device_of)

        monkeypatch.setattr(explorer_mod, "simulate", cursed)
        report = explore(laplace2d(shape=(12, 12)),
                         **_small_sweep_kwargs(tmp_path))
        failed = report.failed_points
        assert len(failed) == 1 and len(crashes) == 1
        failure = failed[0].failure
        assert failure.kind == "error"
        assert failure.message == "RuntimeError: cursed machine"
        # The healthy point still measured, and the report says so.
        assert any(e.simulated for e in report.entries)
        text = "\n".join(report.summary_lines())
        assert "failed points: 1" in text
        assert report.to_json()["summary"]["failed_points"] == 1

    def test_deterministic_failures_are_not_retried(self, tmp_path,
                                                    monkeypatch):
        from repro.errors import StencilFlowError
        from repro.explore import explorer as explorer_mod

        calls = []

        def doomed(program, inputs, config, device_of=None):
            calls.append(program.vectorization)
            raise StencilFlowError("model violation")

        monkeypatch.setattr(explorer_mod, "simulate", doomed)
        report = explore(laplace2d(shape=(12, 12)),
                         **_small_sweep_kwargs(tmp_path))
        assert report.failed_points
        assert len(calls) == len(report.failed_points)
        assert all(e.failure.message == "model violation"
                   for e in report.failed_points)

    def test_data_guard_failures_are_not_retried(self, tmp_path):
        """The engines' data guards raise ValueError / OverflowError as
        NumPy's stores do: deterministic, so failed at the first
        attempt."""
        from repro.core import StencilProgram
        program = StencilProgram.from_json({
            "name": "int_shrink",
            "inputs": {"a": {"dtype": "int64", "dims": ["i", "j"]}},
            "outputs": ["b"],
            "shape": [8, 8],
            "program": {"b": {"code": "a[i,j-1] + a[i,j+1]",
                              "boundary_condition": "shrink"}},
        })
        report = explore(program, **_small_sweep_kwargs(tmp_path))
        assert report.failed_points
        for entry in report.failed_points:
            assert entry.failure.kind == "error"
            assert entry.failure.message == \
                "ValueError: cannot convert float NaN to integer"

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
        first = explore(program, **kwargs)
        assert len(first.failed_points) == 1
        assert (tmp_path / "cache.json").exists()  # checkpointed

        # Next run: the healthy point hits the cache, the failed one
        # is measured again (now healthy) — the sweep completes fully.
        monkeypatch.setattr(explorer_mod, "simulate", real)
        second = explore(program, **kwargs)
        assert second.failed_points == ()
        assert second.cache_hits >= 1
        assert all(e.simulated for e in second.entries if e.feasible)


class TestFailureRecords:
    def test_point_failure_round_trip(self):
        failure = PointFailure(kind="deadlock", message="wedged",
                               detail={"cycle": 72})
        assert PointFailure.from_json(failure.to_json()) == failure

    def test_point_failure_ignores_old_attempts(self):
        # Older versions retried a point and counted its tries.
        spec = {"kind": "error", "message": "boom", "attempts": 3,
                "detail": None}
        assert PointFailure.from_json(spec) == PointFailure(
            kind="error", message="boom")

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
    @pytest.mark.usefixtures("data_passes")
    def test_full_report_round_trip(self, tmp_path, monkeypatch):
        from repro.explore import explorer as explorer_mod

        def doomed(program, inputs, config, device_of=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(explorer_mod, "simulate", doomed)
        report = explore(laplace2d(shape=(12, 12)),
                         **_small_sweep_kwargs(tmp_path))
        again = ExplorationReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert len(again.failed_points) == len(report.failed_points)
        assert again.failed_points[0].failure == \
            report.failed_points[0].failure
