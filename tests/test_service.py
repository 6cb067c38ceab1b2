"""Tests for the supervised multiprocess exploration service
(``repro.service``): journal round-trips, lease/crash-loop
accounting, thread-vs-process report equivalence, poison-pill
quarantine, graceful degradation when workers cannot spawn, and the
cross-process persistent-cache hammer."""

import json
import os
import subprocess
import sys
import types

import pytest

from repro.errors import DefinitionError, ServiceUnavailable
from repro.explore import ConfigSpace, ResultCache, explore
from repro.programs import laplace2d
from repro.service import (
    Job,
    JobJournal,
    LeaseTable,
    POISON_ENV,
    ServiceConfig,
    Supervisor,
    find_run_dirs,
)
from repro.service.journal import JOURNAL_NAME, new_run_dir
from util import assert_facts_sound


def _fast_service(tmp_path, **overrides) -> ServiceConfig:
    """Supervision tunables tightened for test wall time."""
    settings = dict(run_root=tmp_path / "service",
                    heartbeat_interval=0.05, poll=0.01,
                    join_timeout=3.0)
    settings.update(overrides)
    return ServiceConfig(**settings)


class TestJournal:
    def test_round_trip_and_replay(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        with JobJournal(path) as journal:
            journal.append("run_started", jobs=2)
            journal.append("job_enqueued", job=1)
            journal.append("job_enqueued", job=2)
            journal.append("lease_granted", lease=1, jobs=[1, 2])
            journal.append("job_completed", job=1)
            journal.append("worker_dead", worker=1, reason="test")
            journal.append("job_requeued", job=2)
            journal.append("job_completed", job=2)
            journal.append("run_completed")
        records = JobJournal.read(path)
        assert [r["seq"] for r in records] == list(range(1, 10))
        state = JobJournal.replay(path)
        assert state.jobs == {1: "completed", 2: "completed"}
        assert state.worker_deaths == 1
        assert state.requeues == 1
        assert state.completed_run
        assert state.unresolved() == []
        assert "completed: 2/2 jobs" in state.summary()

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        with JobJournal(path) as journal:
            journal.append("job_enqueued", job=1)
            journal.append("lease_granted", jobs=[1])
        with open(path, "a") as handle:
            handle.write('{"seq": 3, "event": "job_comp')  # torn
        state = JobJournal.replay(path)
        assert state.jobs == {1: "leased"}
        assert state.unresolved() == [1]
        assert "interrupted" in state.summary()

    def test_missing_journal_reads_empty(self, tmp_path):
        assert JobJournal.read(tmp_path / "absent.jsonl") == []

    def test_run_dir_discovery(self, tmp_path):
        root = tmp_path / "service"
        first = new_run_dir(root)
        second = new_run_dir(root, tag="chaos")
        assert first != second
        assert "chaos" in second.name
        # Only directories holding a journal count as run dirs.
        (first / JOURNAL_NAME).write_text("")
        (root / "not-a-run").mkdir()
        assert list(find_run_dirs(root)) == [first]


def _probe_supervisor(config, settle=lambda machine, result: None):
    """A hand-built supervisor over one stand-in machine."""
    prediction = types.SimpleNamespace(
        family_hash="fam", simulation_key=(1,),
        point=types.SimpleNamespace(label=lambda: "P"))
    return Supervisor(
        types.SimpleNamespace(name="probe"), None, [[[prediction]]],
        settle, inputs={}, engine_mode="auto", resolved_engine="batched",
        cache=ResultCache(), config=config)


def _jobs(*ids):
    return [Job(job_id=i, prediction=None, entry_key=f"k{i}")
            for i in ids]


class TestLeaseTable:
    def test_grant_release(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(worker_id=1, jobs=_jobs(1, 2), now=100.0)
        assert table.get(lease.lease_id) is lease
        assert [j.job_id for j in lease.outstanding] == [1, 2]
        assert not lease.expired(now=105.0)
        assert lease.expired(now=111.0)
        lease.renew(10.0, now=111.0)
        assert not lease.expired(now=120.0)
        assert table.release(lease.lease_id) is lease
        assert len(table) == 0

    def test_forfeit_charges_only_the_current_job(self):
        table = LeaseTable(ttl=10.0, max_point_deaths=2)
        lease = table.grant(1, _jobs(1, 2, 3), now=0.0)
        lease.note_started(1, now=0.0)
        lease.note_resolved(1)
        lease.note_started(2, now=1.0)
        requeue, culprit, poisoned = table.forfeit(lease.lease_id)
        assert culprit is not None and culprit.job_id == 2
        assert culprit.deaths == 1
        assert poisoned == []
        # Job 2 (one death) and untouched job 3 both go back.
        assert sorted(j.job_id for j in requeue) == [2, 3]
        assert [j.deaths for j in sorted(requeue,
                                         key=lambda j: j.job_id)] \
            == [1, 0]

    def test_second_death_poisons(self):
        table = LeaseTable(ttl=10.0, max_point_deaths=2)
        job = _jobs(7)[0]
        for expected_deaths in (1, 2):
            lease = table.grant(1, [job], now=0.0)
            lease.note_started(7, now=0.0)
            requeue, culprit, poisoned = table.forfeit(lease.lease_id)
            assert culprit is job and job.deaths == expected_deaths
        assert requeue == []
        assert poisoned == [job]

    def test_death_between_jobs_blames_nobody(self):
        table = LeaseTable(ttl=10.0)
        lease = table.grant(1, _jobs(1), now=0.0)
        requeue, culprit, poisoned = table.forfeit(lease.lease_id)
        assert culprit is None and poisoned == []
        assert [j.job_id for j in requeue] == [1]
        assert requeue[0].deaths == 0

    def test_forfeit_unknown_lease_is_empty(self):
        assert LeaseTable(ttl=1.0).forfeit(99) == ([], None, [])

    def test_current_overdue(self):
        table = LeaseTable(ttl=100.0)
        lease = table.grant(1, _jobs(1), now=0.0)
        assert not lease.current_overdue(5.0, now=50.0)  # nothing runs
        lease.note_started(1, now=50.0)
        assert not lease.current_overdue(None, now=500.0)  # no budget
        assert not lease.current_overdue(5.0, now=54.0)
        assert lease.current_overdue(5.0, now=56.0)


class TestShardCompaction:
    def test_adopt_serialized_skips_garbage(self):
        cache = ResultCache()
        good = {"simulated_cycles": 10, "sim_expected_cycles": 10,
                "wall_seconds": 0.1, "engine": "batched"}
        adopted = cache.adopt_serialized({
            "a": good, "b": {"not": "a measurement"}})
        assert adopted == 1 and len(cache) == 1

    def test_existing_entries_win(self):
        cache = ResultCache()
        cache.adopt_serialized({"a": {
            "simulated_cycles": 1, "sim_expected_cycles": 1,
            "wall_seconds": 0.0, "engine": "batched"}})
        cache.adopt_serialized({"a": {
            "simulated_cycles": 999, "sim_expected_cycles": 999,
            "wall_seconds": 0.0, "engine": "batched"}})
        [entry] = cache.to_json().values()
        assert entry["simulated_cycles"] == 1


def _sweep(tmp_path, backend, widths=(1, 2), **kwargs):
    program = laplace2d().with_shape((24, 24))
    # Workers receive the program pickled: ship it carrying every
    # memoised fact, so each process sweep below also checks that such
    # programs load and simulate on the far side.
    assert_facts_sound(program)
    kwargs.setdefault("service", _fast_service(tmp_path))
    if backend != "process":
        kwargs.pop("service")
    return explore(program,
                   space=ConfigSpace(vectorizations=widths),
                   strategy="exhaustive", workers=2,
                   persist=False, backend=backend, **kwargs)


def _comparable(report):
    """Entry records minus timing and cache provenance."""
    stripped = []
    for entry in report.entries:
        record = entry.to_json()
        record.pop("wall_seconds")
        record.pop("cache_hit")
        stripped.append(record)
    return stripped


class TestProcessBackend:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(DefinitionError, match="unknown explore "
                                                 "backend"):
            explore(laplace2d().with_shape((24, 24)),
                    backend="carrier-pigeon")

    def test_reports_match_thread_backend(self, tmp_path):
        """The acceptance criterion: fault-free process-backend sweeps
        are entry-for-entry identical to the thread backend."""
        thread = _sweep(tmp_path, "thread")
        process = _sweep(tmp_path, "process")
        assert process.ranking_signature() == \
            thread.ranking_signature()
        assert _comparable(process) == _comparable(thread)
        assert not process.failed_points
        # A clean run removes its run directory.
        assert list(find_run_dirs(tmp_path / "service")) == []

    def test_poison_point_is_quarantined(self, tmp_path, monkeypatch):
        """The chaos criterion: a point that SIGKILLs its worker on
        every attempt is quarantined after exactly two deaths while
        every other point still gets simulated."""
        monkeypatch.setenv(POISON_ENV, "W2 x1c")
        monkeypatch.setenv("REPRO_SERVICE_KEEP_RUNDIR", "1")
        report = _sweep(tmp_path, "process", widths=(1, 2, 4))
        by_label = {e.point.label(): e for e in report.entries}
        poisoned = by_label["W2 x1c"]
        assert poisoned.failed and not poisoned.simulated
        assert poisoned.failure.kind == "poisoned"
        assert poisoned.failure.attempts == 2
        assert "crash loop" in poisoned.failure.message
        for label in ("W1 x1c", "W4 x1c"):
            assert by_label[label].simulated
        # The journal recorded the two worker deaths and the verdict.
        [run_dir] = find_run_dirs(tmp_path / "service")
        state = JobJournal.replay(run_dir / JOURNAL_NAME)
        assert state.worker_deaths >= 2
        assert state.events.get("job_poisoned") == 1
        assert state.unresolved() == []

    def test_degrades_to_thread_backend(self, tmp_path, monkeypatch,
                                        capsys):
        def refuse(*args, **kwargs):
            raise ServiceUnavailable("spawn denied by test")

        monkeypatch.setattr(Supervisor, "run", refuse)
        report = _sweep(tmp_path, "process")
        assert report.simulated_points == 2
        assert not report.failed_points
        assert "falling back to the thread backend" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_budget_needs_workers(self, tmp_path, monkeypatch, capsys,
                                  backend):
        """A point budget is enforced by killing a worker, so a sweep
        with one runs on the process pool whatever ``backend`` says,
        and when the pool refuses it raises instead of falling back to
        an in-process sweep that could not honour the budget."""
        def refuse(*args, **kwargs):
            raise ServiceUnavailable("spawn denied by test")

        monkeypatch.setattr(Supervisor, "run", refuse)
        with pytest.raises(ServiceUnavailable,
                           match="spawn denied by test; a point_timeout "
                                 "needs worker processes"):
            _sweep(tmp_path, backend, point_timeout=5.0)
        assert "falling back" not in capsys.readouterr().err

    def test_spawn_failure_mid_sweep_settles_each_machine_once(
            self, tmp_path, monkeypatch):
        """When respawning fails mid-sweep, what the pool measured stays
        measured (not a cache hit) and only the machines it left
        unsettled run on threads, each once."""
        from repro.explore import explorer
        from repro.service import WorkerPool
        # The sweep measures W4, W2, W1 (in predicted rank order): the
        # worker dies on the third point and cannot be replaced.
        monkeypatch.setenv(POISON_ENV, "W1 x1c")
        real_spawn = WorkerPool.spawn
        spawns = []

        def spawn_once(pool):
            spawns.append(pool)
            if len(spawns) > 1:
                raise OSError("spawn denied by test")
            return real_spawn(pool)

        in_threads = []
        for name in ("simulate", "simulate_control"):
            def counted(program, inputs, config, device_of=None,
                        _real=getattr(explorer, name)):
                in_threads.append(program.vectorization)
                return _real(program, inputs, config, device_of=device_of)
            monkeypatch.setattr(explorer, name, counted)
        monkeypatch.setattr(WorkerPool, "spawn", spawn_once)

        report = _sweep(tmp_path, "process", widths=(1, 2, 4),
                        service=_fast_service(tmp_path, workers=1,
                                              keep_run_dir=True))
        assert not report.failed_points
        assert report.simulated_points == 3
        assert report.cache_hits == 0
        assert not any(entry.cache_hit for entry in report.entries)
        [run_dir] = find_run_dirs(tmp_path / "service")
        records = JobJournal.read(run_dir / JOURNAL_NAME)
        label_of = {record["job"]: record["point"] for record in records
                    if record["event"] == "job_enqueued"}
        in_pool = [label_of[record["job"]] for record in records
                   if record["event"] == "job_completed"]
        assert in_pool == ["W4 x1c", "W2 x1c"]
        assert in_threads == [1]

    def test_unspawnable_workers_raise_service_unavailable(
            self, tmp_path):
        """Below the fallback: the supervisor itself gives up with
        ``ServiceUnavailable`` after ``spawn_attempts`` consecutive
        spawn failures, journaling the abort."""
        supervisor = _probe_supervisor(
            _fast_service(tmp_path, spawn_attempts=3))

        class NoSpawn:
            def Pipe(self, duplex=True):
                raise OSError("spawn denied by test")

        supervisor.pool.ctx = NoSpawn()
        with pytest.raises(ServiceUnavailable,
                           match="could not spawn"):
            supervisor.run()
        [run_dir] = find_run_dirs(tmp_path / "service")
        state = JobJournal.replay(run_dir / JOURNAL_NAME)
        assert state.aborted
        assert state.events.get("worker_spawn_failed") == 3


#: Child body for the cross-process cache hammer: put ROUNDS private
#: entries into the shared persistent cache file, saving (read-merge-
#: write under FileLock) after every put.
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


class TestServeIntegration:
    def test_miss_job_runs_on_supervised_backend(self):
        """A serve cache miss funds a sweep on the supervised process
        backend, and the resulting report lands in both the frontier
        index and the report store."""
        from repro import api
        from repro.explore import iter_stored_reports
        from repro.serve import FrontierIndex, JobManager

        index = FrontierIndex()
        manager = JobManager(
            index, backend="process",
            explore_kwargs={
                "space": ConfigSpace(vectorizations=(1, 2)),
                "strategy": "exhaustive"})
        platform = api.resolve_platform(None)
        job, created = manager.enqueue(
            "laplace2d", (24, 24), platform,
            ("family", (24, 24), platform.name))
        assert created
        assert manager.wait_all(300)
        job = manager.get(job.job_id)
        assert job.state == "done", job.error
        assert len(index) == 1
        assert len(list(iter_stored_reports())) == 1
        entry, _ = index.locate("laplace2d", (24, 24), platform.name)
        assert entry is not None
        assert entry.best["simulated_cycles"] > 0


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


class TestWorkerPool:
    """A pool's workers outlive a sweep: reused while clean, replaced
    when found dead, never returned from an aborted sweep."""

    EQUIVALENT = ("explore.sweeps", "explore.points_priced",
                  "explore.points_measured", "explore.cache_hits",
                  "engine.runs", "engine.cycles")

    def test_second_sweep_reuses_workers(self, tmp_path):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry
        from repro.service import WorkerPool
        thread = _comparable(_sweep(tmp_path, "thread"))
        pool = WorkerPool(_fast_service(tmp_path, workers=2))
        old = metrics.set_registry(MetricsRegistry(enabled=True))
        try:
            first = _sweep(tmp_path, "process", service=pool)
            spawned = metrics.registry().counter_total(
                "service.workers_spawned")
            second = _sweep(tmp_path, "process", service=pool)
            # Widths 1 and 2 are one family: one lease, one worker.
            assert metrics.registry().counter_total(
                "service.workers_spawned") == spawned == 1
        finally:
            metrics.set_registry(old)
            pool.close()
        assert _comparable(first) == thread
        assert _comparable(second) == thread

    def test_worker_killed_while_idle_is_replaced(self, tmp_path):
        import signal
        from repro.service import WorkerPool
        pool = WorkerPool(_fast_service(tmp_path, workers=1,
                                        keep_run_dir=True))
        try:
            _sweep(tmp_path, "process", service=pool)
            [victim] = pool._idle
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(10)
            report = _sweep(tmp_path, "process", service=pool)
        finally:
            pool.close()
        assert not report.failed_points
        assert report.simulated_points == 2
        _, second = sorted(find_run_dirs(tmp_path / "service"))
        state = JobJournal.replay(second / JOURNAL_NAME)
        assert state.events.get("worker_spawned") == 1
        assert "worker_reused" not in state.events
        # The dead idle worker charged nobody: no death, no requeue.
        assert state.worker_deaths == 0 and state.requeues == 0
        assert state.completed_run and state.unresolved() == []

    def test_aborted_sweep_returns_no_worker(self, tmp_path):
        from repro.explore import Pruner, default_inputs
        from repro.explore.space import ConfigPoint
        from repro.hardware.platform import STRATIX10
        from repro.service import WorkerPool
        program = laplace2d().with_shape((24, 24))
        pruner = Pruner(program, STRATIX10)
        predictions = [pruner.predict(ConfigPoint(vectorization=w))
                       for w in (1, 2, 4)]
        pool = WorkerPool(_fast_service(tmp_path, workers=2))
        borrowed = []

        def settle(machine, result):
            # The explorer's settle checkpoints; this one fails at once.
            borrowed.extend(handle.process
                            for handle in supervisor._workers.values())
            raise RuntimeError("checkpoint failed")

        supervisor = Supervisor(
            program, STRATIX10, [[[p] for p in predictions]], settle,
            default_inputs(program), "auto", "batched", ResultCache(),
            pool)
        try:
            with pytest.raises(RuntimeError, match="checkpoint failed"):
                supervisor.run()
            assert borrowed
            assert pool._idle == [] and pool._busy == {}
            assert all(process.exitcode is not None
                       for process in borrowed)
        finally:
            pool.close()

    def test_second_sweep_metrics_match_thread_backend(self, tmp_path):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry
        from repro.service import WorkerPool
        pool = WorkerPool(_fast_service(tmp_path, workers=2))
        totals = {}
        try:
            for label, backend in (("thread", "thread"),
                                   ("first", "process"),
                                   ("second", "process")):
                old = metrics.set_registry(MetricsRegistry(enabled=True))
                try:
                    _sweep(tmp_path, backend, service=pool)
                    totals[label] = {
                        name: metrics.registry().counter_total(name)
                        for name in self.EQUIVALENT}
                finally:
                    metrics.set_registry(old)
        finally:
            pool.close()
        assert totals["thread"]["engine.runs"] == 2
        assert totals["first"] == totals["thread"]
        assert totals["second"] == totals["thread"]

    def test_stale_sweep_message_is_dropped(self, tmp_path):
        """Job ids restart at 1 per sweep: a ``result`` tagged with an
        earlier sweep's id must not resolve this sweep's job 1."""
        from repro.explore.cache import Measurement
        settled = []
        supervisor = _probe_supervisor(
            _fast_service(tmp_path),
            settle=lambda machine, result: settled.append(result))
        supervisor.sweep_id = 2
        supervisor._journal = JobJournal(tmp_path / JOURNAL_NAME)
        handle = types.SimpleNamespace(lease=None, last_beat=0.0,
                                       worker_id=1)
        result = {"type": "result", "job_id": 1, "measurement":
                  Measurement(7, 7, 0.0, "batched").to_json()}
        supervisor._handle_message(handle, dict(result, sweep_id=1))
        assert supervisor._unresolved == {1}
        supervisor._handle_message(handle, dict(result, sweep_id=2))
        assert supervisor._unresolved == set()
        assert [m.simulated_cycles for m in settled] == [7]
        supervisor._journal.close()
