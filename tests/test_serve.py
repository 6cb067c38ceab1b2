"""The config-query service: frontier index, HTTP endpoint, jobs.

Covers the serve acceptance surface end to end, against a live server
on an ephemeral port:

* warm queries are answered from the in-memory index (no lowering, no
  simulation — asserted via the artifact-cache stats);
* a cache miss returns 202 and enqueues exactly one supervised job,
  and the poll endpoint converges to the measured best;
* PR 3-8 era reports (no ``schema_version``, no ``family_hash``) are
  upgraded in place at warm-load and become servable;
* the index stays consistent under concurrent queries while a
  background sweep inserts into it.
"""

import http.client
import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.errors import ParseError
from repro.explore import (
    ConfigSpace,
    REPORT_SCHEMA_VERSION,
    iter_stored_reports,
    report_store_dir,
    upgrade_report_json,
)
from repro.serve import (
    FrontierIndex,
    JobManager,
    QuerySpec,
    ReproServer,
    ServeConfig,
    ServeRequestError,
    parse_query,
    parse_shape,
    query_log_path,
    snapshot_path,
)
from repro.serve.http import MAX_BODY_BYTES, _Handler

SHAPE = (16, 16, 8)
SMALL = ConfigSpace(vectorizations=(1,), device_counts=(1,),
                    partitions=("contiguous",), network_rates=(1.0,),
                    network_latencies=(32,), channel_depths=(8,))


def seed_report(shape=SHAPE, program="hdiff"):
    """Run one tiny persisted sweep so the store has a front."""
    return api.explore(program, shape=shape, space=SMALL,
                       strategy="exhaustive", backend="thread")


def make_server(**overrides):
    config = ServeConfig(port=0, backend="thread", max_devices=1,
                         beam_width=1,
                         explore_kwargs={"space": SMALL,
                                         "strategy": "exhaustive"},
                         **overrides)
    return ReproServer(config).start()


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) \
                as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_job(server, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = get(server, f"/v1/jobs/{job_id}")
        assert status == 200
        if body["job"]["state"] in ("done", "failed"):
            return body["job"]
        time.sleep(0.2)
    pytest.fail(f"job {job_id} did not finish within {timeout}s")


class TestSchema:
    def test_parse_shape(self):
        assert parse_shape("16,16,8") == (16, 16, 8)
        with pytest.raises(ServeRequestError):
            parse_shape("16,zero")
        with pytest.raises(ServeRequestError):
            parse_shape("0,4")

    def test_parse_query_requires_program(self):
        with pytest.raises(ServeRequestError):
            parse_query({})

    def test_body_wins_over_params(self):
        spec = parse_query({"program": "a", "shape": "1,2"},
                           {"program": "b", "shape": [3, 4]})
        assert spec == QuerySpec(program="b", shape=(3, 4))

    def test_upgrade_rejects_newer_schema(self):
        with pytest.raises(ParseError):
            upgrade_report_json(
                {"schema_version": REPORT_SCHEMA_VERSION + 1})

    def test_upgrade_stamps_and_defaults(self):
        out, changed = upgrade_report_json({"program": "p"})
        assert changed
        assert out["schema_version"] == REPORT_SCHEMA_VERSION
        assert out["family_hash"] is None
        again, changed = upgrade_report_json(out)
        assert not changed


class TestReportStore:
    def test_persisted_sweep_lands_in_store(self, tmp_path):
        report = seed_report()
        paths = list(iter_stored_reports())
        assert len(paths) == 1
        spec = json.loads(paths[0].read_text())
        assert spec["schema_version"] == REPORT_SCHEMA_VERSION
        assert spec["family_hash"] == report.family_hash
        assert report.family_hash is not None

    def test_latest_sweep_per_triple_wins(self):
        seed_report()
        seed_report()  # same triple: overwrites, no duplicate
        assert len(list(iter_stored_reports())) == 1

    def test_unpersisted_sweep_stays_out(self):
        api.explore("hdiff", shape=SHAPE, space=SMALL,
                    strategy="exhaustive", backend="thread",
                    persist=False)
        assert list(iter_stored_reports()) == []


class TestFrontierIndex:
    def test_warm_load_and_locate(self):
        seed_report()
        index, stats = FrontierIndex.warm_load()
        assert stats.reports_loaded == 1
        assert len(index) == 1
        entry, key = index.locate("hdiff", SHAPE,
                                  api.resolve_platform(None).name)
        assert entry is not None
        assert entry.key == key
        assert entry.best["simulated_cycles"] > 0

    def test_locate_memoizes_requests(self):
        seed_report()
        index, _ = FrontierIndex.warm_load()
        platform = api.resolve_platform(None).name
        index.locate("hdiff", SHAPE, platform)
        first_hits = index.hits
        index.locate("hdiff", SHAPE, platform)
        assert index.hits == first_hits + 1

    def test_stale_v1_report_upgraded_in_place_and_served(self):
        seed_report()
        path = next(iter(iter_stored_reports()))
        spec = json.loads(path.read_text())
        del spec["schema_version"]   # regress to the PR 3-8 era
        del spec["family_hash"]
        path.write_text(json.dumps(spec))

        index, stats = FrontierIndex.warm_load()
        assert stats.reports_loaded == 1
        assert stats.reports_upgraded == 1
        entry, _ = index.locate("hdiff", SHAPE,
                                api.resolve_platform(None).name)
        assert entry is not None
        rewritten = json.loads(path.read_text())
        assert rewritten["schema_version"] == REPORT_SCHEMA_VERSION
        assert rewritten["family_hash"] == entry.family_hash

    def test_corrupt_report_skipped_not_fatal(self):
        seed_report()
        store = report_store_dir()
        (store / "report-deadbeef00000000.json").write_text("{ nope")
        index, stats = FrontierIndex.warm_load()
        assert len(index) == 1
        assert stats.reports_skipped == 1

    def test_truncated_report_is_quarantined(self, capsys):
        import os
        from repro.cli import main
        seed_report()
        bad = report_store_dir() / "report-deadbeef00000000.json"
        bad.write_text('{"truncated": ')
        index, stats = FrontierIndex.warm_load()
        assert len(index) == 1
        assert stats.reports_skipped == 1
        assert not bad.exists()
        assert (report_store_dir()
                / f"{bad.name}.corrupt-{os.getpid()}").exists()
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "report store: 1 report(s)" in out
        assert "quarantined files: 1" in out

    def test_snapshot_roundtrip(self):
        seed_report()
        index, _ = FrontierIndex.warm_load()
        path = index.save_snapshot()
        assert path == snapshot_path()
        snap = json.loads(path.read_text())
        assert len(snap["entries"]) == 1
        assert snap["entries"][0]["shape"] == list(SHAPE)


class TestQueryFacade:
    def test_miss_without_jobs_returns_none(self):
        assert api.query("hdiff", shape=SHAPE,
                         index=FrontierIndex()) is None

    def test_hit_carries_lookup_latency_and_versions(self):
        seed_report()
        index, _ = FrontierIndex.warm_load()
        response = api.query("hdiff", shape=SHAPE, index=index)
        assert response["kind"] == "best"
        assert response["schema_version"] == 1
        assert response["report_schema_version"] == \
            REPORT_SCHEMA_VERSION
        assert response["lookup_seconds"] >= 0.0
        assert response["source"]["program"] == \
            "horizontal_diffusion"

    def test_pareto_view(self):
        seed_report()
        index, _ = FrontierIndex.warm_load()
        response = api.query("hdiff", shape=SHAPE, pareto=True,
                             index=index)
        assert response["kind"] == "pareto"
        assert len(response["pareto"]) >= 1


class TestLiveServer:
    def test_warm_hit_miss_job_roundtrip(self):
        seed_report()
        server = make_server()
        try:
            # Warm: served from the index, never touching the
            # lowering artifact cache.
            from repro.lowering import default_cache
            default_cache().reset_stats()
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=16,16,8")
            assert status == 200
            assert body["kind"] == "best"
            assert body["best"]["simulated_cycles"] > 0
            assert default_cache().misses == 0

            status, body = get(
                server, "/v1/pareto?program=hdiff&shape=16,16,8")
            assert status == 200
            assert len(body["pareto"]) >= 1

            # Cold: 202 + job, and a duplicate miss shares the job.
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=8,8,4")
            assert status == 202
            assert body["kind"] == "miss"
            job_id = body["job"]["job_id"]
            assert body["job"]["poll"] == f"/v1/jobs/{job_id}"
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=8,8,4")
            if status == 202:  # sweep still running: shares the job
                assert body["job"]["job_id"] == job_id
            else:              # sweep already landed: warm answer
                assert status == 200

            job = wait_job(server, job_id)
            assert job["state"] == "done", job.get("error")
            assert job["best"]["simulated_cycles"] > 0

            # Converged: the same query is warm now.
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=8,8,4")
            assert status == 200
            assert body["best"]["simulated_cycles"] == \
                job["best"]["simulated_cycles"]
        finally:
            server.close()

    def test_one_root_across_a_restart(self):
        """Everything a miss writes lands under ``REPRO_CACHE_DIR``: a
        restarted server on the same root answers the same query
        warm, and the process backend's kept run dir sits there too."""
        import os
        from pathlib import Path
        from repro.service import ServiceConfig
        from repro.service.journal import find_run_dirs
        root = Path(os.environ["REPRO_CACHE_DIR"])
        config = ServeConfig(
            port=0, backend="process", max_devices=1, beam_width=1,
            explore_kwargs={"space": SMALL, "strategy": "exhaustive",
                            "service": ServiceConfig(
                                workers=1, keep_run_dir=True)})
        query = "/v1/best?program=hdiff&shape=8,8,4"
        server = ReproServer(config).start()
        try:
            status, body = get(server, query)
            assert status == 202
            job = wait_job(server, body["job"]["job_id"])
            assert job["state"] == "done", job.get("error")
        finally:
            server.close()
        server = ReproServer(config).start()
        try:
            assert server.warm_stats.reports_loaded == 1
            status, body = get(server, query)
            assert status == 200
            assert body["best"]["simulated_cycles"] == \
                job["best"]["simulated_cycles"]
        finally:
            server.close()
        assert len(list(find_run_dirs(root / "service"))) == 1

    def test_post_with_inline_program(self):
        report = seed_report()
        server = make_server()
        try:
            payload = json.dumps({
                "program": report.best and
                api.resolve_program("hdiff", shape=SHAPE).to_json(),
            }).encode()
            request = urllib.request.Request(
                server.url + "/v1/best", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) \
                    as response:
                body = json.loads(response.read())
            assert response.status == 200
            assert body["kind"] == "best"
        finally:
            server.close()

    def test_health_and_metrics(self):
        seed_report()
        server = make_server()
        try:
            status, body = get(server, "/v1/healthz")
            assert status == 200
            assert body["ok"] is True
            assert body["index_entries"] == 1
            assert body["warm"]["reports_loaded"] == 1
            assert set(body["jobs"]) == {"queued", "running",
                                         "done", "failed"}

            get(server, "/v1/best?program=hdiff&shape=16,16,8")
            status, body = get(server, "/v1/metricsz")
            assert status == 200
            snapshot = body["metrics"]
            assert snapshot["schema"] == 1
            names = {rec["name"] for rec in snapshot["counters"]}
            assert "serve.requests" in names
            assert "serve.query_hits" in names
            histograms = {rec["name"]
                          for rec in snapshot["histograms"]}
            assert "serve.lookup_seconds" in histograms
        finally:
            server.close()

    def test_errors_are_schema_shaped(self):
        server = make_server()
        try:
            status, body = get(server, "/v1/best?shape=4,4")
            assert status == 400
            assert body["kind"] == "error"
            assert "program" in body["error"]
            status, body = get(server, "/v1/nope")
            assert status == 404
            status, body = get(server, "/v1/jobs/doesnotexist")
            assert status == 404
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=0,0")
            assert status == 400
        finally:
            server.close()

    def test_response_leaves_in_one_write(self):
        # Headers and body in separate writes make a keep-alive client
        # wait out its delayed ACK for the body (~40 ms per hit);
        # asserted on the writes themselves, not on a latency.
        class RecordingWfile:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))
                return len(data)

            def flush(self):
                pass

        assert _Handler.disable_nagle_algorithm  # TCP_NODELAY on accept
        seed_report()
        server = make_server()
        try:
            inline = json.dumps({"program": "hdiff",
                                 "shape": list(SHAPE)}).encode()
            requests = [
                (b"GET /v1/best?program=hdiff&shape=16,16,8 HTTP/1.1"
                 b"\r\nHost: x\r\n\r\n", 200),
                (b"GET /v1/nope HTTP/1.1\r\nHost: x\r\n\r\n", 404),
                (b"POST /v1/best HTTP/1.1\r\nHost: x\r\n"
                 b"Content-Length: %d\r\n\r\n%s"
                 % (len(inline), inline), 200),
                (b"POST /v1/best HTTP/1.1\r\nHost: x\r\n"
                 b"Content-Length: 3\r\n\r\n{{{", 400),
                (b"GET /v1/healthz\r\n", None),  # HTTP/0.9: bare body
            ]
            for raw, expected in requests:
                handler = _Handler.__new__(_Handler)
                handler.server = server.httpd
                handler.client_address = ("127.0.0.1", 0)
                handler.rfile = io.BytesIO(raw)
                handler.wfile = RecordingWfile()
                handler.handle_one_request()
                (written,) = handler.wfile.writes
                if expected is None:
                    assert json.loads(written)["kind"] == "healthz"
                    continue
                head, _, body = written.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 %d " % expected)
                assert b"Content-Length: %d\r\n" % len(body) \
                    in head + b"\r\n"
                json.loads(body)
        finally:
            server.close()

    def test_post_body_length_is_validated_and_bounded(self):
        server = make_server()
        try:
            host, port = server.address
            for length, expected in (("abc", 400), ("-5", 400),
                                     (str(MAX_BODY_BYTES + 1), 413)):
                conn = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    conn.putrequest("POST", "/v1/best")
                    conn.putheader("Content-Length", length)
                    conn.endheaders()  # no body: the server must not wait
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == expected, length
                    assert body["kind"] == "error"
                    assert response.getheader("Connection") == "close"
                finally:
                    conn.close()
            # The largest accepted length is still read and parsed.
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("POST", "/v1/best",
                             body=b" " * (MAX_BODY_BYTES - 2) + b"{}")
                assert conn.getresponse().status == 400  # no program
            finally:
                conn.close()
            assert get(server, "/v1/healthz")[0] == 200
        finally:
            server.close()

    def test_unknown_program_is_400_not_job(self):
        server = make_server()
        try:
            status, body = get(server, "/v1/best?program=nosuch")
            assert status == 400
            assert body["kind"] == "error"
            status, health = get(server, "/v1/healthz")
            assert health["jobs"]["queued"] + \
                health["jobs"]["running"] == 0
        finally:
            server.close()

    def test_query_log_written(self):
        seed_report()
        server = make_server()
        try:
            get(server, "/v1/best?program=hdiff&shape=16,16,8")
        finally:
            server.close()
        lines = [json.loads(line) for line in
                 query_log_path().read_text().splitlines()]
        assert any(line["outcome"] == "hit" and
                   line["endpoint"] == "best" for line in lines)

    def test_concurrent_queries_during_background_sweep(self):
        """Warm queries stay correct and lock-consistent while a
        miss-triggered sweep mutates the index from its own thread."""
        seed_report()
        server = make_server()
        try:
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=8,8,4")
            assert status == 202
            job_id = body["job"]["job_id"]

            failures = []
            def hammer():
                for _ in range(20):
                    code, data = get(
                        server,
                        "/v1/best?program=hdiff&shape=16,16,8")
                    if code != 200 or \
                            data["best"]["simulated_cycles"] <= 0:
                        failures.append((code, data))
            threads = [threading.Thread(target=hammer)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not failures
            job = wait_job(server, job_id)
            assert job["state"] == "done", job.get("error")
        finally:
            server.close()


class TestJobManager:
    def test_identical_misses_fund_exactly_one_job(self):
        """Dedupe is deterministic at the manager level: while a job
        for a triple is active, re-enqueueing returns it instead of
        forking a second sweep."""
        index = FrontierIndex()
        manager = JobManager(
            index, backend="thread",
            explore_kwargs={"space": SMALL,
                            "strategy": "exhaustive"})
        platform = api.resolve_platform(None)
        key = ("family", (8, 8, 4), platform.name)
        manager._sema.acquire()  # hold the only slot: job stays queued
        try:
            job1, created1 = manager.enqueue("hdiff", (8, 8, 4),
                                             platform, key)
            job2, created2 = manager.enqueue("hdiff", (8, 8, 4),
                                             platform, key)
            assert created1 and not created2
            assert job1.job_id == job2.job_id
            assert manager.counts()["queued"] == 1
        finally:
            manager._sema.release()
        assert manager.wait_all(180)
        assert manager.get(job1.job_id).state == "done", \
            manager.get(job1.job_id).error
        assert len(index) == 1

    def test_finished_job_threads_are_dropped(self):
        manager = JobManager(
            FrontierIndex(), backend="thread",
            explore_kwargs={"space": SMALL, "strategy": "exhaustive"})
        platform = api.resolve_platform(None)
        for shape in ((8, 8, 4), (8, 8, 8), (12, 12, 8)):
            job, _ = manager.enqueue("hdiff", shape, platform,
                                     ("family", shape, platform.name))
            assert manager.wait_all(180)
            assert manager.get(job.job_id).state == "done"
        assert len(manager._threads) == 0

    def test_concurrent_misses_share_bounded_pools(self):
        """Four misses through two job slots: at most two worker pools
        exist, each spawns its worker once, and every job lands."""
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry
        from repro.service import ServiceConfig
        manager = JobManager(
            FrontierIndex(), backend="process", max_concurrent=2,
            explore_kwargs={"space": SMALL, "strategy": "exhaustive",
                            "service": ServiceConfig(workers=1)})
        platform = api.resolve_platform(None)
        old = metrics.set_registry(MetricsRegistry(enabled=True))
        try:
            jobs = [manager.enqueue("hdiff", shape, platform,
                                    ("family", shape, platform.name))[0]
                    for shape in ((8, 8, 4), (8, 8, 8), (12, 12, 8),
                                  (16, 16, 4))]
            assert manager.wait_all(300)
            spawned = metrics.registry().counter_total(
                "service.workers_spawned")
        finally:
            metrics.set_registry(old)
            assert manager.close(30)
        assert [manager.get(job.job_id).state for job in jobs] == \
            ["done"] * 4
        assert 1 <= spawned <= 2

    def test_close_stops_a_sweep_in_flight(self):
        """Graceful shutdown with a miss in flight: the resident
        workers are gone afterwards, and the job is settled."""
        import dataclasses
        import os
        from pathlib import Path
        from repro.service import JobJournal, ServiceConfig
        from repro.service.journal import JOURNAL_NAME, find_run_dirs
        root = Path(os.environ["REPRO_CACHE_DIR"]) / "service"
        config = ServeConfig(
            port=0, backend="process", max_devices=1, beam_width=1,
            explore_kwargs={
                "space": dataclasses.replace(
                    SMALL, vectorizations=(1, 2, 4, 8)),
                "strategy": "exhaustive",
                "service": ServiceConfig(workers=1, keep_run_dir=True)})
        server = ReproServer(config).start()
        try:
            status, body = get(server,
                               "/v1/best?program=hdiff&shape=64,64,32")
            assert status == 202
            job_id = body["job"]["job_id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and not any(
                    record["event"] == "job_started"
                    for run_dir in find_run_dirs(root)
                    for record in JobJournal.read(run_dir
                                                  / JOURNAL_NAME)):
                time.sleep(0.01)
        finally:
            server.close()
        assert server.jobs.get(job_id).state in ("done", "failed")
        [run_dir] = find_run_dirs(root)
        pids = [record["pid"]
                for record in JobJournal.read(run_dir / JOURNAL_NAME)
                if record["event"] == "worker_spawned"]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestApiFacade:
    def test_reexported_from_package(self):
        import repro
        assert repro.api is api

    def test_resolve_program_forms(self, tmp_path):
        by_name = api.resolve_program("hdiff", shape=SHAPE)
        assert by_name.shape == SHAPE
        by_json = api.resolve_program(by_name.to_json())
        assert by_json.name == by_name.name
        assert api.resolve_program(by_name) is by_name
        with pytest.raises(ParseError):
            api.resolve_program(42)

    def test_resolve_platform_forms(self):
        default = api.resolve_platform(None)
        assert api.resolve_platform("stratix10") is default
        assert api.resolve_platform(default.name) is default
        assert api.resolve_platform("arria10").name == \
            "Arria 10 GX 1150"
        with pytest.raises(Exception):
            api.resolve_platform("tpu")

    def test_run_facade_validates(self):
        result = api.run("hdiff", shape=(12, 12, 6))
        assert result.validated

    def test_serve_facade(self):
        seed_report()
        server = api.serve(port=0, backend="thread")
        try:
            status, body = get(server, "/v1/healthz")
            assert status == 200
        finally:
            server.close()
