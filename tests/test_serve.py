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
import os
import shutil
import subprocess
import sys
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
    QueryLog,
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
from repro.serve.schema import MAX_QUERY_CELLS

SHAPE = (16, 16, 8)
SMALL = ConfigSpace(vectorizations=(1,), device_counts=(1,),
                    partitions=("contiguous",), network_rates=(1.0,),
                    network_latencies=(32,), channel_depths=(8,))


def seed_report(shape=SHAPE, program="hdiff"):
    """Run one tiny persisted sweep so the store has a front."""
    return api.explore(program, shape=shape, space=SMALL,
                       strategy="exhaustive")


def make_server(**overrides):
    config = ServeConfig(port=0, max_devices=1,
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
        with exc:  # an error reply holds its socket until closed
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

    def test_parse_shape_bounds_the_cell_product(self):
        assert parse_shape([MAX_QUERY_CELLS, 1]) == (MAX_QUERY_CELLS, 1)
        with pytest.raises(ServeRequestError,
                           match=f"{MAX_QUERY_CELLS + 1} cells exceed "
                                 f"the limit of {MAX_QUERY_CELLS}"):
            parse_shape([MAX_QUERY_CELLS + 1])

    def test_benchmark_shapes_stay_under_the_cell_limit(self):
        import math
        from pathlib import Path
        spec = json.loads((Path(__file__).resolve().parents[1]
                           / "benchmarks" / "e2e" / "workloads.json")
                          .read_text())["workloads"]["serve_mix"]
        shapes = [shape for _program, shape in spec["fronts"]] \
            + spec["miss_shapes"] + [spec["duplicate_shape"]]
        assert all(math.prod(shape) <= MAX_QUERY_CELLS for shape in shapes)

    def test_parse_query_requires_program(self):
        with pytest.raises(ServeRequestError):
            parse_query({})

    @pytest.mark.parametrize("shape", [[2.9, 8], [True, 8], [0, 8],
                                       [-4, 8], [], ["8", 8], 8])
    def test_body_shape_follows_the_url_rule(self, shape):
        # A JSON-body shape is held to parse_shape's rule: a non-empty
        # list of JSON integers >= 1, never truncated or coerced.
        with pytest.raises(ServeRequestError, match="invalid shape"):
            parse_query({}, {"program": "laplace2d", "shape": shape})

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
                    strategy="exhaustive", persist=False)
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

    def test_report_with_link_rate_overrides_is_quarantined(self):
        # A report from a version that had per-edge link-rate overrides
        # names machines this one cannot build: never served.
        seed_report()
        path = next(iter(iter_stored_reports()))
        spec = json.loads(path.read_text())
        spec["entries"][0]["point"]["link_rates"] = [["s0:s1", 0.5]]
        path.write_text(json.dumps(spec))
        index, stats = FrontierIndex.warm_load()
        assert len(index) == 0
        assert stats.reports_skipped == 1
        assert not path.exists()
        assert (path.parent
                / f"{path.name}.corrupt-{os.getpid()}").exists()

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

    def test_default_index_is_warm_loaded_once_until_reset(self):
        # In-process callers may omit ``index``: the facade warm-loads
        # one process-wide index and keeps it until reset_query_index
        # (a new cache directory, a test).
        api.reset_query_index()
        try:
            assert api.query("hdiff", shape=SHAPE) is None
            seed_report()
            assert api.query("hdiff", shape=SHAPE) is None  # still held
            api.reset_query_index()
            assert api.query("hdiff", shape=SHAPE)["kind"] == "best"
        finally:
            api.reset_query_index()


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
        warm."""
        config = ServeConfig(
            port=0, max_devices=1, beam_width=1,
            explore_kwargs={"space": SMALL, "strategy": "exhaustive"})
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

    def test_bad_shapes_are_refused_on_get_and_post(self):
        server = make_server()
        try:
            for shape in ([2.9, 8], [True, 8], [0, 8], [-4, 8], []):
                text = ",".join(map(str, shape))
                status, body = get(
                    server, f"/v1/best?program=laplace2d&shape={text}")
                assert (status, body["kind"]) == (400, "error"), shape
                request = urllib.request.Request(
                    server.url + "/v1/best", data=json.dumps(
                        {"program": "laplace2d", "shape": shape}).encode(),
                    headers={"Content-Type": "application/json"})
                try:
                    urllib.request.urlopen(request, timeout=30)
                    pytest.fail(f"POST shape {shape!r} was answered")
                except urllib.error.HTTPError as exc:
                    with exc:
                        assert exc.code == 400, shape
                        posted = json.loads(exc.read())
                for error in (body["error"], posted["error"]):
                    assert "invalid shape" in error
                    if shape:  # the bad extent is named
                        assert f"extent {shape[0]!r}" in error \
                            or f"extent {str(shape[0])!r}" in error
        finally:
            server.close()

    def test_oversized_shape_is_refused_on_get_and_post(self):
        server = make_server()
        try:
            status, body = get(
                server, "/v1/best?program=laplace2d&shape=100000000,8")
            request = urllib.request.Request(
                server.url + "/v1/best", data=json.dumps(
                    {"program": "laplace2d",
                     "shape": [100000000, 8]}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            with caught.value:
                assert (status, caught.value.code) == (400, 400)
                posted = json.loads(caught.value.read())
            for error in (body["error"], posted["error"]):
                assert f"800000000 cells exceed the limit of " \
                    f"{MAX_QUERY_CELLS}" in error
            status, health = get(server, "/v1/healthz")
            assert health["jobs"]["queued"] + \
                health["jobs"]["running"] == 0
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

    def test_program_paths_are_never_read(self, tmp_path, monkeypatch):
        """A query's string program comes from the catalog only: a path
        to a valid program file is a 400, the file is never opened, and
        the error reads the same whether or not the file exists."""
        from repro.core import StencilProgram
        valid = tmp_path / "valid.json"
        valid.write_text(json.dumps(
            api.resolve_program("hdiff", shape=SHAPE).to_json()))
        opened = []
        monkeypatch.setattr(StencilProgram, "from_json_file", classmethod(
            lambda cls, path: opened.append(path)))
        server = make_server()
        try:
            for path in (valid, tmp_path / "absent.json"):
                status, body = get(server, f"/v1/best?program={path}")
                assert status == 400
                assert "unknown program" in body["error"]
                request = urllib.request.Request(
                    server.url + "/v1/best",
                    data=json.dumps({"program": str(path)}).encode(),
                    headers={"Content-Type": "application/json"})
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request, timeout=30)
                with caught.value:
                    assert caught.value.code == 400
        finally:
            server.close()
        assert opened == []

    def test_too_deep_inline_program_is_400(self):
        program = api.resolve_program("laplace2d", shape=(8, 8)).to_json()
        program["program"]["b"]["code"] = " + ".join(["a[i, j]"] * 500)
        server = make_server()
        try:
            request = urllib.request.Request(
                server.url + "/v1/best",
                data=json.dumps({"program": program}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            with caught.value:
                assert caught.value.code == 400
                assert "nests deeper" in json.loads(
                    caught.value.read())["error"]
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

    def test_close_before_start_returns(self):
        # No listener thread ever ran serve_forever, so there is no
        # loop for close() to wait out.
        server = ReproServer(ServeConfig(port=0))
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive(), "close() before start() hung"

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


class TestQueryLog:
    """One handle per log: a warm hit does no file-system work beyond
    its one write, and the log keeps every record whole."""

    def test_warm_hits_open_nothing_after_the_first_record(
            self, monkeypatch):
        import builtins
        seed_report()
        server = make_server()
        root = os.environ["REPRO_CACHE_DIR"]
        calls = []
        real_open, real_mkdir = builtins.open, os.mkdir

        def counting_open(file, *args, **kwargs):
            if str(file).startswith(root):
                calls.append(("open", str(file)))
            return real_open(file, *args, **kwargs)

        def counting_mkdir(path, *args, **kwargs):
            if str(path).startswith(root):
                calls.append(("mkdir", str(path)))
            return real_mkdir(path, *args, **kwargs)

        path = "/v1/best?program=hdiff&shape=16,16,8"
        try:
            assert get(server, path)[0] == 200  # the first record
            with monkeypatch.context() as patch:
                patch.setattr(builtins, "open", counting_open)
                patch.setattr(os, "mkdir", counting_mkdir)
                for _ in range(20):
                    assert get(server, path)[0] == 200
        finally:
            server.close()
        assert calls == []
        assert len(query_log_path().read_text().splitlines()) == 21

    def test_record_after_a_prune_lands_in_a_new_file(self):
        log = QueryLog()
        log.record("best", "hit", query="hdiff@-")
        # What `repro cache prune` does: the file, then its directory.
        log.path.unlink()
        log.path.parent.rmdir()
        log.record("pareto", "hit", query="hdiff@-")
        lines = [json.loads(line)
                 for line in log.path.read_text().splitlines()]
        assert [line["endpoint"] for line in lines] == ["pareto"]
        assert log.dropped == 0
        log.close()

    def test_concurrent_records_write_whole_lines(self):
        log = QueryLog()
        threads, per_thread = 4, 250

        def record(n):
            for i in range(per_thread):
                log.record("best", "hit", query=f"t{n}-{i}" + "x" * 200,
                           lookup_seconds=1e-5)

        workers = [threading.Thread(target=record, args=(n,))
                   for n in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        log.close()
        lines = [json.loads(line)
                 for line in log.path.read_text().splitlines()]
        assert len(lines) == threads * per_thread
        assert len({line["query"] for line in lines}) == len(lines)

    def test_unwritable_log_only_counts_drops(self, tmp_path):
        log = QueryLog()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        log.path = blocker / "query_log.jsonl"
        log.record("best", "hit")
        log.record("best", "miss")
        assert log.dropped == 2
        log.close()

    def test_encoded_replies_equal_the_dict_replies(self):
        seed_report()
        index, _ = FrontierIndex.warm_load()
        entry, _key = index.locate("hdiff", SHAPE, api.resolve_platform(
            None).name)
        for kind in ("best", "pareto"):
            for seconds in (0.0, 1.5e-05, 0.000123456789, 2.0):
                reply = api.query("hdiff", shape=SHAPE,
                                  pareto=(kind == "pareto"), index=index)
                reply["lookup_seconds"] = seconds
                assert entry.encoded(kind, seconds) == \
                    json.dumps(reply).encode()
                assert entry.response(kind, seconds) == reply

    def test_http_hit_body_is_the_dict_reply_encoded(self):
        seed_report()
        server = make_server()
        try:
            for kind in ("best", "pareto"):
                with urllib.request.urlopen(
                        f"{server.url}/v1/{kind}?program=hdiff&"
                        f"shape=16,16,8", timeout=30) as response:
                    body = response.read()
                reply = api.query("hdiff", shape=SHAPE,
                                  pareto=(kind == "pareto"),
                                  index=server.index)
                reply["lookup_seconds"] = \
                    json.loads(body)["lookup_seconds"]
                assert body == json.dumps(reply).encode()
        finally:
            server.close()


class TestJobManager:
    def test_identical_misses_fund_exactly_one_job(self):
        """Dedupe is deterministic at the manager level: while a job
        for a triple is active, re-enqueueing returns it instead of
        forking a second sweep."""
        index = FrontierIndex()
        manager = JobManager(
            index,
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
            FrontierIndex(),
            explore_kwargs={"space": SMALL, "strategy": "exhaustive"})
        platform = api.resolve_platform(None)
        for shape in ((8, 8, 4), (8, 8, 8), (12, 12, 8)):
            job, _ = manager.enqueue("hdiff", shape, platform,
                                     ("family", shape, platform.name))
            assert manager.wait_all(180)
            assert manager.get(job.job_id).state == "done"
        assert len(manager._threads) == 0

    def test_concurrent_misses_all_land(self):
        """Four misses through two job slots: at most two sweeps run at
        once, and every job lands."""
        manager = JobManager(
            FrontierIndex(), max_concurrent=2,
            explore_kwargs={"space": SMALL, "strategy": "exhaustive"})
        platform = api.resolve_platform(None)
        running, peak = [0], [0]
        lock = threading.Lock()
        sweep = manager._sweep

        def counted(*args):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                sweep(*args)
            finally:
                with lock:
                    running[0] -= 1

        manager._sweep = counted
        jobs = [manager.enqueue("hdiff", shape, platform,
                                ("family", shape, platform.name))[0]
                for shape in ((8, 8, 4), (8, 8, 8), (12, 12, 8),
                              (16, 16, 4))]
        assert manager.wait_all(300)
        assert manager.close()
        assert [manager.get(job.job_id).state for job in jobs] == \
            ["done"] * 4
        assert 1 <= peak[0] <= 2


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
        by_path = tmp_path / "program.json"
        by_path.write_text(json.dumps(by_name.to_json()))
        assert api.resolve_program(str(by_path)).name == by_name.name
        with pytest.raises(ParseError, match="could not read program"):
            api.resolve_program(str(tmp_path / "missing.json"))

    def test_run_imports_no_cli_or_codegen(self):
        """The library resolves its own program names: a run imports
        neither the CLI nor the code generator."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "from repro import api; "
                  "api.run('laplace2d', shape=(16, 16)); "
                  "print(sorted(m for m in sys.modules if m.startswith("
                  "('repro.cli', 'repro.codegen'))))")
        out = subprocess.run([sys.executable, "-c", script, src],
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(shutil.which("cc") is None,
                        reason="needs a C compiler")
    def test_native_run_imports_no_codegen(self):
        """A run whose stencils compute through native kernels renders
        their C from :mod:`repro.expr.cexpr`, not the code generator."""
        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "from repro import api; "
                  "r = api.run('laplace2d', shape=(32, 32)); "
                  "print(r.simulation.profile.native_units); "
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith('repro.codegen')))")
        env = dict(os.environ, REPRO_KERNEL_BACKEND="native")
        out = subprocess.run([sys.executable, "-c", script, src], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-2:] == ["1", "[]"]

    def test_resolve_platform_forms(self):
        default = api.resolve_platform(None)
        assert api.resolve_platform("stratix10") is default
        assert api.resolve_platform(default.name) is default
        assert api.resolve_platform("arria10").name == \
            "Arria 10 GX 1150"
        with pytest.raises(Exception):
            api.resolve_platform("tpu")

    def test_lower_facade_resolves_name_and_shape(self):
        # The facade's lowering verb: a catalog name, a shape and a
        # platform alias in; the shared, cached artifact out.
        lowered = api.lower("hdiff", shape=SHAPE, platform="stratix10")
        assert lowered.program.shape == SHAPE
        assert lowered.program.name == "horizontal_diffusion"
        again = api.lower("hdiff", shape=SHAPE)
        assert again.program_hash == lowered.program_hash
        assert again.analysis is lowered.analysis

    def test_run_facade_validates(self):
        result = api.run("hdiff", shape=(12, 12, 6))
        assert result.validated

    def test_serve_facade(self):
        seed_report()
        server = api.serve(port=0)
        try:
            status, body = get(server, "/v1/healthz")
            assert status == 200
        finally:
            server.close()
