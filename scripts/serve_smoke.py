#!/usr/bin/env python
"""CI serve smoke check (docs/SERVING.md).

Runs the config-query service against a pre-seeded cache, in-process,
and asserts the serving acceptance criteria end to end:

1. **Always warm**: ``/v1/best`` hits are answered from the in-memory
   frontier index — p50 of the server-side index-probe latency
   (``lookup_seconds``) under 1 ms across ``WARM_QUERIES`` requests,
   with **zero lowering artifact-cache misses** (nothing relowers,
   nothing simulates).
2. **Miss converges**: a cold query returns ``202`` with a job id,
   the job dedupes with an identical concurrent miss, and the poll
   endpoint converges to a measured best, after which the same query
   is a warm ``200``.
3. **Workers stay resident**: a second, distinct miss converges
   without spawning a worker (``service.workers_spawned`` in
   ``/v1/metricsz`` is unchanged); both miss latencies are printed.
4. **Telemetry**: ``/v1/metricsz`` returns the obs registry snapshot
   (schema 1) carrying the serve counters and the lookup histogram.
5. **Query log**: after ``server.close()`` the query log holds one
   whole JSON line per answered ``best``/``pareto`` request.

The warm queries share one keep-alive connection, and the client-side
round-trip p50 is printed next to the probe's ``lookup_seconds`` p50:
the probe alone does not see what the handler spends around it.

Run from the repo root: ``python scripts/serve_smoke.py [OUTDIR]``.
Writes ``serve-smoke.json`` (latency percentiles, metrics snapshot)
into OUTDIR and exits non-zero on any violation.
"""

import http.client
import json
import os
import statistics
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WARM_QUERIES = 200
P50_BUDGET_SECONDS = 0.001
SHAPE = (24, 24)
COLD_SHAPE = (16, 16)
SECOND_COLD_SHAPE = (20, 20)


def log(message: str):
    print(f"[serve-smoke] {message}", flush=True)


#: Requests to the query endpoints: each is answered with one line
#: of the query log.
ANSWERED = []


def get(server, path):
    if path.startswith(("/v1/best", "/v1/pareto")):
        ANSWERED.append(path)
    try:
        with urllib.request.urlopen(server.url + path, timeout=60) \
                as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def workers_spawned(server) -> float:
    _, body = get(server, "/v1/metricsz")
    return sum(rec["value"] for rec in body["metrics"]["counters"]
               if rec["name"] == "service.workers_spawned")


def miss(server, shape, dedupe: bool):
    """Cold query -> 202 -> poll -> warm 200; returns (job, seconds)."""
    path = f"/v1/best?program=laplace2d&shape={','.join(map(str, shape))}"
    start = time.monotonic()
    status, body = get(server, path)
    assert status == 202, f"cold query did not 202: {body}"
    job_id = body["job"]["job_id"]
    if dedupe:
        status, body = get(server, path)
        if status == 202:
            assert body["job"]["job_id"] == job_id, (
                "identical miss forked a second job")
    log(f"cold query {shape} enqueued job {job_id}")

    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        status, body = get(server, f"/v1/jobs/{job_id}")
        if body["job"]["state"] in ("done", "failed"):
            break
        time.sleep(0.02)
    job = body["job"]
    assert job["state"] == "done", f"job did not converge: {job}"
    assert job["best"]["simulated_cycles"] > 0
    status, body = get(server, path)
    assert status == 200, "converged query still cold"
    return job, time.monotonic() - start


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    tmp = tempfile.TemporaryDirectory(prefix="repro-serve-smoke-")
    os.environ["REPRO_CACHE_DIR"] = str(Path(tmp.name) / "cache")

    from repro import api
    from repro.explore import ConfigSpace
    from repro.lowering import default_cache
    from repro.serve import ReproServer, ServeConfig

    # Seed: one persisted sweep puts a front in the report store.
    log(f"seeding the cache: laplace2d @ {SHAPE}")
    space = ConfigSpace(vectorizations=(1, 2, 4))
    report = api.explore("laplace2d", shape=SHAPE, space=space,
                         strategy="exhaustive", backend="thread")
    assert report.best is not None, "seed sweep produced no best"

    config = ServeConfig(port=0, backend="process", max_devices=1,
                         beam_width=2,
                         explore_kwargs={"space": space,
                                         "strategy": "exhaustive"})
    server = ReproServer(config).start()
    log(f"server on {server.url}, {len(server.index)} cached front(s)")
    try:
        shape_arg = ",".join(map(str, SHAPE))
        warm_path = f"/v1/best?program=laplace2d&shape={shape_arg}"

        # One untimed request absorbs the first-time resolution
        # (catalog build + content hash — memoized after this).
        status, body = get(server, warm_path)
        assert status == 200, f"seeded query missed: {body}"

        default_cache().reset_stats()
        lookups, round_trips = [], []
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            for _ in range(WARM_QUERIES):
                ANSWERED.append(warm_path)
                start = time.perf_counter()
                conn.request("GET", warm_path)
                response = conn.getresponse()
                status, body = response.status, json.loads(
                    response.read())
                round_trips.append(time.perf_counter() - start)
                assert status == 200, f"warm query fell cold: {body}"
                lookups.append(body["lookup_seconds"])
        finally:
            conn.close()
        p50 = statistics.median(lookups)
        p99 = sorted(lookups)[int(0.99 * len(lookups))]
        rtt_p50 = statistics.median(round_trips)
        log(f"warm lookup over {WARM_QUERIES} queries: "
            f"p50 {p50 * 1e6:.1f}us, p99 {p99 * 1e6:.1f}us; "
            f"client round trip p50 {rtt_p50 * 1e6:.0f}us")
        assert p50 < P50_BUDGET_SECONDS, (
            f"warm p50 {p50 * 1e3:.3f}ms blows the "
            f"{P50_BUDGET_SECONDS * 1e3:.0f}ms budget")
        misses = default_cache().misses
        assert misses == 0, (
            f"warm queries caused {misses} artifact-cache misses — "
            f"something relowered")
        log("0 artifact-cache misses across warm queries")

        # Cold: 202, dedupe, converge.
        job, first_s = miss(server, COLD_SHAPE, dedupe=True)
        job_id = job["job_id"]
        log(f"job done: best {job['best']['simulated_cycles']} cycles, "
            f"miss -> warm in {first_s * 1e3:.0f} ms; converged query "
            f"is warm")

        # A second, distinct miss reuses the resident workers.
        spawned = workers_spawned(server)
        assert spawned > 0, "the first miss spawned no worker"
        _, second_s = miss(server, SECOND_COLD_SHAPE, dedupe=False)
        assert workers_spawned(server) == spawned, (
            "the second miss spawned workers instead of reusing them")
        log(f"second miss -> warm in {second_s * 1e3:.0f} ms with "
            f"{spawned:g} resident worker(s), none spawned")

        # Metrics shape.
        status, body = get(server, "/v1/metricsz")
        assert status == 200
        snapshot = body["metrics"]
        assert snapshot["schema"] == 1, snapshot
        for section in ("counters", "gauges", "histograms"):
            assert isinstance(snapshot[section], list), section
        counters = {rec["name"] for rec in snapshot["counters"]}
        for name in ("serve.requests", "serve.query_hits",
                     "serve.jobs_enqueued", "serve.jobs_completed"):
            assert name in counters, f"missing counter {name}"
        histograms = {rec["name"] for rec in snapshot["histograms"]}
        assert "serve.lookup_seconds" in histograms, histograms
        log(f"metricsz shape ok ({len(counters)} counters)")

        status, health = get(server, "/v1/healthz")
        assert health["ok"] and health["index_entries"] >= 2

        if outdir is not None:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "serve-smoke.json").write_text(json.dumps({
                "warm_queries": WARM_QUERIES,
                "lookup_p50_seconds": p50,
                "lookup_p99_seconds": p99,
                "round_trip_p50_seconds": rtt_p50,
                "artifact_cache_misses": misses,
                "job_id": job_id,
                "miss_seconds": [first_s, second_s],
                "metrics": snapshot,
            }, indent=2))
            log(f"artifacts copied to {outdir}")
    finally:
        server.close()
        path = server.query_log.path
        query_log = path.read_text() if path.is_file() else ""
        tmp.cleanup()
    check_query_log(query_log)
    log("OK")
    return 0


def check_query_log(text: str):
    """One whole JSON line per answered query, each a hit or a miss."""
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == len(ANSWERED), (
        f"query log holds {len(lines)} lines for {len(ANSWERED)} "
        f"answered queries")
    outcomes = {line["outcome"] for line in lines}
    assert outcomes <= {"hit", "miss"}, outcomes
    log(f"query log: {len(lines)} lines, one per answered query")


if __name__ == "__main__":
    sys.exit(main())
