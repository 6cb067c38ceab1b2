"""One round of one end-to-end workload, in a fresh process.

``bench.py`` (the parent, which never imports ``repro``) spawns this
module once per (workload, round) with a private ``REPRO_CACHE_DIR``.
The child runs the cold op that is the ``setup_s`` sample, then the
timed ops, checks every result, and prints one JSON object as the last
line of its stdout::

    {"setup_s": [...], "samples": {"warm_op_ms": [...], "cold_op_ms": [...]},
     "peak_rss_mb": ..., "attempted": n, "failed": k, "failures": [...],
     "exact": {...}}

Every clock here is the benchmark's own; nothing is read from the
program's telemetry.  Cross-process intervals (spawn -> first result)
use ``time.monotonic()``, which is system-wide on Linux.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Server start-up and per-request patience; a reply slower than this
#: is a failed op, not a sample.
SERVER_START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
MISS_TIMEOUT_S = 60.0


def load_spec(name: str, quick: bool) -> dict:
    """The workload's entry in ``workloads.json`` (quick overrides
    folded in)."""
    spec = dict(json.loads((HERE / "workloads.json").read_text())
                ["workloads"][name])
    overrides = spec.pop("quick", {})
    if quick:
        pinned = dict(spec.get("pinned", {}), **overrides.pop("pinned", {}))
        spec.update(overrides)
        spec["pinned"] = pinned
    return spec


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_count(budget_s: float, nominal_op_s: float, minimum: int) -> int:
    """Ops that fit the budget at the workload's nominal op time.

    A count fixed by ``--seconds`` (not by a deadline) keeps
    ``attempted`` and every sample count identical across runs and
    commits; :class:`Deadline` only cuts a run short on a machine far
    slower than the one the nominal times were taken on."""
    return max(minimum, int(budget_s / nominal_op_s))


class Deadline:
    """Safety valve: stop starting ops once 2x the budget is spent."""

    def __init__(self, budget_s: float):
        self.end = time.perf_counter() + 2.0 * budget_s

    def passed(self) -> bool:
        return time.perf_counter() > self.end


class Outcome:
    """Samples, attempts and failures of one child."""

    def __init__(self):
        self.samples = {"warm_op_ms": [], "cold_op_ms": []}
        self.attempted = 0
        self.failures = []
        self.exact = {}
        self.setup_s = []
        #: serve_mix: the server's peak, the process a user would size;
        #: otherwise this child's own.
        self.server_rss_mb = None

    def fail(self, message: str):
        self.failures.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition

    def to_json(self) -> dict:
        return {"setup_s": self.setup_s, "samples": self.samples,
                "peak_rss_mb": self.server_rss_mb or peak_rss_mb(),
                "attempted": self.attempted,
                "failed": min(self.attempted, len(self.failures)),
                "failures": self.failures[:20], "exact": self.exact}


# -- run_single / run_links ----------------------------------------------------

def make_inputs(program, seed: int) -> dict:
    """Input arrays from the benchmark's own generator (the program
    under test only ever receives the arrays)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, spec in program.inputs.items():
        shape = spec.shape(program.shape, program.index_names)
        if spec.dtype.is_integer:
            data = rng.integers(0, 8, shape)
        else:
            data = rng.random(shape) if shape else rng.random()
        inputs[name] = np.asarray(data, dtype=spec.dtype.numpy)
    return inputs


def run_setup(spec: dict):
    """(program, api.run keyword arguments) of a ``run`` workload."""
    from repro.distributed import contiguous_device_split
    from repro.programs import build
    from repro.simulator import SimulatorConfig
    program = build(spec["program"], shape=tuple(spec["shape"]),
                    vectorization=spec["vectorization"])
    kwargs = {}
    if spec["devices"] > 1:
        kwargs["config"] = SimulatorConfig(
            network_words_per_cycle=spec["network_words_per_cycle"],
            network_latency=spec["network_latency"])
        kwargs["device_of"] = contiguous_device_split(
            program, spec["devices"])
    return program, kwargs


def eq1_error(cycles: int, expected: int) -> float:
    return abs(cycles / expected - 1.0)


def check_run(out: Outcome, result, pinned: dict):
    sim = result.simulation
    ok = out.check(result.validated is True,
                   "run: output not validated against run.reference")
    ok &= out.check(sim.cycles == pinned["cycles"],
                    f"run: {sim.cycles} cycles, pinned {pinned['cycles']}")
    ok &= out.check(sim.profile.scalar_cycles == 0,
                    f"run: {sim.profile.scalar_cycles} scalar cycles")
    out.exact = {"cycles": sim.cycles,
                 "expected_cycles": sim.expected_cycles,
                 "scalar_cycles": sim.profile.scalar_cycles,
                 "eq1_err_max": eq1_error(sim.cycles,
                                          sim.expected_cycles)}
    return ok


def workload_run(spec: dict, seed: int, budget_s: float, t0: float,
                 round_index: int) -> Outcome:
    from repro import api
    from repro.lowering import reset_default_cache
    out = Outcome()
    program, kwargs = run_setup(spec)
    inputs = make_inputs(program, seed)

    def one_op(kind):
        out.attempted += 1
        if kind == "cold_op_ms":
            reset_default_cache()
        start = time.perf_counter()
        try:
            result = api.run(program, inputs, **kwargs)
        except Exception as exc:
            out.fail(f"run raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        return elapsed if check_run(out, result, spec["pinned"]) else None

    one_op(None)
    out.setup_s.append(time.monotonic() - t0)
    deadline = Deadline(budget_s)
    # Alternate warm (lowering cache hit) and cold (lowering cache
    # emptied first) ops so both see the same machine state; odd rounds
    # start cold so an odd op count still balances over a run.
    for n in range(op_count(budget_s, spec["nominal_op_s"], 2)):
        if deadline.passed():
            break
        kind = ("warm_op_ms", "cold_op_ms")[(n + round_index) % 2]
        elapsed = one_op(kind)
        if elapsed is not None:
            out.samples[kind].append(elapsed * 1e3)
    return out


# -- explore_sweep ---------------------------------------------------------------

def config_space(axes: dict):
    from repro.explore import ConfigSpace
    return ConfigSpace(**{axis: tuple(values)
                          for axis, values in axes.items()})


def ranking_digest(report) -> str:
    text = json.dumps(report.ranking_signature())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def wipe_cache_dir():
    """Empty the private cache dir and the in-process lowering cache:
    the state a first-ever sweep of this program starts from."""
    from repro.lowering import reset_default_cache
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    for entry in cache_dir.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    reset_default_cache()


def explore_setup(spec: dict):
    from repro.programs import build
    program = build(spec["program"], shape=tuple(spec["shape"]),
                    vectorization=spec["vectorization"])
    kwargs = dict(space=config_space(spec["space"]),
                  strategy=spec["strategy"],
                  beam_width=spec["beam_width"], workers=1,
                  backend="thread")
    return program, kwargs


def check_sweep(out: Outcome, report, pinned: dict, what: str) -> bool:
    counts = (report.total_points, report.pruned_points,
              report.simulated_points)
    want = (pinned["points_total"], pinned["points_pruned"],
            pinned["points_simulated"])
    ok = out.check(not report.failed_points,
                   f"{what}: {len(report.failed_points)} failed points")
    ok &= out.check(counts == want,
                    f"{what}: total/pruned/simulated {counts}, "
                    f"pinned {want}")
    digest = ranking_digest(report)
    ok &= out.check(digest == pinned["ranking_digest"],
                    f"{what}: ranking digest {digest}, pinned "
                    f"{pinned['ranking_digest']}")
    return ok


def workload_explore(spec: dict, seed: int, budget_s: float, t0: float,
                     round_index: int) -> Outcome:
    del round_index  # every round runs the same sweep/resweep pairs
    from repro import api
    out = Outcome()
    program, kwargs = explore_setup(spec)
    inputs = make_inputs(program, seed)
    pinned = spec["pinned"]

    def sweep(what):
        out.attempted += 1
        start = time.perf_counter()
        try:
            report = api.explore(program, inputs=inputs, **kwargs)
        except Exception as exc:
            out.fail(f"{what} raised {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        if not check_sweep(out, report, pinned, what):
            return None, report
        return elapsed, report

    _, report = sweep("cold sweep")
    out.setup_s.append(time.monotonic() - t0)
    deadline = Deadline(budget_s)
    for _ in range(op_count(budget_s, spec["nominal_op_s"], 1)):
        if deadline.passed():
            break
        wipe_cache_dir()
        elapsed, report = sweep("sweep")
        if elapsed is not None:
            out.samples["cold_op_ms"].append(elapsed * 1e3)
        elapsed, again = sweep("resweep")
        if again is not None:
            if not out.check(again.cache_hits > 0,
                             "resweep: no result-cache hits"):
                elapsed = None
        if elapsed is not None:
            out.samples["warm_op_ms"].append(elapsed * 1e3)
    if report is not None:
        error = report.worst_model_error
        out.exact = {"points_total": report.total_points,
                     "points_pruned": report.pruned_points,
                     "points_simulated": report.simulated_points,
                     "ranking_digest": ranking_digest(report),
                     "eq1_err_max": 0.0 if error is None else error}
    return out


# -- serve_mix -------------------------------------------------------------------

def build_fixture(spec: dict) -> dict:
    """Persist one front per (program, shape) into ``REPRO_CACHE_DIR``
    and return what a correct server must answer for each."""
    from repro import api
    space = config_space(spec["fixture_space"])
    fronts = []
    for name, shape in spec["fronts"]:
        program = api.resolve_program(name, shape=shape)
        report = api.explore(program, space=space, strategy="exhaustive",
                             workers=1, backend="thread")
        fronts.append({"program": name, "shape": shape,
                       "best_cycles": report.best.simulated_cycles,
                       "inline": program.to_json()})
    return {"fronts": fronts}


class Server:
    """The real CLI server in its own process."""

    def __init__(self, spec: dict):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *spec["server_args"]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.port = None

    def wait_port(self) -> int:
        """Parse the port from the server's first stdout line."""
        box = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(SERVER_START_TIMEOUT_S)
        if not box or "http://" not in box[0]:
            raise RuntimeError(f"server did not announce a port: {box!r}")
        self.port = int(box[0].split("http://")[1].split()[0]
                        .rsplit(":", 1)[1])
        return self.port

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(status.split("VmHWM:")[1].split()[0]) / 1024.0

    def stop(self):
        """Terminate, then kill after 5 s; always reaps the process."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One HTTP/1.1 keep-alive connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body=None):
        """(status, parsed JSON body, seconds)."""
        payload = headers = None
        if body is not None:
            payload = json.dumps(body)
            headers = {"Content-Type": "application/json"}
        start = time.perf_counter()
        self.conn.request(method, path, body=payload,
                          headers=headers or {})
        response = self.conn.getresponse()
        data = json.loads(response.read())
        return response.status, data, time.perf_counter() - start

    def close(self):
        self.conn.close()


def query_path(endpoint: str, program: str, shape) -> str:
    return (f"/v1/{endpoint}?program={program}"
            f"&shape={','.join(map(str, shape))}")


def check_hit(spec: dict, front: dict, endpoint: str, status: int,
              body: dict):
    """``None`` when the answer is right, else what is wrong."""
    if status != 200:
        return f"{endpoint} {front['program']}@{front['shape']}: " \
               f"status {status}"
    if body.get("schema_version") != spec["schema_version"]:
        return f"{endpoint}: schema_version {body.get('schema_version')}"
    if endpoint == "best":
        got = [body["best"]["simulated_cycles"]]
    else:
        got = [entry["simulated_cycles"] for entry in body["pareto"]]
    if front["best_cycles"] not in got:
        return (f"{endpoint} {front['program']}@{front['shape']}: cycles "
                f"{got}, seeded best {front['best_cycles']}")
    return None


def hit_traffic(spec: dict, fixture: dict, port: int, seeds: list,
                seconds: float):
    """Closed loop, one keep-alive connection per client thread; the
    query order of client ``i`` is drawn from ``seeds + [i]``.

    Returns ``(samples, failures)``; a sample is ``(kind, ms, body,
    end, client)`` with kind ``get_best`` / ``get_pareto`` /
    ``post_best``, ``end`` the ``perf_counter()`` when the body was
    read, and ``client`` the index of the thread that sent it."""
    import numpy as np
    fronts = fixture["fronts"]
    results = [([], []) for _ in range(spec["clients"])]
    end = time.perf_counter() + seconds

    def client_loop(index):
        samples, failures = results[index]
        rng = np.random.default_rng([*seeds, index])
        client = Client(port)
        n = 0
        try:
            while time.perf_counter() < end:
                n += 1
                front = fronts[int(rng.integers(len(fronts)))]
                endpoint = "pareto" if rng.integers(4) == 0 else "best"
                try:
                    if n % spec["post_every"] == 0:
                        endpoint, kind = "best", "post_best"
                        status, body, took = client.request(
                            "POST", "/v1/best",
                            {"program": front["inline"],
                             "shape": front["shape"]})
                    else:
                        kind = "get_" + endpoint
                        status, body, took = client.request(
                            "GET", query_path(endpoint, front["program"],
                                              front["shape"]))
                except (OSError, ValueError,
                        http.client.HTTPException) as exc:
                    failures.append(f"hit raised {type(exc).__name__}: "
                                    f"{exc}")
                    client.close()
                    client = Client(port)
                    continue
                wrong = check_hit(spec, front, endpoint, status, body)
                if wrong:
                    failures.append(wrong)
                else:
                    samples.append((kind, took * 1e3, body,
                                    time.perf_counter(), index))
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(spec["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = [s for part, _ in results for s in part]
    failures = [f for _, part in results for f in part]
    return samples, failures


def one_miss(spec: dict, client: Client, shape, duplicate: bool = False):
    """Miss -> 202 -> poll the job -> first 200 for the same query.

    Returns ``(seconds, detail)``; raises ``RuntimeError`` with the
    reason when any step is wrong.  With ``duplicate`` the same query
    is sent a second time while the job runs and must join it."""
    path = query_path("best", spec["miss_program"], shape)
    start = time.perf_counter()
    status, body, _ = client.request("GET", path)
    if status != 202 or body.get("kind") != "miss":
        raise RuntimeError(f"miss {shape}: status {status}, "
                           f"kind {body.get('kind')}")
    job_id = body["job"]["job_id"]
    if duplicate:
        status, again, _ = client.request("GET", path)
        if status != 202 or again["job"]["job_id"] != job_id:
            raise RuntimeError(
                f"duplicate miss {shape}: status {status}, job "
                f"{again.get('job', {}).get('job_id')} != {job_id}")
    polls = 0
    while True:
        status, body, _ = client.request("GET", f"/v1/jobs/{job_id}")
        polls += 1
        state = body["job"]["state"]
        if state == "done":
            break
        if state == "failed" or \
                time.perf_counter() - start > MISS_TIMEOUT_S:
            raise RuntimeError(f"miss {shape}: job {state}: "
                               f"{body['job'].get('error')}")
        time.sleep(spec["poll_s"])
    job = body["job"]
    status, body, _ = client.request("GET", path)
    elapsed = time.perf_counter() - start
    if status != 200:
        raise RuntimeError(f"miss {shape}: status {status} after done")
    return elapsed, {"polls": polls,
                     "job_s": job["finished"] - job["created"]}


def first_answer(spec: dict, server: "Server", front: dict,
                 out: Outcome) -> "Client":
    """Wait for the port, ask one seeded query: the set-up sample."""
    client = Client(server.wait_port())
    out.attempted += 1
    status, body, _ = client.request(
        "GET", query_path("best", front["program"], front["shape"]))
    out.setup_s.append(time.monotonic() - server.spawned)
    wrong = check_hit(spec, front, "best", status, body)
    if wrong:
        out.fail(wrong)
    return client


def workload_serve(spec: dict, seed: int, budget_s: float,
                   fixture_path: str, round_index: int) -> Outcome:
    out = Outcome()
    fixture = json.loads(Path(fixture_path).read_text())
    first = fixture["fronts"][0]
    # A server start is ~0.3 s: take several per round, so the median
    # over a run rests on a dozen starts rather than three.
    for _ in range(spec["setup_spawns"] - 1):
        server = Server(spec)
        try:
            first_answer(spec, server, first, out).close()
        finally:
            server.stop()
    server = Server(spec)
    try:
        client = first_answer(spec, server, first, out)
        port = server.port

        hit_seconds = spec["hit_share"] * budget_s
        samples, failures = hit_traffic(spec, fixture, port,
                                        [seed, round_index], hit_seconds)
        out.attempted += len(samples) + len(failures)
        out.failures.extend(failures)
        out.samples["warm_op_ms"] = [s[1] for s in samples]

        deadline = Deadline(budget_s - hit_seconds)
        misses = op_count(budget_s - hit_seconds, spec["nominal_op_s"], 2)
        shapes = [spec["duplicate_shape"]] + spec["miss_shapes"]
        for n, shape in enumerate(shapes[:misses]):
            if deadline.passed():
                break
            out.attempted += 1
            try:
                # The first miss also carries the dedupe check.
                elapsed, _ = one_miss(spec, client, shape,
                                      duplicate=(n == 0))
            except (RuntimeError, OSError, KeyError, ValueError,
                    http.client.HTTPException) as exc:
                out.fail(str(exc))
                client.close()
                client = Client(port)
                continue
            out.samples["cold_op_ms"].append(elapsed * 1e3)
        client.close()
        out.server_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return out


# -- entry point -----------------------------------------------------------------

def arg_parser(doc: str) -> argparse.ArgumentParser:
    """The arguments ``bench.py`` passes to either child script."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=8.0,
                        help="seconds of timed ops in this round")
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--fixture", default=None,
                        help="serve_mix: fixture.json of the copied "
                             "cache dir; 'build' writes one")
    return parser


def main(argv=None) -> int:
    args = arg_parser(__doc__).parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    spec = load_spec(args.workload, args.quick)

    if args.fixture == "build":
        print(json.dumps(build_fixture(spec)))
        return 0
    if spec["kind"] == "serve":
        # Set-up is the server's spawn -> first 200, not this client's.
        out = workload_serve(spec, args.seed, args.budget, args.fixture,
                             args.round)
    else:
        workload = {"run": workload_run,
                    "explore": workload_explore}[spec["kind"]]
        out = workload(spec, args.seed, args.budget, t0, args.round)
    print(json.dumps(out.to_json()))
    return 0


# The process sweep backend re-imports the main module in its spawned
# workers, so nothing may run at import.
if __name__ == "__main__":
    sys.exit(main())
