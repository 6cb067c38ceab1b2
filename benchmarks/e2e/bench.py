"""The repo's end-to-end benchmark: four workloads, measured from outside.

Three commands for people (see ``README.md`` beside this file)::

    python benchmarks/e2e/bench.py run --seed 0 [--out result.json]
    python benchmarks/e2e/bench.py trace --seed 0 [--out layers.json]
    python benchmarks/e2e/bench.py compare A.json B.json

and the one-workload form that ``BENCHMARK.json``'s ``command`` names::

    python benchmarks/e2e/bench.py --workload run_links --seed 3 \
        --seconds 20 --trace 0

This parent never imports ``repro``.  It primes the machine, spawns one
fresh child per (workload, round) with a private ``REPRO_CACHE_DIR``
inside the checkout, runs a fixed calibration loop between children,
pools the children's samples and prints medians.  Metric names, units
and bounds come from ``BENCHMARK.json``; workloads from
``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK_ROOT = ROOT / ".bench_e2e_work"
CHILD_TIMEOUT_S = 170.0

#: Fresh children per workload in a run, and ``run``'s default seconds
#: of timed ops per workload (the one-workload form is told its own).
ROUNDS = 3
RUN_SECONDS, RUN_PRIME_S, ONE_PRIME_S = 30.0, 3.0, 1.5
QUICK_SECONDS = 2.0

#: A run whose calibration loop drifts by more than this is "noisy".
MAX_CALIB_DRIFT = 1.25

#: Per-layer values that must be identical between two traces: every
#: ``count`` except those that depend on how many requests fit the
#: window, plus the model error.
EXACT_NAMES = ("model.eq1_err_max",)
TIMED_COUNTS = ("serve.requests", "serve.query_hits", "serve.query_misses",
                "serve.jobs_enqueued", "serve.jobs_completed",
                "serve.polls_per_miss")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


# -- machine state ---------------------------------------------------------------

def calibrate_once(data: np.ndarray) -> float:
    """Seconds for a fixed NumPy + interpreter loop (~13 ms): the same
    mix the simulator's cost is made of, nothing from the repo."""
    start = time.perf_counter()
    x = np.sin(data)
    x = x * data + 1.0
    total = float(x.sum())
    acc = 0
    for n in range(200_000):
        acc += n & 7
    elapsed = time.perf_counter() - start
    if total != total or acc < 0:
        raise RuntimeError("calibration loop computed garbage")
    return elapsed


class Machine:
    """Priming and the calibration record of one benchmark run."""

    def __init__(self):
        self.data = np.random.default_rng(0).random(500_000)
        self.readings_ms = []

    def prime(self, seconds: float):
        """Burn fixed work first: without it the first child of a
        series runs 40-60 % slower than the rest."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            calibrate_once(self.data)

    def calibrate(self):
        """Fastest loop of 0.3 s: the machine's floor right now.
        (A process that just woke from waiting on a child runs ~1.5x
        slow for its first few hundred ms here, hence not five loops.)"""
        end = time.perf_counter() + 0.3
        best = calibrate_once(self.data)
        while time.perf_counter() < end:
            best = min(best, calibrate_once(self.data))
        self.readings_ms.append(best * 1e3)

    def summary(self) -> dict:
        drift = max(self.readings_ms) / min(self.readings_ms)
        return {"calib_ms": statistics.median(self.readings_ms),
                "calib_drift": drift,
                "noisy": drift > MAX_CALIB_DRIFT}


def kernel_backend() -> str:
    try:
        import cffi  # noqa: F401
        return "cffi"
    except ImportError:
        return "python"


def fingerprint() -> dict:
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "kernel_backend": kernel_backend(),
            "platform": platform.platform()}


# -- children --------------------------------------------------------------------

class WorkDir:
    """A private directory inside the checkout, removed on exit —
    also on failure and on ``KeyboardInterrupt``."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def child_env(cache_dir: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    tmp = cache_dir.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    path = [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p]
    env.update(REPRO_CACHE_DIR=str(cache_dir), TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")
    return env


def kill_group(proc: subprocess.Popen):
    """Stop a child and everything it started (the server, sweep
    workers): terminate the group, kill it after 5 s, reap the child."""
    for sig, patience in ((signal.SIGTERM, 5.0), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(patience)
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def spawn(script: str, args: list, cache_dir: Path) -> dict:
    """Run one child to completion in its own process group; its last
    stdout line is JSON."""
    command = [sys.executable, str(HERE / script), *args,
               "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(command, env=child_env(cache_dir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return {"crashed": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    except BaseException:
        kill_group(proc)
        raise
    kill_group(proc)  # nothing the child started may outlive it
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


class Rounds:
    """Spawns children round by round and pools what they return."""

    def __init__(self, work: Path, seed: int, quick: bool, trace: bool):
        self.work, self.seed, self.quick, self.trace = \
            work, seed, quick, trace
        self.specs = load_workloads()["workloads"]
        self.count = 0
        self.fixture_dir = None
        self.results = {}

    def _fixture(self) -> Path:
        """The serve fixture: built once, copied per round."""
        if self.fixture_dir is None:
            self.fixture_dir = self.work / "fixture"
            self.fixture_dir.mkdir()
            args = ["--workload", "serve_mix", "--fixture", "build"]
            built = spawn("child.py", args + ["--quick"] * self.quick,
                          self.fixture_dir)
            if "crashed" in built:
                raise RuntimeError(f"fixture build {built['crashed']}")
            (self.fixture_dir / "fixture.json").write_text(
                json.dumps(built))
        return self.fixture_dir

    def one(self, name: str, budget_s: float, round_index: int):
        self.count += 1
        cache_dir = self.work / f"cache-{self.count}"
        args = ["--workload", name, "--seed", str(self.seed),
                "--budget", repr(budget_s), "--round", str(round_index)] \
            + ["--quick"] * self.quick
        if self.specs[name]["kind"] == "serve":
            shutil.copytree(self._fixture(), cache_dir)
            args += ["--fixture", str(cache_dir / "fixture.json")]
        else:
            cache_dir.mkdir()
        script = "layers.py" if self.trace else "child.py"
        self.results.setdefault(name, []).append(
            spawn(script, args, cache_dir))
        shutil.rmtree(cache_dir, ignore_errors=True)


def pooled(rounds: list) -> dict:
    """Pool the children of one workload: samples concatenated,
    set-up as the median over children, memory as the maximum."""
    crashed = [r["crashed"] for r in rounds if "crashed" in r]
    good = [r for r in rounds if "crashed" not in r]
    samples = {"setup_s": [], "peak_rss_mb": [r["peak_rss_mb"]
                                              for r in good]}
    for r in good:
        samples["setup_s"].extend(r["setup_s"])
        for metric, values in r["samples"].items():
            samples.setdefault(metric, []).extend(values)
    failures = [f"child crashed: {c}" for c in crashed]
    for r in good:
        failures.extend(r["failures"])
    exact = {}
    for r in good:
        for key, value in r["exact"].items():
            if exact.setdefault(key, value) != value:
                failures.append(f"{key} differs between rounds: "
                                f"{exact[key]} vs {value}")
    return {"samples": samples,
            "attempted": sum(r["attempted"] for r in good) + len(crashed),
            "failed": sum(r["failed"] for r in good) + len(crashed),
            "failures": failures, "exact": exact}


#: How a metric's pooled samples become its value.  Op times take the
#: fastest sample: on a shared box op-to-op times scatter by 10-20 %
#: (interquartile) with no correlation to the calibration loop, while
#: the floor repeats within ~2 %, so the floor is what can resolve a
#: change in the program.  The median and quartiles are printed beside it.
#: A workload whose op times are a distribution in their own right (a
#: serve hit is ~44 ms on a reused connection, ~1 ms on its first
#: request) names the median instead, under "median_of" in
#: workloads.json.
REDUCERS = {"setup_s": statistics.median, "peak_rss_mb": max,
            "warm_op_ms": min, "cold_op_ms": min}


def describe(values: list, reducer) -> dict:
    """Value, median, quartiles and count of one sample set."""
    if not values:
        return {"n": 0, "value": None, "median": None, "q1": None,
                "q3": None}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "value": reducer(values),
            "median": statistics.median(values), "q1": q1, "q3": q3}


def end_to_end(pool: dict, contract: dict, spec: dict) -> dict:
    out = {}
    for metric in contract["end_to_end"]:
        reducer = statistics.median \
            if metric["name"] in spec.get("median_of", ()) \
            else REDUCERS[metric["name"]]
        row = describe(pool["samples"].get(metric["name"], []), reducer)
        row["unit"] = metric["unit"]
        out[metric["name"]] = row
    return out


# -- commands --------------------------------------------------------------------

def require_checkout():
    """Refuse to run where the program under test is absent."""
    missing = [str(p.relative_to(ROOT)) for p in
               (ROOT / "src" / "repro" / "__init__.py",
                ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        sys.exit(f"bench.py: not a checkout of the repo "
                 f"(missing {', '.join(missing)})")


def measure(names: list, rounds: int, seconds: float, prime_s: float,
            seed: int, quick: bool, trace: bool):
    """Prime, then ``rounds`` x ``names`` fresh children, interleaved so
    each workload's samples span the whole run.  Returns
    ``({workload: [child results]}, machine summary)``."""
    machine = Machine()
    if not (ROOT / "src" / "repro" / "__pycache__").is_dir():
        # First run in a fresh checkout: compile once, outside any
        # child's set-up time.
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src" / "repro")], check=False,
                       stdout=subprocess.DEVNULL)
    machine.prime(prime_s)
    with WorkDir() as work:
        spawner = Rounds(work, seed, quick, trace)
        machine.calibrate()
        for round_index in range(rounds):
            for name in names:
                spawner.one(name, seconds / rounds, round_index)
                machine.calibrate()
    return spawner.results, machine.summary()


def cmd_run(args) -> int:
    require_checkout()
    contract = load_contract()
    workloads = load_workloads()
    names = workloads["order"]
    rounds, seconds, prime_s = ROUNDS, args.seconds, RUN_PRIME_S
    if args.quick:
        rounds, seconds, prime_s = 1, QUICK_SECONDS, 0.0
    results, machine = measure(names, rounds, seconds, prime_s, args.seed,
                               args.quick, trace=False)
    summary = {"kind": "run", "seed": args.seed, "quick": args.quick,
               "rounds": rounds, "seconds": seconds,
               "machine": fingerprint(), "bench": machine,
               "noisy": machine["noisy"], "workloads": {}}
    failed = 0
    for name in names:
        pool = pooled(results[name])
        failed += pool["failed"]
        pool["exact"]["fail_ratio"] = pool["failed"] / pool["attempted"]
        summary["workloads"][name] = {
            "end_to_end": end_to_end(pool, contract,
                                     workloads["workloads"][name]),
            "exact": pool["exact"], "attempted": pool["attempted"],
            "failed": pool["failed"], "failures": pool["failures"][:10]}
    summary["claim"] = None
    print_run(summary, contract)
    finish(summary, args.out)
    return 1 if failed else 0


def print_run(summary: dict, contract: dict):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'unit':5} {'n':>5} "
          f"{'value':>11} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'bound':>6}")
    for name, block in summary["workloads"].items():
        for metric, row in block["end_to_end"].items():
            cells = [f"{row[k]:11.3f}" if row[k] is not None
                     else f"{'-':>11}"
                     for k in ("value", "median", "q1", "q3")]
            print(f"{name:14} {metric:12} {row['unit']:5} {row['n']:5d} "
                  f"{' '.join(cells)} {bounds[metric]:6.2f}")
        for key, value in block["exact"].items():
            print(f"{name:14} {key:24} = {value}")
        for failure in block["failures"]:
            print(f"{name:14} FAILED: {failure}")
    bench = summary["bench"]
    print(f"bench.calib_ms {bench['calib_ms']:.3f} ms, bench.calib_drift "
          f"{bench['calib_drift']:.3f}"
          + ("  ** noisy run **" if bench["noisy"] else ""))


def merge_layers(rounds: list, machine: dict) -> dict:
    """One child's layer table plus the parent's own health metrics."""
    child = rounds[0]
    if "crashed" in child:
        return {"layers": {}, "attempted": 1, "failed": 1,
                "failures": [f"child crashed: {child['crashed']}"],
                "spans": []}
    child["layers"]["bench.calib_ms"] = machine["calib_ms"]
    child["layers"]["bench.calib_drift"] = machine["calib_drift"]
    return child


def cmd_trace(args) -> int:
    require_checkout()
    contract = load_contract()
    names = load_workloads()["order"]
    seconds = QUICK_SECONDS if args.quick else args.seconds
    results, machine = measure(names, 1, seconds,
                               0.0 if args.quick else RUN_PRIME_S,
                               args.seed, args.quick, trace=True)
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    summary = {"kind": "trace", "seed": args.seed, "quick": args.quick,
               "machine": fingerprint(), "bench": machine,
               "noisy": machine["noisy"], "units": units,
               "workloads": {}}
    failed, events = 0, []
    for name in names:
        block = merge_layers(results[name], machine)
        failed += block["failed"]
        events.extend(chrome_events(block.pop("spans"), name))
        summary["workloads"][name] = block
    summary["claim"] = None
    print(f"{'layer metric':34} {'unit':6} "
          + " ".join(f"{name:>14}" for name in names))
    for metric, unit in units.items():
        cells = [summary["workloads"][name]["layers"].get(metric)
                 for name in names]
        print(f"{metric:34} {unit:6} " + " ".join(
            f"{cell:14.6g}" if cell is not None else f"{'-':>14}"
            for cell in cells))
    for name in names:
        for failure in summary["workloads"][name]["failures"]:
            print(f"{name} FAILED: {failure}")
    finish(summary, args.out)
    if args.out:
        trace_path = Path(args.out).with_suffix(".trace.json")
        trace_path.write_text(json.dumps({"traceEvents": events}))
        print(f"wrote {trace_path}")
    return 1 if failed else 0


def chrome_events(spans: list, workload: str) -> list:
    """Spans as Chrome trace-event "complete" events, one process lane
    per workload; ``args`` carry the span's parent and op id."""
    pid = 1 + load_workloads()["order"].index(workload)
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": workload}}]
    for span in spans:
        events.append({
            "ph": "X", "name": span["name"], "pid": pid,
            "tid": span["lane"], "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"],
                     "op": span["op"]}})
    return events


def finish(summary: dict, out):
    print(json.dumps(summary))
    if out:
        Path(out).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {out}")


def cmd_one(args) -> int:
    """The form ``BENCHMARK.json`` names: one workload, one JSON line."""
    require_checkout()
    contract = load_contract()
    specs = load_workloads()["workloads"]
    if args.workload not in specs:
        sys.exit(f"bench.py: unknown workload {args.workload!r}")
    trace = bool(args.trace)
    results, machine = measure(
        [args.workload], 1 if trace else ROUNDS, float(args.seconds),
        ONE_PRIME_S, args.seed, quick=False, trace=trace)
    if trace:
        block = merge_layers(results[args.workload], machine)
        WORK_ROOT.mkdir(exist_ok=True)
        (WORK_ROOT / f"trace-{args.workload}.json").write_text(json.dumps(
            {"traceEvents": chrome_events(block["spans"],
                                          args.workload)}))
        metrics = {m["name"]: {"value": block["layers"].get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        block = pooled(results[args.workload])
        rows = end_to_end(block, contract, specs[args.workload])
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in rows.items()}
        for name, row in rows.items():
            if row["value"] is None:
                block["failures"].append(f"no sample of {name}")
                block["failed"] = max(block["failed"], 1)
                metrics[name]["value"] = 0
    for failure in block["failures"][:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if machine["noisy"]:
        print(f"noisy run: calibration drift "
              f"{machine['calib_drift']:.2f}", file=sys.stderr)
    print(json.dumps({"correct": block["failed"] == 0,
                      "attempted": max(1, block["attempted"]),
                      "failed": block["failed"], "metrics": metrics}))
    return 0


# -- compare -----------------------------------------------------------------------

def spread(row: dict) -> float:
    """Interquartile range of the pooled samples over their median."""
    if not row["median"] or row["n"] < 2:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["median"])


def compare_rows(a: dict, b: dict, contract: dict) -> list:
    """One row per (workload, metric) present in both result sets."""
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    noisy = a.get("noisy") or b.get("noisy")
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, ra in wa.get("end_to_end", {}).items():
            rb = wb["end_to_end"].get(metric)
            if rb is None or ra["value"] is None or rb["value"] is None:
                continue
            bound = e2e[metric]["bound"]
            diff = rb["value"] / ra["value"] - 1.0
            worse = diff if e2e[metric]["better"] == "lower" else -diff
            if worse > bound:
                verdict = "REGRESSED"
            elif noisy or max(spread(ra), spread(rb)) > bound:
                verdict = "unresolved"
            else:
                verdict = "improved" if worse < -bound else "unchanged"
            rows.append((name, metric, ra, rb, diff, bound, verdict))
        for metric, va in wa.get("exact", {}).items():
            vb = wb["exact"].get(metric)
            rows.append((name, metric, va, vb, None, 0,
                         "equal" if va == vb else "UNEQUAL"))
        for metric, va in wa.get("layers", {}).items():
            vb = wb["layers"].get(metric)
            unit = layer_units.get(metric, "")
            exact = metric in EXACT_NAMES or (
                unit == "count" and metric not in TIMED_COUNTS)
            verdict = "layer" if not exact \
                else "equal" if va == vb else "UNEQUAL"
            diff = (vb / va - 1.0) if va and vb is not None else None
            rows.append((name, metric, va, vb, diff, None, verdict))
    return rows


def cmd_compare(args) -> int:
    contract = load_contract()
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    rows = compare_rows(a, b, contract)

    def cell(value):
        if isinstance(value, dict):
            return (f"{value['value']:.4g} ({value['median']:.4g} "
                    f"[{value['q1']:.4g}, {value['q3']:.4g}] "
                    f"n={value['n']})")
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    print(f"{'workload':14} {'metric':30} {'A':>42} {'B':>42} "
          f"{'B/A-1':>8} {'bound':>6}  verdict")
    for name, metric, va, vb, diff, bound, verdict in rows:
        print(f"{name:14} {metric:30} {cell(va):>42} {cell(vb):>42} "
              f"{'' if diff is None else format(diff, '+.3f'):>8} "
              f"{'' if bound is None else format(bound, '.2f'):>6}  "
              f"{verdict}")
    bad = [r for r in rows if r[6] in ("REGRESSED", "UNEQUAL")]
    unresolved = sum(r[6] == "unresolved" for r in rows)
    for side, result in (("A", a), ("B", b)):
        if result.get("noisy"):
            print(f"{side} is marked noisy: its pairs are unresolved")
    print(f"{len(rows)} rows: {len(bad)} beyond bound or unequal, "
          f"{unresolved} unresolved")
    return 1 if bad else 0


def main(argv=None) -> int:
    # A terminated run must clean up like an interrupted one.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "trace", "compare"):
        parser = argparse.ArgumentParser(
            description="one workload, one JSON result line")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return cmd_one(parser.parse_args(argv))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        command = sub.add_parser(name)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--seconds", type=float, default=RUN_SECONDS,
                             help="timed seconds per workload")
        command.add_argument("--quick", action="store_true",
                             help="tiny shapes, one round (test only)")
        command.add_argument("--out", default=None)
    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    return {"run": cmd_run, "trace": cmd_trace,
            "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
