"""The traced round: each workload's op, step by step, through the
layers' public functions, with spans recorded by the benchmark.

``bench.py trace`` (and ``--trace 1``) spawns this module instead of
``child.py``.  A traced op performs what the untraced op does, one
public call per span, so a layer's self time (span minus children)
sums to the op; the same child also times a few untraced ops, which
gives ``bench.trace_overhead`` and ``bench.parts_sum_ratio``.  Nothing
here is an end-to-end number.  The last stdout line is::

    {"layers": {metric: value}, "spans": [...], "attempted": n,
     "failed": k, "failures": [...]}

A metric a workload does not report stays absent (the parent prints 0:
the workload never enters that layer, or the experiment lives on
another workload — README.md has the table).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import child
from child import Outcome

median = statistics.median

#: What a cold ``repro run`` / ``explore`` / ``serve`` imports.
IMPORTS = ("numpy", "repro.api", "repro.cli", "repro.programs",
           "repro.simulator", "repro.explore", "repro.serve")


class Tracer:
    """Spans kept in memory: name, start, end, parent, op id."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, op=None, lane: int = 0):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name,
                  "parent": None if parent is None else parent["id"],
                  "op": op if op is not None or parent is None
                  else parent["op"],
                  "lane": lane, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op, lane: int):
        """A span timed elsewhere (client threads)."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": None, "op": op, "lane": lane,
                           "start": start, "end": end})

    def durations(self, name: str, ops=None) -> list:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (ops is None or s["op"] in ops)]

    def self_time_sum(self, op) -> float:
        """Sum over the op's layer spans of (duration - children): by
        construction what the op's root span covers in layer calls."""
        total = 0.0
        for s in self.spans:
            if s["op"] != op or s["parent"] is None:
                continue
            covered = sum(c["end"] - c["start"] for c in self.spans
                          if c["parent"] == s["id"])
            total += (s["end"] - s["start"]) - covered
        return total


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def lowering_stats() -> dict:
    from repro.lowering import default_cache
    hits, misses = default_cache().stats()
    return {"hits": hits, "misses": misses}


# -- run_single / run_links ----------------------------------------------------

def traced_run_op(tr: Tracer, op, spec, inputs, kwargs, cold=False):
    """``Session.run``'s sequence, one public call per span."""
    import numpy as np
    from repro.hardware import STRATIX10
    from repro.lowering import LoweringConfig, lower
    from repro.programs import build
    from repro.run.reference import run_reference
    from repro.simulator import build_simulator
    with tr.span("op", op=op) as root:
        with tr.span("programs.resolve"):
            program = build(spec["program"], shape=tuple(spec["shape"]),
                            vectorization=spec["vectorization"])
        with tr.span("lowering.lower"):
            lowered = lower(program, LoweringConfig(), platform=STRATIX10)
        with tr.span("lowering.analysis"):
            lowered.analysis  # property: builds or fetches the artifact
            if cold:
                lowered.certificate()
        with tr.span("simulator.build"):
            sim = build_simulator(program, kwargs.get("config"),
                                  kwargs.get("device_of"))
        with tr.span("simulator.run"):
            result = sim.run(inputs)
        with tr.span("run.reference"):
            reference = run_reference(program, inputs)
        with tr.span("run.validate"):
            validated = all(
                np.allclose(result.outputs[name][ref.valid_slice],
                            ref.valid_view, rtol=1e-5, atol=1e-6,
                            equal_nan=True)
                for name, ref in ((n, reference[n])
                                  for n in program.outputs))
    # Only the timing record leaves: holding the outputs across the
    # next op would change that op's memory behaviour.
    result.outputs = None
    return root["end"] - root["start"], result, validated


def kernel_run(program, kwargs, inputs):
    """(seconds, result) of one ``engine_mode="kernel"`` simulation."""
    from dataclasses import replace
    from repro.simulator import SimulatorConfig, build_simulator
    config = replace(kwargs.get("config") or SimulatorConfig(),
                     engine_mode="kernel")
    return timed(lambda: build_simulator(
        program, config, kwargs.get("device_of")).run(inputs))


def kernel_metrics(program, inputs, kwargs, args):
    """The compiled-kernel engine, which no default path uses today:
    cold run in the (empty) cache dir, third run, and a first run in a
    fresh process against the now-warm disk cache.  Must come last:
    once an artifact is on disk, ``auto`` upgrades to it.

    Returns ``(layers, cycles, replayed)``; the last two pair this
    process's third run with the fresh process's first."""
    runs = [kernel_run(program, kwargs, inputs) for _ in range(3)]
    result = runs[2][1]
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--kernel-load"] + ["--quick"] * args.quick
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120.0)
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    layers = {"simulator.kernel_cold_s": runs[0][0],
              "simulator.kernel_replay_s": runs[2][0],
              "simulator.kernel_load_s": loaded["seconds"],
              "simulator.kernel_slabs": result.profile.kernel_slabs,
              "simulator.kernel_rss_mb": loaded["rss_mb"]}
    return (layers, (result.cycles, loaded["cycles"]),
            (result.profile.kernel_cached, loaded["kernel_cached"]))


def kernel_load(spec, seed) -> dict:
    """Fresh process, warm disk cache: first kernel-engine run."""
    program, kwargs = child.run_setup(spec)
    took, result = kernel_run(program, kwargs,
                              child.make_inputs(program, seed))
    return {"seconds": took, "rss_mb": child.peak_rss_mb(),
            "cycles": result.cycles,
            "kernel_cached": result.profile.kernel_cached}


def telemetry_overhead(program, inputs, kwargs, pairs: int) -> float:
    """Median ``sim.run`` with ``repro.obs`` enabled over disabled,
    interleaved (the < 2 % gate of ROADMAP item 5)."""
    from repro import obs
    from repro.simulator import build_simulator
    on, off = [], []
    try:
        for _ in range(pairs):
            for bucket, switch in ((on, obs.enable), (off, obs.disable)):
                switch()
                sim = build_simulator(program, kwargs.get("config"),
                                      kwargs.get("device_of"))
                bucket.append(timed(sim.run, inputs)[0])
    finally:
        obs.disable()
    return median(on) / median(off)


def trace_run(spec, args, import_s) -> dict:
    from repro import api
    from repro.lowering import reset_default_cache
    from repro.simulator import simulate_control
    out, tr = Outcome(), Tracer()
    layers = {"setup.import_s": import_s}
    program, kwargs = child.run_setup(spec)
    inputs = child.make_inputs(program, args.seed)
    pinned = spec["pinned"]

    reset_default_cache()
    before = lowering_stats()
    _, result, validated = traced_run_op(tr, "cold", spec, inputs, kwargs,
                                         cold=True)
    out.attempted += 1
    out.check(validated and result.cycles == pinned["cycles"],
              f"traced cold op: validated={validated}, "
              f"{result.cycles} cycles")
    layers["lowering.lower_cold_s"] = tr.durations("lowering.lower")[0]
    layers["lowering.analysis_cold_s"] = \
        tr.durations("lowering.analysis")[0]
    first_run_s = tr.durations("simulator.run")[0]

    # Steady state: untraced api.run and traced ops, interleaved.
    untraced, traced_total, steady = [], [], []
    for n in range(2 if args.quick else 3):
        out.attempted += 2
        took, plain = timed(api.run, program, inputs, **kwargs)
        child.check_run(out, plain, pinned)
        del plain
        untraced.append(took)
        total, result, validated = traced_run_op(tr, n, spec, inputs,
                                                 kwargs)
        out.check(validated and result.cycles == pinned["cycles"],
                  f"traced op {n}: validated={validated}, "
                  f"{result.cycles} cycles")
        traced_total.append(total)
        steady.append(n)
    after = lowering_stats()

    def steady_median(name):
        return median(tr.durations(name, steady))

    run_s = steady_median("simulator.run")
    took_control = [timed(simulate_control, program, inputs,
                          kwargs.get("config"),
                          kwargs.get("device_of"))
                    for _ in range(2)]
    control_s = median(t for t, _ in took_control)
    control = took_control[-1][1]
    out.attempted += 1
    out.check(control.cycles == result.cycles,
              f"control run: {control.cycles} cycles, full run "
              f"{result.cycles}")
    profile = result.profile
    layers.update({
        "setup.first_run_extra_s": first_run_s - run_s,
        "programs.resolve_s": steady_median("programs.resolve"),
        "lowering.lower_warm_s": steady_median("lowering.lower")
        + steady_median("lowering.analysis"),
        "lowering.cache_hits": after["hits"] - before["hits"],
        "lowering.cache_misses": after["misses"] - before["misses"],
        "simulator.build_s": steady_median("simulator.build"),
        "simulator.run_s": run_s,
        "simulator.control_s": control_s,
        "simulator.data_s": run_s - control_s,
        "simulator.ns_per_cell": run_s / program.num_cells * 1e9,
        "simulator.us_per_plan": control_s / max(1, profile.plan_count)
        * 1e6,
        "simulator.cycles": profile.cycles,
        "simulator.plan_count": profile.plan_count,
        "simulator.window_count": profile.window_count,
        "simulator.window_cycles": profile.window_cycles,
        "simulator.drift_windows": profile.drift_windows,
        "simulator.scalar_cycles": profile.scalar_cycles,
        "simulator.stall_cycles": sum(result.stall_cycles.values()),
        "simulator.occupancy_max": max(result.channel_occupancy.values()),
        "run.reference_s": steady_median("run.reference"),
        "run.validate_s": steady_median("run.validate"),
        "model.eq1_err_max": child.eq1_error(result.cycles,
                                             result.expected_cycles),
        # Floor over floor, like the end-to-end op times.
        "bench.trace_overhead": min(traced_total) / min(untraced),
        "bench.parts_sum_ratio": min(tr.self_time_sum(n) for n in steady)
        / min(untraced),
    })
    if spec["devices"] > 1:
        layers["obs.telemetry_overhead"] = telemetry_overhead(
            program, inputs, kwargs, 2 if args.quick else 5)
    kernel, cycles, replayed = kernel_metrics(program, inputs, kwargs,
                                              args)
    out.attempted += 1
    out.check(cycles == (result.cycles,) * 2 and replayed == (True, True),
              f"kernel engine: cycles {cycles}, replayed {replayed}")
    layers.update(kernel)
    return finish(out, tr, layers)


# -- explore_sweep ---------------------------------------------------------------

def trace_explore(spec, args, import_s) -> dict:
    from repro import api
    from repro.explore import Pruner, ResultCache, baseline_point
    from repro.explore.search import get_strategy
    from repro.hardware import STRATIX10
    from repro.lowering import reset_default_cache
    out, tr = Outcome(), Tracer()
    layers = {"setup.import_s": import_s}
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    with tr.span("op", op="layers"):
        with tr.span("programs.resolve") as resolve:
            program, kwargs = child.explore_setup(spec)
        inputs = child.make_inputs(program, args.seed)
        points = list(kwargs["space"].points())
        base = baseline_point(program)
        if base not in points:
            points.append(base)

        def prune(name):
            with tr.span(name) as record:
                pruner = Pruner(program, STRATIX10)
                predictions = [pruner.predict(p) for p in points]
            return record["end"] - record["start"], predictions

        reset_default_cache()
        before = lowering_stats()
        prune_cold_s, _ = prune("explore.prune_cold")
        prune_s, predictions = prune("explore.prune")
        with tr.span("explore.select") as select:
            get_strategy("greedy", beam_width=spec["beam_width"]).select(
                predictions, baseline=base)
        select_s = select["end"] - select["start"]

        # Per-point lowering + build + simulate + entry assembly, by
        # subtraction from a sweep that touches no disk.
        reset_default_cache()
        results = ResultCache()
        with tr.span("explore.sweep_nopersist") as whole:
            report = api.explore(program, inputs=inputs, persist=False,
                                 cache=results, **kwargs)
        out.attempted += 1
        child.check_sweep(out, report, spec["pinned"], "traced sweep")
        measure_s = (whole["end"] - whole["start"]) - prune_cold_s \
            - select_s
        after = lowering_stats()
        with tr.span("explore.cache_save") as save:
            results.save_persistent()
        with tr.span("explore.cache_load") as load:
            ResultCache().load_persistent()
        with tr.span("explore.report_store") as store:
            report_path = report.store()

    def seconds(record):
        return record["end"] - record["start"]

    layers.update({
        "programs.resolve_s": seconds(resolve),
        "lowering.cache_hits": after["hits"] - before["hits"],
        "lowering.cache_misses": after["misses"] - before["misses"],
        "explore.prune_cold_s": prune_cold_s,
        "explore.prune_s": prune_s,
        "explore.prune_us_per_point": prune_s / len(points) * 1e6,
        "explore.select_s": select_s,
        "explore.measure_s": measure_s,
        "explore.cache_save_s": seconds(save),
        "explore.cache_load_s": seconds(load),
        "explore.report_store_s": seconds(store),
        "explore.cache_bytes":
            (cache_dir / "explore_cache.json").stat().st_size,
        "explore.report_bytes": report_path.stat().st_size,
        "explore.points_total": report.total_points,
        "explore.points_pruned": report.pruned_points,
        "explore.points_simulated": report.simulated_points,
        "model.eq1_err_max": report.worst_model_error or 0.0,
    })

    # The untraced op pair, as child.py runs it: denominator of the
    # parts ratio, and the resweep's provenance counts.
    def untraced_pair(**extra):
        child.wipe_cache_dir()
        sweep_s, first = timed(api.explore, program, inputs=inputs,
                               **dict(kwargs, **extra))
        resweep_s, again = timed(api.explore, program, inputs=inputs,
                                 **dict(kwargs, **extra))
        out.attempted += 2
        child.check_sweep(out, first, spec["pinned"], "sweep")
        child.check_sweep(out, again, spec["pinned"], "resweep")
        return sweep_s, resweep_s, again

    pairs = [untraced_pair() for _ in range(1 if args.quick else 2)]
    sweep_s = min(p[0] for p in pairs)
    again = pairs[-1][2]
    parts = prune_cold_s + select_s + measure_s + seconds(save) \
        + seconds(load) + seconds(store)
    layers.update({
        "explore.cache_hits": again.cache_hits,
        "explore.relowered": again.relowered_programs,
        "bench.parts_sum_ratio": parts / sweep_s,
    })

    # Config-parallel control runs against per-point simulation on a
    # network-axis space (one lowered program, twelve machines).
    axis_space = child.config_space(spec["network_axis_space"])
    per_point, stacked = [], []
    for _ in range(1 if args.quick else 3):
        for bucket, flag in ((per_point, False), (stacked, True)):
            took, swept = timed(
                api.explore, program, inputs=inputs, space=axis_space,
                strategy="exhaustive", workers=1, persist=False,
                cache=ResultCache(), config_parallel=flag)
            out.attempted += 1
            out.check(not swept.failed_points,
                      f"network-axis sweep (config_parallel={flag}): "
                      f"{len(swept.failed_points)} failed points")
            bucket.append(took)
    layers["explore.per_point_s"] = median(per_point)
    layers["explore.config_parallel_s"] = median(stacked)

    # The same sweep on the supervised process backend.
    service = [untraced_pair(backend="process")[0]
               for _ in range(1 if args.quick else 2)]
    layers["service.sweep_s"] = min(service)
    layers["service.overhead_s"] = min(service) - sweep_s
    return finish(out, tr, layers)


# -- serve_mix -------------------------------------------------------------------

def percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def trace_serve(spec, args, import_s) -> dict:
    from repro import api
    from repro.serve import FrontierIndex
    out, tr = Outcome(), Tracer()
    layers = {"setup.import_s": import_s}
    fixture = json.loads(Path(args.fixture).read_text())
    fronts = fixture["fronts"]

    # In-process probes of the index, on the same fixture.
    with tr.span("op", op="index"):
        with tr.span("serve.index_load") as load:
            index, _ = FrontierIndex.warm_load(upgrade_in_place=False)
        calls = 2_000 if args.quick else 20_000
        with tr.span("serve.locate") as locate:
            for n in range(calls):
                front = fronts[n % len(fronts)]
                answer = api.query(front["program"],
                                   shape=front["shape"], index=index)
        out.attempted += 1
        out.check(answer is not None and answer["kind"] == "best",
                  "in-process api.query missed a seeded front")
    locate_us = (locate["end"] - locate["start"]) / calls * 1e6
    layers["serve.index_load_s"] = load["end"] - load["start"]
    layers["serve.locate_us"] = locate_us

    server = child.Server(spec)
    try:
        port = server.wait_port()
        hit_seconds = spec["hit_share"] * args.budget
        with tr.span("op", op="hits") as window:
            samples, failures = child.hit_traffic(
                spec, fixture, port, [args.seed, args.round], hit_seconds)
        out.attempted += len(samples) + len(failures)
        out.failures.extend(failures)
        for kind, ms, _, end, client in samples:
            tr.add(f"serve.http.{kind}", end - ms / 1e3, end, op="hits",
                   lane=1 + client)
        hits_ms = [s[1] for s in samples]
        posts_ms = [s[1] for s in samples if s[0] == "post_best"]
        lookups = [s[2]["lookup_seconds"] for s in samples]
        hit_p50 = median(hits_ms)
        layers.update({
            "serve.hit_p95_ms": percentile(hits_ms, 0.95),
            "serve.lookup_us_p50": median(lookups) * 1e6,
            "serve.http_overhead_ms": hit_p50 - locate_us / 1e3,
            "serve.post_inline_p50_ms": median(posts_ms),
            "serve.hits_per_s": len(samples) / hit_seconds,
        })

        fresh = []
        first = fronts[0]
        path = child.query_path("best", first["program"], first["shape"])
        with tr.span("op", op="connect"):
            for _ in range(50 if args.quick else 500):
                client = child.Client(port)
                try:
                    status, _, took = client.request("GET", path)
                finally:
                    client.close()
                out.attempted += 1
                if out.check(status == 200, f"fresh-connection hit: "
                                            f"status {status}"):
                    fresh.append(took * 1e3)
        layers["serve.connect_rtt_ms"] = median(fresh)

        client = child.Client(port)
        jobs, polls = [], []
        shapes = [spec["duplicate_shape"]] + spec["miss_shapes"]
        for n, shape in enumerate(shapes[:2 if args.quick else 4]):
            out.attempted += 1
            with tr.span("serve.miss", op=f"miss-{n}"):
                try:
                    _, detail = child.one_miss(spec, client, shape,
                                               duplicate=(n == 0))
                except RuntimeError as exc:
                    out.fail(str(exc))
                    continue
            jobs.append(detail["job_s"])
            polls.append(detail["polls"])
        layers["serve.job_s"] = median(jobs)
        layers["serve.polls_per_miss"] = median(polls)

        _, body, _ = client.request("GET", "/v1/metricsz")
        client.close()
        counters = {}
        for counter in body["metrics"]["counters"]:
            counters[counter["name"]] = counters.get(
                counter["name"], 0) + counter["value"]
        for name in ("serve.requests", "serve.query_hits",
                     "serve.query_misses", "serve.jobs_enqueued",
                     "serve.jobs_completed"):
            layers[name] = counters.get(name, 0)
    finally:
        server.stop()
    return finish(out, tr, layers)


# -- entry point -----------------------------------------------------------------

def finish(out: Outcome, tr: Tracer, layers: dict) -> dict:
    origin = min((s["start"] for s in tr.spans), default=0.0)
    spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
             for s in tr.spans]
    return {"layers": layers, "spans": spans,
            "attempted": out.attempted,
            "failed": min(out.attempted, len(out.failures)),
            "failures": out.failures[:20]}


def main(argv=None) -> int:
    import importlib
    parser = child.arg_parser(__doc__)
    parser.add_argument("--kernel-load", action="store_true")
    args = parser.parse_args(argv)
    spec = child.load_spec(args.workload, args.quick)
    import_s = sum(timed(importlib.import_module, module)[0]
                   for module in IMPORTS)
    if args.kernel_load:
        print(json.dumps(kernel_load(spec, args.seed)))
        return 0
    tracer = {"run": trace_run, "explore": trace_explore,
              "serve": trace_serve}[spec["kind"]]
    print(json.dumps(tracer(spec, args, import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
