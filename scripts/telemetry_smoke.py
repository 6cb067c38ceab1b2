#!/usr/bin/env python
"""CI telemetry smoke check (docs/OBSERVABILITY.md).

Runs the same tiny sweep twice — once plain, once with telemetry
enabled — and asserts the overhead contract end to end:

1. **Zero perturbation**: per-point simulated cycle counts are
   bitwise-equal between the instrumented and plain sweeps, for both
   the thread backend (a serial in-process sweep) and the supervised
   process backend.
2. **Artifacts**: the instrumented sweep produces a parseable metrics
   snapshot and a Chrome trace-event JSON (Perfetto-loadable shape:
   ``traceEvents`` with ``M`` thread-name metadata and ``X`` complete
   events); the process-backend trace carries one lane per worker the
   run journal spawned, reconstructed from that journal.
3. **Totals**: thread- and process-backend snapshots agree on the
   backend-agnostic counter totals, and both backends time the sweep's
   one lowered-program family, whose float data cannot fail, with
   control runs alone.

Run from the repo root: ``python scripts/telemetry_smoke.py OUTDIR``.
Writes ``metrics-<backend>.json`` and ``trace-<backend>.json`` into
OUTDIR (uploaded as CI artifacts) and exits non-zero on any violation.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Persisting (into the run's private REPRO_CACHE_DIR) so the sweep
#: opens its load/persist spans too.
SWEEP = ["--program", "laplace2d", "--shape", "24,24",
         "--widths", "1,2,4", "--strategy", "exhaustive",
         "--workers", "2"]

#: One span per sweep stage: together they cover its wall time.
SWEEP_SPANS = {"explore.load", "explore.prune", "explore.select",
               "explore.simulate", "explore.report", "explore.persist"}

#: Counter totals that must not depend on the backend (the planner's
#: counts included: a control run reports them like a batched one).
EQUIVALENT = ("explore.sweeps", "explore.points_priced",
              "explore.points_measured", "engine.runs",
              "engine.cycles", "engine.plans", "engine.windows",
              "engine.virtual_cycles")


def log(message: str):
    print(f"[telemetry-smoke] {message}", flush=True)


def run_sweep(workdir: Path, backend: str, tag: str, telemetry: bool):
    report = workdir / f"report-{tag}.json"
    argv = [sys.executable, "-m", "repro", "explore",
            *SWEEP, "--backend", backend, "--output", str(report)]
    if telemetry:
        argv += ["--metrics", str(workdir / f"metrics-{tag}.json"),
                 "--trace", str(workdir / f"trace-{tag}.json")]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(SRC), os.environ.get("PYTHONPATH")))),
               REPRO_CACHE_DIR=str(workdir / f"cache-{tag}"))
    subprocess.run(argv, check=True, cwd=ROOT, env=env)
    return json.loads(report.read_text())


def cycles_by_label(report: dict) -> dict:
    return {json.dumps(entry["point"], sort_keys=True):
            entry["simulated_cycles"]
            for entry in report["entries"]
            if entry.get("simulated_cycles") is not None}


def counter_totals(snapshot: dict) -> dict:
    totals = {name: 0.0 for name in EQUIVALENT}
    for rec in snapshot["counters"]:
        if rec["name"] in totals:
            totals[rec["name"]] += rec["value"]
    return totals


def check_trace(path: Path, expect_workers: bool):
    spec = json.loads(path.read_text())
    events = spec["traceEvents"]
    assert events, f"{path.name}: empty trace"
    phases = {event["ph"] for event in events}
    assert phases <= {"M", "X"}, f"unexpected phases {phases}"
    lanes = {event["args"]["name"] for event in events
             if event["ph"] == "M"}
    spans = {event["name"] for event in events if event["ph"] == "X"}
    assert SWEEP_SPANS <= spans, \
        f"missing sweep spans: {SWEEP_SPANS - spans}"
    if expect_workers:
        workers = {name for name in lanes
                   if name.startswith("worker-")}
        spawned = {event["args"]["worker"] for event in events
                   if event["ph"] == "X"
                   and event["name"] == "service.worker"}
        assert spawned and len(workers) == len(spawned), \
            f"expected one lane per worker of {spawned}, got {lanes}"
        assert "supervisor" in lanes, lanes
        for name in ("service.run", "service.worker", "service.job"):
            assert name in spans, f"missing {name} in {spans}"
    log(f"{path.name}: {len(events)} events, lanes {sorted(lanes)}")


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        workdir = Path(tmp)
        totals = {}
        for backend in ("thread", "process"):
            log(f"{backend}: plain sweep")
            plain = run_sweep(workdir, backend, f"{backend}-plain",
                              telemetry=False)
            log(f"{backend}: instrumented sweep")
            traced = run_sweep(workdir, backend, backend,
                               telemetry=True)

            plain_cycles = cycles_by_label(plain)
            traced_cycles = cycles_by_label(traced)
            assert plain_cycles, "sweep simulated nothing"
            assert traced_cycles == plain_cycles, (
                f"telemetry perturbed {backend} cycle counts: "
                f"{traced_cycles} != {plain_cycles}")
            log(f"{backend}: cycles bitwise-equal "
                f"({sorted(plain_cycles.values())})")

            snapshot = json.loads(
                (workdir / f"metrics-{backend}.json").read_text())
            assert snapshot["schema"] == 1
            totals[backend] = counter_totals(snapshot)
            # Widths 1, 2, 4 of laplace2d are one lowered-program
            # family whose data cannot fail: three control runs.
            controls = sum(rec["value"] for rec in snapshot["counters"]
                           if rec["name"] == "explore.control_points")
            assert controls == 3, \
                f"expected 3 control runs on {backend}, got {controls}"
            check_trace(workdir / f"trace-{backend}.json",
                        expect_workers=(backend == "process"))

        assert totals["thread"] == totals["process"], (
            f"backend metric totals diverge: {totals}")
        log(f"backend-agnostic totals match: {totals['thread']}")

        if outdir is not None:
            outdir.mkdir(parents=True, exist_ok=True)
            for backend in ("thread", "process"):
                for stem in ("metrics", "trace"):
                    src = workdir / f"{stem}-{backend}.json"
                    (outdir / src.name).write_text(src.read_text())
            log(f"artifacts copied to {outdir}")
    log("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
