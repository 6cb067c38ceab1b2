#!/usr/bin/env python
"""CI telemetry smoke check (docs/OBSERVABILITY.md).

Runs the same tiny sweep twice — once plain, once with telemetry
enabled — and asserts the overhead contract end to end:

1. **Zero perturbation**: per-point simulated cycle counts are
   bitwise-equal between the instrumented and plain sweeps.
2. **Artifacts**: the instrumented sweep produces a parseable metrics
   snapshot and a Chrome trace-event JSON (Perfetto-loadable shape:
   ``traceEvents`` with ``M`` thread-name metadata and ``X`` complete
   events) holding one span per sweep stage.
3. **Totals**: the snapshot counts one sweep, and times the sweep's
   one lowered-program family, whose float data cannot fail, with
   control runs alone.

Run from the repo root: ``python scripts/telemetry_smoke.py OUTDIR``.
Writes ``metrics.json`` and ``trace.json`` into OUTDIR (uploaded as CI
artifacts) and exits non-zero on any violation.
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
         "--widths", "1,2,4", "--strategy", "exhaustive"]

#: One span per sweep stage: together they cover its wall time.
SWEEP_SPANS = {"explore.load", "explore.prune", "explore.select",
               "explore.simulate", "explore.report", "explore.persist"}


def log(message: str):
    print(f"[telemetry-smoke] {message}", flush=True)


def run_sweep(workdir: Path, tag: str, telemetry: bool):
    report = workdir / f"report-{tag}.json"
    argv = [sys.executable, "-m", "repro", "explore",
            *SWEEP, "--output", str(report)]
    if telemetry:
        argv += ["--metrics", str(workdir / "metrics.json"),
                 "--trace", str(workdir / "trace.json")]
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


def counter_total(snapshot: dict, name: str) -> float:
    return sum(rec["value"] for rec in snapshot["counters"]
               if rec["name"] == name)


def check_trace(path: Path):
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
    log(f"{path.name}: {len(events)} events, lanes {sorted(lanes)}")


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        workdir = Path(tmp)
        log("plain sweep")
        plain = run_sweep(workdir, "plain", telemetry=False)
        log("instrumented sweep")
        traced = run_sweep(workdir, "traced", telemetry=True)

        plain_cycles = cycles_by_label(plain)
        traced_cycles = cycles_by_label(traced)
        assert plain_cycles, "sweep simulated nothing"
        assert traced_cycles == plain_cycles, (
            f"telemetry perturbed cycle counts: "
            f"{traced_cycles} != {plain_cycles}")
        log(f"cycles bitwise-equal ({sorted(plain_cycles.values())})")

        snapshot = json.loads((workdir / "metrics.json").read_text())
        assert snapshot["schema"] == 1
        sweeps = counter_total(snapshot, "explore.sweeps")
        assert sweeps == 1, f"expected 1 sweep, got {sweeps}"
        # Widths 1, 2, 4 of laplace2d are one lowered-program family
        # whose data cannot fail: three control runs.
        controls = counter_total(snapshot, "explore.control_points")
        assert controls == 3, f"expected 3 control runs, got {controls}"
        check_trace(workdir / "trace.json")

        if outdir is not None:
            outdir.mkdir(parents=True, exist_ok=True)
            for name in ("metrics.json", "trace.json"):
                (outdir / name).write_text((workdir / name).read_text())
            log(f"artifacts copied to {outdir}")
    log("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
