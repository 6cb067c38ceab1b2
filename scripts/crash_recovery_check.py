#!/usr/bin/env python
"""CI crash-recovery check for the explorer's persistent cache.

Exercises the resilience contract end to end (docs/RESILIENCE.md):

1. **Quarantine**: a garbage persistent cache file must not take a
   sweep down — it is renamed aside with a warning, the sweep
   succeeds, and a clean cache is rebuilt.
2. **Resume**: a sweep killed mid-run (after at least one
   per-point checkpoint) leaves a valid partial cache behind; the
   next run picks the partial results up as cache hits and completes.
3. **Supervision**: a process-backend sweep survives one of its
   worker processes being SIGKILLed mid-run — the lease is
   reassigned, the sweep completes with zero failed points, and the
   journal records the death and the recovery.
4. **Crash-loop quarantine**: a deterministic poison-pill point that
   SIGKILLs its worker on every attempt is quarantined as
   ``poisoned`` after exactly two worker deaths; every other point
   still simulates.

Run from the repo root: ``python scripts/crash_recovery_check.py``.
Exits non-zero on any violation.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def log(message: str):
    print(f"[crash-recovery] {message}", flush=True)


def fail(message: str):
    log(f"FAIL: {message}")
    sys.exit(1)


def sweep_argv(tmp: Path, report: str, widths: str) -> list:
    return [sys.executable, "-m", "repro", "explore",
            "--program", "laplace2d", "--shape", "64,64",
            "--widths", widths, "--strategy", "exhaustive",
            "--checkpoint-every", "1",
            "--output", str(tmp / report)]


def main():
    tmp = Path(tempfile.mkdtemp(prefix="repro-crash-check-"))
    cache_dir = tmp / "cache"
    cache_path = cache_dir / "explore_cache.json"
    env = dict(os.environ,
               REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH=str(SRC))

    def reset_cache_dir():
        # The root holds directories too (reports/, service/...).
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)

    # -- Phase 1: corrupt cache is quarantined, sweep still succeeds.
    cache_dir.mkdir(parents=True)
    cache_path.write_text('{"definitely": "not a measurement"')
    proc = subprocess.run(sweep_argv(tmp, "r1.json", "1,2"),
                          env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"sweep over a corrupt cache exited "
             f"{proc.returncode}:\n{proc.stderr}")
    if "quarantined" not in proc.stderr:
        fail(f"no quarantine warning on stderr:\n{proc.stderr}")
    if not any(".corrupt-" in p.name for p in cache_dir.iterdir()):
        fail("corrupt cache file was not kept aside")
    try:
        rebuilt = json.loads(cache_path.read_text())
    except Exception as exc:
        fail(f"rebuilt cache is not valid JSON: {exc!r}")
    if not rebuilt:
        fail("rebuilt cache recorded no measurements")
    log("phase 1 ok: corrupt cache quarantined, sweep completed, "
        "clean cache rebuilt")

    # -- Phase 2: kill a sweep mid-run, then resume.
    reset_cache_dir()
    child = subprocess.Popen(sweep_argv(tmp, "r2.json", "1,2,4,8"),
                             env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    killed = False
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if child.poll() is not None:
            break
        try:
            if cache_path.exists() and \
                    json.loads(cache_path.read_text()):
                child.kill()  # first checkpoint landed: pull the plug
                killed = True
                break
        except (OSError, ValueError):
            pass  # between atomic replaces; keep polling
        time.sleep(0.01)
    child.wait(timeout=60)
    if not killed:
        if child.returncode != 0:
            fail(f"victim sweep died on its own: {child.returncode}")
        log("warning: sweep finished before it could be killed; "
            "resume check degenerates to a full-cache-hit run")
    else:
        log("phase 2: sweep killed after its first checkpoint")
    try:
        partial = json.loads(cache_path.read_text())
    except Exception as exc:
        fail(f"checkpointed cache is not valid JSON after the "
             f"kill: {exc!r}")
    if not partial:
        fail("no partial results survived the kill")

    proc = subprocess.run(sweep_argv(tmp, "r3.json", "1,2,4,8"),
                          env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"resumed sweep exited {proc.returncode}:\n{proc.stderr}")
    if "quarantined" in proc.stderr:
        fail(f"resume quarantined the checkpoint (it should be "
             f"valid):\n{proc.stderr}")
    report = json.loads((tmp / "r3.json").read_text())
    if report["cache_hits"] < 1:
        fail("resumed sweep did not reuse the partial results")
    if report["summary"]["failed_points"] != 0:
        fail(f"resumed sweep reported failed points: "
             f"{report['summary']['failed_points']}")
    log(f"phase 2 ok: resumed sweep completed with "
        f"{report['cache_hits']} cache hit(s)")

    # -- Phase 3: SIGKILL one worker of a process-backend sweep.
    from repro.service.journal import JOURNAL_NAME, JobJournal

    def process_argv(report_name: str, widths: str) -> list:
        return sweep_argv(tmp, report_name, widths) + \
            ["--backend", "process", "--workers", "2"]

    def run_dirs():
        service = cache_dir / "service"
        if not service.is_dir():
            return []
        return sorted(p for p in service.iterdir()
                      if p.is_dir() and (p / JOURNAL_NAME).exists())

    reset_cache_dir()
    chaos_env = dict(env, REPRO_SERVICE_KEEP_RUNDIR="1")
    child = subprocess.Popen(process_argv("r4.json", "1,2,4,8"),
                             env=chaos_env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    victim_killed = False
    deadline = time.monotonic() + 300
    import signal
    while time.monotonic() < deadline and child.poll() is None:
        pidfiles = [p for d in run_dirs()
                    for p in d.glob("worker-*.pid")]
        if pidfiles:
            try:
                pid = int(pidfiles[0].read_text().strip())
                os.kill(pid, signal.SIGKILL)
                victim_killed = True
                log(f"phase 3: SIGKILLed worker pid {pid}")
                break
            except (OSError, ValueError):
                pass  # worker already gone; keep polling
        time.sleep(0.01)
    try:
        child.wait(timeout=600)
    except subprocess.TimeoutExpired:
        child.kill()
        fail("chaos sweep hung after the worker was killed")
    if child.returncode != 0:
        fail(f"chaos sweep exited {child.returncode}")
    report = json.loads((tmp / "r4.json").read_text())
    summary = report["summary"]
    if summary["failed_points"] != 0:
        fail(f"chaos sweep lost points: "
             f"{summary['failed_points']} failed")
    if summary["simulated_points"] != summary["total_points"]:
        fail(f"chaos sweep simulated "
             f"{summary['simulated_points']}/"
             f"{summary['total_points']} points")
    if not victim_killed:
        log("warning: sweep finished before a worker could be "
            "killed; supervision check degenerates to a clean run")
    else:
        dirs = run_dirs()
        if not dirs:
            fail("no run directory survived (KEEP_RUNDIR was set)")
        state = JobJournal.replay(dirs[-1] / JOURNAL_NAME)
        if state.worker_deaths < 1:
            fail("journal recorded no worker death after SIGKILL")
        if not state.completed_run:
            fail(f"journal says the run did not complete: "
                 f"{state.summary()}")
        if state.unresolved():
            fail(f"journal left unresolved jobs: "
                 f"{state.unresolved()}")
        recovered = state.requeues \
            + state.events.get("job_completed", 0)
        if recovered < summary["total_points"]:
            fail("killed worker's lease was neither requeued nor "
                 "recovered")
        log(f"phase 3 ok: worker death survived "
            f"({state.summary()})")

    # -- Phase 4: a poison-pill point is quarantined after exactly
    # two worker deaths; everything else still simulates.
    reset_cache_dir()
    poison_env = dict(chaos_env, REPRO_SERVICE_POISON="W2 x1c")
    proc = subprocess.run(process_argv("r5.json", "1,2,4"),
                          env=poison_env, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"poison sweep exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads((tmp / "r5.json").read_text())
    failed = [e for e in report["entries"] if e["failed"]]
    if len(failed) != 1:
        fail(f"expected exactly one poisoned point, got "
             f"{len(failed)}")
    failure = failed[0]["failure"]
    if failure["kind"] != "poisoned":
        fail(f"poison point failed as {failure['kind']!r}, not "
             f"'poisoned'")
    if failure["attempts"] != 2:
        fail(f"poison point was quarantined after "
             f"{failure['attempts']} deaths, expected exactly 2")
    if report["summary"]["simulated_points"] != \
            report["summary"]["total_points"] - 1:
        fail("poisoning leaked into other points")
    dirs = run_dirs()
    if not dirs:
        fail("no run directory survived the poison sweep")
    state = JobJournal.replay(dirs[-1] / JOURNAL_NAME)
    if state.events.get("job_poisoned") != 1:
        fail(f"journal poisoned-count != 1: {state.events}")
    if state.worker_deaths < 2:
        fail(f"journal shows {state.worker_deaths} worker deaths, "
             f"expected >= 2")
    log(f"phase 4 ok: poison point quarantined after exactly 2 "
        f"worker deaths ({state.summary()})")
    log("all checks passed")


if __name__ == "__main__":
    main()
