"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from util import lst1_spec


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(lst1_spec(shape=(8, 8, 8))))
    return path


class TestCLI:
    def test_info(self, program_file, capsys):
        assert main(["info", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "5 stencils" in out
        assert "arithmetic intensity" in out

    def test_analyze(self, program_file, capsys):
        assert main(["analyze", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "pipeline latency" in out
        assert "deadlock-free" in out
        assert "b3.b1" in out

    def test_codegen(self, program_file, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        assert main(["codegen", str(program_file), "-o",
                     str(out_dir)]) == 0
        assert (out_dir / "lst1_device0.cl").exists()
        assert (out_dir / "host.cpp").exists()
        assert (out_dir / "reference.c").exists()

    def test_run_validates(self, program_file, capsys):
        assert main(["run", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "engine: batched" in out
        assert "validated against reference: True" in out

    def test_run_scalar_engine(self, program_file, capsys):
        assert main(["run", str(program_file), "--engine",
                     "scalar"]) == 0
        assert "engine: scalar" in capsys.readouterr().out

    def test_run_shape_override(self, program_file, capsys):
        assert main(["run", str(program_file), "--shape",
                     "4,8,8"]) == 0
        assert "validated against reference: True" in \
            capsys.readouterr().out

    def test_run_multi_device_fractional_rate(self, program_file,
                                              capsys):
        # Fractional link rates are drivable from the CLI and still
        # run on the batched engine.
        assert main(["run", str(program_file), "--devices", "2",
                     "--network-words-per-cycle", "0.5",
                     "--network-latency", "16"]) == 0
        out = capsys.readouterr().out
        assert "engine: batched (2 devices, contiguous placement, " \
               "link rate 0.5" in out
        assert "validated against reference: True" in out

    def test_run_rejects_bad_shape(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", str(program_file), "--shape", "4x8x8"])

    def test_run_partition_auto(self, program_file, capsys):
        assert main(["run", str(program_file), "--devices", "2",
                     "--partition", "auto"]) == 0
        out = capsys.readouterr().out
        assert "auto placement" in out
        assert "validated against reference: True" in out

    def test_run_catalog_name(self, capsys):
        assert main(["run", "laplace2d", "--shape", "12,12"]) == 0
        assert "validated against reference: True" in \
            capsys.readouterr().out

    def test_run_catalog_alias(self, capsys):
        assert main(["run", "swe", "--shape", "10,10"]) == 0
        assert "validated against reference: True" in \
            capsys.readouterr().out

    def test_unknown_program_suggests_close_match(self, capsys):
        assert main(["info", "laplce2d"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "Traceback" not in err

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["info", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "could not read program" in err
        assert "Traceback" not in err


class TestListPrograms:
    def test_lists_catalog_with_aliases(self, capsys):
        assert main(["list-programs"]) == 0
        out = capsys.readouterr().out
        assert "horizontal_diffusion" in out
        assert "hdiff" in out
        assert "vertical_advection" in out
        assert "shallow_water" in out


class TestExploreCommand:
    def test_explore_writes_ranked_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["explore", "--program", "laplace2d",
                     "--shape", "16,16", "--widths", "1,2,4",
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "explored laplace2d" in out
        assert f"wrote {report_path}" in out
        report = json.loads(report_path.read_text())
        assert report["program"] == "laplace2d"
        summary = report["summary"]
        assert summary["total_points"] == 3
        assert summary["simulated_points"] >= 1
        assert summary["best"]["simulated_cycles"] > 0
        ranks = [e["rank"] for e in report["entries"]
                 if e["rank"] is not None]
        assert sorted(ranks) == list(range(1, len(ranks) + 1))

    def test_explore_cache_file_makes_second_sweep_incremental(
            self, tmp_path, capsys):
        cache_path = tmp_path / "cache.json"
        report_path = tmp_path / "report.json"
        argv = ["explore", "--program", "laplace2d", "--shape",
                "16,16", "--widths", "1,2", "--cache",
                str(cache_path), "--output", str(report_path)]
        assert main(argv) == 0
        assert cache_path.exists()
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache hits" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["cache_hits"] >= 1

    def test_explore_accepts_program_file(self, program_file,
                                          tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["explore", "--program", str(program_file),
                     "--widths", "1,2", "--output",
                     str(report_path)]) == 0
        assert json.loads(report_path.read_text())["program"] == "lst1"

    def test_explore_process_backend(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["explore", "--program", "laplace2d",
                     "--shape", "16,16", "--widths", "1,2",
                     "--backend", "process", "--workers", "2",
                     "--output", str(report_path)]) == 0
        assert "explored laplace2d" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["summary"]["simulated_points"] == 2
        assert report["summary"]["failed_points"] == 0

    def test_explore_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["explore", "--program", "laplace2d",
                  "--backend", "smoke-signals"])
        assert "invalid choice" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_on_empty_root(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"cache root: {tmp_path}" in out
        assert "explore result cache: absent" in out
        assert "service run dirs: 0" in out
        assert "quarantined files: 0" in out

    def test_stats_after_sweep_counts_entries(self, tmp_path,
                                              capsys):
        # conftest points REPRO_CACHE_DIR at a per-test directory, so
        # a default (persistent) sweep populates exactly that root.
        import os
        root = os.environ["REPRO_CACHE_DIR"]
        assert main(["explore", "--program", "laplace2d", "--shape",
                     "16,16", "--widths", "1,2", "--output",
                     str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert f"cache root: {root}" in out
        assert "explore result cache: explore_cache.json " \
               "(2 entries" in out

    def test_prune_removes_quarantine_and_dead_run_dirs(
            self, tmp_path, capsys):
        from repro.service.journal import JOURNAL_NAME, new_run_dir
        (tmp_path / "explore_cache.json.corrupt-123").write_text("x")
        run_dir = new_run_dir(tmp_path / "service")
        (run_dir / JOURNAL_NAME).write_text("")
        (run_dir / "worker-1.pid").write_text("999999999")  # dead pid
        assert main(["cache", "prune", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "pruned 2 path(s)" in capsys.readouterr().out
        assert not run_dir.exists()
        assert not any(".corrupt-" in p.name
                       for p in tmp_path.iterdir())

    def test_prune_keeps_live_run_dirs(self, tmp_path, capsys):
        import os
        from repro.service.journal import JOURNAL_NAME, new_run_dir
        run_dir = new_run_dir(tmp_path / "service")
        (run_dir / JOURNAL_NAME).write_text("")
        (run_dir / "worker-1.pid").write_text(str(os.getpid()))
        assert main(["cache", "prune", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "kept" in capsys.readouterr().out
        assert run_dir.exists()

    def test_prune_all_removes_the_cache_itself(self, tmp_path,
                                                capsys):
        cache_file = tmp_path / "explore_cache.json"
        cache_file.write_text("{}")
        assert main(["cache", "prune", "--all", "--cache-dir",
                     str(tmp_path)]) == 0
        assert not cache_file.exists()

    def test_stats_lists_serve_artifacts(self, tmp_path, capsys):
        """A persisted sweep feeds the report store; a server run
        leaves the frontier-index snapshot and query log — ``cache
        stats`` surfaces all three."""
        from repro.serve import FrontierIndex, QueryLog
        assert main(["explore", "--program", "laplace2d", "--shape",
                     "16,16", "--widths", "1", "--output",
                     str(tmp_path / "r.json")]) == 0
        index, _ = FrontierIndex.warm_load()
        index.save_snapshot()
        QueryLog().record("best", "hit", query="laplace2d@16x16")
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "report store: 1 report(s)" in out
        assert "serve frontier index: frontier_index.json " \
               "(1 front(s)" in out
        assert "serve query log: query_log.jsonl (1 queries" in out

    def test_prune_cleans_serve_artifacts_keeps_reports(
            self, tmp_path, capsys):
        from repro.explore import iter_stored_reports
        from repro.serve import (
            FrontierIndex,
            QueryLog,
            query_log_path,
            snapshot_path,
        )
        assert main(["explore", "--program", "laplace2d", "--shape",
                     "16,16", "--widths", "1", "--output",
                     str(tmp_path / "r.json")]) == 0
        index, _ = FrontierIndex.warm_load()
        index.save_snapshot()
        QueryLog().record("best", "hit")
        assert main(["cache", "prune"]) == 0
        # Derived serve state goes; the report store survives plain
        # prune and goes with --all.
        assert not snapshot_path().exists()
        assert not query_log_path().exists()
        assert len(list(iter_stored_reports())) == 1
        assert main(["cache", "prune", "--all"]) == 0
        assert list(iter_stored_reports()) == []

    def test_every_file_under_the_root_is_one_kind(self, tmp_path,
                                                   capsys):
        """Every writer lands in one store kind (or quarantine):
        ``cache stats`` prints each kind once, ``prune`` removes
        exactly the derived kinds, ``prune --all`` everything."""
        import os
        import time
        import urllib.request
        from pathlib import Path

        from repro import api
        from repro.explore import ConfigSpace
        from repro.faults import store
        from repro.obs import metrics, spans
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import Tracer
        from repro.serve import ReproServer, ServeConfig
        from repro.service import ServiceConfig

        root = Path(os.environ["REPRO_CACHE_DIR"])
        space = ConfigSpace(vectorizations=(1,))
        old_registry = metrics.set_registry(MetricsRegistry())
        old_tracer = spans.set_tracer(Tracer())
        try:
            # A persisted thread sweep, with --metrics (telemetry copy).
            assert main(["explore", "--program", "laplace2d", "--shape",
                         "12,12", "--widths", "1", "--metrics",
                         str(tmp_path / "m.json"), "--output",
                         str(tmp_path / "r.json")]) == 0
            # A process-backend sweep that keeps its run dir.
            api.explore("laplace2d", shape=(16, 16), space=space,
                        strategy="exhaustive", backend="process",
                        service=ServiceConfig(workers=1,
                                              keep_run_dir=True))
            # A kernel-engine run.
            api.run("laplace2d", shape=(10, 10), engine_mode="kernel")
            # A server start, one miss, one query-log line.
            server = ReproServer(ServeConfig(
                port=0, backend="thread", max_devices=1, beam_width=1,
                explore_kwargs={"space": space,
                                "strategy": "exhaustive"})).start()
            try:
                with urllib.request.urlopen(
                        server.url + "/v1/best?program=laplace2d"
                        "&shape=8,8", timeout=30) as response:
                    assert response.status == 202
                    job = json.loads(response.read())["job"]["job_id"]
                for _ in range(600):
                    if server.jobs.get(job).state in ("done", "failed"):
                        break
                    time.sleep(0.1)
                assert server.jobs.get(job).state == "done"
            finally:
                server.close()
        finally:
            metrics.set_registry(old_registry)
            spans.set_tracer(old_tracer)
        capsys.readouterr()

        def files(paths):
            return {f for p in paths
                    for f in ([p] if p.is_file() else p.rglob("*"))
                    if f.is_file()}

        owned = {kind: files(kind.members()) for kind in store.KINDS}
        every = files([root])
        for path in every:
            owners = [kind.label for kind, found in owned.items()
                      if path in found]
            if path in set(store.quarantined()):
                owners.append("quarantine")
            assert len(owners) == 1, (path, owners)
        assert all(owned.values()), {k.label: v for k, v in owned.items()}

        assert main(["cache", "stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for kind in store.KINDS:
            (line,) = [text for text in lines
                       if text.startswith(f"  {kind.label}: ")]
            assert "absent" not in line and ": 0 " not in line, line

        assert main(["cache", "prune"]) == 0
        for kind in store.KINDS:
            left = files(kind.members())
            assert left == (set() if kind.derived else owned[kind]), \
                kind.label
        assert main(["cache", "prune", "--all"]) == 0
        assert list(root.iterdir()) == []


class TestLinkRateOverrides:
    def test_run_with_per_link_rate(self, program_file, capsys):
        assert main(["run", str(program_file), "--devices", "2",
                     "--network-latency", "16",
                     "--network-link-rate", "b2:b4=1/2"]) == 0
        out = capsys.readouterr().out
        assert "link-rate overrides: b2->b4:b2=0.5" in out
        assert "validated against reference: True" in out

    def test_run_link_rate_slows_the_named_edge(self, program_file,
                                                capsys):
        argv = ["run", str(program_file), "--devices", "2",
                "--network-latency", "16"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--network-link-rate",
                            "b2:b4=0.25"]) == 0
        throttled = capsys.readouterr().out

        def cycles(text):
            for line in text.splitlines():
                if line.startswith("simulated "):
                    return int(line.split()[1])
            raise AssertionError(text)

        assert cycles(throttled) > cycles(plain)

    def test_run_rejects_bad_link_rate_spec(self, program_file,
                                            capsys):
        assert main(["run", str(program_file), "--devices", "2",
                     "--network-link-rate", "b2=0.5"]) == 2
        assert "link-rate" in capsys.readouterr().err
        assert main(["run", str(program_file), "--devices", "2",
                     "--network-link-rate", "nope:b4=0.5"]) == 2
        assert "matches no edge" in capsys.readouterr().err


class TestExploreAxes:
    def test_explore_transform_axes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["explore", "--program", "hdiff",
                     "--shape", "16,16,8", "--widths", "1",
                     "--strategy", "exhaustive",
                     "--fusion", "both", "--canonicalize", "on",
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "lowering:" in out
        report = json.loads(report_path.read_text())
        assert report["space"]["fusions"] == [False, True]
        assert report["space"]["canonicalizations"] == [True]
        fused = [e for e in report["entries"]
                 if e["point"]["fusion"] and e["simulated"]]
        assert fused

    def test_explore_link_rate_set_axis(self, program_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["explore", "--program", str(program_file),
                     "--widths", "1", "--strategy", "exhaustive",
                     "--link-rate-set", "b2:b4=1/2",
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert [["b2:b4", 0.5]] in report["space"]["link_rate_sets"]

    def test_explore_persists_by_default_and_opt_out(
            self, tmp_path, capsys, monkeypatch):
        from repro.explore import ResultCache
        argv = ["explore", "--program", "laplace2d", "--shape",
                "12,12", "--widths", "1,2", "--output",
                str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert ResultCache.default_path().exists()
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hits" in out
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["cache_hits"] >= 1
        ResultCache.default_path().unlink()
        assert main(argv + ["--no-cache-persist"]) == 0
        assert not ResultCache.default_path().exists()

    def test_run_rejects_nonfinite_link_rate(self, program_file,
                                             capsys):
        for bad in ("nan", "inf", "1/0"):
            assert main(["run", str(program_file), "--devices", "2",
                         "--network-link-rate", f"b2:b4={bad}"]) == 2
            assert "link rate" in capsys.readouterr().err

    def test_explore_accepts_resilience_flags(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["explore", "--program", "laplace2d",
                     "--shape", "12,12", "--widths", "1,2",
                     "--deadlock-window", "512",
                     "--point-timeout", "60",
                     "--checkpoint-every", "1",
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["summary"]["failed_points"] == 0

    def test_explicit_cache_wins_over_persist_opt_out(self, tmp_path):
        cache_path = tmp_path / "mine.json"
        argv = ["explore", "--program", "laplace2d", "--shape",
                "12,12", "--widths", "1", "--cache", str(cache_path),
                "--no-cache-persist", "--output",
                str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert cache_path.exists()
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["cache_hits"] == 0
        assert main(argv) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["cache_hits"] > 0


class TestFaultFlags:
    def test_run_with_unit_stall_reports_faults(self, program_file,
                                                capsys):
        argv = ["run", str(program_file)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--unit-stall", "b2@100:164"]) == 0
        faulted = capsys.readouterr().out
        assert "injected faults:" in faulted
        assert "unit b2: 64 injected stall cycles" in faulted
        assert "validated against reference: True" in faulted

        def cycles(text):
            for line in text.splitlines():
                if line.startswith("simulated "):
                    return int(line.split()[1])
            raise AssertionError(text)

        assert cycles(faulted) > cycles(plain)

    def test_run_with_link_fault(self, program_file, capsys):
        assert main(["run", str(program_file), "--devices", "2",
                     "--network-latency", "16",
                     "--link-fault", "b2:b4@50:150"]) == 0
        out = capsys.readouterr().out
        assert "injected faults:" in out
        assert "100 outage cycles" in out
        assert "validated against reference: True" in out

    def test_run_rejects_bad_fault_specs(self, program_file, capsys):
        assert main(["run", str(program_file),
                     "--unit-stall", "b2"]) == 2
        assert "invalid unit-stall spec" in capsys.readouterr().err
        assert main(["run", str(program_file),
                     "--link-fault", "b2:b4@9:3"]) == 2
        assert "window end must be > start" in capsys.readouterr().err
        assert main(["run", str(program_file),
                     "--unit-stall", "nope@10:20"]) == 2
        assert "names no unit" in capsys.readouterr().err

    def test_run_deadlock_exits_2_with_forensics(self, tmp_path,
                                                 capsys):
        # A fault window longer than the deadlock window wedges the
        # machine unless the detector is fault-aware; shrinking the
        # window while stalling the only stencil forces a true wedge
        # never -- so instead check the flag is accepted and a healthy
        # run still validates under a tight window.
        assert main(["run", "laplace2d", "--shape", "12,12",
                     "--deadlock-window", "64"]) == 0
        assert "validated against reference: True" in \
            capsys.readouterr().out
