"""Tier-1 check of the end-to-end benchmark: deterministic facts only.

Runs ``bench.py run --quick`` (tiny shapes, one round) and asserts names,
correctness and hygiene.  Nothing here asserts on seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (the benchmark's own module, beside this file)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((HERE / "workloads.json").read_text())


def git_status():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-e2e") / "quick.json"
    before = git_status()
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--quick",
         "--seed", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout, before


def test_names_are_the_contract(quick_run):
    summary, stdout, _ = quick_run
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert names == WORKLOADS["order"] == list(summary["workloads"])
    for workload in CONTRACT["workloads"]:
        assert NAME.match(workload["name"])
        assert workload["why"] == \
            WORKLOADS["workloads"][workload["name"]]["why"]
    for metric in CONTRACT["end_to_end"]:
        assert NAME.match(metric["name"])
        assert metric["name"] in stdout
        for name in names:
            row = summary["workloads"][name]["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert row["n"] >= 1 and row["value"] > 0
    sources = (HERE / "layers.py").read_text() \
        + (HERE / "bench.py").read_text()
    for metric in CONTRACT["per_layer"]:
        assert NAME.match(metric["name"])
        assert f'"{metric["name"]}"' in sources, metric["name"]
    assert list(summary)[-1] == "claim" and summary["claim"] is None


def test_every_op_correct(quick_run):
    summary, _, _ = quick_run
    for name, block in summary["workloads"].items():
        assert block["exact"]["fail_ratio"] == 0, block["failures"]
        assert block["attempted"] >= 3, name


@pytest.mark.parametrize("name", ["run_single", "run_links"])
def test_pinned_quick_cycles_match_scalar_oracle(name):
    """The cycle counts the benchmark pins are the scalar engine's."""
    from dataclasses import replace
    from repro.simulator import SimulatorConfig, simulate
    spec = child.load_spec(name, quick=True)
    program, kwargs = child.run_setup(spec)
    inputs = child.make_inputs(program, seed=0)
    config = replace(kwargs.get("config") or SimulatorConfig(),
                     engine_mode="scalar")
    result = simulate(program, inputs, config, kwargs.get("device_of"))
    assert result.cycles == spec["pinned"]["cycles"]
    assert result.expected_cycles == spec["pinned"]["expected_cycles"]


def test_run_leaves_the_tree_alone(quick_run):
    _, _, before = quick_run
    if before is None:
        pytest.skip("not a git checkout")
    assert git_status() == before
    assert not list((ROOT / ".bench_e2e_work").glob("run-*"))
