#!/usr/bin/env python
"""Paired end-to-end benchmark runs of two checkouts.

The protocol a performance claim in this repo rests on
(``/opt/skills/guides/choosing-metrics``, section 8), as one command::

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload run_single --pairs 10 --seed-base 300

Each pair runs ``benchmarks/e2e/bench.py --workload W --seed S
--seconds 20 --trace 0`` once in each checkout with the same seed
(``seed-base + pair``), alternating which side goes first so that box
drift cannot favour one of them.  Both trees are byte-compiled first:
this sandbox sets ``PYTHONDONTWRITEBYTECODE=1``, so an edited module
would otherwise recompile in every benchmark child and read as a
slower ``setup_s``.

Prints, per end-to-end metric of ``BENCHMARK.json``: each side's median
and quartiles, the change in the median, and how many pairs the change
won, lost and tied — a gain may be claimed when it wins nine tenths of
the pairs and the medians differ by more than the parent's own
interquartile range.  ``failed / attempted`` is summed per side.

Imports nothing from ``repro`` and writes nothing but the byte-code
caches and what ``bench.py`` itself leaves in its (ignored) work
directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def bench_once(checkout: Path, workload: str, seed: int, seconds: float,
               env: dict) -> dict:
    """One ``bench.py`` run in ``checkout``: its JSON result line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"bench_pairs: bench.py failed in {checkout} "
                 f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       cwd=checkout, env=env, check=True)
    contract = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for side in order:
            runs[side].append(bench_once(
                sides[side], args.workload, args.seed_base + pair,
                args.seconds, env))
        before, after = (runs[side][-1]["metrics"] for side in sides)
        print(f"pair {pair} (seed {args.seed_base + pair}, "
              f"{order[0]} first): " + "  ".join(
                  f"{m['name']} {before[m['name']]['value']:g}"
                  f" -> {after[m['name']]['value']:g}"
                  for m in contract["end_to_end"]), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds "
          f"{args.seed_base}..{args.seed_base + args.pairs - 1}")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in sides}
        gains = [sign * (c - p)
                 for p, c in zip(values["parent"], values["change"])]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (
            quartiles(values["parent"]), quartiles(values["change"]))
        delta = f"{cmed / pmed - 1.0:+.1%}" if pmed else "n/a"
        print(f"  {name:12} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
              f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] {metric['unit']}  "
              f"{delta}  change wins {sum(g > 0 for g in gains)}, "
              f"loses {sum(g < 0 for g in gains)}, "
              f"ties {sum(g == 0 for g in gains)}  "
              f"(parent IQR {pq3 - pq1:.4g})")
    for side in sides:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        print(f"  {side}: failed {failed} / attempted {attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
