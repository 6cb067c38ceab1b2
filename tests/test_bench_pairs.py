"""The per-metric verdict of ``scripts/bench_pairs.py``."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
from bench_pairs import verdict  # noqa: E402

PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


@pytest.mark.parametrize("change, better, expected", [
    ([80, 81, 79, 82, 80, 78, 81, 80, 79, 80], "lower", "claim holds"),
    ([120, 122, 118, 121, 119, 120, 123, 117, 120, 121], "higher",
     "claim holds"),
    ([101, 103, 99, 100, 100, 101, 102, 98, 100, 102], "lower", "no worse"),
    ([140, 141, 139, 142, 140, 138, 141, 140, 139, 140], "lower", "worse"),
    ([60, 140, 70, 130, 100, 101, 160, 50, 100, 99], "lower", "unresolved"),
    # 8 of 10 pairs won: no claim, but no worse either.
    ([90, 90, 90, 90, 90, 90, 90, 90, 110, 110], "lower", "no worse"),
])
def test_verdict(change, better, expected):
    assert verdict(PARENT, change, better, 0.25) == expected


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [100, 300, 110, 290, 105]
    assert verdict(parent, [99, 98, 97, 96, 95], "lower", 0.05) \
        == "no worse"
    assert verdict(parent, [99, 98, 97, 96, 101], "lower", 0.05) \
        == "unresolved"
