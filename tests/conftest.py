"""Pytest configuration: make test helpers importable, isolate the
persistent cross-process caches per test, and register the hypothesis
profiles."""

import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Hypothesis budgets, for the settings a property test leaves to the
# profile (the engine differential fuzz leaves its example count):
# tier-1 draws a small derandomized sample, so a run is reproducible
# and bounded (the engine fuzz seeds it from a constant instead of its
# source: ``TIER1_FUZZ_SEED``); CI's scheduled ``fuzz`` job passes
# ``--hypothesis-profile=fuzz`` for a long random one whose failures
# are kept in the example database.
settings.register_profile("tier1", max_examples=200, derandomize=True,
                          deadline=None)
settings.register_profile("fuzz", max_examples=500, deadline=None,
                          print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _isolated_repro_cache(tmp_path, monkeypatch):
    """Point REPRO_CACHE_DIR at a fresh directory for every test, so
    the explore result cache's default persistence cannot leak state
    between tests (or into the developer's real cache)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
