"""Tests for the unified lowering pipeline (repro.lowering).

Covers the staged PassManager, the content-addressed artifact cache
(hit/miss behavior, content-keyed sharing), transform composition
(fusion∘canonicalize idempotence), and the contract that every entry
point — Session, engine, CLI — lowers to *the same* artifact.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.lowering import (
    ArtifactCache,
    LoweringConfig,
    PIPELINE_STAGES,
    PassManager,
    analysis_for,
    compiled_stencil,
    content_key,
    default_cache,
    freeze_placement,
    lower,
    program_content_hash,
    reset_default_cache,
)
from repro.programs import build, horizontal_diffusion, laplace2d
from repro.run import Session
from repro.transforms import canonicalize
from util import lst1_inputs, lst1_program


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_default_cache()
    yield
    reset_default_cache()


class TestArtifactCache:
    def test_get_or_build_counts_hits_and_misses(self):
        cache = ArtifactCache()
        key = content_key("analysis", "x")
        assert cache.get_or_build(key, lambda: 41) == 41
        assert cache.get_or_build(key, lambda: 42) == 41
        assert cache.stats("analysis") == (1, 1)
        assert cache.stats() == (1, 1)

    def test_stats_are_per_kind(self):
        cache = ArtifactCache()
        cache.get_or_build(content_key("sdfg", 1), lambda: "a")
        cache.get_or_build(content_key("analysis", 1), lambda: "b")
        cache.get_or_build(content_key("analysis", 1), lambda: "c")
        assert cache.stats_by_kind() == {"sdfg": (0, 1),
                                         "analysis": (1, 1)}

    def test_eviction_is_bounded(self):
        cache = ArtifactCache(max_entries=4)
        for n in range(10):
            cache.get_or_build(content_key("x", n), lambda n=n: n)
        assert len(cache) == 4
        # Oldest entries were evicted; newest survive.
        assert cache.peek(content_key("x", 9)) == 9
        assert cache.peek(content_key("x", 0)) is None

    def test_content_key_is_deterministic(self):
        assert content_key("a", [1, 2], {"k": 3.0}) == \
            content_key("a", [1, 2], {"k": 3.0})
        assert content_key("a", 1) != content_key("b", 1)

    def test_an_empty_private_cache_is_used(self):
        # ArtifactCache defines __len__, so an empty one is falsy: it
        # must still be the cache lowering fills, not the default.
        private = ArtifactCache()
        artifact = lower(lst1_program(), cache=private)
        artifact.analysis
        assert artifact.cache is private
        assert len(private) > 0
        assert len(default_cache()) == 0


class TestContentHash:
    def test_formatting_does_not_change_identity(self):
        # A no-op canonicalization rewrites the code text but not the
        # expression: the content hash must not move.
        program = laplace2d(shape=(8, 8))
        folded = canonicalize(program, fuse=False)
        assert folded.stencils[0].code != program.stencils[0].code
        assert program_content_hash(folded) == \
            program_content_hash(program)

    def test_width_normalized_family_hash(self):
        program = laplace2d(shape=(8, 8))
        wide = program.with_vectorization(4)
        assert program_content_hash(wide) != \
            program_content_hash(program)
        assert program_content_hash(wide, normalize_width=True) == \
            program_content_hash(program, normalize_width=True)

    def test_shape_changes_identity(self):
        assert program_content_hash(laplace2d(shape=(8, 8))) != \
            program_content_hash(laplace2d(shape=(16, 16)))


class TestPassManager:
    def test_stage_order_is_documented(self):
        manager = PassManager()
        names = [p.name for p in manager.passes]
        # Every eager pass appears in the documented stage order.
        positions = [PIPELINE_STAGES.index(n) for n in names
                     if n in PIPELINE_STAGES]
        assert positions == sorted(positions)

    def test_lower_accepts_json_and_path(self, tmp_path):
        program = lst1_program()
        from_obj = lower(program)
        from_json = lower(program.to_json())
        path = tmp_path / "p.json"
        path.write_text(program.to_json_string())
        from_file = lower(path)
        assert from_obj.program_hash == from_json.program_hash \
            == from_file.program_hash

    def test_transforms_apply_in_stage_order(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        artifact = lower(program, LoweringConfig(
            canonicalize=True, fusion=True, vectorization=4))
        expected = canonicalize(program).with_vectorization(4)
        assert program_content_hash(artifact.program) == \
            program_content_hash(expected)

    def test_placement_strategy_and_explicit_agree(self):
        program = lst1_program()
        by_strategy = lower(program, LoweringConfig(
            placement="contiguous", devices=2, network_latency=16))
        explicit = lower(program, LoweringConfig(
            device_of=freeze_placement(by_strategy.device_of),
            network_latency=16))
        assert explicit.device_of == by_strategy.device_of
        assert explicit.edge_latency == by_strategy.edge_latency
        assert explicit.analysis is by_strategy.analysis

    def test_conflicting_placement_config_rejected(self):
        with pytest.raises(ValidationError, match="not both"):
            LoweringConfig(placement="auto", device_of=(("a", 0),))
        with pytest.raises(ValidationError, match="strategy"):
            LoweringConfig(placement="scatter")


class TestPassCacheBehavior:
    def test_repeated_lowering_hits_every_stage(self):
        program = lst1_program()
        first = lower(program)
        _ = first.analysis
        before = default_cache().stats("analysis")
        second = lower(program)
        _ = second.analysis
        after = default_cache().stats("analysis")
        assert second.analysis is first.analysis
        assert after[1] == before[1]  # no new analysis builds
        assert after[0] > before[0]

    def test_mapping_knobs_do_not_invalidate_transforms(self):
        program = lst1_program()
        lower(program, LoweringConfig(canonicalize=True, fusion=True))
        hits0, misses0 = default_cache().stats("canonicalize")
        # Different network latency, same transforms: the transform
        # stages must be served from cache.
        lower(program, LoweringConfig(canonicalize=True, fusion=True,
                                      placement="contiguous",
                                      devices=2, network_latency=99))
        hits1, misses1 = default_cache().stats("canonicalize")
        assert misses1 == misses0
        assert hits1 == hits0 + 1

    def test_single_device_latency_value_shares_artifacts(self):
        # Latency only matters when something spans devices.
        program = lst1_program()
        a = lower(program, LoweringConfig(network_latency=32))
        b = lower(program, LoweringConfig(network_latency=999))
        assert a.key == b.key
        assert a.analysis is b.analysis

    def test_multi_device_latency_value_separates_artifacts(self):
        program = lst1_program()
        a = lower(program, LoweringConfig(placement="contiguous",
                                          devices=2,
                                          network_latency=16))
        b = lower(program, LoweringConfig(placement="contiguous",
                                          devices=2,
                                          network_latency=64))
        assert a.key != b.key
        assert a.analysis is not b.analysis

    def test_compiled_stencil_shared_across_modes(self):
        program = lst1_program()
        ast = program.stencils[0].ast
        cell_one = compiled_stencil(ast)
        cell_two = compiled_stencil(ast)
        array = compiled_stencil(ast, mode="array")
        assert cell_one is cell_two
        assert array is not cell_one
        assert default_cache().stats("compile") == (1, 2)

    def test_analysis_for_custom_model_bypasses_cache(self):
        from repro.expr.latency import LatencyModel
        program = lst1_program()
        cached = analysis_for(program)
        custom = analysis_for(program,
                              latency_model=LatencyModel())
        assert custom is not cached


class TestTransformComposition:
    """Satellite: fusion∘canonicalize idempotence and friends."""

    def test_canonicalize_idempotent_through_pipeline(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        config = LoweringConfig(canonicalize=True, fusion=True)
        once = lower(program, config)
        twice = lower(once.program, config)
        assert twice.program_hash == once.program_hash
        assert twice.analysis is once.analysis

    def test_fold_idempotent(self):
        program = lst1_program()
        once = lower(program, LoweringConfig(canonicalize=True))
        twice = lower(once.program, LoweringConfig(canonicalize=True))
        assert twice.program_hash == once.program_hash

    def test_noop_transforms_share_lowered_artifacts(self):
        # laplace2d has nothing to fold and nothing to fuse: all four
        # transform-flag combinations must collapse onto one lowered
        # artifact (and therefore one analysis).
        program = laplace2d(shape=(8, 8))
        artifacts = [
            lower(program, LoweringConfig(canonicalize=cz, fusion=fu))
            for cz in (False, True) for fu in (False, True)]
        hashes = {a.program_hash for a in artifacts}
        assert len(hashes) == 1
        analyses = {id(a.analysis) for a in artifacts}
        assert len(analyses) == 1

    def test_transformed_run_still_validates(self):
        program = lst1_program()
        artifact = lower(program, LoweringConfig(canonicalize=True,
                                                 fusion=True))
        session = Session(artifact.program)
        assert session.run(lst1_inputs()).validated


class TestEntryPointEquality:
    """Satellite: Session and CLI lower to identical artifacts."""

    def test_session_and_cli_share_the_artifact(self):
        program = lst1_program()
        session = Session(program)
        session_analysis = session.analysis
        # What ``repro analyze`` does:
        cli_artifact = lower(program)
        assert cli_artifact.key == session.lowered().key
        assert cli_artifact.analysis is session_analysis
        # What ``repro run`` / engine.simulate does:
        from repro.simulator.engine import build_simulator
        simulator = build_simulator(program)
        assert simulator.analysis is session_analysis

    def test_session_canonicalize_matches_pipeline_config(self):
        program = horizontal_diffusion(shape=(16, 16, 8))
        session = Session(program, canonicalize=True)
        direct = lower(program, LoweringConfig(canonicalize=True,
                                               fusion=True))
        assert session.lowered().program_hash == direct.program_hash

    def test_session_run_results_identical_through_pipeline(self):
        program = lst1_program()
        inputs = lst1_inputs()
        via_session = Session(program).run(inputs)
        from repro.simulator import simulate
        via_engine = simulate(program, inputs)
        assert via_session.simulation.cycles == via_engine.cycles
        for name, data in via_session.outputs.items():
            np.testing.assert_array_equal(data,
                                          via_engine.outputs[name])

    def test_sdfg_artifact_cached(self):
        program = lst1_program()
        artifact = lower(program)
        assert artifact.sdfg() is artifact.sdfg()
        session = Session(program)
        assert session.sdfg() is artifact.sdfg()


class TestSessionMappingKnobs:
    def test_session_rejects_placement_in_lowering_config(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError, match="placement"):
            Session(lst1_program(), lowering=LoweringConfig(
                placement="contiguous", devices=2))
        with pytest.raises(ValidationError, match="placement"):
            Session(lst1_program(), lowering=LoweringConfig(
                device_of=(("b0", 0),)))

    def test_family_hash_is_lazy_and_consistent(self):
        program = lst1_program()
        plain = lower(program)
        wide = lower(program, LoweringConfig(vectorization=4))
        assert plain.family_hash == plain.program_hash
        assert wide.family_hash != wide.program_hash
        assert wide.family_hash == plain.family_hash
