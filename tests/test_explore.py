"""Tests for the design-space exploration subsystem."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DefinitionError
from repro.explore import (
    ConfigPoint,
    ConfigSpace,
    ExhaustiveSearch,
    ExplorationReport,
    GreedySearch,
    Pruner,
    ResultCache,
    baseline_point,
    explore,
    get_strategy,
    program_fingerprint,
)
from repro.programs import build, chain, horizontal_diffusion, laplace2d
from repro.run import Session


def small_chain():
    return chain(4, shape=(8, 8, 8))


class TestConfigSpace:
    def test_product_size_and_determinism(self):
        space = ConfigSpace(vectorizations=(1, 2),
                            device_counts=(1, 2),
                            partitions=("contiguous", "auto"))
        assert space.size == 8
        assert space.points() == space.points()
        assert len(set(space.points())) == 8

    def test_default_space_tracks_innermost_extent(self):
        space = ConfigSpace.default_for(laplace2d(shape=(24, 24)))
        assert all(w <= 24 for w in space.vectorizations)
        # One stencil: no multi-device axis, no 'auto' strategy.
        assert space.device_counts == (1,)
        assert space.partitions == ("contiguous",)

    def test_default_space_multi_device(self):
        space = ConfigSpace.default_for(small_chain())
        assert space.device_counts == (1, 2, 4)
        assert set(space.partitions) == {"contiguous", "auto"}

    def test_point_validation(self):
        with pytest.raises(DefinitionError, match="partition"):
            ConfigPoint(partition="scatter")
        with pytest.raises(DefinitionError, match="vectorization"):
            ConfigPoint(vectorization=0)

    def test_point_json_round_trip(self):
        point = ConfigPoint(vectorization=4, devices=2,
                            partition="auto",
                            network_words_per_cycle=0.5,
                            network_latency=16, min_channel_depth=12)
        assert ConfigPoint.from_json(point.to_json()) == point

    def test_space_json_round_trip(self):
        space = ConfigSpace.default_for(small_chain())
        assert ConfigSpace.from_json(space.to_json()) == space


class TestPruning:
    def test_nondividing_width_is_pruned(self):
        pruner = Pruner(small_chain())
        verdict = pruner.predict(ConfigPoint(vectorization=3))
        assert not verdict.feasible
        assert "does not divide" in verdict.reason

    def test_network_bound_point_is_pruned(self):
        # W = 8 across a contiguous 2-device cut needs more operands
        # per cycle than the platform's chained links provide.
        pruner = Pruner(chain(6, shape=(16, 8, 8)))
        verdict = pruner.predict(ConfigPoint(vectorization=8,
                                             devices=2))
        assert not verdict.feasible
        assert "network-bound" in verdict.reason

    def test_single_device_prediction_is_eq1(self):
        program = small_chain()
        pruner = Pruner(program)
        verdict = pruner.predict(ConfigPoint(vectorization=2))
        analysis = pruner.lowered_at(2).analysis
        assert verdict.feasible
        assert verdict.predicted_cycles == \
            analysis.pipeline_latency + program.num_cells // 2

    def test_auto_placement_uses_fewer_devices_when_it_fits(self):
        pruner = Pruner(small_chain())
        verdict = pruner.predict(ConfigPoint(devices=4,
                                             partition="auto"))
        assert verdict.feasible
        assert verdict.devices_used == 1
        assert verdict.device_of is None

    def test_duplicate_machines_share_simulation_key(self):
        pruner = Pruner(small_chain())
        auto = pruner.predict(ConfigPoint(devices=4, partition="auto"))
        single = pruner.predict(ConfigPoint())
        assert auto.simulation_key == single.simulation_key

    def test_network_latency_prices_delay_buffers(self):
        # Cut edges on a reconvergent program stretch the delay
        # buffers that re-balance the parallel paths; those FIFOs cost
        # real M20K on the device holding them, so an absurd wire
        # latency must overflow the device — not pass silently.
        pruner = Pruner(horizontal_diffusion(shape=(16, 16, 8)))
        verdict = pruner.predict(
            ConfigPoint(devices=2, network_latency=2_000_000))
        assert not verdict.feasible
        assert "overflows" in verdict.reason


class TestStrategies:
    def _predictions(self):
        pruner = Pruner(small_chain())
        space = ConfigSpace(vectorizations=(1, 2, 3, 4, 8))
        return [pruner.predict(p) for p in space.points()]

    def test_exhaustive_selects_all_feasible(self):
        predictions = self._predictions()
        selected = ExhaustiveSearch().select(predictions)
        feasible = [p.point for p in predictions if p.feasible]
        assert sorted(p.key() for p in selected) == \
            sorted(p.key() for p in feasible)

    def test_greedy_respects_beam_and_keeps_baseline(self):
        predictions = self._predictions()
        base = ConfigPoint(vectorization=1)
        selected = GreedySearch(beam_width=2).select(predictions,
                                                     baseline=base)
        assert len(selected) == 3  # beam of 2 + the baseline
        assert base in selected
        # The beam holds the best predictions: the largest widths.
        widths = {p.vectorization for p in selected}
        assert widths == {8, 4, 1}

    def test_strategy_registry(self):
        assert get_strategy("exhaustive").name == "exhaustive"
        assert get_strategy("beam", beam_width=3).beam_width == 3
        with pytest.raises(DefinitionError, match="unknown search"):
            get_strategy("annealing")


class TestExplorer:
    def test_deterministic_ranked_report(self):
        program = small_chain()
        one = explore(program, strategy="exhaustive", seed=3)
        two = explore(program, strategy="exhaustive", seed=3)
        assert one.ranking_signature() == two.ranking_signature()
        assert one.best.point == two.best.point

    def test_cache_makes_repeat_sweeps_incremental(self):
        program = small_chain()
        cache = ResultCache()
        first = explore(program, cache=cache)
        assert first.cache_hits == 0
        assert len(cache) > 0
        second = explore(program, cache=cache)
        assert second.cache_hits == len(cache)
        assert all(e.cache_hit for e in second.entries if e.simulated)
        assert second.ranking_signature() == first.ranking_signature()

    def test_cache_distinguishes_programs(self):
        a = program_fingerprint(small_chain())
        b = program_fingerprint(chain(4, shape=(8, 8, 16)))
        # Vectorization is a configuration axis, not program identity.
        w = program_fingerprint(
            small_chain().with_vectorization(4))
        assert a != b
        assert a == w

    def test_cache_json_round_trip(self, tmp_path):
        cache = ResultCache()
        explore(small_chain(), cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = ResultCache.load(path)
        assert len(loaded) == len(cache)
        report = explore(small_chain(), cache=loaded)
        assert report.cache_hits == len(loaded)

    def test_report_json_round_trip(self, tmp_path):
        report = explore(small_chain(), strategy="exhaustive")
        assert ExplorationReport.from_json(report.to_json()) == report
        path = tmp_path / "report.json"
        report.save(path)
        assert ExplorationReport.load(path) == report

    @pytest.mark.parametrize("program", [
        laplace2d(shape=(16, 16)),
        build("vadv", shape=(8, 8, 8)),
    ], ids=["laplace2d", "vertical_advection"])
    def test_model_error_bounds(self, program):
        report = explore(program, strategy="exhaustive")
        assert report.simulated_points > 0
        assert report.worst_model_error is not None
        assert report.worst_model_error <= 0.05

    def test_fractional_rate_model_error(self):
        space = ConfigSpace(vectorizations=(1, 2),
                            device_counts=(2,),
                            network_rates=(0.5,),
                            network_latencies=(16,))
        report = explore(small_chain(), space=space,
                         strategy="exhaustive")
        multi = [e for e in report.entries
                 if e.simulated and e.devices_used == 2]
        assert multi
        assert all(abs(e.model_error) <= 0.25 for e in multi)

    def test_network_rates_sweep_runs_batched(self):
        # The explorer's network_rates axis is exactly the
        # configuration class the super-pattern planner accelerates:
        # every fractional point must validate on the batched engine
        # (no scalar fallback), including irreducible p/q rates.
        space = ConfigSpace(vectorizations=(1,),
                            device_counts=(2,),
                            network_rates=(1.0, 0.5, 1.0 / 3.0,
                                           3.0 / 7.0),
                            network_latencies=(16,))
        report = explore(small_chain(), space=space,
                         strategy="exhaustive")
        fractional = [e for e in report.entries
                      if e.simulated
                      and e.point.network_words_per_cycle < 1.0]
        assert len(fractional) == 3
        assert all(e.engine == "batched" for e in fractional)
        # Slower links cost cycles, monotonically.
        by_rate = sorted(fractional,
                         key=lambda e: e.point.network_words_per_cycle)
        cycles = [e.simulated_cycles for e in by_rate]
        assert cycles == sorted(cycles, reverse=True)

    @pytest.mark.parametrize("program", [
        horizontal_diffusion(shape=(16, 16, 8)),
        build("swe", shape=(16, 16)),
    ], ids=["hdiff", "shallow_water"])
    def test_best_no_slower_than_cli_defaults(self, program):
        report = explore(program)
        base = report.baseline_entry
        assert base is not None and base.simulated
        assert report.best.simulated_cycles <= base.simulated_cycles
        assert report.speedup_over_baseline >= 1.0

    def test_hdiff_space_prunes_half_analytically(self):
        report = explore(horizontal_diffusion(shape=(16, 16, 8)))
        assert report.total_points >= 24
        assert report.prune_fraction >= 0.5

    def test_pareto_contains_best(self):
        report = explore(small_chain(), strategy="exhaustive")
        frontier = report.pareto_frontier
        assert report.best in frontier
        # Frontier entries are mutually non-dominated.
        for entry in frontier:
            for other in frontier:
                if entry is other:
                    continue
                assert not (
                    other.simulated_cycles <= entry.simulated_cycles
                    and other.utilization <= entry.utilization
                    and (other.simulated_cycles < entry.simulated_cycles
                         or other.utilization < entry.utilization))

    def test_explicit_inputs_are_honoured(self):
        program = laplace2d(shape=(8, 8))
        inputs = {"a": np.ones((8, 8), dtype=np.float32)}
        report = explore(program, inputs=inputs,
                         space=ConfigSpace(vectorizations=(1, 2)))
        assert report.simulated_points == 2

    def test_session_explore_reuses_cache(self):
        session = Session(small_chain())
        first = session.explore()
        second = session.explore()
        assert first.cache_hits == 0
        assert second.cache_hits > 0
        assert second.ranking_signature() == first.ranking_signature()


class TestTransformAxes:
    """Fusion/canonicalize as first-class ConfigSpace axes."""

    def test_point_transform_flags_round_trip(self):
        point = ConfigPoint(vectorization=2, canonicalize=True,
                            fusion=True,
                            link_rates=(("s0:s1", 0.5),))
        assert ConfigPoint.from_json(point.to_json()) == point
        assert "cz" in point.label() and "fu" in point.label()

    def test_space_transform_axes_enumerate(self):
        space = ConfigSpace(vectorizations=(1,),
                            canonicalizations=(False, True),
                            fusions=(False, True))
        assert space.size == 4
        flags = {(p.canonicalize, p.fusion) for p in space.points()}
        assert len(flags) == 4

    def test_fusion_axis_changes_the_simulated_machine(self):
        from repro.programs import horizontal_diffusion
        program = horizontal_diffusion(shape=(16, 16, 8))
        space = ConfigSpace(vectorizations=(1,),
                            fusions=(False, True))
        report = explore(program, space=space, strategy="exhaustive")
        fused = [e for e in report.entries
                 if e.simulated and e.point.fusion]
        plain = [e for e in report.entries
                 if e.simulated and not e.point.fusion]
        assert fused and plain
        # Fusion rebuilds the machine: a genuinely different design
        # with its own measured cycle count, not a cache alias.
        assert fused[0].simulated_cycles != plain[0].simulated_cycles
        assert not fused[0].cache_hit

    def test_noop_transform_axis_does_not_duplicate_work(self):
        # laplace2d has nothing to fold: the canonicalize axis doubles
        # the point count but must not double analyses or simulations.
        from repro.lowering import reset_default_cache
        reset_default_cache()
        program = laplace2d(shape=(16, 16))
        space = ConfigSpace(vectorizations=(1, 2),
                            canonicalizations=(False, True))
        cache = ResultCache()
        report = explore(program, space=space, strategy="exhaustive",
                         cache=cache, persist=False)
        simulated = [e for e in report.entries if e.simulated]
        assert len(simulated) == 4
        # Two distinct machines (W=1, W=2): the canonicalized twins
        # collapse onto their plain siblings before any simulation —
        # only two measurements exist, and only two programs (the two
        # widths) were ever analyzed.
        assert len(cache) == 2
        assert report.relowered_programs == 2

    def test_repeated_sweep_relowers_nothing(self):
        # The acceptance criterion: a repeated identical sweep reports
        # zero re-lowered programs and all-hit measurements.
        from repro.lowering import reset_default_cache
        reset_default_cache()
        program = small_chain()
        space = ConfigSpace(vectorizations=(1, 2),
                            fusions=(False, True))
        cache = ResultCache()
        first = explore(program, space=space, cache=cache,
                        persist=False)
        assert first.relowered_programs > 0
        second = explore(program, space=space, cache=cache,
                         persist=False)
        assert second.relowered_programs == 0
        assert second.lowering_cache_hits > 0
        assert all(e.cache_hit for e in second.entries if e.simulated)
        assert second.ranking_signature() == first.ranking_signature()


class TestLinkRateAxis:
    def test_link_rate_override_slows_only_named_edge(self):
        program = small_chain()
        space = ConfigSpace(vectorizations=(1,), device_counts=(2,),
                            network_latencies=(16,),
                            link_rate_sets=((), (("s1:s2", 0.5),)))
        report = explore(program, space=space, strategy="exhaustive")
        plain = [e for e in report.entries
                 if e.simulated and not e.point.link_rates]
        throttled = [e for e in report.entries
                     if e.simulated and e.point.link_rates]
        assert plain and throttled
        assert throttled[0].simulated_cycles > plain[0].simulated_cycles

    def test_unmatched_override_is_pruned_with_reason(self):
        pruner = Pruner(small_chain())
        verdict = pruner.predict(ConfigPoint(
            devices=2, link_rates=(("nope:s1", 0.5),)))
        assert not verdict.feasible
        assert "matches no edge" in verdict.reason


class TestPersistentResultCache:
    def test_sweep_persists_and_reloads_across_cache_instances(self):
        # Two explore calls with no shared ResultCache object: the
        # second must hit through the on-disk default path (pointed at
        # a per-test directory by the conftest fixture).
        program = laplace2d(shape=(16, 16))
        space = ConfigSpace(vectorizations=(1, 2))
        first = explore(program, space=space, strategy="exhaustive")
        assert first.cache_hits == 0
        assert ResultCache.default_path().exists()
        second = explore(program, space=space, strategy="exhaustive")
        assert second.cache_hits == second.simulated_points > 0
        assert second.ranking_signature() == first.ranking_signature()

    def test_opt_out_leaves_disk_untouched(self):
        program = laplace2d(shape=(16, 16))
        space = ConfigSpace(vectorizations=(1,))
        explore(program, space=space, strategy="exhaustive",
                persist=False)
        assert not ResultCache.default_path().exists()

    def test_merge_prefers_existing_entries(self):
        from repro.explore import Measurement
        a = ResultCache()
        b = ResultCache()
        mine = Measurement(1, 1, 0.1, "batched")
        theirs = Measurement(2, 2, 0.2, "scalar")
        a.put("f", ("k",), mine)
        b.put("f", ("k",), theirs)
        b.put("f", ("other",), theirs)
        assert a.merge(b) == 1
        assert a.get("f", ("k",)) == mine
        assert len(a) == 2

    def test_persisted_entries_are_engine_specific(self):
        # A sweep persisted under one engine must not serve its
        # measurements (whose engine/wall-time metadata differ) to a
        # sweep under another engine.
        program = laplace2d(shape=(12, 12))
        space = ConfigSpace(vectorizations=(1,))
        explore(program, space=space, strategy="exhaustive",
                engine_mode="scalar")
        report = explore(program, space=space, strategy="exhaustive",
                         engine_mode="batched")
        assert report.cache_hits == 0
        simulated = [e for e in report.entries if e.simulated]
        assert simulated and all(e.engine == "batched"
                                 for e in simulated)

    def test_corrupt_persistent_cache_is_ignored(self, tmp_path):
        path = ResultCache.default_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"key": null}')
        cache = ResultCache()
        assert cache.load_persistent() == 0
        program = laplace2d(shape=(12, 12))
        report = explore(program,
                         space=ConfigSpace(vectorizations=(1,)),
                         strategy="exhaustive")
        assert report.simulated_points > 0


    @pytest.fixture
    def cache_writes(self, monkeypatch):
        """Paths ``write_json_atomic`` was asked to (re)write."""
        from repro.faults import store
        written = []
        real = store.write_json_atomic

        def counting(path, *args, **kwargs):
            written.append(Path(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(store, "write_json_atomic", counting)
        return written

    def test_save_that_changes_nothing_writes_nothing(self, tmp_path,
                                                      cache_writes):
        from repro.explore import Measurement
        path = tmp_path / "cache.json"
        cache = ResultCache()
        cache.put("f", ("k",), Measurement(1, 1, 0.1, "batched"))
        assert cache.save_persistent(path)
        assert cache_writes == [path]           # a fresh measurement
        assert cache.save_persistent(path)
        reloaded = ResultCache()
        assert reloaded.load_persistent(path) == 1
        assert reloaded.save_persistent(path)
        assert cache_writes == [path]           # nothing new: no write
        cache.put("f", ("other",), Measurement(2, 2, 0.2, "batched"))
        assert cache.save_persistent(path)
        assert cache_writes == [path] * 2       # a fresh measurement
        path.unlink()
        assert reloaded.save_persistent(path)
        assert cache_writes == [path] * 3       # a missing file
        assert ResultCache().save_persistent(tmp_path / "empty.json")
        assert (tmp_path / "empty.json").exists()
        path.write_text("not json")
        assert reloaded.save_persistent(path)
        assert cache_writes.count(path) == 4    # a quarantined file
        assert ResultCache.load(path).to_json() == reloaded.to_json()

    def test_noop_resweep_leaves_the_cache_file_alone(self,
                                                      cache_writes):
        program = laplace2d(shape=(16, 16))
        space = ConfigSpace(vectorizations=(1, 2))
        path = ResultCache.default_path()
        explore(program, space=space, strategy="exhaustive")
        assert cache_writes.count(path) == 1
        before = path.stat().st_mtime_ns
        again = explore(program, space=space, strategy="exhaustive")
        assert again.cache_hits == again.simulated_points > 0
        assert cache_writes.count(path) == 1
        assert path.stat().st_mtime_ns == before
        # The report is legitimately rewritten: its wall time and
        # cache-hit provenance differ.
        assert cache_writes.count(again.store_path()) == 2


#: The benchmark's explore_sweep workload: the space whose pricing the
#: tests below pin, by value and by work done.
_SWEEP = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
     / "workloads.json").read_text())["workloads"]["explore_sweep"]


def _sweep_points(shape, axes):
    program = build(_SWEEP["program"], shape=tuple(shape),
                    vectorization=_SWEEP["vectorization"])
    space = ConfigSpace(**{axis: tuple(values)
                           for axis, values in axes.items()})
    points = list(space.points())
    if baseline_point(program) not in points:
        points.append(baseline_point(program))
    return program, points


class TestPricingIsUnchanged:
    """Every field of every Prediction over the benchmark's spaces,
    against values pinned from the commit before pricing was
    restructured around program facts and per-machine memoisation
    (``tests/data/explore_sweep_predictions.json``)."""

    PINNED = json.loads(
        (Path(__file__).parent / "data"
         / "explore_sweep_predictions.json").read_text())

    @pytest.mark.parametrize("name,shape,axes", [
        ("sweep", _SWEEP["shape"], _SWEEP["space"]),
        ("quick", _SWEEP["quick"]["shape"], _SWEEP["quick"]["space"]),
        ("network_axis", _SWEEP["shape"],
         _SWEEP["network_axis_space"]),
    ])
    def test_predictions_match_the_pinned_values(self, name, shape,
                                                 axes):
        program, points = _sweep_points(shape, axes)
        pruner = Pruner(program)
        pinned = self.PINNED[name]
        assert len(points) == len(pinned)
        for point, want in zip(points, pinned):
            prediction = pruner.predict(point)
            got = {f.name: getattr(prediction, f.name)
                   for f in dataclasses.fields(prediction)}
            got["point"] = point.to_json()
            # Tuples become lists, as in the pinned file.
            assert json.loads(json.dumps(got)) == want, point.label()


class TestPricingWork:
    """The pricing invariant as counts of work — no clock is read:
    each expression-derived fact is derived once per object it
    describes, and each distinct machine is priced once."""

    @pytest.fixture
    def work(self, monkeypatch):
        import repro.explore.prune as prune
        import repro.expr.cse as cse
        import repro.expr.typecheck as typecheck
        import repro.hardware.resources as resources
        import repro.perf.pipeline as pipeline
        counts = {"infer_type": 0, "census_after_cse": 0,
                  "estimate_resources": 0}
        depth = [0]
        infer_type = typecheck.infer_type

        def counting_infer(node, field_types):
            # infer_type recurses through its module global: only
            # calls from outside count.
            counts["infer_type"] += depth[0] == 0
            depth[0] += 1
            try:
                return infer_type(node, field_types)
            finally:
                depth[0] -= 1

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(typecheck, "infer_type", counting_infer)
        monkeypatch.setattr(cse, "census_after_cse", counted(
            "census_after_cse", cse.census_after_cse))
        estimate = counted("estimate_resources",
                           resources.estimate_resources)
        for module in (resources, prune, pipeline):
            monkeypatch.setattr(module, "estimate_resources", estimate)
        return counts

    def test_facts_once_per_object_and_machines_once(self, work):
        from repro.lowering import reset_default_cache
        reset_default_cache()
        program, points = _sweep_points(_SWEEP["quick"]["shape"],
                                        _SWEEP["space"])
        assert len(points) == 80
        pruner = Pruner(program)
        predictions = [pruner.predict(point) for point in points]

        lowered = {}
        for point in points:
            artifact = pruner.lowered_at(point)
            lowered[artifact.program_hash] = artifact.program
        stencils = {id(stencil) for lowered_program in lowered.values()
                    for stencil in lowered_program.stencils}
        machines = {
            (p.family_hash, p.point.vectorization,
             tuple(sorted(p.device_of.items()))
             if p.devices_used > 1 else (),
             p.point.network_latency if p.devices_used > 1 else 0)
            for p in predictions}
        assert (len(lowered), len(machines)) == (10, 20)

        # A result type depends on the program's inputs as well as the
        # stencil, so it is a fact of each lowered program: one
        # inference per stencil of each.  The post-CSE census depends
        # on the expression alone, and the widths of a family share
        # their stencil objects.
        assert 0 < work["infer_type"] <= sum(
            len(lowered_program.stencils)
            for lowered_program in lowered.values())
        assert 0 < work["census_after_cse"] <= len(stencils)
        assert 0 < work["estimate_resources"] <= len(machines)

        # A second sweep in the same process (a resweep) derives
        # nothing again: the lowered programs come back out of the
        # artifact cache carrying their facts.
        for name in work:
            work[name] = 0
        again = Pruner(program)
        assert [again.predict(point) for point in points] == predictions
        assert work["infer_type"] == work["census_after_cse"] == 0
        assert work["estimate_resources"] <= len(machines)

    def test_cold_sweep_prints_each_expression_once(self, monkeypatch):
        """The canonical text of an expression keys two caches (the
        program's content hash, the simulator-compile stage): one cold
        80-point sweep with its 15 simulations prints each distinct
        stencil AST at most once for them (454 calls before the compile
        stage took ``StencilDefinition.canonical_code``).  What the
        rewriting transforms print into a new definition's ``code`` is
        their own output and is not counted."""
        import repro.core.program as core_program
        import repro.expr.ast_nodes as ast_nodes
        from repro.lowering import reset_default_cache
        from util import random_inputs
        calls = [0]
        unparse = ast_nodes.unparse

        def counting_unparse(node):
            calls[0] += 1
            return unparse(node)

        for module in (core_program, ast_nodes):
            monkeypatch.setattr(module, "unparse", counting_unparse)
        program = build(_SWEEP["program"],
                        shape=tuple(_SWEEP["quick"]["shape"]),
                        vectorization=_SWEEP["vectorization"])
        space = ConfigSpace(**{axis: tuple(values) for axis, values
                               in _SWEEP["space"].items()})
        reset_default_cache()
        report = explore(program, inputs=random_inputs(program),
                         space=space, strategy="greedy", beam_width=8,
                         workers=1, backend="thread")
        assert (report.total_points, report.simulated_points) == (80, 15)
        printed = calls[0]
        pruner = Pruner(program)
        asts = {stencil.ast for point in space.points()
                for stencil in pruner.lowered_at(point).program.stencils}
        assert 0 < printed <= len(asts)


class TestLinkRateModel:
    def test_raising_override_unthrottles_the_prediction(self):
        # An override *above* the global rate un-throttles its edge;
        # with every cut edge overridden to full speed, the model must
        # not apply the global fractional stretch.
        pruner = Pruner(small_chain())
        throttled = pruner.predict(ConfigPoint(
            devices=2, network_words_per_cycle=0.5,
            network_latency=16))
        unthrottled = pruner.predict(ConfigPoint(
            devices=2, network_words_per_cycle=0.5,
            network_latency=16, link_rates=(("s1:s2", 1.0),)))
        full_speed = pruner.predict(ConfigPoint(
            devices=2, network_latency=16))
        assert throttled.feasible and unthrottled.feasible
        assert throttled.predicted_cycles > \
            unthrottled.predicted_cycles
        assert unthrottled.predicted_cycles == \
            full_speed.predicted_cycles

    def test_model_matches_simulation_with_mixed_rates(self):
        space = ConfigSpace(vectorizations=(1,), device_counts=(2,),
                            network_rates=(0.5,),
                            network_latencies=(16,),
                            link_rate_sets=((), (("s1:s2", 1.0),)))
        report = explore(small_chain(), space=space,
                         strategy="exhaustive", persist=False)
        measured = [e for e in report.entries
                    if e.simulated and e.devices_used == 2]
        assert len(measured) == 2
        for entry in measured:
            assert abs(entry.model_error) <= 0.25, entry.point.label()

    def test_input_edge_override_prices_like_the_simulator(self):
        # An input consumed on two devices yields a remote
        # input→stencil link the simulator rate-limits; the model must
        # see an override on it (Eq.1 min over *remote* edges, not
        # just stencil-stencil cut edges).
        from repro.core import StencilProgram
        program = StencilProgram.from_json({
            "name": "shared_input",
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["s0", "s1"],
            "shape": [64],
            "program": {
                "s0": {"code": "a[i] + 1.0",
                       "boundary_condition": "shrink"},
                "s1": {"code": "a[i] * 2.0",
                       "boundary_condition": "shrink"},
            },
        })
        space = ConfigSpace(vectorizations=(1,),
                            network_latencies=(8,),
                            link_rate_sets=((("a:s1", 0.25),),))
        report = explore(program, space=space, strategy="exhaustive",
                         inputs={"a": np.ones(64, dtype=np.float32)},
                         persist=False)
        # Explicit 2-device split: one stencil per device.
        pruner = Pruner(program)
        point = ConfigPoint(devices=2, network_latency=8,
                            link_rates=(("a:s1", 0.25),))
        verdict = pruner.predict(point)
        assert verdict.feasible
        from repro.simulator import SimulatorConfig, simulate
        from repro.simulator.engine import resolve_link_rates
        config = SimulatorConfig(
            network_latency=8,
            network_link_rates=resolve_link_rates(
                program, point.link_rates))
        result = simulate(program,
                          {"a": np.ones(64, dtype=np.float32)},
                          config, device_of=verdict.device_of)
        error = result.cycles / verdict.predicted_cycles - 1.0
        assert abs(error) <= 0.25, (result.cycles,
                                    verdict.predicted_cycles)

    def test_inactive_override_shares_the_machine(self):
        # An override on an edge that stays local (single device) must
        # not split the simulation key: both points are one machine.
        program = laplace2d(shape=(16, 16))
        space = ConfigSpace(
            vectorizations=(1,),
            link_rate_sets=((), (("a:b", 0.5),)))
        cache = ResultCache()
        report = explore(program, space=space, strategy="exhaustive",
                         cache=cache, persist=False)
        simulated = [e for e in report.entries if e.simulated]
        assert len(simulated) == 2
        assert len(cache) == 1
        cycles = {e.simulated_cycles for e in simulated}
        assert len(cycles) == 1
