"""The design-space explorer: model-guided autotuning (Fig. 13 closed
into a loop).

``explore`` enumerates a configuration space, prices every point with
the analytic models (pruning what cannot work or cannot win), validates
the surviving frontier on the batched cycle-level simulator — with
results cached so repeated sweeps are incremental — and returns a
ranked :class:`~repro.explore.report.ExplorationReport`.
"""

from __future__ import annotations

import warnings
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.program import StencilProgram
from ..errors import (
    DeadlockError,
    StencilFlowError,
    SweepInterrupted,
)
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..lowering import LoweringConfig, lower
from ..lowering import default_cache as lowering_cache
from ..obs import clock, metrics, span
from ..run import default_inputs
from ..simulator.control import data_can_fail, simulate_control
from ..simulator.engine import (
    SimulatorConfig,
    resolve_engine_mode,
    simulate,
)
from .cache import Measurement, ResultCache, program_fingerprint
from .prune import Prediction, Pruner
from .report import (
    ExplorationEntry,
    ExplorationReport,
    PointFailure,
)
from .search import GreedySearch, SearchStrategy, get_strategy
from .space import ConfigPoint, ConfigSpace

def baseline_point(program: StencilProgram) -> ConfigPoint:
    """The configuration ``repro run`` uses when no flag is given."""
    return ConfigPoint(vectorization=program.vectorization)


def explore(program: StencilProgram,
            platform: FPGAPlatform = STRATIX10,
            space: Optional[ConfigSpace] = None,
            strategy: Union[str, SearchStrategy] = "greedy",
            beam_width: int = 8,
            seed: int = 0,
            workers: Optional[int] = None,
            cache: Optional[ResultCache] = None,
            engine_mode: str = "auto",
            inputs: Optional[Mapping[str, np.ndarray]] = None,
            persist: bool = True,
            cache_path=None,
            deadlock_window: Optional[int] = None,
            checkpoint_every: int = 16,
            backend: Optional[str] = None,
            config_parallel: Optional[bool] = None) -> ExplorationReport:
    """Sweep ``program``'s design space and rank what survives.

    The frontier is measured one machine at a time, not one point at a
    time: points that build the same machine share one simulation, a
    control run (the plan alone) whose cycle counts are bitwise a full
    run's, plus one full data pass per lowered program whose data can
    fail (:func:`measure`).

    Args:
        program: the stencil program (its own vectorization defines the
            baseline configuration).
        platform: modeled target device.
        space: the configuration space (defaults to
            :meth:`ConfigSpace.default_for`). The baseline point is
            always appended when the space does not contain it.
        strategy: ``"exhaustive"``, ``"greedy"``/``"beam"``, or a
            :class:`SearchStrategy` instance.
        beam_width: beam size for the greedy strategy.
        seed: input-generation seed (part of the determinism contract).
        cache: simulation-result cache; pass the same instance (or a
            loaded one) across sweeps to make them incremental.
        engine_mode: simulator engine selection per point.
        inputs: concrete input arrays (generated from ``seed`` when
            omitted).
        persist: merge the on-disk result cache in before the sweep
            and write it back after, so sweeps are incremental *across
            processes* by default (measurements are content-keyed by
            lowered-program hash + machine identity).  Opt out with
            ``persist=False`` / ``repro explore --no-cache-persist``.
        cache_path: where the persistent cache lives (defaults to
            ``ResultCache.default_path()``; override the directory
            with ``REPRO_CACHE_DIR``).
        deadlock_window: per-point override of
            :attr:`SimulatorConfig.deadlock_window` (``None`` keeps
            the simulator default).
        checkpoint_every: with ``persist``, write the result cache to
            disk every this many completed points, so a killed sweep
            resumes from its partial results on the next run.
        workers, backend, config_parallel: deprecated and ignored.
            Every sweep runs in this process, one family after
            another: control runs are planner-VM Python that holds the
            GIL, and on a 2-core box worker processes cost more in IPC
            and bookkeeping than the second core gives back.  They stay
            only while ``benchmarks/e2e`` passes them; revision 2 of
            the benchmark (ROADMAP.md, item 1a) deletes them.
    """
    deprecated = [name for name, value in (
        ("workers", workers), ("backend", backend),
        ("config_parallel", config_parallel)) if value is not None]
    if deprecated:
        warnings.warn(f"explore({', '.join(deprecated)}) is deprecated "
                      f"and ignored: every sweep runs in process, "
                      f"timing machines by control runs, plus a data "
                      f"pass where data can fail",
                      DeprecationWarning, stacklevel=2)
    start = clock.now()
    space = space or ConfigSpace.default_for(program, platform)
    cache = cache if cache is not None else ResultCache()
    if persist:
        with span("explore.load"):
            cache.load_persistent(cache_path)
    cache.reset_stats()
    artifacts = lowering_cache()
    lowering_hits0, relowered0 = artifacts.stats("analysis")
    priced0, _ = artifacts.stats("price")
    if isinstance(strategy, str) and strategy in ("greedy", "beam"):
        strategy = GreedySearch(beam_width=beam_width)
    else:
        strategy = get_strategy(strategy)

    base = baseline_point(program)
    points = list(space.points())
    if base not in points:
        points.append(base)

    # Stage 1: analytic pricing and pruning.
    pruner = Pruner(program, platform)
    with span("explore.prune", program=program.name,
              points=len(points)):
        predictions = [pruner.predict(point) for point in points]
    by_point = {p.point: p for p in predictions}

    # Stage 2: the strategy picks the frontier worth simulating; the
    # baseline is always validated so the report can quote a speedup.
    with span("explore.select", strategy=strategy.name):
        selected = list(strategy.select(predictions, baseline=base))
    base_prediction = by_point[base]
    if base_prediction.feasible and base not in selected:
        selected.append(base)

    # Stage 3: simulate the frontier, once per machine the simulator
    # builds, with a data pass only where data can fail.
    if inputs is None:
        inputs = default_inputs(program, seed)

    def checkpoint_save():
        # Timed through the obs clock so checkpoint latency is a
        # first-class metric.
        began = clock.now()
        cache.save_persistent(cache_path)
        metrics.histogram("explore.checkpoint_seconds").observe(
            clock.now() - began)

    checkpoint = checkpoint_save if persist else None
    frontier = [by_point[p] for p in selected]
    try:
        with span("explore.simulate", frontier=len(frontier)):
            measurements, failures = _simulate_frontier(
                pruner, frontier, inputs, engine_mode, cache,
                deadlock_window=deadlock_window,
                checkpoint_every=checkpoint_every,
                checkpoint=checkpoint)
    except (KeyboardInterrupt, SweepInterrupted):
        # Die cleanly: a final checkpoint makes the interrupted
        # sweep resumable, then the interrupt keeps propagating (the
        # CLI maps it to exit 130/143).
        if persist:
            cache.save_persistent(cache_path)
        raise

    # Sweep totals, counted once the simulation stage returns.
    if metrics.enabled():
        hits = sum(1 for _, hit in measurements.values() if hit)
        metrics.counter("explore.sweeps").inc()
        metrics.counter("explore.cache_hits").inc(hits)
        metrics.counter("explore.points_measured").inc(
            len(measurements) - hits)
        for failure in failures.values():
            metrics.counter("explore.points_failed",
                            kind=failure.kind).inc()
        for measurement, hit in measurements.values():
            if not hit:
                metrics.histogram("explore.point_seconds").observe(
                    measurement.wall_seconds)

    # Stage 4: assemble, rank, and mark the Pareto frontier.
    lowering_hits1, relowered1 = artifacts.stats("analysis")
    priced1, _ = artifacts.stats("price")
    with span("explore.report", entries=len(predictions)):
        entries = _build_entries(predictions, measurements, failures,
                                 base)
    report = ExplorationReport(
        program=program.name,
        shape=tuple(program.shape),
        platform=platform.name,
        strategy=strategy.name,
        seed=seed,
        space=space,
        entries=entries,
        wall_seconds=clock.now() - start,
        cache_hits=cache.hits,
        lowering_cache_hits=(lowering_hits1 - lowering_hits0
                             + priced1 - priced0),
        relowered_programs=relowered1 - relowered0,
        family_hash=program_fingerprint(program),
    )
    if persist:
        with span("explore.persist"):
            if not cache.save_persistent(cache_path):
                import sys
                print("warning: could not write the persistent result "
                      "cache (set REPRO_CACHE_DIR to a writable "
                      "directory, or pass persist=False / "
                      "--no-cache-persist)", file=sys.stderr)
            if report.best is not None:
                # Feed the serve layer: a persisted sweep's Pareto
                # front joins the report store, so `repro serve`
                # answers this (program, shape, hardware) triple from
                # memory instead of re-sweeping.
                report.store()
    return report


def _machine_key(prediction: Prediction) -> Tuple:
    """What a point's outcome is keyed by in one sweep: its lowered
    program family plus the key its measurement is stored under."""
    return (prediction.family_hash, prediction.simulation_key)


def measure(group: Sequence[Prediction], program: StencilProgram,
            platform: FPGAPlatform, inputs, engine_mode: str,
            resolved_engine: str,
            deadlock_window: Optional[int] = None
            ) -> Iterator[Union[Measurement, PointFailure]]:
    """Measure ``group``, machines of one lowered program family,
    yielding each member's :class:`Measurement` or
    :class:`PointFailure` in order as it finishes.

    Members get control runs, the plan alone
    (:func:`~repro.simulator.control.simulate_control`), bitwise a full
    run's timing; outputs do not depend on the configuration.  A family
    whose data can fail (:func:`~repro.simulator.control.data_can_fail`)
    also makes a data pass: its first member gets a full simulation,
    handed to the next member if it fails, and no member is timed by a
    control run before one succeeded.  A member whose control run fails
    is re-run in full ("peeled off"), so it fails exactly as a full run
    does, forensics included.

    A full run is deterministic: whatever it raises (a deadlock, a
    model error, an engine's data guard) fails the member at once.
    """

    def lowered(prediction: Prediction) -> StencilProgram:
        point = prediction.point
        return lower(program, LoweringConfig(
            canonicalize=point.canonicalize, fusion=point.fusion,
            vectorization=point.vectorization), platform=platform).program

    def run(prediction: Prediction, control: bool) -> Measurement:
        point = prediction.point
        member = lowered(prediction)
        config = SimulatorConfig(
            network_words_per_cycle=point.network_words_per_cycle,
            network_latency=point.network_latency,
            min_channel_depth=point.min_channel_depth,
            engine_mode=engine_mode,
            **({"deadlock_window": deadlock_window}
               if deadlock_window is not None else {}))
        began = clock.now()
        with span("explore.point", point=point.label(),
                  engine="control" if control else resolved_engine):
            result = (simulate_control if control else simulate)(
                member, inputs, config, device_of=prediction.device_of)
        return Measurement(
            simulated_cycles=result.cycles,
            sim_expected_cycles=result.expected_cycles,
            wall_seconds=clock.now() - began,
            # The resolution that keys the entry, for control runs
            # too: cycle counts are engine-independent, so a control
            # run's entry is interchangeable with a full run's.
            engine=resolved_engine)

    def full_run(prediction: Prediction
                 ) -> Union[Measurement, PointFailure]:
        try:
            return run(prediction, control=False)
        except DeadlockError as exc:
            # Keep the forensics so the report can explain the point.
            return PointFailure(
                kind="deadlock", message=str(exc),
                detail=(exc.report.to_json()
                        if exc.report is not None else None))
        except StencilFlowError as exc:
            return PointFailure(kind="error", message=str(exc))
        except Exception as exc:
            return PointFailure(kind="error",
                                message=f"{type(exc).__name__}: {exc}")

    data_passed = not data_can_fail(lowered(group[0]))
    for prediction in group:
        result = None
        if data_passed:
            try:
                result = run(prediction, control=True)
                metrics.counter("explore.control_points").inc()
            except Exception:
                # Divergent control flow (deadlock, cycle cap) or a
                # crash: peel the member off.
                result = None
        if result is None:
            result = full_run(prediction)
            data_passed |= isinstance(result, Measurement)
        yield result


def _families(pending: Sequence[Prediction]
              ) -> List[List[List[Prediction]]]:
    """Group the points to measure: points that build one machine
    (:attr:`Prediction.machine_identity`) share its simulation, and the
    machines of one lowered program family share at most one data pass.
    Returns the families, each a list of machines, each the list of
    points that build it."""
    families: Dict[str, Dict[Tuple, List[Prediction]]] = {}
    for prediction in pending:
        families.setdefault(prediction.family_hash, {}).setdefault(
            prediction.machine_identity, []).append(prediction)
    return [list(machines.values()) for machines in families.values()]


def _simulate_frontier(pruner: Pruner,
                       predictions: Sequence[Prediction],
                       inputs: Mapping[str, np.ndarray],
                       engine_mode: str,
                       cache: ResultCache,
                       deadlock_window: Optional[int] = None,
                       checkpoint_every: int = 16,
                       checkpoint=None
                       ) -> Tuple[Dict[Tuple, Tuple[Measurement, bool]],
                                  Dict[Tuple, PointFailure]]:
    """Measure every distinct machine among ``predictions``.

    Returns ``(outcomes, failures)``, both keyed by
    :func:`_machine_key`: ``outcomes`` maps to ``(measurement,
    cache_hit)``; ``failures`` records points that produced no
    measurement (deadlock, model error, any other exception) — the sweep
    always completes.  Cache hits are answered first; the rest are
    grouped by :func:`_families`, measured one family after another in
    this thread, and each outcome goes through ``settle`` to every
    point it answers, with one cache entry per point's key.
    """
    # The *resolved* engine is part of the entry key: cycle counts are
    # engine-independent (enforced by the equivalence suite), but the
    # measurement's engine/wall-time metadata is not, and the cache
    # persists across processes by default.  Resolving first keeps
    # "auto" and its concrete engine sharing one entry.
    resolved_engine = resolve_engine_mode(
        SimulatorConfig(engine_mode=engine_mode))
    outcomes: Dict[Tuple, Tuple[Measurement, bool]] = {}
    failures: Dict[Tuple, PointFailure] = {}
    completed = 0

    def entry_key(prediction: Prediction) -> Tuple:
        return (resolved_engine,) + prediction.simulation_key

    def settle(machine: Sequence[Prediction], result, hit=False):
        nonlocal completed
        for prediction in machine:
            key = _machine_key(prediction)
            if isinstance(result, PointFailure):
                failures[key] = result
            else:
                outcomes[key] = (result, hit)
                if not hit:
                    cache.put(prediction.family_hash,
                              entry_key(prediction), result)
            completed += 1
            if checkpoint is not None and checkpoint_every > 0 \
                    and completed % checkpoint_every == 0:
                checkpoint()

    distinct: Dict[Tuple, Prediction] = {}
    for prediction in predictions:
        distinct.setdefault(_machine_key(prediction), prediction)
    pending = []
    for prediction in distinct.values():
        cached = cache.get(prediction.family_hash, entry_key(prediction))
        if cached is None:
            pending.append(prediction)
        else:
            settle([prediction], cached, hit=True)

    for family in _families(pending):
        results = measure([machine[0] for machine in family],
                          pruner.program, pruner.platform, inputs,
                          engine_mode, resolved_engine, deadlock_window)
        for machine, result in zip(family, results):
            settle(machine, result)
    return outcomes, failures


def _build_entries(predictions: Sequence[Prediction],
                   measurements: Mapping[Tuple,
                                         Tuple[Measurement, bool]],
                   failures: Mapping[Tuple, PointFailure],
                   base: ConfigPoint
                   ) -> Tuple[ExplorationEntry, ...]:
    records = []
    for prediction in predictions:
        outcome = measurements.get(_machine_key(prediction)) \
            if prediction.feasible else None
        measurement, cache_hit = outcome if outcome else (None, False)
        error = None
        if measurement is not None and prediction.predicted_cycles:
            error = (measurement.simulated_cycles
                     / prediction.predicted_cycles) - 1.0
        records.append((prediction, measurement, cache_hit, error))

    # Rank the simulated machines by measured cycles; deterministic
    # tie-break on the point identity.
    simulated = [r for r in records if r[1] is not None]
    simulated.sort(key=lambda r: (r[1].simulated_cycles,
                                  r[0].point.key()))
    rank_of = {id(r): n + 1 for n, r in enumerate(simulated)}
    pareto_ids = _pareto_ids(simulated)

    entries = []
    for record in records:
        prediction, measurement, cache_hit, error = record
        failure = failures.get(_machine_key(prediction)) \
            if prediction.feasible else None
        entries.append(ExplorationEntry(
            point=prediction.point,
            feasible=prediction.feasible,
            prune_reason=prediction.reason,
            devices_used=prediction.devices_used,
            predicted_cycles=prediction.predicted_cycles,
            predicted_runtime_us=prediction.predicted_runtime_us,
            frequency_mhz=prediction.frequency_mhz,
            utilization=prediction.utilization,
            network_headroom=prediction.network_headroom,
            simulated=measurement is not None,
            simulated_cycles=(measurement.simulated_cycles
                              if measurement else None),
            model_error=error,
            wall_seconds=(measurement.wall_seconds
                          if measurement else None),
            cache_hit=cache_hit,
            engine=measurement.engine if measurement else None,
            rank=rank_of.get(id(record)),
            pareto=id(record) in pareto_ids,
            baseline=prediction.point == base,
            failed=failure is not None,
            failure=failure,
        ))
    return tuple(entries)


def _pareto_ids(simulated) -> set:
    """Non-dominated records over (cycles, worst device utilization).

    ``simulated`` arrives sorted by (cycles, point key); scanning in
    that order and keeping only records no kept record weakly
    dominates collapses ties (duplicate machines) onto their first
    representative.
    """
    ids = set()
    kept = []
    for record in simulated:
        cycles = record[1].simulated_cycles
        utilization = record[0].utilization or 0.0
        if any(k_cycles <= cycles and k_util <= utilization
               for k_cycles, k_util in kept):
            continue
        kept.append((cycles, utilization))
        ids.add(id(record))
    return ids
