"""The design-space explorer: model-guided autotuning (Fig. 13 closed
into a loop).

``explore`` enumerates a configuration space, prices every point with
the analytic models (pruning what cannot work or cannot win), validates
the surviving frontier on the batched cycle-level simulator — in
parallel, with results cached so repeated sweeps are incremental — and
returns a ranked :class:`~repro.explore.report.ExplorationReport`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.program import StencilProgram
from ..errors import (
    DeadlockError,
    DefinitionError,
    ServiceUnavailable,
    StencilFlowError,
    SweepInterrupted,
)
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..lowering import LoweringConfig, lower
from ..lowering import default_cache as lowering_cache
from ..obs import clock, metrics, span
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

#: Default parallelism of the simulation stage.
_DEFAULT_WORKERS = min(4, os.cpu_count() or 1)

#: Validation backends the simulation stage offers.
BACKENDS = ("thread", "process")


def default_inputs(program: StencilProgram,
                   seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic random inputs for ``program`` (the CLI's scheme)."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, spec in program.inputs.items():
        shape = spec.shape(program.shape, program.index_names)
        if shape:
            inputs[name] = rng.random(shape).astype(spec.dtype.numpy)
        else:
            inputs[name] = spec.dtype.numpy.type(rng.random())
    return inputs


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
            point_timeout: Optional[float] = None,
            retries: int = 1,
            retry_backoff: float = 0.25,
            checkpoint_every: int = 16,
            backend: str = "thread",
            service=None,
            config_parallel: bool = False) -> ExplorationReport:
    """Sweep ``program``'s design space and rank what survives.

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
        workers: simulator parallelism (``concurrent.futures`` threads;
            the batched engine spends its time in NumPy).
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
        point_timeout: per-point wall budget in seconds; a point that
            blows it is recorded as a failed entry instead of hanging
            the sweep (``None`` disables the budget).
        retries: extra attempts for *non-deterministic* per-point
            failures (a crashed worker); deadlocks and model errors
            are deterministic and never retried.
        retry_backoff: base of the exponential backoff between
            retries, in seconds.
        checkpoint_every: with ``persist``, write the result cache to
            disk every this many completed points, so a killed sweep
            resumes from its partial results on the next run.
        backend: ``"thread"`` (in-process pool, the default) or
            ``"process"`` — the supervised multiprocess service
            (:mod:`repro.service`): leased job batches, worker
            heartbeats, crash-loop quarantine.  Identical reports on
            fault-free sweeps; the process backend additionally
            survives hard worker crashes (native OOM, segfault,
            SIGKILL) and reclaims timed-out workers.  If worker
            processes cannot be spawned, the sweep degrades to the
            thread backend with a warning.
        service: the process backend's workers: a
            :class:`repro.service.ServiceConfig` (supervision tunables;
            a private worker pool lives for this call) or a live
            :class:`repro.service.WorkerPool`, borrowed and left
            running so its workers serve the owner's next sweep.
        config_parallel: group frontier points that share one lowered
            program and simulate each group as a stack: a full
            simulation of one representative plus a width-0 control
            run (:func:`repro.simulator.control.simulate_control`) per
            remaining point.  Cycle counts are bitwise identical (the
            control engine replays the exact machine schedule); the
            data pass — the dominant cost — runs once per group
            instead of once per point.  A member whose control run
            fails (deadlock, cycle cap, fault validation) is peeled
            off to the ordinary per-point path.  Thread backend only.
    """
    if backend not in BACKENDS:
        raise DefinitionError(
            f"unknown explore backend {backend!r} "
            f"(expected one of {', '.join(BACKENDS)})")
    if config_parallel and backend == "process":
        raise DefinitionError(
            "config_parallel is not supported on the process backend "
            "(control-run stacking is an in-process optimization); "
            "use backend='thread'")
    start = clock.now()
    space = space or ConfigSpace.default_for(program, platform)
    cache = cache if cache is not None else ResultCache()
    if persist:
        with span("explore.load"):
            cache.load_persistent(cache_path)
    cache.reset_stats()
    artifacts = lowering_cache()
    lowering_hits0, relowered0 = artifacts.stats("analysis")
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

    # Stage 3: simulate the frontier in parallel. Points that build
    # identical machines — including transform axes whose lowered
    # programs coincide — share one simulation through the
    # (family-hash, machine) cache key.
    if inputs is None:
        inputs = default_inputs(program, seed)

    def checkpoint_save():
        # Timed through the obs clock so checkpoint latency is a
        # first-class metric on both backends (the supervisor calls
        # this same closure).
        began = clock.now()
        cache.save_persistent(cache_path)
        metrics.histogram("explore.checkpoint_seconds").observe(
            clock.now() - began)

    checkpoint = checkpoint_save if persist else None
    frontier = [by_point[p] for p in selected]
    try:
        with span("explore.simulate", backend=backend,
                  frontier=len(frontier)):
            measurements, failures = _run_backend(
                backend, pruner, program, platform, frontier, inputs,
                engine_mode, cache, workers, service,
                deadlock_window=deadlock_window,
                point_timeout=point_timeout,
                retries=retries,
                retry_backoff=retry_backoff,
                checkpoint_every=checkpoint_every,
                checkpoint=checkpoint,
                config_parallel=config_parallel)
    except (KeyboardInterrupt, SweepInterrupted):
        # Die cleanly: a final checkpoint makes the interrupted
        # sweep resumable, then the interrupt keeps propagating (the
        # CLI maps it to exit 130/143).
        if persist:
            cache.save_persistent(cache_path)
        raise

    # Backend-agnostic sweep totals: counted here, after the
    # simulation stage returns, so thread and process sweeps report
    # equivalent metric totals (the process backend's workers never
    # need their own registry for these).
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
        lowering_cache_hits=lowering_hits1 - lowering_hits0,
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
    """Full identity of the simulated machine: lowered program family
    plus machine tunables."""
    return (prediction.family_hash, prediction.simulation_key)


def _run_backend(backend, pruner, program, platform, frontier,
                 inputs, engine_mode, cache, workers, service,
                 **kwargs):
    """Dispatch the simulation stage to the selected backend.

    The process backend degrades gracefully: when worker processes
    cannot be spawned at all (restricted sandboxes, exhausted pids),
    the sweep falls back to the in-process thread pool with a
    warning rather than failing — any measurements the service
    completed first are already in ``cache`` and are simply reused.
    """
    if backend == "process":
        from ..service.supervisor import (
            ServiceConfig,
            WorkerPool,
            simulate_frontier_supervised,
        )
        if not isinstance(service, WorkerPool):
            service = service or ServiceConfig()
            if service.workers is None:
                from dataclasses import replace
                service = replace(service,
                                  workers=workers or _DEFAULT_WORKERS)
        # config_parallel is rejected for this backend in explore();
        # the supervisor does not know the flag.
        supervised_kwargs = dict(kwargs)
        supervised_kwargs.pop("config_parallel", None)
        try:
            return simulate_frontier_supervised(
                program, platform, frontier, inputs, engine_mode,
                cache, service, **supervised_kwargs)
        except ServiceUnavailable as exc:
            if isinstance(service, WorkerPool) and service.closed:
                raise  # shut down by its owner: nothing to fall back to
            import sys
            print(f"warning: process backend unavailable ({exc}); "
                  f"falling back to the thread backend",
                  file=sys.stderr)
    return _simulate_frontier(pruner, frontier, inputs, engine_mode,
                              cache, workers, **kwargs)


class PointFailed(Exception):
    """Carrier: one frontier point failed terminally."""

    def __init__(self, failure: PointFailure):
        self.failure = failure
        super().__init__(failure.message)


def _sim_config(prediction: Prediction, deadlock_window: Optional[int],
                **engine) -> SimulatorConfig:
    """The simulator configuration a frontier point describes."""
    point = prediction.point
    return SimulatorConfig(
        network_words_per_cycle=point.network_words_per_cycle,
        network_latency=point.network_latency,
        min_channel_depth=point.min_channel_depth,
        network_link_rates=dict(prediction.link_rates_resolved)
        if prediction.link_rates_resolved else None,
        **engine,
        **({"deadlock_window": deadlock_window}
           if deadlock_window is not None else {}))


def measure_point(program: StencilProgram, platform: FPGAPlatform,
                  prediction: Prediction, inputs, engine_mode: str,
                  resolved_engine: str,
                  deadlock_window: Optional[int] = None,
                  retries: int = 1,
                  retry_backoff: float = 0.25) -> Measurement:
    """Lower and simulate one frontier point: the one measurement both
    sweep backends take (the thread pool and the process workers).

    Deadlocks and model errors are deterministic: they raise
    :class:`PointFailed` at once.  Anything else is a possibly
    transient crash, retried ``retries`` times with exponential
    backoff before it fails the point.
    """
    point = prediction.point
    attempts = 0
    while True:
        attempts += 1
        try:
            lowered = lower(program, LoweringConfig(
                canonicalize=point.canonicalize, fusion=point.fusion,
                vectorization=point.vectorization), platform=platform)
            config = _sim_config(prediction, deadlock_window,
                                 engine_mode=engine_mode)
            began = clock.now()
            with span("explore.point", point=point.label(),
                      engine=resolved_engine):
                result = simulate(lowered.program, inputs, config,
                                  device_of=prediction.device_of)
            return Measurement(
                simulated_cycles=result.cycles,
                sim_expected_cycles=result.expected_cycles,
                wall_seconds=clock.now() - began,
                # The same resolution that keys the entry: key and
                # metadata cannot diverge.
                engine=resolved_engine)
        except DeadlockError as exc:
            # Keep the forensics so the report can explain the point.
            raise PointFailed(PointFailure(
                kind="deadlock", message=str(exc), attempts=attempts,
                detail=(exc.report.to_json()
                        if exc.report is not None else None)))
        except StencilFlowError as exc:
            raise PointFailed(PointFailure(
                kind="error", message=str(exc), attempts=attempts))
        except Exception as exc:
            if attempts > retries:
                raise PointFailed(PointFailure(
                    kind="error", message=f"{type(exc).__name__}: {exc}",
                    attempts=attempts))
            metrics.counter("explore.retries").inc()
            time.sleep(retry_backoff * (2 ** (attempts - 1)))


def _simulate_frontier(pruner: Pruner,
                       predictions: Sequence[Prediction],
                       inputs: Mapping[str, np.ndarray],
                       engine_mode: str,
                       cache: ResultCache,
                       workers: Optional[int],
                       deadlock_window: Optional[int] = None,
                       point_timeout: Optional[float] = None,
                       retries: int = 1,
                       retry_backoff: float = 0.25,
                       checkpoint_every: int = 16,
                       checkpoint=None,
                       config_parallel: bool = False
                       ) -> Tuple[Dict[Tuple, Tuple[Measurement, bool]],
                                  Dict[Tuple, PointFailure]]:
    """Measure every distinct machine among ``predictions``.

    Returns ``(outcomes, failures)``, both keyed by machine key:
    ``outcomes`` maps to ``(measurement, cache_hit)``; ``failures``
    records points that produced no measurement (deadlock, timeout,
    exhausted retries) — the sweep always completes.  Duplicate
    machines (points whose placements coincide, or whose transforms
    lower to the same program) are simulated once.
    """
    distinct: Dict[Tuple, Prediction] = {}
    for prediction in predictions:
        distinct.setdefault(_machine_key(prediction), prediction)

    # The *resolved* engine is part of the entry key: cycle counts are
    # engine-independent (enforced by the equivalence suite), but the
    # measurement's engine/wall-time metadata is not, and the cache
    # persists across processes by default.  Resolving first keeps
    # "auto" and its concrete engine sharing one entry.
    resolved_engine = resolve_engine_mode(
        SimulatorConfig(engine_mode=engine_mode))

    def measure(prediction: Prediction) -> Tuple[Measurement, bool]:
        key = (resolved_engine,) + prediction.simulation_key
        cached = cache.get(prediction.family_hash, key)
        if cached is not None:
            return cached, True
        measurement = measure_point(
            pruner.program, pruner.platform, prediction, inputs,
            engine_mode, resolved_engine, deadlock_window, retries,
            retry_backoff)
        cache.put(prediction.family_hash, key, measurement)
        return measurement, False

    def measure_control(prediction: Prediction
                        ) -> Tuple[Measurement, bool]:
        """Re-time a group member with the width-0 control engine.

        Sound because the group shares one lowered program, so the
        member's outputs are configuration-independent; only the
        machine schedule — which the control engine replays exactly —
        differs per point.  Cycle counts are bitwise identical to the
        member's full simulation."""
        key = (resolved_engine,) + prediction.simulation_key
        cached = cache.get(prediction.family_hash, key)
        if cached is not None:
            return cached, True
        from ..simulator.control import simulate_control
        point = prediction.point
        began = clock.now()
        with span("explore.point", point=point.label(),
                  engine="control"):
            result = simulate_control(
                pruner.program_at(point), inputs,
                _sim_config(prediction, deadlock_window),
                device_of=prediction.device_of)
        measurement = Measurement(
            simulated_cycles=result.cycles,
            sim_expected_cycles=result.expected_cycles,
            wall_seconds=clock.now() - began,
            # Keyed and labelled like the full measurement it stands
            # in for: cycle counts are engine-independent, so the
            # cache entry is interchangeable with a full run's.
            engine=resolved_engine)
        cache.put(prediction.family_hash, key, measurement)
        return measurement, False

    # Groups share one lowered program; without config_parallel every
    # point is a group of one, which measure_group measures plainly.
    groups: Dict[object, List[Prediction]] = {}
    for n, prediction in enumerate(distinct.values()):
        groups.setdefault(prediction.family_hash if config_parallel
                          else n, []).append(prediction)
    outcomes: Dict[Tuple, Tuple[Measurement, bool]] = {}
    failures: Dict[Tuple, PointFailure] = {}
    completed = 0

    def measure_group(group):
        """One full simulation (the representative) plus a control run
        per remaining member; failures peel the point off to the
        ordinary per-point path.  Returns ``(key, outcome, failure)``
        rows, one per member."""
        if len(group) > 1:
            metrics.counter("explore.config_parallel_groups").inc()
        rows = []
        rep_done = False
        for prediction in group:
            key = _machine_key(prediction)
            if not rep_done:
                # The representative — or, after a failed
                # representative, the next member promoted to one.
                try:
                    rows.append((key, measure(prediction), None))
                    rep_done = True
                except PointFailed as exc:
                    rows.append((key, None, exc.failure))
                continue
            try:
                outcome = measure_control(prediction)
            except Exception:
                # Divergent control flow (deadlock, cycle cap, fault
                # validation) or an unexpected crash: re-run the point
                # on the per-point path so its failure classification
                # and retry policy are identical to a plain sweep.
                try:
                    rows.append((key, measure(prediction), None))
                except PointFailed as exc:
                    rows.append((key, None, exc.failure))
                continue
            metrics.counter("explore.control_points").inc()
            rows.append((key, outcome, None))
        return rows

    def note_done():
        nonlocal completed
        completed += 1
        if checkpoint is not None and checkpoint_every > 0 \
                and completed % checkpoint_every == 0:
            checkpoint()

    def record(rows):
        for key, outcome, failure in rows:
            if failure is not None:
                failures[key] = failure
            else:
                outcomes[key] = outcome
            note_done()

    max_workers = workers or _DEFAULT_WORKERS
    if (max_workers <= 1 and point_timeout is None) or len(groups) < 2:
        for group in groups.values():
            record(measure_group(group))
        return outcomes, failures

    # Threads cannot be killed: a timed-out point's worker keeps
    # running, so the pool is abandoned (shutdown without join) once
    # any point times out, and remaining results are still collected
    # with their own budgets.
    abandoned = False
    pool = ThreadPoolExecutor(max_workers=max_workers)
    try:
        futures = [(group, pool.submit(measure_group, group))
                   for group in groups.values()]
        for group, future in futures:
            try:
                rows = future.result(timeout=point_timeout)
            except FuturesTimeout:
                future.cancel()
                abandoned = True
                metrics.counter("explore.timeouts").inc()
                for prediction in group:
                    key = _machine_key(prediction)
                    if key not in outcomes and key not in failures:
                        failures[key] = PointFailure(
                            kind="timeout",
                            message=f"simulation exceeded the "
                                    f"per-point budget of "
                                    f"{point_timeout:g}s")
                        note_done()
                continue
            record(rows)
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=True)
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
