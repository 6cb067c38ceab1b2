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
import queue
import threading
import time
import warnings
from collections import deque
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
    DefinitionError,
    ServiceUnavailable,
    StencilFlowError,
    SweepInterrupted,
)
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..lowering import LoweringConfig, lower
from ..lowering import default_cache as lowering_cache
from ..obs import clock, metrics, span
from ..simulator.control import simulate_control
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

#: Default parallelism of the simulation stage (threads or worker
#: processes).
DEFAULT_WORKERS = min(4, os.cpu_count() or 1)

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
            config_parallel: Optional[bool] = None) -> ExplorationReport:
    """Sweep ``program``'s design space and rank what survives.

    The frontier is measured one machine at a time, not one point at a
    time: points that build the same machine share one simulation, and
    the machines of one lowered program share one full data pass, the
    rest being timed by width-0 control runs whose cycle counts are
    bitwise a full run's (:func:`measure`).

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
        workers: simulator parallelism: threads, or worker processes
            when ``service`` does not set its own count; one
            lowered-program family per task or lease (the batched
            engine spends its time in NumPy).
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
            the sweep (``None`` disables the budget).  Each machine of
            a family is charged from its own start.
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
            (:mod:`repro.service`): one lease per family, worker
            heartbeats, crash-loop quarantine.  Either backend only
            executes families; deduplication, the cache probe and
            checkpointing happen here, once.  Identical reports on
            fault-free sweeps; the process backend additionally
            survives hard worker crashes (native OOM, segfault,
            SIGKILL) and reclaims timed-out workers.  If worker
            processes cannot be spawned, the families it left
            unsettled run on the thread backend, with a warning.
        service: the process backend's workers: a
            :class:`repro.service.ServiceConfig` (supervision tunables;
            a private worker pool lives for this call) or a live
            :class:`repro.service.WorkerPool`, borrowed and left
            running so its workers serve the owner's next sweep.
        config_parallel: deprecated and ignored (control runs are how
            every sweep measures).  It stays only while
            ``benchmarks/e2e/layers.py`` passes it; revision 2 of the
            benchmark (ROADMAP.md, item 1a) deletes it.
    """
    if backend not in BACKENDS:
        raise DefinitionError(
            f"unknown explore backend {backend!r} "
            f"(expected one of {', '.join(BACKENDS)})")
    if config_parallel is not None:
        warnings.warn("explore(config_parallel=...) is deprecated and "
                      "ignored: every sweep times a lowered program's "
                      "machines with one data pass plus control runs",
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

    # Stage 3: simulate the frontier in parallel, once per machine the
    # simulator builds and with one data pass per lowered program.
    if inputs is None:
        inputs = default_inputs(program, seed)

    def checkpoint_save():
        # Timed through the obs clock so checkpoint latency is a
        # first-class metric on both backends (both settle through
        # ``_simulate_frontier``).
        began = clock.now()
        cache.save_persistent(cache_path)
        metrics.histogram("explore.checkpoint_seconds").observe(
            clock.now() - began)

    checkpoint = checkpoint_save if persist else None
    frontier = [by_point[p] for p in selected]
    try:
        with span("explore.simulate", backend=backend,
                  frontier=len(frontier)):
            measurements, failures = _simulate_frontier(
                pruner, frontier, inputs, engine_mode, cache, workers,
                backend=backend, service=service,
                deadlock_window=deadlock_window,
                point_timeout=point_timeout,
                retries=retries,
                retry_backoff=retry_backoff,
                checkpoint_every=checkpoint_every,
                checkpoint=checkpoint)
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
    """What a point's outcome is keyed by in one sweep: its lowered
    program family plus the key its measurement is stored under."""
    return (prediction.family_hash, prediction.simulation_key)


def measure(group: Sequence[Prediction], program: StencilProgram,
            platform: FPGAPlatform, inputs, engine_mode: str,
            resolved_engine: str,
            deadlock_window: Optional[int] = None,
            retries: int = 1, retry_backoff: float = 0.25
            ) -> Iterator[Union[Measurement, PointFailure]]:
    """Measure ``group``, machines of one lowered program family,
    yielding each member's :class:`Measurement` or
    :class:`PointFailure` in order as it finishes.  This is the one
    measurement both sweep backends take, a thread task or a process
    worker's lease measuring one family.

    The first member (the representative) gets a full simulation, the
    family's one data pass: only it can surface a data-dependent
    failure (the integer sinks' range and NaN guards).  Every later
    member gets a width-0 control run
    (:func:`~repro.simulator.control.simulate_control`), whose timing
    is bitwise a full run's; its outputs would be the representative's,
    since streamed values do not depend on the machine configuration.
    A member whose control run fails is re-run in full ("peeled off"),
    so it fails exactly as a full run does, forensics included.  A
    representative whose data pass fails hands the data pass to the
    next member: no member is timed by a control run before the data
    pass succeeded.

    In a full run, deadlocks and model errors are deterministic and
    fail the member at once; anything else is a possibly transient
    crash, retried ``retries`` times with exponential backoff.
    """

    def run(prediction: Prediction, control: bool) -> Measurement:
        point = prediction.point
        lowered = lower(program, LoweringConfig(
            canonicalize=point.canonicalize, fusion=point.fusion,
            vectorization=point.vectorization), platform=platform)
        config = SimulatorConfig(
            network_words_per_cycle=point.network_words_per_cycle,
            network_latency=point.network_latency,
            min_channel_depth=point.min_channel_depth,
            network_link_rates=dict(prediction.link_rates_resolved)
            if prediction.link_rates_resolved else None,
            engine_mode=engine_mode,
            **({"deadlock_window": deadlock_window}
               if deadlock_window is not None else {}))
        began = clock.now()
        with span("explore.point", point=point.label(),
                  engine="control" if control else resolved_engine):
            result = (simulate_control if control else simulate)(
                lowered.program, inputs, config,
                device_of=prediction.device_of)
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
        attempts = 0
        while True:
            attempts += 1
            try:
                return run(prediction, control=False)
            except DeadlockError as exc:
                # Keep the forensics so the report can explain the point.
                return PointFailure(
                    kind="deadlock", message=str(exc), attempts=attempts,
                    detail=(exc.report.to_json()
                            if exc.report is not None else None))
            except StencilFlowError as exc:
                return PointFailure(kind="error", message=str(exc),
                                    attempts=attempts)
            except Exception as exc:
                if attempts > retries:
                    return PointFailure(
                        kind="error",
                        message=f"{type(exc).__name__}: {exc}",
                        attempts=attempts)
                metrics.counter("explore.retries").inc()
                time.sleep(retry_backoff * (2 ** (attempts - 1)))

    data_passed = False
    for prediction in group:
        result = None
        if data_passed:
            try:
                result = run(prediction, control=True)
                metrics.counter("explore.control_points").inc()
            except Exception:
                # Divergent control flow (deadlock, cycle cap, fault
                # validation) or a crash: peel the member off.
                result = None
        if result is None:
            result = full_run(prediction)
            data_passed |= isinstance(result, Measurement)
        yield result


def _families(pending: Sequence[Prediction]
              ) -> List[List[List[Prediction]]]:
    """Group the points to measure: points that build one machine
    (:attr:`Prediction.machine_identity`) share its simulation, and the
    machines of one lowered program family share one data pass.
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
                       workers: Optional[int],
                       backend: str = "thread",
                       service=None,
                       deadlock_window: Optional[int] = None,
                       point_timeout: Optional[float] = None,
                       retries: int = 1,
                       retry_backoff: float = 0.25,
                       checkpoint_every: int = 16,
                       checkpoint=None
                       ) -> Tuple[Dict[Tuple, Tuple[Measurement, bool]],
                                  Dict[Tuple, PointFailure]]:
    """Measure every distinct machine among ``predictions``.

    Returns ``(outcomes, failures)``, both keyed by
    :func:`_machine_key`: ``outcomes`` maps to ``(measurement,
    cache_hit)``; ``failures`` records points that produced no
    measurement (deadlock, timeout, exhausted retries, poisoned) — the
    sweep always completes.  Cache hits are answered first; the rest
    are grouped by :func:`_families` and each outcome goes through
    ``settle`` to every point it answers, with one cache entry per
    point's key.  The backends differ only in how they run a family:
    a thread task each, or a lease on the supervised process pool
    (:class:`repro.service.Supervisor`).  When worker processes cannot
    be spawned, the families the pool left unsettled run on threads.
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

    families = _families(pending)
    if backend == "process" and families:
        from ..service.supervisor import ServiceConfig, Supervisor, WorkerPool
        if not isinstance(service, WorkerPool):
            service = (service or ServiceConfig()).sized(workers)
        try:
            Supervisor(pruner.program, pruner.platform, families, settle,
                       inputs, engine_mode, resolved_engine, cache,
                       service, deadlock_window=deadlock_window,
                       point_timeout=point_timeout, retries=retries,
                       retry_backoff=retry_backoff).run()
            return outcomes, failures
        except ServiceUnavailable as exc:
            if isinstance(service, WorkerPool) and service.closed:
                raise  # shut down by its owner: nothing to fall back to
            import sys
            print(f"warning: process backend unavailable ({exc}); "
                  f"falling back to the thread backend",
                  file=sys.stderr)
        settled = outcomes.keys() | failures.keys()
        families = [[machine for machine in family
                     if _machine_key(machine[0]) not in settled]
                    for family in families]
        families = [family for family in families if family]

    def run(family):
        return measure([machine[0] for machine in family],
                       pruner.program, pruner.platform, inputs,
                       engine_mode, resolved_engine, deadlock_window,
                       retries, retry_backoff)

    max_workers = workers or DEFAULT_WORKERS
    if point_timeout is None and (max_workers <= 1 or len(families) < 2):
        for family in families:
            for machine, result in zip(family, run(family)):
                settle(machine, result)
    else:
        _run_threaded(families, run, settle, max_workers, point_timeout)
    return outcomes, failures


class _Task:
    """One family in flight on its own thread."""

    def __init__(self, family):
        self.family = family
        self.done = 0  # members settled
        self.started = time.monotonic()  # when the current member began
        self.abandoned = False


def _run_threaded(families, run, settle, max_workers: int,
                  point_timeout: Optional[float]):
    """Measure ``families`` on up to ``max_workers`` threads, one family
    per task, settling each member in this thread as it finishes.

    ``point_timeout`` is charged to each member from its own start, so
    no family fails for its total.  Threads cannot be killed: a member
    that overruns is settled as timed out and its thread is abandoned
    (it stops after that member, and what it yields is dropped); the
    family's remaining members are queued again as a family of their
    own, which makes its own data pass.
    """
    events = queue.Queue()
    todo = deque(families)
    running = set()

    def work(task):
        try:
            for result in run(task.family):
                if task.abandoned:
                    return
                task.started = time.monotonic()
                events.put((task, result))
        except Exception as exc:
            events.put((task, exc))
        else:
            events.put((task, None))

    try:
        while todo or running:
            while todo and len(running) < max_workers:
                task = _Task(todo.popleft())
                running.add(task)
                threading.Thread(target=work, args=(task,),
                                 daemon=True).start()
            timeout = None
            if point_timeout is not None:
                timeout = max(0.0, point_timeout + min(
                    t.started for t in running) - time.monotonic())
            try:
                task, result = events.get(timeout=timeout)
            except queue.Empty:
                now = time.monotonic()
                for task in [t for t in running
                             if now - t.started >= point_timeout]:
                    task.abandoned = True
                    running.discard(task)
                    metrics.counter("explore.timeouts").inc()
                    settle(task.family[task.done], PointFailure(
                        kind="timeout",
                        message=f"simulation exceeded the per-point "
                                f"budget of {point_timeout:g}s"))
                    if task.done + 1 < len(task.family):
                        todo.appendleft(task.family[task.done + 1:])
                continue
            if task not in running:
                continue  # abandoned after a timeout
            if isinstance(result, Exception):
                raise result
            if result is None:
                running.discard(task)
            else:
                settle(task.family[task.done], result)
                task.done += 1
    finally:
        # Interrupted or failed: stop every thread after its member.
        for task in running:
            task.abandoned = True


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
