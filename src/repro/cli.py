"""Command-line interface: ``python -m repro <command> <program>``.

Mirrors the workflow of Fig. 13 from the shell:

* ``info``     — parse and summarize a program (DAG, census, intensity).
* ``analyze``  — run the buffering analysis; print buffers and latency.
* ``codegen``  — emit the OpenCL/host/SMI/reference package to a
  directory.
* ``run``      — simulate with random (or zero) inputs and validate
  against the sequential reference.
* ``explore``  — sweep the mapping design space (vectorization,
  devices, placement, network) and rank the surviving configurations.
* ``serve``    — run the always-warm config-query HTTP service over
  the cached Pareto fronts (``/v1/best``, ``/v1/pareto``, ...).
* ``cache``    — inspect (``stats``) or clean (``prune``) the cache
  root, one kind of :mod:`repro.faults.store` at a time.
* ``list-programs`` — show the bundled program catalog.

``<program>`` is either a JSON program description or a catalog name
(``repro list-programs``); short aliases like ``hdiff`` work too.

Every command routes through the stable :mod:`repro.api` facade, so
the shell and Python callers share one behavior.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path

from . import api
from .core import StencilProgram
from .errors import (
    DeadlockError,
    ReproError,
    SweepInterrupted,
)
from .graph import StencilGraph
from .lowering import lower
from .perf import (
    arithmetic_intensity_ops_per_byte,
    model_performance,
    program_census,
)
from .programs import ALIASES, available_programs, build


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="StencilFlow reproduction command-line driver")
    sub = parser.add_subparsers(dest="command", required=True)

    program_help = ("JSON program description, or a catalog name "
                    "(see list-programs)")
    for name, help_text in (
            ("info", "summarize a stencil program"),
            ("analyze", "buffering analysis and deadlock certificate"),
            ("codegen", "generate the OpenCL/host code package"),
            ("run", "simulate and validate a program")):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("program", help=program_help)
        if name == "codegen":
            command.add_argument("--output", "-o", type=Path,
                                 default=Path("generated"),
                                 help="output directory")
        if name == "run":
            command.add_argument("--seed", type=int, default=0,
                                 help="random-input seed")
            command.add_argument("--engine", default="auto",
                                 choices=("auto", "scalar", "batched",
                                          "kernel"),
                                 help="simulator engine (auto picks "
                                      "the batched NumPy engine; "
                                      "kernel only when asked for)")
            command.add_argument("--shape", type=_parse_shape,
                                 default=None, metavar="I,J,K",
                                 help="override the program's iteration "
                                      "domain (same rank, e.g. "
                                      "128,128,80)")
            command.add_argument("--devices", type=int, default=1,
                                 help="split the stencil pipeline "
                                      "across this many devices (the "
                                      "device budget when --partition "
                                      "is 'auto'); edges crossing "
                                      "devices become network links")
            command.add_argument("--partition", default="contiguous",
                                 choices=("contiguous", "auto"),
                                 help="placement strategy: 'contiguous' "
                                      "cuts the pipeline in program "
                                      "order, 'auto' uses the resource-"
                                      "driven partitioner (Sec. III-B)")
            command.add_argument("--network-words-per-cycle",
                                 type=float, default=1.0,
                                 metavar="RATE",
                                 help="per-link transfer rate cap; "
                                      "fractional rates (e.g. 0.25) "
                                      "model a slower wire and run on "
                                      "the batched engine's credit-"
                                      "schedule fast path")
            command.add_argument("--network-latency", type=int,
                                 default=32, metavar="CYCLES",
                                 help="propagation latency of inter-"
                                      "device links")
            command.add_argument("--network-link-rate",
                                 action="append", default=None,
                                 metavar="SRC:DST[:FIELD]=RATE",
                                 dest="network_link_rates",
                                 help="per-link rate override "
                                      "(repeatable), e.g. b1:b3=1/2; "
                                      "wins over --network-words-per-"
                                      "cycle on the named edge")
            command.add_argument("--deadlock-window", type=int,
                                 default=256, metavar="CYCLES",
                                 help="consecutive zero-progress "
                                      "cycles before a deadlock is "
                                      "declared")
            command.add_argument("--trace", type=Path, default=None,
                                 metavar="FILE",
                                 help="enable telemetry and write a "
                                      "Chrome trace-event JSON of the "
                                      "lowering/simulation spans "
                                      "(open in Perfetto); also "
                                      "prints the engine profile")

    explore = sub.add_parser(
        "explore",
        help="sweep the mapping design space and rank configurations")
    explore.add_argument("--program", required=True, help=program_help)
    explore.add_argument("--shape", type=_parse_shape, default=None,
                         metavar="I,J,K",
                         help="override the iteration domain before "
                              "sweeping")
    explore.add_argument("--strategy", default="greedy",
                         choices=("greedy", "exhaustive"),
                         help="which surviving points to simulate: the "
                              "top of the analytic ranking (greedy "
                              "beam) or all of them")
    explore.add_argument("--beam", type=int, default=8,
                         help="beam width of the greedy strategy")
    explore.add_argument("--widths", type=_parse_int_list, default=None,
                         metavar="W,W,...",
                         help="vectorization widths to consider "
                              "(default: powers of two up to the "
                              "innermost extent)")
    explore.add_argument("--max-devices", type=int, default=4,
                         help="largest device count in the space")
    explore.add_argument("--rates", type=_parse_float_list,
                         default=(1.0,), metavar="R,R,...",
                         help="network link rates to consider")
    explore.add_argument("--latencies", type=_parse_int_list,
                         default=(32,), metavar="L,L,...",
                         help="network latencies to consider")
    explore.add_argument("--depths", type=_parse_int_list,
                         default=(8,), metavar="D,D,...",
                         help="minimum channel depths to consider")
    explore.add_argument("--canonicalize", default="off",
                         choices=("off", "on", "both"),
                         help="constant-folding transform axis: fixed "
                              "off/on, or sweep both settings")
    explore.add_argument("--fusion", default="off",
                         choices=("off", "on", "both"),
                         help="aggressive-fusion transform axis: fixed "
                              "off/on, or sweep both settings (points "
                              "whose transforms produce identical "
                              "programs share every lowered artifact)")
    explore.add_argument("--link-rate-set", action="append",
                         default=None, dest="link_rate_sets",
                         metavar="SRC:DST=R[,SRC:DST=R...]",
                         help="one per-edge rate-override set to "
                              "explore (repeatable; each use adds one "
                              "axis value on top of the no-override "
                              "default)")
    explore.add_argument("--seed", type=int, default=0,
                         help="random-input seed")
    explore.add_argument("--output", "-o", type=Path,
                         default=Path("explore_report.json"),
                         help="where to write the ranked JSON report")
    explore.add_argument("--cache", type=Path, default=None,
                         help="JSON result-cache file; loaded when "
                              "present, updated after the sweep "
                              "(defaults to the shared per-user cache "
                              "under ~/.cache/repro or "
                              "$REPRO_CACHE_DIR)")
    explore.add_argument("--no-cache-persist", action="store_true",
                         help="do not read or write the shared "
                              "persistent result cache (the sweep "
                              "still caches in-process; an explicit "
                              "--cache file is always honoured)")
    explore.add_argument("--deadlock-window", type=int, default=None,
                         metavar="CYCLES",
                         help="per-point deadlock-detection window "
                              "(default: the simulator's 256)")
    explore.add_argument("--checkpoint-every", type=int, default=16,
                         metavar="N",
                         help="write the persistent result cache "
                              "every N completed points, so a killed "
                              "sweep resumes from partial results")
    explore.add_argument("--metrics", type=Path, default=None,
                         metavar="FILE",
                         help="enable telemetry and write the metrics "
                              "snapshot (counters, gauges, histograms) "
                              "as JSON; a Chrome trace is written "
                              "alongside unless --trace names it")
    explore.add_argument("--trace", type=Path, default=None,
                         metavar="FILE",
                         help="enable telemetry and write a Chrome "
                              "trace-event JSON of the sweep's spans")

    serve = sub.add_parser(
        "serve",
        help="HTTP config-query service over the cached Pareto fronts")
    serve.add_argument("--host", default=None,
                       help="bind address (default: loopback)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--max-devices", type=int, default=2,
                       help="device budget of miss-triggered sweeps")
    serve.add_argument("--beam", type=int, default=4,
                       help="beam width of miss-triggered sweeps")
    serve.add_argument("--max-jobs", type=int, default=1,
                       help="background sweeps allowed at once")
    serve.add_argument("--no-query-log", action="store_true",
                       help="do not append answered queries to "
                            "the cache root's query log")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="leave the metrics registry disabled "
                            "(/v1/metricsz will be empty)")

    cache = sub.add_parser(
        "cache",
        help="inspect or clean the persistent cache root")
    cache_sub = cache.add_subparsers(dest="cache_command",
                                     required=True)
    cache_stats = cache_sub.add_parser(
        "stats",
        help="one line per kind of file, quarantine leftovers")
    cache_prune = cache_sub.add_parser(
        "prune",
        help="remove quarantined files and the derived kinds")
    cache_prune.add_argument("--all", action="store_true",
                             dest="prune_all",
                             help="also delete the primary kinds "
                                  "(result cache, report store, last "
                                  "explore metrics)")
    for sub_cmd in (cache_stats, cache_prune):
        sub_cmd.add_argument("--cache-dir", type=Path, default=None,
                             help="cache root to inspect (default: "
                                  "$REPRO_CACHE_DIR or "
                                  "~/.cache/repro)")

    sub.add_parser("list-programs",
                   help="list the bundled program catalog")
    return parser


def _parse_shape(text: str):
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shape {text!r} (expected e.g. 128,128,80)")
    if not shape or any(extent < 1 for extent in shape):
        raise argparse.ArgumentTypeError(
            f"invalid shape {text!r} (extents must be >= 1)")
    return shape


def _parse_int_list(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid list {text!r} (expected e.g. 1,2,4)")


def _parse_float_list(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid list {text!r} (expected e.g. 1.0,0.5)")


def _serve(args) -> int:
    """``repro serve``: block on the config-query HTTP endpoint."""
    from .serve import DEFAULT_HOST, DEFAULT_PORT, ServeConfig

    config = ServeConfig(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        max_devices=args.max_devices,
        beam_width=args.beam,
        max_concurrent_jobs=args.max_jobs,
        telemetry=not args.no_telemetry,
        query_log=not args.no_query_log)
    server = api.serve(config)
    print(f"repro serve listening on {server.url} "
          f"({len(server.index)} cached front(s); Ctrl-C to stop)")
    try:
        server.wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-programs":
            return _list_programs(args)
        if args.command == "cache":
            return _cache(args)
        if args.command == "serve":
            return _serve(args)
        program = api.resolve_program(args.program)
        handler = {
            "info": _info,
            "analyze": _analyze,
            "codegen": _codegen,
            "run": _run,
            "explore": _explore,
        }[args.command]
        return handler(program, args)
    except DeadlockError as exc:
        # One-paragraph forensics instead of a traceback: the wedge
        # is a property of the simulated design, not a CLI crash.
        print(exc.report.explain() if exc.report is not None
              else f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _info(program: StencilProgram, args) -> int:
    graph = StencilGraph(program)
    census = program_census(program)
    print(f"program {program.name!r}: {len(program.stencils)} stencils "
          f"over {program.shape}, W = {program.vectorization}")
    print(f"inputs: {', '.join(program.inputs)}")
    print(f"outputs: {', '.join(program.outputs)}")
    print(f"DAG depth: {graph.longest_path_length()}; "
          f"multi-tree: {graph.is_multitree()}")
    print(f"ops/cell: {census.flops} "
          f"({census.adds} add, {census.multiplies} mul, "
          f"{census.divides} div, {census.sqrts} sqrt)")
    print(f"arithmetic intensity: "
          f"{arithmetic_intensity_ops_per_byte(program):.3f} Op/B")
    return 0


def _analyze(program: StencilProgram, args) -> int:
    artifact = lower(program)
    analysis = artifact.analysis
    certificate = artifact.certificate()
    print(f"pipeline latency L = {analysis.pipeline_latency} cycles")
    print(f"fast memory: {analysis.fast_memory_bytes()} bytes")
    print(certificate.explain())
    print("internal buffers:")
    for name, buffering in analysis.internal.items():
        for field, buffer in buffering.buffers.items():
            print(f"  {name}.{field}: {buffer.size} elements "
                  f"({buffer.num_taps} taps)")
    print("delay buffers (non-zero):")
    for (src, dst, data), buffer in sorted(analysis.delay_buffers.items()):
        if buffer.size:
            print(f"  {src} -> {dst}: {buffer.size} words of {data}")
    report = model_performance(program)
    print(f"modeled: {report.gops:.1f} GOp/s at "
          f"{report.frequency_mhz:.0f} MHz "
          f"({report.resources.summary()})")
    return 0


def _codegen(program: StencilProgram, args) -> int:
    from .codegen import generate_package
    files = generate_package(program)
    args.output.mkdir(parents=True, exist_ok=True)
    for name, source in files.items():
        path = args.output / name
        path.write_text(source)
        print(f"wrote {path} ({len(source.splitlines())} lines)")
    return 0


def _run(program: StencilProgram, args) -> int:
    from .run import default_inputs
    from .simulator import (
        SimulatorConfig,
        resolve_engine_mode,
        resolve_link_rates,
    )

    if args.shape is not None:
        program = program.with_shape(args.shape)
    inputs = default_inputs(program, args.seed)

    link_rates = None
    if args.network_link_rates:
        link_rates = resolve_link_rates(program,
                                        args.network_link_rates)
    config = SimulatorConfig(
        engine_mode=args.engine,
        network_words_per_cycle=args.network_words_per_cycle,
        network_latency=args.network_latency,
        network_link_rates=link_rates,
        deadlock_window=args.deadlock_window)

    if args.trace is not None:
        from . import obs
        obs.enable()

    session = api.session(program)
    device_of = None
    if args.devices > 1 or args.partition != "contiguous":
        device_of = session.placement(args.partition, args.devices)
    from .obs import span
    with span("run.simulate", program=program.name,
              engine=args.engine):
        result = session.run(inputs, config=config,
                             device_of=device_of)
    sim = result.simulation
    devices = 1 + max(device_of.values()) if device_of else 1
    # The profile names the engine that actually ran.
    executed = (sim.profile.engine if sim.profile is not None
                else resolve_engine_mode(config))
    print(f"engine: {executed} "
          f"({devices} device{'s' if devices != 1 else ''}, "
          f"{args.partition} placement, "
          f"link rate {args.network_words_per_cycle:g} words/cycle)")
    if link_rates:
        from .lowering import graph_for, remote_edges
        remote = set(remote_edges(graph_for(program),
                                  device_of or {}))
        parts = []
        for (src, dst, data), rate in sorted(link_rates.items()):
            tag = "" if (src, dst, data) in remote \
                else " (local edge: no link, inactive)"
            parts.append(
                f"{src.split(':', 1)[-1]}->{dst.split(':', 1)[-1]}"
                f":{data}={rate:g}{tag}")
        print(f"link-rate overrides: {', '.join(parts)}")
    print(f"simulated {sim.cycles} cycles "
          f"(Eq. 1 model: {sim.expected_cycles}, "
          f"ratio {sim.model_accuracy:.3f})")
    print(f"continuous output: {all(sim.output_continuous.values())}")
    print(f"validated against reference: {result.validated}")
    if args.trace is not None:
        from .obs import spans, write_chrome_trace
        if sim.profile is not None:
            for line in sim.profile.summary_lines():
                print(line)
        write_chrome_trace(args.trace, spans.tracer().records())
        print(f"wrote trace {args.trace} "
              f"({len(spans.tracer().records())} spans; open in "
              f"Perfetto / chrome://tracing)")
    return 0 if result.validated else 1


def _parse_transform_axis(setting: str):
    return {"off": (False,), "on": (True,),
            "both": (False, True)}[setting]


#: Signals an interrupted sweep converts into a clean checkpoint-and-
#: exit: the conventional shell exit code is ``128 + signum`` (130 for
#: SIGINT, 143 for SIGTERM).
_INTERRUPT_SIGNALS = tuple(
    sig for sig in (getattr(signal, "SIGINT", None),
                    getattr(signal, "SIGTERM", None))
    if sig is not None)


def _install_interrupt_handlers():
    """Route SIGINT/SIGTERM through :class:`SweepInterrupted`.

    ``SweepInterrupted`` derives from ``BaseException``, so it
    punches straight through the sweep's per-point retry machinery
    (which catches ``Exception``) and through the ``ReproError``
    exit-2 path; ``explore()`` checkpoints the result cache on its
    way out.  Returns the previous handlers for the paired
    :func:`_restore_interrupt_handlers`; returns ``None`` (and
    installs nothing) off the main thread, where CPython forbids
    ``signal.signal``.
    """
    def raise_interrupt(signum, frame):
        raise SweepInterrupted(signum)

    previous = {}
    try:
        for sig in _INTERRUPT_SIGNALS:
            previous[sig] = signal.signal(sig, raise_interrupt)
    except ValueError:  # not the main thread
        _restore_interrupt_handlers(previous)
        return None
    return previous


def _restore_interrupt_handlers(previous):
    if not previous:
        return
    for sig, handler in previous.items():
        try:
            signal.signal(sig, handler)
        except (ValueError, TypeError):
            pass


def _explore(program: StencilProgram, args) -> int:
    from .explore import ConfigSpace
    from .simulator import parse_link_rate_spec

    if args.shape is not None:
        program = program.with_shape(args.shape)
    default = ConfigSpace.default_for(program,
                                      max_devices=args.max_devices)
    link_rate_sets = [()]
    for entry in args.link_rate_sets or ():
        overrides = []
        for spec in entry.split(","):
            src, dst, data, rate = parse_link_rate_spec(spec)
            edge = f"{src}:{dst}" + (f":{data}" if data else "")
            overrides.append((edge, rate))
        link_rate_sets.append(tuple(overrides))
    telemetry = args.metrics is not None or args.trace is not None
    if telemetry:
        from . import obs
        obs.enable()
    space = ConfigSpace(
        vectorizations=(tuple(args.widths) if args.widths
                        else default.vectorizations),
        device_counts=default.device_counts,
        partitions=default.partitions,
        network_rates=tuple(args.rates),
        network_latencies=tuple(args.latencies),
        channel_depths=tuple(args.depths),
        canonicalizations=_parse_transform_axis(args.canonicalize),
        fusions=_parse_transform_axis(args.fusion),
        link_rate_sets=tuple(dict.fromkeys(link_rate_sets)),
    )
    previous = _install_interrupt_handlers()
    try:
        report = api.explore(program, space=space,
                             strategy=args.strategy,
                             beam_width=args.beam, seed=args.seed,
                             persist=(args.cache is not None
                                      or not args.no_cache_persist),
                             cache_path=args.cache,
                             deadlock_window=args.deadlock_window,
                             checkpoint_every=args.checkpoint_every)
    except SweepInterrupted as exc:
        # explore() already wrote a final checkpoint of the result
        # cache on its way out; report the conventional signal exit
        # code (130 for SIGINT, 143 for SIGTERM) instead of dying
        # with a traceback.
        print(f"interrupted by signal {exc.signum}; partial results "
              f"checkpointed to the persistent cache (re-run to "
              f"resume)", file=sys.stderr)
        return 128 + exc.signum
    finally:
        _restore_interrupt_handlers(previous)
    print("\n".join(report.summary_lines()))
    report.save(args.output)
    print(f"wrote {args.output} ({report.total_points} points, "
          f"{report.simulated_points} simulated, "
          f"{report.cache_hits} cache hits, "
          f"{report.relowered_programs} analyses built)")
    if telemetry:
        _export_explore_telemetry(args)
    return 0


def _export_explore_telemetry(args):
    """Write the sweep's metrics snapshot and Chrome trace.

    ``--metrics out.json`` alone produces both: the trace lands next
    to it as ``out.trace.json``.  A copy of the snapshot is kept in the
    store so ``repro cache stats`` can show the last instrumented sweep.
    """
    from .faults import store
    from .obs import metrics, spans, write_chrome_trace

    if args.metrics is not None:
        metrics.registry().save(args.metrics)
        print(f"wrote metrics {args.metrics}")
    trace_path = args.trace
    if trace_path is None and args.metrics is not None:
        trace_path = args.metrics.with_name(
            args.metrics.stem + ".trace.json")
    if trace_path is not None:
        records = spans.tracer().records()
        write_chrome_trace(trace_path, records)
        print(f"wrote trace {trace_path} ({len(records)} spans; "
              f"open in Perfetto / chrome://tracing)")
    try:
        store.write_json_atomic(store.TELEMETRY.path(),
                                metrics.snapshot(), fsync=False)
    except OSError:
        pass  # the cache-root copy is a convenience, never an error


def _cache(args) -> int:
    """``repro cache stats|prune``: one pass over the store's kinds."""
    from .faults import store

    root = store.cache_root(args.cache_dir)
    if args.cache_command == "stats":
        print(f"cache root: {root}")
        for kind in store.KINDS:
            print(f"  {kind.describe(root)}")
        # Listed last: reading a corrupt file above quarantined it.
        quarantine = store.quarantined(root)
        print(f"  quarantined files: {len(quarantine)}")
        for path in quarantine:
            print(f"    {path}")
        return 0

    # prune: quarantine leftovers and the derived kinds always, the
    # primary kinds only with --all.
    targets = store.quarantined(root) + [
        path for kind in store.KINDS if kind.derived or args.prune_all
        for path in kind.members(root)]
    removed = 0
    for path in targets:
        try:
            path.unlink()
        except OSError as exc:
            print(f"could not remove {path}: {exc}", file=sys.stderr)
            continue
        removed += 1
        print(f"removed {path}")
    for kind in store.KINDS:  # a kind's directory goes once it is empty
        if kind.subdir:
            with contextlib.suppress(OSError):
                kind.dir(root).rmdir()
    print(f"pruned {removed} path(s)")
    return 0


def _list_programs(args) -> int:
    alias_of = {}
    for alias, target in ALIASES.items():
        alias_of.setdefault(target, []).append(alias)
    print("bundled programs:")
    for name in available_programs():
        program = build(name)
        aliases = alias_of.get(name)
        alias_text = f" (alias: {', '.join(sorted(aliases))})" \
            if aliases else ""
        shape = "x".join(str(e) for e in program.shape)
        print(f"  {name:<22} {shape:>12}  "
              f"{len(program.stencils):>2} stencils, "
              f"{len(program.outputs)} output"
              f"{'s' if len(program.outputs) != 1 else ''}"
              f"{alias_text}")
    print("any 'run'/'info'/'analyze'/'codegen'/'explore' command "
          "accepts these names in place of a JSON file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
