"""The stable public facade of the reproduction.

One module, five verbs::

    from repro import api

    program = api.resolve_program("hdiff", shape=(64, 64, 32))
    artifact = api.lower(program)                      # analyses
    result   = api.run("hdiff", seed=0)                # simulate+validate
    report   = api.explore("hdiff", max_devices=2)     # design-space sweep
    answer   = api.query("hdiff")                      # cached-front probe
    server   = api.serve(port=0)                       # HTTP endpoint

Everything the CLI (:mod:`repro.cli`) and the HTTP service
(:mod:`repro.serve`) do routes through these functions, so scripts,
the shell, and the network surface share one behavior.  Deep imports
(``repro.run.session``, ``repro.explore.explorer``, ...) keep working
but are no longer the supported entry points; this module's signatures
are the compatibility contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .core import StencilProgram
from .errors import ParseError, ReproError, ValidationError
from .hardware import ARRIA10, FPGAPlatform, STRATIX10

#: Version of this facade.  Bumped on breaking signature changes;
#: the serve wire protocol carries its own ``schema_version``.
API_VERSION = 1

#: Named hardware descriptors :func:`resolve_platform` accepts, beyond
#: full descriptor names ("BittWare 520N (Stratix 10 GX 2800)", ...).
PLATFORM_ALIASES = {
    "stratix10": STRATIX10,
    "s10": STRATIX10,
    "arria10": ARRIA10,
    "a10": ARRIA10,
}

ProgramLike = Union[str, Mapping, StencilProgram]
PlatformLike = Union[None, str, FPGAPlatform]


# -- resolution ---------------------------------------------------------------

def resolve_program(program: ProgramLike,
                    shape: Optional[Sequence[int]] = None
                    ) -> StencilProgram:
    """Turn any program designation into a :class:`StencilProgram`.

    Accepts a catalog name or alias (``"hdiff"``), a path to a JSON
    description, an inline JSON mapping, or an already-built program.
    A string that names a file on disk, or looks like a path, is read
    as a JSON description; any other string goes through the catalog,
    whose unknown-name errors suggest close matches.  ``shape`` (when
    given) overrides the iteration domain.
    """
    if isinstance(program, StencilProgram):
        resolved = program
    elif isinstance(program, Mapping):
        resolved = StencilProgram.from_json(program)
    elif isinstance(program, str):
        resolved = _program_from_string(program)
    else:
        raise ParseError(
            f"cannot resolve a program from {type(program).__name__} "
            f"(expected a name, path, JSON mapping, or "
            f"StencilProgram)")
    if shape is not None:
        resolved = resolved.with_shape(tuple(shape))
    return resolved


def _program_from_string(spec: str) -> StencilProgram:
    path = Path(spec)
    if path.is_file() or spec.endswith(".json") or "/" in spec:
        try:
            return StencilProgram.from_json_file(path)
        except ReproError:
            raise
        except Exception as exc:
            # Missing file, malformed JSON, ...: normalize onto the
            # library hierarchy so callers (and the CLI's exit-2
            # diagnostic path) handle it like any other user error.
            raise ParseError(f"could not read program {spec!r}: {exc}")
    from .programs import build
    return build(spec)


def resolve_platform(platform: PlatformLike) -> FPGAPlatform:
    """Turn a hardware designation into an :class:`FPGAPlatform`.

    Accepts ``None`` (the paper's Stratix 10 board), a platform
    object, a short alias (``"stratix10"``, ``"arria10"``), or a full
    descriptor name as stored in reports.
    """
    if platform is None:
        return STRATIX10
    if isinstance(platform, FPGAPlatform):
        return platform
    if isinstance(platform, str):
        alias = PLATFORM_ALIASES.get(
            platform.lower().replace(" ", "").replace("-", ""))
        if alias is not None:
            return alias
        for candidate in (STRATIX10, ARRIA10):
            if candidate.name == platform:
                return candidate
        raise ValidationError(
            f"unknown platform {platform!r} (expected one of "
            f"{sorted(PLATFORM_ALIASES)} or a full descriptor name)")
    raise ValidationError(
        f"cannot resolve a platform from {type(platform).__name__}")


# -- the five verbs -----------------------------------------------------------

def lower(program: ProgramLike, config=None, *,
          shape: Optional[Sequence[int]] = None,
          platform: PlatformLike = None, **kwargs):
    """Lower a program: transforms, placement, buffering analysis.

    Returns the shared :class:`~repro.lowering.LoweredProgram`
    artifact (content-addressed and cached process-wide).
    """
    from .lowering import lower as lower_program
    resolved = resolve_program(program, shape=shape)
    return lower_program(resolved, config,
                         platform=resolve_platform(platform), **kwargs)


def session(program: ProgramLike, *,
            shape: Optional[Sequence[int]] = None,
            platform: PlatformLike = None, **kwargs):
    """Build a :class:`~repro.run.Session` (the stateful multi-call
    handle behind :func:`run`)."""
    from .run import Session
    return Session(resolve_program(program, shape=shape),
                   platform=resolve_platform(platform), **kwargs)


def run(program: ProgramLike,
        inputs: Optional[Mapping] = None, *,
        seed: int = 0,
        shape: Optional[Sequence[int]] = None,
        platform: PlatformLike = None,
        canonicalize: bool = False,
        lowering=None,
        **run_kwargs):
    """Simulate a program and validate against the reference.

    ``inputs`` defaults to seeded random arrays
    (:func:`repro.run.default_inputs`).  Remaining keyword
    arguments go to :meth:`repro.run.Session.run` (``config``,
    ``engine_mode``, ``partition``, ``devices``, ``device_of``,
    ``validate``, tolerances).
    """
    from .run import Session
    resolved = resolve_program(program, shape=shape)
    if inputs is None:
        from .run import default_inputs
        inputs = default_inputs(resolved, seed)
    session_kwargs = {}
    if lowering is not None:
        session_kwargs["lowering"] = lowering
    handle = Session(resolved, platform=resolve_platform(platform),
                     canonicalize=canonicalize, **session_kwargs)
    return handle.run(inputs, **run_kwargs)


def explore(program: ProgramLike, *,
            shape: Optional[Sequence[int]] = None,
            platform: PlatformLike = None,
            **kwargs):
    """Sweep a program's mapping design space and rank what survives.

    Delegates to :func:`repro.explore.explore`; keyword arguments are
    that function's (``space``, ``strategy``, ``beam_width``,
    ``backend``, ``persist``, ...).  With ``persist=True`` (the
    default) the ranked report also lands in the report store that
    feeds :func:`query` and ``repro serve``.
    """
    from .explore import explore as run_explore
    resolved = resolve_program(program, shape=shape)
    return run_explore(resolved, platform=resolve_platform(platform),
                       **kwargs)


# -- the query surface (shared by Python callers and repro serve) -------------

#: Lazily-built default frontier index for in-process :func:`query`
#: callers (the server builds and owns its own).
_default_index = None
_default_index_lock = None


def _get_default_index():
    global _default_index, _default_index_lock
    import threading
    if _default_index_lock is None:
        _default_index_lock = threading.Lock()
    with _default_index_lock:
        if _default_index is None:
            from .serve import FrontierIndex
            _default_index, _ = FrontierIndex.warm_load()
        return _default_index


def reset_query_index() -> None:
    """Drop the process-wide default index (tests; cache-dir changes)."""
    global _default_index
    _default_index = None


def query(program: ProgramLike, *,
          shape: Optional[Sequence[int]] = None,
          platform: PlatformLike = None,
          pareto: bool = False,
          index=None,
          jobs=None) -> Optional[dict]:
    """Answer "best configuration for (program, shape, hardware)?"
    from the cached Pareto fronts — never lowering, never simulating.

    Returns a serve-schema response dict: kind ``"best"`` or
    ``"pareto"`` on a hit (with ``lookup_seconds``, the index-probe
    latency), kind ``"miss"`` when ``jobs`` is given (a bounded sweep
    is enqueued), or ``None`` on a miss without a job manager.

    ``index`` defaults to a process-wide
    :class:`~repro.serve.FrontierIndex` warm-loaded on first use.
    """
    entry, elapsed, miss = _probe(program, shape, platform, index, jobs)
    if entry is None:
        return miss
    return entry.response("pareto" if pareto else "best", elapsed)


def _probe(program: ProgramLike, shape, platform: PlatformLike, index,
           jobs):
    """The one query path of :func:`query` and the HTTP handler:
    ``(front, probe seconds, miss reply)``.  The front is ``None`` on
    a miss; the miss reply is ``None`` unless a sweep was enqueued on
    ``jobs``."""
    from .obs import clock, metrics
    from .serve.schema import miss_response
    if index is None:
        index = _get_default_index()
    platform_obj = resolve_platform(platform)
    shape_tuple = tuple(shape) if shape is not None else None
    start = clock.now()
    entry, key = index.locate(program, shape_tuple, platform_obj.name)
    elapsed = clock.now() - start
    metrics.histogram("serve.lookup_seconds").observe(elapsed)
    if entry is not None:
        metrics.counter("serve.query_hits").inc()
        return entry, elapsed, None
    metrics.counter("serve.query_misses").inc()
    if jobs is None or key is None:
        return None, elapsed, None
    job, _created = jobs.enqueue(program, shape_tuple, platform_obj,
                                 key)
    return None, elapsed, miss_response(job)


# -- the service --------------------------------------------------------------

def serve(config=None, **overrides):
    """Start the config-query HTTP service on a background thread.

    Returns the running :class:`~repro.serve.ReproServer` (``.url``,
    ``.port``, ``.close()``).  Keyword arguments are
    :class:`~repro.serve.ServeConfig` fields (``host``, ``port``,
    ``backend``, ``max_concurrent_jobs``, ...).
    """
    from .serve import ReproServer
    return ReproServer(config, **overrides).start()


__all__ = [
    "API_VERSION",
    "PLATFORM_ALIASES",
    "explore",
    "lower",
    "query",
    "reset_query_index",
    "resolve_platform",
    "resolve_program",
    "run",
    "serve",
    "session",
]
