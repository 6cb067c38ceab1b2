"""The staged lowering pipeline (Fig. 13 as composable passes).

One :func:`lower` call takes a stencil program through the same staged
flow every entry point used to hand-roll — validate → canonicalize →
fusion → vectorize → partition → buffering analysis → simulator
compile — with every stage's product stored in the
content-addressed :class:`~repro.lowering.cache.ArtifactCache`.  The
Session, the simulation engine, the design-space explorer, and the CLI
all request artifacts here, so identical lowered programs are analyzed
exactly once per process no matter who asks (and measurements keyed by
the same content hashes persist across processes through the explore
result cache).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..analysis.delay_buffers import (
    BufferingAnalysis,
    analyze_buffers,
    with_edge_latency,
)
from ..core.program import StencilProgram
from ..errors import ValidationError
from ..graph.dag import StencilGraph, node_device
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..obs import span
from ..transforms.canonicalize import fold_program
from ..transforms.stencil_fusion import aggressive_fusion
from .cache import ArtifactCache, content_key, default_cache

ChannelKey = Tuple[str, str, str]

#: Placement strategies the partition stage accepts.
PLACEMENT_STRATEGIES = ("contiguous", "auto")


def freeze_placement(device_of: Optional[Mapping[str, int]]
                     ) -> Optional[Tuple[Tuple[str, int], ...]]:
    """A hashable, order-independent form of an explicit placement."""
    if not device_of:
        return None
    return tuple(sorted(device_of.items()))


def remote_edges(graph: StencilGraph,
                 device_of: Mapping[str, int]) -> Tuple[ChannelKey, ...]:
    """The edges that become network links under ``device_of`` —
    the single definition of the remote-edge rule: *any* edge whose
    ends resolve to different devices, input→stencil edges included.
    The partition stage, pricing and the simulator's machine
    description (``describe_machine``) read it: one set of links."""
    if not any(device_of.values()):  # everything on device 0
        return ()
    return tuple(
        (edge.src, edge.dst, edge.data) for edge in graph.edges
        if node_device(graph, edge.src, device_of)
        != node_device(graph, edge.dst, device_of))


def program_content_hash(program: StencilProgram,
                         normalize_width: bool = False) -> str:
    """Content address of a program (a fact it derives once:
    :attr:`StencilProgram.content_hash`); with ``normalize_width``
    the *family* hash, which normalizes the vectorization to 1."""
    return program.family_hash if normalize_width \
        else program.content_hash


@dataclass(frozen=True)
class LoweringConfig:
    """What the pipeline should do to a program.

    Transform knobs (``canonicalize``/``fusion``/``vectorization``)
    change the program itself; mapping knobs
    (``placement``/``devices``/``device_of``/``network_latency``)
    change how it lands on devices and therefore the buffering
    analysis.  Everything is hashable and JSON-stable: the config is
    part of every artifact's content address.
    """

    canonicalize: bool = False
    fusion: bool = False
    vectorization: Optional[int] = None
    placement: Optional[str] = None
    devices: int = 1
    device_of: Optional[Tuple[Tuple[str, int], ...]] = None
    network_latency: int = 32

    def __post_init__(self):
        if self.placement is not None and \
                self.placement not in PLACEMENT_STRATEGIES:
            raise ValidationError(
                f"unknown partition strategy {self.placement!r} "
                f"(expected one of {', '.join(PLACEMENT_STRATEGIES)})")
        if self.placement is not None and self.device_of is not None:
            raise ValidationError(
                "pass either a placement strategy or an explicit "
                "device_of, not both")
        if self.devices < 1:
            raise ValidationError(
                f"device count must be >= 1, got {self.devices}")

    def placement_signature(self) -> list:
        """The config slice the partition stage depends on.

        Only consulted when the stage is active (a strategy or an
        explicit placement is set); configs without a placement skip
        the stage entirely, which is how single-device lowerings share
        artifacts regardless of the latency value.
        """
        return [self.placement, self.devices,
                [list(item) for item in self.device_of]
                if self.device_of else None,
                self.network_latency]


@dataclass
class _State:
    """Mutable working set threaded through the passes."""

    source: StencilProgram
    config: LoweringConfig
    platform: FPGAPlatform
    cache: ArtifactCache
    program: Optional[StencilProgram] = None
    chain_key: str = ""
    source_hash: str = ""
    program_hash: str = ""
    device_of: Optional[Dict[str, int]] = None
    edge_latency: Optional[Dict[ChannelKey, int]] = None


class Pass(ABC):
    """One named stage of the lowering pipeline.

    A pass declares the configuration slice it depends on
    (:meth:`signature`; ``None`` marks the pass inactive, an identity)
    and produces its artifact through the cache, keyed by the chain of
    signatures that led to it.
    """

    name: str = "pass"

    @abstractmethod
    def signature(self, config: LoweringConfig):
        """JSON-able config slice, or ``None`` when the pass is a
        no-op for this config."""

    @abstractmethod
    def apply(self, state: _State):
        """Produce the pass's artifact into ``state``."""

    def run(self, state: _State):
        sig = self.signature(state.config)
        if sig is None:
            return
        state.chain_key = content_key(self.name, state.chain_key, sig)
        # A cache-served stage still gets its span — a near-zero
        # duration is exactly how an incremental re-lower should look
        # in the trace.
        with span(f"lowering.{self.name}",
                  program=getattr(state.program, "name", None)):
            self.apply(state)


class _TransformPass(Pass):
    """Base for program→program stages, cached on the signature chain."""

    def apply(self, state: _State):
        program = state.program
        state.program = state.cache.get_or_build(
            state.chain_key, lambda: self.transform(program, state))

    @abstractmethod
    def transform(self, program: StencilProgram,
                  state: _State) -> StencilProgram:
        ...


class ValidatePass(Pass):
    """Parse/validate: accept a program object, JSON dict, or path."""

    name = "validate"

    def signature(self, config):
        return []

    def apply(self, state: _State):
        source = state.source
        if isinstance(source, StencilProgram):
            # Construction already validated it (``__post_init__``).
            state.program = source
        elif isinstance(source, Mapping):
            state.program = StencilProgram.from_json(source)
        else:
            state.program = StencilProgram.from_json_file(source)
        state.source = state.program
        state.source_hash = state.program.content_hash
        state.chain_key = content_key("source", state.source_hash)


class CanonicalizePass(_TransformPass):
    """Constant folding (the paper's dataflow cleanup)."""

    name = "canonicalize"

    def signature(self, config):
        return [] if config.canonicalize else None

    def transform(self, program, state):
        return fold_program(program)


class FusionPass(_TransformPass):
    """Aggressive stencil fusion (the paper's benchmark setting)."""

    name = "fusion"

    def signature(self, config):
        return [] if config.fusion else None

    def transform(self, program, state):
        return aggressive_fusion(program)


class VectorizePass(_TransformPass):
    name = "vectorize"

    def signature(self, config):
        return config.vectorization \
            if config.vectorization is not None else None

    def transform(self, program, state):
        return program.with_vectorization(state.config.vectorization)


class FingerprintPass(Pass):
    """Rekey the pipeline on the *content* of the transformed program.

    Everything downstream (placement, analysis, simulation
    measurements) is addressed by what the program *is*, not by which
    transform chain produced it — so a fusion axis whose on/off points
    collapse to the same program shares every later artifact.
    """

    name = "fingerprint"

    def signature(self, config):
        return []

    def apply(self, state: _State):
        state.program_hash = state.program.content_hash
        state.chain_key = state.program_hash


class PartitionPass(Pass):
    """Resolve the placement and the link latencies it implies."""

    name = "partition"

    def signature(self, config):
        if config.placement is None and config.device_of is None:
            return None
        return config.placement_signature()

    def apply(self, state: _State):
        config = state.config
        if config.device_of is not None:
            device_of = dict(config.device_of)
            remote = remote_edges(graph_for(
                state.program, state.program_hash, state.cache), device_of)
        else:
            partition = placement_for(
                state.program, config.placement, config.devices,
                state.platform, state.program_hash, state.cache)
            device_of = dict(partition.device_of)
            remote = partition.remote_edges
        state.device_of = device_of
        state.edge_latency = dict.fromkeys(remote, config.network_latency)


#: The standard pipeline, in stage order.  ``buffering`` and
#: ``sim-compile`` are demand-driven stages living on
#: :func:`analysis_for` / :func:`compiled_stencil`; they share the
#: same cache and keying.
PIPELINE_STAGES: Tuple[str, ...] = (
    "validate", "canonicalize", "fusion", "vectorize",
    "fingerprint", "partition", "buffering", "sim-compile")


class PassManager:
    """Runs an ordered pass list over one program + config."""

    def __init__(self, passes: Optional[Sequence[Pass]] = None):
        self.passes: Tuple[Pass, ...] = tuple(passes) if passes else (
            ValidatePass(), CanonicalizePass(),
            FusionPass(), VectorizePass(), FingerprintPass(),
            PartitionPass())

    def run(self, source, config: LoweringConfig,
            platform: FPGAPlatform, cache: ArtifactCache) -> _State:
        state = _State(source=source, config=config, platform=platform,
                       cache=cache)
        for stage in self.passes:
            stage.run(state)
        return state


_MANAGER = PassManager()


def _latency_items(edge_latency) -> list:
    return sorted([list(k), v] for k, v in (edge_latency or {}).items())


def graph_for(program: StencilProgram,
              program_hash: Optional[str] = None,
              cache: Optional[ArtifactCache] = None) -> StencilGraph:
    """The program's stencil DAG, shared through the artifact cache."""
    cache = default_cache() if cache is None else cache
    program_hash = program_hash or program.content_hash
    return cache.get_or_build(content_key("graph", program_hash),
                              lambda: StencilGraph(program))


@lru_cache(maxsize=64)
def platform_content_key(platform: FPGAPlatform) -> str:
    """A platform's content address, hashed once per distinct platform:
    the ``auto`` strategy packs against its resource vectors, and two
    platforms may share a name but not a shell."""
    return content_key("platform", asdict(platform))


def placement_for(program: StencilProgram, strategy: str, devices: int,
                  platform: FPGAPlatform, program_hash: str,
                  cache: ArtifactCache):
    """The ``strategy`` :class:`~repro.distributed.partition.Partition`
    of ``program`` over at most ``devices`` devices (kind
    ``placement``)."""
    def build():
        from ..distributed.partition import (
            contiguous_device_split,
            partition_fixed,
            partition_program,
        )
        if strategy == "contiguous":
            return partition_fixed(
                program, contiguous_device_split(program, devices),
                graph_for(program, program_hash, cache))
        return partition_program(
            program, platform, max_devices=devices,
            analysis=analysis_for(program, program_hash=program_hash,
                                  cache=cache))

    return cache.get_or_build(content_key(
        "placement", platform_content_key(platform), program_hash,
        strategy, devices), build)


def analysis_for(program: StencilProgram,
                 edge_latency: Optional[Mapping[ChannelKey, int]] = None,
                 latency_model=None,
                 graph: Optional[StencilGraph] = None,
                 program_hash: Optional[str] = None,
                 cache: Optional[ArtifactCache] = None
                 ) -> BufferingAnalysis:
    """The buffering analysis of ``program``, content-cached.

    This is the single analysis entry point of the codebase: every
    consumer (Session, engine, explorer, codegen, perf/resource
    models, partitioner) requests analyses here, so identical
    (program, edge-latency) pairs are analyzed once per process.
    Passing a custom ``latency_model`` or a pre-built ``graph``
    bypasses the cache (their identity is not content-addressable).
    An edge-latency analysis reuses the program's analysis without
    edge latency (:func:`with_edge_latency`).
    """
    if latency_model is not None or graph is not None:
        return analyze_buffers(program, latency_model=latency_model,
                               graph=graph, edge_latency=dict(
                                   edge_latency or {}) or None)
    cache = default_cache() if cache is None else cache
    program_hash = program_hash or program.content_hash
    edge_latency = dict(edge_latency or {}) or None
    key = content_key("analysis", program_hash,
                      _latency_items(edge_latency))

    def build():
        if edge_latency:
            return with_edge_latency(analysis_for(
                program, program_hash=program_hash, cache=cache),
                edge_latency)
        return analyze_buffers(
            program, graph=graph_for(program, program_hash, cache))

    with span("lowering.buffering", program=program.name):
        return cache.get_or_build(key, build)


def compiled_stencil(ast, mode: str = "cell", code: Optional[str] = None):
    """The simulator-compile stage: one compiled callable per
    (expression, mode), shared across every machine construction.

    ``code`` is the expression's canonical text where the caller holds
    it already (``StencilDefinition.canonical_code``, derived once per
    frozen definition); without it every lookup re-prints the AST."""
    from ..simulator.compile import compile_stencil
    cache = default_cache()
    if code is None:
        from ..expr.ast_nodes import unparse
        code = unparse(ast)
    key = content_key("compile", mode, code)
    with span("lowering.sim-compile", mode=mode):
        return cache.get_or_build(key,
                                  lambda: compile_stencil(ast, mode))


@dataclass
class LoweredProgram:
    """The pipeline's product: a program plus its mapping artifacts.

    Transform and placement stages run eagerly (they are cheap and
    define the identity); the buffering analysis and the deadlock
    certificate are demand-driven properties that fill through the
    shared cache on first access.
    """

    program: StencilProgram
    config: LoweringConfig
    platform: FPGAPlatform
    source_hash: str
    program_hash: str
    device_of: Optional[Dict[str, int]]
    edge_latency: Optional[Dict[ChannelKey, int]]
    cache: ArtifactCache = field(repr=False, default_factory=default_cache)

    @property
    def family_hash(self) -> str:
        """Content hash modulo vectorization (measurement-cache
        identity)."""
        return self.program.family_hash

    @property
    def key(self) -> str:
        """Content address of the lowered artifact (through buffering)."""
        return content_key("lowered", self.program_hash,
                           _latency_items(self.edge_latency))

    @property
    def analysis(self) -> BufferingAnalysis:
        return analysis_for(self.program, self.edge_latency,
                            program_hash=self.program_hash,
                            cache=self.cache)

    def certificate(self):
        """Deadlock-freedom certificate of the analysis (Sec. IV-B)."""
        from ..analysis.deadlock import certify_analysis
        analysis = self.analysis
        return self.cache.get_or_build(
            content_key("certificate", self.key),
            lambda: certify_analysis(analysis))


def lower(program, config: Optional[LoweringConfig] = None,
          platform: FPGAPlatform = STRATIX10,
          cache: Optional[ArtifactCache] = None) -> LoweredProgram:
    """Run the lowering pipeline; the single entry point of the flow.

    ``program`` may be a :class:`StencilProgram`, a JSON mapping, or a
    path to a JSON description.  Returns a :class:`LoweredProgram`
    whose expensive artifacts materialize lazily through the shared
    content-addressed cache.
    """
    config = config or LoweringConfig()
    cache = default_cache() if cache is None else cache
    state = _MANAGER.run(program, config, platform, cache)
    return LoweredProgram(
        program=state.program,
        config=config,
        platform=platform,
        source_hash=state.source_hash,
        program_hash=state.program_hash,
        device_of=state.device_of or None,
        edge_latency=state.edge_latency or None,
        cache=cache,
    )
