"""End-to-end sessions: the full workflow of Fig. 13 in one object.

A :class:`Session` takes a stencil program through parsing/validation,
dependency and buffering analysis, optional canonicalization
(fusion), SDFG generation, code generation, simulated hardware
execution, and validation of results against the sequential reference —
the same steps the paper's stack performs transparently when running a
program from its input description (Sec. VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

import numpy as np

from ..analysis.delay_buffers import BufferingAnalysis
from ..codegen import generate_package
from ..core.program import StencilProgram
from ..distributed.partition import (
    Partition,
    contiguous_device_split,
    partition_program,
)
from ..errors import ValidationError
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..lowering import LoweredProgram, LoweringConfig, lower
from ..perf.pipeline import PerformanceReport, model_performance
from ..sdfg.graph import SDFG
from ..simulator.engine import (
    SimulationResult,
    Simulator,
    SimulatorConfig,
    simulate,
)
from .reference import FieldResult, run_reference


@dataclass
class RunResult:
    """Outcome of a session run.

    Attributes:
        outputs: program outputs from the simulated hardware.
        simulation: the cycle-level simulation record.
        reference: the sequential reference results (all stencils).
        validated: True when hardware output matched the reference on
            every output's valid region.
    """

    outputs: Dict[str, np.ndarray]
    simulation: SimulationResult
    reference: Dict[str, FieldResult]
    validated: bool


class Session:
    """Drives one stencil program through the full stack.

    Args:
        program: the stencil program (or a JSON dict / path handled by
            :meth:`from_json` / :meth:`from_file`).
        platform: modeled target device.
        canonicalize: apply constant folding + aggressive stencil fusion
            before mapping (the paper's benchmark setting); shorthand
            for a :class:`~repro.lowering.LoweringConfig` with both
            transform passes enabled.
        lowering: explicit pipeline configuration (transform knobs);
            ``canonicalize=True`` overlays the two transform passes on
            top of it.

    All pipeline stages route through :func:`repro.lowering.lower`, so
    analyses, SDFGs, and compiled stencils are shared with every other
    consumer (CLI, explorer, direct ``simulate`` calls) through the
    process-wide content-addressed artifact cache.
    """

    def __init__(self, program: StencilProgram,
                 platform: FPGAPlatform = STRATIX10,
                 canonicalize: bool = False,
                 lowering: Optional[LoweringConfig] = None):
        config = lowering or LoweringConfig()
        if config.placement is not None or \
                config.device_of is not None:
            # The session's artifacts (analysis, SDFG, performance)
            # would describe a multi-device machine while run() picks
            # its placement per call — reject rather than let the two
            # silently diverge.
            raise ValidationError(
                "Session lowering config must not carry a placement; "
                "choose one per execution via run(partition=...) / "
                "run(device_of=...) or Session.placement()")
        if canonicalize:
            config = replace(config, canonicalize=True, fusion=True)
        self.lowering_config = config
        self.platform = platform
        self._lowered = lower(program, config, platform=platform)
        self.program = self._lowered.program
        self._certified = False
        self._explore_cache = None

    @classmethod
    def from_json(cls, spec: Mapping, **kwargs) -> "Session":
        return cls(StencilProgram.from_json(spec), **kwargs)

    @classmethod
    def from_file(cls, path, **kwargs) -> "Session":
        return cls(StencilProgram.from_json_file(path), **kwargs)

    # -- pipeline stages -----------------------------------------------------

    def lowered(self) -> LoweredProgram:
        """The session's lowered artifact (single-device mapping)."""
        return self._lowered

    @property
    def analysis(self) -> BufferingAnalysis:
        """Buffering analysis (computed once, shared via the artifact
        cache, and certified deadlock-free on first access)."""
        analysis = self._lowered.analysis
        if not self._certified:
            self._lowered.certificate()
            self._certified = True
        return analysis

    def sdfg(self) -> SDFG:
        """The program lowered to the data-centric IR."""
        return self._lowered.sdfg()

    def partition(self, max_devices: int = 8) -> Partition:
        """Resource-driven multi-device partition (Sec. III-B)."""
        return partition_program(self.program, self.platform,
                                 max_devices=max_devices,
                                 analysis=self.analysis)

    def placement(self, strategy: str = "contiguous",
                  devices: int = 1) -> Dict[str, int]:
        """A stencil-to-device map built by a named strategy.

        ``"contiguous"`` cuts the pipeline into ``devices`` groups in
        program order; ``"auto"`` runs the resource-driven partitioner
        (Sec. III-B) with ``devices`` as the device budget.
        """
        if strategy == "contiguous":
            return contiguous_device_split(self.program, devices)
        if strategy == "auto":
            return dict(self.partition(max_devices=devices).device_of)
        raise ValidationError(
            f"unknown partition strategy {strategy!r} "
            f"(expected 'contiguous' or 'auto')")

    def code_package(self, partition: Optional[Partition] = None
                     ) -> Dict[str, str]:
        """Generated OpenCL/host/SMI/reference sources."""
        return generate_package(self.program, self.analysis, partition)

    def performance(self, **kwargs) -> PerformanceReport:
        """Modeled performance on the session platform (Eq. 1 + models)."""
        return model_performance(self.program, self.platform,
                                 analysis=self.analysis, **kwargs)

    # -- execution -------------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray],
            config: Optional[SimulatorConfig] = None,
            device_of: Optional[Mapping[str, int]] = None,
            validate: bool = True,
            rtol: float = 1e-5,
            atol: float = 1e-6,
            engine_mode: Optional[str] = None,
            partition: Optional[str] = None,
            devices: int = 1) -> RunResult:
        """Simulate the design and validate against the reference.

        ``engine_mode`` overrides the simulator engine selection
        (``"scalar"``, ``"batched"``, or ``"auto"``) without requiring a
        full :class:`SimulatorConfig`.  ``partition`` names a placement
        strategy (``"contiguous"`` or ``"auto"``) applied over
        ``devices`` devices, as an alternative to an explicit
        ``device_of`` map; ``devices > 1`` alone implies the
        contiguous strategy.

        Raises :class:`ValidationError` when ``validate`` is set and any
        output mismatches the sequential reference on its valid region.
        """
        if engine_mode is not None:
            config = replace(config or SimulatorConfig(),
                             engine_mode=engine_mode)
        if partition is None and devices != 1:
            partition = "contiguous"
        if partition is not None:
            if device_of is not None:
                raise ValidationError(
                    "pass either 'partition'/'devices' or "
                    "'device_of', not both")
            device_of = self.placement(partition, devices)
        simulation = simulate(self.program, inputs, config, device_of)
        reference = run_reference(self.program, inputs)
        validated = False
        if validate:
            for name in self.program.outputs:
                expected = reference[name]
                got = simulation.outputs[name][expected.valid_slice]
                if not np.allclose(got, expected.valid_view, rtol=rtol,
                                   atol=atol, equal_nan=True):
                    worst = np.nanmax(np.abs(
                        got - expected.valid_view).astype(np.float64))
                    raise ValidationError(
                        f"output {name!r} deviates from the reference "
                        f"(max abs error {worst:g})")
            validated = True
        return RunResult(
            outputs=simulation.outputs,
            simulation=simulation,
            reference=reference,
            validated=validated,
        )

    # -- design-space exploration ---------------------------------------------

    def explore(self, **kwargs):
        """Sweep the program's mapping design space (autotuning).

        Delegates to :func:`repro.explore.explore` on the session's
        program and platform.  Simulation results are cached on the
        session, so repeated sweeps (e.g. over a refined space) only
        simulate configurations they have not measured before.

        Returns a :class:`repro.explore.ExplorationReport`.
        """
        from ..explore import ResultCache, explore as run_explore
        if "cache" not in kwargs:
            if self._explore_cache is None:
                self._explore_cache = ResultCache()
            kwargs["cache"] = self._explore_cache
        return run_explore(self.program, self.platform, **kwargs)
