"""Analytic evaluation of configuration points.

Every candidate is priced with the models the paper uses *before*
committing a design to hardware: the buffering analysis gives the Eq. 1
cycle prediction, the resource estimator rejects designs that overflow a
device, and the network model rejects cuts whose streams exceed the
inter-device links (Sec. VI-B).  Points rejected here are never
simulated — this is the pruning stage of the explorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.delay_buffers import BufferingAnalysis
from ..core.program import StencilProgram
from ..distributed.partition import (
    Partition,
    check_network_feasible,
)
from ..errors import MappingError
from ..hardware.platform import FPGAPlatform, ResourceVector, STRATIX10
from ..hardware.resources import (
    ResourceEstimate,
    delay_buffer_resources,
    estimate_resources,
)
from ..lowering import (
    LoweredProgram,
    LoweringConfig,
    analysis_for,
    content_key,
    lower,
    placement_for,
    platform_content_key,
)
from ..obs import metrics
from ..perf.pipeline import model_multi_device, model_performance
from .space import ConfigPoint


def reason_label(reason: Optional[str]) -> str:
    """Coarse, bounded-cardinality label for a prune reason.

    The free-text ``Prediction.reason`` strings embed point-specific
    numbers; metrics labels must not, so each maps onto its check.
    """
    if not reason:
        return "none"
    if "does not divide" in reason:
        return "vectorization-indivisible"
    if reason.startswith("placement failed"):
        return "placement"
    if "overflows" in reason:
        return "resource-overflow"
    if "network" in reason or "link" in reason:
        return "network"
    return "other"


@dataclass(frozen=True)
class Prediction:
    """Analytic verdict on one configuration point.

    Attributes:
        point: the candidate configuration.
        feasible: whether the point survives every analytic check.
        reason: why the point was pruned (``None`` when feasible).
        device_of: effective stencil placement (``None`` when the point
            maps to a single device).
        devices_used: devices the placement actually occupies (can be
            fewer than requested).
        predicted_cycles: Eq. 1 prediction for the simulated machine
            (``L + N/W``, scaled by fractional link rates) — directly
            comparable to ``SimulationResult.cycles``.
        predicted_runtime_us: modeled wall time on the platform
            (frequency + memory/network throttling included).
        frequency_mhz: modeled clock of the design.
        utilization: worst per-device resource fraction.
        network_headroom: available/required link bandwidth (``inf``
            when nothing crosses devices).
        family_hash: content hash of the point's *lowered* program
            modulo vectorization — measurement-cache identity, so
            transform axes whose points collapse to the same program
            share simulations.
    """

    point: ConfigPoint
    feasible: bool
    reason: Optional[str] = None
    device_of: Optional[Dict[str, int]] = None
    devices_used: int = 1
    predicted_cycles: Optional[int] = None
    predicted_runtime_us: Optional[float] = None
    frequency_mhz: Optional[float] = None
    utilization: Optional[float] = None
    network_headroom: Optional[float] = None
    family_hash: Optional[str] = None

    @property
    def simulation_key(self) -> Tuple:
        """Identity of the *simulated machine* this point builds.

        Distinct points can induce identical machines — ``auto`` and
        ``contiguous`` placements that coincide, or transform flags
        that do not change the program (the lowered identity rides the
        ``family_hash`` instead) — and share cache entries through
        this key.
        """
        placement = tuple(sorted((self.device_of or {}).items()))
        return (self.point.vectorization, placement,
                self.point.network_words_per_cycle,
                self.point.network_latency,
                self.point.min_channel_depth)

    @property
    def machine_identity(self) -> Tuple:
        """Identity of the machine the simulator actually builds.

        :attr:`simulation_key` plus ``family_hash``, with the link
        fields (rate, latency) dropped when the placement uses a single
        device: no edge is remote there, so neither reaches the
        simulator (``Pruner._machine`` keys them away the same way).
        A sweep simulates each identity once.  Measurements stay keyed
        by :attr:`simulation_key`, so a stored measurement still
        answers only the points whose key it was stored under.
        """
        key = self.simulation_key
        if self.device_of is None:
            key = key[:2] + key[4:]
        return (self.family_hash,) + key


@dataclass(frozen=True)
class _Machine:
    """One priced machine: the artifacts it was priced from, and every
    :class:`Prediction` field that no link rate can change."""

    analysis: BufferingAnalysis
    estimate: ResourceEstimate
    verdict: Dict[str, object]


class Pruner:
    """Prices configuration points against the analytic models.

    Lowered programs come out of the content-addressed artifact cache
    (:mod:`repro.lowering`) and everything derived from their
    expressions is a fact they carry (``docs/ARCHITECTURE.md``,
    "Program facts"), so a sweep over a large space — including
    transform axes — lowers each *distinct lowered program* once and
    prices each *distinct machine* once per process: platform, lowered
    program, effective placement, effective latency.  Placements and
    priced machines are artifacts of the same cache (kinds
    ``placement``, ``price``), so a resweep prices nothing again.  What
    is left per point is the lookups, Eq. 1, and its
    :class:`Prediction`.
    """

    def __init__(self, program: StencilProgram,
                 platform: FPGAPlatform = STRATIX10):
        self.program = program
        self.platform = platform
        self._platform_key = platform_content_key(platform)
        self._lowered: Dict[Tuple, LoweredProgram] = {}

    def lowered_at(self, point) -> LoweredProgram:
        """The point's transform+vectorize lowering (cached artifact).

        ``point`` may be a :class:`ConfigPoint` or a bare width (the
        historical call form, meaning no transforms).
        """
        if isinstance(point, ConfigPoint):
            knobs = (point.canonicalize, point.fusion, point.vectorization)
        else:
            knobs = (False, False, int(point))
        if knobs not in self._lowered:
            canonicalize, fusion, width = knobs
            self._lowered[knobs] = lower(self.program, LoweringConfig(
                canonicalize=canonicalize, fusion=fusion,
                vectorization=width), platform=self.platform)
        return self._lowered[knobs]

    # -- the verdict ---------------------------------------------------------

    def predict(self, point: ConfigPoint) -> Prediction:
        """Run every analytic check on ``point``.

        Telemetry: counts the verdict on ``explore.points_priced``
        and, when pruned, ``explore.points_pruned{reason=...}``.
        """
        prediction = self._predict(point)
        if metrics.enabled():
            metrics.counter("explore.points_priced").inc()
            if not prediction.feasible:
                metrics.counter(
                    "explore.points_pruned",
                    reason=reason_label(prediction.reason)).inc()
        return prediction

    def _predict(self, point: ConfigPoint) -> Prediction:
        width = point.vectorization
        if self.program.shape[-1] % width != 0:
            return Prediction(
                point=point, feasible=False,
                reason=f"vectorization {width} does not divide the "
                       f"innermost extent {self.program.shape[-1]}")

        lowered = self.lowered_at(point)
        prog_w = lowered.program
        try:
            partition = self._place(lowered, point)
        except MappingError as exc:
            return Prediction(point=point, feasible=False,
                              family_hash=lowered.family_hash,
                              reason=f"placement failed: {exc}")
        machine = self._machine(lowered, partition,
                                point.network_latency)
        # Machines are shared process-wide: copy the placement out.
        verdict = dict(machine.verdict)
        if verdict["device_of"] is not None:
            verdict["device_of"] = dict(verdict["device_of"])
        if not verdict["feasible"]:
            return Prediction(point=point, **verdict)
        return Prediction(
            point=point,
            predicted_cycles=self._eq1_cycles(
                prog_w, machine.analysis, point, partition.num_devices),
            **verdict)

    # -- helpers -------------------------------------------------------------

    def _place(self, lowered: LoweredProgram,
               point: ConfigPoint) -> Partition:
        return placement_for(lowered.program, point.partition,
                             point.devices, self.platform,
                             lowered.program_hash, lowered.cache)

    def _machine(self, lowered: LoweredProgram, partition: Partition,
                 network_latency: int) -> _Machine:
        """The priced machine ``partition`` makes of ``lowered`` (kind
        ``price``; placement and latency only matter when something
        spans devices)."""
        multi = not partition.is_single_device
        key = content_key(
            "price", self._platform_key, lowered.program_hash,
            lowered.family_hash,
            sorted(partition.device_of.items()) if multi else [],
            network_latency if multi else 0)
        return lowered.cache.get_or_build(
            key, lambda: self._price(lowered, partition, network_latency))

    def _price(self, lowered: LoweredProgram, partition: Partition,
               network_latency: int) -> _Machine:
        program = lowered.program
        multi = not partition.is_single_device
        # Price what the simulator will build: every remote edge —
        # input→stencil links included — carries latency (the shared
        # keying means this *is* the engine's analysis), and the delay
        # buffers those links stretch cost real M20K.
        edge_latency = dict.fromkeys(partition.remote_edges,
                                     network_latency) if multi else None
        analysis = analysis_for(program, edge_latency=edge_latency,
                                program_hash=lowered.program_hash,
                                cache=lowered.cache)
        estimate = estimate_resources(program, self.platform, analysis)
        verdict = dict(feasible=False,
                       device_of=dict(partition.device_of),
                       devices_used=partition.num_devices,
                       family_hash=lowered.family_hash)
        utilization, reason = self._utilization(partition, estimate,
                                                analysis)
        headroom = float("inf")
        if reason is None and multi:
            try:
                headroom = check_network_feasible(partition,
                                                  self.platform)
            except MappingError as exc:
                reason = str(exc)
        if reason is not None:
            verdict["reason"] = reason
            return _Machine(analysis, estimate, verdict)
        if multi:
            report = model_multi_device(
                program, partition, self.platform, check_network=False,
                analysis=analysis, resources=estimate)
        else:
            report = model_performance(program, self.platform,
                                       analysis=analysis,
                                       resources=estimate)
            verdict["device_of"] = None
        verdict.update(feasible=True,
                       predicted_runtime_us=report.runtime_us,
                       frequency_mhz=report.frequency_mhz,
                       utilization=utilization,
                       network_headroom=headroom)
        return _Machine(analysis, estimate, verdict)

    def _per_device_usage(self, partition: Partition, estimate,
                          analysis: BufferingAnalysis
                          ) -> Dict[int, ResourceVector]:
        """Resources per device: stencil units plus edge FIFOs.

        Each delay buffer is charged to the device of the stencil end
        of its edge (the consumer when that is a stencil — the reading
        side holds the FIFO — else the producer).
        """
        program = analysis.program
        usage: Dict[int, ResourceVector] = {}
        for name, device in partition.device_of.items():
            unit = estimate.per_stencil[name]
            usage[device] = usage.get(device, ResourceVector()) + unit
        for (src, dst, _data), buffer in \
                analysis.delay_buffers.items():
            device = 0
            for node in (dst, src):
                kind, name = node.split(":", 1)
                if kind == "stencil":
                    device = partition.device_of[name]
                    break
            usage[device] = usage.get(device, ResourceVector()) \
                + delay_buffer_resources(program, buffer)
        return usage

    def _utilization(self, partition: Partition,
                     estimate: ResourceEstimate,
                     analysis: BufferingAnalysis
                     ) -> Tuple[float, Optional[str]]:
        """Worst per-device resource fraction, and a prune reason when
        any device's share overflows it."""
        if partition.is_single_device:
            reason = None if estimate.fits else (
                f"design overflows {self.platform.name}: "
                f"{estimate.summary()}")
            return estimate.utilization.max_fraction, reason
        budget = self.platform.available
        worst = 0.0
        for device, used in sorted(self._per_device_usage(
                partition, estimate, analysis).items()):
            fraction = used.utilization(budget).max_fraction
            worst = max(worst, fraction)
            if not used.fits_in(budget):
                return worst, (
                    f"device {device} overflows {self.platform.name} "
                    f"({fraction:.0%} of the binding resource)")
        return worst, None

    def _eq1_cycles(self, prog_w: StencilProgram,
                    analysis: BufferingAnalysis, point: ConfigPoint,
                    devices_used: int) -> int:
        """``C = L + I*N`` against the *simulated* machine.

        Fractional link rates stretch the steady state: each cut stream
        delivers at most ``rate`` vector words per cycle, so a rate
        below one throttles the whole pipeline by ``1/rate``.
        """
        steady = prog_w.num_cells // prog_w.vectorization
        rate = point.network_words_per_cycle
        if devices_used > 1 and rate < 1.0:
            steady = math.ceil(steady / rate)
        return analysis.pipeline_latency + steady
