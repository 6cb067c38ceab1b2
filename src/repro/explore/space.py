"""The design space of a StencilFlow mapping.

A :class:`ConfigPoint` is one candidate mapping of a program onto the
modeled hardware — the knobs the paper tunes by hand before committing
to a bitstream (Sec. IV-C vectorization, Sec. III-B device placement,
Sec. VIII network provisioning).  A :class:`ConfigSpace` is the cross
product of per-knob candidate lists; :meth:`ConfigSpace.default_for`
derives a sensible space from the program and platform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Mapping, Tuple

from ..core.program import StencilProgram
from ..errors import DefinitionError, ValidationError
from ..hardware.platform import FPGAPlatform, STRATIX10
from ..simulator.channel import is_link_rate

#: Placement strategies a point may request.
PARTITION_STRATEGIES = ("contiguous", "auto")

#: Candidate vectorization widths considered by the default space.
DEFAULT_WIDTHS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ConfigPoint:
    """One candidate configuration.

    Attributes:
        vectorization: SIMD width W applied to the innermost dimension.
        devices: requested device count; for ``partition="auto"`` this
            is the *maximum* the resource-driven partitioner may use.
        partition: ``"contiguous"`` (program-order split, the CLI's
            historical behaviour) or ``"auto"``
            (:func:`repro.distributed.partition_program`).
        network_words_per_cycle: per-link transfer rate cap of the
            simulated machine (vector words per cycle; fractional rates
            model slower wires).
        network_latency: propagation latency of inter-device links.
        min_channel_depth: capacity added on top of each edge's computed
            delay buffer.
        canonicalize: run the constant-folding pass before mapping.
        fusion: run aggressive stencil fusion before mapping.  Points
            whose transforms produce identical programs share every
            lowered artifact and simulation measurement (the caches key
            on the lowered program's content hash, not the point).
    """

    vectorization: int = 1
    devices: int = 1
    partition: str = "contiguous"
    network_words_per_cycle: float = 1.0
    network_latency: int = 32
    min_channel_depth: int = 8
    canonicalize: bool = False
    fusion: bool = False

    def __post_init__(self):
        if self.vectorization < 1:
            raise DefinitionError(
                f"vectorization must be >= 1, got {self.vectorization}")
        if self.devices < 1:
            raise DefinitionError(
                f"device count must be >= 1, got {self.devices}")
        if self.partition not in PARTITION_STRATEGIES:
            raise DefinitionError(
                f"unknown partition strategy {self.partition!r} "
                f"(expected one of {', '.join(PARTITION_STRATEGIES)})")
        if not is_link_rate(self.network_words_per_cycle):
            raise DefinitionError(
                f"network rate must be finite and > 0, got "
                f"{self.network_words_per_cycle}")
        if self.network_latency < 0:
            raise DefinitionError(
                f"network latency must be >= 0, got "
                f"{self.network_latency}")
        if self.min_channel_depth < 1:
            raise DefinitionError(
                f"channel depth must be >= 1, got "
                f"{self.min_channel_depth}")

    def key(self) -> Tuple:
        """Canonical hashable identity (stable across processes).  The
        trailing ``()`` keeps the nine-element shape that the pinned
        ranking digests hash."""
        return (self.vectorization, self.devices, self.partition,
                self.network_words_per_cycle, self.network_latency,
                self.min_channel_depth, self.canonicalize, self.fusion,
                ())

    def label(self) -> str:
        """Compact human-readable tag used in reports and logs."""
        tag = f"W{self.vectorization} x{self.devices}{self.partition[0]}"
        if self.canonicalize:
            tag += " cz"
        if self.fusion:
            tag += " fu"
        if self.network_words_per_cycle != 1.0:
            tag += f" r{self.network_words_per_cycle:g}"
        if self.network_latency != 32:
            tag += f" L{self.network_latency}"
        if self.min_channel_depth != 8:
            tag += f" c{self.min_channel_depth}"
        return tag

    def to_json(self) -> dict:
        return {
            "vectorization": self.vectorization,
            "devices": self.devices,
            "partition": self.partition,
            "network_words_per_cycle": self.network_words_per_cycle,
            "network_latency": self.network_latency,
            "min_channel_depth": self.min_channel_depth,
            "canonicalize": self.canonicalize,
            "fusion": self.fusion,
        }

    @classmethod
    def from_json(cls, spec: Mapping) -> "ConfigPoint":
        _refuse_link_rates(spec, "link_rates")
        kwargs = {}
        for f in fields(cls):
            if f.name == "canonicalize" or f.name == "fusion":
                kwargs[f.name] = bool(spec.get(f.name, False))
            else:
                kwargs[f.name] = spec[f.name]
        return cls(**kwargs)


@dataclass(frozen=True)
class ConfigSpace:
    """Cross product of per-knob candidate values.

    Every axis is a tuple of candidates; :meth:`points` enumerates the
    full product in a deterministic order (so two sweeps over the same
    space visit identical points).
    """

    vectorizations: Tuple[int, ...] = (1,)
    device_counts: Tuple[int, ...] = (1,)
    partitions: Tuple[str, ...] = ("contiguous",)
    network_rates: Tuple[float, ...] = (1.0,)
    network_latencies: Tuple[int, ...] = (32,)
    channel_depths: Tuple[int, ...] = (8,)
    canonicalizations: Tuple[bool, ...] = (False,)
    fusions: Tuple[bool, ...] = (False,)

    @property
    def size(self) -> int:
        n = 1
        for axis in (self.vectorizations, self.device_counts,
                     self.partitions, self.network_rates,
                     self.network_latencies, self.channel_depths,
                     self.canonicalizations, self.fusions):
            n *= len(axis)
        return n

    def points(self) -> Tuple[ConfigPoint, ...]:
        """All configurations, in deterministic product order.

        Repeated axis values (e.g. ``--widths 2,2``) are deduplicated;
        each distinct configuration appears exactly once.
        """
        product = itertools.product(
            self.vectorizations, self.device_counts, self.partitions,
            self.network_rates, self.network_latencies,
            self.channel_depths, self.canonicalizations, self.fusions)
        return tuple(dict.fromkeys(
            ConfigPoint(vectorization=w, devices=d, partition=p,
                        network_words_per_cycle=r, network_latency=lat,
                        min_channel_depth=depth, canonicalize=cz,
                        fusion=fu)
            for w, d, p, r, lat, depth, cz, fu in product))

    @classmethod
    def default_for(cls, program: StencilProgram,
                    platform: FPGAPlatform = STRATIX10,
                    max_devices: int = 4) -> "ConfigSpace":
        """A sensible space for ``program`` on ``platform``.

        Vectorization candidates are the powers of two up to the
        innermost extent (non-dividing widths stay in the space and are
        pruned analytically); device counts double up to
        ``max_devices``, capped by the stencil count (more devices
        than stencils cannot change the placement) and dropped
        entirely when the platform has no inter-device links; both
        placement strategies are explored when the program can span
        devices.
        """
        innermost = program.shape[-1]
        widths = tuple(w for w in DEFAULT_WIDTHS if w <= innermost)
        cap = max(1, min(max_devices, len(program.stencils)))
        if platform.network_words_per_cycle() == 0:
            cap = 1  # no links: multi-device points can never be fed
        counts = []
        d = 1
        while d <= cap:
            counts.append(d)
            d *= 2
        partitions = PARTITION_STRATEGIES if cap > 1 else ("contiguous",)
        return cls(vectorizations=widths,
                   device_counts=tuple(counts),
                   partitions=partitions)

    def to_json(self) -> dict:
        return {
            "vectorizations": list(self.vectorizations),
            "device_counts": list(self.device_counts),
            "partitions": list(self.partitions),
            "network_rates": list(self.network_rates),
            "network_latencies": list(self.network_latencies),
            "channel_depths": list(self.channel_depths),
            "canonicalizations": list(self.canonicalizations),
            "fusions": list(self.fusions),
        }

    @classmethod
    def from_json(cls, spec: Mapping) -> "ConfigSpace":
        _refuse_link_rates(spec, "link_rate_sets")
        kwargs = {}
        for f in fields(cls):
            if f.name == "canonicalizations" or f.name == "fusions":
                kwargs[f.name] = tuple(
                    bool(v) for v in spec.get(f.name, (False,)))
            else:
                kwargs[f.name] = tuple(spec[f.name])
        return cls(**kwargs)


def _refuse_link_rates(spec: Mapping, name: str):
    """Records from older versions carry per-edge link-rate overrides
    under ``name``: an empty one loads, a non-empty one names a machine
    this version cannot build."""
    if any(spec.get(name) or ()):
        raise ValidationError(
            f"per-edge link-rate overrides ({name}) were removed: every "
            f"link runs at network_words_per_cycle; got {spec[name]!r}")
