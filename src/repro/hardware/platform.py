"""Hardware platform descriptions.

:class:`FPGAPlatform` captures the spatial targets (the paper's BittWare
520N / Stratix 10 testbed and the Arria 10 used by related work);
:class:`LoadStorePlatform` captures the CPU/GPU comparison points of
Tab. II as bandwidth-roofline machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import calibration as cal


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of FPGA resources (used for totals and estimates)."""

    alm: float = 0.0
    ff: float = 0.0
    m20k: float = 0.0
    dsp: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.alm + other.alm, self.ff + other.ff,
                              self.m20k + other.m20k, self.dsp + other.dsp)

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.alm * factor, self.ff * factor,
                              self.m20k * factor, self.dsp * factor)

    def utilization(self, available: "ResourceVector") -> "ResourceVector":
        """Fraction of ``available`` used, component-wise."""
        return ResourceVector(
            self.alm / available.alm if available.alm else 0.0,
            self.ff / available.ff if available.ff else 0.0,
            self.m20k / available.m20k if available.m20k else 0.0,
            self.dsp / available.dsp if available.dsp else 0.0,
        )

    @property
    def max_fraction(self) -> float:
        return max(self.alm, self.ff, self.m20k, self.dsp)

    def fits_in(self, available: "ResourceVector") -> bool:
        return (self.alm <= available.alm and self.ff <= available.ff
                and self.m20k <= available.m20k
                and self.dsp <= available.dsp)


@dataclass(frozen=True)
class FPGAPlatform:
    """A spatial computing device and its board.

    Attributes:
        name: human-readable platform name.
        total: full-device resources.
        available: resources left for user logic under the board shell.
        peak_bandwidth_gbs: aggregate off-chip memory bandwidth.
        memory_banks: number of independent DRAM banks.
        fmax_mhz / fmin_mhz: clock range the paper's designs closed at.
        die_area_mm2: for silicon-efficiency accounting (Sec. IX-C).
        network_port_gbits: line rate of one network port.
        network_ports: number of ports.
        links_per_neighbor: links used between consecutive chained
            devices (Sec. VIII-B uses two 40 Gbit/s links).
    """

    name: str
    total: ResourceVector
    available: ResourceVector
    peak_bandwidth_gbs: float
    memory_banks: int
    fmax_mhz: float
    fmin_mhz: float
    die_area_mm2: float
    network_port_gbits: float = 0.0
    network_ports: int = 0
    links_per_neighbor: int = 0

    @property
    def neighbor_bandwidth_gbs(self) -> float:
        """Payload bandwidth to the next device in a chain, GB/s."""
        return self.links_per_neighbor * self.network_port_gbits / 8.0

    def network_words_per_cycle(self, element_bytes: int = 4,
                                frequency_mhz: Optional[float] = None
                                ) -> float:
        """Operands/cycle the chain link sustains at a given clock."""
        f = (frequency_mhz or self.fmax_mhz) * 1e6
        return self.neighbor_bandwidth_gbs * 1e9 / (element_bytes * f)


@dataclass(frozen=True)
class LoadStorePlatform:
    """A CPU/GPU comparison platform, modeled as a bandwidth roofline.

    ``hdiff_roof_fraction`` is the fraction of the bandwidth roofline the
    platform achieved on the horizontal-diffusion program in the paper's
    measurements (Tab. II) — the load/store machines are *not* simulated;
    their performance derives from this measured efficiency.
    """

    name: str
    peak_bandwidth_gbs: float
    hdiff_roof_fraction: float
    die_area_mm2: float = 0.0
    process: str = ""

    def roofline_gops(self, arithmetic_intensity_ops_per_byte: float
                      ) -> float:
        """Bandwidth-bound performance ceiling at a given intensity."""
        return arithmetic_intensity_ops_per_byte * self.peak_bandwidth_gbs

    def predicted_gops(self, arithmetic_intensity_ops_per_byte: float
                       ) -> float:
        """Ceiling scaled by the measured roofline fraction."""
        return (self.roofline_gops(arithmetic_intensity_ops_per_byte)
                * self.hdiff_roof_fraction)


STRATIX10 = FPGAPlatform(
    name="BittWare 520N (Stratix 10 GX 2800)",
    total=ResourceVector(cal.S10_ALM_TOTAL, cal.S10_FF_TOTAL,
                         cal.S10_M20K_TOTAL, cal.S10_DSP_TOTAL),
    available=ResourceVector(cal.S10_ALM_AVAILABLE, cal.S10_FF_AVAILABLE,
                             cal.S10_M20K_AVAILABLE, cal.S10_DSP_AVAILABLE),
    peak_bandwidth_gbs=cal.S10_PEAK_BANDWIDTH_GBS,
    memory_banks=cal.S10_MEMORY_BANKS,
    fmax_mhz=cal.S10_FMAX_MHZ,
    fmin_mhz=cal.S10_FMIN_MHZ,
    die_area_mm2=cal.S10_DIE_AREA_MM2,
    network_port_gbits=cal.S10_NETWORK_PORT_GBITS,
    network_ports=cal.S10_NETWORK_PORTS,
    links_per_neighbor=cal.S10_LINKS_PER_NEIGHBOR,
)

ARRIA10 = FPGAPlatform(
    name="Arria 10 GX 1150",
    total=ResourceVector(427_200, 1_708_800, 2_713, 1_518),
    available=ResourceVector(350_000, 1_400_000, 2_300, 1_400),
    peak_bandwidth_gbs=34.1,
    memory_banks=2,
    fmax_mhz=316.0,
    fmin_mhz=240.0,
    die_area_mm2=0.0,
)

XEON_12C = LoadStorePlatform(
    name="Xeon E5-2690 v3 (12C)",
    peak_bandwidth_gbs=cal.XEON_PEAK_BW_GBS,
    hdiff_roof_fraction=cal.XEON_HDIFF_ROOF_FRACTION,
    process="Intel 22 nm",
)

P100 = LoadStorePlatform(
    name="NVIDIA Tesla P100",
    peak_bandwidth_gbs=cal.P100_PEAK_BW_GBS,
    hdiff_roof_fraction=cal.P100_HDIFF_ROOF_FRACTION,
    die_area_mm2=cal.P100_DIE_AREA_MM2,
    process="TSMC 16 nm",
)

V100 = LoadStorePlatform(
    name="NVIDIA Tesla V100",
    peak_bandwidth_gbs=cal.V100_PEAK_BW_GBS,
    hdiff_roof_fraction=cal.V100_HDIFF_ROOF_FRACTION,
    die_area_mm2=cal.V100_DIE_AREA_MM2,
    process="TSMC 12 nm",
)
