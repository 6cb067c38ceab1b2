"""Clock-frequency model.

Place-and-route pressure grows with device fill; the paper's designs
closed between 292 and 317 MHz (Sec. VIII-C), with the largest designs
at the low end. We model frequency as Fmax up to a routing-pressure
knee, then a linear decline with the dominant resource utilization,
floored for very large designs.
"""

from __future__ import annotations

from . import calibration as cal
from .platform import FPGAPlatform, STRATIX10
from .resources import ResourceEstimate


def frequency_mhz(utilization: float,
                  platform: FPGAPlatform = STRATIX10) -> float:
    """Clock estimate from the dominant resource-utilization fraction.

    >>> frequency_mhz(0.1) == STRATIX10.fmax_mhz
    True
    >>> frequency_mhz(0.9) < frequency_mhz(0.4)
    True
    """
    pressure = max(0.0, utilization - cal.FREQ_KNEE_UTILIZATION)
    f = platform.fmax_mhz - cal.FREQ_SLOPE_MHZ * pressure
    return max(cal.FREQ_FLOOR_MHZ, min(platform.fmax_mhz, f))


def design_frequency_mhz(estimate: ResourceEstimate) -> float:
    """Clock estimate for a resource-estimated design."""
    return frequency_mhz(estimate.utilization.max_fraction,
                         estimate.platform)
