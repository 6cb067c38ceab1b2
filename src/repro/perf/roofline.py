"""Roofline-model arithmetic (Sec. IX-A, Eqs. 2-4)."""

from __future__ import annotations



def roofline_gops(intensity_ops_per_byte: float,
                  bandwidth_gbs: float) -> float:
    """Bandwidth-bound performance ceiling (Eq. 3).

    >>> round(roofline_gops(65/18, 58.3), 1)
    210.5
    """
    return intensity_ops_per_byte * bandwidth_gbs


def required_bandwidth_gbs(performance_gops: float,
                           intensity_ops_per_byte: float) -> float:
    """Bandwidth needed to sustain a compute rate at an intensity (Eq. 4).

    >>> round(required_bandwidth_gbs(917.1, 65/18), 1)
    254.0
    """
    return performance_gops / intensity_ops_per_byte
