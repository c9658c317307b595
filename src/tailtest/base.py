"""Shared vocabulary: tail classes and the error types raised across the package."""
from __future__ import annotations

import enum


class TailClass(str, enum.Enum):
    """Three-way classification of a right tail.

    Medium means the residual-life ratio F-bar(t+x)/F-bar(x) settles at
    e^(-theta*t) for some theta > 0; Short and Long are the limits 0 and 1.
    """

    SHORT = "Short"
    MEDIUM = "Medium"
    LONG = "Long"

    def __str__(self) -> str:  # "Short", not "TailClass.SHORT"
        return self.value


def check_alpha(alpha: float) -> float:
    """The one-sided level as a float; it must lie in (0, 0.5)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    return alpha


def decide(stat: float, lower: float, upper: float) -> TailClass:
    """Short below `lower`, Long above `upper`, Medium on or between them."""
    if stat < lower:
        return TailClass.SHORT
    if stat > upper:
        return TailClass.LONG
    return TailClass.MEDIUM


class MaxNotAboveOneError(ValueError):
    """Sample maximum <= 1, so ln X_(n) <= 0 and the statistic is undefined.

    The test needs the largest observation to exceed 1; rescale to different
    units or apply an explicit shift (the CLI exposes --shift) rather than
    relying on silent adjustment.
    """


class DegenerateSampleError(ValueError):
    """All sample values are equal; no spacing information exists."""


class BlockTooSmallError(ValueError):
    """Requested block count leaves blocks too small to test."""


class TableMismatchError(ValueError):
    """A simulated null table does not match the sample it is used on."""


class DatasetError(ValueError):
    """A dataset file could not be parsed into finite numbers."""
