"""Space-time points, the Painleve similarity variable, zone classification."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, RegionError

__all__ = [
    "SpaceTimePoint",
    "RegionTag",
    "RegionConstants",
    "scaled_s",
    "classify",
]

_CBRT3 = 3.0 ** (1.0 / 3.0)


@dataclass(frozen=True)
class SpaceTimePoint:
    x: float
    t: float

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t) and math.isfinite(self.x)):
            raise DomainError("need finite x and t > 0, got (%r, %r)" % (self.x, self.t))

    @property
    def xi(self) -> float:
        return self.x / self.t


class RegionTag(enum.Enum):
    R_I = "I"
    R_II = "II"
    R_III = "III"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class RegionConstants:
    """Half-widths of the zones; the shock width must exceed 2*3**(1/3)."""

    c1: float = 1.0
    c2: float = 1.0
    c3: float = 4.0 * _CBRT3

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise DomainError("region half-widths must be positive")
        if self.c3 <= 2.0 * _CBRT3:
            raise DomainError("c3 must exceed 2*3**(1/3)")


def scaled_s(point: SpaceTimePoint, region: RegionTag) -> float:
    """Painleve similarity variable of the given zone."""
    xi, t = point.xi, point.t
    if region is RegionTag.R_I:
        return 6.0 ** (-2.0 / 3.0) * (xi - 2.0) * t ** (2.0 / 3.0)
    if region is RegionTag.R_II:
        return -((8.0 / 9.0) ** (1.0 / 3.0)) * (xi + 0.25) * t ** (2.0 / 3.0)
    raise RegionError("scaled_s supports the two Painleve zones, not %s" % region)


def _xi_of_s(s: float, t: float, region: RegionTag) -> float:
    """xi at which ``scaled_s`` is s at time t in the given Painleve zone."""
    if region is RegionTag.R_I:
        return 2.0 + 6.0 ** (2.0 / 3.0) * s * t ** (-2.0 / 3.0)
    return -0.25 - (9.0 / 8.0) ** (1.0 / 3.0) * s * t ** (-2.0 / 3.0)


def classify(point: SpaceTimePoint,
             constants: RegionConstants = RegionConstants()) -> RegionTag:
    """Zone of a space-time point; the Painleve window wins over the shock
    window where they overlap."""
    if point.t <= 1.0:
        raise DomainError("classification needs t > 1")
    xi, t = point.xi, point.t
    t23 = t ** (2.0 / 3.0)
    if abs(xi - 2.0) * t23 <= constants.c1:
        return RegionTag.R_I
    if abs(xi + 0.25) * t23 <= constants.c2:
        return RegionTag.R_II
    lg23 = math.log(t) ** (2.0 / 3.0)
    gap = (2.0 - xi) * t23
    if 2.0 * _CBRT3 * lg23 < gap < constants.c3 * lg23:
        return RegionTag.R_III
    return RegionTag.OUTSIDE
