"""Leading-order wave form in the first Painleve zone (xi near 2)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import RealityError, RegionError
from .painleve2 import SolutionCache, eval_pii, s_min_for
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from .scattering import ScatteringData, eval_r, log_T_i

__all__ = ["AsymptoticValue", "u_region1", "x_minus_y_region1"]

_AMPL = (81.0 / 2.0) ** (1.0 / 3.0)      # prefactor of t^{-2/3} v'(s)
_ERROR_ORDER = -37.0 / 48.0              # min{1-4d, 1/3+9d} at d = 7/144


@dataclass
class AsymptoticValue:
    u: float
    region: RegionTag
    error_order: float | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise RealityError("non-finite asymptotic value")
        if self.error_order is not None and not self.error_order < 0:
            raise RealityError("error order must be negative when quantified")


def _pii_at(point: SpaceTimePoint, data: ScatteringData,
            sol_cache: SolutionCache | None, constants: RegionConstants, tol: float):
    """(s, k, v, v', Q) of the zone-I transcendent, matched to k*Ai with
    k = r(1), at the point's s."""
    if classify(point, constants) is not RegionTag.R_I:
        raise RegionError("point (x=%g, t=%g) is not in the first zone"
                          % (point.x, point.t))
    k = eval_r(data, 1.0)
    if abs(k.imag) > 1e-12:
        raise RealityError("r(1) must be real, got %r" % k)
    cache = sol_cache if sol_cache is not None else SolutionCache()
    s = scaled_s(point, RegionTag.R_I)
    sol = cache.get(k.real, s_min=s_min_for(s), tol=tol)
    return (s, k.real) + eval_pii(sol, s)


def u_region1(point: SpaceTimePoint, data: ScatteringData,
              sol_cache: SolutionCache | None = None,
              constants: RegionConstants = RegionConstants(),
              tol: float = 1e-10) -> AsymptoticValue:
    """u = 1 - (81/2)^(1/3) t^(-2/3) v'(s) with v the Painleve II
    transcendent matched to r(1)*Ai."""
    s, k, v, vp, q = _pii_at(point, data, sol_cache, constants, tol)
    u = 1.0 - _AMPL * point.t ** (-2.0 / 3.0) * vp
    return AsymptoticValue(u, RegionTag.R_I, _ERROR_ORDER,
                           {"s": s, "k": k, "v": v, "v_prime": vp, "Q": q})


def x_minus_y_region1(point: SpaceTimePoint, data: ScatteringData,
                      sol_cache: SolutionCache | None = None,
                      constants: RegionConstants = RegionConstants(),
                      tol: float = 1e-10) -> float:
    """Diagnostic offset between the physical and spectral space variables.

    Equals -2 log T(i) - t^(-1/3) 36^(-1/3) (v(s) + Q(s)); the similarity
    variable of the spectral frame is replaced by s, which preserves the
    reported error order.
    """
    _s, _k, v, _vp, q = _pii_at(point, data, sol_cache, constants, tol)
    return -2.0 * log_T_i(data, "no-integral") \
        - point.t ** (-1.0 / 3.0) * 36.0 ** (-1.0 / 3.0) * (v + q)
