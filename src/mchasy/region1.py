"""Leading-order wave form in the first Painleve zone (xi near 2), and the
result type that all three zone evaluators return."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import RealityError, RegionError
from .painleve2 import SolutionCache, eval_pii, s_min_for
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from .scattering import ScatteringData

__all__ = ["AsymptoticValue", "u_region1"]

_AMPL = (81.0 / 2.0) ** (1.0 / 3.0)      # prefactor of t^{-2/3} v'(s)
_ERROR_ORDER = -37.0 / 48.0              # min{1-4d, 1/3+9d} at d = 7/144


@dataclass
class AsymptoticValue:
    u: float
    error_order: float | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise RealityError("non-finite asymptotic value")
        if self.error_order is not None and not self.error_order < 0:
            raise RealityError("error order must be negative when quantified")


def u_region1(point: SpaceTimePoint, data: ScatteringData,
              sol_cache: SolutionCache | None = None,
              constants: RegionConstants = RegionConstants()) -> AsymptoticValue:
    """u = 1 - (81/2)^(1/3) t^(-2/3) v'(s) with v the Painleve II
    transcendent matched to r(1)*Ai."""
    if classify(point, constants) is not RegionTag.R_I:
        raise RegionError("point (x=%g, t=%g) is not in the first zone"
                          % (point.x, point.t))
    k = data.r(1.0).real    # real by construction: r's half at y = 0
    cache = sol_cache if sol_cache is not None else SolutionCache()
    s = scaled_s(point, RegionTag.R_I)
    sol = cache.get(k, s_min=s_min_for(s))
    v, vp, q = eval_pii(sol, s)
    u = 1.0 - _AMPL * point.t ** (-2.0 / 3.0) * vp
    return AsymptoticValue(u, _ERROR_ORDER,
                           {"s": s, "k": k, "v": v, "v_prime": vp, "Q": q,
                            "pii_err_est": sol.err_est})
