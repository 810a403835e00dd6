"""Second Painleve zone (xi near -1/4): phase constants and the wave form.

The two phase offsets combine the argument of r at the limiting saddles
2 +- sqrt(3), argument sums over the discrete spectrum, a principal-value
transform of log(1-|r|^2), and log T(i).

All four integrals of lg = log(1-|r|^2) behind the constants (the Cauchy
transforms at i with powers 1 and 2, which give T(i) and T_1, and the two
principal values) come from ``scattering.log_transforms``, one rule per
``ScatteringData``.  As lg is even, each folds onto x = e^y > 0: the Cauchy
kernels become 1/(2 cosh y) (times 2i) and sinh y / cosh^2 y, the principal
value at c becomes PV int lg(c e^u)/sinh u du with u = y - ln c, and the
poles at c = 2 +- sqrt(3) sit at y = +-ln(2+sqrt(3)).  Subtracting lg(c)
removes the pole, and the exact term lg(c) ln|tanh(B/2)/tanh(A/2)| restores
it on a rule over [A, B] in u; see the ``scattering`` module docstring for
the derivation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AdmissibilityError, DomainError, RealityError, RegionError
from .painleve2 import SolutionCache, eval_pii, s_min_for
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from .region1 import AsymptoticValue
from .scattering import ScatteringData, log_T_i, log_transforms, t_i_and_t1

__all__ = ["Region2Constants", "region2_constants", "lambda_ab", "psi_ab",
           "f_II", "u_region2"]

_SQ3 = math.sqrt(3.0)
_ZA = 2.0 + _SQ3
_ZB = 2.0 - _SQ3
_GAMMA_A = math.atan(_ZA)      # = 5*pi/12
_GAMMA_B = math.atan(_ZB)      # = pi/12
_OSC = 3.0 ** (7.0 / 6.0) / 2.0
_DRIFT = 3.0 * _SQ3 / 4.0
_ERROR_ORDER = -14.0 / 27.0    # both branches meet at delta2 = 1/27


@dataclass(frozen=True)
class Region2Constants:
    Lambda_a: float
    Lambda_b: float
    T_i: float
    T_1: complex
    k_ampl: float
    quad_err_est: float = 0.0   # largest error estimate of the four integrals

    @property
    def it1_over_ti(self) -> float:
        """i*T_1/T(i), formed and checked real only here: ``region2_constants``
        builds it real, hand-built constants may not be, and NaN fails."""
        ratio = 1j * self.T_1 / self.T_i
        if not abs(ratio.imag) <= 1e-8 * (1.0 + abs(ratio)):
            raise RealityError("i*T1/T(i) not real: %r" % ratio)
        return ratio.real


def lambda_ab(data: ScatteringData) -> tuple[float, float]:
    """Phase offsets at the two limiting saddles.

    Each is arg r + 4*sum(arg(saddle - z_n)) over the fourth-quadrant
    representatives, minus 1/pi times the principal-value transform of
    log(1-|r|^2) at the saddle, -+ 2*sqrt(3)*log T(i).  The singular
    integral is a Cauchy principal value: the transform arises as a
    boundary value of the Cauchy integral of T, so the symmetric limit
    is the meaningful one.
    """
    ra, rb = data.r(_ZA), data.r(_ZB)
    if ra == 0 or rb == 0:
        raise DomainError("arg r(2 +- sqrt(3)) undefined: amplitude vanishes;"
                          " the wave reduces to the background u = 1")
    logt = log_T_i(data)
    pv = log_transforms(data)
    arg_sum_a = sum(cmath.phase(_ZA - z) for z in data.spectrum.representatives)
    arg_sum_b = sum(cmath.phase(_ZB - z) for z in data.spectrum.representatives)
    la = cmath.phase(ra) + 4.0 * arg_sum_a - pv.pv_a / math.pi - 2.0 * _SQ3 * logt
    lb = cmath.phase(rb) + 4.0 * arg_sum_b - pv.pv_b / math.pi + 2.0 * _SQ3 * logt
    return la, lb


def region2_constants(data: ScatteringData) -> Region2Constants:
    """The zone-II constants of ``data``, memoized per data together with the
    refusal of data outside the zone's admissibility bound."""

    def build():
        ka = abs(data.r(_ZA))
        if ka >= 1.0:
            raise AdmissibilityError("second zone needs |r(2+sqrt(3))| < 1, got %r" % ka)
        t_i, t_1 = t_i_and_t1(data)
        la, lb = lambda_ab(data)
        return Region2Constants(Lambda_a=la, Lambda_b=lb, T_i=t_i, T_1=t_1, k_ampl=-ka,
                                quad_err_est=log_transforms(data).err_est)

    return data._memo("r2consts", build)


def psi_ab(s: float, t: float, consts: Region2Constants) -> tuple[float, float]:
    """Oscillation phases: +-(3^(7/6)/2) s t^(1/3) +- (3*sqrt(3)/4) t + Lambda."""
    osc = _OSC * s * t ** (1.0 / 3.0) + _DRIFT * t
    return osc + consts.Lambda_a, -osc + consts.Lambda_b


def f_II(s: float, t: float, consts: Region2Constants) -> float:
    """Modulation factor multiplying the Painleve II amplitude."""
    psi_a, psi_b = psi_ab(s, t, consts)
    ratio = consts.it1_over_ti
    return 2.0 * math.sqrt(_ZA) * (math.sin(psi_a) * math.cos(_GAMMA_A)
                                   - ratio * math.cos(psi_a) * math.sin(_GAMMA_A)) \
        + 2.0 * math.sqrt(_ZB) * (math.sin(psi_b) * math.cos(_GAMMA_B)
                                  - ratio * math.cos(psi_b) * math.sin(_GAMMA_B)) \
        + _SQ3 * math.cos(0.5 * (consts.Lambda_a + consts.Lambda_b)) \
        * math.sin(0.5 * (consts.Lambda_a + consts.Lambda_b))


def u_region2(point: SpaceTimePoint, data: ScatteringData,
              sol_cache: SolutionCache | None = None,
              constants: RegionConstants = RegionConstants()) -> AsymptoticValue:
    """u = 1 + 3^(-2/3) t^(-1/3) f_II(s, t) v_II(s)."""
    if classify(point, constants) is not RegionTag.R_II:
        raise RegionError("point (x=%g, t=%g) is not in the second zone"
                          % (point.x, point.t))
    ka = abs(data.r(_ZA))
    s = scaled_s(point, RegionTag.R_II)
    if ka == 0.0:
        return AsymptoticValue(1.0, _ERROR_ORDER, {"s": s, "short_circuit": True})
    consts = region2_constants(data)
    cache = sol_cache if sol_cache is not None else SolutionCache()
    sol = cache.get(consts.k_ampl, s_min=s_min_for(s))
    v, vp, q = eval_pii(sol, s)
    f = f_II(s, point.t, consts)
    u = 1.0 + 3.0 ** (-2.0 / 3.0) * point.t ** (-1.0 / 3.0) * f * v
    psi_a, psi_b = psi_ab(s, point.t, consts)
    return AsymptoticValue(u, _ERROR_ORDER,
                           {"s": s, "k": consts.k_ampl, "v": v, "v_prime": vp,
                            "Q": q, "pii_err_est": sol.err_est,
                            "quad_err_est": consts.quad_err_est, "f_II": f,
                            "psi_a": psi_a, "psi_b": psi_b,
                            "Lambda_a": consts.Lambda_a, "Lambda_b": consts.Lambda_b})
