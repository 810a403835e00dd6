"""Second Painleve zone (xi near -1/4): phase constants and the wave form.

The two phase offsets combine the argument of r at the limiting saddles
2 +- sqrt(3), argument sums over the discrete spectrum, a principal-value
transform of log(1-|r|^2), and log T(i).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, RealityError, RegionError
from .numerics import QuadratureSpec, quad_pv
from .painleve2 import SolutionCache, eval_pii, s_min_for
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from .region1 import AsymptoticValue
from .scattering import ScatteringData, _log_one_minus_r2, eval_r, log_T_i, t_i_and_t1

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

assert abs(_GAMMA_A + _GAMMA_B - math.pi / 2.0) < 1e-15
assert abs(_GAMMA_A - 5.0 * math.pi / 12.0) < 1e-15


@dataclass(frozen=True)
class Region2Constants:
    Lambda_a: float
    Lambda_b: float
    gamma_a: float
    gamma_b: float
    T_i: complex
    T_1: complex
    k_ampl: float

    @property
    def it1_over_ti(self) -> float:
        ratio = 1j * self.T_1 / self.T_i
        if abs(ratio.imag) > 1e-6 * (1.0 + abs(ratio)):
            raise RealityError("i*T1/T(i) not real: %r" % ratio)
        return ratio.real


def _pv_log_transform(data: ScatteringData, c: float, spec: QuadratureSpec) -> float:
    lg = _log_one_minus_r2(data)
    key = ("pv_log", c, spec.abs_tol, spec.tail_cutoff)
    return data._memo(key, lambda: float(np.real(
        quad_pv(lg, c, spec, tail=data.r.log_one_minus_r2_tail).value)))


def lambda_ab(data: ScatteringData,
              spec: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """Phase offsets at the two limiting saddles.

    Each is arg r + 4*sum(arg(saddle - z_n)) over the fourth-quadrant
    representatives, minus 1/pi times the principal-value transform of
    log(1-|r|^2) at the saddle, -+ 2*sqrt(3)*log T(i).  The singular
    integral is a Cauchy principal value: the transform arises as a
    boundary value of the Cauchy integral of T, so the symmetric limit
    is the meaningful one.
    """
    ra, rb = eval_r(data, _ZA), eval_r(data, _ZB)
    if ra == 0 or rb == 0:
        raise DomainError("arg r(2 +- sqrt(3)) undefined: amplitude vanishes;"
                          " the wave reduces to the background u = 1")
    logt = log_T_i(data, "full-line", spec)
    pv_a = _pv_log_transform(data, _ZA, spec)
    pv_b = _pv_log_transform(data, _ZB, spec)
    arg_sum_a = sum(cmath.phase(_ZA - z) for z in data.spectrum.representatives)
    arg_sum_b = sum(cmath.phase(_ZB - z) for z in data.spectrum.representatives)
    la = cmath.phase(ra) + 4.0 * arg_sum_a - pv_a / math.pi - 2.0 * _SQ3 * logt
    lb = cmath.phase(rb) + 4.0 * arg_sum_b - pv_b / math.pi + 2.0 * _SQ3 * logt
    return la, lb


def region2_constants(data: ScatteringData,
                      spec: QuadratureSpec = QuadratureSpec()) -> Region2Constants:
    ka = abs(eval_r(data, _ZA))
    if ka >= 1.0:
        raise AdmissibilityError("second zone needs |r(2+sqrt(3))| < 1, got %r" % ka)

    def build():
        t_i, t_1 = t_i_and_t1(data, spec)
        la, lb = lambda_ab(data, spec)
        return Region2Constants(Lambda_a=la, Lambda_b=lb, gamma_a=_GAMMA_A,
                                gamma_b=_GAMMA_B, T_i=t_i, T_1=t_1, k_ampl=-ka)

    return data._memo(("r2consts", spec.abs_tol, spec.tail_cutoff), build)


def psi_ab(s: float, t: float, consts: Region2Constants) -> tuple[float, float]:
    """Oscillation phases: +-(3^(7/6)/2) s t^(1/3) +- (3*sqrt(3)/4) t + Lambda."""
    osc = _OSC * s * t ** (1.0 / 3.0) + _DRIFT * t
    return osc + consts.Lambda_a, -osc + consts.Lambda_b


def f_II(s: float, t: float, consts: Region2Constants) -> float:
    """Modulation factor multiplying the Painleve II amplitude."""
    psi_a, psi_b = psi_ab(s, t, consts)
    ratio = 1j * consts.T_1 / consts.T_i
    val = 2.0 * math.sqrt(_ZA) * (math.sin(psi_a) * math.cos(consts.gamma_a)
                                  - ratio * math.cos(psi_a) * math.sin(consts.gamma_a)) \
        + 2.0 * math.sqrt(_ZB) * (math.sin(psi_b) * math.cos(consts.gamma_b)
                                  - ratio * math.cos(psi_b) * math.sin(consts.gamma_b)) \
        + _SQ3 * math.cos(0.5 * (consts.Lambda_a + consts.Lambda_b)) \
        * math.sin(0.5 * (consts.Lambda_a + consts.Lambda_b))
    if abs(val.imag) > 1e-6 * (1.0 + abs(val)):
        raise RealityError("modulation factor came out complex: %r" % val)
    return val.real


def u_region2(point: SpaceTimePoint, data: ScatteringData,
              sol_cache: SolutionCache | None = None,
              constants: RegionConstants = RegionConstants(),
              spec: QuadratureSpec = QuadratureSpec(),
              tol: float = 1e-10,
              consts: Region2Constants | None = None) -> AsymptoticValue:
    """u = 1 + 3^(-2/3) t^(-1/3) f_II(s, t) v_II(s)."""
    if classify(point, constants) is not RegionTag.R_II:
        raise RegionError("point (x=%g, t=%g) is not in the second zone"
                          % (point.x, point.t))
    ka = abs(eval_r(data, _ZA))
    s = scaled_s(point, RegionTag.R_II)
    if ka == 0.0:
        return AsymptoticValue(1.0, RegionTag.R_II, _ERROR_ORDER,
                               {"s": s, "short_circuit": True})
    if ka >= 1.0:
        raise AdmissibilityError("second zone needs |r(2+sqrt(3))| < 1, got %r" % ka)
    if consts is None:
        consts = region2_constants(data, spec)
    cache = sol_cache if sol_cache is not None else SolutionCache()
    sol = cache.get(consts.k_ampl, s_min=s_min_for(s), tol=tol)
    v, vp, q = eval_pii(sol, s)
    f = f_II(s, point.t, consts)
    u = 1.0 + 3.0 ** (-2.0 / 3.0) * point.t ** (-1.0 / 3.0) * f * v
    psi_a, psi_b = psi_ab(s, point.t, consts)
    return AsymptoticValue(u, RegionTag.R_II, _ERROR_ORDER,
                           {"s": s, "k": consts.k_ampl, "v": v, "v_prime": vp,
                            "Q": q, "f_II": f, "psi_a": psi_a, "psi_b": psi_b,
                            "Lambda_a": consts.Lambda_a, "Lambda_b": consts.Lambda_b})
