"""Collisionless-shock zone: band endpoints, periods, Abel map, theta model.

Everything lives on the genus-1 curve w^2 = (k^2 - a^2)(k^2 - b^2) with cuts
[-b, -a] and [a, b].  Branch conventions (first sheet):

    w(k) = k^2 sqrt(1 - a^2/k^2) sqrt(1 - b^2/k^2)   (principal roots),

so w ~ k^2 at infinity, w > 0 on (b, inf), w = -sqrt((a^2-z^2)(b^2-z^2)) on
the gap, and the upper boundary values on the cuts are +i*sqrt(...) on (a, b)
and -i*sqrt(...) on (-b, -a).  With these choices

    B1 = 6 q * int_{-a}^{a} sqrt((a^2-z^2)(b^2-z^2)) dz      (real > 0),
    A1 = 6 i q * int_a^b  sqrt((z^2-a^2)(b^2-z^2)) dz        (imaginary),
    varkappa = i * K_gap / K_band                            (Im > 0),

which is the unique sign assignment under which the scalar jump relations of
the g- and h-functions hold and the theta series converges.  The off-diagonal
phases of the model matrix are -exp(i*phi) (row 1) and +exp(-i*phi) (row 2);
these are forced by the antidiagonal jump and are cross-checked at runtime by
the expansion-coefficient fit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ellipe, ellipkm1, elliprf, hyp2f1

from .errors import (
    AdmissibilityError,
    BoundaryAmbiguityError,
    BranchError,
    ConvergenceError,
    ConventionError,
    DomainError,
    PoleOfSolutionError,
    RegionError,
    WindowError,
)
from .numerics import QuadratureSpec, ThetaParams, find_root, jacobi_theta, quad, quad_band
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify
from .region1 import AsymptoticValue
from .scattering import ScatteringData

__all__ = [
    "ShockParams",
    "ShockGeometry",
    "solve_band",
    "build_geometry",
    "abel",
    "delta0",
    "h_eval",
    "g_eval",
    "nr7_matrix",
    "nr7_coeffs",
    "u_region3",
]

_TIGHT = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=6000)


# ----------------------------------------------------------------------
# Shock parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShockParams:
    p: float
    q: float
    xi: float
    t: float
    C_R: float

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise DomainError("p and q must be positive")
        if not self.C_R > 0:
            raise AdmissibilityError("C_R must be positive, got %r" % self.C_R)
        if not self.xi < 2.0:
            raise DomainError("shock parametrization needs xi < 2")
        # extreme p, q overflow or underflow the scale tau, the right side of
        # the band equation (its sign is solve_band's check) or the size
        # q*(2p/3q)^2 of g0_limit, as the band radius^2 is 2p/3q
        try:
            tau, rhs = self.tau, self.band_rhs
            g0 = self.q * (2.0 * self.p / (3.0 * self.q)) ** 2
        except (OverflowError, ZeroDivisionError):
            tau = rhs = g0 = math.nan
        if not (0.0 < tau < math.inf and math.isfinite(rhs) and 0.0 < g0 < math.inf):
            raise DomainError("p=%r, q=%r over- or underflow the shock scales at "
                              "xi=%r, t=%r" % (self.p, self.q, self.xi, self.t))

    @property
    def tau(self) -> float:
        return self.t * (2.0 - self.xi) ** 1.5 * math.sqrt(self.q / (48.0 * self.p ** 3))

    @property
    def band_rhs(self) -> float:
        g = 2.0 - self.xi
        return -2.0 * math.sqrt(3.0) * self.p ** 1.5 * math.log(g) \
            / (3.0 * self.q ** 1.5 * g ** 1.5 * self.t)


# ----------------------------------------------------------------------
# Curve primitives
# ----------------------------------------------------------------------

def _w_sheet1(k, a, b):
    k = np.asarray(k, dtype=complex)
    return k * k * np.sqrt(1.0 - a * a / (k * k)) * np.sqrt(1.0 - b * b / (k * k))


def _w_abs(z, a, b):
    return np.sqrt(np.abs(z * z - a * a) * np.abs(z * z - b * b))


def _seg_w(a, b, lo, hi) -> float:
    """Positive integral of |w| over [lo, hi]."""
    return float(np.real(quad_band(
        lambda z: np.sqrt((z - lo) * (hi - z)) * _w_abs(z, a, b), lo, hi, _TIGHT).value))


# Real periods as complete elliptic integrals (DLMF 19.2) of m = (a/b)^2 and
# of m1 = 1 - m, formed without subtraction; K(1 - x) is ellipkm1(x).  Where
# a docstring's Legendre combination cancels (J_gap ~ m as a -> 0, J_band ~
# m1^2 as the band closes) the equal Gauss series is used (DLMF 15.6.1, and
# Pfaff's transformation 15.8.1 for J_band).

def _m1(a, b):
    return (b - a) * (b + a) / (b * b)


def _k_band(a, b) -> float:
    """int_a^b dz/|w| = K(m1)/b."""
    return float(ellipkm1((a / b) ** 2)) / b


def _k_gap(a, b) -> float:
    """int_{-a}^a dz/|w| = 2K(m)/b."""
    return 2.0 * float(ellipkm1(_m1(a, b))) / b


def _j_band(a, b) -> float:
    """int_a^b |w| dz = (b/3)[(a^2+b^2)E(m1) - 2a^2 K(m1)]."""
    m1 = _m1(a, b)
    if m1 < 0.5:
        return math.pi / 16.0 * b ** 3 * m1 * m1 * float(hyp2f1(0.5, 1.5, 3.0, m1))
    return b / 3.0 * ((a * a + b * b) * float(ellipe(m1))
                      - 2.0 * a * a * float(ellipkm1((a / b) ** 2)))


def _j_gap(a, b) -> float:
    """int_{-a}^a |w| dz = (2b/3)[(a^2+b^2)E(m) - (b^2-a^2)K(m)]."""
    return 0.5 * math.pi * a * a * b * float(hyp2f1(-0.5, 0.5, 2.0, (a / b) ** 2))


def _band_z2(a, b) -> float:
    """int_a^b z^2/|w| dz = b*E(m1) (DLMF 19.2.5 under z^2 = b^2 (1 - m1 sin^2))."""
    return b * float(ellipe(_m1(a, b)))


def _tail_inv_w(a, b, x):
    """int_x^inf dz/|w| for real x >= b, elementwise (Carlson R_F, DLMF 19.29)."""
    return elliprf(x * x, (x - a) * (x + a), (x - b) * (x + b))


def _inv_w_on(a, b, lo, hi) -> float:
    """int_lo^hi dz/|w| for real lo <= hi with no branch point inside (lo, hi).

    DLMF 19.29.4: with x_i = |hi - r_i|^(1/2), y_i = |lo - r_i|^(1/2) over the
    branch points r = (a, -a, b, -b), it is 2 R_F(U12^2, U13^2, U14^2), U_ij =
    (x_i x_j y_k y_l + y_i y_j x_k x_l)/(hi - lo); no term cancels at a branch point.
    """
    if hi == lo:
        return 0.0
    x1, x2, x3, x4 = (math.sqrt(abs(hi - r)) for r in (a, -a, b, -b))
    y1, y2, y3, y4 = (math.sqrt(abs(lo - r)) for r in (a, -a, b, -b))
    u = np.array([x1 * x2 * y3 * y4 + y1 * y2 * x3 * x4, x1 * x3 * y2 * y4 + y1 * y3 * x2 * x4,
                  x1 * x4 * y2 * y3 + y1 * y4 * x2 * x3]) / (hi - lo)
    return 2.0 * float(elliprf(*(u * u)))


# ----------------------------------------------------------------------
# Band endpoints
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _band_samples(p: float, q: float) -> tuple[tuple, tuple]:
    """The bracket ends of ``solve_band`` and the band integral at the first
    five, which depend on (p, q) alone: once per (p, q), as every point of a
    scan shares them.  A BranchError is not cached, so it is raised again at
    every point."""
    a_max = math.sqrt(p / (3.0 * q))
    radius2 = 2.0 * p / (3.0 * q)
    ends = [f * a_max for f in (1e-9, 0.25, 0.5, 0.75, 1 - 1e-9)] + [a_max * (1 - 1e-12)]
    samples = [_j_band(a, math.sqrt(radius2 - a * a)) for a in ends[:5]]
    if any(s1 <= s2 for s1, s2 in zip(samples, samples[1:])):
        raise BranchError("band integral is not decreasing in a: %r" % samples)
    return tuple(ends), tuple(samples)


def solve_band(params: ShockParams) -> tuple[float, float]:
    """Solve a^2 + b^2 = 2p/(3q) together with the band-area equation.

    One-parameter bracketed Newton root in a on the closed-form band
    integral, whose monotonicity in a is spot-checked (``_band_samples``).
    Along the circle, dJ_band/da = -a (b^2 - a^2) K_band: the integrand's
    derivative is -a (b^2 - a^2)/|w| and it vanishes at both ends.
    """
    radius2 = 2.0 * params.p / (3.0 * params.q)

    def b_of(a):
        return math.sqrt(radius2 - a * a)

    def area(a):
        return _j_band(a, b_of(a))

    def slope(a):
        b = b_of(a)
        return -a * (b - a) * (b + a) * _k_band(a, b)

    rhs = params.band_rhs
    ends, samples = _band_samples(params.p, params.q)
    attainable = samples[0]
    if not 0.0 < rhs < attainable:
        raise WindowError(
            "band equation RHS %.6g outside attainable range (0, %.6g); the "
            "point is not in a valid shock regime for this data" % (rhs, attainable))
    # the root lies past the last sample above rhs and before the next one
    i = sum(v > rhs for v in samples) - 1
    a = find_root(lambda x: area(x) - rhs, slope, ends[i], ends[i + 1])
    b = b_of(a)
    # the band integral grows like (p/q)^(3/2), so the bound is relative to
    # the RHS above 1; at p = q = 1 the RHS is about 0.1 and the bound 1e-12
    bound = 1e-12 * max(1.0, rhs)
    resid = abs(area(a) - rhs)
    if not resid <= bound:
        raise ConvergenceError("band residual %.3g above %.3g" % (resid, bound),
                               best=(a, b))
    return a, b


# ----------------------------------------------------------------------
# Periods and Abel map
# ----------------------------------------------------------------------

def periods(a: float, b: float, q: float) -> tuple[complex, complex, complex]:
    """(B1, A1, varkappa) under the locked branch/orientation conventions."""
    if not 0.0 < a < b:
        raise DomainError("periods need 0 < a < b")
    B1 = 6.0 * q * _j_gap(a, b)
    A1 = 6.0j * q * _j_band(a, b)
    varkappa = 1j * _k_gap(a, b) / _k_band(a, b)
    if not varkappa.imag > 0:
        raise BranchError("period ratio lost positivity: %r" % varkappa)
    return complex(B1), A1, varkappa


@dataclass(frozen=True)
class ShockGeometry:
    """Assembled shock geometry for one space-time point."""

    a: float
    b: float
    B1: complex
    A1: complex
    varkappa: complex
    A_inf: complex
    cA: complex
    Delta0: float
    phi: complex
    tau: float
    C_R: float
    p: float
    q: float
    K_band: float

    @property
    def theta_params(self) -> ThetaParams:
        return ThetaParams(varkappa=self.varkappa)

    @cached_property
    def theta_pass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, Theta(s), Theta'(s)) at the points every shock point needs,
        from one theta-series call: 0, the four expansion points (``_EXPANSION``)
        and the gate's nine sample pairs (``_GATE``).  Nothing here is tested
        for poles: each reader tests the values it uses."""
        kap4, shift = self.varkappa / 4, self.phi / math.pi
        expansion = np.array([self.A_inf - kap4, -self.A_inf - kap4])
        gate = np.append(-_abel_axis(self, _NR7_KS * self.gate_unit) - kap4, self.A_inf - kap4)
        s = np.concatenate([[0.0], expansion, expansion + shift, gate + shift, gate])
        return (s, *jacobi_theta(s, self.theta_params, order=(0, 1)))

    @property
    def gate_unit(self) -> float:
        """Unit of the gate's sample k, max(1, b): the samples stay as far
        beyond the band end at any p/q, and u does not depend on p/q."""
        return max(1.0, self.b)

    @cached_property
    def theta0(self) -> float:
        """|Theta(0)|, the scale of the pole test on theta values."""
        return abs(self.theta_pass[1][0])

    @cached_property
    def expansion_terms(self) -> tuple[complex, complex]:
        """(g_inf, x_tilde) of ``_expansion_terms``, computed once per geometry."""
        return _expansion_terms(self)

    def w(self, k):
        return _w_sheet1(k, self.a, self.b)


def _path_quad_inv_w(geom_ab, z1) -> complex:
    """Integral of 1/w from b along the straight segment to z1 (off-axis),
    regularized at b by the quadratic substitution."""
    a, b = geom_ab
    dz = z1 - b

    def f(sig):
        z = b + dz * sig * sig
        return 2.0 * sig * dz / _w_sheet1(z, a, b)

    return complex(quad(f, 0.0, 1.0, _TIGHT).value)


def abel(geom: ShockGeometry, k, side: str | None = None) -> complex:
    """Normalized Abel integral A(k) with base point b on the first sheet.

    ``side`` ('+'/'-') selects the boundary value for real k on the cuts.
    Real k takes the closed form (Carlson R_F); off-axis k is a quadrature
    along the straight segment from b (it meets the axis only at b).
    """
    a, b = geom.a, geom.b
    norm = 2j * geom.K_band
    k = complex(k)
    if k.imag != 0.0:
        return _path_quad_inv_w((a, b), k) / norm
    x = k.real
    if x == b:
        return 0.0 + 0.0j
    if x > b:
        return complex(_abel_axis(geom, x))
    if x < -b:
        return (_k_gap(a, b) - _inv_w_on(a, b, x, -b)) / norm
    if abs(x) < a:
        g0 = _inv_w_on(a, b, x, a)
        val = 0.5 - 1j * g0 / (2.0 * geom.K_band)
        if side == "-":
            return val - 1.0
        return val
    # on a cut: a one-sided value is required
    if side not in ("+", "-"):
        raise BoundaryAmbiguityError(
            "A(k) on a cut needs side='+' or side='-', got %r" % side)
    sgn = 1.0 if side == "+" else -1.0
    if x >= a:   # [a, b]
        frac = _inv_w_on(a, b, min(x, b), b) / (2.0 * geom.K_band)
        return sgn * frac
    # [-b, -a]
    pfrac = _inv_w_on(a, b, x, -a) / (2.0 * geom.K_band)
    return sgn * 0.5 - geom.varkappa / 2.0 - sgn * pfrac


def _abel_axis(geom: ShockGeometry, x):
    """A(x) for real x > b, elementwise: -i*int_b^x dz/|w| / (2*K_band)."""
    a, b = geom.a, geom.b
    return -1j * (_tail_inv_w(a, b, b) - _tail_inv_w(a, b, x)) / (2.0 * geom.K_band)


def delta0(a: float, b: float, C_R: float) -> float:
    """-int_0^a log(C_R z^2)/|w| dz / K_band = pi/2 - ln(C_R a b) K(m)/K(1-m).

    The constant for which h decays at infinity (L_K of ``_gap_z2_log_moment``).
    """
    if C_R <= 0:
        raise AdmissibilityError("C_R must be positive")
    if not 0.0 < a < b:
        raise DomainError("delta0 needs 0 < a < b")
    return 0.5 * math.pi - math.log(C_R * a * b) * _k_gap(a, b) / (2.0 * _k_band(a, b))


# Taylor coefficients in m of (2/pi)(K - E)/m, h_n h_(n+1) with h_n = (1/2)_n/n!,
# and of (2/pi)(L_K - L_E)/m, that times A_(2n+2) - ln 2; see _gap_z2_log_moment
_J = np.arange(1.0, 25.0)
_H = np.cumprod(np.r_[1.0, (_J - 0.5) / _J])
_KE_SERIES = _H[:-1] * _H[1:]
_LOG_SERIES = _KE_SERIES * (np.cumsum(1.0 / ((2.0 * _J - 1.0) * 2.0 * _J)) - math.log(2.0))


def _gap_z2_log_moment(a, b, C_R) -> float:
    """int_0^a z^2 log(C_R z^2)/|w| dz in closed form.

    Under z = a sin(t), with m = a^2/b^2 and D = sqrt(1 - m sin^2 t), the
    weight z^2/sqrt(b^2 - z^2) is b(1/D - D); with
        L_K = int_0^{pi/2} ln(sin t)/D dt = -(pi/4) K(1-m) - ln(m) K(m)/4,
        L_E = int_0^{pi/2} ln(sin t) D dt
            = (pi/4)(E(1-m) - K(1-m)) - ln(m) E(m)/4 + (1-m) K(m)/2 - E(m)
    the moment is b[ln(C_R a^2)(K - E) + 2(L_K - L_E)]
    = b[ln(C_R a b)(K - E) - (pi/2) E(1-m) + 2E - (1-m) K].  L_E follows
    from L_K: by -m sin^2 t = D^2 - 1, dL_E/dm = (L_E - L_K)/(2m), whose
    solutions differ by multiples of sqrt(m); L_E and the right side (DLMF
    19.4.1, 19.12.1) are both power series in m solving it, equal to
    -(pi/2) ln 2 at m = 0.  For m < 1/4 the closed form is O(m ln m) from
    O(1) terms; 24 terms of 1/D - D = sum_n (1/2)_n/n! m^(n+1) sin^(2n+2) t
    with int_0^{pi/2} sin^(2k) t ln(sin t) dt = (pi/2) (1/2)_k/k! (A_(2k) -
    ln 2), A_j the j-th alternating harmonic sum, reach double precision.
    """
    m = (a / b) ** 2
    if m < 0.25:
        powers = m ** np.arange(_KE_SERIES.size)
        return 0.5 * math.pi * b * m * (math.log(C_R * a * a) * (_KE_SERIES @ powers)
                                        + 2.0 * (_LOG_SERIES @ powers))
    m1 = _m1(a, b)
    k, e, e1 = float(ellipkm1(m1)), float(ellipe(m)), float(ellipe(m1))
    return b * (math.log(C_R * a * b) * (k - e) - 0.5 * math.pi * e1 + 2.0 * e - m1 * k)


def build_geometry(params: ShockParams) -> ShockGeometry:
    """Solve the band equations and assemble all derived constants, gated by
    the band-period identity and the ``nr7_coeffs`` convention check."""
    a, b = solve_band(params)
    B1, A1, varkappa = periods(a, b, params.q)
    kb = _k_band(a, b)
    # Carlson's R_F here, while varkappa comes from ellipkm1: the check
    # A(inf) = -varkappa/4 compares two independent computations
    A_inf = -1j * float(_tail_inv_w(a, b, b)) / (2.0 * kb)
    if not abs(A_inf - (-varkappa / 4.0)) <= 1e-9:
        raise BranchError("A(inf) disagrees with -varkappa/4: %r vs %r"
                          % (A_inf, -varkappa / 4.0))
    d0 = delta0(a, b, params.C_R)
    tau = params.tau
    phi = tau * B1 / 2.0 - 1j * d0
    geom = ShockGeometry(a=a, b=b, B1=B1, A1=A1, varkappa=varkappa,
                         A_inf=A_inf, cA=1j / (2.0 * kb), Delta0=d0, phi=phi,
                         tau=tau, C_R=params.C_R, p=params.p, q=params.q, K_band=kb)
    ident = (2.0 - params.xi) * cmath.exp(-1j * tau * A1)
    if not abs(ident - 1.0) <= 1e-10:
        raise BranchError("(2-xi)*exp(-i*tau*A1) = %r, expected 1" % ident)
    nr7_coeffs(geom)   # hard gate on the expansion conventions
    return geom


# ----------------------------------------------------------------------
# Scalar g- and h-functions
# ----------------------------------------------------------------------

def _sided(k: complex, geom: ShockGeometry, side: str, f) -> complex:
    # three-point Richardson continuation onto the cut from the chosen side
    d = 1e-3 * (geom.b - geom.a) * (1.0 if side == "+" else -1.0)
    f1, f2, f3 = f(k + 1j * d), f(k + 0.5j * d), f(k + 0.25j * d)
    return (8.0 * f3 - 6.0 * f2 + f1) / 3.0


def g_eval(geom: ShockGeometry, k, side: str | None = None) -> complex:
    """g(k) = -3q * int_b^k w + B1/4 on the first sheet.

    Real k in [-b, b] lies on the jump contour and needs ``side``; those
    boundary values come from exact one-sided segment reductions.
    """
    a, b, q = geom.a, geom.b, geom.q
    k = complex(k)
    x, y = k.real, k.imag
    if y != 0.0:
        dz = k - b

        def f(sig):
            z = b + dz * sig * sig
            return 2.0 * sig * dz * _w_sheet1(z, a, b)

        body = complex(quad(f, 0.0, 1.0, _TIGHT).value)
        return -3.0 * q * body + geom.B1 / 4.0
    if x >= b:
        return -3.0 * q * _seg_w(a, b, b, x) + geom.B1 / 4.0
    if x <= -b:
        # upper crossing: the two band legs contribute -+ i*J_band and cancel
        body = _j_gap(a, b) - _seg_w(a, b, x, -b)
        return -3.0 * q * body + geom.B1 / 4.0
    if side not in ("+", "-"):
        raise BoundaryAmbiguityError("g on [-b, b] needs side='+'/'-'")
    sgn = 1.0 if side == "+" else -1.0
    if x >= a:          # on (a, b)
        return sgn * 3j * q * _seg_w(a, b, x, b) + geom.B1 / 4.0
    if x > -a:          # on the gap: values differ by the full band period
        body = -sgn * 1j * _j_band(a, b) + _seg_w(a, b, x, a)
        return -3.0 * q * body + geom.B1 / 4.0
    # on (-b, -a)
    body = -sgn * 1j * _j_band(a, b) + _j_gap(a, b) \
        + sgn * 1j * _seg_w(a, b, x, -a)
    return -3.0 * q * body + geom.B1 / 4.0


def h_eval(geom: ShockGeometry, k, side: str | None = None) -> complex:
    """Auxiliary scalar h(k); O(1/k) at infinity, log-singular at 0.

    The whole segment [-b, b] is a jump contour of h, so real k there needs
    ``side``; the boundary value is obtained by short Richardson continuation
    from the requested half plane.
    """
    a, b, d0, C_R = geom.a, geom.b, geom.Delta0, geom.C_R
    k = complex(k)
    if k.imag == 0.0 and abs(k.real) <= b:
        if side not in ("+", "-"):
            raise BoundaryAmbiguityError("h on [-b, b] needs side='+'/'-'")
        return _sided(k, geom, side, lambda z: h_eval(geom, z))

    def f_band_right(z):
        return 1.0 / ((z - k) * np.sqrt((z + a) * (z + b)))

    def f_band_left(z):
        return 1.0 / ((z - k) * np.sqrt((a - z) * (b - z)))

    i_right = -1j * d0 * quad_band(f_band_right, a, b, _TIGHT).value
    i_left = -1j * d0 * quad_band(f_band_left, -b, -a, _TIGHT).value

    def f_gap(th):
        z = a * math.sin(th)
        lg = math.log(C_R) + 2.0 * math.log(max(abs(z), 1e-300))
        return lg / ((z - k) * math.sqrt(b * b - z * z))

    fv = np.vectorize(f_gap)
    # split at the log singularity so it is never a quadrature node
    i_gap = -1j * (complex(quad(fv, -0.5 * math.pi, 0.0, _TIGHT).value)
                   + complex(quad(fv, 0.0, 0.5 * math.pi, _TIGHT).value))
    return geom.w(k) / (2j * math.pi) * (i_right + i_left + i_gap)


def h1_limit(geom: ShockGeometry) -> float:
    """lim k*h(k) = (Delta0 * int_a^b z^2/|w| + int_0^a z^2 log(C_R z^2)/|w|) / pi."""
    a, b = geom.a, geom.b
    return (geom.Delta0 * _band_z2(a, b) + _gap_z2_log_moment(a, b, geom.C_R)) / math.pi


def g0_limit(geom: ShockGeometry) -> float:
    """lim k*(g(k) - (p*k - q*k^3)) = -3q (b^2 - a^2)^2 / 8."""
    return -3.0 * geom.q * (geom.b ** 2 - geom.a ** 2) ** 2 / 8.0


# ----------------------------------------------------------------------
# Theta-function model matrix
# ----------------------------------------------------------------------

def _nu(geom: ShockGeometry, k: complex, side: str | None) -> complex:
    a, b = geom.a, geom.b
    if side in ("+", "-") and np.imag(k) == 0.0 and a <= abs(np.real(k)) <= b:
        x = float(np.real(k))
        ratio = abs((x - a) * (x + b) / ((x + a) * (x - b)))
        phase = cmath.exp(-1j * math.pi / 4.0) if side == "+" else cmath.exp(1j * math.pi / 4.0)
        return ratio ** 0.25 * phase
    return complex(((k - a) * (k + b) / ((k + a) * (k - b))) ** 0.25)


def _check_poles(geom: ShockGeometry, s, val) -> None:
    mag, bound = np.abs(val), 1e-12 * geom.theta0
    if mag.min() < bound:
        small = np.flatnonzero(mag < bound)
        raise PoleOfSolutionError("theta denominator vanished",
                                  point=complex(np.ravel(s)[small[0]]))


def _theta(geom: ShockGeometry, s):
    val = jacobi_theta(s, geom.theta_params)
    _check_poles(geom, s, val)
    return val


def _theta_ratios(geom: ShockGeometry, s) -> np.ndarray:
    """Theta(s + phi/pi) / Theta(s) for each s, from one theta-series call."""
    s = np.asarray(s, dtype=complex)
    th = _theta(geom, np.concatenate([s + geom.phi / math.pi, s]))
    return th[:s.size] / th[s.size:]


def nr7_matrix(geom: ShockGeometry, k, side: str | None = None) -> np.ndarray:
    """Explicit theta-function solution of the constant-jump model problem."""
    kap4, phi = geom.varkappa / 4, geom.phi
    Ainf = geom.A_inf
    Ak = abel(geom, k, side)
    nu = _nu(geom, complex(k), side)
    p1 = 0.5 * (nu + 1.0 / nu)
    p2 = (nu - 1.0 / nu) / 2j
    # row 1 takes theta at +-A(k) - kap/4, row 2 at +-A(k) + kap/4; each row
    # is normalized by the same ratio at +A_inf (row 1) or -A_inf (row 2)
    r = _theta_ratios(geom, [Ak - kap4, -Ak - kap4, Ainf - kap4,
                             Ak + kap4, -Ak + kap4, -Ainf + kap4])
    return np.array([[p1 * r[0] / r[2], -cmath.exp(1j * phi) * p2 * r[1] / r[2]],
                     [cmath.exp(-1j * phi) * p2 * r[3] / r[5], p1 * r[4] / r[5]]])


# the slices of ``ShockGeometry.theta_pass``: Theta at A_inf - kap/4 and
# -A_inf - kap/4 and at both shifted by phi/pi; then the gate's nine sample
# pairs, the shifted values (_GATE_NUM) before the others (_GATE_DEN)
_EXPANSION = slice(1, 5)
_GATE = slice(5, 23)
_GATE_NUM, _GATE_DEN = slice(5, 14), slice(14, 23)
# the gate's sample points, in units of ``ShockGeometry.gate_unit``, and the
# rows of the pseudo-inverse of its cubic Laurent design in 1/k in those
# units that give the two coefficients the gate compares
_NR7_KS = np.array([1e2, 2e2, 3e2, 5e2, 1e3, 2e3, 5e3, 1e4])
_NR7_PINV = np.linalg.pinv(np.vstack([np.ones_like(_NR7_KS), 1.0 / _NR7_KS,
                                      1.0 / _NR7_KS ** 2, 1.0 / _NR7_KS ** 3]).T)[:2]


def _expansion_terms(geom: ShockGeometry):
    s, th, dth = geom.theta_pass
    _check_poles(geom, s[_EXPANSION], th[_EXPANSION])
    den_p, den_m, num_p, num_m = th[_EXPANSION]
    g_inf = den_p * num_m / (den_m * num_p)
    c_inf = den_p / num_p
    # d/d(1/k) at infinity of the ratio evaluated along -A(k)
    dden, dnum = dth[2], dth[4]
    f1 = -geom.cA * (dnum * den_m - num_m * dden) / (den_m * den_m)
    return complex(g_inf), complex(c_inf * f1)


def nr7_coeffs(geom: ShockGeometry) -> tuple[complex, complex]:
    """Closed-form 1/k and 1/k^2 coefficients of the (1,2) entry.

    Validated against a Laurent fit of the (1,2) entry of ``nr7_matrix`` at
    eight real k from 100 ``gate_unit`` up, read from the geometry's
    ``theta_pass``; disagreement beyond 1e-5, or a fit that is not a
    number, signals a broken derivative-at-infinity convention and is a
    hard failure.
    """
    a, b = geom.a, geom.b
    g_inf, x_tilde = geom.expansion_terms
    pref = -cmath.exp(1j * geom.phi) * (b - a) / 2j
    n1_12 = pref * g_inf
    n2_12 = pref * x_tilde
    # the (1,2) entry of nr7_matrix at each sample k: row-1 theta ratios at
    # -A(k), normalized by the one at A_inf
    unit = geom.gate_unit
    ks = _NR7_KS * unit
    nu = ((ks - a) * (ks + b) / ((ks + a) * (ks - b))) ** 0.25
    s, th, _ = geom.theta_pass
    _check_poles(geom, s[_GATE], th[_GATE])
    r = th[_GATE_NUM] / th[_GATE_DEN]
    vals = -cmath.exp(1j * geom.phi) * (nu - 1.0 / nu) / 2j * r[:-1] / r[-1]
    c0, c1 = _NR7_PINV @ (vals * ks)
    # the fit is in 1/k in units of ``unit``: its 1/k coefficient scales by it
    c1 *= unit
    if not (abs(c0 - n1_12) <= 1e-5 * max(1.0, abs(n1_12))
            and abs(c1 - n2_12) <= 1e-5 * max(1.0, abs(n2_12))):
        raise ConventionError(
            "Laurent fit %r, %r disagrees with closed forms %r, %r"
            % (c0, c1, n1_12, n2_12))
    return complex(n1_12), complex(n2_12)


# ----------------------------------------------------------------------
# Wave form
# ----------------------------------------------------------------------

def _generic_curvature(data: ScatteringData) -> float:
    """The curvature of 1 - |r|^2 at z = 1 in the generic case |r(+-1)| = 1."""
    m1, mm1 = abs(data.r(1.0)), abs(data.r(-1.0))
    if abs(m1 - 1.0) > 1e-10 or abs(mm1 - 1.0) > 1e-10:
        raise AdmissibilityError(
            "shock asymptotics need the generic case |r(+-1)| = 1; got %r, %r"
            % (m1, mm1))
    return data.r.curvature_at_one()


def u_region3(point: SpaceTimePoint, data: ScatteringData,
              p: float = 1.0, q: float = 1.0,
              constants: RegionConstants = RegionConstants()) -> AsymptoticValue:
    """Theta-modulated wave form in the collisionless-shock zone.

    Assembled from the two expansion coefficients of the model matrix and the
    tail limits of the scalar g and h; this combination is exactly real and
    independent of the choice of (p, q).
    """
    if classify(point, constants) is not RegionTag.R_III:
        raise RegionError("point (x=%g, t=%g) is not in the shock zone"
                          % (point.x, point.t))
    curv = data._memo("shock_curvature", lambda: _generic_curvature(data))
    params = ShockParams(p=p, q=q, xi=point.xi, t=point.t,
                         C_R=(q / (12.0 * p)) * curv)
    geom = build_geometry(params)
    g_inf, x_tilde = geom.expansion_terms
    z1 = cmath.exp(1j * geom.phi) * g_inf
    z2 = cmath.exp(1j * geom.phi) * x_tilde
    h1 = h1_limit(geom)
    g0 = g0_limit(geom)
    pref = (2.0 - point.xi) * (geom.b - geom.a) * q / (12.0 * p)
    u = 1.0 - pref * (2.0 * (h1 + geom.tau * g0) * z1.real - z2.imag)
    diag = {"a": geom.a, "b": geom.b, "tau": geom.tau, "varkappa": geom.varkappa,
            "Delta0": geom.Delta0, "phi": geom.phi, "B1": geom.B1, "A1": geom.A1,
            "C_R": geom.C_R, "h1": h1, "g0": g0, "Z1": z1, "Z2": z2,
            "A_inf": geom.A_inf}
    return AsymptoticValue(float(u), RegionTag.R_III, None, diag)
