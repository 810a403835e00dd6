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

``u_region3`` stands on closed forms: the band integrals, the Abel map on
the axis, the g- and h-function limits and the theta model's expansion
coefficients.  ``abel``, a quadrature off the axis, and ``nr7_matrix`` are
verification kernels: only the tests call them.

The band ends come from the unit problem a^2 + b^2 = 2/3, which depends on
one scalar, the right side of the band-area equation.  A table of it, built
once per process (``_band_table``), brackets the root between two nodes and
starts it from an interpolant, so that one Newton step meets the root
finder's tolerance; the 1e-12 residual gate reads that step's evaluation.

The closed forms use mchasy's own kernels, not scipy.special.  K and E of m
= (a/b)^2 and of 1 - m come from AGM passes, computed once per (a, b) and
shared by the slope and area of a Newton iterate and by a geometry's
periods, ``delta0`` and ``h1_limit``.  Carlson's R_F, by duplication, gives
A(inf) once per point, and a five-term series in 1/x^2 gives the Abel map
at the gate's eight far samples.  The 2F1 Taylor series give J_gap and a
small band's J_band.

A scan evaluates the shock-zone points of one t together (``_prepare``, in
chunks the scan bounds).  The scalar part of each point (band root, periods,
the A(inf) and band-period checks, Delta0) stays a loop; then one
theta-series call covers the 23 theta arguments of every point, a row per
point at its own varkappa, and the pole tests, the expansion terms and the
``nr7_coeffs`` gate run over the rows (``_build``).  ``build_geometry`` and
``u_region3`` are the one-point case of the same code, and every row gets
the bits and the error it gets alone.  ``u_region3`` hands a scan's point
the result prepared for it, from the data's memo, and drops it.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AdmissibilityError,
    BoundaryAmbiguityError,
    BracketError,
    BranchError,
    ConvergenceError,
    ConventionError,
    DomainError,
    PoleOfSolutionError,
    RangeError,
    RegionError,
    WindowError,
)
from .numerics import (
    QuadratureSpec,
    _bracketed_newton,
    _ellipke,
    _horner,
    _hyp2f1_taylor,
    _rf,
    jacobi_theta,
    quad,
)
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify
from .region1 import AsymptoticValue
from .scattering import ScatteringData

__all__ = [
    "ShockParams",
    "ShockGeometry",
    "solve_band",
    "build_geometry",
    "delta0",
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
        # extreme p, q overflow or underflow the scale tau or the size
        # q*(2p/3q)^2 of g0_limit, as the band radius^2 is 2p/3q; the right
        # side of the band equation is taken at p = q = 1 (its sign is
        # solve_band's check)
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
        """Right side of the band equation at p = q = 1,
        -2 sqrt(3) ln g / (3 g^1.5 t) with g = 2 - xi: the band integral is
        cubic in z, and at other (p, q) both sides scale by (p/q)^1.5."""
        g = 2.0 - self.xi
        return -2.0 * math.sqrt(3.0) * math.log(g) / (3.0 * g ** 1.5 * self.t)


# ----------------------------------------------------------------------
# Curve primitives
# ----------------------------------------------------------------------

def _w_sheet1(k, a, b):
    k = np.asarray(k, dtype=complex)
    return k * k * np.sqrt(1.0 - a * a / (k * k)) * np.sqrt(1.0 - b * b / (k * k))


# Real periods as complete elliptic integrals (DLMF 19.2) of m = (a/b)^2 and
# of m1 = 1 - m, formed without subtraction.  Where a docstring's Legendre
# combination cancels (J_gap ~ m as a -> 0, J_band ~ m1^2 as the band
# closes) the equal Gauss series is used below 1/2 (DLMF 15.6.1, and Pfaff's
# transformation 15.8.1 for J_band): 40 and 48 terms reach double precision
# there.
_J_GAP_TAYLOR = _hyp2f1_taylor(-0.5, 0.5, 2.0, 40)
_J_BAND_TAYLOR = _hyp2f1_taylor(0.5, 1.5, 3.0, 48)


def _m1(a, b):
    return (b - a) * (b + a) / (b * b)


@functools.lru_cache(maxsize=16)
def _elliptic(a, b) -> tuple[float, float, float, float]:
    """(K(m), E(m), K(m1), E(m1)), once per (a, b).  ``solve_band`` reads
    two (a, b) per point: its start, K(m1) for the slope and E(m1) for the
    area (the area reads none where m1 < 1/2), and its root, for the area;
    the geometry's periods and ``delta0`` read the root's again, and
    ``h1_limit`` reads it after the whole batch of points.  16 entries keep
    a batch of 8 points: in the benchmark's first 1,500 seed-0 ``shock``
    requests 82 % of the reads hit, 1.9 misses per point (3.75 when the
    root started from five fixed brackets)."""
    return _ellipke((a / b) ** 2, _m1(a, b))


def _k_band(a, b) -> float:
    """int_a^b dz/|w| = K(m1)/b."""
    return _elliptic(a, b)[2] / b


def _k_gap(a, b) -> float:
    """int_{-a}^a dz/|w| = 2K(m)/b."""
    return 2.0 * _elliptic(a, b)[0] / b


def _j_band(a, b) -> float:
    """int_a^b |w| dz = (b/3)[(a^2+b^2)E(m1) - 2a^2 K(m1)]."""
    m1 = _m1(a, b)
    if m1 < 0.5:
        return math.pi / 16.0 * b ** 3 * m1 * m1 * _horner(_J_BAND_TAYLOR, m1)
    _, _, k1, e1 = _elliptic(a, b)
    return b / 3.0 * ((a * a + b * b) * e1 - 2.0 * a * a * k1)


def _j_gap(a, b) -> float:
    """int_{-a}^a |w| dz = (2b/3)[(a^2+b^2)E(m) - (b^2-a^2)K(m)]."""
    m = (a / b) ** 2
    if m < 0.5:
        return 0.5 * math.pi * a * a * b * _horner(_J_GAP_TAYLOR, m)
    k, e, _, _ = _elliptic(a, b)
    return 2.0 * b / 3.0 * ((a * a + b * b) * e - (b - a) * (b + a) * k)


def _band_z2(a, b) -> float:
    """int_a^b z^2/|w| dz = b*E(m1) (DLMF 19.2.5 under z^2 = b^2 (1 - m1 sin^2))."""
    return b * _elliptic(a, b)[3]


def _tail_inv_w(a, b, x) -> float:
    """int_x^inf dz/|w| for real x >= b (Carlson R_F, DLMF 19.29)."""
    return _rf(x * x, (x - a) * (x + a), (x - b) * (x + b))


_FAR_TAIL_TERMS = 5


def _far_tail_coeffs(a, b, unit) -> list[float]:
    """c_n, n < 5, with int_x^inf dz/|w| = sum_n c_n (unit/x)^(2n+1)/((2n+1)
    unit) for x >= 100 max(1, b) and ``unit`` >= b.

    1/|w| = z^-2 ((1 - u/z^2)(1 - v/z^2))^(-1/2) with u = a^2, v = b^2, and
    the c_n, in units of ``unit``^(2n), are the Taylor coefficients of
    (1 - (u+v) t + uv t^2)^(-1/2): (n+1) c_(n+1) = (n + 1/2)(u+v) c_n - n uv
    c_(n-1).  They are at most (b/unit)^(2n), so the first dropped term is
    below 1e-20 of the sum.
    """
    u, v = (a / unit) ** 2, (b / unit) ** 2
    c = [1.0, 0.5 * (u + v)]
    for n in range(1, _FAR_TAIL_TERMS - 1):
        c.append(((n + 0.5) * (u + v) * c[n] - n * u * v * c[n - 1]) / (n + 1))
    return c


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
    u = (x1 * x2 * y3 * y4 + y1 * y2 * x3 * x4, x1 * x3 * y2 * y4 + y1 * y3 * x2 * x4,
         x1 * x4 * y2 * y3 + y1 * y4 * x2 * x3)
    return 2.0 * _rf(*((v / (hi - lo)) ** 2 for v in u))


# ----------------------------------------------------------------------
# Band endpoints
# ----------------------------------------------------------------------

_UNIT_RADIUS2 = 2.0 / 3.0     # a^2 + b^2 of the band at p = q = 1
# the band integral of the unit problem at a = 0, b^3/3: the band is [0, b]
_UNIT_F0 = _UNIT_RADIUS2 ** 1.5 / 3.0
_A_MAX = math.sqrt(0.5 * _UNIT_RADIUS2)     # the band closes, a = b
# below this a, F0 - F(a) is taken from its leading term (``_band_gap``)
_GAP_SERIES_BELOW = 5e-5


def _b_unit(a: float) -> float:
    return math.sqrt(_UNIT_RADIUS2 - a * a)


def _band_slope(a: float) -> float:
    """dJ_band/da along the unit circle, -a (b^2 - a^2) K_band: the
    integrand's derivative is -a (b^2 - a^2)/|w|, and it vanishes at both
    ends of the band."""
    b = _b_unit(a)
    return -a * (b - a) * (b + a) * _k_band(a, b)


def _band_gap(a: float, f: float) -> float:
    """F0 - F at a node a with band integral F.  Near a = 0 the subtraction
    keeps few digits (F0 - F ~ a^2 ln(1/a), 3e-18 at the first node), so
    there it is the leading term sqrt(2/3) a^2 (1/4 + ln(4b/a)/2), from K and
    E of m1 -> 1 (DLMF 19.12.1, 19.12.2), whose relative error is about
    0.1 a^2 ln(1/a): against 40-digit mpmath, 2.3e-9 at 5e-5, where the
    subtraction's is 3.9e-9, and 6.5e-16 at the first node."""
    if a < _GAP_SERIES_BELOW:
        return math.sqrt(_UNIT_RADIUS2) * a * a * (0.25 + 0.5 * math.log(4.0 * _b_unit(a) / a))
    return _UNIT_F0 - f


def _band_angle(f: float, gap: float) -> float:
    """The table's variable, atan(sqrt(F/(F0 - F))), with F0 - F given as
    ``gap``: it goes as sqrt(F) where the band closes (F ~ m1^2) and as
    pi/2 - sqrt((F0 - F)/F0) where a -> 0 (F0 - F ~ a^2 ln(1/a)), so that a
    is nearly linear in it at both ends.  d/dF = 1/(2 sqrt(F (F0 - F)))."""
    return math.atan2(math.sqrt(f), math.sqrt(gap))


@functools.cache
def _band_table() -> tuple[list, list, list, list]:
    """The unit band problem a^2 + b^2 = 2/3 tabulated once per process, as
    every point at every (p, q) shares it: the nodes a, increasing; -F at
    them, increasing for ``bisect``, with F = J_band strictly decreasing
    (checked at every node); ``_band_angle`` at them; and da/d(angle) =
    2 sqrt(F (F0 - F))/F' with F' = ``_band_slope``.  The nodes run from
    1e-9 a_max, whose F bounds the attainable right side, to a_max (1 -
    1e-12): 63 evenly spaced between, and 17 more halving from a_max/64
    towards a = 0, where a is nearly linear in the angle only on a log
    scale.  A BranchError is not cached, so it is raised again at every
    point."""
    nodes = ([1e-9 * _A_MAX] + [_A_MAX / 64 * 0.5 ** k for k in range(17, 0, -1)]
             + [_A_MAX * k / 64 for k in range(1, 64)] + [_A_MAX * (1 - 1e-12)])
    f = [_j_band(a, _b_unit(a)) for a in nodes]
    for k in range(len(f) - 1):
        if not f[k] > f[k + 1]:
            raise BranchError("band integral is not decreasing in a: %r at a = %r, "
                              "%r at a = %r" % (f[k], nodes[k], f[k + 1], nodes[k + 1]))
    gap = [_band_gap(a, v) for a, v in zip(nodes, f)]
    return (nodes, [-v for v in f], [_band_angle(v, g) for v, g in zip(f, gap)],
            [2.0 * math.sqrt(v * g) / _band_slope(a) for a, v, g in zip(nodes, f, gap)])


def _band_start(nodes: list, angle: list, slope: list, rhs: float, i: int) -> float:
    """The inverse cubic Hermite interpolant a(angle) on interval i of
    ``_band_table``, at the angle of ``rhs``, kept inside the interval."""
    lo, hi = nodes[i], nodes[i + 1]
    h = angle[i + 1] - angle[i]
    s = (_band_angle(rhs, max(_UNIT_F0 - rhs, 0.0)) - angle[i]) / h
    d0, d1, rise = h * slope[i], h * slope[i + 1], hi - lo
    x = lo + s * (d0 + s * ((3.0 * rise - 2.0 * d0 - d1) + s * (d0 + d1 - 2.0 * rise)))
    return x if lo <= x <= hi else 0.5 * (lo + hi)


def solve_band(params: ShockParams) -> tuple[float, float]:
    """Solve a^2 + b^2 = 2p/(3q) together with the band-area equation.

    The curve scales as z -> sqrt(p/q) z and the band integral is cubic in
    z, so the root is that of the unit problem a^2 + b^2 = 2/3 with right
    side ``ShockParams.band_rhs``, times sqrt(p/q).  The unit root is a
    Newton root in a on the closed-form band integral, bracketed by the
    interval of ``_band_table`` whose nodes straddle the right side and
    started from the table's interpolant, so that it takes one step; the
    1e-12 residual gate reads the integral at the root from that step's own
    evaluation.
    """
    rhs = params.band_rhs
    nodes, neg_f, angle, slope = _band_table()
    attainable = -neg_f[0]
    if not 0.0 < rhs < attainable:
        raise WindowError(
            "band equation RHS %.6g outside attainable range (0, %.6g); the "
            "point is not in a valid shock regime for this data" % (rhs, attainable))
    # the root lies past the last node whose F is above rhs
    i = bisect.bisect_left(neg_f, -rhs) - 1
    if i == len(nodes) - 1:
        raise BracketError("no sign change on [%r, %r]" % (nodes[-2], nodes[-1]))

    def g(a):
        return _j_band(a, _b_unit(a)) - rhs

    x = _band_start(nodes, angle, slope, rhs, i)
    a, resid = _bracketed_newton(g, _band_slope, nodes[i], nodes[i + 1], -neg_f[i] - rhs,
                                 x, g(x))
    scale = math.sqrt(params.p / params.q)
    a, b = scale * a, scale * _b_unit(a)
    # absolute: the unit right side is below its attainable (2/3)^1.5/3 = 0.18
    if not abs(resid) <= 1e-12:
        raise ConvergenceError("band residual %.3g above 1e-12" % abs(resid), best=(a, b))
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
    q: float
    K_band: float

    @cached_property
    def theta_pass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, Theta(s), Theta'(s)) at the points every shock point needs,
        from one theta-series call (``_theta_rows``): 0, the four expansion
        points (``_EXPANSION``) and the gate's nine sample pairs (``_GATE``).
        Nothing here is tested for poles: each reader tests the values it
        uses."""
        s, th, dth, (err,) = _theta_rows([self])
        if err is not None:
            raise err
        return s, th, dth

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
        """(g_inf, x_tilde) of ``_expansion_rows``, computed once per geometry."""
        s, th, dth = self.theta_pass
        (terms,), (err,) = _expansion_rows([self], s, th, dth, _small(th), [None])
        if err is not None:
            raise err
        return terms


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
        # -i*int_b^x dz/|w| / (2*K_band) = A(inf) + i*int_x^inf dz/|w| / (2*K_band),
        # A(inf) = -varkappa/4 (checked against A_inf in build_geometry)
        return -0.25 * geom.varkappa + 0.5j * _tail_inv_w(a, b, x) / geom.K_band
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
_SERIES_POWERS = np.arange(_KE_SERIES.size)


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
        powers = m ** _SERIES_POWERS
        return 0.5 * math.pi * b * m * (math.log(C_R * a * a) * (_KE_SERIES @ powers)
                                        + 2.0 * (_LOG_SERIES @ powers))
    k, e, _, e1 = _elliptic(a, b)
    return b * (math.log(C_R * a * b) * (k - e) - 0.5 * math.pi * e1 + 2.0 * e
                - _m1(a, b) * k)


def _assemble(params: ShockParams) -> ShockGeometry:
    """The scalar part of a geometry: the band, the periods, A(inf), Delta0
    and phi, gated by the A(inf) and band-period identities."""
    a, b = solve_band(params)
    B1, A1, varkappa = periods(a, b, params.q)
    kb = _k_band(a, b)
    # R_F by duplication here, while varkappa is a ratio of AGM periods: the
    # check A(inf) = -varkappa/4 compares two independent computations
    A_inf = -1j * _tail_inv_w(a, b, b) / (2.0 * kb)
    if not abs(A_inf - (-varkappa / 4.0)) <= 1e-9:
        raise BranchError("A(inf) disagrees with -varkappa/4: %r vs %r"
                          % (A_inf, -varkappa / 4.0))
    d0 = delta0(a, b, params.C_R)
    tau = params.tau
    phi = tau * B1 / 2.0 - 1j * d0
    geom = ShockGeometry(a=a, b=b, B1=B1, A1=A1, varkappa=varkappa,
                         A_inf=A_inf, cA=1j / (2.0 * kb), Delta0=d0, phi=phi,
                         tau=tau, C_R=params.C_R, q=params.q, K_band=kb)
    ident = (2.0 - params.xi) * cmath.exp(-1j * tau * A1)
    if not abs(ident - 1.0) <= 1e-10:
        raise BranchError("(2-xi)*exp(-i*tau*A1) = %r, expected 1" % ident)
    return geom


def _build(params: list) -> list:
    """The geometries of many points, each a ``ShockGeometry`` or the
    exception that refuses its point (an exception in ``params`` stays).

    The scalar part (``_assemble``) is a loop over the points; then one
    theta-series call covers all of them, and the pole tests, the expansion
    terms and the ``nr7_coeffs`` convention gate run as array operations
    over their rows.  Each row's values and errors are those of the point
    alone.
    """
    out, geoms = [], []
    for p in params:
        if not isinstance(p, Exception):
            try:
                p = _assemble(p)
                geoms.append(p)
            except Exception as exc:    # refuses this point only
                p = exc
        out.append(p)
    if not geoms:
        return out
    s, th, dth, refused = _theta_rows(geoms)
    small = _small(th)
    terms, refused = _expansion_rows(geoms, s, th, dth, small, refused)
    _, refused = _gate_rows(geoms, s, th, small, terms, refused)
    errors = iter(refused)
    for k, geom in enumerate(out):
        if isinstance(geom, ShockGeometry):
            out[k] = next(errors) or geom
    for geom, term in zip(geoms, terms):
        geom.__dict__["expansion_terms"] = term     # the cached property, as read
    return out


def build_geometry(params: ShockParams) -> ShockGeometry:
    """Solve the band equations and assemble all derived constants, gated by
    the A(inf) and band-period identities and the ``nr7_coeffs`` convention
    check: the one-point case of ``_build``."""
    (geom,) = _build([params])
    if isinstance(geom, Exception):
        raise geom
    return geom


# ----------------------------------------------------------------------
# Tail limits of the scalar g- and h-functions
# ----------------------------------------------------------------------

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


def _theta(geom: ShockGeometry, s):
    val = jacobi_theta(s, geom.varkappa)
    (err,) = _refusals([None], s, np.abs(val) < 1e-12 * geom.theta0, slice(None))
    if err is not None:
        raise err
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
# (1/k)^(2n+1)/(2n+1) at the gate's samples, for ``_far_tail_coeffs``
_NR7_TAIL_POWERS = ((1.0 / _NR7_KS)[:, np.newaxis] ** (2 * np.arange(_FAR_TAIL_TERMS) + 1)
                    / (2 * np.arange(_FAR_TAIL_TERMS) + 1))
_NR7_PINV = np.linalg.pinv(np.vstack([np.ones_like(_NR7_KS), 1.0 / _NR7_KS,
                                      1.0 / _NR7_KS ** 2, 1.0 / _NR7_KS ** 3]).T)[:2]


# The batch kernels below take the points of a batch as rows.  One point's
# arrays have no row axis: they are the shapes a single point always had,
# and numpy takes them in fewer steps.  Each row gets the bits it gets alone.

def _per_row(values: list):
    """A quantity per row: the value itself for one row, else an array with
    one row per value."""
    return values[0] if len(values) == 1 else np.array(values)


def _columns(rows: list):
    """Quantities per row, given as a tuple per row: for one row that tuple,
    else one column per quantity."""
    return rows[0] if len(rows) == 1 else np.array(rows).T[:, :, np.newaxis]


def _theta_rows(geoms: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(s, Theta(s), Theta'(s)), a row of 23 per geometry as listed in
    ``ShockGeometry.theta_pass``, from one theta-series call at each row's
    varkappa, and per row None or the ``RangeError`` that refuses it."""
    coeffs, vk = [], []
    for g in geoms:
        coeffs.append(_far_tail_coeffs(g.a, g.b, g.gate_unit))
        vk.append(g.varkappa)
    tails = np.matmul(_NR7_TAIL_POWERS, np.array(_per_row(coeffs))[..., np.newaxis])
    rows = []
    for g, tail in zip(geoms, tails.reshape(len(geoms), -1).tolist()):
        kap4, shift = g.varkappa / 4, g.phi / math.pi
        plus, minus = g.A_inf - kap4, -g.A_inf - kap4
        # at the samples k, -A(k) - kap/4 = -i*int_k^inf dz/|w| / (2*K_band),
        # as A(inf) = -kap/4 (see ``abel``): no sample reads the A_inf whose
        # convention the gate tests
        scale = -0.5j / (g.K_band * g.gate_unit)
        gate = [scale * v for v in tail] + [plus]
        rows.append([0.0, plus, minus, plus + shift, minus + shift]
                    + [v + shift for v in gate] + gate)
    s = np.array(_per_row(rows))
    try:
        return (s, *jacobi_theta(s, _per_row(vk), order=(0, 1)), [None] * len(geoms))
    except RangeError:
        pass
    # a row's quasi-period factor overflows: each row alone, so that only
    # its own point is refused
    th, dth, errors = np.full_like(s, np.nan), np.full_like(s, np.nan), []
    n = len(geoms)
    for row, v, th_row, dth_row in zip(s.reshape(n, -1), vk, th.reshape(n, -1),
                                       dth.reshape(n, -1)):
        try:
            th_row[:], dth_row[:] = jacobi_theta(row, v, order=(0, 1))
            errors.append(None)
        except RangeError as exc:
            errors.append(exc)
    return s, th, dth, errors


def _small(th) -> np.ndarray | None:
    """Where a theta value of a row is below 1e-12 |Theta(0)| of that row (a
    pole of the model solution, for the readers of those values), or None
    if it is nowhere."""
    mag = np.abs(th)
    if not (mag.min(axis=-1) < 1e-12 * mag[..., 0]).any():
        return None
    return mag < 1e-12 * mag[..., :1]


def _refusals(refused: list, s, small, columns) -> list:
    """``refused`` with a ``PoleOfSolutionError`` added to each row that has
    no error yet and a ``_small`` value in ``columns``: its first."""
    refused = list(refused)
    if small is not None:
        n = len(refused)
        s, small = s.reshape(n, -1)[:, columns], small.reshape(n, -1)[:, columns]
        for k in np.flatnonzero(small.any(axis=1)):
            refused[k] = refused[k] or PoleOfSolutionError(
                "theta denominator vanished", point=complex(s[k][small[k]][0]))
    return refused


def _expansion_rows(geoms, s, th, dth, small, refused) -> tuple[list, list]:
    """(g_inf, x_tilde) per row of ``_theta_rows`` that no error in
    ``refused`` or pole refuses, and the refusals."""
    refused = _refusals(refused, s, small, _EXPANSION)
    terms = [None] * len(geoms)
    th, dth = th.reshape(len(geoms), -1), dth.reshape(len(geoms), -1)
    for k, geom in enumerate(geoms):
        if refused[k] is None:
            den_p, den_m, num_p, num_m = th[k, _EXPANSION]
            g_inf = den_p * num_m / (den_m * num_p)
            c_inf = den_p / num_p
            # d/d(1/k) at infinity of the ratio evaluated along -A(k)
            dden, dnum = dth[k, 2], dth[k, 4]
            f1 = -geom.cA * (dnum * den_m - num_m * dden) / (den_m * den_m)
            terms[k] = complex(g_inf), complex(c_inf * f1)
    return terms, refused


def _gate_rows(geoms, s, th, small, terms, refused) -> tuple[list, list]:
    """The closed-form 1/k and 1/k^2 coefficients of the (1,2) entry per row
    of ``_theta_rows`` with its ``_expansion_rows`` terms, and the
    refusals, a failed ``nr7_coeffs`` gate or pole added."""
    refused = _refusals(refused, s, small, _GATE)
    coeffs = [None] * len(geoms)
    if all(refused):
        return coeffs, refused
    # the (1,2) entry of nr7_matrix at each sample k: phase (nu - 1/nu) times
    # the row-1 theta ratio at -A(k), normalized by the one at A_inf; the
    # fit takes k times the k-dependent part
    a, b, unit = _columns([(g.a, g.b, g.gate_unit) for g in geoms])
    ks = _NR7_KS * unit
    nu = ((ks - a) * (ks + b) / ((ks + a) * (ks - b))) ** 0.25
    den = th[..., _GATE_DEN]
    if any(refused):    # a refused row's quotients are not read
        den = np.where(np.array([e is not None for e in refused])[:, np.newaxis], 1.0, den)
    r = th[..., _GATE_NUM] / den
    fit = np.matmul(_NR7_PINV, ((nu - 1.0 / nu) * ks * r[..., :-1])[..., np.newaxis])
    fit, r = fit.reshape(len(geoms), -1), r.reshape(len(geoms), -1)
    for k, geom in enumerate(geoms):
        if refused[k] is not None:
            continue
        g_inf, x_tilde = terms[k]
        phase = -cmath.exp(1j * geom.phi) / 2j
        n1_12 = phase * (geom.b - geom.a) * g_inf
        n2_12 = phase * (geom.b - geom.a) * x_tilde
        # the fit is in 1/k in units of ``unit``: its 1/k coefficient scales by it
        c0 = phase * fit[k, 0] / r[k, -1]
        c1 = phase * fit[k, 1] * geom.gate_unit / r[k, -1]
        if not (abs(c0 - n1_12) <= 1e-5 * max(1.0, abs(n1_12))
                and abs(c1 - n2_12) <= 1e-5 * max(1.0, abs(n2_12))):
            refused[k] = ConventionError(
                "Laurent fit %r, %r disagrees with closed forms %r, %r"
                % (c0, c1, n1_12, n2_12))
        else:
            coeffs[k] = complex(n1_12), complex(n2_12)
    return coeffs, refused


def nr7_coeffs(geom: ShockGeometry) -> tuple[complex, complex]:
    """Closed-form 1/k and 1/k^2 coefficients of the (1,2) entry.

    Validated against a Laurent fit of the (1,2) entry of ``nr7_matrix`` at
    eight real k from 100 ``gate_unit`` up, read from the geometry's
    ``theta_pass``; disagreement beyond 1e-5, or a fit that is not a
    number, signals a broken derivative-at-infinity convention and is a
    hard failure.  The one-row case of ``_gate_rows``.
    """
    terms = geom.expansion_terms
    s, th, _ = geom.theta_pass
    (coeffs,), (err,) = _gate_rows([geom], s, th, _small(th), [terms], [None])
    if err is not None:
        raise err
    return coeffs


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


def _wave(point: SpaceTimePoint, geom: ShockGeometry, p: float, q: float) -> AsymptoticValue:
    """u at a point from its geometry: the two expansion coefficients of the
    model matrix and the tail limits of the scalar g and h."""
    g_inf, x_tilde = geom.expansion_terms
    rotation = cmath.exp(1j * geom.phi)
    z1, z2 = rotation * g_inf, rotation * x_tilde
    h1 = h1_limit(geom)
    g0 = g0_limit(geom)
    pref = (2.0 - point.xi) * (geom.b - geom.a) * q / (12.0 * p)
    u = 1.0 - pref * (2.0 * (h1 + geom.tau * g0) * z1.real - z2.imag)
    diag = {"a": geom.a, "b": geom.b, "tau": geom.tau, "varkappa": geom.varkappa,
            "Delta0": geom.Delta0, "phi": geom.phi, "B1": geom.B1, "A1": geom.A1,
            "C_R": geom.C_R, "h1": h1, "g0": g0, "Z1": z1, "Z2": z2,
            "A_inf": geom.A_inf}
    return AsymptoticValue(float(u), None, diag)


def _u_points(points: list, data: ScatteringData, p: float, q: float) -> list:
    """``u_region3`` at many shock-zone points of one data, p and q, each an
    ``AsymptoticValue`` or the exception that refuses its point, with one
    ``_build`` for all of them."""
    params = []
    curvature = functools.partial(_generic_curvature, data)
    for point in points:
        try:
            curv = data._memo("shock_curvature", curvature)
            params.append(ShockParams(p=p, q=q, xi=point.xi, t=point.t,
                                      C_R=(q / (12.0 * p)) * curv))
        except Exception as exc:    # refuses this point only
            params.append(exc)
    out = []
    for point, geom in zip(points, _build(params)):
        if isinstance(geom, ShockGeometry):
            try:
                geom = _wave(point, geom, p, q)
            except Exception as exc:
                geom = exc
        out.append(geom)
    return out


def _prepare(points: list, data: ScatteringData, constants: RegionConstants) -> None:
    """Evaluate shock-zone points of a scan together (``_u_points`` at p = q
    = 1) and keep each result, or the error that refuses it, in the data's
    memo until ``u_region3`` reads it.  The scan has classified the points;
    each call replaces what an earlier one left unread.  An entry is keyed
    by the identity of its point, which it holds, so that no dataclass is
    hashed: (point, constants, result)."""
    prepared = data._memo("shock_prepared", dict)
    prepared.clear()
    for point, done in zip(points, _u_points(points, data, 1.0, 1.0)):
        prepared[id(point)] = (point, constants, done)


def u_region3(point: SpaceTimePoint, data: ScatteringData,
              p: float = 1.0, q: float = 1.0,
              constants: RegionConstants = RegionConstants()) -> AsymptoticValue:
    """Theta-modulated wave form in the collisionless-shock zone.

    Assembled from the two expansion coefficients of the model matrix and the
    tail limits of the scalar g and h; this combination is exactly real and
    independent of the choice of (p, q).  A point that a scan evaluated
    ahead (``_prepare``) returns that result, or raises its error, once,
    if it is the same object, with the same constants object, at p = q = 1;
    any other point is classified and evaluated alone, the one-point case
    of ``_u_points``.
    """
    prepared = data._memo("shock_prepared", dict)
    entry = prepared.pop(id(point), None) if prepared else None
    if (entry is not None and entry[0] is point and entry[1] is constants
            and p == 1.0 and q == 1.0):
        done = entry[2]
    else:
        if classify(point, constants) is not RegionTag.R_III:
            raise RegionError("point (x=%g, t=%g) is not in the shock zone"
                              % (point.x, point.t))
        (done,) = _u_points([point], data, p, q)
    if isinstance(done, Exception):
        raise done
    return done
