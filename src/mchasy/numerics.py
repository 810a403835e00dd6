"""Shared numerical kernels.

Airy Ai/Ai' (the asymptotic series in pure Python for s >= 10, Cephes
through scipy below), the Jacobi theta series, the composite Gauss-Kronrod
rule of the table transforms, and a bracketed Newton root finder.
``jacobi_theta`` has one kernel, over rows of s (a number varkappa is one
row): each row sums to the order N of its own varkappa, and the rows of
one N share one exponential call and one stacked matrix-vector product, so
that a row gets the bits of the call of that row alone.  Zone
III's complete elliptic integrals K and E (``_ellipke``, by the AGM),
Carlson's R_F (``_rf``, by duplication) and truncated 2F1 Taylor series
(``_horner`` on ``_hyp2f1_taylor``) are private, in pure Python.

The adaptive quadratures (``quad``, ``quad_band``, ``quad_pv`` and
``quad_real_line``, with ``QuadratureSpec``) are verification kernels: no
zone evaluator calls them, and the tests check the closed forms against
them.  They accept complex-valued integrands.  ``find_root`` is not
exported either: the band root runs its loop (``_bracketed_newton``) from
ends it has already evaluated.

``scipy.special`` is imported by the first ``airy`` call below s = 10, not
with this module: no zone evaluator makes one, so a scan never loads it.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DivergentSeriesError,
    DomainError,
    RangeError,
)

__all__ = [
    "airy",
    "jacobi_theta",
]


# the real line is cut where |integrand| (|r|^2 for log(1-|r|^2)) falls
# below this; no error estimate counts the dropped mass, so it is not a
# tolerance to loosen
_TAIL_CUTOFF = 1e-17


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances shared by all adaptive integral evaluations."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


class QuadResult(NamedTuple):
    value: complex
    error: float


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

_AIRY_RANGE = 30.0
_AIRY_SERIES_FROM = 10.0
_AIRY_TERMS = 24


def _airy_series():
    """(u_k, v_k) of DLMF 9.7.5-9.7.6 for k < ``_AIRY_TERMS``, highest k
    first: u_k = u_{k-1} (6k-5)(6k-3)(6k-1)/(216 k (2k-1)), u_0 = 1, and
    v_k = -(6k+1)/(6k-1) u_k."""
    u, pairs = 1.0, [(1.0, 1.0)]
    for k in range(1, _AIRY_TERMS):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        pairs.append((u, -(6 * k + 1) / (6 * k - 1) * u))
    return tuple(pairs[::-1])


_AIRY_UV = _airy_series()
_HALF_RSQRT_PI = 0.5 / math.sqrt(math.pi)


def airy(s: float) -> tuple[float, float]:
    """Return (Ai(s), Ai'(s)) for |s| <= 30.

    For s >= 10, the asymptotic series in zeta = (2/3) s^(3/2) (DLMF
    9.7.5-9.7.6): 24 terms by one Horner pass in -1/zeta, whose dropped
    terms are below 1e-15 relative there.  Against 40-digit mpmath on 401
    points of [10, 30] the relative error is at most 1.9e-14, mostly the
    rounding of exp(-zeta) (scipy's is 2.4e-14).  Below 10, Cephes through
    ``scipy.special.airy``: against 40-digit mpmath on [-30, 30] the
    absolute error is below 1e-13, and on s >= 0, where Ai decays, the
    relative error is below 1e-12.
    """
    s = float(s)
    if not math.isfinite(s) or abs(s) > _AIRY_RANGE:
        raise RangeError("airy accuracy range is |s| <= %g, got %r" % (_AIRY_RANGE, s))
    if s < _AIRY_SERIES_FROM:
        from scipy.special import airy as cephes_airy   # 0.3 s, on the first call only
        ai, aip, _bi, _bip = cephes_airy(s)
        return float(ai), float(aip)
    quart = math.sqrt(math.sqrt(s))
    zeta = s ** 1.5 * (2.0 / 3.0)
    su, sv = _horner_pairs(_AIRY_UV, -1.0 / zeta)
    scale = _HALF_RSQRT_PI * math.exp(-zeta)
    return scale * su / quart, -scale * quart * sv


# ----------------------------------------------------------------------
# Jacobi theta series
# ----------------------------------------------------------------------

# largest log|F| that jacobi_theta accepts; doubles end at about exp(709.78)
_LOG_THETA_MAX = 700.0
_THETA_TOL = 1e-15      # absolute bound on the dropped tail of the series
_THETA_BUDGET = -math.log(_THETA_TOL) / math.pi
# largest order N that jacobi_theta sums to, Im(varkappa) >= 2.8e-3: the
# bench's shock pool needs N <= 5 (Im(varkappa) >= 1.19), and zone III's
# varkappa = 2i K(m)/K(1 - m) keeps Im(varkappa) >= 8.4e-3 (N <= 38) at
# every band end ratio a/b whose m = (a/b)^2 is a positive double
_THETA_MAX_ORDER = 64


def jacobi_theta(s, varkappa, order: int | tuple[int, int] = 0):
    """Theta series sum(exp(2*pi*i*n*s + pi*i*varkappa*n^2), n in Z).

    Double precision after reduction into the fundamental strip (DLMF
    20.2(ii)): s = s0 + m*varkappa + j with m, j integers and |Im s0| <=
    Im(varkappa)/2, and Theta(s) = F*Theta(s0) with F = exp(-pi*i*m^2*varkappa
    - 2*pi*i*m*s0).  Theta(s0) sums |n| <= N, N the smallest order whose
    dropped terms are below ``_THETA_TOL`` anywhere in the strip (Deconinck
    et al. 2004, Math. Comp. 73).  ``order=(0, 1)`` gives the pair (Theta,
    Theta') from the same exponentials, Theta' = F*(Theta'(s0) -
    2*pi*i*m*Theta(s0)).

    ``varkappa`` is a number, or a sequence with one entry per row of a 2-D
    ``s``.  There is one kernel, ``_theta_per_row``, and a number is its one
    row: a scalar ``s`` then gives a ``complex``, an array a complex array
    of its shape.  Every row gets the bits that a call of that row alone
    gives.  A non-finite s or varkappa is a ``DomainError``, and an
    Im(varkappa) that needs an N above ``_THETA_MAX_ORDER`` a
    ``RangeError``, both raised before any series is formed.
    """
    s = np.asarray(s, dtype=complex)
    vk = np.asarray(varkappa, dtype=complex)
    if vk.ndim and not (vk.ndim == 1 and s.ndim == 2 and len(s) == vk.size):
        raise DomainError("varkappa must be a number or have one entry per row of s")
    vks = vk.reshape(-1).tolist()
    if not all(v.imag > 0 for v in vks):
        raise DivergentSeriesError(
            "theta series needs Im(varkappa) > 0, got %r" % (varkappa,))
    if order not in (0, (0, 1)):
        raise DomainError("order must be 0 or (0, 1)")
    if not all(map(cmath.isfinite, vks)):
        raise DomainError("theta series needs a finite varkappa, got %r" % (varkappa,))
    if not np.isfinite(s).all():
        raise DomainError("theta series needs a finite s, got %r"
                          % complex(s[~np.isfinite(s)][0]))
    out = _theta_per_row(s if vk.ndim else s.reshape(1, -1), vk.reshape(-1),
                         [_theta_order(v.imag) for v in vks], order)
    out = [complex(x[0, 0]) if s.ndim == 0 else x.reshape(s.shape) for x in out]
    return out[0] if order == 0 else tuple(out)


def _strip(s, vk):
    """(s0, m, F) of the reduction of the rows of s into the fundamental
    strip of their vk, with F = 1.0 where no s leaves it."""
    s = s - np.round(s.real)   # exact: Theta has period 1
    m = np.round(s.imag / vk.imag)
    if not m.any():
        return s, m, 1.0
    s0 = s - m * vk
    log_f = (-1j * np.pi * m) * (s + s0)
    # F*Theta(s0) would overflow to inf, and a quotient of two to nan
    if log_f.real.max() > _LOG_THETA_MAX:
        raise RangeError("Theta(s) overflows double precision at Im(s)/Im(varkappa)"
                         " = %.3g" % np.abs(m).max())
    return s0 - np.round(s0.real), m, np.exp(log_f)


def _theta_order(y0: float) -> int:
    """N for Im(varkappa) = y0: |Im s0| <= y0/2 bounds |term n| by
    exp(-pi*y0*(n^2 - |n|)), which is below ``_THETA_TOL`` beyond n* = 1/2 +
    sqrt(1/4 + budget/y0)."""
    n_star = 0.5 + math.sqrt(0.25 + _THETA_BUDGET / y0)
    if not n_star <= _THETA_MAX_ORDER - 1:
        raise RangeError("theta series at Im(varkappa) = %.3g needs an order N above %d"
                         % (y0, _THETA_MAX_ORDER))
    return math.ceil(n_star) + 1


def _theta_per_row(s, vk, big_n: list, order) -> list:
    """[Theta] or [Theta, Theta'] of a 2-D s with one vk per row.

    Each row takes its N in ``big_n``, that of its own vk.  The rows of one
    N share one exponential call and one stacked matrix-vector product,
    which is one product per row: a row gets the terms, the order of
    summation and so the bits of the call of that row alone.
    """
    s0, m, factor = _strip(s, vk[:, np.newaxis])
    total = np.empty_like(s0)
    dtotal = None if order == 0 else np.empty_like(s0)
    for n_rows in set(big_n):
        rows = [k for k, v in enumerate(big_n) if v == n_rows]
        if len(rows) == len(big_n):
            rows = slice(None)
        n = np.arange(-n_rows, n_rows + 1, dtype=float)
        z = np.exp(np.multiply.outer(2j * np.pi * s0[rows], n))
        q = np.exp(np.multiply.outer(1j * np.pi * vk[rows], n * n))[:, :, np.newaxis]
        total[rows] = (z @ q)[..., 0]
        if dtotal is not None:
            dtotal[rows] = (z @ ((2j * np.pi * n)[:, np.newaxis] * q))[..., 0]
    # F times a named array, not a temporary: numpy computes a product with a
    # temporary above 256 KiB in place, its operands swapped, and a complex
    # product's bits depend on the order (Theta' of 20,000 values came out
    # 1 ulp off in 4,088 of them against the same values 100 at a time)
    if dtotal is None:
        return [factor * total]
    dtotal = dtotal - (2j * np.pi * m) * total
    return [factor * total, factor * dtotal]


# ----------------------------------------------------------------------
# Complete elliptic integrals, Carlson's R_F and Gauss series
# ----------------------------------------------------------------------

# an AGM pass stops once c_n is below this times g_0 <= M: then |a_n - M| <=
# a_n - g_n = c_n^2/(2 a_(n+1)) is below 2^-55 of M
_AGM_TOL = 2.0 ** -27


def _agm_pass(p: float, p1: float) -> tuple[float, float]:
    """(K(p), S(p)) from one AGM pass (DLMF 19.8.1, 19.8.6): from a_0 = 1,
    g_0 = sqrt(p1), c_0 = sqrt(p), with c_(n+1) = (a_n - g_n)/2 taken as
    c_n^2/(4 a_(n+1)), K(p) = pi/(2M) and S(p) = sum_n 2^(n-1) c_n^2, so
    that E(p) = K(p)(1 - S(p))."""
    a, g, c, s, w = 1.0, math.sqrt(p1), math.sqrt(p), 0.5 * p, 0.5
    tol = _AGM_TOL * g
    while c > tol:
        an = 0.5 * (a + g)
        c = 0.25 * c * c / an
        g = math.sqrt(a * g)
        a = an
        w += w
        s += w * c * c
    return 0.5 * math.pi / a, s


def _ellipke(m: float, m1: float) -> tuple[float, float, float, float]:
    """(K(m), E(m), K(m1), E(m1)) for a parameter m in (0, 1) and its
    complement m1 = 1 - m, passed as a pair so that the caller forms the
    small one without subtraction; the two must sum to 1 within 1e-12.

    One AGM pass per parameter (``_agm_pass``).  As p -> 1, E(p) = K(p)(1 -
    S(p)) cancels (E -> 1 while K diverges), so the E of the parameter
    above 1/2 comes from Legendre's relation (DLMF 19.7.1) with the other
    pass, E(p) = pi/(2K(1 - p)) + K(p) S(1 - p), a sum of positive terms.
    """
    if not (m > 0.0 and m1 > 0.0 and abs(m + m1 - 1.0) <= 1e-12):
        raise DomainError("elliptic parameters need m, m1 > 0 with m + m1 = 1, got %r, %r"
                          % (m, m1))
    k, s = _agm_pass(m, m1)
    k1, s1 = _agm_pass(m1, m)
    if m <= m1:
        return k, k * (1.0 - s), k1, 0.5 * math.pi / k + k1 * s
    return k, 0.5 * math.pi / k1 + k * s1, k1, k1 * (1.0 - s1)


# duplication stops once 4^-n times this spread is below |A_n|: Carlson's
# bound on the dropped terms of the series is then 2^-53 (r = 2^-53 in his
# (3r)^(-1/6))
_RF_SCALE = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)
_RF_MAX_STEPS = 40


def _rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) for x, y, z >= 0, at most one of them zero.

    Duplication (Carlson 1995, Numer. Algorithms 10, 13-26; DLMF 19.36.1):
    with lam = sqrt(x y) + sqrt(x z) + sqrt(y z), each step maps every
    argument v to (v + lam)/4, which leaves R_F unchanged and shrinks the
    spread about the mean A fourfold.  Then the series in the normalized
    deviations X, Y, Z = -X - Y gives R_F = (1 - E2/10 + E3/14 + E2^2/24 -
    3 E2 E3/44)/sqrt(A), E2 = XY - Z^2, E3 = XYZ.
    """
    if not min(x, y, z) >= 0.0:
        raise DomainError("R_F needs nonnegative arguments, got %r, %r, %r" % (x, y, z))
    a0 = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = _RF_SCALE * max(abs(dx), abs(dy), abs(a0 - z))
    a, f = a0, 1.0
    for _ in range(_RF_MAX_STEPS):
        if q * f < a:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        f *= 0.25
    else:
        raise DomainError("R_F needs finite arguments, at most one of them zero")
    xx, yy = dx * f / a, dy * f / a
    zz = -xx - yy
    e2, e3 = xx * yy - zz * zz, xx * yy * zz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def _hyp2f1_taylor(a: float, b: float, c: float, terms: int) -> tuple[float, ...]:
    """The Taylor coefficients of 2F1(a, b; c; x) (DLMF 15.2.1) below x^terms,
    highest first, for ``_horner``."""
    coeffs, t = [], 1.0
    for n in range(terms):
        coeffs.append(t)
        t *= (a + n) * (b + n) / ((c + n) * (n + 1))
    return tuple(coeffs[::-1])


def _horner(coeffs, x: float) -> float:
    """The polynomial with ``coeffs`` (highest first) at x."""
    total = 0.0
    for c in coeffs:
        total = total * x + c
    return total


def _horner_pairs(pairs, x: float) -> tuple[float, float]:
    """The two polynomials whose coefficients (highest first) are the firsts
    and the seconds of ``pairs``, at x, in one Horner pass."""
    p = q = 0.0
    for a, b in pairs:
        p = p * x + a
        q = q * x + b
    return p, q


# ----------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

_GK_ABSC = [
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
]
_GK_WK = [
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
]
_GK_WG = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
]
_GK_X = np.array([-x for x in _GK_ABSC[:-1]] + [0.0] + _GK_ABSC[-2::-1])
_K15_W = np.array(_GK_WK[:-1] + [_GK_WK[-1]] + _GK_WK[-2::-1])
_G7_W = np.zeros(15)
_G7_W[1:14:2] = _GK_WG[:-1] + [_GK_WG[-1]] + _GK_WG[-2::-1]


def _eval_nodes(f, x):
    """f at an array of nodes in one call; integrands must be vectorized."""
    try:
        fx = np.asarray(f(x))
    except TypeError as exc:    # a scalar-only function such as math.exp
        raise DomainError("integrand does not take an array of nodes: %s" % exc) from exc
    if fx.shape != x.shape:
        raise DomainError("integrand gave shape %r for nodes of shape %r"
                          % (fx.shape, x.shape))
    return fx


def gauss_kronrod_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss7-Kronrod15 rule on the panels between sorted ``edges``:
    the nodes, the K15 weights and the weights of the embedded G7 rule (zero
    at the Kronrod-only nodes), so that one set of function values gives both
    sums."""
    half = 0.5 * np.diff(edges)[:, np.newaxis]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, np.newaxis]
    return ((mid + half * _GK_X).ravel(), (half * _K15_W).ravel(),
            (half * _G7_W).ravel())


def _gk_panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GK_X
    fx = _eval_nodes(f, x)
    k15 = half * np.sum(_K15_W * fx)
    g7 = half * np.sum(_G7_W * fx)
    diff = abs(k15 - g7)
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0 else 0.0
    return k15, err


def quad(f: Callable, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> QuadResult:
    """Adaptive Gauss7-Kronrod15 integral of ``f`` over [a, b].

    Returns the value together with an error estimate; raises
    ``ConvergenceError`` (carrying the best estimate) when the subdivision
    budget is exhausted before the tolerances are met.

    A panel's estimate, min(d, (200 d)^1.5) of the Gauss-Kronrod gap d,
    assumes a smooth integrand, and it under-reports on a panel that holds
    an endpoint or log singularity inside: ``quad_band`` of int_a^b |w| dz
    at a = 1e-6 b stopped at rel_tol 1e-14 but was 8.4e-13 off.  A singular
    point must be a panel edge, an end of [a, b], as ``h_eval`` in
    ``tests/oracles.py`` splits its gap integral at 0.
    """
    if a == b:
        return QuadResult(0.0, 0.0)
    val, err = _gk_panel(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    n = 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        if n >= spec.max_subdivisions:
            raise ConvergenceError(
                "quadrature did not converge in %d panels (err=%.3g)"
                % (n, total_err), best=total_val, estimate_error=total_err)
        _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        v1, e1 = _gk_panel(f, pa, mid)
        v2, e2 = _gk_panel(f, mid, pb)
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, pb, v2, e2))
        n += 1
    return QuadResult(total_val, total_err)


def quad_band(f: Callable, a: float, b: float,
              spec: QuadratureSpec = QuadratureSpec()) -> QuadResult:
    """Integral of f(z)/sqrt((z-a)(b-z)) over (a, b).

    Uses z = a + (b-a)*sin(phi)^2, which removes both inverse-square-root
    endpoints (the Chebyshev weight turns into the constant 2).
    """
    if not a < b:
        raise DomainError("quad_band requires a < b, got (%r, %r)" % (a, b))
    span = b - a

    def g(phi):
        z = a + span * np.sin(phi) ** 2
        return 2.0 * f(z)

    return quad(g, 0.0, 0.5 * np.pi, spec)


def _truncation_point(f, start, sign):
    x = start
    for _ in range(60):
        probe = np.abs(_eval_nodes(f, sign * x * np.array([1.0, 1.37, 1.73])))
        if probe.max() < _TAIL_CUTOFF:
            return sign * x * 1.73
        x *= 2.0
    raise ConvergenceError("integrand does not fall below tail cutoff %g" % _TAIL_CUTOFF)


def quad_real_line(f: Callable, spec: QuadratureSpec = QuadratureSpec(),
                   tail: Callable | None = None) -> QuadResult:
    """Truncated integral of ``f`` over the whole real line.

    The domain is cut where |f| falls below ``_TAIL_CUTOFF``; ``tail``,
    when given, is called as ``tail(lo, hi)`` and must return an analytic
    estimate of the dropped mass, which is added to the result.
    """
    hi = _truncation_point(f, 8.0, +1)
    lo = _truncation_point(f, 8.0, -1)
    left = quad(f, lo, 0.0, spec)
    right = quad(f, 0.0, hi, spec)
    value = left.value + right.value
    err = left.error + right.error
    if tail is not None:
        value += tail(lo, hi)
    return QuadResult(value, err)


def quad_pv(f: Callable, c: float, spec: QuadratureSpec = QuadratureSpec(),
            tail: Callable | None = None) -> QuadResult:
    """Cauchy principal value of integral f(z)/(z-c) dz over the real line.

    Subtracts f(c) on a symmetric window around ``c`` (the regularized
    quotient (f(z)-f(c))/(z-c) is integrated there), integrates the plain
    quotient outside, and adds the exact log term f(c)*log((hi-c)/(c-lo))
    for the truncated, generally asymmetric, domain.  The domain [lo, hi]
    is cut where |f(z)/(z-c)| falls below ``_TAIL_CUTOFF``, searched from
    max(8, 2|c| + 2) out; ``tail`` is as in ``quad_real_line``.

    The error adds to the quadrature estimates the gap to a second
    evaluation on a window of half the width, with twice the difference
    step for the slope f'(c) that the quotient takes at c.  The gap carries
    what those estimates miss: the error of the slope, the cancellation in
    f(z)-f(c), and an outer integrand they under-resolve.
    """
    fc = f(c)
    start = max(8.0, 2 * abs(c) + 2)
    hi = _truncation_point(lambda x: f(x) / (x - c), start, +1)
    lo = _truncation_point(lambda x: f(x) / (x - c), start, -1)
    value, err = _pv_window(f, c, fc, lo, hi, 1.0, spec)
    value_half, err_half = _pv_window(f, c, fc, lo, hi, 0.5, spec)
    if tail is not None:
        value += tail(lo, hi)
    return QuadResult(value, err + err_half + abs(value - value_half))


def _pv_window(f, c, fc, lo, hi, scale, spec):
    """(value, error) of the principal value over [lo, hi], the subtraction
    window scaled by ``scale`` and the slope's difference step by 1/scale."""
    h = 1e-6 * (1.0 + abs(c)) / scale
    dfc = (f(c + h) - f(c - h)) / (2.0 * h)
    w = scale * max(1.0, 0.1 * (1.0 + abs(c)))
    w_hi = min(w, 0.5 * (hi - c))
    w_lo = min(w, 0.5 * (c - lo))
    if w_hi <= 0 or w_lo <= 0:
        raise DomainError("pv pole %r too close to the truncated boundary" % c)

    def reg(x):
        x = np.asarray(x, dtype=float)
        num = _eval_nodes(f, x) - fc
        out = np.where(np.abs(x - c) < 1e-12 * (1 + abs(c)), dfc,
                       num / np.where(x == c, 1.0, x - c))
        return out

    inner = quad(reg, c - w_lo, c + w_hi, spec)
    outer_l = quad(lambda x: f(x) / (x - c), lo, c - w_lo, spec)
    outer_r = quad(lambda x: f(x) / (x - c), c + w_hi, hi, spec)
    # exact kernel term on the (possibly clipped, hence asymmetric) window
    value = inner.value + outer_l.value + outer_r.value + fc * math.log(w_hi / w_lo)
    return value, inner.error + outer_l.error + outer_r.error


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

_ROOT_MAX_ITER = 200
# find_root's stopping tolerance, absolute
_ROOT_TOL = 1e-15


def find_root(g: Callable, dg: Callable, lo: float, hi: float) -> float:
    """Bracketed Newton root of ``g`` on [lo, hi]; ``dg`` is its derivative.

    Requires a sign change.  A Newton step is taken when it lands strictly
    inside the current bracket, a bisection otherwise; stops when
    |g(root)| <= ``_ROOT_TOL`` or the bracket width or the step falls below
    it (absolute), or when a step rounds to no change of x.
    """
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise BracketError("no sign change on [%r, %r]" % (lo, hi))
    x, gx = (lo, glo) if abs(glo) < abs(ghi) else (hi, ghi)
    return _bracketed_newton(g, dg, lo, hi, glo, x, gx)[0]


def _bracketed_newton(g: Callable, dg: Callable, lo: float, hi: float, glo: float,
                      x: float, gx: float) -> tuple[float, float]:
    """(x, g(x)) at the root of ``g`` in [lo, hi], from the start x in it,
    with g(lo) = ``glo`` and g(x) = ``gx`` already evaluated and g(hi) of
    the other sign than ``glo``: ``find_root``'s loop.  The g returned is
    the last evaluation, at the x returned."""
    a, b, ga = lo, hi, glo
    for _ in range(_ROOT_MAX_ITER):
        if ga * gx <= 0:
            b = x
        else:
            a, ga = x, gx
        d = dg(x)
        x_new = x - gx / d if d != 0.0 else math.nan   # a flat slope bisects
        if x_new == x:      # the step rounds away: x is the root to rounding
            return x, gx
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        step, x = abs(x_new - x), x_new
        gx = g(x)
        if abs(gx) <= _ROOT_TOL or (b - a) <= _ROOT_TOL or step <= _ROOT_TOL:
            return x, gx
    if abs(gx) <= 100 * _ROOT_TOL or (b - a) <= 100 * _ROOT_TOL:
        return x, gx
    raise ConvergenceError("find_root exhausted %d iterations" % _ROOT_MAX_ITER, best=x)
