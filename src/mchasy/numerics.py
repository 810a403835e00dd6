"""Shared numerical kernels.

Airy Ai/Ai' (Cephes, through scipy), the Jacobi theta series, adaptive
Gauss-Kronrod quadrature with principal-value and inverse-square-root band
variants, truncated real-line integrals, and a bracketed Newton root finder.
All quadratures accept complex-valued integrands.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import airy as _sp_airy

from .errors import (
    BracketError,
    ConvergenceError,
    DivergentSeriesError,
    DomainError,
    RangeError,
)

__all__ = [
    "QuadratureSpec",
    "ThetaParams",
    "airy",
    "jacobi_theta",
    "quad",
    "quad_pv",
    "quad_band",
    "find_root",
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


@dataclass(frozen=True)
class ThetaParams:
    """Period ratio of the theta series."""

    varkappa: complex = 1j

    def __post_init__(self):
        if not np.imag(self.varkappa) > 0:
            raise DivergentSeriesError(
                "theta series needs Im(varkappa) > 0, got %r" % (self.varkappa,))


class QuadResult(NamedTuple):
    value: complex
    error: float


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------

_AIRY_RANGE = 30.0


def airy(s: float) -> tuple[float, float]:
    """Return (Ai(s), Ai'(s)) for |s| <= 30 (Cephes, through scipy).

    Against 40-digit mpmath on [-30, 30] the absolute error is below 1e-13,
    and on s >= 0, where Ai decays, the relative error is below 1e-12.
    """
    s = float(s)
    if not math.isfinite(s) or abs(s) > _AIRY_RANGE:
        raise RangeError("airy accuracy range is |s| <= %g, got %r" % (_AIRY_RANGE, s))
    ai, aip, _bi, _bip = _sp_airy(s)
    return float(ai), float(aip)


# ----------------------------------------------------------------------
# Jacobi theta series
# ----------------------------------------------------------------------

# largest log|F| that jacobi_theta accepts; doubles end at about exp(709.78)
_LOG_THETA_MAX = 700.0
_THETA_TOL = 1e-15      # absolute bound on the dropped tail of the series


def jacobi_theta(s, params: ThetaParams, order: int | tuple[int, int] = 0):
    """Theta series sum(exp(2*pi*i*n*s + pi*i*varkappa*n^2), n in Z).

    Double precision after reduction into the fundamental strip (DLMF
    20.2(ii)): s = s0 + m*varkappa + j with m, j integers and |Im s0| <=
    Im(varkappa)/2, and Theta(s) = F*Theta(s0) with F = exp(-pi*i*m^2*varkappa
    - 2*pi*i*m*s0).  Theta(s0) sums |n| <= N, N the smallest order whose
    dropped terms are below ``_THETA_TOL`` anywhere in the strip (Deconinck
    et al. 2004, Math. Comp. 73).  ``order=(0, 1)`` gives the pair (Theta,
    Theta') from the same exponentials, Theta' = F*(Theta'(s0) -
    2*pi*i*m*Theta(s0)).  A scalar ``s`` gives a ``complex``, an array a
    complex array of its shape (one exponential over s x (2N+1) terms).
    """
    vk = complex(params.varkappa)
    if not vk.imag > 0:
        raise DivergentSeriesError("Im(varkappa) must be positive")
    if order not in (0, (0, 1)):
        raise DomainError("order must be 0 or (0, 1)")
    s = np.asarray(s, dtype=complex)
    s = s - np.round(s.real)   # exact: Theta has period 1
    m = np.round(s.imag / vk.imag)
    s0, factor = s, 1.0
    if m.any():
        s0 = s - m * vk
        log_f = (-1j * np.pi * m) * (s + s0)
        # F*Theta(s0) would overflow to inf, and a quotient of two to nan
        if log_f.real.max() > _LOG_THETA_MAX:
            raise RangeError("Theta(s) overflows double precision at Im(s)/Im(varkappa)"
                             " = %.3g" % np.abs(m).max())
        factor = np.exp(log_f)
        s0 = s0 - np.round(s0.real)
    # with y0 = Im(varkappa), |Im s0| <= y0/2 bounds |term n| by exp(-pi*y0*(n^2 - |n|)),
    # which is below _THETA_TOL beyond n* = 1/2 + sqrt(1/4 + budget/y0)
    budget = -math.log(_THETA_TOL) / math.pi
    big_n = math.ceil(0.5 + math.sqrt(0.25 + budget / vk.imag)) + 1
    n = np.arange(-big_n, big_n + 1, dtype=float)
    z = np.exp(np.multiply.outer(2j * np.pi * s0, n))
    q = np.exp((1j * np.pi * vk) * (n * n))
    total = z @ q
    if order == 0:
        return _theta_out(factor * total)
    return (_theta_out(factor * total),
            _theta_out(factor * (z @ (2j * np.pi * n * q) - (2j * np.pi * m) * total)))


def _theta_out(total):
    return complex(total) if total.ndim == 0 else total


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
                   tail: Callable | None = None, start: float = 8.0) -> QuadResult:
    """Truncated integral of ``f`` over the whole real line.

    The domain is cut where |f| falls below ``_TAIL_CUTOFF``; ``tail``,
    when given, is called as ``tail(lo, hi)`` and must return an analytic
    estimate of the dropped mass, which is added to the result.
    """
    hi = _truncation_point(f, start, +1)
    lo = _truncation_point(f, start, -1)
    left = quad(f, lo, 0.0, spec)
    right = quad(f, 0.0, hi, spec)
    value = left.value + right.value
    err = left.error + right.error
    if tail is not None:
        value += tail(lo, hi)
    return QuadResult(value, err)


def quad_pv(f: Callable, c: float, spec: QuadratureSpec = QuadratureSpec(),
            lo: float | None = None, hi: float | None = None,
            tail: Callable | None = None) -> QuadResult:
    """Cauchy principal value of integral f(z)/(z-c) dz over the real line.

    Subtracts f(c) on a symmetric window around ``c`` (the regularized
    quotient (f(z)-f(c))/(z-c) is integrated there), integrates the plain
    quotient outside, and adds the exact log term f(c)*log((hi-c)/(c-lo))
    for the truncated, generally asymmetric, domain.

    The error adds to the quadrature estimates the gap to a second
    evaluation on a window of half the width, with twice the difference
    step for the slope f'(c) that the quotient takes at c.  The gap carries
    what those estimates miss: the error of the slope, the cancellation in
    f(z)-f(c), and an outer integrand they under-resolve.
    """
    fc = f(c)
    if hi is None:
        hi = _truncation_point(lambda x: f(x) / (x - c), max(8.0, 2 * abs(c) + 2), +1)
    if lo is None:
        lo = _truncation_point(lambda x: f(x) / (x - c), max(8.0, 2 * abs(c) + 2), -1)
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
    it (absolute).
    """
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise BracketError("no sign change on [%r, %r]" % (lo, hi))
    a, b, ga = lo, hi, glo
    x, gx = (lo, glo) if abs(glo) < abs(ghi) else (hi, ghi)
    for _ in range(_ROOT_MAX_ITER):
        d = dg(x)
        x_new = x - gx / d if d != 0.0 else math.nan   # a flat slope bisects
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        step, x = abs(x_new - x), x_new
        gx = g(x)
        if abs(gx) <= _ROOT_TOL or (b - a) <= _ROOT_TOL or step <= _ROOT_TOL:
            return x
        if ga * gx <= 0:
            b = x
        else:
            a, ga = x, gx
    if abs(gx) <= 100 * _ROOT_TOL or (b - a) <= 100 * _ROOT_TOL:
        return x
    raise ConvergenceError("find_root exhausted %d iterations" % _ROOT_MAX_ITER, best=x)
