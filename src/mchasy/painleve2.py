"""Painleve II transcendents v'' = s v + 2 v^3 fixed by v ~ k*Ai(s), s -> +inf.

Ablowitz-Segur range |k| < 1 is integrated backward from the Airy data; the
Hastings-McLeod edge k = +-1 is a separatrix and is solved as a two-point
boundary value problem from an Airy/square-root guess.  Solutions carry
dense output for (v, v', Q) with Q(s) the tail integral of v^2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_bvp, solve_ivp

from .errors import ConvergenceError, DomainError, RangeError
from .numerics import airy

__all__ = [
    "PIISolution",
    "SolutionCache",
    "solve_pii",
    "eval_pii",
    "parametrix_m1",
    "parametrix_m2",
]

_BVP_EDGE = 0.999   # backward shooting is exponentially unstable beyond this
_S_MIN_HARD = -12.0
_S_MAX_REQ = 8.0


def _airy_data(k, s):
    """(v, v', Q) of v = k*Ai at s, scalar or array: Q(s) = int_s^inf v^2
    = k^2 (Ai'(s)^2 - s*Ai(s)^2)."""
    ai, aip = airy(s)
    return k * ai, k * aip, k * k * (aip * aip - s * ai * ai)


@dataclass(frozen=True)
class PIISolution:
    """Dense-output Painleve II solution on [s_min, s_max]."""

    k: float
    s_min: float
    s_max: float
    tol: float
    kind: str
    _dense: object = field(repr=False)

    def __call__(self, s: float):
        return eval_pii(self, s)


def _rhs(s, y):
    v, vp, _q = y
    return np.vstack((vp, s * v + 2.0 * v ** 3, -v * v))


def _rhs_scalar(s, y):
    # solve_ivp calls one point at a time: Python floats beat array arithmetic
    v, vp, _q = y.tolist()
    return [vp, s * v + 2.0 * v ** 3, -v * v]


def _solve_ivp_branch(k, s_min, s_max, tol):
    y0 = np.array(_airy_data(k, s_max))
    # atol must sit far below the tiny Airy data at s_max, else the quiet
    # start is resolved only in absolute terms and the relative accuracy of
    # the s > 0 wing is lost; rtol sits a notch below the requested tol so
    # the dense output stays within it
    rtol = max(min(0.1 * tol, 1e-10), 1e-13)
    atol = max(abs(y0[0]), 1e-30) * rtol * 1e-2
    sol = solve_ivp(_rhs_scalar, (s_max, s_min), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise ConvergenceError("Painleve II integration failed: %s" % sol.message)
    return sol.sol


def _solve_bvp_branch(k, s_min, s_max, tol):
    sgn = math.copysign(1.0, k)
    v_right, _vp_right, q_right = _airy_data(k, s_max)

    def bc(ya, yb):
        return np.array([
            ya[0] - sgn * math.sqrt(-s_min / 2.0),
            yb[0] - v_right,
            yb[2] - q_right,
        ])

    mesh = np.linspace(s_min, s_max, 801)
    v_pos, _vp_pos, q_pos = _airy_data(abs(k), np.maximum(mesh, 0.0))
    guess = np.zeros((3, mesh.size))
    guess[0] = sgn * np.sqrt(np.maximum(-mesh, 0.0) / 2.0) \
        + np.where(mesh >= 0, v_pos, 0.0) * sgn
    guess[1] = np.gradient(guess[0], mesh)
    guess[2] = q_pos
    sol = solve_bvp(_rhs, bc, mesh, guess, tol=min(tol, 1e-10), max_nodes=200000)
    if sol.status != 0:
        raise ConvergenceError("Hastings-McLeod BVP failed: %s" % sol.message)
    return sol.sol


def s_min_for(s: float) -> float:
    """Left end of the solution domain a lookup at s asks for: -10, or half a
    unit below s when s is deeper, never below ``_S_MIN_HARD``."""
    return -10.0 if s >= -10.0 else max(_S_MIN_HARD, s - 0.5)


def solve_pii(k: float, s_min: float = -10.0, s_max: float = 10.0,
              tol: float = 1e-10) -> PIISolution:
    """Painleve II solution with v ~ k*Ai(s) as s -> +inf, k in [-1, 1]."""
    k = float(k)
    if abs(k) > 1.0 + 1e-12:
        raise DomainError("|k| <= 1 required (pole fields beyond), got %r" % k)
    if s_max < _S_MAX_REQ:
        raise DomainError("s_max >= %g required for trustworthy Airy data" % _S_MAX_REQ)
    if s_min < _S_MIN_HARD:
        raise RangeError("s_min below the documented stability range %g" % _S_MIN_HARD)
    if abs(k) <= _BVP_EDGE:
        dense = _solve_ivp_branch(k, s_min, s_max, tol)
        kind = "ivp"
    else:
        dense = _solve_bvp_branch(k, s_min, s_max, tol)
        kind = "bvp"
    return PIISolution(k=k, s_min=s_min, s_max=s_max, tol=tol, kind=kind, _dense=dense)


def eval_pii(sol: PIISolution, s: float):
    """(v, v', Q) at s.

    Beyond s_max the defining Airy asymptote k*Ai is used (the cubic term is
    below solver tolerance there); below s_min the solution is undefined.
    """
    s = float(s)
    if s < sol.s_min:
        raise RangeError("s=%r below solution domain [%r, %r]" % (s, sol.s_min, sol.s_max))
    if s > sol.s_max:
        if s > 30.0:
            return 0.0, 0.0, 0.0
        return _airy_data(sol.k, s)
    return tuple(sol._dense(s).tolist())


def parametrix_m1(sol: PIISolution, s: float) -> np.ndarray:
    """Leading expansion matrix: off-diagonal v, diagonal -+ i*Q, halved."""
    v, _vp, q = eval_pii(sol, s)
    return 0.5 * np.array([[-1j * q, v], [v, 1j * q]])


def parametrix_m2(sol: PIISolution, s: float) -> np.ndarray:
    """Second expansion matrix (v^2 - Q^2 diagonal, +-2i(vQ + v') off-diagonal, /8)."""
    v, vp, q = eval_pii(sol, s)
    d = v * v - q * q
    o = 2j * (v * q + vp)
    return 0.125 * np.array([[d, o], [-o, d]])


class SolutionCache:
    """Thread-safe memo of PIISolution keyed by (k, domain, tol).

    Ablowitz-Segur solutions (|k| <= ``_BVP_EDGE``) nest: backward
    integration from s_max takes the same steps whatever s_min is, and only
    the last, clipped step differs.  So each (k, s_max, tol) is integrated
    once, down to ``_S_MIN_HARD``, and every s_min gets a PIISolution that
    shares that dense output but keeps its own s_min, below which
    ``eval_pii`` still raises.  Hastings-McLeod solutions do not nest: the
    BVP puts its left boundary condition at s_min, so they are solved per
    s_min.
    """

    def __init__(self):
        self._store = {}
        self._lock = threading.Lock()

    def get(self, k: float, s_min: float = -10.0, s_max: float = 10.0,
            tol: float = 1e-10) -> PIISolution:
        key = (round(float(k), 14), s_min, s_max, tol)
        with self._lock:
            sol = self._store.get(key)
        if sol is not None:
            return sol
        if abs(k) <= _BVP_EDGE and s_min > _S_MIN_HARD:
            floor_key = (key[0], _S_MIN_HARD, s_max, tol)
            with self._lock:
                floor = self._store.get(floor_key)
            if floor is None:
                floor = solve_pii(k, _S_MIN_HARD, s_max, tol)
                with self._lock:
                    floor = self._store.setdefault(floor_key, floor)
            sol = replace(floor, s_min=s_min)
        else:
            sol = solve_pii(k, s_min, s_max, tol)
        with self._lock:
            return self._store.setdefault(key, sol)
