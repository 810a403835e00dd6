"""Painleve II transcendents v'' = s v + 2 v^3 fixed by v ~ k*Ai(s), s -> +inf.

Ablowitz-Segur solutions (|k| < 1) are integrated backward from the Airy
data at s_max by a fixed-order Taylor method (Fornberg & Weideman 2011,
J. Comput. Phys. 230).  The problem is ill-conditioned as |k| -> 1: the
error grows like 1e-11/(1-|k|), which each solution carries as
``err_est``, and a solve whose estimate exceeds 1e-6 raises
``ConvergenceError``.  The Hastings-McLeod edge |k| = 1 is a separatrix,
solved as a two-point boundary value problem from an Airy/square-root
guess and memoized per process.  Both carry dense output for (v, v', Q),
Q(s) the tail integral of v^2, as one polynomial per piece: the Taylor
step polynomials, or the BVP's cubic spline.
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import mul

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError
from .numerics import airy

__all__ = [
    "PIISolution",
    "SolutionCache",
    "solve_pii",
    "eval_pii",
]

_HM_EDGE = 1e-12    # |k| within this of 1 is Hastings-McLeod
_AS_ERR = 1e-11     # error of an Ablowitz-Segur solve is about _AS_ERR/(1-|k|)
_AS_ERR_MAX = 1e-6
_S_MIN_HARD = -12.0
_S_MAX_REQ = 8.0
_ORDER = 24
_H_MAX = 1.0
_H_MIN = 0.02       # a pole near the axis shrinks the step below this
_DEN = tuple(1.0 / ((n + 2) * (n + 1)) for n in range(_ORDER - 1))


def _airy_data(k, s):
    """(v, v', Q) of v = k*Ai at s, scalar or array: Q(s) = int_s^inf v^2
    = k^2 (Ai'(s)^2 - s*Ai(s)^2)."""
    ai, aip = airy(s)
    return k * ai, k * aip, k * k * (aip * aip - s * ai * ai)


def _horner(row, t):
    """(v, v', Q) of one piece at offset t from its center, by one Horner
    pass over the coefficient triples."""
    v = vp = q = 0.0
    for cv, cd, cq in row:
        v = v * t + cv
        vp = vp * t + cd
        q = q * t + cq
    return v, vp, q


class _Pieces:
    """Dense (v, v', Q) as one polynomial per piece.

    Piece i covers [edges[i], edges[i+1]] and is a polynomial in the offset
    from its center; ``row(i)`` gives its coefficient triples (v, v', Q),
    highest power first.  The center is the right end of the piece
    (``right``, backward Taylor steps) or the left end (a spline), and a
    joint is evaluated on the piece centered there.  ``rows`` is a list of
    rows, or an array of shape (pieces, degree+1, 3) that stays compact and
    gives a row as floats when it is used.
    """

    def __init__(self, edges, rows, right):
        self.edges = array("d", edges)
        self._last = len(rows) - 1
        self._right = int(right)
        self._find = bisect_left if right else bisect_right
        if isinstance(rows, np.ndarray):
            self.row = lambda i: rows[i].tolist()
        else:
            self.row = rows.__getitem__

    def at(self, s: float) -> tuple:
        """(v, v', Q) at a float s."""
        i = min(max(self._find(self.edges, s) - 1, 0), self._last)
        return _horner(self.row(i), s - self.edges[i + self._right])


@dataclass(frozen=True)
class PIISolution:
    """Dense-output Painleve II solution on [s_min, s_max].

    ``err_est`` is its estimated error relative to the scale of (v, v', Q):
    1e-11/(1-|k|) for Ablowitz-Segur, the collocation tolerance for
    Hastings-McLeod.
    """

    k: float
    s_min: float
    s_max: float
    tol: float
    kind: str
    err_est: float
    _dense: _Pieces = field(repr=False)


def _rhs(s, y):
    v, vp, _q = y
    return np.vstack((vp, s * v + 2.0 * v ** 3, -v * v))


def _taylor_coeffs(s0, v, vp, q):
    """Taylor coefficients at s0 of v (order ``_ORDER``) and of Q.

    (n+2)(n+1) a_{n+2} = s0 a_n + a_{n-1} + 2 (a*a*a)_n, where the cube is
    formed as b*a with b = a*a, the coefficients of v^2; Q' = -v^2 gives
    (n+1) q_{n+1} = -b_n.
    """
    a = [v, vp]
    rev = [v]          # a_n, ..., a_0
    b = []
    prev = 0.0
    for n, den in enumerate(_DEN):
        b.append(sum(map(mul, a, rev)))
        an = a[n]
        a.append((s0 * an + prev + 2.0 * sum(map(mul, b, rev))) * den)
        prev = an
        rev.insert(0, a[n + 1])
    b.append(sum(map(mul, a, rev)))
    return a, [q] + [-bn / (n + 1) for n, bn in enumerate(b)]


def _step_size(a, qc, rtol):
    """Largest h <= _H_MAX at which the last two terms of v and Q are below
    rtol times the size of the first two."""
    h = _H_MAX
    for c in (a, qc):
        size = abs(c[0]) + abs(c[1])
        for j in (_ORDER - 1, _ORDER):
            if c[j]:
                # the ratio first, so that a tiny k cannot underflow rtol*size
                h = min(h, (rtol * (size / abs(c[j]))) ** (1.0 / j))
    return h


def _solve_ivp_branch(k, s_min, s_max, tol):
    # adding 0.0 turns a signed zero of k = 0 into +0.0
    v, vp, q = (x + 0.0 for x in _airy_data(k, s_max))
    rtol = max(1e-6 * tol, 1e-16)
    s0 = s_max
    edges, rows = [], []
    while s0 > s_min:
        a, qc = _taylor_coeffs(s0, v, vp, q)
        h = _step_size(a, qc, rtol)
        if h < _H_MIN:
            raise ConvergenceError("Painleve II (k=%r): a pole near s=%.6g "
                                   "shrinks the Taylor step to %.2g" % (k, s0, h))
        dv = [j * a[j] for j in range(1, _ORDER + 1)] + [0.0]
        row = list(zip(a[::-1], dv[::-1], qc[::-1]))
        s1 = max(s0 - h, s_min)
        v, vp, q = _horner(row, s1 - s0)
        edges.append(s0)
        rows.append(row)
        s0 = s1
    edges.append(s_min)
    edges.reverse()
    rows.reverse()
    return _Pieces(edges, rows, right=True)


@functools.lru_cache(maxsize=32)
def _solve_bvp_branch(sgn, s_min, s_max, tol):
    """Hastings-McLeod solution of sign ``sgn``, memoized per process: it
    does not depend on the scattering data.  Each s_min below -10 is a key
    of its own, and an entry is a spline of about 3,000 pieces (0.3 MB),
    hence the bound."""
    from scipy.integrate import solve_bvp

    v_right, _vp_right, q_right = _airy_data(sgn, s_max)

    def bc(ya, yb):
        return np.array([
            ya[0] - sgn * math.sqrt(-s_min / 2.0),
            yb[0] - v_right,
            yb[2] - q_right,
        ])

    mesh = np.linspace(s_min, s_max, 801)
    v_pos, _vp_pos, q_pos = _airy_data(1.0, np.maximum(mesh, 0.0))
    guess = np.zeros((3, mesh.size))
    guess[0] = sgn * np.sqrt(np.maximum(-mesh, 0.0) / 2.0) \
        + np.where(mesh >= 0, v_pos, 0.0) * sgn
    guess[1] = np.gradient(guess[0], mesh)
    guess[2] = q_pos
    sol = solve_bvp(_rhs, bc, mesh, guess, tol=min(tol, 1e-10), max_nodes=200000)
    if sol.status != 0:
        raise ConvergenceError("Hastings-McLeod BVP failed: %s" % sol.message)
    # solve_bvp's spline is a PPoly with coefficients (power, piece, component)
    return _Pieces(sol.x, np.transpose(sol.sol.c, (1, 0, 2)).copy(), right=False)


def _is_ablowitz_segur(k: float) -> bool:
    return abs(k) < 1.0 - _HM_EDGE


def s_min_for(s: float) -> float:
    """Left end of the solution domain a lookup at s asks for: -10, or half a
    unit below s when s is deeper, never below ``_S_MIN_HARD``."""
    return -10.0 if s >= -10.0 else max(_S_MIN_HARD, s - 0.5)


def solve_pii(k: float, s_min: float = -10.0, s_max: float = 10.0,
              tol: float = 1e-10) -> PIISolution:
    """Painleve II solution with v ~ k*Ai(s) as s -> +inf, k in [-1, 1]."""
    k = float(k)
    if abs(k) > 1.0 + _HM_EDGE:
        raise DomainError("|k| <= 1 required (pole fields beyond), got %r" % k)
    if s_max < _S_MAX_REQ:
        raise DomainError("s_max >= %g required for trustworthy Airy data" % _S_MAX_REQ)
    if s_min < _S_MIN_HARD:
        raise RangeError("s_min below the documented stability range %g" % _S_MIN_HARD)
    if _is_ablowitz_segur(k):
        err = _AS_ERR / (1.0 - abs(k))
        if err > _AS_ERR_MAX:
            raise ConvergenceError(
                "Painleve II (k=%r) too close to Hastings-McLeod: estimated "
                "error %.1e exceeds %g" % (k, err, _AS_ERR_MAX),
                estimate_error=err)
        dense = _solve_ivp_branch(k, s_min, s_max, tol)
        kind = "ivp"
    else:
        dense = _solve_bvp_branch(math.copysign(1.0, k), s_min, s_max, tol)
        kind = "bvp"
        err = min(tol, 1e-10)
    return PIISolution(k=k, s_min=s_min, s_max=s_max, tol=tol, kind=kind,
                       err_est=err, _dense=dense)


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
    return sol._dense.at(s)


class SolutionCache:
    """Thread-safe memo of PIISolution keyed by (k, domain, tol).

    Ablowitz-Segur solutions (every |k| < 1) nest: backward integration
    from s_max takes the same steps whatever s_min is, and only the last,
    clipped step differs.  So each (k, s_max, tol) is integrated once, down
    to ``_S_MIN_HARD``, and every s_min gets a PIISolution that shares that
    dense output but keeps its own s_min, below which ``eval_pii`` still
    raises.  Hastings-McLeod solutions do not nest: the BVP puts its left
    boundary condition at s_min, so they are looked up per s_min, from the
    process-wide memo of BVP solutions.
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
        if _is_ablowitz_segur(k) and s_min > _S_MIN_HARD:
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
