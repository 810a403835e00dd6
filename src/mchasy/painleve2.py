"""Painleve II transcendents v'' = s v + 2 v^3 fixed by v ~ k*Ai(s), s -> +inf.

Ablowitz-Segur solutions (|k| < 1) are integrated backward from the Airy
data at s_max by a fixed-order Taylor method (Fornberg & Weideman 2011,
J. Comput. Phys. 230), only as deep as their lookups reach.  The problem
is ill-conditioned as |k| -> 1: the error grows like 1e-11/(1-|k|), which
each solution carries as ``err_est``, and a solve whose estimate exceeds
1e-6 raises ``ConvergenceError``.  The Hastings-McLeod edge |k| = 1 is a
separatrix, solved as a two-point boundary value problem from an
Airy/square-root guess and memoized per process.  Both carry dense output
for (v, v', Q), Q(s) the tail integral of v^2, as one polynomial per
piece: the Taylor step polynomials, or the BVP's cubic spline.
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
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


class _Taylor:
    """Dense (v, v', Q) of an Ablowitz-Segur solution, integrated on demand.

    Backward Taylor steps start from the Airy data at s_max and are taken
    only when a lookup reaches below the last one, the last step clipped to
    end on ``_S_MIN_HARD``: whatever the order of lookups, the steps are
    those of one integration down to ``_S_MIN_HARD``.  Step i is the
    polynomial ``rows[i]`` (coefficient triples (v, v', Q), highest power
    first) in the offset from its right end, and ``neg_ends`` holds the
    negated step ends, -s_max first, so that it increases for ``bisect``.
    A joint is evaluated on the step centered there, the last end on the
    step that ends there.

    Steps are appended under a lock, each row before its left end, so that
    a lookup that finds its step among the ends it read first needs no
    lock.  A step that fails is not tried again: its ``ConvergenceError``
    is raised again for every lookup below its right end.
    """

    def __init__(self, k, s_max, tol):
        self.k = k
        # adding 0.0 turns a signed zero of k = 0 into +0.0
        self._state = tuple(x + 0.0 for x in _airy_data(k, s_max))
        self._rtol = max(1e-6 * tol, 1e-16)
        self._error = None
        self._lock = threading.Lock()
        self.rows = []
        self.neg_ends = array("d", [-s_max])

    def at(self, s: float) -> tuple:
        """(v, v', Q) at a float s."""
        # ends read first: the rows of the steps they close are all built
        n = len(self.neg_ends)
        i = bisect_right(self.neg_ends, -s, 0, n) - 1
        if not 0 <= i < n - 1:
            i = self.reach(s)
        return _horner(self.rows[i], s + self.neg_ends[i])

    def reach(self, s: float) -> int:
        """Index of the step that holds s, stepping back to it first."""
        with self._lock:
            while -self.neg_ends[-1] > max(s, _S_MIN_HARD) or not self.rows:
                if self._error is not None:
                    raise self._error.with_traceback(None)
                self._step()
        return min(max(bisect_right(self.neg_ends, -s) - 1, 0), len(self.rows) - 1)

    def _step(self):
        s0 = -self.neg_ends[-1]
        a, qc = _taylor_coeffs(s0, *self._state)
        h = _step_size(a, qc, self._rtol)
        if h < _H_MIN:
            self._error = ConvergenceError(
                "Painleve II (k=%r): a pole near s=%.6g shrinks the Taylor "
                "step to %.2g" % (self.k, s0, h))
            return
        dv = [j * a[j] for j in range(1, _ORDER + 1)] + [0.0]
        row = list(zip(a[::-1], dv[::-1], qc[::-1]))
        s1 = max(s0 - h, _S_MIN_HARD)
        self._state = _horner(row, s1 - s0)
        self.rows.append(row)
        self.neg_ends.append(-s1)


class _Pieces:
    """Dense (v, v', Q) of a Hastings-McLeod spline, one cubic per piece.

    Piece i covers [edges[i], edges[i+1]] and is a polynomial in the offset
    from its left end; ``coeffs[i]`` holds its coefficient triples (v, v',
    Q), highest power first, in an array of shape (pieces, 4, 3) that stays
    compact and gives a row as floats when it is used.  A joint is
    evaluated on the piece that starts there.
    """

    def __init__(self, edges, coeffs):
        self.edges = array("d", edges)
        self._coeffs = coeffs
        self._last = len(coeffs) - 1

    def at(self, s: float) -> tuple:
        """(v, v', Q) at a float s."""
        i = min(max(bisect_right(self.edges, s) - 1, 0), self._last)
        return _horner(self._coeffs[i].tolist(), s - self.edges[i])


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
    _dense: _Taylor | _Pieces = field(repr=False)


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
    return _Pieces(sol.x, np.transpose(sol.sol.c, (1, 0, 2)).copy())


def _is_ablowitz_segur(k: float) -> bool:
    return abs(k) < 1.0 - _HM_EDGE


def s_min_for(s: float) -> float:
    """Left end of the solution domain a lookup at s asks for: -10, or half a
    unit below s when s is deeper, never below ``_S_MIN_HARD``."""
    return -10.0 if s >= -10.0 else max(_S_MIN_HARD, s - 0.5)


def _check_domain(s_min, s_max):
    if s_max < _S_MAX_REQ:
        raise DomainError("s_max >= %g required for trustworthy Airy data" % _S_MAX_REQ)
    if s_min < _S_MIN_HARD:
        raise RangeError("s_min below the documented stability range %g" % _S_MIN_HARD)


def _as_error(k):
    """Error estimate of the Ablowitz-Segur solution k, refused above
    ``_AS_ERR_MAX``."""
    err = _AS_ERR / (1.0 - abs(k))
    if err > _AS_ERR_MAX:
        raise ConvergenceError(
            "Painleve II (k=%r) too close to Hastings-McLeod: estimated "
            "error %.1e exceeds %g" % (k, err, _AS_ERR_MAX),
            estimate_error=err)
    return err


def solve_pii(k: float, s_min: float = -10.0, s_max: float = 10.0,
              tol: float = 1e-10) -> PIISolution:
    """Painleve II solution with v ~ k*Ai(s) as s -> +inf, k in [-1, 1].

    An Ablowitz-Segur solution is integrated down to s_min before it is
    returned, so that a pole in [s_min, s_max] raises here.
    """
    k = float(k)
    if abs(k) > 1.0 + _HM_EDGE:
        raise DomainError("|k| <= 1 required (pole fields beyond), got %r" % k)
    _check_domain(s_min, s_max)
    if _is_ablowitz_segur(k):
        err = _as_error(k)
        dense = _Taylor(k, s_max, tol)
        dense.reach(s_min)
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
    An Ablowitz-Segur lookup below the steps taken so far takes the steps
    down to s first, and raises their ``ConvergenceError`` if one fails.
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

    Ablowitz-Segur solutions (every |k| < 1) nest: their dense output steps
    back from s_max only as deep as lookups reach, and takes the same steps
    whatever s_min is.  So each (k, s_max, tol) gets one dense output, and
    every s_min a PIISolution that shares it but keeps its own s_min, below
    which ``eval_pii`` still raises.  A scan whose deepest point is at
    s = -6 never integrates [-12, -6].  Hastings-McLeod solutions do not
    nest: the BVP puts its left boundary condition at s_min, so they are
    solved per s_min, from the process-wide memo of BVP solutions.
    """

    def __init__(self):
        self._store = {}
        self._taylors = {}
        self._lock = threading.Lock()

    def get(self, k: float, s_min: float = -10.0, s_max: float = 10.0,
            tol: float = 1e-10) -> PIISolution:
        key = (round(float(k), 14), s_min, s_max, tol)
        with self._lock:
            sol = self._store.get(key)
        if sol is not None:
            return sol
        if _is_ablowitz_segur(k):
            _check_domain(s_min, s_max)
            with self._lock:
                dense = self._taylors.get((key[0], s_max, tol))
                if dense is None:
                    dense = self._taylors[key[0], s_max, tol] = _Taylor(float(k), s_max, tol)
            # the k of the first lookup, whose Airy data the steps start from
            sol = PIISolution(k=dense.k, s_min=s_min, s_max=s_max, tol=tol, kind="ivp",
                              err_est=_as_error(dense.k), _dense=dense)
        else:
            sol = solve_pii(k, s_min, s_max, tol)
        with self._lock:
            return self._store.setdefault(key, sol)
