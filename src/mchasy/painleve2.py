"""Painleve II transcendents v'' = s v + 2 v^3 fixed by v ~ k*Ai(s), s -> +inf.

Ablowitz-Segur solutions (|k| < 1) are backward steps of a fixed-order
Taylor method (Fornberg & Weideman 2011, J. Comput. Phys. 230).  On
[0, 10] every |k| takes them from one table, built once per process on the
first lookup (about 5 ms): the steps of 8 Chebyshev nodes in k^2 from their
Airy data at s = 10, each step the shortest any node asks for, interpolated
to k^2 in barycentric form (Berrut & Trefethen 2004, SIAM Review 46).  On
[0, 10] that agrees with the steps from k's own Airy data to 1e-15 of
|v| + |v'|.  Below s = 0, steps go on from the state there, only as deep as
the lookups reach.  The problem is ill-conditioned as |k| -> 1: the error grows like 1e-11/(1-|k|), which
each solution carries as ``err_est``, and a solve whose estimate exceeds
1e-6 raises ``ConvergenceError``.  Every solve steps at the one tolerance
``_RTOL`` for which that estimate was measured.  The Hastings-McLeod edge
|k| = 1 is a separatrix, solved as a two-point boundary value problem by
Newton multiple shooting on the same Taylor steps, from a square-root guess
joined to the k = 1 solution from the table, and memoized per
process by s_min.  Both carry dense output for
(v, v') as the Taylor step polynomials.  The equation is odd in v, so every
k < 0 is the exact negation (v, v', Q) -> (-v, -v', Q) of |k|: only |k| is
ever integrated, and ``eval_pii`` negates its values.  The tail
integral Q(s) of v^2 is the Hamiltonian v'^2 - s v^2 - v^4, which has
dQ/ds = -v^2 and Q -> 0 as s -> +inf (Tracy & Widom 1994, Commun. Math.
Phys. 159), not integrated.
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
from .numerics import _horner_pairs, airy

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
_S_MAX = 10.0      # Airy data start here; k*Ai is used beyond
_JOIN = 0.0        # Ablowitz-Segur steps come from a table of k^2 above this
_NODES = 8         # Chebyshev nodes of that table
_ORDER = 24
_H_MAX = 1.0
_H_MIN = 0.02       # a pole near the axis shrinks the step below this
_DEN = tuple(1.0 / ((n + 2) * (n + 1)) for n in range(_ORDER - 1))
_NEWTON_MAX = 12    # Newton iterations of the Hastings-McLeod shooting
_NEWTON_TOL = 1e-8  # an update this small leaves one more at rounding level
_RTOL = 1e-16       # the last two Taylor terms of v, relative to the first two
_HM_ERR = 1e-10     # error estimate of Hastings-McLeod, above its shooting jumps


def _airy_data(k, s):
    """(v, v', Q) of v = k*Ai at a float s, Q the Hamiltonian v'^2 - s v^2 -
    v^4 as in ``_Steps.at``.  It differs from int_s^inf v^2 = k^2 (Ai'^2 -
    s Ai^2) by v^4, below 1e-18 of it from s = ``_S_MAX`` on."""
    ai, aip = airy(s)
    v, vp = k * ai, k * aip
    vv = v * v
    return v, vp, vp * vp - (s + vv) * vv


class _Steps:
    """Dense (v, v') as backward Taylor steps from ``_S_MAX``, and Q from them.

    Step i is the polynomial ``rows[i]`` (coefficient pairs (v, v'),
    highest power first) in the offset from its right end, and ``neg_ends``
    holds the negated step ends, -_S_MAX first, so that it increases for
    ``bisect``.  A joint is evaluated on the step centered there, the last
    end on the step that ends there.
    """

    def __init__(self):
        self.rows = []
        self.neg_ends = array("d", [-_S_MAX])

    def at(self, s: float) -> tuple:
        """(v, v', Q) at a float s, Q = v'^2 - s v^2 - v^4."""
        # ends read first: the rows of the steps they close are all built
        n = len(self.neg_ends)
        i = bisect_right(self.neg_ends, -s, 0, n) - 1
        if not 0 <= i < n - 1:
            i = self.reach(s)
        v, vp = _horner_pairs(self.rows[i], s + self.neg_ends[i])
        vv = v * v
        return v, vp, vp * vp - (s + vv) * vv

    def reach(self, s: float) -> int:
        """Index of the step that holds s."""
        return min(max(bisect_right(self.neg_ends, -s) - 1, 0), len(self.rows) - 1)


class _Taylor(_Steps):
    """Dense (v, v') of an Ablowitz-Segur solution, integrated on demand.

    The first lookup takes the steps on [``_JOIN``, ``_S_MAX``] from the
    table of ``_as_table``: its rows interpolated to k^2 and times k, the
    first one starting on the Airy data of k.  Backward Taylor steps go on
    from the state at the join only when a lookup reaches below the last
    one, the last step clipped to end on ``_S_MIN_HARD``: whatever the order
    of lookups, the steps are those of one integration down to
    ``_S_MIN_HARD``.

    Steps are appended under a lock, each row before its left end, so that
    a lookup that finds its step among the ends it read first needs no
    lock.  A step that fails is not tried again: its ``ConvergenceError``
    is raised again for every lookup below its right end.
    """

    def __init__(self, k):
        super().__init__()
        self.k = k
        self._state = None
        self._error = None
        self._lock = threading.Lock()

    def reach(self, s: float) -> int:
        """Index of the step that holds s, stepping back to it first."""
        with self._lock:
            if not self.rows:
                self._start()
            while -self.neg_ends[-1] > max(s, _S_MIN_HARD):
                if self._error is not None:
                    raise self._error.with_traceback(None)
                self._step()
        return super().reach(s)

    def _start(self):
        """Take the steps on [``_JOIN``, ``_S_MAX``] from the table."""
        x, weights, table, neg_ends = _as_table()
        # the first barycentric form: the Lagrange polynomial of node m at
        # k^2 is its weight times the product of k^2 - x_j over j != m
        lagrange = weights * _but_one(self.k * self.k - x)
        # adding 0.0 turns a signed zero of k = 0 into +0.0
        combined = np.tensordot(lagrange, table, (0, 1)) * self.k + 0.0
        # pairs as tuples, as _taylor_step makes them: Horner reads them faster
        rows = [list(zip(v, dv)) for v, dv in combined.transpose(0, 2, 1).tolist()]
        # (v, v') at _S_MAX exactly the Airy data of k, as beyond it
        rows[0][-1] = tuple(y + 0.0 for y in _airy_data(self.k, _S_MAX)[:2])
        self._state = _horner_pairs(rows[-1], _JOIN + neg_ends[-2])
        self.rows.extend(rows)
        self.neg_ends.extend(neg_ends[1:])

    def _step(self):
        try:
            row, s1, _b = _taylor_step(self.k, -self.neg_ends[-1], self._state, _S_MIN_HARD)
        except ConvergenceError as exc:
            self._error = exc
            return
        self._state = _horner_pairs(row, s1 + self.neg_ends[-1])
        self.rows.append(row)
        self.neg_ends.append(-s1)


@functools.cache
def _as_table():
    """Chebyshev nodes x_m in (0, 1) of k^2, the weights of their first
    barycentric form, the steps of k_m = sqrt(x_m) from the Airy data at
    ``_S_MAX`` down to ``_JOIN``, rows divided by k_m, as one array of shape
    (steps, nodes, ``_ORDER`` + 1, 2), and their negated ends, -``_S_MAX``
    first.  Each step is the shortest that any node asks for.  Built once per
    process, on the first lookup of an Ablowitz-Segur solution.
    """
    x = 0.5 - 0.5 * np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)
    weights = 1.0 / _but_one(x[:, None] - x)
    ks = np.sqrt(x).tolist()
    states = [_airy_data(k, _S_MAX)[:2] for k in ks]
    s0 = _S_MAX
    neg_ends = [-s0]
    steps = []
    while s0 > _JOIN:
        rows, ends = zip(*(_taylor_step(k, s0, state, _JOIN)[:2]
                           for k, state in zip(ks, states)))
        s1 = max(ends)
        states = [_horner_pairs(row, s1 - s0) for row in rows]
        steps.append(rows)
        neg_ends.append(-s1)
        s0 = s1
    table = np.array(steps) / np.array(ks)[:, None, None]
    return x, weights, table, tuple(neg_ends)


def _but_one(d):
    """For each m, the product of row m of d over every column but m; a
    vector d is the row of every m."""
    return np.prod(np.where(np.eye(d.shape[-1], dtype=bool), 1.0, d), axis=-1)


# the k = 1 solution of the initial value problem from the Airy data at
# _S_MAX: on [0, _S_MAX] it is the Hastings-McLeod guess at every s_min, and
# its steps come from the table once per process
_HM_GUESS = _Taylor(1.0)


@dataclass(frozen=True)
class PIISolution:
    """Dense-output Painleve II solution on [s_min, ``_S_MAX``], extended
    beyond by the Airy asymptote.

    ``err_est`` is its estimated error relative to the scale of (v, v', Q),
    Q taken from (v, v') as the Hamiltonian:
    1e-11/(1-|k|) for Ablowitz-Segur, ``_HM_ERR`` = 1e-10 for
    Hastings-McLeod, whose shooting jumps are held below it.  ``_dense``
    holds the steps of |k|; ``k`` keeps its sign, which ``eval_pii`` applies.
    """

    k: float
    s_min: float
    kind: str
    err_est: float
    _dense: _Steps = field(repr=False)


def _taylor_coeffs(s0, v, vp):
    """Taylor coefficients at s0 of v (order ``_ORDER``) and b of v^2.

    (n+2)(n+1) a_{n+2} = s0 a_n + a_{n-1} + 2 (a*a*a)_n, where the cube is
    formed as b*a with b = a*a.
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
    return a, b


def _step_size(a):
    """Largest h <= _H_MAX at which the last two terms of v are below
    ``_RTOL`` times the size of the first two."""
    h = _H_MAX
    size = abs(a[0]) + abs(a[1])
    for j in (_ORDER - 1, _ORDER):
        if a[j]:
            # the ratio first, so that a tiny k cannot underflow _RTOL*size
            h = min(h, (_RTOL * (size / abs(a[j]))) ** (1.0 / j))
    return h


def _taylor_step(k, s0, state, s_end):
    """One backward Taylor step from the state (v, v') at s0, clipped to end
    on s_end: its row, its left end and b.  A pole near the axis that
    shrinks it below ``_H_MIN`` raises ``ConvergenceError``."""
    a, b = _taylor_coeffs(s0, *state)
    h = _step_size(a)
    if h < _H_MIN:
        raise ConvergenceError(
            "Painleve II (k=%r): a pole near s=%.6g shrinks the Taylor "
            "step to %.2g" % (k, s0, h))
    dv = [j * a[j] for j in range(1, _ORDER + 1)] + [0.0]
    return list(zip(a[::-1], dv[::-1])), max(s0 - h, s_end), b


def _variation(s0, b, t, d0, d1):
    """(dv, dv') at offset t of the solution of dv'' = (s + 6 v^2) dv with
    (dv, dv') = (d0, d1) at s0, b the Taylor coefficients of v^2 there:
    (n+2)(n+1) d_{n+2} = s0 d_n + d_{n-1} + 6 (b*d)_n."""
    d = [d0, d1]
    rev = [d0]         # d_n, ..., d_0
    prev = 0.0
    for n, den in enumerate(_DEN):
        dn = d[n]
        d.append((s0 * dn + prev + 6.0 * sum(map(mul, b, rev))) * den)
        prev = dn
        rev.insert(0, d[n + 1])
    x = dx = 0.0
    for j in range(_ORDER, 0, -1):
        x = x * t + d[j]
        dx = dx * t + j * d[j]
    return x * t + d[0], dx


def _shoot(s0, s1, state, steps=None):
    """Taylor steps of the k = 1 equation from the state (v, v') at s0
    back to s1, appended to ``steps`` if given: the state at s1 and the
    Jacobian of its (v, v') in the (v, v') at s0, as its two columns."""
    cols = ((1.0, 0.0), (0.0, 1.0))
    while s0 > s1:
        row, s_next, b = _taylor_step(1.0, s0, state, s1)
        t = s_next - s0
        state = _horner_pairs(row, t)
        if steps is None:
            cols = tuple(_variation(s0, b, t, *col) for col in cols)
        else:
            steps.rows.append(row)
            steps.neg_ends.append(-s_next)
        s0 = s_next
    return state, cols


def _solve_hastings_mcleod(s_min):
    """Steps of the k = 1 solution with v(s_min) = sqrt(-s_min/2) and
    v(S) = Ai(S) at S = ``_S_MAX``.

    Newton multiple shooting: segments of length 1 back from S, the
    last clipped to end on s_min, each integrated from the (v, v') at its
    right end, with the Jacobian from the variational equation on the same
    steps.  The unknowns are those (v, v') but v(S); the equations are
    the jumps at the inner nodes and the left condition.  Once an update is
    below ``_NEWTON_TOL``, the steps are taken once more, and their jumps
    must be below the error estimate ``_HM_ERR``.
    """
    nodes = [_S_MAX]
    while nodes[-1] > s_min:
        nodes.append(max(nodes[-1] - 1.0, s_min))
    m = len(nodes) - 1
    v_left = math.sqrt(-s_min / 2.0)
    # the guess: sqrt(-s/2) left of 0, ``_HM_GUESS`` from 0 on; u[2j],
    # u[2j+1] are (v, v') at node j, and u[0] = Ai(_S_MAX) stays
    u = np.array([(math.sqrt(-e / 2.0), -0.25 / math.sqrt(-e / 2.0)) if e < 0.0
                  else _HM_GUESS.at(e)[:2] for e in nodes[:-1]], dtype=float).ravel()
    update = math.inf
    for _ in range(_NEWTON_MAX):
        steps = _Steps() if update <= _NEWTON_TOL else None
        x = u.tolist()
        res = np.empty(2 * m - 1)
        jac = np.zeros((2 * m - 1, 2 * m))
        for j in range(m):
            i = 2 * j
            (v, vp), cols = _shoot(nodes[j], nodes[j + 1], (x[i], x[i + 1]), steps)
            if j < m - 1:
                res[i:i + 2] = v - x[i + 2], vp - x[i + 3]
                jac[i:i + 2, i:i + 2] = np.transpose(cols)
                jac[i:i + 2, i + 2:i + 4] = -np.eye(2)
            else:
                res[i] = v - v_left
                jac[i, i:i + 2] = cols[0][0], cols[1][0]
        if steps is not None:
            jump = np.abs(res).max()
            if not jump <= _HM_ERR:
                raise ConvergenceError(
                    "Hastings-McLeod shooting: jumps of %.2g at the nodes, "
                    "above %g" % (jump, _HM_ERR))
            return steps
        try:
            du = np.linalg.solve(jac[:, 1:], -res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("Hastings-McLeod shooting: singular Jacobian") from exc
        u[1:] += du
        update = np.abs(du).max()
    raise ConvergenceError(
        "Hastings-McLeod shooting: no convergence in %d Newton iterations, "
        "last update %.2g" % (_NEWTON_MAX, update))


@functools.lru_cache(maxsize=32)
def _hastings_mcleod(s_min):
    """Steps of the Hastings-McLeod solution k = 1, which also serve k = -1,
    memoized per process: it does not depend on the scattering data.  Each
    s_min below -10 is a key of its own, and an entry is about 37 steps of
    (v, v') pairs (0.11 MB), hence the bound."""
    return _solve_hastings_mcleod(s_min)


def s_min_for(s: float) -> float:
    """Left end of the solution domain a lookup at s asks for: -10, or half a
    unit below s when s is deeper, never below ``_S_MIN_HARD``."""
    return -10.0 if s >= -10.0 else max(_S_MIN_HARD, s - 0.5)


def _checked(k, s_min) -> float:
    """k as a float, refused unless |k| <= 1 (to ``_HM_EDGE``) and s_min >=
    ``_S_MIN_HARD``; NaN fails both."""
    k = float(k)
    if not abs(k) <= 1.0 + _HM_EDGE:
        raise DomainError("|k| <= 1 required (pole fields beyond), got %r" % k)
    if not s_min >= _S_MIN_HARD:
        raise RangeError("s_min >= %g required, got %r" % (_S_MIN_HARD, s_min))
    return k


def _ablowitz_segur(k, s_min, dense) -> PIISolution:
    """The Ablowitz-Segur solution on ``dense``, the steps of |k|: it takes
    their |k| with the sign of k, and its error estimate
    ``_AS_ERR``/(1-|k|) is refused above ``_AS_ERR_MAX``."""
    err = _AS_ERR / (1.0 - dense.k)
    if err > _AS_ERR_MAX:
        raise ConvergenceError(
            "Painleve II (k=%r) too close to Hastings-McLeod: estimated "
            "error %r exceeds %r" % (k, err, _AS_ERR_MAX),
            estimate_error=err)
    return PIISolution(k=math.copysign(dense.k, k), s_min=s_min, kind="ivp",
                       err_est=err, _dense=dense)


def solve_pii(k: float, s_min: float = -10.0) -> PIISolution:
    """Painleve II solution with v ~ k*Ai(s) as s -> +inf, k in [-1, 1].

    An Ablowitz-Segur solution is integrated down to s_min before it is
    returned, so that a pole in [s_min, ``_S_MAX``] raises here.
    """
    k = _checked(k, s_min)
    if abs(k) < 1.0 - _HM_EDGE:
        sol = _ablowitz_segur(k, s_min, _Taylor(abs(k)))
        sol._dense.reach(s_min)
        return sol
    return PIISolution(k=k, s_min=s_min, kind="bvp", err_est=_HM_ERR,
                       _dense=_hastings_mcleod(s_min))


def eval_pii(sol: PIISolution, s: float):
    """(v, v', Q) at s.

    Beyond ``_S_MAX`` the defining Airy asymptote k*Ai is used (the cubic
    term is below solver tolerance there); below s_min the solution is undefined.
    An Ablowitz-Segur lookup below the steps taken so far takes the steps
    down to s first, and raises their ``ConvergenceError`` if one fails.
    For k < 0 the steps are those of |k|, and (v, v') are negated.
    """
    s = float(s)
    if not s >= sol.s_min:
        raise RangeError("s=%r below solution domain [%r, %r]" % (s, sol.s_min, _S_MAX))
    if s > _S_MAX:
        if s > 30.0:
            return 0.0, 0.0, 0.0
        return _airy_data(sol.k, s)
    if sol.k < 0:
        v, vp, q = sol._dense.at(s)
        return -v, -vp, q
    return sol._dense.at(s)


class SolutionCache:
    """Thread-safe memo of PIISolution keyed by (k, s_min).

    Ablowitz-Segur solutions (every |k| < 1) nest: their dense output takes
    the table's steps on [0, ``_S_MAX``] and steps back from 0 only as deep
    as lookups reach, the same steps whatever s_min is.  So each |k| gets
    one dense output, shared by
    k and -k, and every (k, s_min) a PIISolution that shares it but keeps
    its own sign and s_min, below which ``eval_pii`` still raises.  A scan
    whose deepest point is at s = -6 never integrates [-12, -6].
    Hastings-McLeod solutions do not nest: the BVP puts its left boundary
    condition at s_min, so they are solved per s_min, from the process-wide
    memo of BVP solutions.
    """

    def __init__(self):
        self._store = {}
        self._taylors = {}
        self._lock = threading.Lock()

    def get(self, k: float, s_min: float = -10.0) -> PIISolution:
        key = (round(float(k), 14), s_min)
        with self._lock:
            sol = self._store.get(key)
        if sol is not None:
            return sol
        k = _checked(k, s_min)
        if abs(k) < 1.0 - _HM_EDGE:
            size = abs(key[0])
            with self._lock:
                dense = self._taylors.get(size)
                if dense is None:
                    dense = self._taylors[size] = _Taylor(abs(k))
            # the |k| of the first lookup, which the steps are taken for,
            # with the sign of this one
            sol = _ablowitz_segur(k, s_min, dense)
        else:
            sol = solve_pii(k, s_min)
        with self._lock:
            return self._store.setdefault(key, sol)
