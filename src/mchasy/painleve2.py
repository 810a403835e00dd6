"""Painleve II transcendents v'' = s v + 2 v^3 fixed by v ~ k*Ai(s), s -> +inf.

Ablowitz-Segur solutions (|k| < 1) are read from one table, built once per
process on the first of them: the backward steps of a fixed-order Taylor
method (Fornberg & Weideman 2011, J. Comput. Phys. 230) of 64 Chebyshev
nodes in d^2 = -ln(1-k^2)/pi, from their Airy data at s = 10 down to
s = -12, each step the shortest any node asks for.  A solution combines
the rows in barycentric form (Berrut & Trefethen 2004, SIAM Review 46) at
its own d^2, in which v is smooth and k^2 = 1 is at infinity, so no
request takes a Taylor step.  Against the steps from k's own Airy data
the table agrees to 1e-14 of |v| + |v'| on [0, 10] and to 0.13 of the
error estimate below 0.  The problem is ill-conditioned as |k| -> 1: the
error grows like 1e-11/(1-|k|), which each solution carries as
``err_est``, and a solve whose estimate exceeds 1e-6 raises
``ConvergenceError``.  Every step is taken at the one tolerance ``_RTOL``
for which that estimate was measured.  The Hastings-McLeod edge |k| = 1 is
a separatrix, solved as a two-point boundary value problem by Newton
multiple shooting on the same Taylor steps, from a square-root guess joined
to the k = 1 initial value problem stepped from its Airy data, and memoized
per process by s_min.  Both carry dense output for (v, v') as the Taylor
step polynomials.  The equation is odd in v, so every k < 0 is the exact
negation (v, v', Q) -> (-v, -v', Q) of |k|: only |k| is ever combined, and
``eval_pii`` negates its values.  The tail integral Q(s) of v^2 is the
Hamiltonian v'^2 - s v^2 - v^4, which has dQ/ds = -v^2 and Q -> 0 as
s -> +inf (Tracy & Widom 1994, Commun. Math. Phys. 159), not integrated.
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
_NODES = 64        # Chebyshev nodes of the Ablowitz-Segur table
_ORDER = 24
_H_MAX = 1.0
_H_MIN = 0.02       # a pole near the axis shrinks the step below this
_DEN = tuple(1.0 / ((n + 2) * (n + 1)) for n in range(_ORDER - 1))
_ORDERS = np.arange(_ORDER + 1.0)  # powers of a step's offset, factors of v'
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
        """(v, v', Q) at a float s <= ``_S_MAX``, Q = v'^2 - s v^2 - v^4."""
        ends = self.neg_ends
        i = min(bisect_right(ends, -s), len(ends) - 1) - 1
        v, vp = _horner_pairs(self.row(i), s + ends[i])
        vv = v * v
        return v, vp, vp * vp - (s + vv) * vv

    def row(self, i: int) -> list:
        """The coefficient pairs of step i."""
        return self.rows[i]


class _Taylor(_Steps):
    """Dense (v, v') of the Ablowitz-Segur solution k, read from the table.

    Its steps are those of ``_as_table``, and row i is the table's step i
    combined with the barycentric weights of d^2(k) = -ln(1-k^2)/pi, times
    k, made when a lookup first reaches it.  Row 0 starts on the Airy data
    of k, so that (v, v') at ``_S_MAX`` are exactly those beyond it.  A row
    is a function of k alone: two threads that make it at once make the
    same pairs.
    """

    def __init__(self, k):
        x, weights, self._table, self.neg_ends = _as_table()
        self.k = k
        self.rows = [None] * len(self._table)
        # the first barycentric form: the Lagrange polynomial of node m at
        # d^2 is its weight times the product of d^2 - x_j over j != m
        self._lagrange = weights * _but_one(-math.log1p(-k * k) / math.pi - x)

    def row(self, i: int) -> list:
        row = self.rows[i]
        if row is None:
            # adding 0.0 turns a signed zero of k = 0 into +0.0
            a = self._table[i] @ self._lagrange * self.k + 0.0
            # pairs as tuples, as _taylor_step makes them: Horner reads them
            # faster; the pairs of v' are j a_j
            row = list(zip(a[::-1].tolist(), [0.0] + (a[:0:-1] * _ORDERS[:0:-1]).tolist()))
            if i == 0:
                row[-1] = tuple(y + 0.0 for y in _airy_data(self.k, _S_MAX)[:2])
            self.rows[i] = row
        return row


@functools.cache
def _as_table():
    """Chebyshev nodes x_m in (0, D) of d^2 = -ln(1-k^2)/pi, D that of the
    largest |k| that ``_ablowitz_segur`` accepts, the weights of their first
    barycentric form, the steps of k_m = sqrt(1 - exp(-pi x_m)) from the
    Airy data at ``_S_MAX`` down to ``_S_MIN_HARD``, and their negated ends,
    -``_S_MAX`` first.  Step i is the Taylor coefficients of v, an array of
    shape (``_ORDER`` + 1, nodes) divided by k_m.  Each step is the
    shortest that any node asks for.  Built once per process, on the first
    Ablowitz-Segur solution.
    """
    edge = 1.0 - _AS_ERR / _AS_ERR_MAX
    d2_max = -math.log1p(-edge * edge) / math.pi
    x = d2_max * (0.5 - 0.5 * np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES))
    weights = 1.0 / np.diagonal(_but_one(x[:, None] - x))
    ks = np.sqrt(-np.expm1(-np.pi * x))
    a, fill = _coeffs_of(_NODES)
    a[:2] = np.multiply.outer(airy(_S_MAX), ks)
    s0 = _S_MAX
    neg_ends = [-s0]
    steps = []
    while s0 > _S_MIN_HARD:
        fill(s0)
        size = np.abs(a[0]) + np.abs(a[1])
        # _step_size of every node: the ratio first, as there
        h = (_RTOL * (size / np.abs(a[_ORDER - 1:]))) ** (1.0 / _ORDERS[_ORDER - 1:, None])
        s1 = max(s0 - min(_H_MAX, float(h.min())), _S_MIN_HARD)
        steps.append(a / ks)
        powers = (s1 - s0) ** _ORDERS
        a[0], a[1] = powers @ a, (_ORDERS[1:] * powers[:-1]) @ a[1:]
        neg_ends.append(-s1)
        s0 = s1
    return x, weights, tuple(steps), tuple(neg_ends)


def _coeffs_of(n):
    """``_taylor_coeffs`` for n solutions at once: an array a of shape
    (``_ORDER`` + 1, n), and fill(s0), which sets rows 2 on of a to the
    Taylor coefficients at s0 of the solutions whose (v, v') are rows 0
    and 1.

    Each pass takes two orders: a_{j+2} and a_{j+3} need the coefficients
    of v and b = v^2 up to order j + 1 only.  b holds b_j + l_j/2, l the
    coefficients of s0 + (s - s0), so that the linear terms s0 a_j +
    a_{j-1} ride in the one sum over b.
    """
    # a_j is row _ORDER + j of pad, with zero rows above for a_{-j}, so that
    # window j of the reversed view holds a_j, a_{j-1}, ..., a_{j-_ORDER};
    # the last row takes the unused a_{_ORDER+1}
    pad = np.zeros((2 * _ORDER + 2, n))
    a = pad[_ORDER:]
    b = np.zeros((_ORDER + 1, n))
    rev = np.lib.stride_tricks.sliding_window_view(pad, _ORDER + 1, axis=0)[:, :, ::-1]
    twice_den = 2.0 * np.array(_DEN + (0.0,))[:, None]
    a_t, b_t = a.T, b.T
    # pass j sums over orders up to j + 1: the rest meet the zero rows.  The
    # sums are stacks of (1, j+2) @ (j+2, 1) products, one per order and node
    passes = [(rev[j:j + 2, :, None, :j + 2], a_t[:, :j + 2, None], b[j:j + 2, :, None, None],
               b_t[:, :j + 2, None], a[j + 2:j + 4], twice_den[j:j + 2])
              for j in range(0, _ORDER - 1, 2)]
    c = np.empty((2, n, 1, 1))
    c_out = c[:, :, 0, 0]

    def fill(s0):
        for j, (window, a_j, b_out, b_j, a_out, den) in enumerate(passes):
            np.matmul(window, a_j, out=b_out)
            if not j:
                b_out[0] += 0.5 * s0
                b_out[1] += 0.5
            np.matmul(window, b_j, out=c)
            np.multiply(c_out, den, out=a_out)

    return a[:-1], fill


def _but_one(d):
    """For each m, the product of d along its last axis over every index
    but m, as the products before m times those after it."""
    ones = np.ones_like(d[..., :1])
    before = np.cumprod(np.concatenate((ones, d[..., :-1]), axis=-1), axis=-1)
    after = np.cumprod(np.concatenate((ones, d[..., :0:-1]), axis=-1), axis=-1)
    return before * after[..., ::-1]


@functools.cache
def _hm_guess():
    """The k = 1 solution of the initial value problem from the Airy data at
    ``_S_MAX``, stepped down to 0 once per process, at the first
    Hastings-McLeod solve: the guess on [0, ``_S_MAX``] at every s_min.
    The table cannot serve it: k = 1 is d^2 = inf."""
    steps = _Steps()
    _shoot(_S_MAX, 0.0, _airy_data(1.0, _S_MAX)[:2], steps)
    return steps


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
    # the guess: sqrt(-s/2) left of 0, ``_hm_guess`` from 0 on; u[2j],
    # u[2j+1] are (v, v') at node j, and u[0] = Ai(_S_MAX) stays
    guess = _hm_guess()
    u = np.array([(math.sqrt(-e / 2.0), -0.25 / math.sqrt(-e / 2.0)) if e < 0.0
                  else guess.at(e)[:2] for e in nodes[:-1]], dtype=float).ravel()
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


def _ablowitz_segur(k, s_min, dense_of) -> PIISolution:
    """The Ablowitz-Segur solution k on ``dense_of(|k|)``, the steps of
    |k|: it takes their |k| with the sign of k.  Its error estimate
    ``_AS_ERR``/(1-|k|) is refused above ``_AS_ERR_MAX`` before the steps
    are asked for."""
    err = _AS_ERR / (1.0 - abs(k))
    if err > _AS_ERR_MAX:
        raise ConvergenceError(
            "Painleve II (k=%r) too close to Hastings-McLeod: estimated "
            "error %r exceeds %r" % (k, err, _AS_ERR_MAX),
            estimate_error=err)
    dense = dense_of(abs(k))
    return PIISolution(k=math.copysign(dense.k, k), s_min=s_min, kind="ivp",
                       err_est=err, _dense=dense)


def solve_pii(k: float, s_min: float = -10.0) -> PIISolution:
    """Painleve II solution with v ~ k*Ai(s) as s -> +inf, k in [-1, 1].

    An Ablowitz-Segur solution reads the table of ``_as_table``, which
    covers [``_S_MIN_HARD``, ``_S_MAX``] and has no pole there; a
    Hastings-McLeod solution is the boundary value problem at s_min.
    """
    k = _checked(k, s_min)
    if abs(k) < 1.0 - _HM_EDGE:
        return _ablowitz_segur(k, s_min, _Taylor)
    return PIISolution(k=k, s_min=s_min, kind="bvp", err_est=_HM_ERR,
                       _dense=_hastings_mcleod(s_min))


def eval_pii(sol: PIISolution, s: float):
    """(v, v', Q) at s.

    Beyond ``_S_MAX`` the defining Airy asymptote k*Ai is used (the cubic
    term is below solver tolerance there); below s_min the solution is undefined.
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

    Ablowitz-Segur solutions (every |k| < 1) nest: their dense output is the
    table's steps on [``_S_MIN_HARD``, ``_S_MAX``], each row combined for
    |k| when a lookup first reaches it, whatever s_min is.  So each |k| gets
    one dense output, shared by k and -k, and every (k, s_min) a
    PIISolution that shares it but keeps its own sign and s_min, below
    which ``eval_pii`` still raises.  Hastings-McLeod solutions do not
    nest: the BVP puts its left boundary condition at s_min, so they are
    solved per s_min, from the process-wide memo of BVP solutions.
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
            sol = _ablowitz_segur(k, s_min, functools.partial(self._taylor, abs(key[0])))
        else:
            sol = solve_pii(k, s_min)
        with self._lock:
            return self._store.setdefault(key, sol)

    def _taylor(self, size, k):
        """The dense output of the rounded |k| ``size``, made for k, the
        |k| of its first lookup, which the steps of every later one are."""
        with self._lock:
            dense = self._taylors.get(size)
            if dense is None:
                dense = self._taylors[size] = _Taylor(k)
        return dense
