"""Scattering data: reflection coefficient and discrete spectrum, the
transforms of log(1-|r|^2) that the second zone needs, and T(i) and T_1.

The reflection coefficient is either the builtin closed-form family

    r(z) = kappa_r * exp(-beta*log(z)**2) * z**(i*alpha),   z > 0,

or a table, interpolated by monotone cubics in y = ln z and continued past
its last knot by an exponential tail.  Each is given on z >= 1 only, and
both scattering symmetries,

    r(1/z) = conj r(z),   r(-z) = -conj r(z),

extend it to the rest of the real line in one place, so they hold exactly.
A table is built from the knots on the side of z = 1 that reaches further
in |ln z|, mirrored with Re r even and Im r odd in y, so r(1) is real; the
knots on the other side only measure how far the data break the inversion
symmetry.  The discrete spectrum is stored through its fourth-quadrant
representatives on the unit circle, each given once.

The transforms.  lg(x) = log(1-|r(x)|^2) is even in x, so every integral
over the real line folds onto x > 0, and in y = ln x each kernel becomes
smooth and decays like exp(-|y|):

    int lg/(x-i) dx     = int_0^inf lg (1/(x-i) - 1/(x+i)) dx
                        = 2i int lg(e^y) / (2 cosh y) dy,
    int lg/(x-i)^2 dx   = int_0^inf lg 2(x^2-1)/(x^2+1)^2 dx
                        = int lg(e^y) sinh y / cosh^2 y dy,
    PV int lg/(x-c) dx  = PV int_0^inf lg 2c/(x^2-c^2) dx
                        = PV int lg(c e^u) / sinh u du,   u = y - ln c,

for c > 0.  As |r(1/x)| = |r(x)|, lg(e^y) is even in y, so each rule takes
it from r's half at |y| (``_half_array``), with neither r's fold nor e^y.
The saddles c = 2 +- sqrt(3) are reciprocal, so the two poles
sit at y = +-ln(2+sqrt(3)).  A principal value on an interval rule over
[y_lo, y_hi] subtracts lg(c), which leaves an integrand without a pole, and
adds back the exact term

    lg(c) * PV int_A^B du / sinh u = lg(c) * ln|tanh(B/2) / tanh(A/2)|,

with A = y_lo - ln c and B = y_hi - ln c.  On the uniform grid y_k = k*h,
h = ln(2+sqrt(3))/(m+1/2), both poles lie midway between two nodes, the
nodes pair up as u = +-(j+1/2)h around each pole, and the grid sum of the
odd 1/sinh u vanishes, as its principal value over the line does; there the
plain grid sum of lg/sinh u is the principal value, and the trapezoid rule
converges exponentially in 1/h (Trefethen & Weideman 2014, SIAM Rev. 56).
T(i) is exp(log T(i)), which the first transform makes real by construction.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, DomainError, MchasyError
from .numerics import _TAIL_CUTOFF, gauss_kronrod_rule

__all__ = [
    "ReflectionCoefficient",
    "DiscreteSpectrum",
    "ScatteringData",
    "check_symmetries",
    "log_T_i",
    "log_transforms",
    "t_i_and_t1",
]

# y = ln|z| of the zone-II saddle 2 + sqrt(3); 2 - sqrt(3) sits at -_Y_SADDLE
_Y_SADDLE = math.log(2.0 + math.sqrt(3.0))
# a refinement that would need more nodes than this raises ConvergenceError
_MAX_NODES = 200_000
# |ln z| of a double z stays below 709.79: data whose log(1-|r|^2) is not
# negligible this close to the end of the real line are refused
_MAX_LOG_Z = 700.0
# the rules are refined until each transform's error estimate is at most this
# times max(1, |value|).  They converge exponentially, so a looser value moves
# only the estimate, not the answer; near 1e-16 the refinement stops converging
_LOG_TOL = 1e-12


class _LogGrid(NamedTuple):
    """A rule in y = ln|z| for the integrals of log(1-|r|^2): nodes, weights,
    the weights of an embedded coarser rule on the same nodes, and the
    interval [y_lo, y_hi] the rule covers; ``span`` is None for the uniform
    grid on the whole line, whose nodes straddle both poles symmetrically."""

    y: np.ndarray
    w: np.ndarray
    w_coarse: np.ndarray
    span: tuple | None


class ReflectionCoefficient:
    """Reflection coefficient on the real line.

    Built by ``family`` or ``tabulated``.  Each kind gives r on z >= 1 as a
    function of y = ln z >= 0 (``_half``, ``_half_array``), the curvature of
    1-|r|^2 at z = 1 and its rule in y for the transforms of log(1-|r|^2).
    The base class folds every other z onto that half, on the scalar and the
    array path alike: it takes y = ln|z|, conjugates where |z| < 1 (as
    0 - Im r, so a real r keeps its +0j, and a negative one its phase pi, as
    the closed form has it) and negates the conjugate where z < 0.
    """

    inversion_defect = 0.0   # largest gap of a table's unused knots to r

    @classmethod
    def family(cls, kappa_r, alpha=0.0, beta=1.0):
        return _Family(kappa_r, alpha, beta)

    @classmethod
    def tabulated(cls, grid, values, tail_rate=1.0):
        return _Table(grid, values, tail_rate)

    def __call__(self, z):
        """r(z) for a real ``z``; an ndarray ``z`` gives an array of its shape
        in one evaluation (a float takes the scalar path, faster for one z)."""
        if isinstance(z, np.ndarray):
            if not np.all(np.isfinite(z)):
                raise DomainError("r evaluated at a non-finite point")
            vals = np.zeros(z.shape, dtype=complex)
            y = np.log(np.abs(z[z != 0]))
            half = self._half_array(np.abs(y))
            np.subtract(0.0, half.imag, out=half.imag, where=y < 0)
            vals[z != 0] = half
            return np.where(z < 0, -vals.conj(), vals)
        z = float(z)
        if not math.isfinite(z):
            raise DomainError("r evaluated at non-finite point %r" % z)
        if z == 0.0:
            return 0.0 + 0.0j
        y = math.log(abs(z))
        val = self._half(abs(y))
        if y < 0:
            val = complex(val.real, 0.0 - val.imag)
        return val if z > 0 else -val.conjugate()


class _Family(ReflectionCoefficient):
    """The closed form kappa_r * exp(-beta*log(z)**2) * z**(i*alpha), z > 0."""

    def __init__(self, kappa_r, alpha, beta):
        self.kappa_r = float(kappa_r)
        self.alpha = float(alpha)
        self.beta = float(beta)
        if not abs(self.kappa_r) <= 1.0 + 1e-14:
            raise AdmissibilityError("|kappa_r| <= 1 required, got %r" % self.kappa_r)
        # |ln z| < 745 for every positive double: these bounds keep beta*ln(z)^2
        # and alpha*ln(z) finite
        if not 0 < self.beta <= 1e300:
            raise DomainError("family width beta must be in (0, 1e300], got %r" % self.beta)
        if not abs(self.alpha) <= 1e300:
            raise DomainError("family phase |alpha| <= 1e300 required, got %r" % self.alpha)

    def _half(self, y: float) -> complex:
        return self.kappa_r * math.exp(-self.beta * y * y) * cmath.exp(1j * self.alpha * y)

    def _half_array(self, y: np.ndarray) -> np.ndarray:
        return self.kappa_r * np.exp(-self.beta * y * y) * np.exp(1j * self.alpha * y)

    def _log_grid(self, level: int) -> _LogGrid:
        """The uniform grid y_k = k*h, h = ln(2+sqrt(3))/(m+1/2), out to where
        |r|^2 = kappa^2 exp(-2 beta y^2) falls below ``_TAIL_CUTOFF``.  Level 0 has
        m = 4 and each level refines h by a third (m -> 3m+1), which keeps
        both poles midway between nodes; the coarse rule is every third node
        with weight 3h, the grid of the level before."""
        m = 4
        for _ in range(level):
            m = 3 * m + 1
        h = _Y_SADDLE / (m + 0.5)
        k2 = self.kappa_r ** 2
        y_max = (math.sqrt(math.log(k2 / _TAIL_CUTOFF) / (2.0 * self.beta))
                 if k2 > _TAIL_CUTOFF else 0.0)
        # a grid past _MAX_NODES is refused unused: allocate no more than that
        n = min(3 * (int(y_max / h) // 3 + 1), _MAX_NODES)
        k = np.arange(-n, n + 1)
        y = h * k
        return _LogGrid(y, np.full(y.shape, h), np.where(k % 3 == 0, 3.0 * h, 0.0), None)

    def curvature_at_one(self) -> float:
        """Quadratic coefficient of 1 - |r|^2 at z = 1, in closed form."""
        return 2.0 * self.beta * self.kappa_r ** 2


class _Table(ReflectionCoefficient):
    """Monotone cubic interpolation in y = ln z of the knots on the side of
    z = 1 that reaches further in |ln z| (z >= 1 on a tie), mirrored onto
    y < 0, continued past the last knot by an exponential tail in z = e^y.
    The knots on the other side give ``inversion_defect``, once, here."""

    def __init__(self, grid, values, tail_rate):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        if grid.ndim != 1 or grid.size < 4 or values.shape != grid.shape:
            raise DomainError("tabulated grid needs >= 4 points, with a value at each")
        if not grid[0] > 0:
            raise DomainError("tabulated grid covers positive z only")
        y = np.log(grid)
        if not np.all(np.diff(y) > 0):      # NaN fails too
            raise DomainError("tabulated grid must be sorted, and distinct in ln z")
        if not np.all(np.abs(values) <= 1 + 1e-12):   # NaN fails too
            raise AdmissibilityError("|r| <= 1 violated on the table")
        self.grid = grid
        self.values = values
        self.tail_rate = float(tail_rate)
        if not self.tail_rate > 0:
            raise DomainError("tail decay rate must be positive")
        upper = y[-1] >= -y[0]
        other = grid <= 1.0 if upper else grid >= 1.0
        y_h, v_h = (y, values) if upper else (-y[::-1], values[::-1].conj())
        y_h, v_h = y_h[y_h > 0], v_h[y_h > 0]
        # the knots at -y carry conj r(y); y = 0 is a knot of the odd Im r, and
        # of Re r where the table holds z = 1
        n, one = y_h.size, values[grid == 1.0].real
        mirror = np.concatenate([-y_h[::-1], y_h])
        v = np.concatenate([v_h[::-1].conj(), v_h])
        self._knots = np.insert(mirror, n, 0.0)
        self._re_knots = np.insert(mirror, n, np.zeros(one.size))
        self._m2 = np.insert(np.abs(v) ** 2, n, one ** 2)
        self._v_end, self._z_end = complex(v_h[-1]), math.exp(y_h[-1])
        # imported here: scipy.interpolate pulls in scipy.linalg, .optimize and
        # .sparse, which family data never needs
        from scipy.interpolate import PchipInterpolator
        # near the smallest doubles scipy's mean of the secants overflows and
        # sets the knot slope to 0; r still holds every knot, so it is silenced
        with np.errstate(over="ignore", divide="ignore"):
            self._re = PchipInterpolator(self._re_knots, np.insert(v.real, n, one),
                                         extrapolate=False)
            self._im = PchipInterpolator(self._knots, np.insert(v.imag, n, 0.0),
                                         extrapolate=False)
        self.inversion_defect = float(np.abs(self(grid[other]) - values[other]).max(initial=0.0))

    def _half(self, y: float) -> complex:
        return complex(self._half_array(np.array([y]))[0])

    def _half_array(self, y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):    # e^y past y = 709.78: the tail is 0
            z = np.exp(y)
        tail = self._v_end * np.exp(-self.tail_rate * np.maximum(z - self._z_end, 0.0))
        return np.where(y <= self._knots[-1], self._re(y) + 1j * self._im(y), tail)

    def _log_grid(self, level: int) -> _LogGrid:
        """Composite Gauss-Kronrod in y on the knot intervals (Pchip is only
        C^1, so its knots must be panel edges) and on the exponential tail out
        to where |r|^2 falls below ``_TAIL_CUTOFF``, on both sides of y = 0.  Both
        poles are panel edges.  Each level splits every panel into three; the
        coarse rule is the embedded Gauss rule."""
        v2 = abs(self._v_end) ** 2
        decay = max(math.log(v2 / _TAIL_CUTOFF), 0.0) if v2 > 0.0 else 0.0
        # tail panels two e-folds of |r|^2 wide, uniform in z
        tail = np.linspace(self._z_end, self._z_end + decay / (2.0 * self.tail_rate),
                           int(math.ceil(decay / 2.0)) + 1)
        pos = np.log(tail[1:])
        edges = np.unique(np.concatenate([-pos, self._knots, pos]))
        # Each pole is an edge.  A knot at distance d from it leaves the
        # subtracted integrand of the next panel a near pole (its cubic piece
        # differs from the pole's at the pole), so the panels are graded
        # geometrically from the pole outwards, each as wide as about its
        # distance to the pole.
        lo, hi = edges[0], edges[-1]
        for p in (-_Y_SADDLE, _Y_SADDLE):
            if lo < p < hi:
                d = max(np.min(np.abs(edges - p)), 1e-9)
                grade = d * 2.0 ** np.arange(int(math.log2(1.0 / d)) + 1)
                edges = np.concatenate([edges, [p], p - grade, p + grade])
        edges = np.unique(np.clip(edges, lo, hi))
        split = 3 ** level
        edges = np.interp(np.arange((edges.size - 1) * split + 1) / split,
                          np.arange(edges.size), edges)
        y, w, w_coarse = gauss_kronrod_rule(edges)
        return _LogGrid(y, w, w_coarse, (edges[0], edges[-1]))

    def curvature_at_one(self) -> float:
        """Quadratic coefficient of 1 - |r|^2 at z = 1: half the second
        derivative at y = 0 of a C^2 cubic spline through 1 - |r|^2 on the
        mirrored knots.  1 - |r|^2 is even in y, so that is its second
        derivative in z at 1 as well."""
        # |r| peaks at z = 1, where the shape-preserving interpolant
        # deliberately damps curvature; an unconstrained spline does not
        from scipy.interpolate import CubicSpline
        return 0.5 * float(CubicSpline(self._re_knots, 1.0 - self._m2)(0.0, 2))


class DiscreteSpectrum:
    """Unit-circle eigenvalues via distinct fourth-quadrant representatives."""

    def __init__(self, representatives: Sequence[complex] = ()):
        reps = [complex(z) for z in representatives]
        for z in reps:
            if abs(abs(z) - 1.0) > 1e-12:
                raise DomainError("unit circle: |z| != 1 for %r" % z)
            if not (z.imag < 0 and z.real > 0):
                raise DomainError("fourth quadrant: need Re>0, Im<0, got %r" % z)
        # -conj z of a fourth-quadrant z lies in the third, so all 2N poles
        # are distinct exactly when the representatives are
        if len(set(reps)) < len(reps):
            raise DomainError("spectrum point repeats in %r" % (reps,))
        self.representatives = tuple(reps)

    @property
    def full(self) -> tuple:
        """All 2N poles in the lower half plane: {z_j} and {-conj(z_j)}."""
        return self.representatives + tuple(-z.conjugate() for z in self.representatives)


@dataclass
class ScatteringData:
    """Reflection coefficient plus discrete spectrum; the sole physical input."""

    r: ReflectionCoefficient
    spectrum: DiscreteSpectrum = field(default_factory=DiscreteSpectrum)

    def __post_init__(self):
        self._cache = {}
        self._lock = threading.Lock()

    def _memo(self, key, fn):
        """fn() once per key.  A ``MchasyError`` from it is kept as well, and
        raised again with a fresh traceback at every later call."""
        with self._lock:
            hit = key in self._cache
            val = self._cache.get(key)
        if not hit:
            try:
                val = fn()
            except MchasyError as exc:
                with self._lock:
                    self._cache.setdefault(key, exc)
                raise
            with self._lock:
                val = self._cache.setdefault(key, val)
        if isinstance(val, MchasyError):
            raise val.with_traceback(None)
        return val


@dataclass(frozen=True)
class SymmetryReport:
    """The worst gaps at ``_SYMMETRY_PROBES`` of what data can break: r(1/z) =
    conj r(z), with a table's ``inversion_defect``, and |r| <= 1."""

    max_inversion_violation: float
    max_modulus_excess: float

    @property
    def passed(self) -> bool:
        return max(self.max_inversion_violation, self.max_modulus_excess) <= _SYMMETRY_TOL


# every violation in a report that passes is at most this
_SYMMETRY_TOL = 1e-10
_SYMMETRY_PROBES = np.concatenate([np.geomspace(0.05, 20.0, 41), [1.0, 2.0, 2 + math.sqrt(3)]])


def check_symmetries(data: ScatteringData) -> SymmetryReport:
    """The symmetry report of ``data`` from one r evaluation at the probes
    and their inverses, memoized per data.  The rest holds by construction:
    r(-z) = -conj r(z) is the base class's fold of z < 0, and
    ``DiscreteSpectrum`` refuses a point off the unit circle or the fourth
    quadrant."""
    def build():
        r, zs = data.r, _SYMMETRY_PROBES
        vals = r(np.concatenate([zs, 1.0 / zs]))
        rz, r_inv = vals[:zs.size], vals[zs.size:]
        inv = max(float(np.abs(r_inv - rz.conj()).max()), r.inversion_defect)
        return SymmetryReport(inv, float((np.abs(rz) - 1.0).max(initial=0.0)))

    return data._memo("symmetries", build)


class LogTransforms(NamedTuple):
    """The transforms of lg = log(1-|r|^2) that the second zone needs, with
    the largest error estimate among them."""

    cauchy_1: complex   # int lg(x)/(x-i) dx over the real line
    cauchy_2: complex   # int lg(x)/(x-i)^2 dx
    pv_a: float         # PV int lg(x)/(x-(2+sqrt(3))) dx
    pv_b: float         # PV int lg(x)/(x-(2-sqrt(3))) dx
    err_est: float


def _csch(u):
    """1/sinh u as 2 e^-|u| / (1 - e^-2|u|) with the sign of u: no overflow
    at large |u|."""
    e = np.exp(-np.abs(u))
    return np.sign(u) * 2.0 * e / -np.expm1(-2.0 * np.abs(u))


def _integrands(grid: _LogGrid, lg: np.ndarray, lg_poles: np.ndarray):
    """The four folded integrands (module docstring) at the nodes, one row
    each, and the exact terms their weighted sums take; the kernels are
    written with exp(-|y|), so none overflows far out."""
    y = grid.y
    e = np.exp(-np.abs(y))
    sech = 2.0 * e / (1.0 + e * e)
    rows = [1j * lg * sech, lg * np.tanh(y) * sech]
    exact = [0.0, 0.0]
    for pole, lg_c in zip((_Y_SADDLE, -_Y_SADDLE), lg_poles):
        kernel = _csch(y - pole)
        if grid.span is None:
            rows.append(lg * kernel)
            exact.append(0.0)
            continue
        lo, hi = grid.span
        rows.append((lg - lg_c) * kernel)
        exact.append(lg_c * math.log(abs(math.tanh(0.5 * (hi - pole))
                                         / math.tanh(0.5 * (lo - pole)))) if lg_c else 0.0)
    return np.array(rows), np.array(exact)


def log_transforms(data: ScatteringData) -> LogTransforms:
    """The Cauchy transforms of log(1-|r|^2) at i (powers 1 and 2) and its
    principal-value transforms at 2 +- sqrt(3), from one rule in y = ln|z|
    per refinement level and one array evaluation of log(1-|r|^2) on it.

    The error estimate of each is the gap between the rule and its embedded
    coarse rule, which bounds the coarse rule's error and so, conservatively,
    the rule's; levels are refined until every estimate is within
    ``_LOG_TOL`` * max(1, |value|).  A level past ``_MAX_NODES`` nodes raises
    ``ConvergenceError`` with the last values and their estimate.  Memoized
    per data.
    """
    r = data.r

    def build():
        best = None
        for level in itertools.count():
            grid = r._log_grid(level)
            if grid.y.size > _MAX_NODES:
                err = math.inf if best is None else best.err_est
                raise ConvergenceError(
                    "transforms of log(1-|r|^2) not converged within %d nodes"
                    " (err=%.3g)" % (_MAX_NODES, err), best=best, estimate_error=err)
            # lg is even in y: r's half at |y|, the poles riding along (the
            # whole-line grid does not subtract lg there)
            y = np.abs(np.concatenate([grid.y, [_Y_SADDLE, -_Y_SADDLE]]))
            if y.max() > _MAX_LOG_Z:
                raise DomainError("log(1-|r|^2) is not negligible within |ln z| <= %g"
                                  % _MAX_LOG_Z)
            r2 = np.minimum(np.abs(r._half_array(y)) ** 2, np.nextafter(1.0, 0.0))
            lg = np.log1p(-r2)
            rows, exact = _integrands(grid, lg[:-2], lg[-2:])
            fine = rows @ grid.w + exact
            gaps = np.abs(fine - (rows @ grid.w_coarse + exact))
            best = LogTransforms(complex(fine[0]), complex(fine[1]), float(fine[2].real),
                                 float(fine[3].real), float(gaps.max()))
            if np.all(gaps <= _LOG_TOL * np.maximum(1.0, np.abs(fine))):
                return best

    return data._memo("log_transforms", build)


def log_T_i(data: ScatteringData) -> float:
    """log T(i): the closed-form sum over the fourth-quadrant representatives
    plus the full-line integral of log(1-|r|^2) over -2 pi i, real by
    construction: its rule's row i*lg*sech is imaginary, as ``cauchy_1`` is."""
    total = 0.0
    for z in data.spectrum.representatives:
        total += math.log((1.0 + z.imag) / (1.0 - z.imag))
    return total + (log_transforms(data).cauchy_1 / (-2j * math.pi)).real


def t_i_and_t1(data: ScatteringData) -> tuple[float, complex]:
    """Expansion data of T at z=i: T(i) = exp(``log_T_i``), a float, and T_1.
    i*T_1/T(i) is real by construction (``cauchy_2`` is real, and each pair
    z, -conj z adds an imaginary term); ``Region2Constants.it1_over_ti`` checks."""
    t_i = math.exp(log_T_i(data))
    pole_sum = sum(1.0 / (p - 1j) for p in data.spectrum.full)
    return t_i, t_i * (-log_transforms(data).cauchy_2 / (2j * math.pi) + pole_sum)
