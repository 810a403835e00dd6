"""Scattering data: reflection coefficient and discrete spectrum, and the
transforms of log(1-|r|^2) that the second zone needs.

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
representatives on the unit circle.

The transforms.  lg(x) = log(1-|r(x)|^2) is even in x, so every integral
over the real line folds onto x > 0, and in y = ln x each kernel becomes
smooth and decays like exp(-|y|):

    int lg/(x-i) dx     = int_0^inf lg (1/(x-i) - 1/(x+i)) dx
                        = 2i int lg(e^y) / (2 cosh y) dy,
    int lg/(x-i)^2 dx   = int_0^inf lg 2(x^2-1)/(x^2+1)^2 dx
                        = int lg(e^y) sinh y / cosh^2 y dy,
    PV int lg/(x-c) dx  = PV int_0^inf lg 2c/(x^2-c^2) dx
                        = PV int lg(c e^u) / sinh u du,   u = y - ln c,

for c > 0.  The saddles c = 2 +- sqrt(3) are reciprocal, so the two poles
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
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (AdmissibilityError, ConvergenceError, DomainError, MchasyError,
                     RealityError)
from .numerics import _TAIL_CUTOFF, QuadratureSpec, gauss_kronrod_rule

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
# the rules in y = ln|z| stop short of where e^y overflows
_MAX_LOG_Z = 700.0


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
    """Reflection coefficient on the real line; |r| <= 1 everywhere.

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

    def log_one_minus_r2(self, z):
        """log(1-|r(z)|^2) at a float or an array, kept finite where |r| = 1."""
        z = np.asarray(z, dtype=float)
        vals = np.abs(self(np.atleast_1d(z))) ** 2
        vals = np.minimum(vals, np.nextafter(1.0, 0.0))
        out = np.log1p(-vals)
        return out if z.ndim else out[0]

    def _log_one_minus_r2_in_y(self, y: np.ndarray) -> np.ndarray:
        """log(1-|r|^2) at z = e^y in one array evaluation."""
        if np.max(np.abs(y)) > _MAX_LOG_Z:
            raise DomainError("log(1-|r|^2) is not negligible within |ln z| <= %g"
                              % _MAX_LOG_Z)
        return self.log_one_minus_r2(np.exp(y))


class _Family(ReflectionCoefficient):
    """The closed form kappa_r * exp(-beta*log(z)**2) * z**(i*alpha), z > 0."""

    def __init__(self, kappa_r, alpha, beta):
        self.kappa_r = float(kappa_r)
        self.alpha = float(alpha)
        self.beta = float(beta)
        if abs(self.kappa_r) > 1.0 + 1e-14:
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
        if self.tail_rate <= 0:
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
        self._re = PchipInterpolator(self._re_knots, np.insert(v.real, n, one), extrapolate=False)
        self._im = PchipInterpolator(self._knots, np.insert(v.imag, n, 0.0), extrapolate=False)
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
    """Unit-circle eigenvalues via their fourth-quadrant representatives."""

    def __init__(self, representatives: Sequence[complex] = ()):
        reps = [complex(z) for z in representatives]
        for z in reps:
            if abs(abs(z) - 1.0) > 1e-12:
                raise DomainError("unit circle: |z| != 1 for %r" % z)
            if not (z.imag < 0 and z.real > 0):
                raise DomainError("fourth quadrant: need Re>0, Im<0, got %r" % z)
        self.representatives = tuple(reps)
        if reps and self.varrho() <= 0:
            raise DomainError("spectrum separation varrho must be positive")

    @property
    def full(self) -> tuple:
        """All 2N poles in the lower half plane: {z_j} and {-conj(z_j)}."""
        return self.representatives + tuple(-z.conjugate() for z in self.representatives)

    def varrho(self) -> float:
        z = self.full
        if not z:
            return math.inf
        vals = [abs(w - 1j) for w in z] + [abs(w.imag) for w in z]
        vals += [abs(z[i] - z[j]) for i in range(len(z)) for j in range(i + 1, len(z))]
        return 0.25 * min(vals)

    def __len__(self):
        return len(self.representatives)


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


@dataclass
class SymmetryReport:
    max_negation_violation: float
    max_inversion_violation: float
    max_modulus_excess: float
    spectrum_violations: dict
    log_integrability: float

    @property
    def passed(self) -> bool:
        worst = max(self.max_negation_violation, self.max_inversion_violation,
                    self.max_modulus_excess, *(self.spectrum_violations.values() or [0.0]))
        return worst <= _SYMMETRY_TOL and math.isfinite(self.log_integrability)


# every violation in a report that passes is at most this
_SYMMETRY_TOL = 1e-10
# probes of check_symmetries: the symmetries of r, and the integrability of
# log(1-|r|^2) against 1/(1+|z|)
_SYMMETRY_PROBES = np.concatenate([np.geomspace(0.05, 20.0, 41), [1.0, 2.0, 2 + math.sqrt(3)]])
_INTEGRABILITY_PROBES = np.geomspace(1e-3, 1e3, 200)


def _probe_gaps(data: ScatteringData) -> tuple[float, float]:
    """(inversion violation, modulus excess) at ``_SYMMETRY_PROBES`` from one
    r evaluation, memoized per data; the inversion violation includes
    ``r.inversion_defect``.  These are the only parts of
    ``SymmetryReport.passed`` that construction does not guarantee: r(-z) =
    -conj r(z) holds exactly, the integrability proxy is clamped finite and
    ``DiscreteSpectrum`` refuses a spectrum that would fail.
    """
    def build():
        r, zs = data.r, _SYMMETRY_PROBES
        vals = r(np.concatenate([zs, 1.0 / zs]))
        rz, r_inv = vals[:zs.size], vals[zs.size:]
        inv = max(float(np.abs(r_inv - rz.conj()).max()), r.inversion_defect)
        return inv, float((np.abs(rz) - 1.0).max(initial=0.0))

    return data._memo("probe_gaps", build)


def _symmetries_pass(data: ScatteringData) -> bool:
    """``check_symmetries(data).passed``, from ``_probe_gaps`` alone."""
    return max(_probe_gaps(data)) <= _SYMMETRY_TOL


def check_symmetries(data: ScatteringData) -> SymmetryReport:
    """Sample a fixed grid and report the worst violation of each symmetry.

    The inversion violation and the modulus excess are ``_probe_gaps``; r
    is evaluated once more, on the negated probes and the integrability
    probes together.
    """
    r = data.r
    zs, probes = _SYMMETRY_PROBES, _INTEGRABILITY_PROBES
    inv, mod = _probe_gaps(data)
    vals = r(np.concatenate([zs, -zs, probes]))
    rz, r_neg, r_probes = vals[:zs.size], vals[zs.size:2 * zs.size], vals[2 * zs.size:]
    neg = float(np.abs(r_neg + rz.conj()).max())
    spec_v = {}
    for z in data.spectrum.representatives:
        spec_v["unit circle"] = max(spec_v.get("unit circle", 0.0), abs(abs(z) - 1.0))
        spec_v["lower half plane"] = max(spec_v.get("lower half plane", 0.0),
                                         max(0.0, z.imag))
        spec_v["right half plane"] = max(spec_v.get("right half plane", 0.0),
                                         max(0.0, -z.real))
    if len(data.spectrum):
        spec_v["separation"] = 0.0 if data.spectrum.varrho() > 0 else 1.0
    # crude integrability probe of log(1-|r|^2) against 1/(1+|z|)
    m2 = np.abs(r_probes) ** 2
    total = float((np.abs(np.log(np.maximum(1.0 - m2, 1e-300))) / (1.0 + probes)).sum())
    return SymmetryReport(neg, inv, mod, spec_v, total)


def _blaschke(data: ScatteringData, z: complex) -> complex:
    out = 1.0 + 0.0j
    for p in data.spectrum.full:
        out *= (z - p.conjugate()) / (z - p)
    return out


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


def log_transforms(data: ScatteringData,
                   spec: QuadratureSpec = QuadratureSpec()) -> LogTransforms:
    """The Cauchy transforms of log(1-|r|^2) at i (powers 1 and 2) and its
    principal-value transforms at 2 +- sqrt(3), from one rule in y = ln|z|
    per refinement level and one array evaluation of log(1-|r|^2) on it.

    The error estimate of each is the gap between the rule and its embedded
    coarse rule, which bounds the coarse rule's error and so, conservatively,
    the rule's; levels are refined until every estimate is within
    max(abs_tol, rel_tol*|value|).  A level past ``_MAX_NODES`` nodes raises
    ``ConvergenceError`` with the last values and their estimate.  Memoized
    per ``spec``.
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
            # lg at both poles rides along in the same evaluation; the
            # whole-line grid does not subtract it
            poles = [_Y_SADDLE, -_Y_SADDLE]
            vals = r._log_one_minus_r2_in_y(np.concatenate([grid.y, poles]))
            rows, exact = _integrands(grid, vals[:-2], vals[-2:])
            fine = rows @ grid.w + exact
            gaps = np.abs(fine - (rows @ grid.w_coarse + exact))
            best = LogTransforms(complex(fine[0]), complex(fine[1]), float(fine[2].real),
                                 float(fine[3].real), float(gaps.max()))
            if np.all(gaps <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(fine))):
                return best

    return data._memo(("log_transforms", spec), build)


def log_T_i(data: ScatteringData, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """log T(i): the closed-form sum over the fourth-quadrant representatives
    plus the (real) full-line integral of log(1-|r|^2)."""
    total = 0.0
    for z in data.spectrum.representatives:
        total += math.log((1.0 + z.imag) / (1.0 - z.imag))
    expo = log_transforms(data, spec).cauchy_1 / (-2j * math.pi)
    if abs(expo.imag) > 1e-8 * (1 + abs(expo)):
        raise RealityError("integral part of log T(i) is not real: %r" % expo)
    return total + expo.real


def t_i_and_t1(data: ScatteringData,
               spec: QuadratureSpec = QuadratureSpec()) -> tuple[complex, complex]:
    """Expansion data of T at z=i: the value T(i) and the linear coefficient.

    T(i) must come out (numerically) real and i*T1/T(i) real as well; both
    are verified here and a ``RealityError`` is raised otherwise, since every
    downstream formula relies on that symmetry.
    """
    prod = _blaschke(data, 1j)
    tr = log_transforms(data, spec)
    expf = cmath.exp(-tr.cauchy_1 / (2j * math.pi))
    t_i = prod * expf
    pole_sum = sum(1.0 / (p - 1j) for p in data.spectrum.full)
    t_1 = t_i * (-tr.cauchy_2 / (2j * math.pi) + pole_sum)
    if abs(t_i.imag) > 1e-10 * abs(t_i):
        raise RealityError("T(i) not real: %r" % t_i)
    ratio = 1j * t_1 / t_i
    if abs(ratio.imag) > 1e-8 * (1 + abs(ratio)):
        raise RealityError("i*T1/T(i) not real: %r" % ratio)
    return t_i, t_1
