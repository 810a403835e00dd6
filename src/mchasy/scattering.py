"""Scattering data: reflection coefficient and discrete spectrum, and the
expansion of T at z = i that the second zone needs.

The reflection coefficient is either the builtin closed-form family

    r(z) = kappa_r * exp(-beta*log(z)**2) * z**(i*alpha),   z > 0,

or a tabulated grid with monotone cubic interpolation and an exponential tail
model; both are extended to z < 0 by r(-z) = -conj(r(z)).  The discrete
spectrum is stored through its fourth-quadrant representatives on the unit
circle.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.special import erfc

from .errors import AdmissibilityError, ConvergenceError, DomainError, RealityError
from .numerics import QuadratureSpec, quad_real_line

__all__ = [
    "ReflectionCoefficient",
    "DiscreteSpectrum",
    "ScatteringData",
    "check_symmetries",
    "log_T_i",
    "t_i_and_t1",
]


class ReflectionCoefficient:
    """Reflection coefficient on the real line; |r| <= 1 everywhere.

    Built by ``family`` or ``tabulated``.  Each kind gives r for z > 0, the
    tail mass of log(1-|r|^2) and its curvature at z = 1; the odd extension
    to z < 0 and the array path are shared.
    """

    z_min = 0.0   # smallest |z| > 0 where r is defined

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
            vals[z != 0] = self._positive_array(np.abs(z[z != 0]))
            return np.where(z < 0, -vals.conj(), vals)
        z = float(z)
        if not math.isfinite(z):
            raise DomainError("r evaluated at non-finite point %r" % z)
        if z == 0.0:
            return 0.0 + 0.0j
        if z > 0:
            return self._positive(z)
        return -self._positive(-z).conjugate()

    def log_one_minus_r2(self, z):
        """log(1-|r(z)|^2) at a float or an array, kept finite where |r| = 1."""
        z = np.asarray(z, dtype=float)
        vals = np.abs(self(np.atleast_1d(z))) ** 2
        vals = np.minimum(vals, np.nextafter(1.0, 0.0))
        out = np.log1p(-vals)
        return out if z.ndim else out[0]

    def log_one_minus_r2_tail(self, lo: float, hi: float) -> float:
        """Analytic estimate of the dropped integral of log(1-|r|^2) outside
        [lo, hi], from log(1-x) ~ -x and the tail mass of |r|^2."""
        return -(self._tail_mass(hi) + self._tail_mass(abs(lo)))


class _Family(ReflectionCoefficient):
    """The closed form kappa_r * exp(-beta*log(z)**2) * z**(i*alpha), z > 0."""

    def __init__(self, kappa_r, alpha, beta):
        self.kappa_r = float(kappa_r)
        self.alpha = float(alpha)
        self.beta = float(beta)
        if abs(self.kappa_r) > 1.0 + 1e-14:
            raise AdmissibilityError("|kappa_r| <= 1 required, got %r" % self.kappa_r)
        if self.beta <= 0:
            raise DomainError("family width beta must be positive")

    def _positive(self, z: float) -> complex:
        lg = math.log(z)
        return self.kappa_r * math.exp(-self.beta * lg * lg) * cmath.exp(1j * self.alpha * lg)

    def _positive_array(self, x: np.ndarray) -> np.ndarray:
        lg = np.log(x)
        return self.kappa_r * np.exp(-self.beta * lg * lg) * np.exp(1j * self.alpha * lg)

    def _tail_mass(self, x: float) -> float:
        # integral_x^inf kappa^2 exp(-2 beta log(t)^2) dt/t, exact
        return self.kappa_r ** 2 * math.sqrt(math.pi / (8 * self.beta)) \
            * float(erfc(math.sqrt(2 * self.beta) * math.log(x)))

    def curvature_at_one(self) -> float:
        """Quadratic coefficient of 1 - |r|^2 at z = 1, in closed form."""
        return 2.0 * self.beta * self.kappa_r ** 2


class _Table(ReflectionCoefficient):
    """Monotone cubic interpolation of a table on positive z, continued past
    its end by an exponential tail."""

    def __init__(self, grid, values, tail_rate):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        if grid.ndim != 1 or grid.size < 4 or np.any(np.diff(grid) <= 0):
            raise DomainError("tabulated grid must be sorted with >= 4 points")
        if grid[0] <= 0:
            raise DomainError("tabulated grid covers positive z only")
        if np.any(np.abs(values) > 1 + 1e-12):
            raise AdmissibilityError("|r| <= 1 violated on the table")
        self.grid = grid
        self.z_min = grid[0]
        self.values = values
        self.tail_rate = float(tail_rate)
        if self.tail_rate <= 0:
            raise DomainError("tail decay rate must be positive")
        self._re = PchipInterpolator(grid, values.real, extrapolate=False)
        self._im = PchipInterpolator(grid, values.imag, extrapolate=False)

    def _positive(self, z: float) -> complex:
        if z < self.grid[0]:
            raise DomainError("tabulated r queried at %r below grid start %r"
                              % (z, self.grid[0]))
        if z <= self.grid[-1]:
            return complex(self._re(z), self._im(z))
        return complex(self.values[-1]) * math.exp(-self.tail_rate * (z - self.grid[-1]))

    def _positive_array(self, x: np.ndarray) -> np.ndarray:
        if np.any(x < self.grid[0]):
            raise DomainError("tabulated r queried below grid start %r" % self.grid[0])
        tail = self.values[-1] * np.exp(-self.tail_rate * np.maximum(x - self.grid[-1], 0.0))
        return np.where(x <= self.grid[-1], self._re(x) + 1j * self._im(x), tail)

    def _tail_mass(self, x: float) -> float:
        lam = 2 * self.tail_rate
        return abs(self.values[-1]) ** 2 * math.exp(-lam * (x - self.grid[-1])) / lam

    def curvature_at_one(self) -> float:
        """Quadratic coefficient of 1 - |r|^2 at z = 1: a centered 5-point
        stencil with step 1e-3, Richardson-checked against half the step."""
        # |r| peaks at z = 1, where the shape-preserving global interpolant
        # deliberately damps curvature; use an unconstrained C^2 spline on a
        # local window of raw table values instead
        lo = np.searchsorted(self.grid, 1.0) - 25
        sel = slice(max(lo, 0), min(lo + 50, self.grid.size))
        grid = self.grid[sel]
        if grid.size < 8 or not (grid[0] < 0.99 and grid[-1] > 1.01):
            raise DomainError("table too sparse around z = 1 for a curvature fit")
        f = CubicSpline(grid, 1.0 - np.abs(self.values[sel]) ** 2)

        def second(h):
            return (-f(1 + 2 * h) + 16 * f(1 + h) - 30 * f(1.0)
                    + 16 * f(1 - h) - f(1 - 2 * h)) / (12.0 * h * h)

        d2, d2h = second(1e-3), second(5e-4)
        # interpolants are only piecewise smooth; allow a loose consistency band
        if abs(d2 - d2h) > 5e-2 * max(abs(d2), 1e-12):
            raise ConvergenceError("stencil for the curvature of 1-|r|^2 did not settle",
                                   best=d2h, estimate_error=abs(d2 - d2h))
        return 0.5 * d2h


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
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        val = fn()
        with self._lock:
            self._cache.setdefault(key, val)
            return self._cache[key]


@dataclass
class SymmetryReport:
    max_negation_violation: float
    max_inversion_violation: float
    max_modulus_excess: float
    spectrum_violations: dict
    log_integrability: float
    tol: float

    @property
    def passed(self) -> bool:
        worst = max(self.max_negation_violation, self.max_inversion_violation,
                    self.max_modulus_excess, *(self.spectrum_violations.values() or [0.0]))
        return worst <= self.tol and math.isfinite(self.log_integrability)


def check_symmetries(data: ScatteringData, tol: float = 1e-12) -> SymmetryReport:
    """Sample a fixed grid and report the worst violation of each symmetry.

    Tabulated grids may not cover the whole probe range: r(z) and r(-z) are
    compared where z is covered, r(1/z) and |r(z)| where 1/z is too.
    """
    r = data.r
    zs = np.concatenate([np.geomspace(0.05, 20.0, 41), [1.0, 2.0, 2 + math.sqrt(3)]])
    zs = zs[zs >= r.z_min]
    rz = r(zs)
    both = 1.0 / zs >= r.z_min
    neg = float(np.max(np.abs(r(-zs) + rz.conj()), initial=0.0))
    inv = float(np.max(np.abs(r(1.0 / zs[both]) - rz[both].conj()), initial=0.0))
    mod = float(np.max(np.abs(rz[both]) - 1.0, initial=0.0))
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
    zs = np.geomspace(1e-3, 1e3, 200)
    zs = zs[zs >= r.z_min]
    m2 = np.abs(r(zs)) ** 2
    total = float(np.sum(np.abs(np.log(np.maximum(1.0 - m2, 1e-300))) / (1.0 + zs)))
    return SymmetryReport(neg, inv, mod, spec_v, total, tol)


def _blaschke(data: ScatteringData, z: complex) -> complex:
    out = 1.0 + 0.0j
    for p in data.spectrum.full:
        out *= (z - p.conjugate()) / (z - p)
    return out


def log_T_i(data: ScatteringData, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """log T(i): the closed-form sum over the fourth-quadrant representatives
    plus the (real) full-line integral of log(1-|r|^2)."""
    total = 0.0
    for z in data.spectrum.representatives:
        total += math.log((1.0 + z.imag) / (1.0 - z.imag))
    expo = _cauchy_at_i(data, spec, power=1) / (-2j * math.pi)
    if abs(expo.imag) > 1e-8 * (1 + abs(expo)):
        raise RealityError("integral part of log T(i) is not real: %r" % expo)
    return total + expo.real


def _cauchy_at_i(data: ScatteringData, spec: QuadratureSpec, power: int) -> complex:
    lg = data.r.log_one_minus_r2
    def f(x):
        return lg(x) / (x - 1j) ** power
    return data._memo(("cauchy_i", power, spec), lambda: quad_real_line(f, spec).value)


def t_i_and_t1(data: ScatteringData,
               spec: QuadratureSpec = QuadratureSpec()) -> tuple[complex, complex]:
    """Expansion data of T at z=i: the value T(i) and the linear coefficient.

    T(i) must come out (numerically) real and i*T1/T(i) real as well; both
    are verified here and a ``RealityError`` is raised otherwise, since every
    downstream formula relies on that symmetry.
    """
    prod = _blaschke(data, 1j)
    i1 = _cauchy_at_i(data, spec, power=1)
    i2 = _cauchy_at_i(data, spec, power=2)
    expf = cmath.exp(-i1 / (2j * math.pi))
    t_i = prod * expf
    pole_sum = sum(1.0 / (p - 1j) for p in data.spectrum.full)
    t_1 = t_i * (-i2 / (2j * math.pi) + pole_sum)
    if abs(t_i.imag) > 1e-10 * abs(t_i):
        raise RealityError("T(i) not real: %r" % t_i)
    ratio = 1j * t_1 / t_i
    if abs(ratio.imag) > 1e-8 * (1 + abs(ratio)):
        raise RealityError("i*T1/T(i) not real: %r" % ratio)
    return t_i, t_1
