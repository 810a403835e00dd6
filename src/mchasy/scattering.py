"""Scattering data: reflection coefficient, discrete spectrum, T-function.

The reflection coefficient is either the builtin closed-form family

    r(z) = kappa_r * exp(-beta*log(z)**2) * z**(i*alpha),   z > 0,

extended to z < 0 by r(-z) = -conj(r(z)), or a tabulated grid with monotone
cubic interpolation and an exponential tail model.  The discrete spectrum is
stored through its fourth-quadrant representatives on the unit circle.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import erfc

from .errors import AdmissibilityError, DomainError, PoleError, RealityError
from .numerics import QuadratureSpec, quad_pv, quad_real_line

__all__ = [
    "ReflectionCoefficient",
    "DiscreteSpectrum",
    "ScatteringData",
    "SymmetryReport",
    "eval_r",
    "check_symmetries",
    "t_function",
    "log_T_i",
    "t_i_and_t1",
]


class ReflectionCoefficient:
    """Reflection coefficient on the real line; |r| <= 1 everywhere."""

    def __init__(self, kind, **kw):
        if kind not in ("family", "tabulated"):
            raise DomainError("unknown reflection kind %r" % kind)
        self.kind = kind
        if kind == "family":
            self.kappa_r = float(kw.pop("kappa_r"))
            self.alpha = float(kw.pop("alpha", 0.0))
            self.beta = float(kw.pop("beta", 1.0))
            if abs(self.kappa_r) > 1.0 + 1e-14:
                raise AdmissibilityError("|kappa_r| <= 1 required, got %r" % self.kappa_r)
            if self.beta <= 0:
                raise DomainError("family width beta must be positive")
            self.z_min = 0.0
        else:
            grid = np.asarray(kw.pop("grid"), dtype=float)
            values = np.asarray(kw.pop("values"), dtype=complex)
            if grid.ndim != 1 or grid.size < 4 or np.any(np.diff(grid) <= 0):
                raise DomainError("tabulated grid must be sorted with >= 4 points")
            if grid[0] <= 0:
                raise DomainError("tabulated grid covers positive z only")
            if np.any(np.abs(values) > 1 + 1e-12):
                raise AdmissibilityError("|r| <= 1 violated on the table")
            self.grid = grid
            self.z_min = grid[0]   # smallest |z| > 0 where r is defined
            self.values = values
            self.tail_rate = float(kw.pop("tail_rate", 1.0))
            if self.tail_rate <= 0:
                raise DomainError("tail decay rate must be positive")
            self._re = PchipInterpolator(grid, values.real, extrapolate=False)
            self._im = PchipInterpolator(grid, values.imag, extrapolate=False)
        if kw:
            raise DomainError("unexpected arguments: %s" % sorted(kw))

    @classmethod
    def family(cls, kappa_r, alpha=0.0, beta=1.0):
        return cls("family", kappa_r=kappa_r, alpha=alpha, beta=beta)

    @classmethod
    def tabulated(cls, grid, values, tail_rate=1.0):
        return cls("tabulated", grid=grid, values=values, tail_rate=tail_rate)

    def _positive(self, z: float) -> complex:
        if self.kind == "family":
            lg = math.log(z)
            return self.kappa_r * math.exp(-self.beta * lg * lg) * cmath.exp(1j * self.alpha * lg)
        if z < self.grid[0]:
            raise DomainError("tabulated r queried at %r below grid start %r"
                              % (z, self.grid[0]))
        if z <= self.grid[-1]:
            return complex(self._re(z), self._im(z))
        return complex(self.values[-1]) * math.exp(-self.tail_rate * (z - self.grid[-1]))

    def _positive_array(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "family":
            lg = np.log(x)
            return self.kappa_r * np.exp(-self.beta * lg * lg) * np.exp(1j * self.alpha * lg)
        if np.any(x < self.grid[0]):
            raise DomainError("tabulated r queried below grid start %r" % self.grid[0])
        tail = self.values[-1] * np.exp(-self.tail_rate * np.maximum(x - self.grid[-1], 0.0))
        return np.where(x <= self.grid[-1], self._re(x) + 1j * self._im(x), tail)

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

    def log_one_minus_r2_tail(self, lo: float, hi: float) -> float:
        """Analytic estimate of the dropped integral of log(1-|r|^2).

        Uses log(1-x) ~ -x and, for the family, the exact Gaussian-in-log
        tail integral; tabulated data uses its exponential tail model.
        """
        if self.kind == "family":
            def mass(x):
                # integral_x^inf kappa^2 exp(-2 beta log(t)^2) dt/t
                return self.kappa_r ** 2 * math.sqrt(math.pi / (8 * self.beta)) \
                    * float(erfc(math.sqrt(2 * self.beta) * math.log(x)))
            return -(mass(hi) + mass(abs(lo)))
        amp = abs(self.values[-1]) ** 2
        lam = 2 * self.tail_rate
        def mass(x):
            return amp * math.exp(-lam * (x - self.grid[-1])) / lam
        return -(mass(hi) + mass(abs(lo)))


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


def eval_r(data: ScatteringData, z: float) -> complex:
    return data.r(z)


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


def _pole_guard(data: ScatteringData, z: complex):
    for p in data.spectrum.full:
        if abs(z - p) < 1e-13 * (1 + abs(z)) or abs(z - p.conjugate()) < 1e-13 * (1 + abs(z)):
            raise PoleError("T evaluated at a pole/zero %r" % (z,))


def _blaschke(data: ScatteringData, z: complex) -> complex:
    out = 1.0 + 0.0j
    for p in data.spectrum.full:
        out *= (z - p.conjugate()) / (z - p)
    return out


def _log_one_minus_r2(data: ScatteringData):
    r = data.r
    def f(z):
        z = np.asarray(z, dtype=float)
        vals = np.abs(r(np.atleast_1d(z))) ** 2
        vals = np.minimum(vals, np.nextafter(1.0, 0.0))
        out = np.log1p(-vals)
        return out if z.ndim else out[0]
    return f


def t_function(data: ScatteringData, z: complex, mode: str = "no-integral",
               spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """T(z): Blaschke-type product over the spectrum, optionally times the
    exponential of the full-line Cauchy transform of log(1-|r|^2)."""
    z = complex(z)
    _pole_guard(data, z)
    if mode == "no-integral":
        return _blaschke(data, z)
    if mode != "full-line":
        raise DomainError("mode must be 'no-integral' or 'full-line'")
    if z.imag == 0.0:
        raise DomainError("full-line T needs z off the real axis")
    lg = _log_one_minus_r2(data)
    cauchy = quad_real_line(lambda x: lg(x) / (x - z), spec,
                            tail=data.r.log_one_minus_r2_tail)
    return _blaschke(data, z) * cmath.exp(-cauchy.value / (2j * math.pi))


def log_T_i(data: ScatteringData, mode: str = "no-integral",
            spec: QuadratureSpec = QuadratureSpec()) -> float:
    """log T(i).  Without the integral term this is the closed-form sum
    over fourth-quadrant representatives; the full-line variant adds the
    (real) integral contribution."""
    total = 0.0
    for z in data.spectrum.representatives:
        total += math.log((1.0 + z.imag) / (1.0 - z.imag))
    if mode == "no-integral":
        return total
    if mode != "full-line":
        raise DomainError("mode must be 'no-integral' or 'full-line'")
    expo = _cauchy_at_i(data, spec, power=1) / (-2j * math.pi)
    if abs(expo.imag) > 1e-8 * (1 + abs(expo)):
        raise RealityError("integral part of log T(i) is not real: %r" % expo)
    return total + expo.real


def _cauchy_at_i(data: ScatteringData, spec: QuadratureSpec, power: int) -> complex:
    lg = _log_one_minus_r2(data)
    def f(x):
        return lg(x) / (x - 1j) ** power
    key = ("cauchy_i", power, spec.abs_tol, spec.tail_cutoff)
    return data._memo(key, lambda: quad_real_line(f, spec).value)


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
