import cmath
import contextlib
import math
import signal

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings
from scipy.special import erfc

from mchasy import DiscreteSpectrum, ReflectionCoefficient, ScatteringData, SolutionCache
from mchasy.numerics import _THETA_TOL, QuadratureSpec, quad, quad_pv, quad_real_line

# `pytest --hypothesis-profile=ci`: the same examples on every run, so that a
# property failure reproduces (replaces hypothesis' built-in "ci" profile,
# which directories without this conftest, such as bench/, still get)
settings.register_profile("ci", derandomize=True)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the block outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def agm(x, y):
    for _ in range(80):
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        if abs(x - y) < 1e-17 * max(x, 1e-300):
            break
    return 0.5 * (x + y)


def ellipk(k):
    """Complete elliptic integral of the first kind, modulus k, via AGM."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - k * k)))


# Quadrature oracles for the four real periods of w^2 = (k^2-a^2)(k^2-b^2).
# Only a relative tolerance: the band integrals shrink like (b-a)^2 as the
# band closes.  Distances to the ends of the segment are formed from the
# angle, never by subtraction, and each integrand, which varies on a scale
# `width` near angle 0 when a -> 0 or a -> b, is integrated on pieces split
# at width * 4^j, so the oracles stay accurate at both ends.
_ORACLE_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-14, max_subdivisions=6000)


def _graded_quad(g, width):
    cuts = [0.0]
    while width < 0.5 * math.pi:
        cuts.append(width)
        width *= 4.0
    cuts.append(0.5 * math.pi)
    return sum(float(np.real(quad(g, lo, hi, _ORACLE_SPEC).value))
               for lo, hi in zip(cuts, cuts[1:]))


def band_quad(a, b, f):
    """int_a^b f(z-a, b-z, z) / sqrt((z-a)(b-z)) dz via z = a + (b-a) sin^2."""
    span = b - a

    def g(phi):
        lo, hi = span * np.sin(phi) ** 2, span * np.cos(phi) ** 2
        return 2.0 * f(lo, hi, a + lo)

    return _graded_quad(g, math.sqrt(a / span))


def gap_quad(a, b, f):
    """int_{-a}^a f(a^2-z^2, b^2-z^2) / sqrt(a^2-z^2) dz via z = a cos."""
    d2 = (b - a) * (b + a)

    def g(th):
        s2 = a * a * np.sin(th) ** 2
        return 2.0 * f(s2, d2 + s2)

    return _graded_quad(g, math.sqrt(d2) / a)


def k_band_quad(a, b):
    return band_quad(a, b, lambda lo, hi, z: 1.0 / np.sqrt((z + a) * (z + b)))


def j_band_quad(a, b):
    return band_quad(a, b, lambda lo, hi, z: lo * hi * np.sqrt((z + a) * (z + b)))


def k_gap_quad(a, b):
    return gap_quad(a, b, lambda da, db: 1.0 / np.sqrt(db))


def j_gap_quad(a, b):
    return gap_quad(a, b, lambda da, db: da * np.sqrt(db))


def axis_inv_w_quad(a, b, x):
    """int_b^x dz/|w| for x > b, the factor sqrt(z - b) cancelled analytically."""
    return band_quad(b, x, lambda lo, hi, z: np.sqrt(hi / ((z + b) * (z - a) * (z + a))))


_GAP_SPEC = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=6000)


def gap_log_moment_quad(a, b, C_R, power):
    """int_0^a z^power log(C_R z^2)/|w| dz by adaptive quadrature under z = a sin."""

    def f(th):
        z = a * np.sin(th)
        lg = math.log(C_R) + 2.0 * np.log(np.maximum(z, 1e-300))
        return z ** power * lg / np.sqrt(b * b - z * z)

    return float(np.real(quad(f, 0.0, 0.5 * math.pi, _GAP_SPEC).value))


def delta0_quad(a, b, C_R):
    return -gap_log_moment_quad(a, b, C_R, 0) / k_band_quad(a, b)


def gap_log_moment_mp(a, b, C_R, power, dps=40):
    """The two parts of int_0^a z^power log(C_R z^2)/|w| dz at ``dps`` digits
    under z = a sin(t): the constant log(C_R a^2) times the plain moment, and
    the 2 log(sin t) part.  Tanh-sinh nodes are graded towards t = pi/2,
    where 1/sqrt(b^2 - z^2) peaks as a -> b."""
    with mp.workdps(dps):
        a, b, C_R = mp.mpf(a), mp.mpf(b), mp.mpf(C_R)
        half = mp.pi / 2
        cuts = [mp.mpf(0)] + [half - mp.mpf(10) ** -j for j in range(8)] + [half]

        def weight(t):
            z = a * mp.sin(t)
            return z ** power / mp.sqrt((b - z) * (b + z))

        const = mp.log(C_R * a * a) * mp.quad(weight, cuts)
        log_sin = mp.quad(lambda t: 2 * mp.log(mp.sin(t)) * weight(t), cuts)
        return const, log_sin


def k_band_mp(a, b, dps=40):
    """K(1 - a^2/b^2)/b at ``dps`` digits."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        return mp.ellipk((b - a) * (b + a) / (b * b)) / b


def unit_band_root_mp(rhs, lo, hi, dps=30):
    """(a, dF/da at a) at the root in [lo, hi] of the unit band equation
    F(a) = J_band(a, sqrt(2/3 - a^2)) = rhs at ``dps`` digits: Newton steps
    that bisect when they leave the bracket, on the Legendre form."""
    with mp.workdps(dps):
        two_thirds, rhs = mp.mpf(2) / 3, mp.mpf(rhs)

        def parts(a):
            b = mp.sqrt(two_thirds - a * a)
            m1 = (b - a) * (b + a) / (b * b)
            k1 = mp.ellipk(m1)
            return (b / 3 * ((a * a + b * b) * mp.ellipe(m1) - 2 * a * a * k1) - rhs,
                    -a * (b - a) * (b + a) * k1 / b)

        lo, hi = mp.mpf(lo), mp.mpf(hi)
        if not parts(lo)[0] > 0 > parts(hi)[0]:
            raise AssertionError("no sign change on [%r, %r]" % (lo, hi))
        a = (lo + hi) / 2
        for _ in range(300):
            f, slope = parts(a)
            if f > 0:
                lo = a
            else:
                hi = a
            new = a - f / slope
            if not lo < new < hi:
                new = (lo + hi) / 2
            if abs(new - a) <= a * mp.mpf(10) ** (5 - dps):
                return float(new), float(slope)
            a = new
    raise AssertionError("mpmath band root did not converge on [%r, %r]" % (lo, hi))


def inv_w_mp(a, b, lo, hi, dps=30):
    """int_lo^hi dz/|w| for a real segment without inner branch points, under
    z = lo + (hi - lo) sin^2; distances to the segment ends are formed from
    the angle, so a branch point there cancels against dz."""
    with mp.workdps(dps):
        a, b, lo, hi = (mp.mpf(v) for v in (a, b, lo, hi))
        span = hi - lo

        def f(phi):
            s2, c2 = mp.sin(phi) ** 2, mp.cos(phi) ** 2
            dist = [span * s2 if r == lo else span * c2 if r == hi
                    else abs(lo + span * s2 - r) for r in (a, -a, b, -b)]
            return 2 * span * mp.sin(phi) * mp.cos(phi) / mp.sqrt(
                dist[0] * dist[1] * dist[2] * dist[3])

        return float(mp.quad(f, [0, mp.pi / 4, mp.pi / 2]))


def theta_longdouble(s, varkappa, order=0, truncation=32):
    """Theta series summed directly in long double over |n| <= N, N at least
    ``truncation`` and enlarged until the dropped tail at the largest |Im s|
    is below the library's tail tolerance; no strip reduction."""
    y0 = float(np.imag(varkappa))
    im = float(np.max(np.abs(np.imag(s))))
    budget = -math.log(_THETA_TOL) / math.pi
    trunc = max(truncation, int(math.ceil((im + math.sqrt(im * im + y0 * budget)) / y0)) + 4)
    n = np.arange(-trunc, trunc + 1, dtype=np.clongdouble)
    s_l = np.asarray(s, dtype=np.clongdouble)[..., np.newaxis]
    arg = 2j * _PI_L * n * s_l + 1j * _PI_L * np.clongdouble(varkappa) * n * n
    terms = np.exp(arg)
    if order == 1:
        terms = terms * (2j * _PI_L * n)
    total = terms.sum(axis=-1)
    return complex(total) if np.ndim(s) == 0 else total.astype(complex)


def secant_root(g, lo, hi, tol=1e-13, max_iter=200):
    """Safeguarded secant/bisection root of g on a sign-changing [lo, hi]."""
    a, b, ga, gb = lo, hi, g(lo), g(hi)
    for _ in range(max_iter):
        x_sec = b - gb * (b - a) / (gb - ga) if gb != ga else 0.5 * (a + b)
        x = x_sec if (a + 0.01 * (b - a)) < x_sec < (b - 0.01 * (b - a)) else 0.5 * (a + b)
        gx = g(x)
        if abs(gx) <= tol or (b - a) <= tol:
            return x
        if ga * gx <= 0:
            b, gb = x, gx
        else:
            a, ga = x, gx
    return x


def symmetry_loop(r):
    """(negation, inversion, modulus excess) of r at the probes of
    ``check_symmetries``, from scalar r calls.  For a table, the inversion
    violation also covers its knots on the side of z = 1 that reaches less
    far in |ln z| (z <= 1 on a tie), each against r there."""
    neg = inv = mod = 0.0
    for z in np.concatenate([np.geomspace(0.05, 20.0, 41), [1.0, 2.0, 2 + math.sqrt(3)]]):
        rz = r(z)
        neg = max(neg, abs(r(-z) + rz.conjugate()))
        inv = max(inv, abs(r(1.0 / z) - rz.conjugate()))
        mod = max(mod, abs(rz) - 1.0)
    if hasattr(r, "grid"):
        grid = [float(z) for z in r.grid]
        upper = math.log(grid[-1]) >= -math.log(grid[0])
        for z, v in zip(grid, r.values):
            if (z <= 1.0) if upper else (z >= 1.0):
                inv = max(inv, abs(r(z) - v))
    return neg, inv, max(0.0, mod)


def full_line_t_at_i(data):
    """T(i) from its definition: the Blaschke product over the spectrum times
    exp(-(1/(2 pi i)) int_R log(1-|r(x)|^2)/(x-i) dx).  As |r| is even on the
    real line, the integral is 2i int_0^inf log(1-|r(x)|^2)/(1+x^2) dx, taken
    here by mpmath's tanh-sinh rule, not by the package's quadrature."""
    prod = 1.0 + 0.0j
    for p in data.spectrum.full:
        prod *= (1j - p.conjugate()) / (1j - p)
    integral = mp.quad(lambda x: math.log1p(-abs(data.r(float(x))) ** 2) / (1 + x * x),
                       [0, 1, mp.inf])
    return prod * math.exp(-float(integral) / math.pi)


def log_one_minus_r2(r):
    """lg(z) = log(1-|r(z)|^2) for a float or an array z, through r on the
    real line (its fold included), kept finite where |r| = 1: the integrand
    of the zone-II transforms in z, independent of the package's rule in
    y = ln|z|."""
    def lg(z):
        z = np.asarray(z, dtype=float)
        vals = np.minimum(np.abs(r(np.atleast_1d(z))) ** 2, np.nextafter(1.0, 0.0))
        out = np.log1p(-vals)
        return out if z.ndim else out[0]
    return lg


def region2_constants_adaptive(data, spec=QuadratureSpec()):
    """Zone-II constants by adaptive Gauss-Kronrod on the real line: the two
    Cauchy transforms of lg = log(1-|r|^2) at i through ``quad_real_line``,
    the principal values at 2 +- sqrt(3) through ``quad_pv`` plus the exact
    tail mass of the family, then T(i), T_1 and Lambda_a, Lambda_b as in
    ``region2``.  Family data only."""
    r = data.r
    lg = log_one_minus_r2(r)

    def tail_mass(x):
        # int_x^inf kappa^2 exp(-2 beta log(t)^2) dt/t
        return r.kappa_r ** 2 * math.sqrt(math.pi / (8 * r.beta)) \
            * float(erfc(math.sqrt(2 * r.beta) * math.log(x)))

    def tail(lo, hi):
        # lg < 0 and |r| is even: lg/(z-c) ~ lg/z is negative far right and
        # positive far left, so the two dropped masses nearly cancel
        return tail_mass(abs(lo)) - tail_mass(hi)

    i1, i2 = (quad_real_line(lambda x, p=p: lg(x) / (x - 1j) ** p, spec).value
              for p in (1, 2))
    za, zb = 2 + math.sqrt(3), 2 - math.sqrt(3)
    pv_a, pv_b = (float(np.real(quad_pv(lg, c, spec, tail=tail).value)) for c in (za, zb))
    prod = 1.0 + 0.0j
    for p in data.spectrum.full:
        prod *= (1j - p.conjugate()) / (1j - p)
    t_i = prod * cmath.exp(-i1 / (2j * math.pi))
    t_1 = t_i * (-i2 / (2j * math.pi) + sum(1.0 / (p - 1j) for p in data.spectrum.full))
    reps = data.spectrum.representatives
    logt = sum(math.log((1 + z.imag) / (1 - z.imag)) for z in reps) \
        + (i1 / (-2j * math.pi)).real
    lam = [cmath.phase(r(c)) + 4 * sum(cmath.phase(c - z) for z in reps) - pv / math.pi
           + sign * 2 * math.sqrt(3) * logt
           for c, pv, sign in ((za, pv_a, -1), (zb, pv_b, +1))]
    return {"Lambda_a": lam[0], "Lambda_b": lam[1], "T_i": t_i, "T_1": t_1}


def richardson_derivative(f, x, h=1e-3):
    """First derivative with O(h^4) Richardson-extrapolated central stencils."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def richardson_limit(f, d):
    """Extrapolate f(d), f(d/2), f(d/4) to d -> 0 assuming f = f0 + c1 d + c2 d^2."""
    f1, f2, f3 = f(d), f(d / 2), f(d / 4)
    return (8 * f3 - 6 * f2 + f1) / 3


_PI_L = np.longdouble("3.14159265358979323846264338328")


def theta_qp_residual(theta_fn, s, vk):
    """|Theta(s + vk) - exp(-2 pi i s - pi i vk) Theta(s)| with the factor
    and product formed in extended precision, so the residual measures the
    series evaluations rather than harness round-off (values reach O(1e3))."""
    lhs = np.clongdouble(theta_fn(s + vk, vk))
    fac = np.exp(-2j * _PI_L * np.clongdouble(s) - 1j * _PI_L * np.clongdouble(vk))
    rhs = fac * np.clongdouble(theta_fn(s, vk))
    return float(abs(lhs - rhs))


@pytest.fixture(scope="session")
def cache():
    return SolutionCache()


@pytest.fixture(scope="session")
def family_half():
    """Non-generic data: kappa_r = 0.5, no chirp, unit width."""
    return ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 1.0))


@pytest.fixture(scope="session")
def family_wide():
    """Non-generic, slowly decaying in log z (used for the second zone)."""
    return ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 0.05))


@pytest.fixture(scope="session")
def family_generic():
    """Generic data |r(+-1)| = 1 with positive curvature of 1 - |r|^2."""
    return ScatteringData(ReflectionCoefficient.family(-1.0, 0.0, 0.5))


@pytest.fixture(scope="session")
def one_pair_spectrum():
    return DiscreteSpectrum([cmath.exp(-1j * math.pi / 3)])


@pytest.fixture(scope="session")
def reflectionless(one_pair_spectrum):
    return ScatteringData(ReflectionCoefficient.family(0.0, 0.0, 1.0),
                          one_pair_spectrum)
