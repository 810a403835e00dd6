import math
import re
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mchasy import (ReflectionCoefficient, ScatteringData, airy, jacobi_theta,
                    log_transforms, numerics, region3)
from mchasy.errors import (BracketError, BranchError, DivergentSeriesError, DomainError,
                           RangeError)
from mchasy.numerics import (QuadratureSpec, _ellipke, _horner, _rf, find_root, quad,
                             quad_band, quad_pv, quad_real_line)

from conftest import ellipk, log_one_minus_r2, richardson_derivative, theta_longdouble


class TestAiry:
    def test_value_at_zero(self):
        ai, aip = airy(0.0)
        assert ai == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-15)
        assert aip == pytest.approx(-(3 ** (-1 / 3)) / math.gamma(1 / 3), abs=1e-15)

    def test_root_by_bisection_on_series(self):
        # the first zero of Ai, -2.33810741045976703848... (DLMF Table 9.9.1)
        root = find_root(lambda s: airy(s)[0], lambda s: airy(s)[1], -2.5, -2.0)
        assert abs(root - -2.338107410459767) <= 1e-14

    def test_accuracy_against_mpmath(self):
        s = np.linspace(-30, 30, 606)
        with mp.workdps(40):
            ref_ai = np.array([float(mp.airyai(x)) for x in s])
            ref_aip = np.array([float(mp.airyai(x, derivative=1)) for x in s])
        ai, aip = np.array([airy(x) for x in s]).T
        assert np.abs(ai - ref_ai).max() < 1e-13
        assert np.abs(aip - ref_aip).max() < 1e-13
        pos = s >= 0
        assert (np.abs(ai - ref_ai) / np.abs(ref_ai))[pos].max() < 1e-12
        assert (np.abs(aip - ref_aip) / np.abs(ref_aip))[pos].max() < 1e-12

    def test_asymptotic_series_against_mpmath(self):
        # s >= 10 is the asymptotic series, not scipy
        s = np.linspace(10, 30, 401)
        with mp.workdps(40):
            ref = np.array([(float(mp.airyai(x)), float(mp.airyai(x, derivative=1)))
                            for x in s])
        got = np.array([airy(x) for x in s])
        assert (np.abs(got - ref) / np.abs(ref)).max() <= 5e-14

    @pytest.mark.parametrize("s", [10.0, 10.5, 30.0])
    def test_asymptotic_series_against_scipy(self, s):
        from scipy.special import airy as scipy_airy
        ai, aip, _bi, _bip = scipy_airy(s)
        assert airy(s) == pytest.approx((ai, aip), rel=1e-14, abs=0)

    def test_airy_equation_by_finite_differences(self):
        # no Bi available, so the Wronskian check is replaced by Ai'' = s*Ai
        for s in np.linspace(-10, 5, 31):
            d2 = richardson_derivative(lambda x: airy(x)[1], float(s), h=1e-3)
            assert abs(d2 - s * airy(float(s))[0]) < 1e-8

    def test_range_error(self):
        with pytest.raises(RangeError):
            airy(31.0)
        with pytest.raises(RangeError):
            airy(math.nan)


class TestJacobiTheta:
    def test_series_value(self):
        n = np.arange(-10, 11)
        oracle = np.exp(-math.pi * n * n).sum()
        assert jacobi_theta(0.0, 1j) == pytest.approx(oracle, abs=1e-14)
        assert jacobi_theta(0.0, 1j).real == pytest.approx(1.0864348112, abs=1e-9)

    def test_periodicity(self):
        s = 0.1 + 0.2j
        assert abs(jacobi_theta(s + 1, 1j) - jacobi_theta(s, 1j)) < 1e-13

    def test_half_period_zero(self):
        assert abs(jacobi_theta((1 + 1j) / 2, 1j)) < 1e-12

    def test_quasi_periodicity_and_evenness(self):
        rng = np.random.default_rng(3)
        for vk in (0.5j, 1j, 2j):
            for _ in range(20):
                s = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
                lhs = jacobi_theta(s + vk, vk)
                rhs = np.exp(-2j * np.pi * s - 1j * np.pi * vk) * jacobi_theta(s, vk)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
                assert abs(jacobi_theta(-s, vk) - jacobi_theta(s, vk)) < 1e-13

    def test_divergent_series_error(self):
        with pytest.raises(DivergentSeriesError, match=re.escape("got %r" % (-1j,))):
            jacobi_theta(0.0, -1j)

    @pytest.mark.parametrize("vk", [0.5, complex(0.5, math.nan), complex(math.nan, math.nan)])
    def test_real_or_nan_period_ratio_named(self, vk):
        # Im(varkappa) = 0 or NaN fails "> 0" as a negative one does
        with pytest.raises(DivergentSeriesError, match=re.escape("got %r" % (vk,))):
            jacobi_theta(0.0, vk)

    def test_overflow_is_range_error(self):
        # Theta grows like exp(pi*(Im s)^2/Im varkappa): past exp(700) it is
        # refused, not returned as inf (or a quotient of two as nan)
        assert np.isfinite(jacobi_theta(14j, 1j))   # log|Theta| about 616
        with pytest.raises(RangeError):
            jacobi_theta(np.array([0.0, 16j]), 1j, order=(0, 1))

    def test_derivative(self):
        d = richardson_derivative(lambda x: jacobi_theta(x, 1j), 0.3, h=1e-4)
        assert abs(d - jacobi_theta(0.3, 1j, order=(0, 1))[1]) < 1e-9

    @pytest.mark.parametrize("order", [0, 1])
    def test_array_matches_scalar(self, order):
        # order 0: Theta alone; order 1: Theta' of the pair (Theta, Theta')
        vk = 0.3 + 0.8j

        def theta(v):
            return jacobi_theta(v, vk, order=(0, 1))[1] if order else jacobi_theta(v, vk)

        rng = np.random.default_rng(4)
        s = rng.uniform(-1, 1, (3, 6)) + 1j * rng.uniform(-0.3, 0.3, (3, 6))
        got = theta(s)
        assert got.shape == s.shape and got.dtype == complex
        want = np.array([[theta(complex(v)) for v in row] for row in s])
        assert np.abs(got - want).max() < 1e-14
        assert type(theta(complex(s[0, 0]))) is complex

    def test_pair_matches_separate_orders(self):
        # Theta of the pair is the order-0 value, and Theta' is the
        # quasi-periodic derivative: d/ds of Theta(s + vk) =
        # exp(-2 pi i s - pi i vk) Theta(s) gives Theta'(s + vk) =
        # exp(-2 pi i s - pi i vk) (Theta'(s) - 2 pi i Theta(s))
        vk = 0.3 + 0.8j
        rng = np.random.default_rng(5)
        # Im s up to 2.5 periods off the axis, so most points are strip-reduced
        s = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-2, 2, (4, 5))
        th, dth = jacobi_theta(s, vk, order=(0, 1))
        assert th.shape == dth.shape == s.shape
        assert np.abs(th - jacobi_theta(s, vk)).max() < 1e-14 * np.abs(th).max()
        th1, dth1 = jacobi_theta(s + vk, vk, order=(0, 1))
        fac = np.exp(-2j * np.pi * s - 1j * np.pi * vk)
        assert np.abs(dth1 - fac * (dth - 2j * np.pi * th)).max() < 1e-12 * np.abs(dth1).max()
        for v in (0.0, 0.3 - 0.2j, complex(s[1, 2])):
            th, dth = jacobi_theta(v, vk, order=(0, 1))
            assert type(th) is complex and type(dth) is complex
            assert abs(th - jacobi_theta(v, vk)) < 1e-14 * max(1.0, abs(th))

    def test_bits_do_not_depend_on_the_array_size(self):
        # numpy computes a product with a temporary above 256 KiB in place,
        # its operands swapped, and a complex product's bits depend on their
        # order: Theta' of 20,000 values must be those of 100 at a time
        rng = np.random.default_rng(6)
        vk = 0.3 + 1.1j
        s = rng.uniform(-1, 1, 20000) + 1j * rng.uniform(-2, 2, 20000)
        th, dth = jacobi_theta(s, vk, order=(0, 1))
        parts = [jacobi_theta(s[i:i + 100], vk, order=(0, 1)) for i in range(0, s.size, 100)]
        assert th.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert dth.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([(), (7,), (20000,), (3, 6)]), st.floats(-1, 1),
           st.floats(0.3, 5), st.integers(0, 2 ** 32 - 1))
    def test_number_varkappa_is_its_one_row_view(self, shape, vk_re, vk_im, seed):
        # one kernel: a number varkappa is the one-row call, in its shape and
        # type, with its bits, and Im s up to two periods off the axis
        vk = complex(vk_re, vk_im)
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-2 * vk_im, 2 * vk_im, shape)
        row = np.reshape(s, (1, -1))
        th, dth = jacobi_theta(s, vk, order=(0, 1))
        want = jacobi_theta(row, [vk], order=(0, 1))
        th0 = jacobi_theta(s, vk)
        if shape == ():
            assert type(th) is type(dth) is type(th0) is complex
        else:
            assert th.shape == dth.shape == th0.shape == shape
        for got, ref in ((th, want[0]), (dth, want[1]), (th0, want[0])):
            assert np.asarray(got).tobytes() == ref.tobytes()

    def test_per_row_sequence_is_an_array(self):
        # a list or tuple of varkappa, one per row, is taken as an ndarray is
        rng = np.random.default_rng(8)
        s = rng.uniform(-1, 1, (3, 5)) + 1j * rng.uniform(-0.5, 0.5, (3, 5))
        vks = [0.3 + 0.8j, 1j, -0.2 + 2.5j]
        want = jacobi_theta(s, np.array(vks), order=(0, 1))
        for seq in (vks, tuple(vks)):
            got = jacobi_theta(s, seq, order=(0, 1))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        for bad_s, bad_vk in ((s, vks[:2]), (s[0], vks), (s[:, :, np.newaxis], vks)):
            with pytest.raises(DomainError, match="one entry per row"):
                jacobi_theta(bad_s, bad_vk)

    @pytest.mark.parametrize("s, vk, named", [
        (complex(0, math.inf), 1j, "finite s"),
        (complex(math.nan, 0.2), 1j, "finite s"),
        (complex(-math.inf, 0), 0.5 + 1j, "finite s"),
        (0.1, complex(0, math.inf), "finite varkappa"),
        (0.1, complex(math.inf, 1), "finite varkappa"),
        (0.1, complex(math.nan, 1), "finite varkappa"),
    ])
    def test_non_finite_argument_named_before_any_series(self, s, vk, named):
        # refused before the strip reduction, the first array of s's size,
        # with no warning on the way
        with warnings.catch_warnings(), \
                mock.patch.object(numerics, "_strip", side_effect=AssertionError):
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=named):
                jacobi_theta(np.array([s]), vk)
            with pytest.raises(DomainError, match=named):
                jacobi_theta(s, vk, order=(0, 1))

    @pytest.mark.parametrize("y", [1e-300, 5e-324, 1e-10, 2.5e-3])
    def test_order_past_the_cap_is_range_error(self, y):
        # N grows like sqrt(11/Im(varkappa)): 3.3e5 at 1e-10, so 1,000 values
        # of s would need a 10 GB exponential matrix.  1-element s, refused
        # before the strip reduction; the cap admits Im(varkappa) down to
        # budget/(N_max - 1.5)^2, above 2.5e-3
        assert numerics._THETA_BUDGET / (numerics._THETA_MAX_ORDER - 1.5) ** 2 > 2.5e-3
        with mock.patch.object(numerics, "_strip", side_effect=AssertionError):
            with pytest.raises(RangeError, match=re.escape("Im(varkappa) = %.3g" % y)):
                jacobi_theta(np.array([0.1]), complex(0.0, y))

    def test_order_cap_admits_every_zone_iii_varkappa(self):
        # the smallest Im(varkappa) of zone III: a band end ratio a/b whose
        # m = (a/b)^2 is near the smallest positive double
        _, _, vk = region3.periods(3e-162, 1.0, 1.0)
        assert 0.0 < vk.imag < 8.5e-3
        assert numerics._theta_order(vk.imag) <= 38
        assert numerics._theta_order(2.9e-3) <= numerics._THETA_MAX_ORDER
        assert math.isfinite(abs(jacobi_theta(0.1 + 0.3 * vk, vk)))

    @pytest.mark.parametrize("order", [2, (1, 0), (0, 1, 2), 1])
    def test_unknown_order_rejected(self, order):
        with pytest.raises(DomainError):
            jacobi_theta(0.1, 1j, order=order)


    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1, 1), st.floats(0.3, 5), st.floats(-2, 2), st.floats(-3, 3),
           st.sampled_from([0, 1]))
    @example(0.0, 1.0, 1.5, 2.5, 0)    # a zero, 2.5 periods off the axis
    def test_strip_reduction_matches_long_double(self, vk_re, vk_im, s_re, frac, order):
        # |Theta| along Im s = y is at most the envelope exp(pi y^2/Im varkappa),
        # and near a zero the rounding of s itself is of that size, so the
        # error is measured against |Theta(0)| times it (1 on the real axis)
        vk = complex(vk_re, vk_im)
        s = complex(s_re, frac * vk_im)
        want = theta_longdouble(s, vk, order)
        envelope = math.exp(math.pi * s.imag ** 2 / vk_im)
        scale = max(abs(want), abs(theta_longdouble(0.0, vk)) * envelope)
        got = jacobi_theta(s, vk, order=(0, 1))[order]
        assert abs(got - want) <= 1e-13 * scale


class TestQuad:
    def test_constant(self):
        assert quad(lambda x: np.ones_like(x), 0.0, 1.0).value == pytest.approx(1.0, abs=1e-14)

    def test_antiderivative_band_shape(self):
        b = math.sqrt(2 / 3)
        val = quad(lambda z: z * np.sqrt(b * b - z * z), 0.0, b).value
        assert val == pytest.approx(b ** 3 / 3, abs=1e-11)

    def test_gaussian(self):
        val = quad(lambda x: np.exp(-x * x), -8.0, 8.0).value
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_scalar_only_integrand_rejected(self):
        # integrands take the array of a panel's nodes in one call
        with pytest.raises(DomainError):
            quad(math.exp, 0.0, 1.0)
        with pytest.raises(DomainError):
            quad(lambda x: 1.0, 0.0, 1.0)

    def test_budget_error_carries_best(self):
        from mchasy.errors import ConvergenceError
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
        with pytest.raises(ConvergenceError) as err:
            quad(lambda x: np.abs(x - 1 / 3) ** -0.4, 0.0, 1.0, spec)
        assert err.value.best is not None


class TestQuadPV:
    def test_odd_integrand(self):
        assert abs(quad_pv(lambda x: 1 / (1 + x * x), 0.0).value) < 1e-12

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, -1.0, -2.2, 0.1, 4.0])
    def test_lorentzian_family(self, c):
        # residue oracle: PV integral of 1/((1+x^2)(x-c)) = -pi c/(1+c^2)
        val = quad_pv(lambda x: 1 / (1 + x * x), c).value
        assert val == pytest.approx(-math.pi * c / (1 + c * c), abs=1e-10)

    def test_linearity(self):
        f1 = lambda x: 1 / (1 + x * x)
        f2 = lambda x: 1 / (4 + x * x)
        both = lambda x: 2.0 * f1(x) + 3.0 * f2(x)
        lhs = quad_pv(both, 1.3).value
        rhs = 2 * quad_pv(f1, 1.3).value + 3 * quad_pv(f2, 1.3).value
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_error_bounds_actual_error(self):
        # the outer quadrature of log(1-|r|^2) reports about 100 times less
        # than its error here; the reported error must still bound it
        r = ReflectionCoefficient.family(0.012, 1.14, 0.625)
        lg, c = log_one_minus_r2(r), 2 + math.sqrt(3)
        got = quad_pv(lg, c)
        fine = quad_pv(lg, c, QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15))
        assert 1e-11 < abs(got.value - fine.value) <= got.error - fine.error
        # the same against the transform rule, with the family's exact tail
        # mass int_x^inf kappa^2 exp(-2 beta log(z)^2) dz/z beyond [lo, hi]
        mass = lambda x: r.kappa_r ** 2 * math.sqrt(math.pi / (8 * r.beta)) \
            * math.erfc(math.sqrt(2 * r.beta) * math.log(x))
        full = quad_pv(lg, c, tail=lambda lo, hi: -(mass(hi) + mass(-lo)))
        tr = log_transforms(ScatteringData(r))
        assert abs(full.value - tr.pv_a) <= full.error - tr.err_est


class TestQuadBand:
    def test_chebyshev_weight(self):
        val = quad_band(lambda z: np.ones_like(z), 0.0, 1.0).value
        assert val == pytest.approx(math.pi, abs=1e-13)

    def test_midpoint_symmetry(self):
        val = quad_band(lambda z: z, 1.0, 3.0).value
        assert val == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_complete_elliptic_value(self):
        a, b = 0.5, 1.0
        val = quad_band(lambda z: 1 / np.sqrt((z + a) * (z + b)), a, b).value
        oracle = ellipk(math.sqrt(1 - (a / b) ** 2)) / b
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            quad_band(lambda z: z, 1.0, 1.0)


class TestRealLine:
    def test_gaussian_over_line(self):
        val = quad_real_line(lambda x: np.exp(-x * x)).value
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-11)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1, lambda x: 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-13)
        # a bracket end that is a root is returned as it is, at either end
        assert find_root(lambda x: x - 1, lambda x: 1.0, 1.0, 2.0) == 1.0
        assert find_root(lambda x: x - 1, lambda x: 1.0, 0.0, 1.0) == 1.0

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2, lambda x: 2 * x, 1.0, 2.0)
        assert abs(root - math.sqrt(2)) <= 1e-15

    def test_cos(self):
        root = find_root(math.cos, lambda x: -math.sin(x), 1.0, 2.0)
        assert abs(root - math.pi / 2) <= 1e-15

    @pytest.mark.parametrize("g, dg, hi, root", [
        (math.atan, lambda x: 1 / (1 + x * x), 30.0, 0.0),    # Newton steps leave the bracket
        (lambda x: x ** 3 + 8, lambda x: 3 * x * x, 0.0, -2.0),  # flat slope at the start
    ])
    def test_bisects_when_newton_fails(self, g, dg, hi, root):
        assert abs(find_root(g, dg, -20.0, hi) - root) <= 1e-15

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1, lambda x: 2 * x, -1.0, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.1, 3))
    def test_recovers_planted_root(self, r, w):
        got = find_root(lambda x: (x - r) * (1 + 0.1 * (x - r) ** 2),
                        lambda x: 1 + 0.3 * (x - r) ** 2, r - w, r + w)
        # the stopping tolerance 1e-15, and rounding of x - r at |r| <= 5
        assert abs(got - r) <= 1e-14


# ----------------------------------------------------------------------
# Zone III's elliptic kernels against 40-digit mpmath, 1e-15 relative
# ----------------------------------------------------------------------

def _rel(got, want):
    return abs(got - want) / abs(want)


# the smaller of the pair (m, m1): each of m and m1 goes down to it
SMALL_PARAMETERS = [1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1e-5, 1e-3, 0.01,
                    0.1, 0.25, 0.4, 0.4999999999999999, 0.5]


class TestEllipke:
    @staticmethod
    def reference(small):
        """(K, E) of small and of 1 - small, 1 - small formed exactly."""
        with mp.workdps(40 - int(math.log10(small))):
            p = mp.mpf(small)
            return [float(f(x)) for x in (p, 1 - p) for f in (mp.ellipk, mp.ellipe)]

    @pytest.mark.parametrize("small", SMALL_PARAMETERS)
    def test_against_mpmath_either_way_round(self, small):
        # the pair as a caller forms it: the small one exact, the other rounded
        k_s, e_s, k_l, e_l = self.reference(small)
        for m, m1, want in ((small, 1.0 - small, (k_s, e_s, k_l, e_l)),
                            (1.0 - small, small, (k_l, e_l, k_s, e_s))):
            got = _ellipke(m, m1)
            assert max(map(_rel, got, want)) <= 1e-15, (m, m1, got, want)

    def test_legendre_relation(self):
        for m in np.linspace(0.05, 0.95, 19):
            k, e, k1, e1 = _ellipke(m, 1.0 - m)
            assert abs(e * k1 + e1 * k - k * k1 - math.pi / 2) <= 4e-15

    @pytest.mark.parametrize("m, m1", [(0.0, 1.0), (1.0, 0.0), (-0.1, 1.1), (math.nan, 0.5),
                                       (math.inf, 0.5), (2.0, 0.5), (0.5, 0.6)])
    def test_domain_error(self, m, m1):
        with pytest.raises(DomainError):
            _ellipke(m, m1)


class TestCarlsonRF:
    @staticmethod
    def reference(x, y, z):
        with mp.workdps(40):
            return float(mp.elliprf(mp.mpf(x), mp.mpf(y), mp.mpf(z)))

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 2.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0), (0.0, 1e-300, 1.0),
        (0.0, 1e-10, 1.0), (0.0, 0.5, 0.5), (2.0, 1.0, 0.0), (1e300, 1e299, 0.0),
        (0.5, 0.5, 0.5), (1.0, 2.0, 3.0), (1e-3, 1.0, 1e3),
    ])
    def test_against_mpmath(self, args):
        assert _rel(_rf(*args), self.reference(*args)) <= 1e-15

    @pytest.mark.parametrize("a, b", [(0.05, 0.8), (0.35, 0.72), (0.57, 0.58), (3.0, 40.0)])
    def test_abel_tails_at_the_band_end_and_the_gate(self, a, b):
        # R_F(b^2, b^2 - a^2, 0) of A(inf), and the tails at the gate's sample
        # x, by R_F and by the series of ``_far_tail_coeffs``
        assert _rel(region3._tail_inv_w(a, b, b),
                    self.reference(b * b, (b - a) * (b + a), 0.0)) <= 1e-15
        unit = max(1.0, b)
        xs = region3._NR7_KS * unit
        series = region3._NR7_TAIL_POWERS @ region3._far_tail_coeffs(a, b, unit) / unit
        for x, tail in zip(xs, series):
            want = self.reference(x * x, (x - a) * (x + a), (x - b) * (x + b))
            assert _rel(region3._tail_inv_w(a, b, x), want) <= 1e-15
            assert _rel(tail, want) <= 1e-15

    @pytest.mark.parametrize("args", [(-1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, math.nan, 1.0)])
    def test_domain_error(self, args):
        with pytest.raises(DomainError):
            _rf(*args)

    def test_a_inf_check_compares_independent_kernels(self):
        # R_F 1e-8 off moves A(inf) by about 1e-8 |varkappa|/4, above the
        # check's 1e-9, while varkappa, from the AGM, does not move
        t = 1e6
        params = region3.ShockParams(p=1.0, q=1.0, t=t, C_R=0.1,
                                     xi=2 - 4.0 * math.log(t) ** (2 / 3) * t ** (-2 / 3))
        region3.build_geometry(params)
        with mock.patch.object(region3, "_rf", lambda *args: _rf(*args) * (1 + 1e-8)):
            with pytest.raises(BranchError, match="A\\(inf\\)"):
                region3.build_geometry(params)


class TestGaussSeries:
    """The 2F1 Taylor polynomials of J_gap and J_band, used below 1/2."""

    CASES = [(region3._J_GAP_TAYLOR, (-0.5, 0.5, 2.0)),
             (region3._J_BAND_TAYLOR, (0.5, 1.5, 3.0))]

    @pytest.mark.parametrize("coeffs, abc", CASES)
    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 0.25, 0.4, 0.49, 0.4999999999999999, 0.5,
                                   0.5000000000000001])
    def test_against_mpmath(self, coeffs, abc, x):
        with mp.workdps(40):
            want = float(mp.hyp2f1(*abc, x))
        assert _rel(_horner(coeffs, x), want) <= 1e-15

    @staticmethod
    def periods_mp(a, b):
        """(J_gap, J_band) and the size of the terms each Legendre form sums."""
        with mp.workdps(40):
            a, b = mp.mpf(a), mp.mpf(b)
            m, m1 = (a / b) ** 2, (b - a) * (b + a) / (b * b)
            k, e, k1, e1 = mp.ellipk(m), mp.ellipe(m), mp.ellipk(m1), mp.ellipe(m1)
            gap = 2 * b / 3 * ((a * a + b * b) * e - (b * b - a * a) * k)
            band = b / 3 * ((a * a + b * b) * e1 - 2 * a * a * k1)
            terms = (2 * b / 3 * ((a * a + b * b) * e + (b * b - a * a) * k),
                     b / 3 * ((a * a + b * b) * e1 + 2 * a * a * k1))
            return float(gap), float(band), float(terms[0] / gap), float(terms[1] / band)

    @pytest.mark.parametrize("x", [0.3, 0.49, 0.4999999999999, 0.5, 0.5000000000001, 0.51,
                                   0.7])
    def test_periods_across_the_switch(self, x):
        # below 1/2 the series, from 1/2 the Legendre form, whose error is
        # its terms' rounding: 1e-15 of the larger of the sum and its terms
        # (J_band's terms are 12 times J_band at m1 = 1/2)
        b = 0.8
        a_gap, a_band = b * math.sqrt(x), b * math.sqrt(1.0 - x)   # m = x, and m1 near x
        gap, _, gap_cond, _ = self.periods_mp(a_gap, b)
        _, band, _, band_cond = self.periods_mp(a_band, b)
        gap_bound = 1e-15 * (1.0 if (a_gap / b) ** 2 < 0.5 else gap_cond)
        band_bound = 1e-15 * (1.0 if region3._m1(a_band, b) < 0.5 else band_cond)
        assert _rel(region3._j_gap(a_gap, b), gap) <= gap_bound
        assert _rel(region3._j_band(a_band, b), band) <= band_bound
