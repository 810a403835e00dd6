import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mchasy import (QuadratureSpec, ReflectionCoefficient, ScatteringData,
                    ThetaParams, airy, find_root, jacobi_theta, log_transforms,
                    quad, quad_band, quad_pv)
from mchasy.errors import (BracketError, DivergentSeriesError, DomainError,
                           RangeError)
from mchasy.numerics import quad_real_line

from conftest import ellipk, richardson_derivative, theta_longdouble


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
        params = ThetaParams(varkappa=1j)
        n = np.arange(-10, 11)
        oracle = np.exp(-math.pi * n * n).sum()
        assert jacobi_theta(0.0, params) == pytest.approx(oracle, abs=1e-14)
        assert jacobi_theta(0.0, params).real == pytest.approx(1.0864348112, abs=1e-9)

    def test_periodicity(self):
        params = ThetaParams(varkappa=1j)
        s = 0.1 + 0.2j
        assert abs(jacobi_theta(s + 1, params) - jacobi_theta(s, params)) < 1e-13

    def test_half_period_zero(self):
        params = ThetaParams(varkappa=1j)
        assert abs(jacobi_theta((1 + 1j) / 2, params)) < 1e-12

    def test_quasi_periodicity_and_evenness(self):
        rng = np.random.default_rng(3)
        for vk in (0.5j, 1j, 2j):
            params = ThetaParams(varkappa=vk)
            for _ in range(20):
                s = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
                lhs = jacobi_theta(s + vk, params)
                rhs = np.exp(-2j * np.pi * s - 1j * np.pi * vk) * jacobi_theta(s, params)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
                assert abs(jacobi_theta(-s, params) - jacobi_theta(s, params)) < 1e-13

    def test_divergent_series_error(self):
        with pytest.raises(DivergentSeriesError):
            ThetaParams(varkappa=-1j)

    def test_overflow_is_range_error(self):
        # Theta grows like exp(pi*(Im s)^2/Im varkappa): past exp(700) it is
        # refused, not returned as inf (or a quotient of two as nan)
        params = ThetaParams(varkappa=1j)
        assert np.isfinite(jacobi_theta(14j, params))   # log|Theta| about 616
        with pytest.raises(RangeError):
            jacobi_theta(np.array([0.0, 16j]), params, order=(0, 1))

    def test_derivative(self):
        params = ThetaParams(varkappa=1j)
        d = richardson_derivative(lambda x: jacobi_theta(x, params), 0.3, h=1e-4)
        assert abs(d - jacobi_theta(0.3, params, order=(0, 1))[1]) < 1e-9

    @pytest.mark.parametrize("order", [0, 1])
    def test_array_matches_scalar(self, order):
        # order 0: Theta alone; order 1: Theta' of the pair (Theta, Theta')
        params = ThetaParams(varkappa=0.3 + 0.8j)

        def theta(v):
            return jacobi_theta(v, params, order=(0, 1))[1] if order else jacobi_theta(v, params)

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
        params = ThetaParams(varkappa=vk)
        rng = np.random.default_rng(5)
        # Im s up to 2.5 periods off the axis, so most points are strip-reduced
        s = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-2, 2, (4, 5))
        th, dth = jacobi_theta(s, params, order=(0, 1))
        assert th.shape == dth.shape == s.shape
        assert np.abs(th - jacobi_theta(s, params)).max() < 1e-14 * np.abs(th).max()
        th1, dth1 = jacobi_theta(s + vk, params, order=(0, 1))
        fac = np.exp(-2j * np.pi * s - 1j * np.pi * vk)
        assert np.abs(dth1 - fac * (dth - 2j * np.pi * th)).max() < 1e-12 * np.abs(dth1).max()
        for v in (0.0, 0.3 - 0.2j, complex(s[1, 2])):
            th, dth = jacobi_theta(v, params, order=(0, 1))
            assert type(th) is complex and type(dth) is complex
            assert abs(th - jacobi_theta(v, params)) < 1e-14 * max(1.0, abs(th))

    @pytest.mark.parametrize("order", [2, (1, 0), (0, 1, 2), 1])
    def test_unknown_order_rejected(self, order):
        with pytest.raises(DomainError):
            jacobi_theta(0.1, ThetaParams(varkappa=1j), order=order)


    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1, 1), st.floats(0.3, 5), st.floats(-2, 2), st.floats(-3, 3),
           st.sampled_from([0, 1]))
    @example(0.0, 1.0, 1.5, 2.5, 0)    # a zero, 2.5 periods off the axis
    def test_strip_reduction_matches_long_double(self, vk_re, vk_im, s_re, frac, order):
        # |Theta| along Im s = y is at most the envelope exp(pi y^2/Im varkappa),
        # and near a zero the rounding of s itself is of that size, so the
        # error is measured against |Theta(0)| times it (1 on the real axis)
        params = ThetaParams(varkappa=complex(vk_re, vk_im))
        s = complex(s_re, frac * vk_im)
        want = theta_longdouble(s, params, order)
        envelope = math.exp(math.pi * s.imag ** 2 / vk_im)
        scale = max(abs(want), abs(theta_longdouble(0.0, params)) * envelope)
        got = jacobi_theta(s, params, order=(0, 1))[order]
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
        lg, c = r.log_one_minus_r2, 2 + math.sqrt(3)
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
