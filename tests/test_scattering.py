import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchasy import (DiscreteSpectrum, ReflectionCoefficient, ScatteringData,
                    check_symmetries, eval_r, log_T_i, t_function, t_i_and_t1)
from mchasy.errors import DomainError, PoleError
from mchasy.scattering import _log_one_minus_r2

from conftest import symmetry_loop

SQ3 = math.sqrt(3.0)


class TestEvalR:
    def test_family_at_one(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 1.0))
        assert eval_r(data, 1.0) == pytest.approx(0.5)

    def test_family_negation(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5, 2.0, 1.0))
        assert eval_r(data, -1.0) == pytest.approx(-0.5)

    def test_family_direct_substitution(self):
        data = ScatteringData(ReflectionCoefficient.family(0.8, 1.0, 0.5))
        expected = 0.8 * math.exp(-0.5) * cmath.exp(1j)
        assert eval_r(data, math.e) == pytest.approx(expected, abs=1e-15)

    def test_zero_and_nonfinite(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5))
        assert eval_r(data, 0.0) == 0.0
        with pytest.raises(DomainError):
            eval_r(data, math.inf)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1, 1), st.floats(-3, 3), st.floats(0.05, 4),
           st.floats(0.02, 50))
    def test_family_symmetries_exact(self, kappa, alpha, beta, z):
        r = ReflectionCoefficient.family(kappa, alpha, beta)
        assert abs(r(-z) + r(z).conjugate()) < 1e-13
        assert abs(r(1 / z) - r(z).conjugate()) < 1e-13
        assert abs(r(z)) <= 1 + 1e-13

    def test_tabulated_out_of_domain(self):
        grid = np.linspace(0.5, 4.0, 30)
        vals = 0.3 * np.exp(-((np.log(grid)) ** 2))
        r = ReflectionCoefficient.tabulated(grid, vals)
        r(2.0)
        r(10.0)   # tail model region
        with pytest.raises(DomainError):
            r(0.1)


def _table(lo=0.5, hi=4.0, n=30, tail_rate=1.5):
    grid = np.geomspace(lo, hi, n)
    vals = 0.3 * np.exp(-np.log(grid) ** 2) * np.exp(0.4j * grid)
    return ReflectionCoefficient.tabulated(grid, vals, tail_rate=tail_rate)


_SIGNED = st.tuples(st.floats(0.5, 12), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


class TestArrayR:
    """An ndarray argument is evaluated at once and equals the scalar path."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-1, 1), st.floats(-3, 3), st.floats(0.05, 4),
           st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_family_matches_scalar(self, kappa, alpha, beta, zs):
        r = ReflectionCoefficient.family(kappa, alpha, beta)
        z = np.array(zs + [0.0, -1.0, 1.0])
        got = r(z)
        assert got.shape == z.shape and got.dtype == complex
        assert np.abs(got - [r(float(v)) for v in z]).max() <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_SIGNED, min_size=1, max_size=12))
    def test_tabulated_matches_scalar(self, zs):
        r = _table()
        # 0, both grid ends, past the end (the exponential tail) and z < 0
        z = np.array(zs + [0.0, 0.5, -0.5, 4.0, 4.5, -9.0])
        assert np.abs(r(z) - [r(float(v)) for v in z]).max() <= 1e-15

    def test_shape_kept(self):
        z = np.linspace(-3, 3, 12).reshape(3, 4)
        got = ReflectionCoefficient.family(0.5, 1.0, 0.5)(z)
        assert got.shape == (3, 4) and got[1, 2] == ReflectionCoefficient.family(
            0.5, 1.0, 0.5)(z[1, 2])

    def test_domain_errors(self):
        r = _table()
        with pytest.raises(DomainError):
            r(np.array([2.0, -0.1, 3.0]))    # |z| below the grid start, as r(-0.1)
        with pytest.raises(DomainError):
            ReflectionCoefficient.family(0.5)(np.array([1.0, np.inf]))


class TestCheckSymmetries:
    @pytest.mark.parametrize("r", [
        ReflectionCoefficient.family(0.5, 0.0, 1.0),
        ReflectionCoefficient.family(-1.0, 0.7, 0.05),
        _table(0.01, 100.0, 200),     # covers every probe
        _table(0.1, 4.0, 40),         # probes below 0.1 and past 10 lose r(1/z)
        _table(0.2, 30.0, 50, tail_rate=0.3),
    ])
    def test_matches_scalar_loop(self, r):
        report = check_symmetries(ScatteringData(r), tol=1e-12)
        neg, inv, mod, total = symmetry_loop(r)
        assert report.max_negation_violation == pytest.approx(neg, rel=1e-12, abs=1e-16)
        assert report.max_inversion_violation == pytest.approx(inv, rel=1e-12, abs=1e-16)
        assert report.max_modulus_excess == pytest.approx(mod, rel=1e-12, abs=1e-16)
        assert report.log_integrability == pytest.approx(total, rel=1e-12)

    def test_family_passes_to_machine(self):
        for kappa, alpha, beta in ((0.5, 0.0, 1.0), (-1.0, 0.0, 0.5), (0.9, 2.0, 0.2)):
            data = ScatteringData(ReflectionCoefficient.family(kappa, alpha, beta))
            report = check_symmetries(data, tol=1e-12)
            assert report.passed

    def test_tabulated_defect_reported(self):
        grid = np.geomspace(1 / 8.0, 8.0, 61)
        vals = 0.3 * np.exp(-np.log(grid) ** 2) + 0j
        i2 = int(np.argmin(np.abs(grid - 2.0)))
        vals[i2] = -vals[i2]
        data = ScatteringData(ReflectionCoefficient.tabulated(grid, vals))
        report = check_symmetries(data, tol=1e-12)
        assert not report.passed
        # the flipped sign shows up as ~2|r(2)| in the inversion defect
        assert report.max_inversion_violation == pytest.approx(
            2 * abs(vals[i2]), rel=0.2)

    def test_spectrum_invariant_named(self):
        with pytest.raises(DomainError, match="unit circle"):
            DiscreteSpectrum([0.9 * cmath.exp(-1j * math.pi / 3)])


class TestTFunction:
    def test_trivial_empty(self):
        data = ScatteringData(ReflectionCoefficient.family(0.0))
        assert t_function(data, 0.3 + 2j) == pytest.approx(1.0)
        assert t_function(data, 5.0 + 2j, "full-line") == pytest.approx(1.0)

    def test_value_at_origin_is_one(self, reflectionless):
        assert t_function(reflectionless, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_conjugate_pair_value_at_i(self, reflectionless):
        # direct product oracle collapses to (1+Im z)/(1-Im z) = 7 - 4*sqrt(3)
        val = t_function(reflectionless, 1j)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(7 - 4 * SQ3, abs=1e-13)

    def test_unit_modulus_on_reals(self, reflectionless):
        for x in (0.3, 1.7, 5.0):
            assert abs(abs(t_function(reflectionless, x)) - 1) < 1e-12

    def test_pole_error(self, reflectionless):
        with pytest.raises(PoleError):
            t_function(reflectionless, cmath.exp(-1j * math.pi / 3))

    def test_full_line_needs_offaxis(self, family_half):
        with pytest.raises(DomainError):
            t_function(family_half, 2.0, "full-line")


class TestLogOneMinusR2:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa_r", [1.0, -1.0])
    def test_finite_where_r_has_unit_modulus(self, kappa_r):
        lg = _log_one_minus_r2(ScatteringData(ReflectionCoefficient.family(kappa_r)))
        assert abs(ReflectionCoefficient.family(kappa_r)(1.0)) == 1.0
        assert math.isfinite(lg(1.0))
        assert np.all(np.isfinite(lg(np.array([0.5, 1.0, 2.0]))))


class TestLogTi:
    def test_empty(self):
        data = ScatteringData(ReflectionCoefficient.family(0.0))
        assert log_T_i(data) == 0.0

    def test_single_pair(self, reflectionless):
        expected = math.log((1 - SQ3 / 2) / (1 + SQ3 / 2))
        assert log_T_i(reflectionless) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-2.634, abs=1e-3)

    def test_additivity(self):
        z1, z2 = cmath.exp(-1j * math.pi / 4), cmath.exp(-1j * math.pi / 3)
        r0 = ReflectionCoefficient.family(0.0)
        both = log_T_i(ScatteringData(r0, DiscreteSpectrum([z1, z2])))
        single = [log_T_i(ScatteringData(r0, DiscreteSpectrum([z])))
                  for z in (z1, z2)]
        assert both == pytest.approx(sum(single), abs=1e-14)

    def test_matches_product_modulus(self, reflectionless):
        assert log_T_i(reflectionless) == pytest.approx(
            math.log(abs(t_function(reflectionless, 1j))), abs=1e-12)

    def test_full_line_real(self, family_half):
        val = log_T_i(family_half, "full-line")
        assert isinstance(val, float)


class TestTiAndT1:
    def test_empty(self):
        data = ScatteringData(ReflectionCoefficient.family(0.0))
        ti, t1 = t_i_and_t1(data)
        assert ti == pytest.approx(1.0)
        assert t1 == pytest.approx(0.0)

    def test_single_pair_reflectionless(self, reflectionless):
        ti, t1 = t_i_and_t1(reflectionless)
        assert ti.real == pytest.approx(7 - 4 * SQ3, abs=1e-13)
        assert abs(ti.imag) < 1e-10 * abs(ti)
        # with r = 0 only the pole sum contributes: T1 = T(i) * sum 1/(z_n - i)
        oracle = ti * sum(1 / (p - 1j) for p in reflectionless.spectrum.full)
        assert t1 == pytest.approx(oracle, abs=1e-13)

    def test_family_reality(self, family_half):
        ti, t1 = t_i_and_t1(family_half)
        assert abs(ti.imag) < 1e-10 * abs(ti)
        ratio = 1j * t1 / ti
        assert abs(ratio.imag) < 1e-8

    def test_consistency_with_full_line_t(self, family_half):
        ti, _ = t_i_and_t1(family_half)
        direct = t_function(family_half, 1j, "full-line")
        assert ti == pytest.approx(direct, abs=1e-11)
