import cmath
import math
import os
import tempfile
import traceback
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mchasy import (DiscreteSpectrum, ReflectionCoefficient, ScatteringData,
                    check_symmetries, log_T_i, log_transforms, t_i_and_t1)
from mchasy.cli import parse_config
from mchasy.errors import AdmissibilityError, ConfigError, ConvergenceError, DomainError
from mchasy.numerics import QuadratureSpec

from conftest import full_line_t_at_i, region2_constants_adaptive, symmetry_loop

SQ3 = math.sqrt(3.0)


class TestEvalR:
    def test_family_at_one(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 1.0))
        assert data.r(1.0) == pytest.approx(0.5)

    def test_family_negation(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5, 2.0, 1.0))
        assert data.r(-1.0) == pytest.approx(-0.5)

    def test_family_direct_substitution(self):
        data = ScatteringData(ReflectionCoefficient.family(0.8, 1.0, 0.5))
        expected = 0.8 * math.exp(-0.5) * cmath.exp(1j)
        assert data.r(math.e) == pytest.approx(expected, abs=1e-15)

    def test_zero_and_nonfinite(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5))
        assert data.r(0.0) == 0.0
        with pytest.raises(DomainError):
            data.r(math.inf)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1, 1), st.floats(-3, 3), st.floats(0.05, 4),
           st.floats(0.02, 50))
    def test_family_symmetries_exact(self, kappa, alpha, beta, z):
        r = ReflectionCoefficient.family(kappa, alpha, beta)
        assert abs(r(-z) + r(z).conjugate()) < 1e-13
        assert abs(r(1 / z) - r(z).conjugate()) < 1e-13
        assert abs(r(z)) <= 1 + 1e-13

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.0, 2e300), (-2e300, 1.0),
                                             (math.nan, 1.0), (0.0, math.inf)])
    def test_family_parameters_outside_domain(self, alpha, beta):
        # beyond 1e300, beta*ln(z)^2 or alpha*ln(z) overflows for some double z
        with pytest.raises(DomainError):
            ReflectionCoefficient.family(0.5, alpha, beta)

    def test_family_at_parameter_bounds_is_finite(self):
        r = ReflectionCoefficient.family(-1.0, 1e300, 1e300)
        z = np.array([1e-300, 0.5, 1.0, 2.0, 1e300])
        assert np.all(np.isfinite(r(z)))

    def test_tabulated_out_of_domain(self):
        # outside its grid a table is still defined: past the end by the
        # exponential tail, below the start by the fold r(z) = conj r(1/z)
        grid = np.linspace(0.5, 4.0, 30)
        vals = 0.3 * np.exp(-((np.log(grid)) ** 2)) * grid ** 0.2j
        r = ReflectionCoefficient.tabulated(grid, vals)
        assert r(10.0) == pytest.approx(vals[-1] * math.exp(-6.0), rel=1e-14)
        assert r(0.1) == pytest.approx(r(10.0).conjugate(), rel=1e-14)
        assert r(0.6) == pytest.approx(r(1 / 0.6).conjugate(), rel=1e-14)


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
        # 0, both grid ends, past the end (the exponential tail), below the
        # start (folded onto z > 1) and z < 0
        z = np.array(zs + [0.0, 0.5, -0.5, 4.0, 4.5, -9.0, 0.1, -0.01])
        assert np.abs(r(z) - [r(float(v)) for v in z]).max() <= 1e-15

    def test_shape_kept(self):
        z = np.linspace(-3, 3, 12).reshape(3, 4)
        got = ReflectionCoefficient.family(0.5, 1.0, 0.5)(z)
        assert got.shape == (3, 4) and got[1, 2] == ReflectionCoefficient.family(
            0.5, 1.0, 0.5)(z[1, 2])

    def test_domain_errors(self):
        # only a non-finite z is outside the domain; below its grid start a
        # table folds onto z > 1
        r = _table()
        with pytest.raises(DomainError):
            r(np.array([2.0, np.nan, 3.0]))
        assert np.all(np.isfinite(r(np.array([2.0, -0.1, 3.0]))))
        with pytest.raises(DomainError):
            ReflectionCoefficient.family(0.5)(np.array([1.0, np.inf]))
        # NaN data are refused when r is built, each with the error of its
        # out-of-range values
        with pytest.raises(AdmissibilityError):
            ReflectionCoefficient.family(math.nan, 0.0, 1.0)
        for rate in (0.0, math.nan):
            with pytest.raises(DomainError):
                _table(tail_rate=rate)
        # a table's knots must be positive and strictly increasing
        for grid, match in (([0.0, 1.0, 2.0, 3.0], "positive z only"),
                            ([1.0, 2.0, 2.0, 3.0], "distinct in ln z"),
                            ([1.0, 3.0, 2.0, 4.0], "sorted")):
            with pytest.raises(DomainError, match=match):
                ReflectionCoefficient.tabulated(grid, [0.1] * 4)


@st.composite
def _random_tables(draw):
    """Tables of random |r| <= 1 on random geometric grids: one-sided (every
    knot on one side of z = 1) or two-sided, with or without a knot at
    z = 1, with real or chirped (complex) values."""
    lo = draw(st.floats(-6.0, 3.0))
    grid = np.exp(np.linspace(lo, lo + draw(st.floats(0.5, 9.0)), draw(st.integers(4, 40))))
    if draw(st.booleans()) and grid[0] < 1.0 < grid[-1]:
        grid = np.union1d(grid, [1.0])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.uniform(0.0, 1.0, grid.size) + 0j
    if draw(st.booleans()):
        vals *= np.exp(2j * math.pi * rng.uniform(size=grid.size))
    return ReflectionCoefficient.tabulated(grid, vals, tail_rate=draw(st.floats(0.1, 10.0)))


_FAMILIES = st.builds(ReflectionCoefficient.family, st.floats(-1, 1), st.floats(-3, 3),
                      st.floats(0.05, 4))


class TestFold:
    """Every kind of r is given on z >= 1 and folded onto the rest of the
    line in one place, so both symmetries hold exactly."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_FAMILIES, _random_tables()), st.floats(1e-300, 1e300))
    def test_symmetries_bit_for_bit(self, r, z):
        # the fold keys on y = ln|z|: z and 1/z are mirror images where their
        # logarithms are, which rounding 1/z keeps in most draws; the scalar
        # path takes math.log and the array path np.log, which can differ
        assume(math.log(1.0 / z) == -math.log(z))
        assume(np.log(1.0 / z) == -np.log(z))
        zs = np.array([z, 1.0 / z, -z, -1.0 / z, 1.0, -1.0])
        for vals in (r(zs), [r(float(v)) for v in zs]):
            assert vals[1] == vals[0].conjugate()
            assert vals[2] == -vals[0].conjugate()
            assert vals[3] == -vals[0]
            assert vals[4].imag == 0.0 and vals[5] == -vals[4]

    def test_real_r_keeps_its_phase_below_one(self):
        # a plain conjugate would turn +0j into -0j, and the phase pi of a
        # negative r(2 - sqrt(3)), which zone II reads, into -pi
        r = ReflectionCoefficient.family(-0.3, 0.0, 0.6)
        zb = 2.0 - math.sqrt(3.0)
        assert cmath.phase(r(zb)) == math.pi
        assert cmath.phase(r(np.array([zb]))[0]) == math.pi

    def test_table_sides_agree(self):
        # a table of symmetric data is the same whichever side it is built from
        fam = ReflectionCoefficient.family(0.3, 0.2, 1.0)
        grid = np.geomspace(1.0, 20.0, 80)
        upper = ReflectionCoefficient.tabulated(grid, fam(grid))
        lower = ReflectionCoefficient.tabulated(1.0 / grid[::-1], fam(1.0 / grid[::-1]))
        z = np.geomspace(1e-3, 1e3, 101)
        assert np.abs(upper(z) - lower(z)).max() <= 1e-15
        assert upper.inversion_defect == lower.inversion_defect == 0.0

    def test_far_side_carries_the_table(self):
        # knots on [0.01, 1) reach further than those on (1, 3]: the table is
        # built from the first, and the second only measure the defect
        grid = np.geomspace(0.01, 3.0, 60)
        vals = np.where(grid < 1.0, 0.4, 0.3) + 0j
        r = ReflectionCoefficient.tabulated(grid, vals)
        assert r(2.0) == pytest.approx(0.4, abs=1e-15)
        assert r.inversion_defect == pytest.approx(0.1, abs=1e-15)

    def test_tiny_knots_interpolated_without_warning(self):
        # Im r about 1e-309: scipy's harmonic mean of the secants overflows
        # while the Pchip slopes are built; r still holds every knot
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        vals = np.array([0.3 + 1e-309j, 0.4, 0.3 - 1e-309j, 0.1 + 1e-309j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = ReflectionCoefficient.tabulated(grid, vals)
            for got in (r(grid), np.array([r(float(z)) for z in grid])):
                assert np.all(np.abs(got.real - vals.real) <= 1e-15 * np.abs(vals.real))
                assert np.all(np.abs(got.imag - vals.imag) <= 1e-12 * np.abs(vals.imag))
        assert r.inversion_defect == 0.0

    def test_nan_knot_refused(self):
        # a NaN knot on the side the interpolant does not use would otherwise
        # drop out of the inversion defect: max(gap, nan) is gap
        grid = np.geomspace(0.1, 30.0, 20)
        vals = np.full(grid.size, 0.2 + 0j)
        vals[2] = math.nan
        with pytest.raises(AdmissibilityError):
            ReflectionCoefficient.tabulated(grid, vals)


class TestCheckSymmetries:
    @pytest.mark.parametrize("r", [
        ReflectionCoefficient.family(0.5, 0.0, 1.0),
        ReflectionCoefficient.family(-1.0, 0.7, 0.05),
        _table(0.01, 100.0, 200),     # both sides of z = 1 reach as far
        _table(0.1, 4.0, 40),         # built from z <= 1, the far side
        _table(0.2, 30.0, 50, tail_rate=0.3),
        _table(1.0001, 30.0, 50),     # one-sided: no knot below z = 1
    ])
    def test_matches_scalar_loop(self, r):
        report = check_symmetries(ScatteringData(r))
        neg, inv, mod = symmetry_loop(r)
        assert neg == 0.0       # the fold of z < 0: not reported, it cannot fail
        assert report.max_inversion_violation == pytest.approx(inv, rel=1e-12, abs=1e-16)
        assert report.max_modulus_excess == pytest.approx(mod, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("r", [
        ReflectionCoefficient.family(-1.0, 0.7, 0.05),
        _table(0.1, 4.0, 40),
    ])
    def test_one_r_evaluation_then_none(self, r):
        # one array evaluation makes the report that a scan reads; a second
        # report comes from the memo
        data = ScatteringData(r)
        real = ReflectionCoefficient.__call__
        with mock.patch.object(ReflectionCoefficient, "__call__", autospec=True,
                               side_effect=real) as spy:
            first = check_symmetries(data)
            assert spy.call_count == 1
            assert check_symmetries(data) is first
        assert spy.call_count == 1
        assert isinstance(spy.call_args.args[1], np.ndarray)

    def test_family_passes_to_machine(self):
        for kappa, alpha, beta in ((0.5, 0.0, 1.0), (-1.0, 0.0, 0.5), (0.9, 2.0, 0.2)):
            data = ScatteringData(ReflectionCoefficient.family(kappa, alpha, beta))
            report = check_symmetries(data)
            assert report.passed
            assert max(symmetry_loop(data.r)[0], report.max_inversion_violation,
                       report.max_modulus_excess) <= 1e-14

    def test_tabulated_defect_reported(self):
        grid = np.geomspace(1 / 8.0, 8.0, 61)
        vals = 0.3 * np.exp(-np.log(grid) ** 2) + 0j
        i2 = int(np.argmin(np.abs(grid - 2.0)))
        vals[i2] = -vals[i2]
        data = ScatteringData(ReflectionCoefficient.tabulated(grid, vals))
        report = check_symmetries(data)
        assert not report.passed
        # the flipped sign shows up as ~2|r(2)| in the inversion defect
        assert report.max_inversion_violation == pytest.approx(
            2 * abs(vals[i2]), rel=0.2)

    def test_spectrum_invariant_named(self):
        with pytest.raises(DomainError, match="unit circle"):
            DiscreteSpectrum([0.9 * cmath.exp(-1j * math.pi / 3)])
        z = cmath.exp(-1j * math.pi / 3)
        with pytest.raises(DomainError):
            DiscreteSpectrum([z, cmath.exp(-1j * math.pi / 4), z])


class TestWhatTheScanTrusts:
    """A symmetry report holds only the inversion gap and the modulus excess
    at the probes; the rest of what the analysis needs holds by construction,
    and a scan refuses a config under --strict exactly where the report fails."""

    @staticmethod
    def assert_negation_exact(data):
        assert symmetry_loop(data.r)[0] == 0.0

    @staticmethod
    def assert_real_by_construction(data):
        # r(1) is r's half at y = 0, on the scalar and the array path, and
        # the rule's Cauchy row i*lg*sech is imaginary: no rounding is left
        assert data.r(1.0).imag == 0.0
        assert data.r(np.array([1.0]))[0].imag == 0.0
        try:
            transforms = log_transforms(data)
        except (ConvergenceError, DomainError):
            return      # no transforms to witness
        assert transforms.cauchy_1.real == 0.0

    @staticmethod
    def assert_scan_agrees(text, report):
        if report.passed:
            parse_config(text, strict=True)
        else:
            with pytest.raises(ConfigError, match="symmetries violated"):
                parse_config(text, strict=True)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-3.0, 9.0), st.sampled_from([1.0, -1.0]),
           st.floats(-3.0, 3.0))
    def test_family(self, kappa, log_alpha, sign, log_beta):
        alpha, beta = sign * 10.0 ** log_alpha, 10.0 ** log_beta
        data = ScatteringData(ReflectionCoefficient.family(kappa, alpha, beta))
        self.assert_negation_exact(data)
        self.assert_real_by_construction(data)
        text = "[scattering]\nkappa_r = %r\nalpha = %r\nbeta = %r\n" % (kappa, alpha, beta)
        self.assert_scan_agrees(text, check_symmetries(data))

    # kappa and alpha reach the smallest doubles, where Pchip's slopes
    # overflow; RuntimeWarnings are errors here, so none may escape
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["mirrored", "two-sided", "one-sided"]), st.floats(1.1, 50.0),
           st.floats(0.02, 0.9), st.integers(4, 80), st.floats(-1.0, 1.0),
           st.floats(-2.0, 2.0), st.floats(0.05, 2.0),
           st.sampled_from([0.0, 1e-14, 1e-11, 1e-9, 1e-4]), st.integers(0, 2 ** 32 - 1))
    def test_table(self, kind, hi, lo, n, kappa, alpha, beta, noise, seed):
        # a family sampled on a grid, the knots perturbed by up to ``noise``;
        # the knots below z = 1 of a mirrored grid sit where the interpolant
        # is built, those of a two-sided one between its knots
        lo = {"mirrored": 1.0 / hi, "two-sided": lo, "one-sided": 1.0}[kind]
        grid = np.geomspace(lo, hi, n)
        vals = kappa * np.exp(-beta * np.log(grid) ** 2) * grid ** (1j * alpha)
        vals *= 1.0 + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        vals /= np.maximum(np.abs(vals), 1.0)
        data = ScatteringData(ReflectionCoefficient.tabulated(grid, vals))
        self.assert_negation_exact(data)
        self.assert_real_by_construction(data)
        # the scan reads the table back from a file: %.18e keeps every double
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.csv")
            np.savetxt(path, np.column_stack([grid, vals.real, vals.imag]), delimiter=",")
            self.assert_scan_agrees("[scattering]\ntable_path = %s\n" % path,
                                    check_symmetries(data))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 0.5 * math.pi), st.floats(-2e-12, 2e-12)),
                    min_size=1, max_size=3))
    def test_constructed_spectrum_within_1e_12(self, reps):
        try:
            spectrum = DiscreteSpectrum([(1.0 + eps) * cmath.exp(-1j * th) for th, eps in reps])
        except DomainError:
            return      # refused: no data carries it
        assert all(abs(abs(z) - 1.0) <= 1e-12 and z.imag < 0 < z.real
                   for z in spectrum.representatives)
        assert len(set(spectrum.representatives)) == len(reps)
        self.assert_negation_exact(ScatteringData(ReflectionCoefficient.family(0.5), spectrum))


class TestMemo:
    def test_error_kept_and_raised_again(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5))
        calls, depths = [], []

        def fail():
            calls.append(None)
            raise ConvergenceError("no", best=1.0)

        for _ in range(3):
            with pytest.raises(ConvergenceError) as info:
                data._memo("key", fail)
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
            assert info.value.best == 1.0
        assert len(calls) == 1
        assert depths[1] == depths[2]

    def test_other_errors_not_kept(self):
        data = ScatteringData(ReflectionCoefficient.family(0.5))
        calls = []

        def fail():
            calls.append(None)
            raise KeyError("no")

        for _ in range(2):
            with pytest.raises(KeyError):
                data._memo("key", fail)
        assert len(calls) == 2


class TestLogOneMinusR2:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa_r", [1.0, -1.0])
    def test_finite_where_r_has_unit_modulus(self, kappa_r):
        # lg at y = 0, where |r| = 1, is clipped to log(2^-53): the
        # transforms' rule either converges or gives up with finite values
        data = ScatteringData(ReflectionCoefficient.family(kappa_r))
        assert abs(data.r(1.0)) == 1.0
        try:
            tr = log_transforms(data)
        except ConvergenceError as exc:
            tr = exc.best
        assert np.all(np.isfinite(tr))


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
            math.log(abs(full_line_t_at_i(reflectionless))), abs=1e-12)

    def test_full_line_real(self, family_half):
        val = log_T_i(family_half)
        assert isinstance(val, float)
        assert val == pytest.approx(math.log(full_line_t_at_i(family_half).real), abs=1e-12)


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
        # i*T1/T(i) is real by construction, to rounding, with 0-3 spectrum
        # points, and agrees with the adaptive real-line quadrature of conftest
        for r, thetas in ((family_half.r, ()),
                          (ReflectionCoefficient.family(0.5, 0.0, 0.05), (math.pi / 3,)),
                          (ReflectionCoefficient.family(0.6, 0.7, 0.25), (0.3, 1.1)),
                          (ReflectionCoefficient.family(-0.8, -1.5, 0.5), (0.2, 0.7, 1.3))):
            data = ScatteringData(r, DiscreteSpectrum([cmath.exp(-1j * th) for th in thetas]))
            ti, t1 = t_i_and_t1(data)
            assert abs(ti.imag) < 1e-10 * abs(ti)
            ratio = 1j * t1 / ti
            assert abs(ratio.imag) <= 1e-15 * (1 + abs(ratio))
            want = region2_constants_adaptive(data, QuadratureSpec(1e-14, 1e-14, 20000))
            assert abs(ratio - 1j * want["T_1"] / want["T_i"]) <= 1e-12 * (1 + abs(ratio))

    def test_consistency_with_full_line_t(self, family_half):
        ti, _ = t_i_and_t1(family_half)
        direct = full_line_t_at_i(family_half)
        assert ti == pytest.approx(direct, abs=1e-11)
