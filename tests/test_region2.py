import cmath
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mchasy import (DiscreteSpectrum, ReflectionCoefficient,
                    RegionConstants, ScatteringData, SpaceTimePoint,
                    f_II, lambda_ab, log_transforms, psi_ab, region2_constants,
                    u_region2)
from mchasy import numerics, scattering
from mchasy.errors import (AdmissibilityError, ConvergenceError, DomainError, RealityError,
                           RegionError)
from mchasy.region2 import _GAMMA_A, _GAMMA_B, Region2Constants

from conftest import deadline, region2_constants_adaptive

SQ3 = math.sqrt(3)
ZA = 2 + SQ3
WIDE = RegionConstants(c2=10.0)


def point_at(s, t):
    xi = -0.25 - (9 / 8) ** (1 / 3) * s * t ** (-2 / 3)
    return SpaceTimePoint(xi * t, t)


def make_consts(**kw):
    base = dict(Lambda_a=0.0, Lambda_b=0.0, T_i=1.0 + 0j, T_1=0.0 + 0j, k_ampl=-0.5)
    base.update(kw)
    return Region2Constants(**base)


class TestLambdaAB:
    def test_reflectionless_is_undefined(self, reflectionless):
        with pytest.raises(DomainError):
            lambda_ab(reflectionless)

    def test_empty_spectrum_terms(self, family_wide):
        la, lb = lambda_ab(family_wide)
        # args vanish for the chirp-free family and the PV transforms are
        # antisymmetric under z -> 1/z, so the two offsets are opposite
        assert la == pytest.approx(-lb, abs=1e-9)

    def test_spectrum_additivity(self, family_wide, one_pair_spectrum):
        la0, lb0 = lambda_ab(family_wide)
        with_spec = ScatteringData(family_wide.r, one_pair_spectrum)
        la1, lb1 = lambda_ab(with_spec)
        z1 = one_pair_spectrum.representatives[0]
        # the pair's term of log T(i); the integral term is the same for both
        dlog = math.log((1 + z1.imag) / (1 - z1.imag))
        assert la1 - la0 == pytest.approx(
            4 * cmath.phase(ZA - z1) - 2 * SQ3 * dlog, abs=1e-9)
        assert lb1 - lb0 == pytest.approx(
            4 * cmath.phase(2 - SQ3 - z1) + 2 * SQ3 * dlog, abs=1e-9)


class TestPsi:
    def test_drift_only_at_zero(self):
        c = make_consts(Lambda_a=0.3, Lambda_b=-0.1)
        pa, pb = psi_ab(0.0, 8.0, c)
        assert pa == pytest.approx(3 * SQ3 / 4 * 8.0 + 0.3)
        assert pb == pytest.approx(-3 * SQ3 / 4 * 8.0 - 0.1)

    def test_oscillation_cancels_in_sum(self):
        c = make_consts(Lambda_a=0.3, Lambda_b=-0.1)
        pa, pb = psi_ab(1.7, 1e6, c)
        assert pa + pb == pytest.approx(0.2, abs=1e-9)

    def test_substitution(self):
        c = make_consts()
        pa, _ = psi_ab(1.0, 1e6, c)
        assert pa == pytest.approx(3 ** (7 / 6) / 2 * 1e2 + 3 * SQ3 / 4 * 1e6)


class TestFII:
    def test_zero_phases(self):
        c = make_consts()
        # psi_a = psi_b = 0 only if both s*t and t terms vanish; emulate by
        # evaluating the display directly at s=0, t->0+ limit via tiny t
        val = f_II(0.0, 1e-300, c)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic_oracle(self):
        c = make_consts(T_1=0.0 + 0j)
        s, t = 0.35, 7.0
        pa, pb = psi_ab(s, t, c)
        oracle = (2 * math.sqrt(2 + SQ3) * math.sin(pa) * math.cos(math.atan(ZA))
                  + 2 * math.sqrt(2 - SQ3) * math.sin(pb) * math.cos(math.atan(2 - SQ3)))
        assert f_II(s, t, c) == pytest.approx(oracle, abs=1e-12)

    def test_two_pi_shift_invariance(self, family_wide, one_pair_spectrum):
        data = ScatteringData(family_wide.r, one_pair_spectrum)
        c = region2_constants(data)
        shifted = Region2Constants(
            Lambda_a=c.Lambda_a + 2 * math.pi, Lambda_b=c.Lambda_b - 2 * math.pi,
            T_i=c.T_i, T_1=c.T_1, k_ampl=c.k_ampl)
        for s, t in ((0.0, 1e6), (1.2, 5e5)):
            assert f_II(s, t, c) == pytest.approx(f_II(s, t, shifted), abs=1e-7)

    def test_saddle_projection_identity(self):
        # sqrt(2 +- sqrt(3)) * cos(arctan(2 +- sqrt(3))) = 1/2 exactly
        assert math.sqrt(2 + SQ3) * math.cos(math.atan(ZA)) == pytest.approx(0.5, abs=1e-15)
        assert math.sqrt(2 - SQ3) * math.cos(math.atan(2 - SQ3)) == pytest.approx(0.5, abs=1e-15)


class TestURegion2:
    def test_flat_data_short_circuit(self, cache):
        data = ScatteringData(ReflectionCoefficient.family(0.0))
        res = u_region2(SpaceTimePoint(-0.25e6, 1e6), data, cache)
        assert res.u == 1.0
        assert res.diagnostics.get("short_circuit")

    def test_region_error(self, family_wide, cache):
        with pytest.raises(RegionError):
            u_region2(SpaceTimePoint(2e6, 1e6), family_wide, cache)

    def test_modulus_symmetry(self, family_wide):
        assert abs(family_wide.r(ZA)) == pytest.approx(
            abs(family_wide.r(2 - SQ3)), abs=1e-12)

    def test_full_pipeline_self_convergence(self, one_pair_spectrum, cache):
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 0.05),
                              one_pair_spectrum)
        pt = SpaceTimePoint(-0.25e6, 1e6)
        res = u_region2(pt, data, cache)
        assert res.error_order == pytest.approx(-14 / 27)
        k = res.diagnostics["k"]
        assert res.diagnostics["pii_err_est"] == pytest.approx(1e-11 / (1 - abs(k)))

    def test_constants_reality(self, family_wide, one_pair_spectrum):
        data = ScatteringData(family_wide.r, one_pair_spectrum)
        c = region2_constants(data)
        assert abs(c.T_i.imag) < 1e-8 * abs(c.T_i)
        assert c.it1_over_ti == pytest.approx(-1.0, abs=1e-8)
        # hand-built constants meet the ratio's one check, and NaN fails it
        for bad in ({"T_1": c.T_1 + 1e-7 * c.T_i}, {"T_1": complex(math.nan, 0.0)},
                    {"T_i": math.nan}):
            with pytest.raises(RealityError, match="not real"):
                dataclasses.replace(c, **bad).it1_over_ti

    def test_gamma_complement(self):
        # the saddle angles arctan(2 +- sqrt(3)) that f_II projects on
        assert _GAMMA_A + _GAMMA_B == pytest.approx(math.pi / 2, abs=1e-15)
        assert _GAMMA_A == pytest.approx(5 * math.pi / 12, abs=1e-15)
        assert _GAMMA_B == pytest.approx(math.pi / 12, abs=1e-15)

    def test_one_r_evaluation_per_point(self, one_pair_spectrum):
        # after the first point, a zone-II point reads r(2+sqrt 3) once: the
        # admissibility check is memoized with the constants
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 0.05),
                              one_pair_spectrum)
        u_region2(point_at(0.0, 1e6), data)
        with mock.patch.object(type(data.r), "__call__", autospec=True,
                               side_effect=type(data.r).__call__) as r:
            u_region2(point_at(0.5, 1e6), data)
        assert r.call_count == 1

    def test_inadmissible_refusal_memoized(self):
        # |r(2+sqrt 3)| >= 1 is refused by region2_constants and by
        # u_region2, with one r evaluation for all of them
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 0.05))
        with mock.patch.object(type(data.r), "__call__", autospec=True,
                               return_value=1.0 + 0j) as r:
            for _ in range(2):
                with pytest.raises(AdmissibilityError,
                                   match=r"second zone needs \|r\(2\+sqrt\(3\)\)\| < 1, got 1.0"):
                    region2_constants(data)
            assert r.call_count == 1
            with pytest.raises(AdmissibilityError, match="second zone needs"):
                u_region2(point_at(0.0, 1e6), data)
            assert r.call_count == 2

    def test_oscillation_in_time(self, one_pair_spectrum, cache):
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 0.05),
                              one_pair_spectrum)
        ts = np.linspace(2e4, 2e4 + 40.0, 161)
        us = np.array([u_region2(SpaceTimePoint(-0.25 * t, t), data, cache).u
                       for t in ts])
        spread = (us - 1) * ts ** (1 / 3)
        assert spread.max() - spread.min() > 1e-2   # genuine oscillation


def _spectrum(thetas):
    return DiscreteSpectrum([cmath.exp(-1j * th) for th in thetas])


class TestLogTransforms:
    """The zone-II integrals from one rule in y = ln|z| per ScatteringData."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.99, 0.99).filter(lambda k: k != 0.0), st.floats(-2, 2),
           st.floats(0.05, 2), st.lists(st.floats(0.1, 1.4), max_size=2).filter(
               lambda th: len(th) < 2 or abs(th[0] - th[1]) > 0.05))
    @example(5e-324, 0.0, 1.0, [])
    @example(1e-300, 0.0, 1.0, [])
    def test_matches_adaptive_oracle(self, kappa, alpha, beta, thetas):
        data = ScatteringData(ReflectionCoefficient.family(kappa, alpha, beta),
                              _spectrum(thetas))
        if 0 in (data.r(2 + math.sqrt(3)), data.r(2 - math.sqrt(3))):
            # a subnormal kappa underflows r to 0 at a saddle: arg r is
            # undefined there, and the evaluator must refuse, not answer
            with pytest.raises(DomainError):
                region2_constants(data)
            return
        got = region2_constants(data)
        # the oracle runs tighter than the default spec: at the default one its
        # principal values alone are off by up to 3e-11
        want = region2_constants_adaptive(ScatteringData(data.r, data.spectrum),
                                          numerics.QuadratureSpec(1e-14, 1e-14, 20000))
        for name, value in want.items():
            assert abs(getattr(got, name) - value) <= 1e-10, name

    def test_no_adaptive_quadrature_and_one_evaluation_per_level(self, one_pair_spectrum):
        data = ScatteringData(ReflectionCoefficient.family(0.6, 0.7, 0.25),
                              one_pair_spectrum)
        kind = type(data.r)
        with mock.patch.object(numerics, "quad", wraps=numerics.quad) as quad, \
                mock.patch.object(kind, "_half_array", autospec=True,
                                  side_effect=kind._half_array) as lg, \
                mock.patch.object(kind, "_log_grid", autospec=True,
                                  side_effect=kind._log_grid) as levels:
            region2_constants(data)
        assert quad.call_count == 0
        assert 1 <= lg.call_count == levels.call_count

    def test_error_estimate_within_tolerance(self, one_pair_spectrum, cache):
        data = ScatteringData(ReflectionCoefficient.family(0.8, 0.0, 0.08),
                              one_pair_spectrum)
        tr = log_transforms(data)
        scale = max(1.0, abs(tr.cauchy_1), abs(tr.cauchy_2), abs(tr.pv_a), abs(tr.pv_b))
        assert 0.0 < tr.err_est <= scattering._LOG_TOL * scale
        res = u_region2(point_at(0.5, 1e6), data, cache)
        assert res.diagnostics["quad_err_est"] == tr.err_est

    def test_near_unit_kappa_answers_or_refuses(self, cache):
        data = ScatteringData(ReflectionCoefficient.family(1 - 1e-9, 0.0, 0.5))
        with deadline(5.0):
            try:
                res = u_region2(point_at(0.5, 1e6), data, cache)
            except ConvergenceError as exc:
                assert exc.best is not None and exc.estimate_error > 0
            else:
                assert math.isfinite(res.u)

    def test_narrow_family_refused_without_allocating(self):
        # beta = 1e-12 puts the cutoff of |r|^2 at |ln z| ~ 4e6, about 3e7
        # nodes at level 0: the rule stops at its node limit before
        # allocating them
        data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 1e-12))
        with deadline(2.0), pytest.raises(ConvergenceError, match="200000 nodes"):
            log_transforms(data)

    # Tables sampled from family(0.5, 0.3, 0.5) against the family itself: the
    # gap is the error of the Pchip interpolant in ln z (measured 1.4e-6,
    # 8.2e-7 and 1.5e-6 in Lambda, below 1e-8 in T(i); it falls as the table
    # is refined), not of the quadrature, whose estimate stays below 1e-12.
    @pytest.mark.parametrize("lo, hi, n", [(1e-4, 1e4, 400), (0.05, 20.0, 200),
                                           (1e-3, 30.0, 300)])
    def test_tabulated_matches_family(self, lo, hi, n, one_pair_spectrum):
        fam = ReflectionCoefficient.family(0.5, 0.3, 0.5)
        grid = np.geomspace(lo, hi, n)
        table = ReflectionCoefficient.tabulated(grid, fam(grid))
        got = region2_constants(ScatteringData(table, one_pair_spectrum))
        want = region2_constants(ScatteringData(fam, one_pair_spectrum))
        for name in ("Lambda_a", "Lambda_b", "T_i", "T_1"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 3e-6, name
        assert got.quad_err_est <= 1e-12

    # One-sided tables: a table on z >= 1.0001 or z <= 1/1.0001 is mirrored
    # onto the other side (measured 6.6e-7 in Lambda, 3.9e-10 in T(i)).
    @pytest.mark.parametrize("lo, hi", [(1.0001, 1e4), (1e-4, 1 / 1.0001)])
    def test_one_sided_table_matches_family(self, lo, hi, one_pair_spectrum):
        fam = ReflectionCoefficient.family(0.5, 0.3, 0.5)
        grid = np.geomspace(lo, hi, 300)
        table = ReflectionCoefficient.tabulated(grid, fam(grid))
        got = region2_constants(ScatteringData(table, one_pair_spectrum))
        want = region2_constants(ScatteringData(fam, one_pair_spectrum))
        for name in ("Lambda_a", "Lambda_b", "T_i", "T_1"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 3e-6, name
