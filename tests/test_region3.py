import bisect
import cmath
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mchasy import (ReflectionCoefficient, ScatteringData,
                    SpaceTimePoint, delta0, nr7_coeffs, region3, solve_band, u_region3)
from mchasy.errors import (AdmissibilityError, BoundaryAmbiguityError,
                           BracketError, BranchError, ConventionError, ConvergenceError, DomainError,
                           MchasyError, PoleOfSolutionError, RegionError, WindowError)
from mchasy.region3 import (ShockParams, _band_z2, _gap_z2_log_moment, _j_band,
                            _k_band, _k_gap, _j_gap, _w_sheet1, abel, build_geometry,
                            g0_limit, h1_limit, nr7_matrix, periods)

from conftest import (axis_inv_w_quad, band_quad, delta0_quad, ellipk,
                      gap_log_moment_mp, gap_log_moment_quad, inv_w_mp,
                      j_band_quad, j_gap_quad, k_band_mp, k_band_quad,
                      k_gap_quad, richardson_limit, secant_root,
                      unit_band_root_mp)
from oracles import g_eval, h_eval

CBRT3 = 3.0 ** (1 / 3)
# shock scales p, q of any magnitude a double holds, subnormals included
EXTREME = st.one_of(st.floats(1e-300, 1e300), st.floats(5e-324, 2.2250738585072014e-308))
T0 = 1e6
XI0 = 2 - 3 * CBRT3 * math.log(T0) ** (2 / 3) * T0 ** (-2 / 3)


@pytest.fixture(scope="module")
def gen_data():
    return ScatteringData(ReflectionCoefficient.family(-1.0, 0.0, 0.5))


@pytest.fixture(scope="module")
def params(gen_data):
    return ShockParams(p=1.0, q=1.0, xi=XI0, t=T0,
                       C_R=(1 / 12) * gen_data.r.curvature_at_one())


@pytest.fixture(scope="module")
def geom(params):
    return build_geometry(params)


def sided(f, x, d):
    return richardson_limit(lambda dd: f(x + 1j * dd), d)


class TestCurvature:
    def test_family_closed_form(self, gen_data):
        assert gen_data.r.curvature_at_one() == pytest.approx(2 * 0.5 * 1.0, abs=1e-15)

    def test_stencil_matches_family(self):
        grid = np.geomspace(1 / 16.0, 16.0, 2001)
        vals = -np.exp(-0.5 * np.log(grid) ** 2)
        data = ScatteringData(ReflectionCoefficient.tabulated(grid, vals))
        fam = ScatteringData(ReflectionCoefficient.family(-1.0, 0.0, 0.5))
        assert data.r.curvature_at_one() == pytest.approx(fam.r.curvature_at_one(), rel=2e-3)

    @pytest.mark.parametrize("lo, hi", [(1.0, 16.0), (1 / 16.0, 1.0), (1.001, 16.0)])
    def test_one_sided_tables_match_family(self, lo, hi):
        # the spline runs through the mirrored knots, so a table on one side
        # of z = 1 gives the curvature too
        grid = np.geomspace(lo, hi, 1001)
        table = ReflectionCoefficient.tabulated(grid, -np.exp(-0.5 * np.log(grid) ** 2))
        assert table.curvature_at_one() == pytest.approx(1.0, rel=2e-3)

    def test_negative_curvature_rejected(self):
        params_bad = lambda: ShockParams(p=1.0, q=1.0, xi=XI0, t=T0, C_R=-0.1)
        with pytest.raises(AdmissibilityError):
            params_bad()

    @pytest.mark.parametrize("c_r", [math.inf, math.nan])
    def test_non_finite_curvature_rejected(self, c_r):
        # named before any scale is computed: no warning, no Laurent fit of nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdmissibilityError, match="C_R must be positive and finite"):
                build_geometry(ShockParams(p=1.0, q=1.0, xi=1.99, t=1e6, C_R=c_r))
            with pytest.raises(AdmissibilityError, match="C_R must be positive and finite"):
                delta0(0.3, 0.7, c_r)

    @pytest.mark.parametrize("p, q", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_p_q_rejected(self, p, q):
        with pytest.raises(DomainError, match="p and q must be positive"):
            ShockParams(p=p, q=q, xi=XI0, t=T0, C_R=1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_t_named(self, t):
        # named as t, not blamed on p and q through a non-finite tau
        with pytest.raises(DomainError, match="needs 0 < t < inf, got t=%r" % t):
            ShockParams(p=1.0, q=1.0, xi=1.99, t=t, C_R=1.0)

    @pytest.mark.parametrize("xi", [-math.inf, math.nan, 2.0])
    def test_bad_xi_named(self, xi):
        with pytest.raises(DomainError, match="needs a finite xi < 2, got xi=%r" % xi):
            ShockParams(p=1.0, q=1.0, xi=xi, t=1e6, C_R=1.0)

    @pytest.mark.parametrize("p, q", [(1e300, 1.0), (1.0, 1e-300), (5e-324, 1.0),
                                      (1.0, 1e-200)])
    def test_extreme_p_q_rejected(self, p, q):
        # tau or the band equation overflows or underflows, or with q = 1e-200
        # the band radius^2 2p/3q does in g0_limit
        with pytest.raises(DomainError, match="shock scales"):
            ShockParams(p=p, q=q, xi=XI0, t=T0, C_R=1.0)

    @settings(max_examples=40, deadline=None)
    @given(p=EXTREME, q=EXTREME)
    def test_any_p_q_answers_or_names_its_error(self, gen_data, p, q):
        # every magnitude a double holds, subnormals included: a finite u or
        # a named error, with no warning on the way
        t, w = 1e6, 3.0
        xi = 2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = u_region3(SpaceTimePoint(xi * t, t), gen_data, p, q)
            except MchasyError:
                return
        assert math.isfinite(res.u)

    @pytest.mark.parametrize("p, q", [(1e5, 1.0), (1.0, 1e-4)])
    def test_band_residual_bound_scales_with_the_rhs(self, gen_data, p, q):
        # the band integral grows like (p/q)^(3/2): at w = 3 an absolute 1e-12
        # bound refused these points (residuals 4.7e-10 and 5.8e-11), though
        # u is (p, q)-invariant, within the 1e-8 of --check-pq-invariance
        t, w = 1e6, 3.0
        xi = 2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        pt = SpaceTimePoint(xi * t, t)
        res = u_region3(pt, gen_data, p, q)
        assert res.diagnostics["b"] > 70.0
        assert abs(res.u - u_region3(pt, gen_data, 1.0, 1.0).u) <= 1e-8

    @pytest.mark.parametrize("p", [1e2, 1e3, 1e4])
    def test_gate_samples_scale_with_the_band(self, gen_data, p):
        # b grows like sqrt(p/q); u is (p, q)-invariant, and with samples
        # scaled by the band end the gate passes it unchanged
        t, w = 1e6, 3.0
        xi = 2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        pt = SpaceTimePoint(xi * t, t)
        res = u_region3(pt, gen_data, p, 1.0)
        assert res.diagnostics["b"] > 5.0
        assert res.u == u_region3(pt, gen_data, 1.0, 1.0).u


class TestSolveBand:
    def test_residuals(self, params, geom):
        a, b = geom.a, geom.b
        assert abs(a * a + b * b - 2 / 3) < 1e-12
        assert abs(_j_band(a, b) - params.band_rhs) < 1e-12

    def test_residual_above_bound_is_named(self, params):
        # a root off by 1e-9 of a leaves a residual far above the unit
        # problem's 1e-12; the gate reads it from the evaluation the root
        # finder returns with that root
        a, _ = solve_band(params)

        def off_root(g, dg, lo, hi, glo, x, gx):
            bad = a * (1 + 1e-9)
            return bad, g(bad)

        with mock.patch.object(region3, "_bracketed_newton", off_root):
            with pytest.raises(ConvergenceError, match="band residual"):
                solve_band(params)

    def test_band_integral_once_per_evaluation(self, params):
        # the 1e-12 residual gate reads the root finder's last evaluation at
        # the root: the band integral is computed once at the table's start
        # and once per step of the root finder, not at the root a second time
        region3._band_table()       # the table, once per process
        evals, real_root = [], region3._bracketed_newton

        def newton(g, dg, lo, hi, glo, x, gx):
            return real_root(lambda v: evals.append(v) or g(v), dg, lo, hi, glo, x, gx)

        with mock.patch.object(region3, "_bracketed_newton", newton), \
                mock.patch.object(region3, "_j_band", wraps=region3._j_band) as j_band:
            a, b = solve_band(params)
        assert j_band.call_count == len(evals) + 1
        assert (a, b) == solve_band(params)

    def test_degenerate_upper_endpoint(self):
        # the RHS scales like 4/(9*ratio^(3/2)); push the window ratio far
        # out so the band closes onto a = b = sqrt(p/3q)
        t = 1e8
        xi = 2 - 40 * CBRT3 * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        p = ShockParams(p=1.0, q=1.0, xi=xi, t=t, C_R=1.0)
        a, b = solve_band(p)
        assert b - a < 0.25
        assert abs(a - math.sqrt(1 / 3)) < 0.12
        assert abs(a * a + b * b - 2 / 3) < 1e-12

    def test_attainable_maximum_closed_form(self):
        # at a = 0 the integral collapses to b^3/3
        b = math.sqrt(2 / 3)
        assert _j_band(1e-9, b) == pytest.approx(b ** 3 / 3, abs=1e-9)

    def test_window_error(self):
        bad = ShockParams(p=1.0, q=1.0, xi=-10.0, t=2.0, C_R=1.0)
        with pytest.raises(WindowError):
            solve_band(bad)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(4.0, 10.0), st.floats(2.95, 5.7))
    @example(4.0, 2.95)
    @example(10.0, 5.7)
    def test_newton_matches_secant_root(self, log_t, w):
        t = 10.0 ** log_t
        params = ShockParams(p=1.0, q=1.0, xi=2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3),
                             t=t, C_R=1.0)
        with mock.patch.object(region3, "_j_band", wraps=_j_band) as counted:
            a, b = solve_band(params)
        assert counted.call_count <= 15
        a_max, rhs = math.sqrt(1 / 3), params.band_rhs
        want = secant_root(lambda x: _j_band(x, math.sqrt(2 / 3 - x * x)) - rhs,
                           1e-9 * a_max, a_max * (1 - 1e-12), tol=1e-15)
        assert abs(a - want) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.floats(0.0, 1.0))
    @example(False, 0.0)
    @example(True, 0.0)
    @example(False, 1.0)
    @example(True, 1.0)
    def test_root_matches_mpmath(self, towards_top, depth):
        # rhs log-uniform towards either end of (0, attainable): a -> 0 as
        # rhs -> attainable, where F0 - F ~ a^2 ln(1/a), and the band
        # closes as rhs -> 0
        region3._band_table()       # built once; not counted below
        attainable = -region3._band_table()[1][0]
        if towards_top:
            rhs = attainable * (1.0 - 10.0 ** (-0.3 - 14.7 * depth))
        else:
            rhs = attainable * 10.0 ** (-0.3 - 19.7 * depth)
        params = ShockParams(p=1.0, q=1.0, xi=1.5, t=1.0, C_R=1.0)
        with mock.patch.object(ShockParams, "band_rhs", rhs), \
                mock.patch.object(region3, "_j_band", wraps=_j_band) as counted:
            a, b = solve_band(params)
        # no more band integrals than the five-bracket root's worst case
        assert counted.call_count <= 19
        nodes = region3._band_table()[0]
        k = bisect.bisect_right(nodes, a)
        want, slope = unit_band_root_mp(rhs, nodes[max(k - 2, 0)], nodes[min(k + 1, len(nodes) - 1)])
        # the root finder stops at a computed residual of 1e-15, and J_band
        # along the circle is within 1.4e-16 (5 ulp of F0) of 40-digit
        # mpmath: the root is within their sum over |F'| where that exceeds 1e-14
        assert abs(a - want) <= max(1e-14, (1e-15 + 6 * math.ulp(attainable)) / abs(slope))
        assert abs(a * a + b * b - 2 / 3) < 1e-15

    def test_one_newton_step_on_the_bench_pool(self):
        # the (t, w) pairs of the benchmark's shock scans: 13 half decades of
        # t from 1e4 and eight w from 2.95 to 5.7
        region3._band_table()
        with mock.patch.object(region3, "_j_band", wraps=_j_band) as areas, \
                mock.patch.object(region3, "_band_slope",
                                  wraps=region3._band_slope) as slopes:
            pairs = 0
            for k in range(8, 21):
                for w in (2.95, 3.35, 3.75, 4.15, 4.55, 4.95, 5.35, 5.7):
                    t = 10.0 ** (0.5 * k)
                    xi = 2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
                    solve_band(ShockParams(p=1.0, q=1.0, xi=xi, t=t, C_R=1.0))
                    pairs += 1
        assert areas.call_count <= 2.1 * pairs
        assert slopes.call_count <= 1.1 * pairs

    def test_rhs_below_the_last_node_is_refused(self):
        # the table ends at a_max (1 - 1e-12), as the last bracket did: a
        # right side below its band integral (6e-25) has no sign change
        params = ShockParams(p=1.0, q=1.0, xi=1.5, t=1.0, C_R=1.0)
        with mock.patch.object(ShockParams, "band_rhs", 1e-26):
            with pytest.raises(BracketError, match="no sign change"):
                solve_band(params)

    def test_pq_covariance(self, geom):
        t, xi = T0, XI0
        p2 = ShockParams(p=3.0, q=2.0, xi=xi, t=t, C_R=1.0)
        a2, b2 = solve_band(p2)
        mu = math.sqrt((1.0 * 3.0) / (1.0 * 2.0))
        # the unit root, scaled
        assert (a2, b2) == (mu * geom.a, mu * geom.b)


class TestUnitBand:
    """The curve scales as z -> sqrt(p/q) z and the band integral is cubic
    in z: ``solve_band`` solves a^2 + b^2 = 2/3 and scales the root, so u
    at any (p, q) is u at (1, 1) up to the rounding of the scales."""

    @staticmethod
    def point(t, w):
        xi = 2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        return SpaceTimePoint(xi * t, t)

    @pytest.mark.parametrize("p, q", [(0.1, 10.0), (0.01, 10.0)])
    def test_small_p_over_q_answers(self, p, q):
        # the band equation solved at these scales has a right side of 3.7e-5
        # and 1.2e-6, and find_root stops at an absolute residual of 1e-15:
        # at (0.1, 10) 8.5e-16, 2.3e-11 of that side, and the period identity
        # read 1 + 1.3e-10, which the gate refused as a BranchError
        data = ScatteringData(ReflectionCoefficient.family(-1.0, 0.3, 0.5))
        pt = self.point(1e6, 5.5)
        want = u_region3(pt, data).u
        assert abs(u_region3(pt, data, p, q).u - want) <= 1e-12 * abs(want - 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(4.0, 16.0), st.floats(2.95, 5.7), st.floats(-3.0, 3.0),
           st.floats(-3.0, 3.0), st.sampled_from([0.1, 0.5, 2.0]))
    @example(6.0, 5.5, 0.0, -2.0, 0.5)
    @example(4.162488247412146, 5.437373654771941, 1.3251092949551175,
             -0.6150954662189543, 2.0)      # one ulp apart, 1.7e-12 of |u - 1|
    def test_any_p_over_q_answers_as_at_unit_scale(self, log_t, w, log_p, log_ratio,
                                                   beta):
        data = ScatteringData(ReflectionCoefficient.family(-1.0, 0.3, beta))
        pt = self.point(10.0 ** log_t, w)
        p = 10.0 ** log_p
        try:
            want = u_region3(pt, data).u
            got = u_region3(pt, data, p, p / 10.0 ** log_ratio).u
        except MchasyError as exc:
            assert not isinstance(exc, BranchError)
            return
        # u is a double near 1: below |u - 1| = 1.1e-4 one ulp of u is more
        # than 1e-12 of |u - 1|, and the rounding of the scales can move u by it
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-12 * abs(want - 1.0) + math.ulp(want)


class TestBandSamples:
    """``solve_band`` tabulates the band integral once per process."""

    @staticmethod
    def params(w, p=1.7, q=1.3, t=1e6):
        return ShockParams(p=p, q=q, xi=2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3),
                           t=t, C_R=1.0)

    def test_table_once_per_process(self):
        region3._band_table.cache_clear()
        counts, ends = [], []
        for w in (3.0, 3.0, 4.5):
            with mock.patch.object(region3, "_j_band", wraps=_j_band) as counted:
                ends.append(solve_band(self.params(w)))
            counts.append(counted.call_count)
        nodes = len(region3._band_table()[0])
        assert counts[0] - counts[1] == nodes
        assert ends[0] == ends[1]
        # the table is that of the unit problem: another (p, q) builds none
        with mock.patch.object(region3, "_j_band", wraps=_j_band) as counted:
            solve_band(self.params(4.5, p=0.1, q=10.0))
        assert counted.call_count == counts[2]
        region3._band_table.cache_clear()
        with mock.patch.object(region3, "_j_band", wraps=_j_band) as counted:
            assert solve_band(self.params(4.5)) == ends[2]
        assert counted.call_count == counts[2] + nodes

    def test_branch_error_on_every_point(self):
        # functools.cache keeps no exception: a table whose band integral
        # does not decrease fails at every point alike
        region3._band_table.cache_clear()
        messages = []
        with mock.patch.object(region3, "_j_band", return_value=0.5):
            for w in (3.0, 3.0, 4.5):
                with pytest.raises(BranchError, match="not decreasing") as info:
                    solve_band(self.params(w))
                messages.append(str(info.value))
        assert messages == [messages[0]] * 3
        assert region3._band_table.cache_info().currsize == 0

    def test_any_decrease_is_checked(self):
        # one node out of order, anywhere, refuses the table
        region3._band_table.cache_clear()
        nodes = len(region3._band_table()[0])
        for k in (1, nodes // 2, nodes - 1):
            region3._band_table.cache_clear()
            calls = iter(range(nodes))

            def j_band(a, b, k=k):
                return 0.5 if next(calls) == k else _j_band(a, b)

            with mock.patch.object(region3, "_j_band", j_band):
                with pytest.raises(BranchError, match="not decreasing"):
                    solve_band(self.params(3.0))
        region3._band_table.cache_clear()

    # (t, w, p, q) and repr(u) for gen_data, as computed before the samples
    # were shared across points
    RECORDED = [
        ((1e6, 3.0, 1.0, 1.0), "0.9999863744166393"),
        ((1e8, 4.2, 3.0, 2.0), "0.9999955456446701"),
        ((1e4, 5.5, 1e4, 1.0), "1.0004329319065792"),
        ((1e10, 3.5, 1.0, 1e4), "1.0000005036561856"),
        ((1e5, 4.8, 1e4, 1e4), "1.0002073435819467"),
        ((1e7, 2.96, 0.5, 1e3), "0.9999868287864845"),
    ]

    def test_u_unchanged(self, gen_data):
        region3._band_table.cache_clear()
        for _ in range(2):      # the first pass builds the table, the second reads it
            for (t, w, p, q), want in self.RECORDED:
                xi = 2 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
                assert repr(u_region3(SpaceTimePoint(xi * t, t), gen_data, p, q).u) == want


class TestPeriods:
    def test_structure(self, geom):
        assert geom.B1.imag == pytest.approx(0.0, abs=1e-13)
        assert geom.B1.real > 0
        assert geom.A1.real == pytest.approx(0.0, abs=1e-13)
        assert geom.A1.imag > 0
        assert geom.varkappa.real == pytest.approx(0.0, abs=1e-10)
        assert geom.varkappa.imag > 0
        # both K are positive for m in (0, 1): Im varkappa > 0 at every a/b
        for a in np.concatenate([np.geomspace(1e-9, 0.5, 40),
                                 1.0 - np.geomspace(0.5, 1e-12, 40)]):
            assert periods(a, 1.0, 1.0)[2].imag > 0

    def test_scale_law(self):
        # z -> lam*z multiplies the w-periods by lam^3 and cancels in varkappa
        lam = 1.7
        b1, a1, vk = periods(0.4, 0.9, 1.0)
        b1s, a1s, vks = periods(0.4 * lam, 0.9 * lam, 1.0)
        assert b1s == pytest.approx(lam ** 3 * b1, rel=1e-11)
        assert a1s == pytest.approx(lam ** 3 * a1, rel=1e-11)
        assert vks == pytest.approx(vk, abs=1e-11)

    def test_agm_oracle(self, geom):
        a, b = geom.a, geom.b
        assert _k_band(a, b) == pytest.approx(
            ellipk(math.sqrt(1 - (a / b) ** 2)) / b, abs=1e-11)
        assert _k_gap(a, b) == pytest.approx(2 * ellipk(a / b) / b, abs=1e-11)
        assert geom.varkappa == pytest.approx(
            2j * ellipk(a / b) / ellipk(math.sqrt(1 - (a / b) ** 2)), abs=1e-10)

    def test_band_identity(self, params, geom):
        ident = (2 - params.xi) * cmath.exp(-1j * params.tau * geom.A1)
        assert abs(ident - 1.0) < 1e-10

    def test_bad_order(self):
        with pytest.raises(DomainError):
            periods(0.9, 0.4, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(ratio=st.floats(1e-9, 1 - 1e-6), b=st.floats(0.05, 20.0))
    @example(ratio=1e-9, b=math.sqrt(2 / 3))
    @example(ratio=1 - 1e-6, b=math.sqrt(2 / 3))
    def test_closed_forms_match_quadrature(self, ratio, b):
        a = ratio * b
        for closed, oracle in ((_k_band, k_band_quad), (_k_gap, k_gap_quad),
                               (_j_band, j_band_quad), (_j_gap, j_gap_quad)):
            assert closed(a, b) == pytest.approx(oracle(a, b), rel=1e-12, abs=0.0)


class TestAbel:
    def test_base_point(self, geom):
        assert abel(geom, geom.b) == 0.0

    def test_left_band_edge_plus(self, geom):
        assert abel(geom, geom.a, side="+") == pytest.approx(0.5, abs=1e-11)
        assert abel(geom, geom.a, side="-") == pytest.approx(-0.5, abs=1e-11)

    def test_two_path_stability(self, geom):
        # straight segment vs a detour through a waypoint must agree
        from mchasy.numerics import quad
        target = 2.0 + 1.5j
        direct = abel(geom, target)
        way = geom.b + 2.5j
        leg1 = abel(geom, way)

        def f(sig):
            z = way + (target - way) * sig
            return (target - way) / _w_sheet1(z, geom.a, geom.b)

        leg2 = complex(quad(f, 0.0, 1.0).value) / (2j * geom.K_band)
        assert abs(direct - (leg1 + leg2)) < 1e-10

    def test_infinity_is_quarter_period(self, geom):
        assert abs(geom.A_inf - (-geom.varkappa / 4)) < 1e-9

    def test_axis_closed_form_matches_quadrature(self, geom):
        a, b = geom.a, geom.b
        for k in (1.01 * b, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4):
            by_quad = -1j * axis_inv_w_quad(a, b, k) / (2 * geom.K_band)
            assert abs(abel(geom, k) - by_quad) < 1e-12

    def test_boundary_ambiguity(self, geom):
        with pytest.raises(BoundaryAmbiguityError):
            abel(geom, 0.5 * (geom.a + geom.b))

    def test_gap_jump_is_full_period(self, geom):
        x = 0.3 * geom.a
        assert abel(geom, x) - abel(geom, x, side="-") == pytest.approx(1.0)

    def test_axis_off_the_tail_matches_mpmath(self, geom):
        a, b = geom.a, geom.b
        kb2 = 2 * geom.K_band
        x = 0.4 * a
        assert abs(abel(geom, x) - (0.5 - 1j * inv_w_mp(a, b, x, a) / kb2)) < 1e-13
        x = 0.3 * a + 0.7 * b
        assert abs(abel(geom, x, side="+") - inv_w_mp(a, b, x, b) / kb2) < 1e-13
        x = -(0.6 * a + 0.4 * b)
        assert abs(abel(geom, x, side="-")
                   - (-0.5 - geom.varkappa / 2 + inv_w_mp(a, b, x, -a) / kb2)) < 1e-13
        x = -3.0 * b
        assert abs(abel(geom, x)
                   - (_k_gap(a, b) - inv_w_mp(a, b, x, -b)) / (1j * kb2)) < 1e-13

    def test_nearly_closed_band(self, geom):
        # a = b(1 - 1e-4): the former quadrature met 0/0 at the segment ends
        # and raised ConvergenceError on the gap, on the cuts and beyond -b
        b = geom.b
        a = b * (1 - 1e-4)
        near = dataclasses.replace(geom, a=a, K_band=_k_band(a, b),
                                   varkappa=periods(a, b, 1.0)[2])
        kb2 = 2 * near.K_band
        x = 0.5 * a
        assert abs(abel(near, x) - (0.5 - 1j * inv_w_mp(a, b, x, a) / kb2)) < 1e-12
        x = 0.5 * (a + b)
        assert abs(abel(near, x, side="+") - inv_w_mp(a, b, x, b) / kb2) < 1e-12
        x = -0.9
        assert abs(abel(near, x)
                   - (_k_gap(a, b) - inv_w_mp(a, b, x, -b)) / (1j * kb2)) < 1e-12

    def test_left_cut_end_exactly(self, geom):
        # at x = -a the left-cut branch integrates over an empty segment;
        # the value continues the gap value 0.5 - varkappa/2
        a = geom.a
        plus = abel(geom, -a, side="+")
        assert plus == pytest.approx(0.5 - geom.varkappa / 2, abs=1e-15)
        assert abel(geom, -a, side="-") == pytest.approx(-0.5 - geom.varkappa / 2, abs=1e-15)
        assert abs(plus - abel(geom, -a * (1 - 1e-12))) < 1e-5


class TestDelta0:
    def test_real_and_affine_in_log_scale(self, geom):
        a, b = geom.a, geom.b
        d1 = delta0(a, b, geom.C_R)
        lam = 7.5
        d2 = delta0(a, b, geom.C_R * lam)
        shift = -math.log(lam) * _k_gap(a, b) / (2 * geom.K_band)
        assert d2 - d1 == pytest.approx(shift, abs=1e-9)

    def test_sign_change_inside(self, geom):
        # choose C_R so log(C_R z^2) changes sign inside (0, a): finite result
        a, b = geom.a, geom.b
        val = delta0(a, b, 4.0 / (a * a))
        assert math.isfinite(val)

    def test_admissibility(self, geom):
        with pytest.raises(AdmissibilityError):
            delta0(geom.a, geom.b, -1.0)

    def test_small_band_limit(self):
        # numerator and normalizer both diverge like |log a|; the ratio
        # tends to pi rather than vanishing
        vals = [delta0(a, 1.0, 0.7) for a in (1e-3, 1e-5)]
        assert abs(vals[1] - math.pi) < abs(vals[0] - math.pi)
        assert abs(vals[1] - math.pi) < 0.2

    @settings(max_examples=15, deadline=None)
    @given(ratio=st.floats(1e-9, 1 - 1e-6), log_c=st.floats(-4.0, 2.0),
           b=st.floats(0.05, 20.0))
    @example(ratio=1e-4, log_c=-1.0, b=math.sqrt(2 / 3))
    @example(ratio=1 - 1e-6, log_c=-1.0, b=math.sqrt(2 / 3))
    def test_closed_form_matches_mpmath(self, ratio, log_c, b):
        # Delta0 = pi/2 - ln(C_R a b) K(m)/K(1-m) crosses zero, so the error
        # is measured against the larger of its two terms
        a, c = ratio * b, 10.0 ** log_c
        const, log_sin = gap_log_moment_mp(a, b, c, 0)
        kb = k_band_mp(a, b)
        ref = float(-(const + log_sin) / kb)
        scale = max(abs(ref), math.pi / 2, abs(ref - math.pi / 2))
        assert abs(delta0(a, b, c) - ref) <= 1e-13 * scale


class TestH:
    def test_jump_on_gap(self, geom):
        k0 = geom.a / 2
        hp = h_eval(geom, k0, side="+")
        hm = h_eval(geom, k0, side="-")
        assert abs(hp - hm - 1j * math.log(geom.C_R * k0 * k0)) < 1e-8

    def test_jump_on_bands(self, geom):
        km = 0.5 * (geom.a + geom.b)
        hp, hm = h_eval(geom, km, side="+"), h_eval(geom, km, side="-")
        assert abs(hp + hm - geom.Delta0) < 1e-8
        hp2 = h_eval(geom, -km, side="+")
        hm2 = h_eval(geom, -km, side="-")
        assert abs(hp2 + hm2 + geom.Delta0) < 1e-8

    def test_decay(self, geom):
        h1 = h1_limit(geom)
        assert abs(h_eval(geom, 1e3)) < 10 * abs(h1) / 1e3

    def test_band_moment_closed_form(self, geom):
        a, b = geom.a, geom.b
        oracle = band_quad(a, b, lambda lo, hi, z: z * z / np.sqrt((z + a) * (z + b)))
        assert _band_z2(a, b) == pytest.approx(oracle, rel=1e-13)

    @settings(max_examples=15, deadline=None)
    @given(ratio=st.floats(1e-9, 1 - 1e-6), log_c=st.floats(-4.0, 2.0),
           b=st.floats(0.05, 20.0))
    @example(ratio=1e-4, log_c=-1.0, b=math.sqrt(2 / 3))
    @example(ratio=1 - 1e-6, log_c=-1.0, b=math.sqrt(2 / 3))
    def test_gap_moment_matches_mpmath(self, ratio, log_c, b):
        # the moment crosses zero as C_R varies; where its two parts cancel
        # the error is measured against their sizes
        a, c = ratio * b, 10.0 ** log_c
        const, log_sin = gap_log_moment_mp(a, b, c, 2)
        ref = float(const + log_sin)
        scale = max(abs(ref), float(abs(const) + abs(log_sin)))
        assert abs(_gap_z2_log_moment(a, b, c) - ref) <= 1e-12 * scale

    def test_h1_limit(self, geom):
        # k*h = h1 + O(1/k^2); moderate k keeps the k^3 amplification of
        # quadrature error below the comparison tolerance
        vals = [complex(k * h_eval(geom, k)).real for k in (50.0, 100.0, 200.0)]
        extrap = (16 * vals[2] - vals[0]) / 15
        assert extrap == pytest.approx(h1_limit(geom), abs=1e-6)

    def test_side_required(self, geom):
        with pytest.raises(BoundaryAmbiguityError):
            h_eval(geom, geom.a / 2)


class TestG:
    def test_jumps(self, geom):
        d = 1e-3 * (geom.b - geom.a)
        km = 0.5 * (geom.a + geom.b)
        gp = sided(lambda z: g_eval(geom, z), km, d)
        gm = sided(lambda z: g_eval(geom, z), km, -d)
        assert abs(gp + gm - geom.B1 / 2) < 1e-8
        gp2 = sided(lambda z: g_eval(geom, z), -km, d)
        gm2 = sided(lambda z: g_eval(geom, z), -km, -d)
        assert abs(gp2 + gm2 + geom.B1 / 2) < 1e-8
        k0 = geom.a / 2
        gp0 = sided(lambda z: g_eval(geom, z), k0, d)
        gm0 = sided(lambda z: g_eval(geom, z), k0, -d)
        assert abs(gp0 - gm0 - geom.A1) < 1e-8

    @pytest.mark.parametrize("side", ["+", "-"])
    @pytest.mark.parametrize("piece", ["outside_left", "left_cut", "gap", "right_cut"])
    def test_exact_sided_match_continuation(self, geom, piece, side):
        # each real piece of g_eval against the continuation from that side;
        # left of -b, off the jump contour, both sides give the one value
        a, b = geom.a, geom.b
        x = {"outside_left": -1.5 * b, "left_cut": -0.5 * (a + b), "gap": 0.5 * a,
             "right_cut": 0.5 * (a + b)}[piece]
        d = 1e-3 * (b - a) * (1.0 if side == "+" else -1.0)
        assert abs(g_eval(geom, x, side=side)
                   - sided(lambda z: g_eval(geom, z), x, d)) < 1e-9

    def test_stationary_at_band_edges(self, geom):
        # g' ~ sqrt(distance to edge) -> 0; one-sided differences from
        # outside the cut at b and from inside the gap at a
        h = 1e-6
        d_b = (g_eval(geom, geom.b + 2 * h) - g_eval(geom, geom.b + h)) / h
        assert abs(d_b) < 1e-2
        d_a = (g_eval(geom, geom.a - h, side="+")
               - g_eval(geom, geom.a - 2 * h, side="+")) / h
        assert abs(d_a) < 1e-2

    def test_matches_cubic_phase_at_infinity(self, geom, params):
        def theta_hat(geom, k):
            return params.p * k - geom.q * k ** 3

        g0 = g0_limit(geom)
        for k in (40.0, 80.0):
            gap = g_eval(geom, k) - theta_hat(geom, k)
            assert abs(gap) < 2 * abs(g0) / k
        k = 160.0
        assert complex(k * (g_eval(geom, k) - theta_hat(geom, k))).real == \
            pytest.approx(g0, rel=1e-2)


class TestNr7:
    def test_identity_at_infinity_with_decay(self, geom):
        devs = []
        for k in (1e3, 1e4):
            M = nr7_matrix(geom, k + 0.5j * k)
            devs.append(np.abs(M - np.eye(2)).max())
        assert devs[0] < 1e-2
        assert devs[1] < 1e-3
        # ~ 1/k decay
        assert devs[0] / devs[1] == pytest.approx(10.0, rel=0.3)

    def test_det_structure(self, geom):
        # det = 1 + c0/k^2 exactly: the gap jump is log-singular at the
        # origin, so the solution has a pole there and Liouville applies
        # only away from it
        c0 = (np.linalg.det(nr7_matrix(geom, 500.0 + 200j)) - 1) * (500 + 200j) ** 2
        for k in (1e3 + 300j, -2e3 + 150j, 4e3 - 800j):
            pred = 1 + c0 / k ** 2
            assert abs(np.linalg.det(nr7_matrix(geom, k)) - pred) < 1e-9

    def test_det_one_far_from_origin(self, geom):
        rng = np.random.default_rng(11)
        for _ in range(10):
            k = rng.uniform(3e4, 1e5) * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
            assert abs(np.linalg.det(nr7_matrix(geom, k)) - 1) < 1e-8

    def test_jump_on_both_bands(self, geom):
        ephi = cmath.exp(1j * geom.tau * geom.B1 / 2 + geom.Delta0)
        V = np.array([[0, ephi], [-1 / ephi, 0]])
        km = 0.5 * (geom.a + geom.b)
        Np = nr7_matrix(geom, km, side="+")
        Nm = nr7_matrix(geom, km, side="-")
        assert np.abs(Np - Nm @ V).max() < 1e-8
        V2 = np.array([[0, 1 / ephi], [-ephi, 0]])
        Np2 = nr7_matrix(geom, -km, side="+")
        Nm2 = nr7_matrix(geom, -km, side="-")
        assert np.abs(Np2 - Nm2 @ V2).max() < 1e-8

    def test_nan_gate_sample_refused(self, gen_data, monkeypatch):
        # NaN compares False with any bound: the gate must refuse it
        real = region3.jacobi_theta

        def theta(s, varkappa, order=0):
            out = real(s, varkappa, order=order)
            if order == (0, 1):
                out[0][..., region3._GATE.start] = math.nan
            return out

        monkeypatch.setattr(region3, "jacobi_theta", theta)
        with pytest.raises(ConventionError, match="nan"):
            u_region3(SpaceTimePoint(XI0 * T0, T0), gen_data)

    def test_coeff_antisymmetry_and_gate(self, geom):
        n1, n2 = nr7_coeffs(geom)
        ks = (2e3, 5e3)
        for k in ks:
            M = nr7_matrix(geom, k)
            assert abs(M[1, 0] + M[0, 1]) < abs(M[0, 1]) * 0.01 + 5e-7

    @pytest.mark.parametrize("field", ["cA", "A_inf"])
    def test_gate_rejects_broken_convention(self, geom, field):
        broken = dataclasses.replace(geom, **{field: -getattr(geom, field)})
        with pytest.raises(ConventionError):
            nr7_coeffs(broken)

    def test_theta_calls_per_point(self, gen_data, monkeypatch):
        # theta(0), the expansion terms and the gate's samples all come from
        # one theta-series call per geometry, read by both the gate and u
        calls = []
        real = region3.jacobi_theta
        monkeypatch.setattr(region3, "jacobi_theta",
                            lambda s, p, order=0: calls.append(s) or real(s, p, order))
        u_region3(SpaceTimePoint(XI0 * T0, T0), gen_data)
        assert len(calls) == 1
        assert np.shape(calls[0]) == (1, 23)

    def test_geometry_is_plain_data(self, geom):
        # the theta pass and the expansion terms are not kept on a geometry
        nr7_coeffs(geom)
        assert vars(geom).keys() == {f.name for f in dataclasses.fields(geom)}

    def test_gate_points_only_tested_by_gate(self, gen_data, geom, monkeypatch):
        # a theta value that vanishes at a gate sample is a pole for the gate:
        # its row is refused with the gate's first sample as the point
        real = region3.jacobi_theta

        def zero_at_gate(s, p, order=0):
            th, dth = real(s, p, order)
            th[..., region3._GATE] = 0.0
            return th, dth

        monkeypatch.setattr(region3, "jacobi_theta", zero_at_gate)
        (row,) = region3._rows([geom])
        assert isinstance(row, PoleOfSolutionError)
        assert row.point == region3._theta_rows([geom])[0][0, region3._GATE.start]
        with pytest.raises(PoleOfSolutionError):
            nr7_coeffs(geom)
        with pytest.raises(PoleOfSolutionError):
            u_region3(SpaceTimePoint(XI0 * T0, T0), gen_data)

    def test_one_vanishing_gate_value_is_named(self, geom, monkeypatch):
        real = region3.jacobi_theta
        last = region3._GATE.stop - 1

        def zero_at_last(s, p, order=0):
            th, dth = real(s, p, order)
            th[..., last] = 0.0
            return th, dth

        monkeypatch.setattr(region3, "jacobi_theta", zero_at_last)
        with pytest.raises(PoleOfSolutionError) as info:
            nr7_coeffs(geom)
        assert info.value.point == region3._theta_rows([geom])[0][0, last]

    def test_expansion_points_tested_without_validation(self, geom, monkeypatch):
        # the expansion terms test their own theta values, not only the gate
        real = region3.jacobi_theta

        def zero_at_expansion(s, p, order=0):
            th, dth = real(s, p, order)
            th[..., region3._EXPANSION] = 0.0
            return th, dth

        monkeypatch.setattr(region3, "jacobi_theta", zero_at_expansion)
        (row,) = region3._rows([geom])
        assert isinstance(row, PoleOfSolutionError)
        assert row.point == region3._theta_rows([geom])[0][0, region3._EXPANSION.start]

    def test_phase_shift_invariance(self, geom):
        shifted = dataclasses.replace(geom, phi=geom.phi + 2 * math.pi)
        n1a, n2a = nr7_coeffs(geom)
        n1b, n2b = nr7_coeffs(shifted)
        assert n1a == pytest.approx(n1b, rel=1e-9)
        assert n2a == pytest.approx(n2b, rel=1e-9)


class TestURegion3:
    def test_region_guard(self, gen_data):
        with pytest.raises(RegionError):
            u_region3(SpaceTimePoint(2e6, 1e6), gen_data)

    def test_nongeneric_rejected(self, family_half):
        pt = SpaceTimePoint(XI0 * T0, T0)
        with pytest.raises(AdmissibilityError):
            u_region3(pt, family_half)

    def test_data_checks_once_per_data(self):
        # |r(+-1)| = 1 and the curvature at 1 depend on the data alone
        data = ScatteringData(ReflectionCoefficient.family(-1.0, 0.0, 0.5))
        kind = type(data.r)
        with mock.patch.object(kind, "curvature_at_one", autospec=True,
                               side_effect=kind.curvature_at_one) as calls:
            for t in (T0, 2 * T0):
                xi = 2 - 3 * CBRT3 * math.log(t) ** (2 / 3) * t ** (-2 / 3)
                u_region3(SpaceTimePoint(xi * t, t), data)
        assert calls.call_count == 1
        nongeneric = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 1.0))
        for _ in range(2):
            with pytest.raises(AdmissibilityError):
                u_region3(SpaceTimePoint(XI0 * T0, T0), nongeneric)

    def test_pq_invariance(self, gen_data):
        pt = SpaceTimePoint(XI0 * T0, T0)
        u11 = u_region3(pt, gen_data, 1.0, 1.0).u
        u32 = u_region3(pt, gen_data, 3.0, 2.0).u
        assert abs(u11 - u32) < 1e-8 * max(1.0, abs(u11 - 1))

    def test_self_convergence(self, gen_data, monkeypatch):
        # the closed forms against the gap quadratures they replaced
        pt = SpaceTimePoint(XI0 * T0, T0)
        u1 = u_region3(pt, gen_data).u
        monkeypatch.setattr(region3, "delta0", delta0_quad)
        monkeypatch.setattr(region3, "_gap_z2_log_moment",
                            lambda a, b, c: gap_log_moment_quad(a, b, c, 2))
        u2 = u_region3(pt, gen_data).u
        assert abs(u1 - u2) < 1e-11

    def test_bounded_oscillation_with_fixed_window(self, gen_data):
        # vary t at a fixed window ratio: phi moves, u stays bounded by the
        # prefactor times the sweep maximum of the modulation bracket
        ratio = 3 * CBRT3
        us, bounds = [], []
        for t in (5e5, 1e6, 2e6, 4e6):
            xi = 2 - ratio * math.log(t) ** (2 / 3) * t ** (-2 / 3)
            res = u_region3(SpaceTimePoint(xi * t, t), gen_data)
            d = res.diagnostics
            pref = (2 - xi) * (d["b"] - d["a"]) / 12
            us.append(abs(res.u - 1))
            bounds.append(pref)
        # the modulation factor is O(1 + 2|h1 + tau g0|); tau ~ log t here
        for u, pref, t in zip(us, bounds, (5e5, 1e6, 2e6, 4e6)):
            tau_bound = 1 + 2 * abs(math.log(t))
            assert u <= 5 * pref * tau_bound

    def test_geometry_diagnostics(self, gen_data):
        pt = SpaceTimePoint(XI0 * T0, T0)
        res = u_region3(pt, gen_data)
        d = res.diagnostics
        assert 0 < d["a"] < d["b"]
        assert d["varkappa"].imag > 0
        assert res.error_order is None
