import math
import random
import sys
import threading
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mchasy import SolutionCache, airy, eval_pii, solve_pii
from mchasy.errors import ConvergenceError, DomainError, RangeError
from mchasy.numerics import _horner_pairs
from mchasy.painleve2 import (_H_MIN, _NODES, _S_MAX, _S_MIN_HARD, _Steps, _Taylor, _airy_data,
                              _as_table, _coeffs_of, _hastings_mcleod, _hm_guess, _shoot,
                              _solve_hastings_mcleod, _taylor_coeffs, _taylor_step, s_min_for)

from conftest import richardson_derivative


def ode_residual(sol, s, h=1e-3):
    vpp = richardson_derivative(lambda x: eval_pii(sol, x)[1], s, h)
    v = eval_pii(sol, s)[0]
    return abs(vpp - s * v - 2 * v ** 3)


def dense(sol, s):
    """(v, v', Q) of a solution on the points s, as (3, len(s))."""
    return np.array([eval_pii(sol, float(x)) for x in s]).T


def dop853(k, s_min=-12.0):
    """Dense (v, v', Q) from DOP853 at rtol 1e-13 (the solver's former
    integrator, kept as an oracle); atol follows the Airy data, so that a
    small k is resolved in relative terms."""
    y0 = np.array(_airy_data(k, _S_MAX))
    sol = solve_ivp(lambda s, y: [y[1], s * y[0] + 2.0 * y[0] ** 3, -y[0] * y[0]],
                    (_S_MAX, s_min), y0, method="DOP853", rtol=1e-13,
                    atol=1e-15 * np.abs(y0), dense_output=True)
    assert sol.success, sol.message
    return sol.sol


# (k, s, v, v', Q) at 30 digits, from mpmath.odefun on the reflected equation
# w(x) = v(-x), w'' = -x w + 2 w^3, with R(x) = Q(-x), R' = w^2 (a run takes
# about 7 s per k, too slow for every test run):
#
#     mp.mp.dps = 30
#     ai, aip = mp.airyai(10), mp.airyai(10, derivative=1)
#     f = mp.odefun(lambda x, y: [y[1], -x * y[0] + 2 * y[0] ** 3, y[0] ** 2],
#                   -10, [k * ai, -k * aip, k * k * (aip ** 2 - 10 * ai ** 2)])
#     w, wp, r = f(-s)          # v(s) = w, v'(s) = -wp, Q(s) = r
MPMATH_ORACLE = [
    (0.999, 4, 0.00095061233493641951, -0.0019566826130985283, 2.1395078646071536e-7),
    (0.999, 0, 0.36666970306531916, -0.29499973747975337, 0.068948937730880231),
    (0.999, -2, 0.97882782292041627, -0.25500679297156742, 1.0632731818465374),
    (0.999, -4, 1.0210025940577604, 0.73726576760722025, 3.6266517180956335),
    (0.999, -8, -0.77103665082587605, 0.96891743840836517, 5.3413538401658776),
    (0.999, -12, -0.37852783683850698, 2.2338864737411588, 6.6891185459784818),
    (0.9995, 4, 0.00095108811693350336, -0.0019576619340300819, 2.1416500501756783e-7),
    (0.9995, 0, 0.36686561761159921, -0.29518589046727936, 0.069020139169455498),
    (0.9995, -2, 0.98110579581262376, -0.25904546462520556, 1.0657034417326029),
    (0.9995, -4, 1.1993574977318572, 0.35759310702261422, 3.8125438699317328),
    (0.9995, -8, -0.49575654437345807, 1.9994978634350581, 5.9037829861328977),
    (0.9995, -12, 0.085154138242227468, 2.7173723137194086, 7.4710744381893158),
    (0.9999, 4, 0.00095146874253122196, -0.0019584453907756537, 2.1433645703962798e-7),
    (0.9999, 0, 0.36702236320900366, -0.29533485749005779, 0.069077129192615908),
    (0.9999, -2, 0.98293363073352595, -0.26229451966534021, 1.0676531694421471),
    (0.9999, -4, 1.3657002931556826, -0.055922809206976471, 3.9849394102367463),
    (0.9999, -8, 0.62179818611487877, 2.1084250773981591, 7.3890351165329507),
    (0.9999, -12, 0.90153863796255461, 0.25902046170753481, 9.1597564014410631),
]


# (s, v, v', Q) of the k = 1 boundary value problem v(s_min) = sqrt(-s_min/2),
# v(10) = Ai(10), Q(10) = Ai'(10)^2 - 10 Ai(10)^2, keyed by s_min: Newton
# multiple shooting with mpmath.odefun on the reflected equation above, unit
# segments back from s = 10 and a finite-difference Jacobian with step
# 10^(-dps/2), until the update is below 10^(8-dps); about 20 s a pass at 40
# digits.  Runs at 30 and 40 digits agree to all 25 digits printed, and the
# table holds their nearest doubles, so the oracle's own error is far below
# the 1e-12 it is used for:
#
#     mp.mp.dps = 40
#     f = lambda x, y: [y[1], -x * y[0] + 2 * y[0] ** 3, y[0] ** 2]
#     nodes = [mp.mpf(10)]
#     while nodes[-1] > s_min:
#         nodes.append(max(nodes[-1] - 1, mp.mpf(s_min)))
#     def shoot(j, v, vp, q=0):  # odefun on segment j from (v, v', Q) at nodes[j]
#         return mp.odefun(f, -nodes[j], [v, -vp, q])
#     # unknowns u = (v, v') at nodes[:-1] but v(10) = Ai(10); the residuals
#     # are the jumps shoot(j, ...)(-nodes[j+1]) - u at the inner nodes and
#     # v - sqrt(-s_min/2) at s_min; Newton from the double-precision solve,
#     # then Q carried from Q(10) through the segments: v(s), v'(s), Q(s) =
#     # w, -w', R of shoot(j, v_j, v'_j, Q_j)(-s)
MPMATH_HM_ORACLE = {
    -10.0: [
        (10.0, 1.1047532552898686e-10, -3.5206336767389247e-10, 1.9006393505261616e-21),
        (7.5, 1.9172560675134332e-07, -5.312713959720565e-07, 6.558984046815633e-15),
        (5.0, 0.00010834442819420452, -0.00024741389127691554, 2.521057855346946e-09),
        (2.5, 0.01572623632006511, -0.026252540999089437, 7.084847245627387e-05),
        (1.0, 0.1356435435044716, -0.16055871475984104, 0.00704140050127936),
        (0.0, 0.3670615515480785, -0.2953721054475501, 0.06909138070892343),
        (-1.5, 0.8435338539145321, -0.2963530348433117, 0.6488466697520575),
        (-3.0, 1.2179531462532598, -0.2102282489816472, 2.293920684139287),
        (-4.5, 1.4978071600808927, -0.16799439762521384, 5.09067890395438),
        (-6.0, 1.7310249588695947, -0.14477828438653417, 9.02094813072162),
        (-7.5, 1.935911400364157, -0.1292956454871339, 14.079212314708501),
        (-9.0, 2.1209579634146856, -0.1179691860048275, 20.26391436550177),
        (-9.7, 2.2020431373266933, -0.11392497529527755, 23.535477887917065),
        (-9.75, 2.2077340102529655, -0.11371335699840018, 23.778554898476806),
        (-10.0, 2.23606797749979, -0.11312252270541293, 25.012796705143238),
    ],
    -10.6: [
        (10.0, 1.1047532552898686e-10, -3.5206336767389237e-10, 1.9006393505261616e-21),
        (7.5, 1.917256067513433e-07, -5.312713959720564e-07, 6.5589840468156304e-15),
        (5.0, 0.0001083444281942045, -0.0002474138912769155, 2.5210578553469452e-09),
        (2.5, 0.015726236320065107, -0.02625254099908943, 7.084847245627385e-05),
        (1.0, 0.1356435435044716, -0.16055871475984101, 0.007041400501279357),
        (0.0, 0.36706155154807846, -0.29537210544755005, 0.0690913807089234),
        (-1.5, 0.8435338539145318, -0.29635303484331127, 0.6488466697520572),
        (-3.0, 1.217953146253254, -0.21022824898163395, 2.2939206841392807),
        (-4.5, 1.4978071600805916, -0.16799439762433063, 5.090678903954072),
        (-6.0, 1.7310249588339568, -0.14477828426473263, 9.020948130685476),
        (-7.5, 1.935911392090032, -0.12929561373888507, 14.079212306354709),
        (-9.0, 2.1209544812810917, -0.11795451491078368, 20.26391085860964),
        (-9.75, 2.2076463086834917, -0.113328432937972, 23.778466649490262),
        (-10.0, 2.2358033419398624, -0.11194589995972899, 25.01253048404396),
        (-10.299999999999999, 2.269162448362201, -0.11050662157770333, 26.534710900200036),
        (-10.6, 2.3021728866442674, -0.1097614439069367, 28.102047574568534),
    ],
    -11.25: [
        (10.0, 1.1047532552898686e-10, -3.5206336767389237e-10, 1.9006393505261616e-21),
        (7.5, 1.917256067513433e-07, -5.312713959720564e-07, 6.5589840468156304e-15),
        (5.0, 0.0001083444281942045, -0.0002474138912769155, 2.5210578553469452e-09),
        (2.5, 0.015726236320065107, -0.02625254099908943, 7.084847245627385e-05),
        (1.0, 0.13564354350447158, -0.16055871475984101, 0.007041400501279357),
        (0.0, 0.3670615515480784, -0.29537210544755005, 0.0690913807089234),
        (-1.5, 0.8435338539145317, -0.2963530348433112, 0.6488466697520572),
        (-3.0, 1.2179531462532538, -0.21022824898163317, 2.2939206841392807),
        (-4.5, 1.497807160080574, -0.1679943976242789, 5.090678903954054),
        (-6.0, 1.73102495883187, -0.1447782842576006, 9.020948130683358),
        (-7.5, 1.9359113916055435, -0.12929561187987734, 14.079212305865555),
        (-9.0, 2.1209542773861445, -0.1179536558514662, 20.26391065326497),
        (-9.75, 2.2076411734590775, -0.11330589480804192, 23.778461482212034),
        (-10.0, 2.235787847290137, -0.11187701200702337, 25.012514896553544),
        (-10.95, 2.3396994134927604, -0.10713300782474314, 29.98710183067409),
        (-11.25, 2.3717082451262845, -0.10644193043997296, 31.65195488455579),
    ],
    -12.0: [
        (10.0, 1.1047532552898686e-10, -3.5206336767389237e-10, 1.9006393505261616e-21),
        (7.5, 1.917256067513433e-07, -5.312713959720564e-07, 6.5589840468156304e-15),
        (5.0, 0.0001083444281942045, -0.0002474138912769155, 2.5210578553469452e-09),
        (2.5, 0.015726236320065107, -0.02625254099908943, 7.084847245627385e-05),
        (1.0, 0.13564354350447158, -0.16055871475984101, 0.007041400501279357),
        (0.0, 0.3670615515480784, -0.29537210544755005, 0.0690913807089234),
        (-1.5, 0.8435338539145317, -0.2963530348433112, 0.6488466697520572),
        (-3.0, 1.2179531462532538, -0.21022824898163311, 2.2939206841392807),
        (-4.5, 1.4978071600805731, -0.1679943976242767, 5.090678903954053),
        (-6.0, 1.7310249588317808, -0.14477828425729583, 9.020948130683268),
        (-7.5, 1.9359113915848414, -0.1292956118004421, 14.079212305844653),
        (-9.0, 2.1209542686737333, -0.11795361914394698, 20.26391064449061),
        (-9.75, 2.2076409540316995, -0.11330493175827196, 23.778461261415),
        (-10.0, 2.235787185207677, -0.11187406845300435, 25.01251423050401),
        (-11.7, 2.4185295228968857, -0.10360275679794545, 34.2332330200671),
        (-12.0, 2.449489742783178, -0.10296577054138609, 36.01060194990318),
    ],
}


class TestSolve:
    def test_zero_multiplier(self):
        sol = solve_pii(0.0)
        for s in (-3.0, 0.0, 5.0):
            assert eval_pii(sol, s) == (0.0, 0.0, 0.0)

    def test_airy_matching_regime(self, cache):
        sol = cache.get(0.5)
        v = eval_pii(sol, 6.0)[0]
        assert abs(v - 0.5 * airy(6.0)[0]) < 1e-6 * abs(0.5 * airy(6.0)[0])

    def test_boundary_data(self, cache):
        sol = cache.get(0.5)
        v, vp, q = eval_pii(sol, _S_MAX)
        ai, aip = airy(_S_MAX)
        assert v == pytest.approx(0.5 * ai, rel=1e-12)
        assert vp == pytest.approx(0.5 * aip, rel=1e-12)
        assert q == pytest.approx(0.25 * (aip ** 2 - _S_MAX * ai ** 2), rel=1e-10)

    def test_hastings_mcleod_cross_check(self, cache):
        # a second solve with its left condition at -12, not -10: v(0) is
        # 0.3670615515480785 at both in MPMATH_HM_ORACLE
        v0 = eval_pii(cache.get(1.0), 0.0)[0]
        deeper = solve_pii(1.0, -12.0)
        assert abs(v0 - eval_pii(deeper, 0.0)[0]) < 1e-6
        # separatrix grows like sqrt(-s/2) on the left
        vm8 = eval_pii(cache.get(1.0), -8.0)[0]
        assert vm8 == pytest.approx(math.sqrt(4.0), rel=2e-3)

    def test_out_of_family(self):
        for k in (1.5, math.nan):
            with pytest.raises(DomainError):
                solve_pii(k)
            with pytest.raises(DomainError):
                SolutionCache().get(k)

    def test_residual_suite(self, cache):
        for k in (0.3, 0.7, 0.99, 1.0):
            sol = cache.get(k)
            for s in np.linspace(-8, 8, 17):
                assert ode_residual(sol, float(s)) < 1e-8

    def test_q_is_tail_integral(self, cache):
        sol = cache.get(0.5)
        for s in (-6.0, -1.0, 2.0):
            dq = richardson_derivative(lambda x: eval_pii(sol, x)[2], s, h=1e-3)
            v = eval_pii(sol, s)[0]
            assert abs(dq + v * v) < 1e-8


class TestHastingsMcLeod:
    """The |k| = 1 boundary value problem, solved by Newton multiple shooting
    on the Taylor steps."""

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_matches_mpmath_oracle(self, k):
        for s_min in MPMATH_HM_ORACLE:
            sol = solve_pii(k, s_min=s_min)
            assert sol.kind == "bvp"
            rows = np.array(MPMATH_HM_ORACLE[s_min])
            ref = rows[:, 1:] * [k, k, 1.0]
            got = np.array([eval_pii(sol, s) for s in rows[:, 0]])
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("s_min", [-10.0, -11.25, -12.0])
    def test_negative_branch_is_exact_negation(self, s_min):
        pos, neg = solve_pii(1.0, s_min), solve_pii(-1.0, s_min)
        assert neg.kind == "bvp" and neg.err_est == pos.err_est == 1e-10
        for s in np.linspace(s_min, 12.0, 97):
            v, vp, q = eval_pii(pos, s)
            assert eval_pii(neg, s) == (-v, -vp, q)

    @pytest.mark.parametrize("s_min", [-10.0, -10.6, -12.0])
    def test_boundary_conditions_hold(self, s_min):
        sol = solve_pii(1.0, s_min)
        ai, _aip, q = _airy_data(1.0, _S_MAX)
        v, _vp, q_got = eval_pii(sol, _S_MAX)
        assert v == ai
        # Q is the Hamiltonian of the solved (v, v'), not a boundary value:
        # v'^2 - S v^2 cancels to 1/65 of its terms at S = 10
        assert abs(q_got - q) <= sol.err_est * q
        assert eval_pii(sol, s_min)[0] == pytest.approx(math.sqrt(-s_min / 2.0), rel=1e-13, abs=0)

    def test_continuous_across_step_joints(self):
        # the node jumps are rounding errors, grown by up to e^5 over a
        # segment near s = -12
        sol = solve_pii(1.0, -12.0)
        steps = sol._dense
        ends = [-e for e in steps.neg_ends]
        scale = np.abs(dense(sol, np.linspace(-12.0, 10.0, 441))[:2]).max(axis=1)
        for i, e in enumerate(ends[1:-1]):
            left = np.polyval(np.array(steps.rows[i]), e - ends[i])
            right = np.polyval(np.array(steps.rows[i + 1]), 0.0)
            assert np.all(np.abs(left - right) <= 1e-12 * scale)

    def test_one_solve_serves_both_signs(self):
        with mock.patch("mchasy.painleve2._solve_hastings_mcleod",
                        wraps=_solve_hastings_mcleod) as shoot:
            pos, neg = solve_pii(1.0, -10.45), solve_pii(-1.0, -10.45)
        assert shoot.call_count == 1
        assert neg._dense is pos._dense is _hastings_mcleod(-10.45)
        assert eval_pii(neg, -3.0)[0] == -eval_pii(pos, -3.0)[0]

    def test_step_failure_raises(self):
        # a step shrunk below the floor inside a segment, as by a pole near
        # the axis; the failure is not memoized
        with mock.patch("mchasy.painleve2._step_size", return_value=0.0):
            with pytest.raises(ConvergenceError, match="pole"):
                solve_pii(1.0, -10.35)
        assert solve_pii(1.0, -10.35).kind == "bvp"

    def test_newton_iterations_are_bounded(self):
        with mock.patch("mchasy.painleve2._NEWTON_MAX", 2):
            with pytest.raises(ConvergenceError, match="2 Newton iterations"):
                _solve_hastings_mcleod(-10.0)

    def test_jumps_above_the_estimate_raise(self):
        # the final pass checks the joints of the converged steps against
        # the error estimate
        with mock.patch("mchasy.painleve2._HM_ERR", 1e-16), \
                pytest.raises(ConvergenceError, match="jumps"):
            _solve_hastings_mcleod(-10.0)


class TestCache:
    @settings(max_examples=12, deadline=None)
    @given(st.floats(-0.999, 0.999), st.floats(-12.0, -10.0))
    def test_nested_lookup_matches_fresh_solve(self, k, s_min):
        cache = SolutionCache()
        got = cache.get(k, s_min)
        assert got.s_min == s_min and got.kind == "ivp"
        s = np.linspace(s_min, _S_MAX, 801)
        # the same steps, whether the lookups or the solve take them
        assert np.array_equal(dense(got, s), dense(solve_pii(k, s_min), s))

    def test_one_solve_serves_every_s_min(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2._Taylor", wraps=_Taylor) as taylor:
            sols = [cache.get(0.5, s_min) for s_min in (-10.0, -11.25, -12.0, -10.0)]
        # one dense output, shared by every s_min
        assert taylor.call_count == 1
        assert len({id(sol._dense) for sol in sols}) == 1
        assert sols[0] is sols[3]
        assert [sol.s_min for sol in sols] == [-10.0, -11.25, -12.0, -10.0]
        with pytest.raises(RangeError):
            eval_pii(sols[1], -11.5)
        assert eval_pii(sols[1], -11.25) == eval_pii(sols[2], -11.25)

    def test_bvp_solved_per_s_min(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2.solve_pii", wraps=solve_pii) as solve:
            cache.get(1.0, -10.0)
            cache.get(1.0, -11.0)
        assert solve.call_count == 2


    def test_hastings_mcleod_memo_shared(self):
        first = SolutionCache().get(-1.0, -10.0)
        with mock.patch("mchasy.painleve2._solve_hastings_mcleod") as shoot:
            again = SolutionCache().get(-1.0, -10.0)
        shoot.assert_not_called()
        assert again is not first and again._dense is first._dense
        assert eval_pii(again, -3.0) == eval_pii(first, -3.0)

    def test_every_ablowitz_segur_k_nests(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2.solve_pii", wraps=solve_pii) as solve, \
                mock.patch("mchasy.painleve2._Taylor", wraps=_Taylor) as taylor:
            for s_min in (-10.0, -11.0):
                assert cache.get(0.9999, s_min).kind == "ivp"
                assert cache.get(1.0 - 1e-13, s_min).kind == "bvp"
        # one dense output for 0.9999, one BVP solve per s_min at the edge
        assert taylor.call_count == 1
        assert solve.call_count == 2

    def test_refused_k_makes_no_dense_output(self):
        # the estimate is refused before any steps are asked for, so a
        # refused |k| neither builds a dense output nor keeps one
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2._Taylor", wraps=_Taylor) as taylor:
            for k in (0.999995, -0.999995, 0.999996):
                for solve in (cache.get, solve_pii):
                    with pytest.raises(ConvergenceError):
                        solve(k)
        assert taylor.call_count == 0
        assert not cache._taylors and not cache._store

    def test_both_signs_share_one_integration(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2._Taylor", wraps=_Taylor) as taylor:
            pos, neg = cache.get(0.5, -11.0), cache.get(-0.5)
        assert taylor.call_count == 1
        assert neg._dense is pos._dense
        assert (pos.k, neg.k, neg.s_min) == (0.5, -0.5, -10.0)
        assert neg.err_est == pos.err_est
        for s in (-10.0, -3.0, 0.0, 9.0, 12.0):
            v, vp, q = eval_pii(pos, s)
            assert eval_pii(neg, s) == (-v, -vp, q)


class TestNegation:
    """v'' = sv + 2v^3 is odd in v: k < 0 is read off the steps of |k|."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.999, 0.999),
           st.lists(st.floats(-12.0, 10.0), min_size=1, max_size=8))
    @example(0.0, [-12.0, 0.0, 10.0])
    @example(1e-300, [-12.0, 0.0, 10.0])
    def test_negative_k_is_the_exact_negation(self, k, ss):
        pos, neg = solve_pii(k, -12.0), solve_pii(-k, -12.0)
        assert neg.k == -k and neg._dense is not pos._dense
        # a separate dense output of -k, from its own Airy data, reads the
        # negated rows, so reading those of |k| changes no bit
        direct = _Taylor(-k)
        for s in ss:
            v, vp, q = eval_pii(pos, s)
            assert eval_pii(neg, s) == (-v, -vp, q)
            assert direct.at(s) == (-v, -vp, q)

    @pytest.mark.parametrize("k", [0.3, 0.9, 0.999, 0.99998])
    def test_negative_k_matches_an_independent_integration(self, k):
        # v -> -v against a solve that shares neither the negation, nor the
        # Airy data, nor the table: DOP853 from -k (Ai, Ai')(10) as mpmath
        # gives them, over the whole table
        y0 = -k * np.array([float(mp.airyai(10)), float(mp.airyai(10, derivative=1))])
        s = np.linspace(-12.0, 10.0, 221)
        ref = solve_ivp(lambda x, y: [y[1], x * y[0] + 2.0 * y[0] ** 3], (10.0, -12.0), y0,
                        method="DOP853", rtol=1e-13, atol=1e-15 * np.abs(y0),
                        dense_output=True).sol(s)
        sol = solve_pii(-k, -12.0)
        rel = np.abs(dense(sol, s)[:2] - ref).sum(axis=0) / np.abs(ref).sum(axis=0)
        assert rel.max() <= sol.err_est


class TestStepper:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(-0.9999, 0.9999).filter(lambda k: abs(k) >= 1e-100))
    def test_matches_dop853(self, k):
        # |k| below 1e-100 is covered by test_tiny_k_keeps_relative_accuracy
        sol = solve_pii(k, -12.0)
        s = np.linspace(-12.0, 10.0, 441)
        ref = dop853(k)(s)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        tol = max(1e-10, 1e-11 / (1.0 - abs(k)))
        assert np.all(np.abs(dense(sol, s) - ref) <= tol * scale)
        assert sol.err_est == pytest.approx(1e-11 / (1.0 - abs(k)))

    @pytest.mark.parametrize("k", [0.999, 0.9995, 0.9999])
    def test_mpmath_oracle(self, k):
        sol = solve_pii(k, -12.0)
        rows = np.array([row[1:] for row in MPMATH_ORACLE if row[0] == k])
        got = np.array([eval_pii(sol, s) for s in rows[:, 0]])
        scale = np.abs(rows[:, 1:]).max(axis=0)
        assert np.all(np.abs(got - rows[:, 1:]) <= sol.err_est * scale)

    @pytest.mark.parametrize("k", [1e-25, 1e-40])
    def test_tiny_k_keeps_relative_accuracy(self, k):
        s = np.linspace(-12.0, 10.0, 441)
        ref = dense(solve_pii(1e-8, -12.0), s) / np.array([[1e-8], [1e-8], [1e-16]])
        got = dense(solve_pii(k, -12.0), s) / np.array([[k], [k], [k * k]])
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-10 * scale)

    @pytest.mark.parametrize("k", [0.5, -0.99])
    def test_continuous_across_step_joints(self, k):
        sol = solve_pii(k, -12.0)
        steps = sol._dense
        ends = [-e for e in steps.neg_ends]     # _S_MAX first, down to -12
        joints = ends[1:-1]
        scale = np.abs(dense(sol, np.linspace(-12.0, 10.0, 441))).max(axis=1)
        for i, e in enumerate(joints):
            # a Taylor step is centered on its right end: step i ends at
            # joint e, and step i+1 starts there with offset 0; a row holds
            # (v, v') pairs
            vals = [np.polyval(np.array(steps.row(j)), e - ends[j]) for j in (i, i + 1)]
            assert np.all(np.abs(vals[0] - vals[1]) <= 1e-14 * scale[:2])
        near = np.add.outer(joints, [-1e-9, 1e-9]).ravel()
        assert np.all(np.abs(dense(sol, near) - dense(sol, np.repeat(joints, 2)))
                      <= 1e-8 * scale[:, None])

    def test_exact_at_both_ends(self):
        # the steps start on the Airy data at _S_MAX, and the last one is
        # clipped to land on -12
        full = solve_pii(0.5, -12.0)
        assert full._dense.neg_ends[-1] == 12.0
        assert eval_pii(full, 10.0) == tuple(float(x) for x in _airy_data(0.5, 10.0))
        # every s_min reads the same steps
        sol = solve_pii(0.5, -11.25)
        assert sol._dense.neg_ends == full._dense.neg_ends
        assert eval_pii(sol, 10.0) == eval_pii(full, 10.0)
        nested = SolutionCache().get(0.5, -11.25)
        assert eval_pii(nested, -11.25) == eval_pii(sol, -11.25) == eval_pii(full, -11.25)
        assert eval_pii(nested, 10.0) == eval_pii(sol, 10.0)
        with pytest.raises(RangeError):
            eval_pii(nested, math.nextafter(-11.25, -math.inf))

    def test_near_hastings_mcleod_raises(self):
        # estimated error 1e-11/(1-|k|) above 1e-6 is refused, not returned
        with pytest.raises(ConvergenceError) as exc:
            solve_pii(-0.999999)
        assert exc.value.estimate_error == pytest.approx(1e-5)
        assert solve_pii(0.99998).kind == "ivp"
        assert solve_pii(1.0 - 1e-13).kind == "bvp"
        # the edge: 1 - 0.99999 rounds below 1e-5, so k = 0.99999 itself is
        # refused, and its message shows the estimate above the limit
        with pytest.raises(ConvergenceError) as exc:
            solve_pii(0.99999)
        assert exc.value.estimate_error > 1e-6
        assert repr(exc.value.estimate_error) in str(exc.value)
        assert solve_pii(0.999989999).err_est < 1e-6

    def test_pole_stops_integration(self):
        # beyond |k| = 1 the solution has a pole on the real axis, and the
        # k = 1 initial value problem one near s = -11.8
        with pytest.raises(ConvergenceError, match="pole"):
            airy_steps(1.5, -12.0)
        with pytest.raises(ConvergenceError, match="pole"):
            _shoot(_S_MAX, -12.0, _airy_data(1.0, _S_MAX)[:2], _Steps())


def airy_steps(k, s_end):
    """(v, v') of the solution k on the Taylor steps from its own Airy data
    at ``_S_MAX`` down to s_end, without the table."""
    steps = _Steps()
    state, s0 = _airy_data(k, _S_MAX)[:2], _S_MAX
    while s0 > s_end:
        row, s1, _b = _taylor_step(k, s0, state, s_end)
        state = _horner_pairs(row, s1 - s0)
        steps.rows.append(row)
        steps.neg_ends.append(-s1)
        s0 = s1
    return steps


class TestTable:
    """Every Ablowitz-Segur solution reads its steps on [-12, 10] from one
    table in d^2 = -ln(1-k^2)/pi."""

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-(1.0 - 1e-5), 1.0 - 1e-5).filter(lambda k: abs(k) >= 1e-100))
    @example(0.0)
    @example(1e-40)
    @example(0.99998)
    @example(1.0 - 1e-5)
    def test_matches_the_steps_from_the_airy_data(self, k):
        # |k| below 1e-100 is covered by test_tiny_k_keeps_relative_accuracy
        ref = airy_steps(k, -12.0)
        table = _Taylor(k)
        for s in np.linspace(0.0, 10.0, 201):
            want, got = np.array(ref.at(s)[:2]), np.array(table.at(s)[:2])
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).sum())
            if k == 0.0:
                assert all(math.copysign(1.0, x) == 1.0 for x in got)
        # the error estimate of the solution, which solve_pii refuses for
        # |k| = 1 - 1e-5 by the rounding of 1 - |k|
        err = 1e-11 / (1.0 - abs(k))
        s = np.linspace(-12.0, 0.0, 241)
        want = np.array([ref.at(x) for x in s]).T
        got = np.array([table.at(x) for x in s]).T
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= err * scale)

    def test_every_solution_starts_on_the_table_ends(self):
        _x, _weights, table, neg_ends = _as_table()
        assert len(table) == len(neg_ends) - 1
        assert (neg_ends[0], neg_ends[-1]) == (-_S_MAX, -_S_MIN_HARD)
        # each step but the clipped last is longer than _taylor_step allows
        assert min(np.diff(neg_ends)[:-1]) >= _H_MIN
        for steps in (solve_pii(0.5)._dense, SolutionCache().get(-0.25)._dense):
            assert steps.neg_ends == neg_ends and len(steps.rows) == len(table)

    def test_node_coefficients_match_the_scalar_recursion(self):
        # the batch recursion sums in another order than _taylor_coeffs, so
        # they agree to rounding, relative to the largest term of each order
        rng = np.random.default_rng(7)
        for s0 in (10.0, 0.3, -11.9):
            a, fill = _coeffs_of(_NODES)
            a[:2] = rng.uniform(-2.0, 2.0, (2, _NODES))
            fill(s0)
            want = np.array([_taylor_coeffs(s0, v, vp)[0] for v, vp in a[:2].T.tolist()]).T
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(a - want) <= 1e-14 * scale)

    def test_hastings_mcleod_guess_is_the_k_1_steps(self):
        # k = 1 is d^2 = inf, outside the table: its guess on [0, 10] is the
        # steps from its own Airy data, taken once
        guess = _hm_guess()
        assert guess is _hm_guess()
        ref = airy_steps(1.0, 0.0)
        assert guess.rows == ref.rows and guess.neg_ends == ref.neg_ends


class TestOnDemand:
    """Ablowitz-Segur rows are made as lookups first reach them, and give
    the values of the eager solve."""

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-0.999, 0.999),
           st.lists(st.floats(-12.0, 10.0), min_size=1, max_size=8))
    def test_any_lookup_order_matches_eager_solve(self, k, ss):
        eager = solve_pii(k, -12.0)
        cache = SolutionCache()
        for s in ss:
            assert eval_pii(cache.get(k, s_min_for(s)), s) == eval_pii(eager, s)

    def test_lookups_take_no_taylor_step(self):
        # the table is built once per process, whichever lookup comes first:
        # built here, it is not counted as any solution's steps
        _as_table()
        with mock.patch("mchasy.painleve2._taylor_coeffs", wraps=_taylor_coeffs) as coeffs, \
                mock.patch("mchasy.painleve2._coeffs_of", wraps=_coeffs_of) as batch:
            cache = SolutionCache()
            for k in (0.5, -0.25, 0.99998):
                for s in (10.0, 4.5, 0.0, -4.0, -11.0, -12.0):
                    eval_pii(cache.get(k, s_min_for(s)), s)
                eval_pii(solve_pii(k, -12.0), -12.0)
        assert coeffs.call_count == batch.call_count == 0
        # a row is made when a lookup first reaches it
        sol = cache.get(0.125)
        assert all(row is None for row in sol._dense.rows)
        eval_pii(sol, -4.0)
        assert sum(row is not None for row in sol._dense.rows) == 1

    def test_threads_share_one_integration(self):
        ks = (0.3, -0.7, 0.95)
        grid = [float(s) for s in np.linspace(-12.0, 10.0, 45)]
        eager = {k: solve_pii(k, -12.0) for k in ks}
        cache = SolutionCache()
        start = threading.Barrier(4, timeout=30)
        results, errors = {}, []

        def lookups(seed):
            order = [(k, s) for k in ks for s in grid]
            random.Random(seed).shuffle(order)
            try:
                start.wait()
                results[seed] = [(k, s, eval_pii(cache.get(k, s_min_for(s)), s))
                                 for k, s in order]
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 4
        for rows in results.values():
            for k, s, got in rows:
                assert got == eval_pii(eager[k], s)
        # one dense output per |k|, whose rows the threads made are those
        # made alone
        for k in ks:
            steps = cache.get(k, -12.0)._dense
            assert steps is cache.get(-k)._dense
            made = [i for i, row in enumerate(steps.rows) if row is not None]
            assert len(made) > 10
            assert all(steps.rows[i] == eager[k]._dense.row(i) for i in made)


class TestEval:
    def test_range_error(self, cache):
        for s in (-11.0, math.nan):
            with pytest.raises(RangeError):
                eval_pii(cache.get(0.5), s)
        # an s_min below -12, or NaN, is refused before any step or shooting
        for k in (0.5, 1.0):
            for s_min in (-12.5, math.nan):
                with pytest.raises(RangeError):
                    solve_pii(k, s_min=s_min)

    def test_airy_extension_beyond_domain(self, cache):
        sol = cache.get(0.5)
        v, vp, q = eval_pii(sol, 12.0)
        ai, aip = airy(12.0)
        assert v == pytest.approx(0.5 * ai, rel=1e-10)
        assert vp == pytest.approx(0.5 * aip, rel=1e-10)
        # past s = 30, |k Ai(s)| < 4e-49: the solution reads as 0
        for s in (30.5, 60.0):
            assert eval_pii(sol, s) == (0.0, 0.0, 0.0)


class TestParametrix:
    """Identities of (v, v', Q), the entries of the Painleve II parametrix."""

    def test_zero_solution(self):
        assert eval_pii(solve_pii(0.0), -2.0) == (0.0, 0.0, 0.0)

    def test_m1_derivative_identity(self, cache):
        # Q' = -v^2: the derivative identity of the diagonal entry -iQ/2 of M1
        for k in (0.3, 0.9):
            sol = cache.get(k)
            for s in np.linspace(-5, 5, 9):
                d = richardson_derivative(lambda x: eval_pii(sol, x)[2], float(s), h=1e-3)
                v = eval_pii(sol, float(s))[0]
                assert abs(d + v * v) < 2e-7

    def test_hamiltonian_identity(self, cache):
        # H = v'^2 - s v^2 - v^4 obeys dH/ds = -v^2 along solutions
        sol = cache.get(0.7)

        def ham(s):
            v, vp, _ = eval_pii(sol, s)
            return vp * vp - s * v * v - v ** 4

        for s in np.linspace(-6, 4, 11):
            d = richardson_derivative(ham, float(s), h=1e-3)
            v = eval_pii(sol, float(s))[0]
            assert abs(d + v * v) < 1e-6

    @staticmethod
    def rounding(s, v, vp):
        """A few units in the last place of the largest term of
        v'^2 - (s + v^2) v^2, the rounding of Q and of the (v, v') it is
        formed from, and of v^2 in the subnormal range (|k| below 1e-150)."""
        return 4.0 * sys.float_info.epsilon * (vp * vp + (abs(s) + v * v) * v * v) \
            + (abs(s) + 4.0) * math.ulp(0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.floats(-0.999, 0.999), st.sampled_from([1.0, -1.0])),
           st.lists(st.floats(-12.0, 10.0), min_size=1, max_size=10))
    @example(1e-40, [9.5, 9.99, 10.0])      # v'^2 - s v^2 cancels to 1/65 at s = 10
    @example(1.0, [-12.0, -11.0, 10.0])
    def test_q_nonnegative_and_nonincreasing(self, k, ss):
        # Q is the tail integral of v^2.  With the next float above each s,
        # a step end (as s = -11 is for k = 1) is compared across its joint
        sol = solve_pii(k, -12.0)
        pts = sorted({x for s in ss for x in (s, min(math.nextafter(s, 11.0), 10.0))})
        vals = [(s, *eval_pii(sol, s)) for s in pts]
        for s, v, vp, q in vals:
            assert q >= -self.rounding(s, v, vp)
        for (s1, v1, vp1, q1), (s2, v2, vp2, q2) in zip(vals, vals[1:]):
            assert q2 <= q1 + self.rounding(s1, v1, vp1) + self.rounding(s2, v2, vp2)

    def test_continuation_monotone(self, cache):
        vals = [eval_pii(cache.get(k), 0.0)[0]
                for k in (0.0, 0.3, 0.6, 0.9, 0.99)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
