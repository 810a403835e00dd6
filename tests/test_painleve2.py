import math
import random
import sys
import threading
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp, solve_ivp

from mchasy import SolutionCache, airy, eval_pii, solve_pii
from mchasy.errors import ConvergenceError, DomainError, RangeError
from mchasy.painleve2 import (_Taylor, _airy_data, _horner, _rhs, _step_size,
                              _taylor_coeffs, s_min_for)

from conftest import richardson_derivative


def ode_residual(sol, s, h=1e-3):
    vpp = richardson_derivative(lambda x: eval_pii(sol, x)[1], s, h)
    v = eval_pii(sol, s)[0]
    return abs(vpp - s * v - 2 * v ** 3)


def continuation_bvp(k, s_min, s_max=10.0, tol=1e-10):
    """Dense (v, v', Q) of the Hastings-McLeod BVP solved with continuation in
    k: first at 0.95|k| from the solver's guess, then at |k| from that
    solution (the solver's former method, kept as a reference)."""
    sgn = math.copysign(1.0, k)
    ai_r = airy(s_max)[0]
    mesh = np.linspace(s_min, s_max, 801)
    s_pos = np.maximum(mesh, 0.0)
    ai, aip = airy(s_pos)
    guess = np.zeros((3, mesh.size))
    guess[0] = sgn * (np.sqrt(np.maximum(-mesh, 0.0) / 2.0)
                      + np.where(mesh >= 0, abs(k) * ai, 0.0))
    guess[1] = np.gradient(guess[0], mesh)
    guess[2] = k * k * (aip * aip - s_pos * ai * ai)
    for k_step in (0.95 * abs(k), abs(k)):
        ks = sgn * k_step
        ai_s, aip_s = airy(s_max)
        q_right = ks * ks * (aip_s * aip_s - s_max * ai_s * ai_s)

        def bc(ya, yb, ks=ks, q_right=q_right):
            return np.array([ya[0] - sgn * math.sqrt(-s_min / 2.0),
                             yb[0] - ks * ai_r, yb[2] - q_right])

        sol = solve_bvp(_rhs, bc, mesh, guess, tol=min(tol, 1e-10), max_nodes=200000)
        assert sol.status == 0, sol.message
        mesh, guess = sol.x, sol.y
    return sol.sol


def dense(sol, s):
    """(v, v', Q) of a solution's dense output on the points s, as (3, len(s))."""
    return np.array([sol._dense.at(float(x)) for x in s]).T


def dop853(k, s_min=-12.0, s_max=10.0):
    """Dense (v, v', Q) from DOP853 at rtol 1e-13 (the solver's former
    integrator, kept as an oracle); atol follows the Airy data, so that a
    small k is resolved in relative terms."""
    y0 = np.array(_airy_data(k, s_max))
    sol = solve_ivp(lambda s, y: [y[1], s * y[0] + 2.0 * y[0] ** 3, -y[0] * y[0]],
                    (s_max, s_min), y0, method="DOP853", rtol=1e-13,
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
        v, vp, q = eval_pii(sol, sol.s_max)
        ai, aip = airy(sol.s_max)
        assert v == pytest.approx(0.5 * ai, rel=1e-12)
        assert vp == pytest.approx(0.5 * aip, rel=1e-12)
        assert q == pytest.approx(0.25 * (aip ** 2 - sol.s_max * ai ** 2), rel=1e-10)

    def test_hastings_mcleod_cross_check(self, cache):
        v0 = eval_pii(cache.get(1.0), 0.0)[0]
        finer = solve_pii(1.0, tol=5e-11)
        assert abs(v0 - eval_pii(finer, 0.0)[0]) < 1e-6
        # separatrix grows like sqrt(-s/2) on the left
        vm8 = eval_pii(cache.get(1.0), -8.0)[0]
        assert vm8 == pytest.approx(math.sqrt(4.0), rel=2e-3)

    def test_out_of_family(self):
        with pytest.raises(DomainError):
            solve_pii(1.5)

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


    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_single_step_bvp_matches_continuation(self, k):
        for s_min in (-10.0, -10.6, -11.25, -12.0):
            sol = solve_pii(k, s_min=s_min)
            assert sol.kind == "bvp"
            s = np.linspace(s_min, sol.s_max, 1001)
            ref = continuation_bvp(k, s_min)(s)
            got = dense(sol, s)
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)


class TestCache:
    @settings(max_examples=12, deadline=None)
    @given(st.floats(-0.999, 0.999), st.floats(-12.0, -10.0))
    def test_nested_lookup_matches_fresh_solve(self, k, s_min):
        cache = SolutionCache()
        got = cache.get(k, s_min)
        assert got.s_min == s_min and got.kind == "ivp"
        s = np.linspace(s_min, got.s_max, 801)
        # the same steps, whether the lookups or the solve take them
        assert np.array_equal(dense(got, s), dense(solve_pii(k, s_min), s))

    def test_one_solve_serves_every_s_min(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2._Taylor", wraps=_Taylor) as taylor:
            sols = [cache.get(0.5, s_min) for s_min in (-10.0, -11.25, -12.0, -10.0)]
        # one integration, shared by every s_min
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
        with mock.patch("scipy.integrate.solve_bvp") as bvp:
            again = SolutionCache().get(-1.0, -10.0)
        bvp.assert_not_called()
        assert again is not first and again._dense is first._dense
        assert eval_pii(again, -3.0) == eval_pii(first, -3.0)

    def test_every_ablowitz_segur_k_nests(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2.solve_pii", wraps=solve_pii) as solve, \
                mock.patch("mchasy.painleve2._Taylor", wraps=_Taylor) as taylor:
            for s_min in (-10.0, -11.0):
                assert cache.get(0.9999, s_min).kind == "ivp"
                assert cache.get(1.0 - 1e-13, s_min).kind == "bvp"
        # one integration for 0.9999, one BVP solve per s_min at the edge
        assert taylor.call_count == 1
        assert solve.call_count == 2


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
        ends = [-e for e in steps.neg_ends]     # s_max first, down to -12
        joints = ends[1:-1]
        scale = np.abs(dense(sol, np.linspace(-12.0, 10.0, 441))).max(axis=1)
        for i, e in enumerate(joints):
            # a Taylor step is centered on its right end: step i ends at
            # joint e, and step i+1 starts there with offset 0
            vals = [np.polyval(np.array(steps.rows[j]), e - ends[j]) for j in (i, i + 1)]
            assert np.all(np.abs(vals[0] - vals[1]) <= 1e-14 * scale)
        near = np.add.outer(joints, [-1e-9, 1e-9]).ravel()
        assert np.all(np.abs(dense(sol, near) - dense(sol, np.repeat(joints, 2)))
                      <= 1e-8 * scale[:, None])

    def test_exact_at_both_ends(self):
        # the integration starts on the Airy data at s_max, and its last
        # step is clipped to land on -12
        full = solve_pii(0.5, -12.0)
        assert full._dense.neg_ends[-1] == 12.0
        assert eval_pii(full, 10.0) == tuple(float(x) for x in _airy_data(0.5, 10.0))
        # a solve to s_min stops at the step that holds s_min, one of the
        # steps of the integration down to -12
        sol = solve_pii(0.5, -11.25)
        ends = [-e for e in sol._dense.neg_ends]
        assert ends[-1] < -11.25 <= ends[-2]
        assert sol._dense.rows == full._dense.rows[:len(ends) - 1]
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

    def test_pole_stops_integration(self):
        # beyond |k| = 1 the solution has a pole on the real axis
        with pytest.raises(ConvergenceError, match="pole"):
            _Taylor(1.5, 10.0, 1e-10).reach(-12.0)


class TestOnDemand:
    """Ablowitz-Segur dense output is integrated only as deep as lookups
    reach, and gives the values of the eager integration down to -12."""

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-0.999, 0.999),
           st.lists(st.floats(-12.0, 10.0), min_size=1, max_size=8))
    def test_any_lookup_order_matches_eager_solve(self, k, ss):
        eager = solve_pii(k, -12.0)
        cache = SolutionCache()
        for s in ss:
            assert eval_pii(cache.get(k, s_min_for(s)), s) == eval_pii(eager, s)

    def test_steps_only_as_deep_as_lookups(self):
        with mock.patch("mchasy.painleve2._taylor_coeffs", wraps=_taylor_coeffs) as coeffs:
            eval_pii(solve_pii(0.5, -12.0), -12.0)
            eager = coeffs.call_count
            coeffs.reset_mock()
            cache = SolutionCache()
            for s in (0.0, -4.0, 3.0, -2.5):
                eval_pii(cache.get(0.5), s)
            shallow = coeffs.call_count
            eval_pii(cache.get(0.5, -12.0), -12.0)
            deep = coeffs.call_count
            eval_pii(cache.get(0.5, -11.0), -10.5)
            assert coeffs.call_count == deep
        assert 0 < shallow < deep == eager

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
        # each step taken once: a step appended twice would shift every row after it
        for k in ks:
            assert cache.get(k, -12.0)._dense.rows == eager[k]._dense.rows

    def test_failed_step_raises_again_without_stepping(self):
        eager = solve_pii(0.5, -12.0)
        ref = eval_pii(eager, -4.0)
        depth = []

        def coeffs(s0, *state):
            depth.append(s0)
            return _taylor_coeffs(s0, *state)

        def size(a, qc, rtol):
            # a step from below s = -5 shrinks as if a pole were near
            return 0.0 if depth[-1] < -5.0 else _step_size(a, qc, rtol)

        with mock.patch("mchasy.painleve2._taylor_coeffs", side_effect=coeffs), \
                mock.patch("mchasy.painleve2._step_size", side_effect=size):
            cache = SolutionCache()
            assert eval_pii(cache.get(0.5), -4.0) == ref
            with pytest.raises(ConvergenceError, match="pole"):
                eval_pii(cache.get(0.5), -8.0)
            tried = len(depth)
            assert depth[-1] < -5.0 <= depth[-2]
            below = math.nextafter(depth[-1], -math.inf)
            for s in (-8.0, below, -11.0):
                with pytest.raises(ConvergenceError, match="pole"):
                    eval_pii(cache.get(0.5, s_min_for(s)), s)
            assert len(depth) == tried
            # the steps built before the failure still serve, down to the
            # end of the last one
            assert eval_pii(cache.get(0.5), -4.0) == ref
            for s in (math.nextafter(depth[-1], 0.0), depth[-1]):
                assert eval_pii(cache.get(0.5), s) == eval_pii(eager, s)
            assert len(depth) == tried
            # the eager solve raises for a pole in its domain
            with pytest.raises(ConvergenceError, match="pole"):
                solve_pii(0.5, -8.0)

    def test_failure_below_s_min_on_a_step_end(self):
        # s_min on a step end needs no step below it, even one that fails
        eager = solve_pii(0.5, -12.0)
        end = next(-e for e in eager._dense.neg_ends if -e < -5.0)
        depth = []

        def coeffs(s0, *state):
            depth.append(s0)
            return _taylor_coeffs(s0, *state)

        def size(a, qc, rtol):
            return 0.0 if depth[-1] <= end else _step_size(a, qc, rtol)

        with mock.patch("mchasy.painleve2._taylor_coeffs", side_effect=coeffs), \
                mock.patch("mchasy.painleve2._step_size", side_effect=size):
            sol = solve_pii(0.5, end)
            assert depth[-1] > end
            assert eval_pii(sol, end) == eval_pii(eager, end)
            cache = SolutionCache()
            assert eval_pii(cache.get(0.5, -10.0), end) == eval_pii(eager, end)
            with pytest.raises(ConvergenceError, match="pole"):
                eval_pii(cache.get(0.5, -10.0), math.nextafter(end, -math.inf))
            assert depth[-1] == end
            with pytest.raises(ConvergenceError, match="pole"):
                solve_pii(0.5, math.nextafter(end, -math.inf))

    def test_reader_never_uses_a_step_whose_end_is_not_appended(self):
        # a lookup between a writer's two appends (row, then its end) sees
        # one row more than the ends close; that row must not serve an s
        # below the last end it read
        eager = _Taylor(0.5, 10.0, 1e-10)
        eager.reach(-12.0)
        m = 3
        lazy = _Taylor(0.5, 10.0, 1e-10)
        lazy.rows = eager.rows[:m + 1]
        lazy.neg_ends = array("d", eager.neg_ends[:m + 1])
        reach = lazy.reach

        def writer_done(s):
            lazy.rows = list(eager.rows)
            lazy.neg_ends = array("d", eager.neg_ends)
            return reach(s)

        inside = -eager.neg_ends[m - 1] - 0.01
        s = -11.0
        with mock.patch.object(lazy, "reach", side_effect=writer_done) as waited:
            assert lazy.at(inside) == eager.at(inside)
            waited.assert_not_called()
            assert lazy.at(s) == eager.at(s)
        waited.assert_called_once_with(s)
        # the half-appended row extrapolated to s is far off
        assert _horner(eager.rows[m], s + eager.neg_ends[m]) != eager.at(s)


class TestEval:
    def test_range_error(self, cache):
        with pytest.raises(RangeError):
            eval_pii(cache.get(0.5), -11.0)

    def test_airy_extension_beyond_domain(self, cache):
        sol = cache.get(0.5)
        v, vp, q = eval_pii(sol, 12.0)
        ai, aip = airy(12.0)
        assert v == pytest.approx(0.5 * ai, rel=1e-10)
        assert vp == pytest.approx(0.5 * aip, rel=1e-10)

    def test_self_convergence(self, cache):
        sol = cache.get(0.5)
        fine = solve_pii(0.5, tol=1e-11)
        for s in (-5.0, 0.0, 3.0):
            a = np.array(eval_pii(sol, s))
            b = np.array(eval_pii(fine, s))
            assert np.abs(a - b).max() < 1e-8


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

    def test_continuation_monotone(self, cache):
        vals = [eval_pii(cache.get(k), 0.0)[0]
                for k in (0.0, 0.3, 0.6, 0.9, 0.99)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
