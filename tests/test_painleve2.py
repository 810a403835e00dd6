import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp

from mchasy import (SolutionCache, airy, eval_pii, parametrix_m1, parametrix_m2,
                    solve_pii)
from mchasy.errors import DomainError, RangeError
from mchasy.painleve2 import _rhs

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


    @pytest.mark.parametrize("k", [1.0, -1.0, 0.9999, -0.9995, 0.99905, -0.99901])
    def test_single_step_bvp_matches_continuation(self, k):
        for s_min in (-10.0, -10.6, -11.25, -12.0):
            sol = solve_pii(k, s_min=s_min)
            assert sol.kind == "bvp"
            s = np.linspace(s_min, sol.s_max, 1001)
            ref = continuation_bvp(k, s_min)(s)
            got = sol._dense(s)
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
        ref = solve_pii(k, s_min)._dense(s)
        # relative to each component's scale, since v, v' and Q pass through
        # zero; the integrator's absolute floor sits at 1e-30 of Airy data, so
        # a solution with |k|*Ai(s_max) below it is resolved only absolutely
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got._dense(s) - ref) <= 1e-10 * scale + 1e-30)

    def test_one_solve_serves_every_s_min(self):
        cache = SolutionCache()
        with mock.patch("mchasy.painleve2.solve_pii", wraps=solve_pii) as solve:
            sols = [cache.get(0.5, s_min) for s_min in (-10.0, -11.25, -12.0, -10.0)]
        assert solve.call_count == 1
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
    def test_zero_solution(self):
        sol = solve_pii(0.0)
        assert np.abs(parametrix_m1(sol, -2.0)).max() == 0.0
        assert np.abs(parametrix_m2(sol, -2.0)).max() == 0.0

    def test_m1_structure(self, cache):
        m1 = parametrix_m1(cache.get(0.5), 0.0)
        assert m1[0, 0] + m1[1, 1] == 0
        v = eval_pii(cache.get(0.5), 0.0)[0]
        assert m1[0, 1] == pytest.approx(v / 2)
        assert m1[1, 0] == m1[0, 1]

    def test_m2_structure(self, cache):
        m2 = parametrix_m2(cache.get(0.5), 0.0)
        assert m2[0, 0] == m2[1, 1]
        assert m2[0, 1] == pytest.approx(-m2[1, 0], abs=1e-15)

    def test_m1_derivative_identity(self, cache):
        # d/ds of the (1,1) entry equals i v^2 / 2
        for k in (0.3, 0.9):
            sol = cache.get(k)
            for s in np.linspace(-5, 5, 9):
                d = richardson_derivative(lambda x: parametrix_m1(sol, x)[0, 0],
                                          float(s), h=1e-3)
                v = eval_pii(sol, float(s))[0]
                assert abs(d - 0.5j * v * v) < 1e-7

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
