"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary.  All tolerances are pinned here.
"""

import cmath
import math
import time

import numpy as np
import pytest

from mchasy import (DiscreteSpectrum, ReflectionCoefficient,
                    RegionConstants, ScatteringData, SolutionCache,
                    SpaceTimePoint, airy, eval_pii,
                    jacobi_theta, nr7_coeffs, solve_band,
                    solve_pii, u_region1, u_region2, u_region3)
from mchasy.cli import main, parse_config
from mchasy.numerics import quad_pv
from mchasy.region3 import ShockParams, _j_band, build_geometry, nr7_matrix

from conftest import richardson_derivative, symmetry_loop

CBRT3 = 3.0 ** (1 / 3)
_CACHE = SolutionCache()


def report(num, ok, detail=""):
    print("criterion %02d: %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def shock_point(t, ratio=3.0):
    xi = 2 - ratio * CBRT3 * math.log(t) ** (2 / 3) * t ** (-2 / 3)
    return SpaceTimePoint(xi * t, t)


@pytest.fixture(scope="module")
def generic_data():
    return ScatteringData(ReflectionCoefficient.family(-1.0, 0.0, 0.5))


@pytest.fixture(scope="module")
def shock_geom(generic_data):
    pt = shock_point(1e6)
    params = ShockParams(p=1.0, q=1.0, xi=pt.xi, t=pt.t,
                         C_R=(1 / 12) * generic_data.r.curvature_at_one())
    return params, build_geometry(params)


def test_01_painleve_residual_suite():
    start = time.time()
    worst = 0.0
    for k in (0.3, 0.7, 0.99):
        sol = _CACHE.get(k)
        for s in np.linspace(-8, 8, 33):
            vpp = richardson_derivative(lambda x: eval_pii(sol, x)[1], float(s), 1e-3)
            v = eval_pii(sol, float(s))[0]
            worst = max(worst, abs(vpp - s * v - 2 * v ** 3))
    took = time.time() - start
    report(1, worst < 1e-8 and took < 5.0,
           "max residual %.2e in %.2fs" % (worst, took))


def test_02_airy_matching():
    sol = _CACHE.get(0.5)
    v = eval_pii(sol, 6.0)[0]
    ref = 0.5 * airy(6.0)[0]
    rel = abs(v - ref) / abs(ref)
    report(2, rel < 1e-6, "relative mismatch %.2e at s=6" % rel)


def test_03_hastings_mcleod_cross_check():
    # the second solve puts its left condition at s = -12, not -10
    v0 = eval_pii(_CACHE.get(1.0), 0.0)[0]
    again = eval_pii(solve_pii(1.0, -12.0), 0.0)[0]
    report(3, abs(v0 - again) < 1e-6,
           "v(0) = %.10f, gap to the s_min = -12 solve %.2e" % (v0, abs(v0 - again)))


def test_04_theta_identity_suite():
    from conftest import theta_qp_residual
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for vk in (0.5j, 1j, 2j):
        half = (1 + vk) / 2
        worst = max(worst, abs(jacobi_theta(half, vk)))
        for _ in range(8):
            s = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
            worst = max(worst, abs(jacobi_theta(s + 1, vk) - jacobi_theta(s, vk)))
            worst = max(worst, abs(jacobi_theta(-s, vk) - jacobi_theta(s, vk)))
            worst = max(worst, theta_qp_residual(jacobi_theta, s, vk))
    took = time.time() - start
    report(4, worst < 1e-12 and took < 1.0,
           "max identity violation %.2e in %.2fs" % (worst, took))


def test_05_principal_value_oracle():
    worst = 0.0
    for c in (-3.0, -2.2, -1.0, -0.4, 0.0, 0.5, 1.0, 1.7, 2.5, 4.0):
        got = quad_pv(lambda x: 1 / (1 + x * x), c).value
        worst = max(worst, abs(got - (-math.pi * c / (1 + c * c))))
    report(5, worst < 1e-10, "max Lorentzian mismatch %.2e" % worst)


def test_06_band_solver_residuals():
    worst_circ = worst_band = 0.0
    for i, t in enumerate(np.geomspace(3e5, 3e7, 20)):
        ratio = 2.2 + 1.6 * (i % 5) / 4.0
        pt = shock_point(float(t), ratio)
        params = ShockParams(p=1.0, q=1.0, xi=pt.xi, t=pt.t, C_R=1.0)
        a, b = solve_band(params)
        worst_circ = max(worst_circ, abs(a * a + b * b - 2 / 3))
        worst_band = max(worst_band, abs(_j_band(a, b) - params.band_rhs))
    b0 = math.sqrt(2 / 3)
    degen = abs(_j_band(1e-9, b0) - b0 ** 3 / 3)
    report(6, worst_circ < 1e-12 and worst_band < 1e-12 and degen < 1e-8,
           "circle %.2e, band %.2e, degenerate-endpoint %.2e"
           % (worst_circ, worst_band, degen))


def test_07_band_period_identity(generic_data):
    worst = 0.0
    for t in (5e5, 1e6, 4e6, 1e7):
        for ratio in (2.5, 3.0, 3.5):
            pt = shock_point(t, ratio)
            params = ShockParams(p=1.0, q=1.0, xi=pt.xi, t=pt.t, C_R=1.0)
            geom = build_geometry(params)
            ident = (2 - pt.xi) * cmath.exp(-1j * params.tau * geom.A1)
            worst = max(worst, abs(ident - 1))
    report(7, worst < 1e-10, "max |(2-xi)exp(-i tau A1) - 1| = %.2e" % worst)


def test_08_jump_relation_suite(shock_geom):
    from conftest import richardson_limit
    from oracles import g_eval, h_eval
    params, geom = shock_geom
    km, k0 = 0.5 * (geom.a + geom.b), 0.5 * geom.a
    d = 1e-3 * (geom.b - geom.a)
    worst = 0.0

    def side(f, x, dd):
        return richardson_limit(lambda e: f(x + 1j * e), dd)

    gp, gm = side(lambda z: g_eval(geom, z), km, d), side(lambda z: g_eval(geom, z), km, -d)
    worst = max(worst, abs(gp + gm - geom.B1 / 2))
    gp, gm = side(lambda z: g_eval(geom, z), -km, d), side(lambda z: g_eval(geom, z), -km, -d)
    worst = max(worst, abs(gp + gm + geom.B1 / 2))
    gp, gm = side(lambda z: g_eval(geom, z), k0, d), side(lambda z: g_eval(geom, z), k0, -d)
    worst = max(worst, abs(gp - gm - geom.A1))
    hp, hm = h_eval(geom, km, side="+"), h_eval(geom, km, side="-")
    worst = max(worst, abs(hp + hm - geom.Delta0))
    hp, hm = h_eval(geom, -km, side="+"), h_eval(geom, -km, side="-")
    worst = max(worst, abs(hp + hm + geom.Delta0))
    hp, hm = h_eval(geom, k0, side="+"), h_eval(geom, k0, side="-")
    worst = max(worst, abs(hp - hm - 1j * math.log(geom.C_R * k0 * k0)))
    report(8, worst < 1e-8, "max jump residual %.2e" % worst)


def test_09_model_matrix_suite(shock_geom):
    params, geom = shock_geom
    ephi = cmath.exp(1j * params.tau * geom.B1 / 2 + geom.Delta0)
    V_right = np.array([[0, ephi], [-1 / ephi, 0]])
    V_left = np.array([[0, 1 / ephi], [-ephi, 0]])
    km = 0.5 * (geom.a + geom.b)
    jump = max(
        np.abs(nr7_matrix(geom, km, side="+")
               - nr7_matrix(geom, km, side="-") @ V_right).max(),
        np.abs(nr7_matrix(geom, -km, side="+")
               - nr7_matrix(geom, -km, side="-") @ V_left).max())
    rng = np.random.default_rng(5)
    det_dev = 0.0
    for _ in range(10):
        k = rng.uniform(3e4, 1e5) * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
        det_dev = max(det_dev, abs(np.linalg.det(nr7_matrix(geom, k)) - 1))
    devs = [np.abs(nr7_matrix(geom, k * (1 + 0.4j)) - np.eye(2)).max()
            for k in (1e3, 1e4)]
    decay_ratio = devs[0] / devs[1]
    ok = jump < 1e-8 and det_dev < 1e-8 and devs[1] < 1e-3 \
        and 5.0 < decay_ratio < 20.0
    report(9, ok, "jump %.2e, det %.2e, N(1e4)-I %.2e, decay ratio %.1f"
           % (jump, det_dev, devs[1], decay_ratio))


def test_10_expansion_coefficient_gate(shock_geom):
    # nr7_coeffs raises ConventionError internally if the closed forms and
    # the numerical Laurent fit disagree beyond 1e-5; run it explicitly and
    # measure the actual agreement here
    params, geom = shock_geom
    n1, n2 = nr7_coeffs(geom)
    ks = np.array([1e2, 2e2, 3e2, 5e2, 1e3, 2e3, 5e3, 1e4])
    vals = np.array([nr7_matrix(geom, k)[0, 1] * k for k in ks])
    design = np.vstack([np.ones_like(ks), 1 / ks, 1 / ks ** 2, 1 / ks ** 3]).T
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    gap = max(abs(coef[0] - n1) / max(1, abs(n1)),
              abs(coef[1] - n2) / max(1, abs(n2)))
    report(10, gap < 1e-5, "fit vs closed-form gap %.2e" % gap)


def test_11_pq_invariance(generic_data):
    start = time.time()
    worst = 0.0
    for t, ratio in ((5e5, 2.6), (1e6, 3.0), (2e6, 3.4), (5e6, 2.9), (1e7, 3.1)):
        pt = shock_point(t, ratio)
        u11 = u_region3(pt, generic_data, 1.0, 1.0).u
        u32 = u_region3(pt, generic_data, 3.0, 2.0).u
        worst = max(worst, abs(u11 - u32))
    took = time.time() - start
    report(11, worst < 1e-8 and took < 60.0,
           "max |u(1,1) - u(3,2)| = %.2e in %.1fs" % (worst, took))


def test_12_region1_linearization():
    data = ScatteringData(ReflectionCoefficient.family(0.1))
    t = 1e6
    xi = 2 + 6 ** (2 / 3) * 4.0 * t ** (-2 / 3)
    res = u_region1(SpaceTimePoint(xi * t, t), data, _CACHE,
                    RegionConstants(c1=30.0))
    approx = -((81 / 2) ** (1 / 3)) * t ** (-2 / 3) * 0.1 * airy(4.0)[1]
    rel = abs((res.u - 1) - approx) / abs(approx)
    report(12, rel < 0.05, "linearization gap %.2e (5%% allowed)" % rel)


def test_13_region2_reality_and_frequency():
    data = ScatteringData(ReflectionCoefficient.family(0.5, 0.0, 0.05),
                          DiscreteSpectrum([cmath.exp(-1j * math.pi / 3)]))
    # reality streak over 10 scan points (the assembled expression raises
    # RealityError if its imaginary part exceeds 1e-6)
    t = 1e6
    for s in np.linspace(-1.5, 1.5, 10):
        xi = -0.25 - (9 / 8) ** (1 / 3) * s * t ** (-2 / 3)
        res = u_region2(SpaceTimePoint(xi * t, t), data, _CACHE,
                        RegionConstants(c2=5.0))
        assert math.isfinite(res.u)
    # oscillation frequency along s = 0 from a uniform t-grid
    n, dt, t0 = 2048, 1.0, 2e4
    ts = t0 + dt * np.arange(n)
    us = np.array([u_region2(SpaceTimePoint(-0.25 * t, t), data, _CACHE).u
                   for t in ts])
    sig = (us - 1) * ts ** (1 / 3)
    sig -= sig.mean()
    spec = np.abs(np.fft.rfft(sig))
    freq = np.fft.rfftfreq(n, dt)
    peak = freq[int(np.argmax(spec))] * 2 * math.pi
    target = 3 * math.sqrt(3) / 4
    resol = 2 * math.pi / (n * dt)
    report(13, abs(peak - target) <= resol,
           "peak %.6f vs 3*sqrt(3)/4 = %.6f (resolution %.5f)"
           % (peak, target, resol))


def test_14_symmetry_suite():
    from mchasy import check_symmetries
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(6):
        kappa = float(rng.uniform(-1, 1))
        alpha = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(0.05, 2))
        data = ScatteringData(ReflectionCoefficient.family(kappa, alpha, beta))
        rep = check_symmetries(data)
        # r(-z) = -conj r(z) holds by construction: its gap is read from r
        worst = max(worst, symmetry_loop(data.r)[0], rep.max_inversion_violation,
                    rep.max_modulus_excess)
        za, zb = 2 + math.sqrt(3), 2 - math.sqrt(3)
        worst = max(worst, abs(abs(data.r(za)) - abs(data.r(zb))))
    report(14, worst < 1e-12, "max violation %.2e" % worst)


def test_15_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "cfg.ini"
    out = tmp_path / "out.csv"
    cfg.write_text("""
[scattering]
kappa_r = 0.5
spectrum = [0.5-0.8660254037844386i]

[scan]
t = 1e6
s = -0.5:0.5:7
grid_region = 1

[output]
path = %s
format = csv
""" % out)
    assert main(["region1", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert main(["region1", "--config", str(cfg)]) == 0
    report(15, out.read_bytes() == first, "byte-identical reruns")
