import numpy as np
import pytest

from mchasy import (ReflectionCoefficient, RegionConstants, ScatteringData,
                    SpaceTimePoint, airy, eval_pii, u_region1)
from mchasy.errors import ConvergenceError, RegionError

AMPL = (81 / 2) ** (1 / 3)
WIDE = RegionConstants(c1=30.0)


def point_at(s, t):
    xi = 2.0 + 6 ** (2 / 3) * s * t ** (-2 / 3)
    return SpaceTimePoint(xi * t, t)


class TestURegion1:
    def test_flat_data_gives_background(self, cache):
        data = ScatteringData(ReflectionCoefficient.family(0.0))
        res = u_region1(SpaceTimePoint(2e6, 1e6), data, cache)
        assert res.u == 1.0

    def test_formula_against_components(self, family_half, cache):
        res = u_region1(SpaceTimePoint(2e6, 1e6), family_half, cache)
        vp0 = eval_pii(cache.get(0.5), 0.0)[1]
        assert res.u == pytest.approx(1 - AMPL * 1e-4 * vp0, abs=1e-15)
        assert res.error_order == pytest.approx(-37 / 48)

    def test_linearization(self, cache):
        data = ScatteringData(ReflectionCoefficient.family(0.1))
        t = 1e6
        res = u_region1(point_at(4.0, t), data, cache, WIDE)
        approx = -AMPL * t ** (-2 / 3) * 0.1 * airy(4.0)[1]
        assert abs((res.u - 1) - approx) < 0.05 * abs(approx)

    def test_region_error(self, family_half, cache):
        with pytest.raises(RegionError):
            u_region1(SpaceTimePoint(0.0, 1e6), family_half, cache)

    def test_painleve_error_estimate(self, family_half, cache):
        res = u_region1(SpaceTimePoint(2e6, 1e6), family_half, cache)
        assert res.diagnostics["pii_err_est"] == pytest.approx(2e-11)

    def test_near_hastings_mcleod_raises(self, cache):
        # k = r(1) = 0.999999: the transcendent's estimated error is 1e-5
        data = ScatteringData(ReflectionCoefficient.family(0.999999))
        with pytest.raises(ConvergenceError):
            u_region1(SpaceTimePoint(2e6, 1e6), data, cache)

    def test_sign_symmetry(self, cache):
        plus = ScatteringData(ReflectionCoefficient.family(0.4))
        minus = ScatteringData(ReflectionCoefficient.family(-0.4))
        for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
            up = u_region1(point_at(s, 1e6), plus, cache, WIDE).u
            um = u_region1(point_at(s, 1e6), minus, cache, WIDE).u
            assert (up - 1) == pytest.approx(-(um - 1), abs=1e-10)

    def test_t_scaling_along_similarity_curve(self, family_half, cache):
        vals = [(u_region1(point_at(0.7, t), family_half, cache, WIDE).u - 1)
                * t ** (2 / 3) for t in (1e4, 1e6, 1e8)]
        assert max(vals) - min(vals) < 1e-8

    def test_continuity_in_x(self, family_half, cache):
        t = 1e6
        us = [u_region1(point_at(s, t), family_half, cache, WIDE).u
              for s in np.linspace(0.0, 0.0005, 51)]
        jumps = np.abs(np.diff(us))
        assert jumps.max() < 1e-9

