import math

import pytest

from mchasy import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from mchasy.errors import DomainError, RegionError

CBRT3 = 3.0 ** (1 / 3)


class TestScaledS:
    def test_zero_on_ray(self):
        assert scaled_s(SpaceTimePoint(2e6, 1e6), RegionTag.R_I) == 0.0
        assert scaled_s(SpaceTimePoint(-0.25e6, 1e6), RegionTag.R_II) == 0.0

    def test_inverted_formula(self):
        t = 1e5
        x = 2 * t - 6 ** (2 / 3) * t ** (1 / 3)
        assert scaled_s(SpaceTimePoint(x, t), RegionTag.R_I) == pytest.approx(-1.0, abs=1e-12)

    def test_unsupported_region(self):
        with pytest.raises(RegionError):
            scaled_s(SpaceTimePoint(1e6, 1e6), RegionTag.R_III)


class TestClassify:
    def test_painleve_rays(self):
        assert classify(SpaceTimePoint(2e6, 1e6)) is RegionTag.R_I
        assert classify(SpaceTimePoint(-0.25e6, 1e6)) is RegionTag.R_II

    def test_shock_window(self):
        t = 1e6
        xi = 2 - 3 * CBRT3 * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        consts = RegionConstants(c3=4 * CBRT3)
        assert classify(SpaceTimePoint(xi * t, t), consts) is RegionTag.R_III

    def test_outside(self):
        assert classify(SpaceTimePoint(0.0, 1e6)) is RegionTag.OUTSIDE

    def test_time_at_most_one_refused(self):
        with pytest.raises(DomainError, match="t > 1"):
            classify(SpaceTimePoint(2.0, 1.0))

    def test_painleve_precedence_over_shock(self):
        # widen c1 until the first window swallows the shock window edge
        t = 1e4
        xi = 2 - 2.2 * CBRT3 * math.log(t) ** (2 / 3) * t ** (-2 / 3)
        consts = RegionConstants(c1=100.0, c3=4 * CBRT3)
        assert classify(SpaceTimePoint(xi * t, t), consts) is RegionTag.R_I

    def test_invalid_constants(self):
        for bad in ({"c3": 1.0}, {"c1": math.nan}, {"c2": math.nan}, {"c3": math.nan}):
            with pytest.raises(DomainError):
                RegionConstants(**bad)
