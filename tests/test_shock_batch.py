"""A scan evaluates the shock-zone points of a time together (one theta-series
call and one convention gate for a chunk of them), and its rows are those of
``u_region3`` called point by point."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mchasy import RegionTag, SpaceTimePoint, classify, cli, phase, region3
from mchasy.cli import parse_config, run_scan, write_output
from mchasy.errors import ConventionError, PoleOfSolutionError, RangeError
from mchasy.numerics import _theta_order, jacobi_theta

SCAN = """
[scattering]
kappa_r = -1.0
beta = 0.5

[regions]
c3 = {c3!r}

[scan]
t = {t!r}
w = {w}
"""


def reach(t):
    """The w at which 2 - xi = 1: past it the band equation has no root."""
    return (t / math.log(t)) ** (2.0 / 3.0)


def scan_config(t, ws):
    # c3 puts every w of the grid in the shock window, those past the reach too
    return parse_config(SCAN.format(t=t, c3=2.0 * reach(t), w=", ".join(map(repr, ws))))


def loop_rows(cfg):
    """The scan's rows from ``u_region3`` called point by point."""
    rows = []
    for t in cfg.times:
        for v in cfg.grid:
            x = cli._grid_to_x(cfg, t, v)
            point = SpaceTimePoint(x, t)
            tag = classify(point, cfg.constants)
            row = {"x": x, "t": t, "region": tag.value, "s": None, "u": None,
                   "err_order": None, "error": ""}
            if tag is RegionTag.R_III:
                try:
                    row["u"] = region3.u_region3(point, cfg.data, constants=cfg.constants).u
                except Exception as exc:
                    row["error"] = "%s: %s" % (type(exc).__name__, exc)
            rows.append(row)
    return rows


def csv_bytes(rows, tmp_path):
    path = tmp_path / "rows.csv"
    write_output(rows, "csv", str(path))
    return path.read_bytes()


def unread(cfg):
    return len(cfg.data._memo("shock_prepared", dict))


@st.composite
def shock_grids(draw):
    """t in [1e4, 1e10] and 1-8 w, some past the reach (a WindowError
    row), and two indices of the grid: a point whose gate is broken and one
    with a pole."""
    t = 10.0 ** draw(st.floats(4.0, 10.0))
    # w on a grid of 0.01 (of the reach, past it), so that no two points of
    # a scan coincide and a planted failure marks one point
    near = st.integers(0, 280).map(lambda k: 2.9 + 0.01 * k)
    far = st.integers(0, 85).map(lambda k: (1.05 + 0.01 * k) * reach(t))
    ws = draw(st.lists(st.one_of(near, far), min_size=1, max_size=8, unique=True))
    return t, sorted(ws), draw(st.integers(0, 7)), draw(st.integers(0, 7))


class TestScanMatchesPointByPoint:
    @settings(max_examples=30, deadline=None)
    @given(shock_grids())
    @example((1e4, [2.9, 4.0, 5.7, 1.5 * reach(1e4)], 0, 2))
    @example((1e10, [2.95, 3.35, 3.75, 4.15, 4.55, 4.95, 5.35, 5.7], 7, 3))
    def test_rows_and_refusals(self, tmp_path_factory, grid):
        t, ws, flip, pole = grid
        tmp_path = tmp_path_factory.mktemp("rows")
        cfg = scan_config(t, ws)
        plain = loop_rows(cfg)
        assert csv_bytes(run_scan(cfg), tmp_path) == csv_bytes(plain, tmp_path)
        assert unread(cfg) == 0
        # break the gate convention at one point (A_inf flipped, as in
        # test_gate_rejects_broken_convention) and plant a pole at another
        flip, pole = flip % len(ws), pole % len(ws)
        xi = [cli._grid_to_x(cfg, t, w) / t for w in ws]
        try:
            pole_vk = region3.build_geometry(region3.ShockParams(
                p=1.0, q=1.0, xi=xi[pole], t=t, C_R=cfg.data.r.curvature_at_one() / 12)).varkappa
        except Exception:
            pole_vk = None      # a point that fails anyway
        real_assemble, real_theta = region3._assemble, region3.jacobi_theta

        def assemble(params):
            geom = real_assemble(params)
            if params.xi == xi[flip]:
                geom = dataclasses.replace(geom, A_inf=-geom.A_inf)
            return geom

        def theta(s, vk, order=0):
            th, dth = real_theta(s, vk, order)
            rows = th.reshape(np.size(vk), -1)
            rows[np.atleast_1d(vk) == pole_vk, region3._GATE.stop - 1] = 0.0
            return th, dth

        with mock.patch.object(region3, "_assemble", assemble), \
                mock.patch.object(region3, "jacobi_theta", theta):
            scanned, looped = run_scan(cfg), loop_rows(cfg)
        assert csv_bytes(scanned, tmp_path) == csv_bytes(looped, tmp_path)
        for k, (row, before) in enumerate(zip(scanned, plain)):
            if before["error"] or k not in (flip, pole):
                assert row == before
            elif k == pole and pole_vk is not None:
                assert row["error"].startswith(PoleOfSolutionError.__name__)
            else:
                assert row["error"].startswith(ConventionError.__name__)

    def test_scan_longer_than_a_chunk(self, tmp_path):
        cfg = scan_config(1e6, [2.95 + 2.75 * k / 299 for k in range(300)])
        sizes = []
        real = cli._prepare

        def prepare(points, data, constants):
            sizes.append(len(points))
            return real(points, data, constants)

        with mock.patch.object(cli, "_prepare", prepare):
            rows = run_scan(cfg)
        assert sizes == [cli._CHUNK, 300 - cli._CHUNK]
        assert unread(cfg) == 0
        assert csv_bytes(rows, tmp_path) == csv_bytes(loop_rows(cfg), tmp_path)


class TestPreparedHandOver:
    """``u_region3`` hands a scan's point the result prepared for that point
    object, with the scan's constants object, at p = q = 1, and recomputes
    for anything else."""

    def test_scan_hands_over_every_point(self, tmp_path):
        # two times of five points each: one batch per time, and no point
        # evaluated again when its row is written
        cfg = parse_config(SCAN.format(t=1e5, c3=2.0 * reach(1e5), w="3.0, 3.5, 4.0, 4.5, 5.0")
                           .replace("t = 100000.0", "t = 1e5, 1e7"))
        with mock.patch.object(region3, "_u_points", wraps=region3._u_points) as batches:
            rows = run_scan(cfg)
        assert [len(c.args[0]) for c in batches.call_args_list] == [5, 5]
        assert unread(cfg) == 0
        assert csv_bytes(rows, tmp_path) == csv_bytes(loop_rows(cfg), tmp_path)

    def test_equal_but_distinct_point_recomputes(self):
        cfg = scan_config(1e6, [3.0, 4.0])
        points = [SpaceTimePoint(cli._grid_to_x(cfg, 1e6, w), 1e6) for w in (3.0, 4.0)]
        twin = SpaceTimePoint(points[0].x, points[0].t)
        assert twin == points[0] and twin is not points[0]
        region3._prepare(points, cfg.data, cfg.constants)
        with mock.patch.object(region3, "_u_points", wraps=region3._u_points) as alone:
            u_twin = region3.u_region3(twin, cfg.data, constants=cfg.constants).u
            assert alone.call_count == 1
            u_scan = region3.u_region3(points[0], cfg.data, constants=cfg.constants).u
            assert alone.call_count == 1        # handed over
            # equal constants that are another object, and another (p, q)
            other = dataclasses.replace(cfg.constants)
            assert other == cfg.constants and other is not cfg.constants
            region3.u_region3(points[1], cfg.data, constants=other)
            region3.u_region3(points[0], cfg.data, 2.0, 3.0, cfg.constants)
            assert alone.call_count == 3
        assert u_twin.hex() == u_scan.hex()
        assert unread(cfg) == 0


class TestOneClassifyPerPoint:
    def test_scan(self):
        cfg = scan_config(1e6, [3.0, 3.5, 4.0, 4.5, 5.0])
        with mock.patch.object(phase, "classify", wraps=phase.classify) as calls, \
                mock.patch.object(cli, "classify", calls), \
                mock.patch.object(region3, "classify", calls):
            rows = run_scan(cfg)
        assert [r["region"] for r in rows] == ["III"] * 5
        assert calls.call_count == 5

    def test_library_call_classifies(self):
        cfg = scan_config(1e6, [4.0])
        point = SpaceTimePoint(cli._grid_to_x(cfg, 1e6, 4.0), 1e6)
        with mock.patch.object(region3, "classify", wraps=region3.classify) as calls:
            u = region3.u_region3(point, cfg.data, constants=cfg.constants).u
        assert calls.call_count == 1
        assert u == run_scan(cfg)[0]["u"]


class TestOneAgmPairPerPoint:
    @pytest.mark.parametrize("n", [5, 16, 100])
    def test_misses_per_point(self, n):
        # K and E of each point's root start and of its root, each computed
        # once: in _u_points' loop over the points, the periods, delta0 and h1
        # read the root's while it is the latest entry of _elliptic, in a
        # batch of any size
        cfg = scan_config(1e6, [3.0 + 2.5 * k / (n - 1) for k in range(n)])
        region3._band_table()
        region3._elliptic.cache_clear()
        rows = run_scan(cfg)
        assert [(r["region"], r["error"]) for r in rows] == [("III", "")] * n
        assert region3._elliptic.cache_info().misses == 2 * n


class TestThetaRows:
    """The theta pass of a batch, against that of each point alone."""

    # the shock pool of bench/workloads.py: 6 beta, 13 t, 8 w
    BETAS = (0.05, 0.15, 0.4, 1.0, 2.0, 4.0)
    TIMES = tuple(10.0 ** (0.5 * k) for k in range(8, 21))
    WS = (2.95, 3.35, 3.75, 4.15, 4.55, 4.95, 5.35, 5.7)

    @classmethod
    def params(cls):
        params = []
        for beta in cls.BETAS:
            for t in cls.TIMES:
                for w in cls.WS:
                    xi = 2.0 - w * math.log(t) ** (2 / 3) * t ** (-2 / 3)
                    params.append(region3.ShockParams(p=1.0, q=1.0, xi=xi, t=t, C_R=beta / 6.0))
        return params

    @classmethod
    def geometries(cls):
        return [region3.build_geometry(p) for p in cls.params()]

    def test_each_row_is_its_one_row_call(self):
        # 1,248 rows: the pool's 624 of several N, and each shifted by two
        # periods (strip reduction)
        geoms = self.geometries()
        vk = np.array([g.varkappa for g in geoms])
        s = region3._theta_rows(geoms)[0]
        s = np.vstack([s, s + 2.0 * vk[:, np.newaxis]])
        vk = np.concatenate([vk, vk])
        assert len(s) == 1248 and len({_theta_order(y) for y in vk.imag}) > 1
        th, dth = jacobi_theta(s, vk, order=(0, 1))
        assert np.array_equal(jacobi_theta(s, vk), th)
        for k in range(len(s)):
            want = jacobi_theta(s[k:k + 1], vk[k:k + 1], order=(0, 1))
            assert th[k].tobytes() == want[0].tobytes()
            assert dth[k].tobytes() == want[1].tobytes()

    def test_overflow_refuses_its_row_only(self):
        geoms = self.geometries()[::97]
        # phi/pi far off the strip: the quasi-period factor of the gate's
        # shifted samples overflows
        geoms[1] = dataclasses.replace(geoms[1], phi=geoms[1].phi - 700j)
        s, th, dth, errors = region3._theta_rows(geoms)
        assert isinstance(errors[1], RangeError)
        assert np.isnan(th[1]).all()
        for k in (0, 2, len(geoms) - 1):
            assert errors[k] is None
            alone = region3._theta_rows([geoms[k]])
            assert th[k].tobytes() == alone[1].tobytes()
            assert dth[k].tobytes() == alone[2].tobytes()
        rows = region3._rows(geoms)
        assert isinstance(rows[1], RangeError)
        assert [type(r) for r in rows[:1] + rows[2:]] == [tuple] * (len(geoms) - 1)
        # the same geometries as the scalar part of a batch of points, and of
        # each point alone
        data = scan_config(1e6, [4.0]).data
        points = [SpaceTimePoint(p.xi * p.t, p.t) for p in self.params()[::97]]

        def u_points(points, geoms):
            with mock.patch.object(region3, "_assemble", side_effect=geoms):
                return region3._u_points(points, data, 1.0, 1.0)

        batch = u_points(points, geoms)
        assert isinstance(batch[1], RangeError)
        for k in range(len(points)):
            if k != 1:
                (alone,) = u_points([points[k]], [geoms[k]])
                assert batch[k].u.hex() == alone.u.hex()

