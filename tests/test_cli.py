import hashlib
import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

from mchasy import (RegionConstants, SpaceTimePoint, cli, numerics, painleve2, region3,
                    scattering)
from mchasy.cli import main, parse_config, run_scan, write_output
from mchasy.errors import ConfigError, DomainError

from conftest import deadline

MINIMAL = """
[scattering]
kappa_r = 0.0
"""

# generic data over two points of the shock window
SHOCK_SCAN = """
[scattering]
kappa_r = -1.0
beta = 0.5

[scan]
t = 1e6
w = 3.0:3.4:2

[output]
path = {path}
"""


R1_SCAN = """
[scattering]
kappa_r = 0.0

[scan]
t = 1e6
s = -0.2:0.2:5
grid_region = 1

[output]
path = {path}
format = {fmt}
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.data.r(1.0) == 0.0
        assert cfg.constants.c1 == 1.0
        assert cfg.format == "csv"

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="scattering.beta"):
            parse_config(MINIMAL + "beta = -1\n")

    def test_bad_spectrum_literal(self):
        with pytest.raises(ConfigError, match="spectrum"):
            parse_config(MINIMAL + "\nspectrum = [nonsense]\n")

    def test_spectrum_parsing(self):
        cfg = parse_config("[scattering]\nkappa_r = 0\n"
                           "spectrum = [0.5-0.8660254037844386i]\n")
        [z] = cfg.data.spectrum.representatives
        assert z == pytest.approx(0.5 - 0.8660254037844386j)

    @pytest.mark.parametrize("key", ["family", "kappa_r", "alpha", "beta"])
    def test_table_with_family_key_refused(self, tmp_path, key):
        # a table replaces the family: a family key beside it would be
        # ignored (`family` selects nothing and is an unknown key anywhere)
        text = "[scattering]\ntable_path = %s\n%s = %s\n" % (
            chirped_table(tmp_path), key, "gaussian" if key == "family" else "0.5")
        with pytest.raises(ConfigError, match="scattering.%s" % key):
            parse_config(text)

    def test_tail_rate_without_table_refused(self, tmp_path, capsys):
        # only a table's tail reads it: beside the family it would be ignored
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\nkappa_r = 0.5\ntail_rate = 3\n")
        assert main(["check", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: scattering.tail_rate: continues a "
                                "table; give table_path too\n")
        text = "[scattering]\ntable_path = %s\n" % chirped_table(tmp_path)
        default, steep = (parse_config(text + extra).data.r(30.0)
                          for extra in ("", "tail_rate = 3\n"))
        assert abs(steep) < abs(default)

    def test_region_constants_checked_once(self):
        # the c3 default and bound are RegionConstants' own
        assert parse_config(MINIMAL).constants == RegionConstants()
        with pytest.raises(ConfigError, match=r"regions\.c3: c3 must exceed"):
            parse_config(MINIMAL + "[regions]\nc3 = 2.884\n")

    def test_strict_symmetry_failure(self, tmp_path):
        text = "[scattering]\ntable_path = %s\n" % broken_table(tmp_path)
        cfg = parse_config(text)
        assert cfg.warnings
        with pytest.raises(ConfigError):
            parse_config(text, strict=True)


def broken_table(tmp_path):
    """A 120-knot table with one knot's sign flipped, which breaks the
    inversion symmetry r(1/z) = conj r(z)."""
    import numpy as np
    grid = np.geomspace(0.05, 20, 120)
    vals = 0.3 * np.exp(-np.log(grid) ** 2)
    vals[60] *= -1
    path = tmp_path / "r.csv"
    np.savetxt(path, np.column_stack([grid, vals, 0 * vals]), delimiter=",")
    return path


def chirped_table(tmp_path):
    """120 knots of 0.3 exp(-ln(z)^2) z^(0.2i) on a geometric grid over
    [0.05, 20], none of them at z = 1."""
    import numpy as np
    from mchasy import ReflectionCoefficient
    grid = np.geomspace(0.05, 20, 120)
    vals = ReflectionCoefficient.family(0.3, 0.2, 1.0)(grid)
    path = tmp_path / "r.csv"
    np.savetxt(path, np.column_stack([grid, vals.real, vals.imag]), delimiter=",")
    return path


def scan_rows(capsys):
    return [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]


class TestScan:
    def test_flat_family_background(self):
        cfg = parse_config(R1_SCAN.format(path="-", fmt="csv"))
        rows = run_scan(cfg)
        assert len(rows) == 5
        assert all(r["u"] == 1.0 for r in rows)
        assert all(r["region"] == "I" for r in rows)

    def test_outside_rows_null(self):
        cfg = parse_config(MINIMAL + "\n[scan]\nt = 1e6\nxi = 0.5:0.6:2\n")
        rows = run_scan(cfg)
        assert all(r["region"] == "outside" and r["u"] is None for r in rows)

    def test_laziness_no_shock_geometry(self):
        cfg = parse_config(R1_SCAN.format(path="-", fmt="csv"))
        with mock.patch.object(region3, "solve_band", wraps=region3.solve_band) as band:
            run_scan(cfg)
        assert band.call_count == 0

    def test_one_pii_solve_per_transcendent(self):
        # zone-I points on both sides of s = -10 share one Ablowitz-Segur solve
        cfg = parse_config("[scattering]\nkappa_r = 0.5\n[regions]\nc1 = 48\n"
                           "[scan]\nt = 1e6\ns = -11.75, -10.25, 0\ngrid_region = 1\n")
        with mock.patch.object(painleve2, "_Taylor", wraps=painleve2._Taylor) as taylor:
            rows = run_scan(cfg)
        assert taylor.call_count == 1
        assert [r["region"] for r in rows] == ["I"] * 3
        assert all(math.isfinite(r["u"]) for r in rows)

    def test_zone_i_past_s_30_is_the_background(self):
        # eval_pii reads v' = 0 past s = 30, so u is exactly 1, with no error
        cfg = parse_config("[scattering]\nkappa_r = 0.5\n[regions]\nc1 = 500\n"
                           "[scan]\nt = 1e6\ns = 31, 60\ngrid_region = 1\n")
        rows = run_scan(cfg)
        assert [(r["region"], r["u"], r["error"]) for r in rows] == [("I", 1.0, "")] * 2

    def test_table_loaded_once_per_scan(self, tmp_path, capsys):
        import numpy as np
        grid = np.geomspace(0.05, 20, 120)
        vals = 0.3 * np.exp(-np.log(grid) ** 2)
        table = tmp_path / "r.csv"
        np.savetxt(table, np.column_stack([grid, vals, 0 * vals]), delimiter=",")
        cfg_path = tmp_path / "scan.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n[scan]\nt = 1e6\n"
                            "s = -1:1:3\ngrid_region = 1\n" % table)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as load:
            assert main(["scan", "--config", str(cfg_path)]) == 0
        assert load.call_count == 1
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_zone_ii_table_scan(self, tmp_path, capsys):
        import numpy as np
        from mchasy import ReflectionCoefficient
        grid = np.geomspace(1e-4, 1e4, 400)
        vals = ReflectionCoefficient.family(0.5, 0.3, 0.5)(grid)
        table = tmp_path / "r.csv"
        np.savetxt(table, np.column_stack([grid, vals.real, vals.imag]), delimiter=",")
        cfg_path = tmp_path / "scan.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n[regions]\nc2 = 5\n"
                            "[scan]\nt = 1e6\ns = -1:1:5\ngrid_region = 2\n" % table)
        assert main(["scan", "--config", str(cfg_path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            x, t, region, s, u, order, error = row.split(",")
            assert region == "II" and error == "" and math.isfinite(float(u))

    def test_chirped_table_zone_i_scan(self, tmp_path, capsys):
        # r(1) is real by construction, so zone I answers every point
        cfg_path = tmp_path / "scan.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n[regions]\nc1 = 30\n"
                            "[scan]\nt = 1e6\ns = -2:2:5\ngrid_region = 1\n"
                            % chirped_table(tmp_path))
        assert main(["scan", "--config", str(cfg_path), "--strict"]) == 0
        rows = scan_rows(capsys)
        assert len(rows) == 5
        assert all(r[2] == "I" and r[6] == "" and math.isfinite(float(r[4])) for r in rows)

    def test_zone_ii_table_above_one(self, tmp_path, capsys):
        # a table that starts above z = 1 is folded onto z < 1 as well
        import numpy as np
        from mchasy import ReflectionCoefficient
        grid = np.geomspace(1.0001, 1e4, 300)
        vals = ReflectionCoefficient.family(0.5, 0.3, 0.5)(grid)
        table = tmp_path / "r.csv"
        np.savetxt(table, np.column_stack([grid, vals.real, vals.imag]), delimiter=",")
        cfg_path = tmp_path / "scan.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n[regions]\nc2 = 5\n"
                            "[scan]\nt = 1e6\ns = -1:1:5\ngrid_region = 2\n" % table)
        assert main(["scan", "--config", str(cfg_path), "--strict"]) == 0
        rows = scan_rows(capsys)
        assert len(rows) == 5
        assert all(r[2] == "II" and r[6] == "" and math.isfinite(float(r[4])) for r in rows)

    def test_zone_ii_near_unit_kappa_is_one_row_error(self, tmp_path, capsys):
        # |kappa_r| = 1 - 1e-9 leaves log(1-|r|^2) nearly singular at z = 1;
        # each point answers or names ConvergenceError, and nothing hangs
        cfg_path = tmp_path / "scan.ini"
        cfg_path.write_text("[scattering]\nkappa_r = 0.999999999\nbeta = 0.5\n"
                            "[regions]\nc2 = 5\n"
                            "[scan]\nt = 1e6\ns = -1:1:3\ngrid_region = 2\n")
        with deadline(5.0):
            assert main(["scan", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        for row in captured.out.splitlines()[1:]:
            u, error = row.split(",")[4], row.split(",", 6)[6]
            assert (u and math.isfinite(float(u))) or error.startswith("ConvergenceError: ")

    def test_zone_ii_wide_family_is_a_domain_error_per_row(self):
        # beta = 1e-5 keeps log(1-|r|^2) above the cutoff past |ln z| = 700,
        # the end of the real line of doubles: each zone-II row names it
        cfg = parse_config("[scattering]\nkappa_r = 0.5\nbeta = 1e-5\n[regions]\nc2 = 5\n"
                           "[scan]\nt = 1e6\ns = -1:1:3\ngrid_region = 2\n")
        rows = run_scan(cfg)
        assert len(rows) == 3
        assert all(r["region"] == "II" and r["u"] is None and r["error"] ==
                   "DomainError: log(1-|r|^2) is not negligible within |ln z| <= 700"
                   for r in rows)

    def test_failed_transforms_built_once_per_scan(self, tmp_path, capsys):
        # the ConvergenceError of the transforms is kept per data:
        # the refinement runs once (levels 0-8), not once per point
        cfg_path = tmp_path / "scan.ini"
        cfg_path.write_text("[scattering]\nkappa_r = 0.999999999\nbeta = 0.5\n"
                            "[regions]\nc2 = 5\n"
                            "[scan]\nt = 1e6\ns = -1:1:3\ngrid_region = 2\n")
        real = scattering._Family._log_grid
        with mock.patch.object(scattering._Family, "_log_grid", autospec=True,
                               side_effect=real) as spy:
            assert main(["scan", "--config", str(cfg_path)]) == 0
        assert spy.call_count == 9
        error = ("ConvergenceError: transforms of log(1-|r|^2) not converged"
                 " within 200000 nodes (err=0.000516)")
        assert capsys.readouterr().out.splitlines()[1:] == [
            "-249895.99580884742,1000000.0,II,-0.9999999999998979,,," + error,
            "-250000.0,1000000.0,II,-0.0,,," + error,
            "-250104.00419115258,1000000.0,II,0.9999999999998979,,," + error]

    def test_deterministic_rows(self):
        cfg = parse_config(R1_SCAN.format(path="-", fmt="csv"))
        assert run_scan(cfg) == run_scan(cfg)

    def test_grid_straddles_zone_boundary(self):
        cfg = parse_config(MINIMAL + "\n[scan]\nt = 1e6\ns = 0:40:9\n")
        rows = run_scan(cfg)
        tags = {r["region"] for r in rows}
        assert "I" in tags and "outside" in tags
        for r in rows:
            if r["region"] == "outside":
                assert r["u"] is None and r["s"] is None

    def test_per_point_errors_recorded(self):
        # non-generic data scanned over the shock window: every point fails
        # admissibility but the scan keeps going
        cfg = parse_config("[scattering]\nkappa_r = 0.5\n"
                           "[scan]\nt = 1e6\nw = 3.0:3.4:2\n")
        rows = run_scan(cfg)
        assert all(r["u"] is None for r in rows)
        assert all("AdmissibilityError" in r["error"] for r in rows)

    def test_stray_exception_becomes_error_row(self, tmp_path, monkeypatch):
        # a non-package exception at one point is recorded in its row; the
        # other point is still evaluated, and only --strict turns it into 2
        out = tmp_path / "o.csv"
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHOCK_SCAN.format(path=out))
        cfg = parse_config(cfg_path.read_text())
        x_split = cli._grid_to_x(cfg, 1e6, 3.2)
        real = cli.u_region3

        def flaky(point, *args, **kwargs):
            if point.x > x_split:
                raise ZeroDivisionError("float division by zero")
            return real(point, *args, **kwargs)

        monkeypatch.setattr(cli, "u_region3", flaky)
        rows = run_scan(cfg)
        assert rows[0]["error"] == "ZeroDivisionError: float division by zero"
        assert rows[0]["u"] is None and rows[0]["region"] == "III"
        assert rows[1]["error"] == "" and math.isfinite(rows[1]["u"])
        assert main(["scan", "--config", str(cfg_path), "--strict"]) == 2
        assert main(["scan", "--config", str(cfg_path)]) == 0
        assert "ZeroDivisionError" in out.read_text()

    def test_stray_exception_skips_pq_point(self, tmp_path, monkeypatch, capsys):
        # --check-pq-invariance skips a point that raises, as a scan records it
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHOCK_SCAN.format(path=tmp_path / "o.csv"))
        x_split = cli._grid_to_x(parse_config(cfg_path.read_text()), 1e6, 3.2)
        real = cli.u_region3

        def flaky(point, *args, **kwargs):
            if point.x > x_split:
                raise ZeroDivisionError("float division by zero")
            return real(point, *args, **kwargs)

        monkeypatch.setattr(cli, "u_region3", flaky)
        assert main(["region3", "--config", str(cfg_path), "--check-pq-invariance"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(" skipped (float division by zero)")
        assert out[-1].startswith("max |u(1,1) - u(3,2)| = ")

    def test_pq_invariance_without_shock_points(self, tmp_path, capsys):
        # every point of a zone-I scan is skipped: nothing was compared
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(R1_SCAN.format(path=tmp_path / "o.csv", fmt="csv"))
        assert main(["region3", "--config", str(cfg_path), "--check-pq-invariance"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6 and all(" skipped (" in line for line in out[:5])
        assert out[-1] == "no scan point lies in the shock window"


# One scan per zone on family data at t = 1e6, and its CSV as recorded
# before RunConfig held the parsed values (emit_config, the section dicts).
PINNED_SCANS = {
    "I": ("[scattering]\nkappa_r = 0.5\nalpha = 0.3\nbeta = 0.5\n"
          "spectrum = [0.6-0.8i]\n[regions]\nc1 = 5\n"
          "[scan]\nt = 1e6\ns = -1.25, 0.0, 1.25\ngrid_region = 1\n",
          ["1999587.259093888,1000000.0,I,-1.25000000000014,0.9999880395599678,"
           "-0.7708333333333334,",
           "2000000.0,1000000.0,I,0.0,1.0000459477187347,-0.7708333333333334,",
           "2000412.740906112,1000000.0,I,1.25000000000014,1.00002174140451,"
           "-0.7708333333333334,"]),
    "II": ("[scattering]\nkappa_r = 0.5\nalpha = 0.3\nbeta = 0.5\n"
           "spectrum = [0.6-0.8i]\n[regions]\nc2 = 5\n"
           "[scan]\nt = 1e6\ns = -2.5, 0.0, 1.5\ngrid_region = 2\n",
           ["-249739.9895221185,1000000.0,II,-2.500000000000011,1.0004958796322605,"
            "-0.5185185185185185,",
            "-250000.0,1000000.0,II,-0.0,1.0008569691644444,-0.5185185185185185,",
            "-250156.0062867289,1000000.0,II,1.5000000000001137,1.0001642718114527,"
            "-0.5185185185185185,"]),
    "III": ("[scattering]\nkappa_r = -1.0\nalpha = 0.3\nbeta = 0.5\n"
            "[scan]\nt = 1e6\nw = 3.0, 3.5, 4.5\n",
            ["1998272.7075259318,1000000.0,III,,0.9999863744166393,,",
             "1997984.8254469205,1000000.0,III,,0.9998641511844313,,",
             "1997409.0612888974,1000000.0,III,,1.0000179823798265,,"]),
}
# u is O(1): 1e-14 is about 45 ulp of 1, round-off of the O(1e-4) correction
U_ROUND_OFF = 1e-14


class TestOutputContract:
    @pytest.mark.parametrize("zone", sorted(PINNED_SCANS))
    def test_scan_pinned(self, tmp_path, capsys, zone):
        text, want = PINNED_SCANS[zone]
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        assert main(["scan", "--config", str(cfg_path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "x,t,region,s,u,err_order,error"
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            got, exp = row.split(","), ref.split(",")
            # x, t, region, s, err_order, error byte for byte; u to round-off
            assert got[:4] + got[5:] == exp[:4] + exp[5:]
            assert abs(float(got[4]) - float(exp[4])) <= U_ROUND_OFF


class TestWrite:
    def test_csv_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        write_output([{"x": 1.0, "t": 2.0, "region": "I", "s": 0.5,
                       "u": 1.25, "err_order": -0.5, "error": ""}],
                     "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "x,t,region,s,u,err_order,error"
        assert lines[1] == "1.0,2.0,I,0.5,1.25,-0.5,"

    def test_null_u_is_empty_not_nan(self, tmp_path):
        path = tmp_path / "null.csv"
        write_output([{"x": 1.0, "t": 2.0, "region": "outside", "s": None,
                       "u": None, "err_order": None, "error": ""}],
                     "csv", str(path))
        row = path.read_text().splitlines()[1]
        assert row == "1.0,2.0,outside,,,,"
        assert "nan" not in row.lower()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        rows = [{"x": 1.5, "t": 2.0, "region": "I", "s": 0.25,
                 "u": 1.0000001, "err_order": -0.77, "error": ""}]
        write_output(rows, "json", str(path), {"config_sha256": "ab"})
        parsed = json.loads(path.read_text())
        assert parsed["meta"]["config_sha256"] == "ab"
        assert parsed["rows"][0]["u"] == rows[0]["u"]

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_output([], "csv", str(tmp_path / "x.csv"))


class TestMain:
    def test_parser_built_once(self, tmp_path):
        assert cli._parser() is cli._parser()
        with pytest.raises(SystemExit):
            main(["region9"])
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(R1_SCAN.format(path=tmp_path / "out.csv", fmt="csv"))
        assert main(["check", "--config", str(cfg_path)]) == 0   # parses after an error

    def test_region1_end_to_end_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        out = tmp_path / "out.csv"
        cfg_path.write_text(R1_SCAN.format(path=out, fmt="csv"))
        assert main(["region1", "--config", str(cfg_path)]) == 0
        first = out.read_bytes()
        assert main(["region1", "--config", str(cfg_path)]) == 0
        assert out.read_bytes() == first

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[scattering]\nbeta = -3\n")
        assert main(["region1", "--config", str(cfg_path)]) == 1

    def test_strict_per_point_failure_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\nkappa_r = 0.5\n"
                            "[scan]\nt = 1e6\nw = 3.0:3.4:2\n"
                            "[output]\npath = %s\n" % (tmp_path / "o.csv"))
        assert main(["scan", "--config", str(cfg_path), "--strict"]) == 2
        assert main(["scan", "--config", str(cfg_path)]) == 0

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(R1_SCAN.format(path="/nonexistent-dir/x.csv", fmt="csv"))
        assert main(["region1", "--config", str(cfg_path)]) == 3

    def test_pii_subcommand(self, capsys):
        assert main(["pii", "--k", "0.0", "--s", "0:1:0.5"]) == 0
        outp = capsys.readouterr().out.splitlines()
        assert outp[0] == "s,v,v_prime,Q"
        assert outp[1].startswith("0.0,0.0,0.0,0.0")

    def test_check_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL)
        assert main(["check", "--config", str(cfg_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_json_meta_hashes_the_config_bytes(self, tmp_path, newline):
        # the hash is of the file as sha256sum reads it, not of the text
        # that universal newlines make of it; the rows do not depend on it
        raw = R1_SCAN.format(path=tmp_path / "out.json", fmt="json").replace("\n", newline)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_bytes(raw.encode())
        assert main(["scan", "--config", str(cfg_path)]) == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["meta"]["config_sha256"] == hashlib.sha256(raw.encode()).hexdigest()
        assert [r["region"] for r in out["rows"]] == ["I"] * 5
        assert not any(r["error"] for r in out["rows"])

    def test_csv_scan_hashes_nothing(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(R1_SCAN.format(path=tmp_path / "out.csv", fmt="csv"))
        monkeypatch.setattr(cli, "hashlib", None)   # CSV has no meta header
        assert main(["scan", "--config", str(cfg_path)]) == 0

    def test_gauge_check_reports_the_scans_u(self, tmp_path, capsys):
        # the u(1,1) that --check-pq-invariance prints is the u a scan writes
        cfg_path = tmp_path / "shock.ini"
        cfg_path.write_text("[scattering]\nkappa_r = -1\nbeta = 0.5\n"
                            "[scan]\nt = 1e6\nw = 3:5.5:6\n")
        assert main(["scan", "--config", str(cfg_path)]) == 0
        scan = {row[0]: row[4] for row in scan_rows(capsys)}
        assert main(["region3", "--config", str(cfg_path), "--check-pq-invariance"]) == 0
        checked = dict(re.findall(r"^x=(\S+) t=\S+ u\(1,1\)=(\S+) ",
                                  capsys.readouterr().out, re.M))
        assert len(scan) == 6 and checked == scan

    def test_check_of_tiny_knots_is_quiet(self, tmp_path):
        # Im r about 1e-309 overflows the slope mean of scipy's Pchip: the
        # report is the same, and no warning reaches stderr (in a process of
        # its own, with the default warning filters)
        table = tmp_path / "r.csv"
        table.write_text("0.5,0.3,1e-309\n1.0,0.4,0\n2.0,0.3,-1e-309\n4.0,0.1,1e-309\n")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n" % table)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run([sys.executable, "-m", "mchasy.cli", "check", "--config",
                               str(cfg_path)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == ("inversion symmetry violation: 1.110e-16\n"
                                "modulus excess: 0.000e+00\n"
                                "PASS\n")

    def test_check_strict_prints_report_and_exits_2(self, tmp_path, capsys):
        # check prints its report either way; --strict turns FAIL into exit
        # 2, while a scan or zone command under --strict refuses the config
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n[output]\npath = %s\n"
                            % (broken_table(tmp_path), tmp_path / "o.csv"))
        assert main(["check", "--config", str(cfg_path)]) == 0
        report = capsys.readouterr().out
        assert report.startswith("inversion symmetry violation: ")
        assert report.endswith("\nFAIL\n")
        assert main(["check", "--config", str(cfg_path), "--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == report
        assert captured.err.startswith("warning: scattering symmetries violated: ")
        for cmd in ("scan", "region1"):
            assert main([cmd, "--config", str(cfg_path), "--strict"]) == 1
            assert capsys.readouterr().err.startswith(
                "config error: scattering: scattering symmetries violated: ")
        assert not (tmp_path / "o.csv").exists()

    def test_rows_in_grid_order(self):
        cfg = parse_config(R1_SCAN.format(path="-", fmt="csv"))
        rows = run_scan(cfg)
        assert [r["s"] for r in rows] == sorted(r["s"] for r in rows)

    def test_threads_env_ignored(self, tmp_path, monkeypatch):
        # scans run on one thread; MCH_ASY_THREADS is no longer read
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(R1_SCAN.format(path=tmp_path / "o.csv", fmt="csv"))
        monkeypatch.delenv("MCH_ASY_THREADS", raising=False)
        assert main(["scan", "--config", str(cfg_path)]) == 0
        plain = (tmp_path / "o.csv").read_bytes()
        monkeypatch.setenv("MCH_ASY_THREADS", "abc")
        assert main(["scan", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "o.csv").read_bytes() == plain


class TestBadScattering:
    """Scattering data the library refuses is one config error, exit 1."""

    COMMANDS = (["scan"], ["check"], ["region1"], ["region2"], ["region3"],
                ["region3", "--check-pq-invariance"])

    @pytest.mark.parametrize("spectrum, table, key", [
        ("[0.5-0.5i]", None, "scattering.spectrum"),
        ("[]", "0.5,0.1,0\n2.0,0.1,0\n", "scattering.table_path"),
        ("[]", "a,b,c\nd,e,f\n", "scattering.table_path"),
    ], ids=["off_circle", "two_rows", "non_numeric"])
    def test_one_line_exit_1(self, tmp_path, capsys, spectrum, table, key):
        body = "spectrum = %s\n" % spectrum
        if table is not None:
            (tmp_path / "r.csv").write_text(table)
            body += "table_path = %s\n" % (tmp_path / "r.csv")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\n" + body + "[output]\npath = %s\n"
                            % (tmp_path / "o.csv"))
        for cmd in self.COMMANDS:
            assert main([cmd[0], "--config", str(cfg_path)] + cmd[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: %s: " % key)
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()


class TestUnreadableInput:
    """A config or table that cannot be read or decoded is one config error,
    exit 1, in every command that reads a config."""

    def check_each_command(self, cfg_path, err, capsys):
        for cmd in TestBadScattering.COMMANDS:
            assert main([cmd[0], "--config", str(cfg_path)] + cmd[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_bytes(b"\xff[scattering]\nkappa_r = 0.5\n")
        self.check_each_command(cfg_path, "config error: 'utf-8' codec can't decode "
                                "byte 0xff in position 0: invalid start byte\n", capsys)

    def test_missing_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n" % (tmp_path / "r.csv"))
        self.check_each_command(cfg_path, "config error: %s not found.\n"
                                % (tmp_path / "r.csv"), capsys)

    def test_directory_as_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\ntable_path = %s\n" % tmp_path)
        self.check_each_command(cfg_path, "config error: [Errno 21] Is a directory: "
                                "%r\n" % str(tmp_path), capsys)


class TestScanSize:
    """A scan holds at most _MAX_GRID points, times by grid values, so that
    it ends."""

    @pytest.mark.parametrize("scan", [
        "t = 2:1e6:1001\ns = -1:1:1000\n",
        "t = %s\nxi = -1:1:1000\n" % ", ".join(map(str, range(2, 1003))),
    ], ids=["grids", "comma_list"])
    def test_refused(self, tmp_path, capsys, scan):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scan]\n" + scan)
        assert main(["scan", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: scan: scan of 1001000 points, at most "
                                "1000000 allowed\n")

    def test_limit_itself_is_allowed(self):
        cfg = parse_config("[scan]\nt = 2:1e6:1000\ns = -1:1:1000\n")
        assert len(cfg.times) * len(cfg.grid) == cli._MAX_GRID


def test_json_writes_null_for_non_finite_x(tmp_path):
    # x = xi*t overflows: JSON has no Infinity, CSV keeps inf
    cfg_path = tmp_path / "cfg.ini"
    out = tmp_path / "o.json"
    cfg_path.write_text(MINIMAL + "[scan]\nt = 1e6\nxi = 1e308\n"
                        "[output]\nformat = json\npath = %s\n" % out)
    assert main(["scan", "--config", str(cfg_path)]) == 0

    def refuse(name):
        raise ValueError("non-finite number %s in JSON" % name)

    [row] = json.loads(out.read_text(), parse_constant=refuse)["rows"]
    assert row["x"] is None and row["t"] == 1e6
    assert row["error"] == "DomainError: need finite x and t > 0, got (inf, 1000000.0)"
    cfg_path.write_text(cfg_path.read_text().replace("format = json", "format = csv"))
    assert main(["scan", "--config", str(cfg_path)]) == 0
    assert out.read_text().splitlines()[1].startswith("inf,1000000.0,,")


class TestLiteralValues:
    """Config values are literal: '%' is not interpolation syntax."""

    def test_percent_in_number_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\nkappa_r = 50%\n")
        assert main(["scan", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: scattering.kappa_r: ")
        assert captured.err.count("\n") == 1

    def test_percent_in_path_is_literal(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(R1_SCAN.format(path=tmp_path / "out%(x)s.csv", fmt="csv"))
        assert main(["scan", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out%(x)s.csv").read_text().startswith("x,t,region,")


class TestMalformedConfig:
    """Each refused form of the config grammar is one config error, exit 1."""

    @pytest.mark.parametrize("body, message", [
        ("kappa_r = 0.5\n", "line 1: 'kappa_r = 0.5' before any [section]"),
        ("[scattering]\nkappa_r 0.5\n", "line 2: no '=' or ':' in 'kappa_r 0.5'"),
        ("[scattering]\n = 0.5\n", "line 2: empty key in '= 0.5'"),
        ("[scan]\nt = 1e6\n\n[scan]\n", "line 4: repeated section [scan]"),
        ("[scattering]\nkappa_r = 0.5\nKappa_R = 0.6\n",
         "line 3: repeated key scattering.kappa_r"),
        ("[DEFAULT]\nalpha = 3\n", "DEFAULT: unknown section [DEFAULT]"),
        ("[scattering]\nkapa_r = 0.9\n", "scattering.kapa_r: unknown key"),
        # a control character in a name is escaped, so the error stays one line
        ("[scan]\nkap\x0cpa = 1\n", "scan.kap\\x0cpa: unknown key"),
        # the family is the only one, so the key selects nothing
        ("[scattering]\nfamily = gaussian\n", "scattering.family: unknown key"),
        # the section is gone: the zone-II rule converges exponentially, so
        # no tolerance moved an answer, and the other keys were fixed before
        ("[tolerances]\nmax_subdivisions = 4000\n",
         "tolerances: unknown section [tolerances]"),
        ("[tolerances]\npii_tol = 1e-10\n", "tolerances: unknown section [tolerances]"),
        ("[tolerances]\ntail_cutoff = 1e-17\n", "tolerances: unknown section [tolerances]"),
        ("[scattering]\nkappa_r = 1.5\n", "scattering.kappa_r: |kappa_r| <= 1 required"),
        ("[scan]\nt = 1\n", "scan.t: scan times must exceed 1"),
        ("[scan]\ns = 0:1:3\nxi = 0.5:1:3\n", "scan: give exactly one of s, xi, w"),
        ("[scan]\ngrid_region = 3\n", "scan.grid_region: grid_region must be 1 or 2"),
        ("[scan]\ns = 1:0:3\n",
         "scan.s: grid must be lo:hi:n or a sorted comma list, got '1:0:3'"),
        # refused from its count, before the list of values is built
        ("[scan]\ns = 0:1:1000001\n", "scan.s: grid of 1000001 points, at most 1000000 allowed"),
    ], ids=["key_before_section", "no_delimiter", "empty_key", "repeated_section",
            "repeated_key", "default_section", "unknown_key", "control_character", "family", "max_subdivisions",
            "pii_tol", "tail_cutoff", "kappa_r_above_1", "time_not_above_1", "two_grids", "grid_region_3",
            "descending_grid", "grid_over_1e6"])
    def test_one_line_exit_1(self, tmp_path, capsys, body, message):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(body)
        assert main(["scan", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: %s\n" % message


class TestPiiInput:
    def check_config_error(self, argv, capsys):
        assert main(["pii"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""

    def test_zero_step(self, capsys):
        with deadline(5.0):
            self.check_config_error(["--k", "0.5", "--s=0:1:0"], capsys)

    def test_negative_step(self, capsys):
        self.check_config_error(["--k", "0.5", "--s=0:1:-0.5"], capsys)

    def test_two_fields(self, capsys):
        self.check_config_error(["--k", "0.5", "--s=0:1"], capsys)

    def test_k_outside_unit_interval(self, capsys):
        self.check_config_error(["--k", "1.5", "--s=0:1:0.5"], capsys)

    def test_k_not_finite(self, capsys):
        assert main(["pii", "--k", "nan", "--s=0:1:0.5"]) == 1
        assert capsys.readouterr() == ("", "config error: need a finite --k\n")

    def test_rows_without_drift(self, capsys):
        # s_i = lo + i*step: 8,001 rows ending at 8.0, none drifted
        assert main(["pii", "--k", "0.5", "--s=0:8:0.001"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 8001
        assert rows[-1].startswith("8.0,")
        assert rows[300].startswith("0.3,")

    def test_tol_is_a_usage_error(self, capsys):
        # the step tolerance is fixed: there is no --tol
        with pytest.raises(SystemExit) as exc:
            main(["pii", "--k", "0.5", "--s=0:1:0.5", "--tol", "1e-10"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol 1e-10" in captured.err

    def test_failed_solve_is_one_line(self, capsys):
        # the error estimate 1e-11/(1-|k|) is 1e-5 here, above the 1e-6 bound
        assert main(["pii", "--k", "0.999999", "--s=-1:0:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ConvergenceError: ")
        assert captured.err.count("\n") == 1


class TestNonFinite:
    """A non-finite number in a config is one config error naming its key."""

    @pytest.mark.parametrize("body, key", [
        ("[scan]\nt = nan\n", "scan.t"),
        ("[scan]\nt = 1e6\ns = 0, inf\n", "scan.s"),
        ("[scan]\nt = 1e6\nw = -inf:3:2\n", "scan.w"),
        ("[scan]\nt = 1e6\nxi = 1e999\n", "scan.xi"),
        ("[scattering]\nkappa_r = nan\n", "scattering.kappa_r"),
        ("[scattering]\nalpha = nan\n", "scattering.alpha"),
        ("[scattering]\nbeta = inf\n", "scattering.beta"),
        ("[regions]\nc2 = inf\n", "regions.c2"),
        # sections no config may set: refused as unknown, still by name
        ("[shock]\nq = nan\n", "shock"),
        ("[tolerances]\nmax_subdivisions = inf\n", "tolerances"),
        ("[tolerances]\npii_tol = nan\n", "tolerances"),
        ("[scattering]\nbeta = 1e308\n", "scattering"),   # the family's own bound
    ], ids=["t_nan", "s_inf", "w_minus_inf", "xi_overflow", "kappa_r_nan",
            "alpha_nan", "beta_inf", "c2_inf", "q_nan", "max_subdivisions_inf",
            "pii_tol_nan", "beta_huge"])
    def test_one_line_exit_1(self, tmp_path, capsys, body, key):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(body)
        assert main(["scan", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: %s: " % key)
        assert captured.err.count("\n") == 1

    def test_overflowing_x_is_an_error_row(self):
        # finite t and s, but x = xi*t overflows: the point is a row error
        cfg = parse_config(MINIMAL + "\n[scan]\nt = 1e308\ns = 0\n")
        [row] = run_scan(cfg)
        assert row["u"] is None and row["error"].startswith("DomainError: ")


class TestExtremeShockConstants:
    """u does not depend on the shock scales p, q, so a scan runs zone III at
    p = q = 1 and neither a config nor a flag sets them; p, q that overflow
    or underflow the shock scale tau or the band equation are a named
    DomainError of ``u_region3``."""

    @pytest.mark.parametrize("key, value", [("p", "1e300"), ("q", "1e-300")])
    def test_config_value(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHOCK_SCAN.format(path=tmp_path / "o.csv")
                            + "[shock]\n%s = %s\n" % (key, value))
        assert main(["scan", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: shock: unknown section [shock]\n"

    @pytest.mark.parametrize("flag, value", [("--p", "1e300"), ("--q", "1e-300")])
    def test_region3_flag(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHOCK_SCAN.format(path=tmp_path / "o.csv"))
        with pytest.raises(SystemExit) as exc:
            main(["region3", "--config", str(cfg_path), flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: %s %s" % (flag, value) in captured.err

    @pytest.mark.parametrize("p, q", [(1e300, 1.0), (1.0, 1e-300)])
    def test_library_value(self, tmp_path, p, q):
        cfg = parse_config(SHOCK_SCAN.format(path=tmp_path / "o.csv"))
        t, w = cfg.times[0], cfg.grid[0]
        point = SpaceTimePoint(cli._grid_to_x(cfg, t, w), t)
        with pytest.raises(DomainError, match="shock scales"):
            region3.u_region3(point, cfg.data, p, q, cfg.constants)


def test_huge_grid_refused_before_allocation(tmp_path):
    # under a 1 GiB address-space limit, so that a grid built before the
    # check ends in MemoryError instead of taking the host's memory
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[scan]\nt = 1e6\ns = 0:1:%d\n" % 10 ** 9)
    code = ("import sys, tracemalloc; from mchasy.cli import main; "
            "tracemalloc.start(); code = main(['scan', '--config', %r]); "
            "print(tracemalloc.get_traced_memory()[1]); sys.exit(code)" % str(cfg_path))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: scan.s: ") and proc.stderr.count("\n") == 1
    assert int(proc.stdout) < 2 ** 20       # bytes allocated at the peak


def test_check_runs_symmetry_check_once(tmp_path, capsys):
    # parse_config makes the report from one r evaluation, and check prints
    # it from the memo
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    real = scattering.ReflectionCoefficient.__call__
    with mock.patch.object(scattering.ReflectionCoefficient, "__call__", autospec=True,
                           side_effect=real) as spy:
        assert main(["check", "--config", str(cfg_path)]) == 0
    assert spy.call_count == 1
    assert capsys.readouterr().out == (
        "inversion symmetry violation: 0.000e+00\n"
        "modulus excess: 0.000e+00\n"
        "PASS\n")


class TestSymmetryRefusal:
    """A symmetry report holds the inversion gap and the modulus excess: a
    scan under --strict refuses a config whose report fails, and ``check``
    prints that report."""

    SCAN = "[scan]\nt = 1e6\nxi = 0.5:0.6:2\n"
    VIOLATED = "scattering symmetries violated: inversion %s, modulus excess %s"
    REPORT = ("inversion symmetry violation: %s\n"
              "modulus excess: %s\n"
              "%s\n")

    @staticmethod
    def table(tmp_path, grid, vals):
        import numpy as np
        path = tmp_path / "r.csv"
        np.savetxt(path, np.column_stack([grid, np.real(vals), np.imag(vals)]), delimiter=",")
        return "[scattering]\ntable_path = %s\n" % path

    def flipped_knot(self, tmp_path):
        # the table of test_scattering's test_tabulated_defect_reported: the
        # knot nearest z = 2, on the side the interpolant does not use, negated
        import numpy as np
        grid = np.geomspace(1 / 8.0, 8.0, 61)
        vals = 0.3 * np.exp(-np.log(grid) ** 2)
        vals[int(np.argmin(np.abs(grid - 2.0)))] *= -1
        return self.table(tmp_path, grid, vals)

    def off_the_disk(self, tmp_path):
        # |r| = 1 at every knot, but Re r and Im r are interpolated apart:
        # between the middle knots both stay near 1 and |r| reaches 1.22
        import numpy as np
        return self.table(tmp_path, np.exp([1.0, 1.01, 2.0, 2.01]), [-1j, 1, 1j, -1])

    @pytest.mark.parametrize("scattering, gaps, report", [
        # a family's inversion gap is rounding in ln z times alpha
        ("[scattering]\nkappa_r = 0.5\nalpha = 1e7\n", ("4.26e-10", "0"),
         ("4.257e-10", "0.000e+00")),
        ("flipped_knot", ("0.371", "0"), ("3.711e-01", "0.000e+00")),
        ("off_the_disk", ("6.11e-16", "0.222"), ("6.106e-16", "2.219e-01")),
    ], ids=["family_alpha_1e7", "flipped_knot_table", "table_off_the_disk"])
    def test_refused_with_the_full_report(self, tmp_path, capsys, scattering, gaps, report):
        if not scattering.startswith("["):
            scattering = getattr(self, scattering)(tmp_path)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(scattering + self.SCAN)
        assert main(["scan", "--strict", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: scattering: %s\n" % (self.VIOLATED % gaps)
        assert main(["check", "--strict", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == self.REPORT % (report + ("FAIL",))
        assert captured.err == "warning: %s\n" % (self.VIOLATED % gaps)

    def test_family_alpha_1e5_passes_both(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scattering]\nkappa_r = 0.5\nalpha = 1e5\n" + self.SCAN)
        assert main(["scan", "--strict", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["check", "--strict", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == self.REPORT % ("4.152e-12", "0.000e+00", "PASS")


# scipy.interpolate and scipy.integrate each pull in scipy.linalg, .optimize
# and .sparse: tables import the first on construction, and nothing loads the
# second (Hastings-McLeod is solved on the Taylor stepper); only airy below
# s = 10 imports scipy.special, and no zone evaluator calls it there (zone
# III's elliptic integrals are mchasy's own); configs are read without
# configparser
_DEFERRED = ("scipy.interpolate", "scipy.integrate", "scipy.special", "configparser")


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this mchasy; return
    its stdout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_scipy_integrate_unloaded():
    code = ("import sys, mchasy.cli; loaded = [m for m in %r if m in sys.modules]; "
            "assert not loaded, loaded" % (_DEFERRED,))
    _run_fresh(code)


def test_family_scan_loads_neither_deferred_module(tmp_path):
    # xi = -0.25, 2 - 3.2 log(t)^(2/3) t^(-2/3), 2 at t = 1e6: zones II, III, I
    out = tmp_path / "o.csv"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[scattering]\nkappa_r = 0.5\n[scan]\nt = 1e6\n"
                        "xi = -0.25, 1.9981577, 2.0\n[output]\npath = %s\n" % out)
    code = ("import sys; from mchasy.cli import main; "
            "assert main(['scan', '--config', %r]) == 0; "
            "print(sorted(m for m in %r if m in sys.modules))" % (str(cfg_path), _DEFERRED))
    assert _run_fresh(code).strip() == "[]"
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == ["II", "III", "I"]
    assert math.isfinite(float(rows[0][4])) and math.isfinite(float(rows[2][4]))
    assert rows[1][6].startswith("AdmissibilityError: ")   # |kappa_r| < 1: no shock


def test_hastings_mcleod_scan_loads_neither_deferred_module(tmp_path):
    # |kappa_r| = 1: every zone-I point reads the Hastings-McLeod solution,
    # s = -11 from one solved down to s_min = -11.5
    out = tmp_path / "o.csv"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[scattering]\nkappa_r = 1.0\n[regions]\nc1 = 48\n"
                        "[scan]\nt = 1e6\ns = -11:1:5\ngrid_region = 1\n"
                        "[output]\npath = %s\n" % out)
    code = ("import sys; from mchasy.cli import main; "
            "assert main(['scan', '--config', %r]) == 0; "
            "print(sorted(m for m in %r if m in sys.modules))" % (str(cfg_path), _DEFERRED))
    assert _run_fresh(code).strip() == "[]"
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(r[2] == "I" and math.isfinite(float(r[4])) and r[6] == "" for r in rows)


def test_pii_hastings_mcleod_loads_neither_deferred_module():
    code = ("import sys; from mchasy.cli import main; "
            "assert main(['pii', '--k', '1', '--s=-10:10:1']) == 0; "
            "print(sorted(m for m in %r if m in sys.modules))" % (_DEFERRED,))
    *rows, loaded = _run_fresh(code).splitlines()
    assert loaded == "[]"
    assert rows[0] == "s,v,v_prime,Q" and len(rows) == 22
    assert float(rows[11].split(",")[1]) == pytest.approx(0.36706155154807, rel=1e-12)


def test_shock_scan_builds_no_painleve_table(tmp_path):
    # the Painleve II table is built on the first Ablowitz-Segur lookup, not
    # at import, so that a zone-III scan does not pay for it; a zone-I
    # lookup afterwards builds it, and still not the Hastings-McLeod guess
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SHOCK_SCAN.format(path=tmp_path / "o.csv"))
    built = ("print(painleve2._as_table.cache_info().currsize, "
             "painleve2._hm_guess.cache_info().currsize); ")
    code = ("import mchasy.cli; from mchasy import painleve2; "
            "assert mchasy.cli.main(['scan', '--config', %r]) == 0; " % str(cfg_path)
            + built + "painleve2.eval_pii(painleve2.solve_pii(0.5), 1.0); " + built)
    assert _run_fresh(code).split() == ["0", "0", "1", "0"]


def test_shock_scan_loads_no_deferred_module(tmp_path):
    # the same scan in a process that imported scipy.special before mchasy
    # writes the same bytes
    outputs = []
    for first in ("", "import scipy.special; "):
        out = tmp_path / ("o%d.csv" % len(outputs))
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SHOCK_SCAN.format(path=out))
        code = (first + "import sys; from mchasy.cli import main; "
                "assert main(['scan', '--config', %r]) == 0; "
                "print(sorted(m for m in %r if m in sys.modules))" % (str(cfg_path), _DEFERRED))
        loaded = _run_fresh(code).strip()
        assert loaded == ("['scipy.special']" if first else "[]")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = [r.split(",") for r in outputs[0].decode().splitlines()[1:]]
    assert len(rows) == 2
    assert all(r[2] == "III" and math.isfinite(float(r[4])) and r[6] == "" for r in rows)


def test_table_scan_imports_interpolation_on_demand(tmp_path):
    import numpy as np
    grid = np.geomspace(0.05, 20, 120)
    vals = 0.3 * np.exp(-np.log(grid) ** 2)
    table = tmp_path / "r.csv"
    np.savetxt(table, np.column_stack([grid, vals, 0 * vals]), delimiter=",")
    out = tmp_path / "o.csv"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("[scattering]\ntable_path = %s\n[regions]\nc1 = 5\n"
                        "[scan]\nt = 1e6\ns = -0.5:0.5:3\ngrid_region = 1\n"
                        "[output]\npath = %s\n"
                        % (table, out))
    code = ("import sys; from mchasy.cli import main; "
            "assert 'scipy.interpolate' not in sys.modules; "
            "assert main(['scan', '--config', %r]) == 0; "
            "print('scipy.interpolate' in sys.modules)" % str(cfg_path))
    assert _run_fresh(code).strip() == "True"
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(r[2] == "I" and math.isfinite(float(r[4])) and r[6] == "" for r in rows)


@pytest.mark.parametrize("argv, first_line, unbuffered", [
    (["pii", "--k", "0.5", "--s=0:8:0.0001"], b"s,v,v_prime,Q\n", False),
    (["pii", "--k", "0.5", "--s=0:1:0.5"], None, False),
    (["scan", "--config"], b"x,t,region,s,u,err_order,error\n", True),
], ids=["after_first_line", "before_any_line", "unbuffered_scan"])
def test_pii_into_closed_pipe_exits_3(tmp_path, argv, first_line, unbuffered):
    # the reader stops after the first line, as `mchasy pii ... | head -1`
    # does, or before any, as `| true` does; stdout is block-buffered, as it
    # is by default, so that Python's own flush at exit meets the pipe too.
    # Under PYTHONUNBUFFERED=1 stdout is the raw file, and a scan writes its
    # 8 MB table in one call, which the closed pipe cuts short
    if argv[0] == "scan":
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scan]\nt = 1e6\nxi = 0.5:1.5:200000\n")
        argv = argv + [str(cfg_path)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "mchasy.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if first_line:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 3
    assert err == b"i/o error: [Errno 32] Broken pipe\n"


def test_pii_with_stdout_closed_exits_3():
    # the process starts without fd 1, and Python sets sys.stdout to None
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(["sh", "-c", '"$0" -m mchasy.cli pii --k 0.5 --s=0:1:0.5 >&-',
                           sys.executable], env=env, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == b"i/o error: [Errno 9] stdout is closed\n"


# the verification kernels: quadratures and the off-axis Abel map and model
# matrix, which the tests check the closed forms against and no scan calls
VERIFICATION_KERNELS = [(numerics, "quad"), (numerics, "quad_band"), (numerics, "quad_pv"),
                        (numerics, "quad_real_line"), (region3, "quad"), (region3, "abel"),
                        (region3, "nr7_matrix")]

KERNEL_FREE_SCANS = {
    # Hastings-McLeod, with grid points below s = -10 that get solves of their own
    "zone_i_hastings_mcleod": ("I", "[scattering]\nkappa_r = 1.0\n[regions]\nc1 = 48\n"
                               "[scan]\nt = 1e6\ns = -11.5:2:5\ngrid_region = 1\n"),
    "zone_ii_family_spectrum": ("II", "[scattering]\nkappa_r = 0.5\nalpha = 0.7\n"
                                "spectrum = [0.5-0.8660254037844386i]\n[regions]\nc2 = 15\n"
                                "[scan]\nt = 1e6\ns = -6:6:5\ngrid_region = 2\n"),
    "zone_ii_chirped_table": ("II", "[scattering]\ntable_path = {table}\n[regions]\nc2 = 15\n"
                              "[scan]\nt = 1e6\ns = -2:2:5\ngrid_region = 2\n"),
    "zone_iii_generic": ("III", "[scattering]\nkappa_r = -1.0\nbeta = 0.5\n"
                         "[scan]\nt = 1e6\nw = 3:5.5:6\n"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_FREE_SCANS))
def test_no_scan_reaches_a_verification_kernel(name, tmp_path, monkeypatch):
    zone, text = KERNEL_FREE_SCANS[name]
    text = text.format(table=chirped_table(tmp_path))

    def scan_csv(out):
        write_output(run_scan(parse_config(text, strict=True)), "csv", str(out))
        return out.read_text()

    def refuse(*args, **kwargs):
        raise AssertionError("a scan called a verification kernel")

    # the kernel-free run goes first, on empty process-wide memos, so that
    # no earlier scan has done its work for it
    painleve2._hastings_mcleod.cache_clear()
    region3._band_table.cache_clear()
    with monkeypatch.context() as patch:
        for module, kernel in VERIFICATION_KERNELS:
            patch.setattr(module, kernel, refuse)
        without = scan_csv(tmp_path / "without.csv")
    assert without == scan_csv(tmp_path / "with.csv")
    rows = [row.split(",") for row in without.splitlines()[1:]]
    assert len(rows) >= 5
    assert all(r[2] == zone and r[6] == "" for r in rows)
