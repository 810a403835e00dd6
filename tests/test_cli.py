import contextlib
import json
import math
import os
import signal
import subprocess
import sys
from unittest import mock

import pytest

from mchasy import cli, painleve2, region3
from mchasy.cli import (RunConfig, emit_config, main, parse_config, run_scan,
                        write_output)
from mchasy.errors import ConfigError

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


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the block outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
        assert cfg.scattering["kappa_r"] == 0.0
        assert cfg.regions["c1"] == 1.0
        assert cfg.shock == {"p": 1.0, "q": 1.0}
        assert cfg.tolerances["abs_tol"] == 1e-12
        assert cfg.output["format"] == "csv"

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="shock.p"):
            parse_config(MINIMAL + "\n[shock]\np = -1\n")

    def test_bad_spectrum_literal(self):
        with pytest.raises(ConfigError, match="spectrum"):
            parse_config(MINIMAL + "\nspectrum = [nonsense]\n")

    def test_spectrum_parsing(self):
        cfg = parse_config("[scattering]\nkappa_r = 0\n"
                           "spectrum = [0.5-0.8660254037844386i]\n")
        z = cfg.scattering["spectrum"][0]
        assert z == pytest.approx(0.5 - 0.8660254037844386j)

    def test_round_trip(self):
        text = R1_SCAN.format(path="-", fmt="csv") \
            + "\n[shock]\np = 2.5\nq = 0.5\n"
        cfg = parse_config(text)
        cfg2 = parse_config(emit_config(cfg))
        for sec in ("scattering", "regions", "shock", "scan", "tolerances", "output"):
            assert getattr(cfg, sec) == getattr(cfg2, sec)

    def test_strict_symmetry_failure(self, tmp_path):
        # a tabulated file with a broken inversion symmetry
        import numpy as np
        grid = np.geomspace(0.05, 20, 120)
        vals = 0.3 * np.exp(-np.log(grid) ** 2)
        vals[60] *= -1
        path = tmp_path / "r.csv"
        np.savetxt(path, np.column_stack([grid, vals, 0 * vals]), delimiter=",")
        text = "[scattering]\ntable_path = %s\n" % path
        cfg = parse_config(text)
        assert cfg.warnings
        with pytest.raises(ConfigError):
            parse_config(text, strict=True)


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
        with mock.patch.object(painleve2, "solve_pii", wraps=painleve2.solve_pii) as solve:
            rows = run_scan(cfg)
        assert solve.call_count == 1
        assert [r["region"] for r in rows] == ["I"] * 3
        assert all(math.isfinite(r["u"]) for r in rows)

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
        cfg_path.write_text("[shock]\np = -3\n")
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
