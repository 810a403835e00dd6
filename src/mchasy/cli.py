"""Configuration ingestion, region dispatch, batch scans, output emission.

Config files are flat INI-style key/value text with typed sections::

    [scattering]
    family = gaussian          # or: table_path = r.csv
    kappa_r = 0.5
    alpha = 0.0
    beta = 1.0
    spectrum = [0.5-0.8660254037844386i]

    [regions]
    c1 = 1.0
    c2 = 1.0
    c3 = 5.769

    [shock]
    p = 1.0
    q = 1.0

    [scan]
    t = 1e6
    s = -2:2:9                 # or: xi = lo:hi:n, or: w = lo:hi:n (shock window)
    grid_region = 1            # which zone's scaling maps s to x

    [tolerances]
    abs_tol = 1e-12
    rel_tol = 1e-12
    max_subdivisions = 4000
    tail_cutoff = 1e-17
    pii_tol = 1e-10

    [output]
    path = out.csv
    format = csv

CSV columns are exactly ``x,t,region,s,u,err_order,error`` with empty fields
for nulls; JSON mirrors the rows and adds a ``meta`` header with the config
hash and library version.  Exit codes: 0 ok, 1 config error, 2 hard per-point
failure under --strict, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .errors import ConfigError, DomainError, MchasyError
from .numerics import QuadratureSpec
from .painleve2 import SolutionCache, eval_pii, solve_pii
from .phase import RegionConstants, RegionTag, SpaceTimePoint, classify, scaled_s
from .region1 import u_region1
from .region2 import u_region2
from .region3 import u_region3
from .scattering import (DiscreteSpectrum, ReflectionCoefficient, ScatteringData,
                         check_symmetries)

__all__ = ["RunConfig", "parse_config", "emit_config", "run_scan",
           "write_output", "main"]

_CBRT3 = 3.0 ** (1.0 / 3.0)
_COLUMNS = ("x", "t", "region", "s", "u", "err_order", "error")


@dataclass
class RunConfig:
    scattering: dict
    regions: dict
    shock: dict
    scan: dict
    tolerances: dict
    output: dict
    warnings: list = field(default_factory=list)
    _data: ScatteringData | None = field(default=None, init=False, repr=False,
                                         compare=False)

    def data(self) -> ScatteringData:
        """The scattering data, built on the first call and shared after, so
        the checks of ``parse_config`` and the scan use one object (and its
        memo)."""
        if self._data is None:
            sc = self.scattering
            if sc.get("table_path"):
                import numpy as np
                raw = np.loadtxt(sc["table_path"], delimiter=",", dtype=float)
                r = ReflectionCoefficient.tabulated(raw[:, 0], raw[:, 1] + 1j * raw[:, 2],
                                                    tail_rate=sc.get("tail_rate", 1.0))
            else:
                r = ReflectionCoefficient.family(sc["kappa_r"], sc["alpha"], sc["beta"])
            self._data = ScatteringData(r, DiscreteSpectrum(sc["spectrum"]))
        return self._data

    def constants(self) -> RegionConstants:
        return RegionConstants(self.regions["c1"], self.regions["c2"],
                               self.regions["c3"])

    def quad_spec(self) -> QuadratureSpec:
        tl = self.tolerances
        return QuadratureSpec(tl["abs_tol"], tl["rel_tol"],
                              int(tl["max_subdivisions"]), tl["tail_cutoff"])


def _parse_complex(tok: str) -> complex:
    tok = tok.strip().replace(" ", "")
    if not tok:
        raise ConfigError("empty complex literal", key="scattering.spectrum")
    try:
        return complex(tok.replace("i", "j"))
    except ValueError as exc:
        raise ConfigError("bad complex literal %r" % tok,
                          key="scattering.spectrum") from exc


def _parse_spectrum(text: str) -> list:
    text = text.strip()
    if not text or text == "[]":
        return []
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    return [_parse_complex(t) for t in text.split(",") if t.strip()]


def _parse_grid(text: str, key: str) -> list[float]:
    text = text.strip()
    try:
        if ":" in text:
            lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if n < 1 or not hi >= lo:
                raise ValueError
            if n == 1:
                return [lo]
            return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        vals = [float(t) for t in text.split(",") if t.strip()]
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError
        return vals
    except ValueError as exc:
        raise ConfigError("grid must be lo:hi:n or a sorted comma list, got %r"
                          % text, key=key) from exc


def _getfloat(sec, name, default, key, positive=False):
    raw = sec.get(name)
    if raw is None:
        return default
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError("not a number: %r" % raw, key=key) from exc
    if positive and not val > 0:
        raise ConfigError("must be positive, got %r" % val, key=key)
    return val


def parse_config(text: str, strict: bool = False) -> RunConfig:
    """Parse and validate the key-value config document."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    known = {"scattering", "regions", "shock", "scan", "tolerances", "output"}
    for sec in cp.sections():
        if sec not in known:
            raise ConfigError("unknown section [%s]" % sec, key=sec)

    sc = cp["scattering"] if cp.has_section("scattering") else {}
    scattering = {
        "family": sc.get("family", "gaussian"),
        "kappa_r": _getfloat(sc, "kappa_r", 0.5, "scattering.kappa_r"),
        "alpha": _getfloat(sc, "alpha", 0.0, "scattering.alpha"),
        "beta": _getfloat(sc, "beta", 1.0, "scattering.beta", positive=True),
        "table_path": sc.get("table_path", ""),
        "tail_rate": _getfloat(sc, "tail_rate", 1.0, "scattering.tail_rate",
                               positive=True),
        "spectrum": _parse_spectrum(sc.get("spectrum", "[]")),
    }
    if scattering["family"] not in ("gaussian",):
        raise ConfigError("unknown family %r" % scattering["family"],
                          key="scattering.family")
    if abs(scattering["kappa_r"]) > 1:
        raise ConfigError("|kappa_r| <= 1 required", key="scattering.kappa_r")

    rg = cp["regions"] if cp.has_section("regions") else {}
    regions = {
        "c1": _getfloat(rg, "c1", 1.0, "regions.c1", positive=True),
        "c2": _getfloat(rg, "c2", 1.0, "regions.c2", positive=True),
        "c3": _getfloat(rg, "c3", 4.0 * _CBRT3, "regions.c3", positive=True),
    }
    if regions["c3"] <= 2.0 * _CBRT3:
        raise ConfigError("c3 must exceed 2*3^(1/3)", key="regions.c3")

    sh = cp["shock"] if cp.has_section("shock") else {}
    shock = {
        "p": _getfloat(sh, "p", 1.0, "shock.p", positive=True),
        "q": _getfloat(sh, "q", 1.0, "shock.q", positive=True),
    }

    sn = cp["scan"] if cp.has_section("scan") else {}
    scan = {"t": _parse_grid(sn.get("t", "1e6"), "scan.t")}
    for t in scan["t"]:
        if t <= 1.0:
            raise ConfigError("scan times must exceed 1", key="scan.t")
    kinds = [k for k in ("s", "xi", "w") if sn.get(k)]
    if len(kinds) > 1:
        raise ConfigError("give exactly one of s, xi, w", key="scan")
    kind = kinds[0] if kinds else "s"
    scan["grid_kind"] = kind
    scan["grid"] = _parse_grid(sn.get(kind, "-1:1:5"), "scan." + kind)
    scan["grid_region"] = int(sn.get("grid_region", "1"))
    if scan["grid_region"] not in (1, 2):
        raise ConfigError("grid_region must be 1 or 2", key="scan.grid_region")

    tl = cp["tolerances"] if cp.has_section("tolerances") else {}
    tolerances = {
        "abs_tol": _getfloat(tl, "abs_tol", 1e-12, "tolerances.abs_tol", positive=True),
        "rel_tol": _getfloat(tl, "rel_tol", 1e-12, "tolerances.rel_tol", positive=True),
        "max_subdivisions": int(_getfloat(tl, "max_subdivisions", 4000,
                                          "tolerances.max_subdivisions", positive=True)),
        "tail_cutoff": _getfloat(tl, "tail_cutoff", 1e-17, "tolerances.tail_cutoff",
                                 positive=True),
        "pii_tol": _getfloat(tl, "pii_tol", 1e-10, "tolerances.pii_tol", positive=True),
    }

    ot = cp["output"] if cp.has_section("output") else {}
    output = {"path": ot.get("path", "-"), "format": ot.get("format", "csv")}
    if output["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json", key="output.format")

    cfg = RunConfig(scattering, regions, shock, scan, tolerances, output)
    report = check_symmetries(cfg.data(), tol=1e-10)
    if not report.passed:
        msg = ("scattering symmetries violated: negation %.3g, inversion %.3g, "
               "modulus excess %.3g, spectrum %r"
               % (report.max_negation_violation, report.max_inversion_violation,
                  report.max_modulus_excess, report.spectrum_violations))
        if strict:
            raise ConfigError(msg, key="scattering")
        cfg.warnings.append(msg)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical round-trippable rendering of a RunConfig."""
    out = io.StringIO()
    spectrum = "[" + ", ".join(
        "%r%+ri" % (z.real, z.imag) for z in cfg.scattering["spectrum"]) + "]"
    sections = {
        "scattering": {**{k: cfg.scattering[k] for k in
                          ("family", "kappa_r", "alpha", "beta")},
                       **({"table_path": cfg.scattering["table_path"],
                           "tail_rate": cfg.scattering["tail_rate"]}
                          if cfg.scattering["table_path"] else {}),
                       "spectrum": spectrum},
        "regions": cfg.regions,
        "shock": cfg.shock,
        "scan": {"t": ", ".join(repr(t) for t in cfg.scan["t"]),
                 cfg.scan["grid_kind"]: ", ".join(repr(v) for v in cfg.scan["grid"]),
                 "grid_region": cfg.scan["grid_region"]},
        "tolerances": cfg.tolerances,
        "output": cfg.output,
    }
    for name, body in sections.items():
        out.write("[%s]\n" % name)
        for k, v in body.items():
            out.write("%s = %s\n" % (k, v))
        out.write("\n")
    return out.getvalue()


def _grid_to_x(cfg: RunConfig, t: float, v: float) -> float:
    kind = cfg.scan["grid_kind"]
    if kind == "xi":
        return v * t
    if kind == "w":
        xi = 2.0 - v * math.log(t) ** (2.0 / 3.0) * t ** (-2.0 / 3.0)
        return xi * t
    if cfg.scan["grid_region"] == 1:
        xi = 2.0 + 6.0 ** (2.0 / 3.0) * v * t ** (-2.0 / 3.0)
    else:
        xi = -0.25 - (9.0 / 8.0) ** (1.0 / 3.0) * v * t ** (-2.0 / 3.0)
    return xi * t


def _eval_point(cfg, data, cache, constants, spec, point):
    row = {"x": point.x, "t": point.t, "s": None, "u": None,
           "err_order": None, "error": ""}
    try:
        tag = classify(point, constants)
        row["region"] = tag.value
        if tag in (RegionTag.R_I, RegionTag.R_II):
            row["s"] = scaled_s(point, tag)
        if tag is RegionTag.R_I:
            res = u_region1(point, data, cache, constants,
                            tol=cfg.tolerances["pii_tol"])
        elif tag is RegionTag.R_II:
            res = u_region2(point, data, cache, constants, spec,
                            tol=cfg.tolerances["pii_tol"])
        elif tag is RegionTag.R_III:
            res = u_region3(point, data, cfg.shock["p"], cfg.shock["q"], constants)
        else:
            return row
        row["u"] = res.u
        row["err_order"] = res.error_order
    except Exception as exc:   # one bad point must not abort the scan
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        row.setdefault("region", "")
    return row


def run_scan(cfg: RunConfig) -> list[dict]:
    """Classify and evaluate every scan point; per-point errors are recorded
    in the ``error`` column and the scan continues."""
    data = cfg.data()
    constants = cfg.constants()
    spec = cfg.quad_spec()
    cache = SolutionCache()
    points = [SpaceTimePoint(_grid_to_x(cfg, t, v), t)
              for t in cfg.scan["t"] for v in cfg.scan["grid"]]
    return [_eval_point(cfg, data, cache, constants, spec, pt) for pt in points]


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return repr(float(v))   # shortest round-trip decimal, plain for numpy scalars
    return str(v)


def write_output(table: list[dict], fmt: str, path: str, meta: dict | None = None) -> None:
    """Emit the scan table as CSV or JSON; '-' writes to stdout."""
    if not table:
        raise ConfigError("refusing to write an empty table")
    if fmt == "csv":
        lines = [",".join(_COLUMNS)]
        for row in table:
            lines.append(",".join(_fmt(row.get(c)) for c in _COLUMNS))
        payload = "\n".join(lines) + "\n"
    else:
        body = {"meta": {"version": __version__, **(meta or {})},
                "rows": [{c: row.get(c) for c in _COLUMNS} for row in table]}
        payload = json.dumps(body, sort_keys=True, indent=1) + "\n"
    try:
        if path == "-":
            sys.stdout.write(payload)
        else:
            with open(path, "w") as fh:
                fh.write(payload)
    except OSError as exc:
        raise IOError(str(exc)) from exc


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _add_config_arg(sub):
    sub.add_argument("--config", required=True, help="path to the config file")
    sub.add_argument("--strict", action="store_true",
                     help="turn symmetry warnings and per-point errors into failures")


def _load(args):
    with open(args.config) as fh:
        text = fh.read()
    cfg = parse_config(text, strict=args.strict)
    for w in cfg.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return cfg, text


def _run_region(args, force_kind=None) -> int:
    try:
        cfg, text = _load(args)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    if force_kind is not None:
        cfg.scan["grid_region"] = force_kind
    if getattr(args, "p", None) is not None:
        cfg.shock["p"] = args.p
    if getattr(args, "q", None) is not None:
        cfg.shock["q"] = args.q
    table = run_scan(cfg)
    meta = {"config_sha256": hashlib.sha256(text.encode()).hexdigest()}
    try:
        write_output(table, cfg.output["format"], cfg.output["path"], meta)
    except (IOError, OSError) as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3
    if args.strict and any(r["error"] for r in table):
        return 2
    return 0


def _run_check(args) -> int:
    try:
        cfg, _ = _load(args)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    report = check_symmetries(cfg.data(), tol=1e-10)
    print("negation symmetry violation: %.3e" % report.max_negation_violation)
    print("inversion symmetry violation: %.3e" % report.max_inversion_violation)
    print("modulus excess: %.3e" % report.max_modulus_excess)
    for k, v in sorted(report.spectrum_violations.items()):
        print("spectrum %s violation: %.3e" % (k, v))
    print("log(1-|r|^2) integrability proxy: %.6g" % report.log_integrability)
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed or not args.strict else 2


def _run_pii(args) -> int:
    try:
        try:
            lo, hi, step = (float(x) for x in args.s.split(":"))
        except ValueError as exc:
            raise ConfigError("expected lo:hi:step, got %r" % args.s, key="--s") from exc
        # finite, and at most a million rows, so that the tabulation ends
        if not (math.isfinite(lo) and lo <= hi < math.inf and 0 < step
                and (hi - lo) / step < 1e6):
            raise ConfigError("need finite lo <= hi, step > 0 and at most 1e6 rows, "
                              "got %r" % args.s, key="--s")
        if not (math.isfinite(args.k) and args.tol > 0):
            raise ConfigError("need a finite --k and --tol > 0")
        sol = solve_pii(args.k, s_min=min(-10.0, lo), tol=args.tol)
    except (ConfigError, DomainError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    print("s,v,v_prime,Q")
    s = lo
    while s <= hi + 1e-12:
        v, vp, q = eval_pii(sol, s)
        print("%s,%s,%s,%s" % (repr(s), repr(v), repr(vp), repr(q)))
        s += step
    return 0


def _run_pq_invariance(args) -> int:
    try:
        cfg, _ = _load(args)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    data = cfg.data()
    constants = cfg.constants()
    worst, used = 0.0, 0
    for t in cfg.scan["t"]:
        for v in cfg.scan["grid"]:
            pt = SpaceTimePoint(_grid_to_x(cfg, t, v), t)
            try:
                u1 = u_region3(pt, data, 1.0, 1.0, constants).u
                u2 = u_region3(pt, data, 3.0, 2.0, constants).u
            except MchasyError as exc:
                print("x=%r t=%r skipped (%s)" % (pt.x, t, exc))
                continue
            used += 1
            worst = max(worst, abs(u1 - u2))
            print("x=%r t=%r u(1,1)=%r u(3,2)=%r" % (pt.x, t, u1, u2))
    if not used:
        print("no scan point lies in the shock window")
        return 2
    print("max |u(1,1) - u(3,2)| = %.3e" % worst)
    return 0 if worst < 1e-8 else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(prog="mchasy",
                                 description="transition-zone wave asymptotics")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_pii = sub.add_parser("pii", help="tabulate a Painleve II transcendent")
    p_pii.add_argument("--k", type=float, required=True)
    p_pii.add_argument("--s", required=True, help="lo:hi:step")
    p_pii.add_argument("--tol", type=float, default=1e-10)

    for name, kind in (("region1", 1), ("region2", 2), ("scan", None)):
        sp = sub.add_parser(name)
        _add_config_arg(sp)
        sp.set_defaults(kind=kind)

    p3 = sub.add_parser("region3")
    _add_config_arg(p3)
    p3.add_argument("--p", type=float, default=None)
    p3.add_argument("--q", type=float, default=None)
    p3.add_argument("--check-pq-invariance", action="store_true")
    p3.set_defaults(kind=None)

    pc = sub.add_parser("check", help="symmetry and invariant report")
    _add_config_arg(pc)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.cmd == "pii":
        return _run_pii(args)
    if args.cmd == "check":
        return _run_check(args)
    if args.cmd == "region3" and args.check_pq_invariance:
        return _run_pq_invariance(args)
    if args.cmd in ("region1", "region2", "region3", "scan"):
        return _run_region(args, force_kind=getattr(args, "kind", None))
    ap.error("unknown command")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
