"""Configuration ingestion, region dispatch, batch scans, output emission.

Config files are flat INI-style key/value text with typed sections::

    [scattering]
    kappa_r = 0.5              # or: table_path = r.csv (and tail_rate = 1.0),
    alpha = 0.0                # instead of these three
    beta = 1.0
    spectrum = [0.5-0.8660254037844386i]

    [regions]
    c1 = 1.0
    c2 = 1.0
    c3 = 5.769

    [scan]
    t = 1e6
    s = -2:2:9                 # or: xi = lo:hi:n, or: w = lo:hi:n (shock window)
    grid_region = 1            # which zone's scaling maps s to x

    [output]
    path = out.csv
    format = csv

The grammar is a strict subset of INI.  A line is blank, a comment (its
first non-blank character ``#`` or ``;``), a ``[name]`` section header
(names are case-sensitive), a ``key = value`` or ``key: value`` pair split
at the first ``=`` or ``:`` (keys stripped and lower-cased, values stripped
and literal: ``%`` is not interpolation syntax), or a continuation: a line
indented deeper than its key's line, joined to the value with a newline, so
a spectrum or grid list may span lines.  A ``#`` or ``;`` after whitespace
starts an inline comment.  A line with no delimiter, a key before any
section, an empty key, a repeated section or a repeated key is a config
error that gives its line number, as is an unknown section (``[DEFAULT]``
too: it has no special meaning) or a key that its section does not read.

A scan holds at most 10**6 points (times by grid values); a larger one is a
config error.  CSV columns are exactly ``x,t,region,s,u,err_order,error`` with
empty fields for nulls; JSON mirrors the rows, with ``null`` for a non-finite
number (the row's error names it), and adds a ``meta`` header with the config
hash and library version.  Exit codes: 0 ok, 1 config error (also a config or
table that cannot be read or decoded), 2 hard per-point failure under
--strict, a failed symmetry report under ``check --strict`` or a failed
``pii`` solve, 3 output that cannot be written (a closed pipe too).  Each
failure is one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass

from . import __version__
from .errors import ConfigError, DomainError, MchasyError
from .painleve2 import SolutionCache, eval_pii, solve_pii
from .phase import RegionConstants, RegionTag, SpaceTimePoint, _xi_of_s, classify, scaled_s
from .region1 import u_region1
from .region2 import u_region2
from .region3 import u_region3
from .scattering import (DiscreteSpectrum, ReflectionCoefficient, ScatteringData,
                         _symmetries_pass, check_symmetries)

__all__ = ["RunConfig", "parse_config", "run_scan", "write_output", "main"]

_COLUMNS = ("x", "t", "region", "s", "u", "err_order", "error")
_MAX_GRID = 10 ** 6     # points of a grid or a scan, as many as `mchasy pii` has rows
# every key parse_config reads, by section
_KEYS = {
    "scattering": {"kappa_r", "alpha", "beta", "table_path", "tail_rate", "spectrum"},
    "regions": {"c1", "c2", "c3"},
    "scan": {"t", "s", "xi", "w", "grid_region"},
    "output": {"path", "format"},
}
_INLINE_COMMENT = re.compile(r"\s[#;]")
_DELIMITER = re.compile("[=:]")


@dataclass
class RunConfig:
    """What a scan reads, built once by ``parse_config``: one data object
    (and its memo) serves the checks of ``parse_config`` and the scan."""

    data: ScatteringData
    constants: RegionConstants
    times: list[float]
    grid_kind: str          # s, xi or w
    grid: list[float]
    grid_region: int        # the zone whose scaling maps s to x
    path: str
    format: str
    warnings: list[str]


def _scattering_data(spectrum, table_path, tail_rate, kappa_r, alpha, beta) -> ScatteringData:
    """The scattering data of the ``[scattering]`` values.  A spectrum, table
    or family the data refuses raises ``ConfigError`` naming its key."""
    try:
        spectrum = DiscreteSpectrum(spectrum)
    except DomainError as exc:
        raise ConfigError(str(exc), key="scattering.spectrum") from exc
    if table_path:
        import numpy as np
        try:
            raw = np.loadtxt(table_path, delimiter=",", dtype=float, ndmin=2,
                             usecols=(0, 1, 2))
            r = ReflectionCoefficient.tabulated(raw[:, 0], raw[:, 1] + 1j * raw[:, 2],
                                                tail_rate=tail_rate)
        except ValueError as exc:   # np.loadtxt, or the checks of the table
            raise ConfigError(str(exc), key="scattering.table_path") from exc
    else:
        try:
            r = ReflectionCoefficient.family(kappa_r, alpha, beta)
        except DomainError as exc:
            raise ConfigError(str(exc), key="scattering") from exc
    return ScatteringData(r, spectrum)


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
            if n > _MAX_GRID:
                raise ConfigError("grid of %d points, at most %d allowed" % (n, _MAX_GRID),
                                  key=key)
            vals = [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        else:
            vals = [float(t) for t in text.split(",") if t.strip()]
        if not vals or any(not b > a for a, b in zip(vals, vals[1:])):
            raise ValueError
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("grid must be lo:hi:n or a sorted comma list, got %r"
                          % text, key=key) from exc
    if not all(map(math.isfinite, vals)):
        raise ConfigError("grid values must be finite, got %r" % text, key=key)
    return vals


def _getfloat(sec, name, default, key, positive=False):
    raw = sec.get(name)
    if raw is None:
        return default
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError("not a number: %r" % raw, key=key) from exc
    if not math.isfinite(val):
        raise ConfigError("must be finite, got %r" % raw, key=key)
    if positive and not val > 0:
        raise ConfigError("must be positive, got %r" % val, key=key)
    return val


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """Read the sections of a config document in the grammar of the module
    docstring: ``{section: {key: value}}``, in document order."""
    sections: dict[str, dict[str, str]] = {}
    body = key = None
    indent = blanks = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        value = line.strip()
        if not value:
            blanks += 1     # kept inside a value that a continuation extends
            continue
        if value[0] in "#;":
            continue
        comment = _INLINE_COMMENT.search(line)
        if comment:
            value = line[:comment.start()].strip()
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            body[key] += "\n" * (blanks + 1) + value
            blanks = 0
            continue
        indent, blanks = depth, 0
        if len(value) > 2 and value[0] == "[" and value[-1] == "]":
            name, key = value[1:-1], None
            if name in sections:
                raise ConfigError("line %d: repeated section [%s]" % (lineno, name))
            body = sections[name] = {}
            continue
        if body is None:
            raise ConfigError("line %d: %r before any [section]" % (lineno, value))
        delim = _DELIMITER.search(value)
        if delim is None:
            raise ConfigError("line %d: no '=' or ':' in %r" % (lineno, value))
        key = value[:delim.start()].rstrip().lower()
        if not key:
            raise ConfigError("line %d: empty key in %r" % (lineno, value))
        if key in body:
            raise ConfigError("line %d: repeated key %s.%s" % (lineno, name, key))
        body[key] = value[delim.end():].strip()
    return sections


def parse_config(text: str, strict: bool = False) -> RunConfig:
    """Parse and validate the key-value config document."""
    sections = _read_sections(text)
    for name, body in sections.items():
        if name not in _KEYS:
            raise ConfigError("unknown section [%s]" % name, key=name)
        for key in body:
            if key not in _KEYS[name]:
                raise ConfigError("unknown key", key="%s.%s" % (name, key))

    sc = sections.get("scattering", {})
    table_path = sc.get("table_path", "")
    for name in ("kappa_r", "alpha", "beta"):
        if table_path and name in sc:
            raise ConfigError("a table replaces the family; give one of them",
                              key="scattering." + name)
    if "tail_rate" in sc and not table_path:
        raise ConfigError("continues a table; give table_path too",
                          key="scattering.tail_rate")
    kappa_r = _getfloat(sc, "kappa_r", 0.5, "scattering.kappa_r")
    alpha = _getfloat(sc, "alpha", 0.0, "scattering.alpha")
    beta = _getfloat(sc, "beta", 1.0, "scattering.beta", positive=True)
    tail_rate = _getfloat(sc, "tail_rate", 1.0, "scattering.tail_rate", positive=True)
    spectrum = _parse_spectrum(sc.get("spectrum", "[]"))
    if abs(kappa_r) > 1:
        raise ConfigError("|kappa_r| <= 1 required", key="scattering.kappa_r")

    rg = sections.get("regions", {})
    c1 = _getfloat(rg, "c1", RegionConstants.c1, "regions.c1", positive=True)
    c2 = _getfloat(rg, "c2", RegionConstants.c2, "regions.c2", positive=True)
    c3 = _getfloat(rg, "c3", RegionConstants.c3, "regions.c3", positive=True)
    try:
        constants = RegionConstants(c1, c2, c3)
    except DomainError as exc:      # c1 and c2 are positive: the c3 bound failed
        raise ConfigError(str(exc), key="regions.c3") from exc

    sn = sections.get("scan", {})
    times = _parse_grid(sn.get("t", "1e6"), "scan.t")
    for t in times:
        if t <= 1.0:
            raise ConfigError("scan times must exceed 1", key="scan.t")
    kinds = [k for k in ("s", "xi", "w") if sn.get(k)]
    if len(kinds) > 1:
        raise ConfigError("give exactly one of s, xi, w", key="scan")
    kind = kinds[0] if kinds else "s"
    grid = _parse_grid(sn.get(kind, "-1:1:5"), "scan." + kind)
    if len(times) * len(grid) > _MAX_GRID:      # so that a scan ends
        raise ConfigError("scan of %d points, at most %d allowed"
                          % (len(times) * len(grid), _MAX_GRID), key="scan")
    grid_region = sn.get("grid_region", "1")
    if grid_region not in ("1", "2"):
        raise ConfigError("grid_region must be 1 or 2", key="scan.grid_region")

    ot = sections.get("output", {})
    fmt = ot.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be csv or json", key="output.format")

    data = _scattering_data(spectrum, table_path, tail_rate, kappa_r, alpha, beta)
    warnings = []
    # the full report only where it fails: its other parts hold by construction
    if not _symmetries_pass(data):
        report = check_symmetries(data)
        msg = ("scattering symmetries violated: negation %.3g, inversion %.3g, "
               "modulus excess %.3g, spectrum %r"
               % (report.max_negation_violation, report.max_inversion_violation,
                  report.max_modulus_excess, report.spectrum_violations))
        if strict:
            raise ConfigError(msg, key="scattering")
        warnings.append(msg)
    return RunConfig(data=data, constants=constants, times=times, grid_kind=kind, grid=grid,
                     grid_region=int(grid_region), path=ot.get("path", "-"), format=fmt,
                     warnings=warnings)


def _grid_to_x(cfg: RunConfig, t: float, v: float) -> float:
    if cfg.grid_kind == "xi":
        return v * t
    if cfg.grid_kind == "w":
        return (2.0 - v * math.log(t) ** (2.0 / 3.0) * t ** (-2.0 / 3.0)) * t
    return _xi_of_s(v, t, RegionTag.R_I if cfg.grid_region == 1 else RegionTag.R_II) * t


def _eval_point(cfg, cache, x, t):
    row = {"x": x, "t": t, "s": None, "u": None, "err_order": None, "error": ""}
    try:
        point = SpaceTimePoint(x, t)   # x = xi*t can overflow at a finite t
        tag = classify(point, cfg.constants)
        row["region"] = tag.value
        if tag in (RegionTag.R_I, RegionTag.R_II):
            row["s"] = scaled_s(point, tag)
        if tag is RegionTag.R_I:
            res = u_region1(point, cfg.data, cache, cfg.constants)
        elif tag is RegionTag.R_II:
            res = u_region2(point, cfg.data, cache, cfg.constants)
        elif tag is RegionTag.R_III:
            res = u_region3(point, cfg.data, constants=cfg.constants)
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
    cache = SolutionCache()
    return [_eval_point(cfg, cache, _grid_to_x(cfg, t, v), t)
            for t in cfg.times for v in cfg.grid]


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return repr(float(v))   # shortest round-trip decimal, plain for numpy scalars
    return str(v)


def _json_value(v):
    # JSON has no Infinity or NaN: a non-finite number is null, its row names the error
    return None if isinstance(v, float) and not math.isfinite(v) else v


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
                "rows": [{c: _json_value(row.get(c)) for c in _COLUMNS} for row in table]}
        payload = json.dumps(body, sort_keys=True, indent=1) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _add_config_arg(sub):
    sub.add_argument("--config", required=True, help="path to the config file")
    sub.add_argument("--strict", action="store_true",
                     help="turn symmetry warnings and per-point errors into failures")


def _load(args, strict):
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text, strict=strict)
    except (OSError, UnicodeDecodeError) as exc:    # the config, or the table it names
        raise ConfigError(str(exc)) from exc
    for w in cfg.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return cfg, text


def _run_region(args) -> int:
    cfg, text = _load(args, args.strict)
    if args.kind is not None:
        cfg.grid_region = args.kind
    table = run_scan(cfg)
    meta = {"config_sha256": hashlib.sha256(text.encode()).hexdigest()}
    write_output(table, cfg.format, cfg.path, meta)
    return 2 if args.strict and any(r["error"] for r in table) else 0


def _run_check(args) -> int:
    # the report is printed whatever it says; --strict sets the exit code
    cfg, _ = _load(args, strict=False)
    report = check_symmetries(cfg.data)
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
        lo, hi, step = (float(x) for x in args.s.split(":"))
    except ValueError as exc:
        raise ConfigError("expected lo:hi:step, got %r" % args.s, key="--s") from exc
    # finite, and at most a million rows, so that the tabulation ends
    if not (math.isfinite(lo) and lo <= hi < math.inf and 0 < step
            and (hi - lo) / step < 1e6):
        raise ConfigError("need finite lo <= hi, step > 0 and at most 1e6 rows, "
                          "got %r" % args.s, key="--s")
    if not math.isfinite(args.k):
        raise ConfigError("need a finite --k")
    sol = solve_pii(args.k, s_min=min(-10.0, lo))
    print("s,v,v_prime,Q")
    # s_i = lo + i*step, not a running sum, so that rows do not drift
    for i in range(math.floor((hi - lo) / step + 1e-9) + 1):
        s = lo + i * step
        v, vp, q = eval_pii(sol, s)
        print("%s,%s,%s,%s" % (repr(s), repr(v), repr(vp), repr(q)))
    return 0


def _run_pq_invariance(args) -> int:
    cfg, _ = _load(args, args.strict)
    worst, used = 0.0, 0
    for t in cfg.times:
        for v in cfg.grid:
            x = _grid_to_x(cfg, t, v)
            try:
                pt = SpaceTimePoint(x, t)
                u1 = u_region3(pt, cfg.data, 1.0, 1.0, cfg.constants).u
                u2 = u_region3(pt, cfg.data, 3.0, 2.0, cfg.constants).u
            except Exception as exc:   # as in a scan, one bad point is skipped
                print("x=%r t=%r skipped (%s)" % (x, t, exc))
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
    p_pii.set_defaults(run=_run_pii)

    for name, kind in (("region1", 1), ("region2", 2), ("scan", None)):
        sp = sub.add_parser(name)
        _add_config_arg(sp)
        sp.set_defaults(run=_run_region, kind=kind)

    p3 = sub.add_parser("region3")
    _add_config_arg(p3)
    p3.add_argument("--check-pq-invariance", dest="run", action="store_const",
                    const=_run_pq_invariance)
    p3.set_defaults(run=_run_region, kind=None)

    pc = sub.add_parser("check", help="symmetry and invariant report")
    _add_config_arg(pc)
    pc.set_defaults(run=_run_check)
    return ap


def main(argv=None) -> int:
    """Run one command; the only place where an error becomes an exit code."""
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()      # so that a pipe closed before the end is exit 3 too
        return code
    except (ConfigError, DomainError) as exc:
        code, line = 1, "config error: %s" % exc
    except MchasyError as exc:
        code, line = 2, "%s: %s" % (type(exc).__name__, exc)
    except OSError as exc:
        code, line = 3, "i/o error: %s" % exc
    # one stderr line: a control character echoed from a config is escaped
    print("".join(c if c.isprintable() else repr(c)[1:-1] for c in line), file=sys.stderr)
    return code


def _script() -> int:
    """The ``mchasy`` command: ``main`` in a process of its own."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:     # a closed pipe, which main reported: not again at Python's exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(_script())
