"""Properties of the CLI over the config space: configs with NaN, +-inf and
malformed numbers, and short grids in each zone; and the config reader
against configparser."""

import configparser
import contextlib
import io
import math
import os
import string
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mchasy import errors
from mchasy.cli import _read_sections, main
from mchasy.errors import ConfigError, MchasyError

BAD_NUMBERS = ("nan", "-nan", "inf", "-inf", "1e999", "-1e999", "abc", "",
               "1,5", "0x10", "--1", "1e", "50%", "1 2")
COMMANDS = (["scan"], ["check"], ["region1"], ["region2"], ["region3"],
            ["region3", "--check-pq-invariance"])
# 1-3 points in each zone at the default half-widths and t = 1e6 (other
# half-widths and times move some of them outside, which a scan reports)
ZONES = {"I": ("s", 1, -0.3, 0.3), "II": ("s", 2, -0.9, 0.9),
         "III": ("w", 1, 2.9, 5.7), "any": ("xi", 1, -1.0, 3.0)}

bad_number = st.one_of(st.sampled_from(BAD_NUMBERS),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr))


def floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# the valid values of each key, and what a malformed one looks like
VALID = {
    ("scattering", "kappa_r"): st.sampled_from((0.0, 0.5, -0.7, 1.0, -1.0)).map(repr),
    ("scattering", "alpha"): floats(-2, 2),
    ("scattering", "beta"): floats(0.3, 2),
    ("scattering", "spectrum"): st.sampled_from(
        ("[]", "[0.5-0.8660254037844386i]", "[0.6-0.8i, 0.8-0.6i]")),
    ("regions", "c1"): floats(0.5, 3),
    ("regions", "c2"): floats(0.5, 3),
    ("regions", "c3"): floats(5, 8),
    ("scan", "t"): st.sampled_from(("1e6", "1e4, 1e8", "1e12")),
    ("output", "format"): st.sampled_from(("csv", "json")),
}
MALFORMED = {
    ("scattering", "spectrum"): st.sampled_from(
        ("[nan-nani]", "[inf]", "[0.5-0.8660254037844386]", "[0.5-0.8660254037844386i")),
    ("output", "format"): st.just("xml"),
}


def short_grid(zone):
    kind, grid_region, lo, hi = ZONES[zone]
    values = st.lists(st.floats(lo, hi), min_size=1, max_size=3, unique=True)
    return values.map(lambda vs: (kind, ", ".join(map(repr, sorted(vs))), grid_region))


zone_grid = st.one_of(*map(short_grid, ZONES))
# more points than a grid may hold: refused before any is made
huge_grid = st.integers(10 ** 6 + 1, 10 ** 30).map(lambda n: "-1:1:%d" % n)
malformed_grid = st.tuples(
    st.sampled_from(("s", "xi", "w")),
    st.one_of(bad_number, huge_grid,
              st.tuples(bad_number, bad_number,
                        st.sampled_from(("0", "1", "2", "x"))).map(":".join)),
    st.sampled_from((1, 2, "3", "x")))


@st.composite
def configs(draw, malformed=True):
    """Config text with output to ``{out}``: each key omitted or valid, and
    with ``malformed`` up to two keys, or the grid, malformed."""
    sections = {name: {} for name in
                ("scattering", "regions", "scan", "output")}
    for (name, key), valid in VALID.items():
        sections[name][key] = draw(st.one_of(st.none(), valid))
    if malformed:
        for name, key in draw(st.lists(st.sampled_from(sorted(VALID)), max_size=2,
                                       unique=True)):
            sections[name][key] = draw(MALFORMED.get((name, key), bad_number))
    kind, text, grid_region = draw(st.one_of(zone_grid, malformed_grid) if malformed
                                   else zone_grid)
    sections["scan"].update({kind: text, "grid_region": grid_region})
    if kind == "w" and draw(st.booleans()):   # data that has a shock
        sections["scattering"]["kappa_r"] = draw(st.sampled_from(("1.0", "-1.0")))
    sections["output"]["path"] = "{out}"
    return "".join("[%s]\n%s" % (name, "".join("%s = %s\n" % kv for kv in body.items()
                                                if kv[1] is not None))
                   for name, body in sections.items())


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit_code_and_stderr(config, command):
    """Run ``command`` on the config bytes (output to ``{out}``): a
    documented exit code, and stderr lines that name what went wrong."""
    # an exception escaping main is what prints a traceback in a shell
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.ini")
        with open(cfg_path, "wb") as fh:
            fh.write(config.replace(b"{out}", os.path.join(tmp, "out").encode()))
        code, _, err = run_main([command[0], "--config", cfg_path] + command[1:])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    for line in err.splitlines():
        assert line.startswith(("config error: ", "warning: ", "i/o error: ")), line
    if code == 1:
        assert err.startswith("config error: ") and err.count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(configs(), st.sampled_from(COMMANDS))
def test_exit_code_documented_and_no_traceback(text, command):
    check_exit_code_and_stderr(text.encode(), command)


@settings(max_examples=30, deadline=None)
@given(configs(), st.floats(0, 1), st.binary(min_size=1, max_size=3),
       st.sampled_from(COMMANDS))
def test_exit_code_documented_with_arbitrary_bytes(text, at, raw, command):
    # raw bytes inserted before the last line, which sets the output path:
    # some make the config undecodable, some break its grammar
    data = text.encode()
    cut = int(at * data.rindex(b"path = "))
    check_exit_code_and_stderr(data[:cut] + raw + data[cut:], command)


@settings(max_examples=30, deadline=None)
@given(configs(malformed=False))
def test_every_row_answers_or_names_its_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        cfg_path = os.path.join(tmp, "cfg.ini")
        with open(cfg_path, "w") as fh:
            fh.write(text.replace("{out}", out).replace("format = json", "format = csv"))
        code, _, err = run_main(["scan", "--config", cfg_path])
        assert code == 0, err
        with open(out) as fh:
            lines = fh.read().splitlines()
    assert lines[0] == "x,t,region,s,u,err_order,error"
    assert len(lines) > 1
    for line in lines[1:]:
        x, t, region, s, u, err_order, error = line.split(",", 6)
        if error:
            # a package error, named: a bare OverflowError is a fault
            cls = getattr(errors, error.split(": ")[0], None)
            assert u == "" and isinstance(cls, type) and issubclass(cls, MchasyError), line
        elif region == "outside":
            assert u == "", line
        else:
            assert region in ("I", "II", "III") and math.isfinite(float(u)), line


# Documents in the reader's grammar.  A '#' or ';' inside a value follows a
# non-blank character, and inline comments hold neither, so that the comment
# prefix is the first one after whitespace on its line: configparser, which
# scans each prefix separately, then cuts at the same place.  Headers sit at
# column 0, so that none continues a value; a key line at column 1 after one
# at column 0 does, in both readers.
ws = st.sampled_from(("", " ", "\t", "  "))
indent = st.sampled_from((" ", "\t", "   "))
line_text = st.text([c for c in string.printable if c not in "#;\n\r"], max_size=12)
value = st.one_of(line_text, st.tuples(line_text, st.sampled_from(
    ("a#1", "b;c", "x;y#z"))).map("".join))
inline_comment = st.one_of(st.just(""), st.tuples(
    indent, st.sampled_from("#;"), st.text(st.characters(exclude_characters="\n\r#;"),
                                           max_size=8)).map("".join))
filler = st.lists(st.one_of(
    ws,                                                    # blank line
    st.tuples(ws, st.sampled_from("#;"), line_text).map("".join)),  # comment line
    max_size=2)
ident = st.text(string.ascii_letters + string.digits + "_.- ", min_size=1,
                max_size=8).map(str.strip).filter(bool)


@st.composite
def ini_documents(draw):
    lines = draw(filler)
    for name in draw(st.lists(ident.filter(lambda n: n != "DEFAULT"), max_size=3,
                              unique=True)):
        lines += ["[%s]%s" % (name, draw(inline_comment))] + draw(filler)
        for key in draw(st.lists(ident, max_size=4, unique_by=str.lower)):
            lead = draw(st.sampled_from(("", " ")))
            lines.append("%s%s%s%s%s%s%s" % (
                lead, key, draw(ws), draw(st.sampled_from("=:")), draw(ws),
                draw(value), draw(inline_comment)))
            lines += draw(filler)
            for _ in range(draw(st.integers(0, 2))):
                lines.append(lead + draw(indent) + draw(value) + draw(inline_comment))
                lines += draw(filler)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def configparser_sections(text):
    """What the reader replaced: configparser with the same comment rules."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.read_string(text)
    return {name: dict(cp[name]) for name in cp.sections()}


@settings(max_examples=300, deadline=None)
@given(ini_documents())
def test_reader_reads_as_configparser(text):
    assert _read_sections(text) == configparser_sections(text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("[]=:#; \t\nab\x0c"), max_size=40))
def test_reader_returns_sections_or_one_line_config_error(text):
    try:
        sections = _read_sections(text)
    except ConfigError as exc:
        assert str(exc).startswith("line ") and "\n" not in str(exc)
    else:
        assert all(isinstance(v, str) for body in sections.values() for v in body.values())
