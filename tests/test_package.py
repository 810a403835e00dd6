"""The declared API: every ``__all__`` entry resolves, the package
re-exports exactly what its library modules declare, and the settable
values are counted."""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import re
import types

import pytest

import mchasy
from mchasy import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

MODULES = [importlib.import_module("mchasy." + m.name)
           for m in pkgutil.iter_modules(mchasy.__path__)]


@pytest.mark.parametrize("mod", [mchasy] + MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


def test_package_exports_equal_its_all():
    public = {n for n, v in vars(mchasy).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(mchasy.__all__) - {"__version__"}


def test_package_all_is_the_library_api():
    # the CLI is the command-line entry point, and the error types are reached
    # as mchasy.errors, apart from their base class
    declared = set().union(*(m.__all__ for m in MODULES
                             if m.__name__ not in ("mchasy.cli", "mchasy.errors")))
    assert set(mchasy.__all__) == declared | {"__version__", "MchasyError"}


def test_bench_traced_names_resolve():
    # bench/run.py --trace 1 getattr()s every name in tracing.TRACED, so a
    # name pruned from the package must also leave that table.  A name that
    # only leaves __all__ still resolves: the verification kernels quad,
    # quad_band, quad_pv, quad_real_line, abel and nr7_matrix stay defined in
    # their modules while TRACED names them
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, names in tracing.TRACED.items():
        mod = importlib.import_module("mchasy." + mod_name)
        for name in names:
            owner, _, attr = name.rpartition(".")
            # a method must be the class's own, as Tracer.install wraps it there
            found = attr in vars(getattr(mod, owner)) if owner else hasattr(mod, attr)
            if not found:
                missing.append("%s.%s" % (mod_name, name))
    assert missing == []


def _parameters(fn):
    return [n for n in inspect.signature(fn).parameters if n not in ("self", "cls")]


def _settable(obj):
    """The values a caller can set through ``obj``: the parameters of a
    function; the fields of a dataclass, or the ``__init__`` parameters of
    another class, plus those of its public methods, ``__call__`` and its
    class and static methods."""
    if not inspect.isclass(obj):
        return len(_parameters(obj))
    if dataclasses.is_dataclass(obj):
        n = len(dataclasses.fields(obj))
    else:
        n = len(_parameters(obj.__init__)) if "__init__" in vars(obj) else 0
    for name, attr in vars(obj).items():
        if isinstance(attr, (classmethod, staticmethod)):
            n += len(_parameters(attr.__func__))
        elif inspect.isfunction(attr) and (not name.startswith("_") or name == "__call__"):
            n += len(_parameters(attr))
    return n


def test_result_fields_and_cli_surface():
    # what callers read: the CLI is its command line, a point's zone is
    # classify's tag, and p of the shock scales stays in ShockParams
    assert cli.__all__ == ["main"]
    assert [f.name for f in dataclasses.fields(mchasy.AsymptoticValue)] == [
        "u", "error_order", "diagnostics"]
    assert "p" not in {f.name for f in dataclasses.fields(mchasy.ShockGeometry)}


def test_settable_values():
    # the ROADMAP tracks this count: a new parameter, field or config key
    # raises it, and the change that adds one updates both
    api = {id(obj): obj for obj in [getattr(mchasy, n) for n in mchasy.__all__]
           + [getattr(cli, n) for n in cli.__all__] if callable(obj)}
    keys = sum(map(len, cli._KEYS.values()))
    assert keys == 16
    assert sum(map(_settable, api.values())) + keys == 109


def test_readme_config_lists_every_key():
    # CI scans this block as "the example that lists every key a config may
    # set": it must parse strictly, and name every key of every section (the
    # alternatives in comments count)
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    cli.parse_config(block, strict=True)
    named, section = {}, None
    for line in block.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            section = named.setdefault(header.group(1), set())
        elif section is not None:
            section.update(re.findall(r"(\w+) =", line))
    assert named == cli._KEYS
