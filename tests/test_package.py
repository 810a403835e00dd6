"""The declared API: every ``__all__`` entry resolves, and the package
re-exports exactly what its library modules declare."""

import importlib
import importlib.util
import pathlib
import pkgutil
import types

import pytest

import mchasy

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
    # name pruned from the package must also leave that table
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
