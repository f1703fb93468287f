import importlib
import pkgutil

import pytest

import mzinet

MODULES = sorted(m.name for m in pkgutil.iter_modules(mzinet.__path__)
                 if not m.name.startswith("_"))


def test_every_module_is_checked():
    assert {"gaussian", "network", "laws", "optimize", "fock", "tracelab",
            "scenarios", "cli", "errors"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the benchmark tracer looks each __all__ name up with getattr(..., None),
    # so a stale entry would silently drop its span
    module = importlib.import_module(f"mzinet.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from mzinet.{name} import *", namespace)
    assert set(exported) <= set(namespace)
