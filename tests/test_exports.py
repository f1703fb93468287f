import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mzinet

MODULES = sorted(m.name for m in pkgutil.iter_modules(mzinet.__path__)
                 if not m.name.startswith("_"))


def _surface(module):
    """The names `from mzinet.<module> import *` binds: its __all__, or every
    public name of a module without one."""
    namespace = {}
    exec(f"from mzinet.{module} import *", namespace)
    return set(namespace) - {"__builtins__"}


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
    assert set(exported) <= _surface(name)


ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# closed-form references the optimizer and the engine are tested against
TEST_REFERENCES = {"laws.min_variance_over_r", "laws.scaling_with_d"}


def _program_reads():
    """(owner, identifier) for every identifier a program file reads as a
    variable or an attribute, where owner is the top-level function or class
    the read sits in (None at module level).  Imports and the strings of
    __all__ are not reads."""
    reads = set()
    for path in PROGRAM:
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    reads.add((owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    reads.add((owner, sub.attr))
    return reads


def test_every_exported_name_has_a_program_caller():
    # the public surface is what the program runs: a name read only inside
    # its own definition, or only by other names without a caller, belongs
    # in the tests
    exported = [(name, f"{module}.{name}") for module in MODULES
                for name in getattr(importlib.import_module(f"mzinet.{module}"),
                                    "__all__", [])]
    reads = _program_reads()
    unused = set()
    while True:
        used = {name for owner, name in reads if owner != name and owner not in unused}
        now = {name for name, q in exported
               if name not in used and q not in TEST_REFERENCES}
        if now == unused:
            break
        unused = now
    assert sorted(q for name, q in exported if name in unused) == []


def test_every_imported_name_is_read():
    # an import that its module no longer reads is left over from removed code
    unread = []
    for path in sorted((ROOT / "src" / "mzinet").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []


def test_every_top_level_name_is_in_its_module_surface():
    # a name that leaves a module's __all__ must leave the package's
    # re-exports with it, or it lingers there for tests alone
    tree = ast.parse((ROOT / "src" / "mzinet" / "__init__.py").read_text())
    stray = [f"{node.module}.{alias.name}" for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names if alias.name not in _surface(node.module)]
    assert stray == []


def test_the_program_runs_without_scipy():
    # scipy is not a dependency: a fresh process that imports the package
    # and its command line and runs the quick verify loads no scipy module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, mzinet, mzinet.cli\n"
            "assert mzinet.verify('quick').ok\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_no_test_imports_scipy():
    # the tests' references are solved, not searched with scipy's optimizers
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {m}" for m in modules if m.partition(".")[0] == "scipy"]
    assert found == []
