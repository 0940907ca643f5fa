import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import altbd
from altbd import bilateral, oracle, reflecting, specfun

PACKAGE = Path(altbd.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_no_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert "reflecting.py" in {p.name for p in sources}
    for path in sources:
        assert not any(m.split(".")[0] == "scipy" for m in imported_modules(path)), path.name


def test_cli_import_loads_no_scipy():
    # catches a transitive import too, which the source scan above cannot see
    code = "import sys, altbd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in declared}
    imported = {
        m.split(".")[0] for path in PACKAGE.glob("*.py") for m in imported_modules(path)
    } - set(sys.stdlib_module_names) - {"altbd"}
    assert imported == names


def test_battery_does_not_need_click():
    assert not any(m.split(".")[0] == "click" for m in imported_modules(PACKAGE / "verify.py"))


def test_closed_forms_do_not_need_numpy():
    # numpy serves only the oracles
    for name in ("specfun.py", "bilateral.py", "reflecting.py", "verify.py"):
        assert not any(m.split(".")[0] == "numpy" for m in imported_modules(PACKAGE / name)), name


def test_cli_builds_its_grids_without_numpy():
    # the CLI still loads numpy through `oracle`; this pins only its own source
    assert not any(m.split(".")[0] == "numpy" for m in imported_modules(PACKAGE / "cli.py"))


def test_package_surface_is_the_module_lists():
    modules = (specfun, bilateral, reflecting, oracle)
    assert altbd.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(altbd.__all__)) == len(altbd.__all__)
    for m in modules:
        for name in m.__all__:
            obj = getattr(m, name)
            assert getattr(altbd, name) is obj, name
            # defined in the module that lists it, not imported from another
            assert getattr(obj, "__module__", m.__name__) == m.__name__, name
