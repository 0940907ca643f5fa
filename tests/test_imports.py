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


def sibling_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


@pytest.mark.parametrize("name", ["bilateral", "reflecting", "oracle"])
def test_routes_import_only_the_base_module(name):
    # the closed forms and the oracles share only specfun, so no route checks itself
    assert set(sibling_modules(PACKAGE / f"{name}.py")) == {"specfun"}


def test_moved_names_keep_their_old_paths():
    assert bilateral.Rates is specfun.Rates
    assert oracle.WindowTooSmallError is specfun.WindowTooSmallError


def test_package_imports_no_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert "reflecting.py" in {p.name for p in sources}
    for path in sources:
        assert not any(m.split(".")[0] == "scipy" for m in imported_modules(path)), path.name


def _fresh(code):
    """Standard output of `code` run in a new interpreter that imports altbd from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    # catches a transitive import too, which the source scan above cannot see
    code = "import sys, altbd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code) == "[]"


def test_cli_import_loads_no_numpy():
    # numpy serves only the oracles, which load on first use; the battery's entry point is
    # bound on import all the same, so a wrapper set on `cli.run_verification` sees every run
    code = ("import sys, altbd.cli, altbd.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m == 'altbd.oracle'), "
            "altbd.cli.run_verification is altbd.verify.run_verification)")
    assert _fresh(code) == "[] True"


def test_oracle_names_resolve_on_first_use():
    # in a new interpreter, where nothing has imported `oracle` before the package hook does
    code = ("import sys, altbd; before = 'numpy' in sys.modules; "
            "from altbd import bilateral, oracle, reflecting, specfun; "
            "modules = (specfun, bilateral, reflecting, oracle); "
            "print(before, altbd.__all__ == [n for m in modules for n in m.__all__], "
            "all(getattr(altbd, n) is getattr(m, n) for m in modules for n in m.__all__))")
    assert _fresh(code) == "False True True"


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
    # the CLI's own source; `simulate` imports `oracle`, and with it numpy, when it runs
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
