import ast
from pathlib import Path

import altbd

PACKAGE = Path(altbd.__file__).parent


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_scipy_only_for_quadrature():
    sources = sorted(PACKAGE.glob("*.py"))
    assert "reflecting.py" in {p.name for p in sources}
    for path in sources:
        scipy = {m for m in imported_modules(path) if m.split(".")[0] == "scipy"}
        assert scipy <= {"scipy.integrate"}, path.name


def test_battery_does_not_need_click():
    assert not any(m.split(".")[0] == "click" for m in imported_modules(PACKAGE / "verify.py"))


def test_closed_forms_do_not_need_numpy():
    # numpy serves only the oracles and the CLI's grids
    for name in ("specfun.py", "bilateral.py", "reflecting.py", "verify.py"):
        assert not any(m.split(".")[0] == "numpy" for m in imported_modules(PACKAGE / name)), name
