"""Source hygiene: every module-level import in the package and in the tests
is used, and no function imports anything (imports live at the top of the
module).

The package's ``__init__.py`` is exempt: its imports are the package's public
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bayesmeta"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")))


def _bound_names(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound_names(node) if name not in used]
    assert unused == [], f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text())
    local = [f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == [], f"{path.name}: imports inside functions at {local}"
