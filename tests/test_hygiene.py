"""Source hygiene: every module-level import in the package and in the tests
is used, no function imports anything (imports live at the top of the
module), and each oracle keeps one gradient path.

The package's ``__init__.py`` is exempt: its imports are the package's public
re-exports.
"""

import ast
from pathlib import Path

import pytest

from bayesmeta.models import LinearGaussianModel, MLPModel

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


def test_models_keep_one_gradient_path():
    # GradientOracle holds nll_grad and the batching; a model defines only
    # its stack and its stacked formula (_stack, _stacked_grad)
    for cls in (LinearGaussianModel, MLPModel):
        forked = {"nll_grad", "batch_nll_grad"} & set(vars(cls))
        assert not forked, f"{cls.__name__} defines {sorted(forked)}"
