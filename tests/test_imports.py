"""Every name a package module imports is used in that module, and no
module imports scipy when it is itself imported.

No linter is part of the toolchain, so this scans the source itself: a name
bound by ``import`` or ``from ... import`` that is never referenced again is
dead weight and hides which modules really depend on each other.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "teayield"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            # A quoted annotation such as "FeatureMatrix", or an __all__ entry.
            used.add(node.value)
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree).items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys\nfrom math import pi, tau\n"
                   "def f() -> 'Path':\n    return sys.argv, pi\n",
                   encoding="utf-8")
    assert unused_imports(src) == ["mod.py:1: os", "mod.py:3: tau"]


# scipy costs about 0.4 s and 30 MB to import, and only the GP regressor
# uses it, so the package imports it inside the functions that call it:
# importing ``teayield.cli``, training and predicting load no scipy module
# (``test_cli.test_import_train_and_predict_load_no_scipy`` runs them).
def module_level_scipy_imports(path: Path) -> list[str]:
    """``import scipy...`` and ``from scipy... import`` statements that run
    when the module is imported: any outside a function body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            if any(name.split(".")[0] == "scipy" for name in modules):
                found.append(f"{path.name}:{child.lineno}")
            visit(child)

    visit(tree)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path) == []


def test_the_scan_flags_a_module_level_scipy_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.linalg\n"
                   "import scipyish, os\n"
                   "try:\n    from scipy.special import expit\n"
                   "except ImportError:\n    pass\n"
                   "class A:\n    import scipy as sp\n"
                   "    def f(self):\n        import scipy.linalg\n"
                   "def g():\n    from scipy import linalg\n"
                   "h = lambda: __import__('scipy')\n",
                   encoding="utf-8")
    assert module_level_scipy_imports(src) == ["mod.py:1", "mod.py:4",
                                               "mod.py:8"]
