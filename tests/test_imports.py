"""Every name a package module imports is used in that module.

No linter is part of the toolchain, so this scans the source itself: a name
bound by ``import`` or ``from ... import`` that is never referenced again is
dead weight and hides which modules really depend on each other.
``__init__.py`` is skipped because its imports are the package's re-exports.
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
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys\nfrom math import pi, tau\n"
                   "def f() -> 'Path':\n    return sys.argv, pi\n",
                   encoding="utf-8")
    assert unused_imports(src) == ["mod.py:1: os", "mod.py:3: tau"]
