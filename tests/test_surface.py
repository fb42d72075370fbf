"""Every public function and class of the package has a caller in it.

A top-level ``def`` or ``class`` whose name does not start with an
underscore is public.  It is unused when no module of ``src/teayield``
other than ``__init__.py`` refers to it outside its own definition: tests
alone do not keep library code alive.  ``ALLOWED`` lists the exceptions and
why each is kept.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from test_imports import PACKAGE

ALLOWED = {
    "cli.main": "the entry point of the teayield command",
    "config.render_config": "the inverse of load_config; the benchmark's "
                            "bench.ini is its output",
    "regressors.predict_gpr": "the GP posterior variance, through which the "
                              "tests check fit_gpr's Cholesky factor",
}


def _references(tree: ast.AST) -> Counter:
    """How often each name is referred to in ``tree``."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used[node.value] += 1
    return used


def unused_public_names(package: Path) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    everywhere = sum(map(_references, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and f"{module}.{node.name}" not in ALLOWED
                    and everywhere[node.name] == _references(node)[node.name]):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names(PACKAGE) == []


def test_the_scan_flags_an_uncalled_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Quoted:\n    pass\n\n"
        "def _private():\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n"
        "def main() -> 'Quoted':\n    return a.used()\n", encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .a import recursive\n",
                                          encoding="utf-8")
    assert unused_public_names(tmp_path) == ["a.recursive", "b.main"]
