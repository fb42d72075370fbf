"""Every public function and class of the package has a caller in it, and
every dataclass field a reader.

A top-level ``def`` or ``class`` whose name does not start with an
underscore is public.  It is unused when no module of ``src/teayield``
other than ``__init__.py`` refers to it outside its own definition: tests
alone do not keep library code alive.  ``ALLOWED`` lists the exceptions and
why each is kept.

A field of a ``@dataclass`` is read when some module of the package loads
an attribute of that name, or holds it as a string (the config table names
fields by string).  Names are matched without types, so the scan can miss a
dead field that shares its name with a live one, but never flags a field
that is read.  ``ALLOWED_FIELDS`` lists the exceptions and why each is kept.
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


ALLOWED_FIELDS = {
    "preprocess.OutlierReport.leverages": "the hat-matrix diagonal, through "
                                          "which test_preprocess checks "
                                          "cooks_distance",
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


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded in ``tree``, and identifier-like strings."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            read.add(node.value)
    return read


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return ((isinstance(decorator, ast.Name) and decorator.id == "dataclass")
            or (isinstance(decorator, ast.Attribute)
                and decorator.attr == "dataclass"))


def unread_fields(package: Path) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(package.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass, node.decorator_list))):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    name = f"{module}.{node.name}.{stmt.target.id}"
                    if stmt.target.id not in read and name not in ALLOWED_FIELDS:
                        unread.append(name)
    return unread


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


def test_every_dataclass_field_is_read():
    assert unread_fields(PACKAGE) == []


def test_the_scan_flags_an_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n    x: float\n    y: float\n    label: str\n"
        "    note: str = ''\n\n"
        "    def norm(self):\n        return abs(self.x)\n\n"
        "class Plain:\n    unread: int\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import dataclasses\n\n"
        "@dataclasses.dataclass\n"
        "class Box:\n    size: int\n    color: str\n\n"
        "def make(p):\n    p.note = 'set, not read'\n"
        "    return getattr(p, 'label'), Box(1, 'red').size\n",
        encoding="utf-8")
    assert unread_fields(tmp_path) == ["a.Point.y", "a.Point.note",
                                       "b.Box.color"]
