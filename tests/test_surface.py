"""Every public function, class and method of the package has a caller in
it, and every dataclass field a reader.

A top-level ``def`` or ``class``, or a ``def`` in the body of a top-level
class, whose name does not start with an underscore is public.  It is
unused when no module of ``src/teayield`` other than ``__init__.py`` refers
to it outside its own definition: tests alone do not keep library code
alive.  A method is referred to as an attribute or by a string, never by a
bare name.  It is matched by its name alone, as fields are, so the scan can
miss a dead method that shares its name with a live attribute.  ``ALLOWED``
lists the exceptions and why each is kept.

A field of a ``@dataclass`` is read when some module of the package loads
an attribute of that name; ``getattr`` with a constant name counts as a
load.  Names are matched without types, so the scan can miss a dead field
that shares its name with a live one, but never flags a field that is read
by attribute.  ``ALLOWED_FIELDS`` lists the exceptions and why each is kept.

An entry of either list that names no function, class or field of the
package is stale, and fails the test too.

A parameter of a public top-level function is fixed when every call to
that function in the package passes it the same literal or the same
UPPER_CASE constant of the package, or leaves it at its default: it sets
nothing, and the value belongs in the function.  Calls are matched by the
function's name alone; a function that is also referred to other than by
a call, such as one handed to ``partial``, is not scanned, since its
calls cannot all be seen.  ``ALLOWED_FIXED`` lists the exceptions and
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
    "pipeline.stage_report": "the stage report in one process, the serial "
                             "run that evaluate_pipeline's two processes "
                             "reproduce bit for bit; the benchmark traces it",
    "serialize.model_to_json": "the text save_model writes, in memory; the "
                               "benchmark checks that a saved model "
                               "re-serialises to its file's bytes",
}


ALLOWED_FIELDS = {
    "preprocess.OutlierReport.leverages": "the hat-matrix diagonal, through "
                                          "which test_preprocess checks "
                                          "cooks_distance",
    "pipeline.ChainArtifacts.outliers": "the rows the chain dropped, through "
                                        "which test_pipeline checks the "
                                        "target map",
}


ALLOWED_FIXED = {
    "cli.main.argv": "tests and benchmarks/spans.py pass the command line",
    "dataset.generate_synthetic.n": "benchmarks/helper.py draws 240 and "
                                    "50,000 rows",
    "kernels.mlp_train.delta0": "benchmarks/spans.py reads max_epochs as "
                                "the tenth argument",
}


def _trees(package: Path) -> dict[str, ast.Module]:
    """The parsed modules of ``package`` by name."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(package.glob("*.py"))}


def _references(tree: ast.AST, bare: bool = True) -> Counter:
    """How often each name is referred to in ``tree``; only as an attribute
    or a string unless ``bare``."""
    used = Counter()
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used[node.value] += 1
    return used


def _definitions(trees: dict[str, ast.Module]):
    """``(module.name, node)`` for each top-level function and class, and
    ``(module.Class.name, node)`` for each function in a top-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        yield f"{module}.{node.name}.{method.name}", method


def unused_public_names(package: Path) -> list[str]:
    trees = _trees(package)
    trees.pop("__init__", None)
    everywhere = {bare: sum((_references(tree, bare)
                             for tree in trees.values()), Counter())
                  for bare in (True, False)}
    unused = []
    for name, node in _definitions(trees):
        bare = name.count(".") == 1  # not a method
        if (not node.name.startswith("_") and name not in ALLOWED
                and everywhere[bare][node.name]
                == _references(node, bare)[node.name]):
            unused.append(name)
    return unused


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded in ``tree``, by ``.name`` or ``getattr``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return ((isinstance(decorator, ast.Name) and decorator.id == "dataclass")
            or (isinstance(decorator, ast.Attribute)
                and decorator.attr == "dataclass"))


def _fields(module: str, tree: ast.Module):
    """``module.Class.field`` for each field of each dataclass in ``tree``."""
    for node in tree.body:
        if (isinstance(node, ast.ClassDef)
                and any(map(_is_dataclass, node.decorator_list))):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield f"{module}.{node.name}.{stmt.target.id}"


def unread_fields(package: Path) -> list[str]:
    trees = _trees(package)
    read = set().union(*map(_reads, trees.values()))
    return [name for module, tree in trees.items()
            for name in _fields(module, tree)
            if name.rsplit(".", 1)[1] not in read and name not in ALLOWED_FIELDS]


def _constants(trees: dict[str, ast.Module]) -> set[str]:
    """The UPPER_CASE names assigned at the top level of a module."""
    return {target.id for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(node)
            if isinstance(target, ast.Name)
            and isinstance(target.ctx, ast.Store) and target.id.isupper()}


def _fixed_text(node: ast.expr, constants: set[str]) -> str | None:
    """The source of a literal, or the name of a package constant, else
    None."""
    if isinstance(getattr(node, "operand", node), ast.Constant):  # -1 too
        return ast.unparse(node)
    name = (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in constants else None


def _call_values(call: ast.Call, fn: ast.FunctionDef,
                 constants: set[str]) -> dict[str, str | None]:
    """What ``call`` gives each named parameter of ``fn``: the text of a
    fixed value or of the default it is left at, or None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = dict(zip((a.arg for a in positional[::-1]),
                        args.defaults[::-1]))
    defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults) if d)
    unpacked = (any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg is None for kw in call.keywords))
    given = dict(zip((a.arg for a in positional), call.args))
    given.update((kw.arg, kw.value) for kw in call.keywords)
    values = {}
    for param in positional + args.kwonlyargs:
        name = param.arg
        if unpacked:
            values[name] = None
        elif name in given:
            values[name] = _fixed_text(given[name], constants)
        else:
            default = defaults.get(name)
            values[name] = None if default is None else ast.unparse(default)
    return values


def fixed_parameters(package: Path) -> list[str]:
    """``module.function.parameter`` for each fixed parameter of a public
    top-level function of ``package``."""
    trees = _trees(package)
    constants = _constants(trees)
    functions = {node.name: (module, node) for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)
                 and not node.name.startswith("_")}
    calls: dict[str, list[ast.Call]] = {name: [] for name in functions}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in calls:
                    calls[name].append(node)
    referred = sum((_references(tree) for tree in trees.values()), Counter())
    fixed = []
    for name, (module, fn) in functions.items():
        if not calls[name] or referred[name] != len(calls[name]):
            continue
        seen = [_call_values(call, fn, constants) for call in calls[name]]
        for param, value in seen[0].items():
            if value is not None and all(v[param] == value for v in seen):
                fixed.append(f"{module}.{name}.{param}")
    return sorted(set(fixed) - set(ALLOWED_FIXED))


def stale_entries(package: Path, allowed=ALLOWED,
                  allowed_fields=ALLOWED_FIELDS,
                  allowed_fixed=ALLOWED_FIXED) -> list[str]:
    """The allow-list entries that name no top-level function or class, or
    method of one, no dataclass field, or no parameter of a top-level
    function, of ``package``."""
    trees = _trees(package)
    names = {name for name, _ in _definitions(trees)}
    fields = {name for module, tree in trees.items()
              for name in _fields(module, tree)}
    params = {f"{module}.{node.name}.{arg.arg}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef)
              for arg in node.args.posonlyargs + node.args.args
              + node.args.kwonlyargs}
    return sorted((set(allowed) - names) | (set(allowed_fields) - fields)
                  | (set(allowed_fixed) - params))


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


def test_the_scan_flags_an_uncalled_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Point:\n"
        "    def norm(self):\n        return abs(self.x)\n\n"
        "    @property\n    def size(self):\n        return self.norm()\n\n"
        "    def shift(self, d):\n"
        "        return self.shift(d - 1) if d else 0\n\n"
        "    def unused(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def __repr__(self):\n        return 'Point'\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import Point\n\n"
        "def main(unused):\n    return Point().size, unused\n",
        encoding="utf-8")
    assert unused_public_names(tmp_path) == [
        "a.Point.shift", "a.Point.unused", "b.main"]


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


def test_no_parameter_is_fixed_by_every_caller():
    assert fixed_parameters(PACKAGE) == []


def test_the_scan_flags_a_fixed_parameter(tmp_path):
    """A literal, a constant by name or through its module, and a default
    left alone are fixed values, and a variable is not; literals that differ
    in sign differ.  A function also referred to as a value, a private one
    and one no call reaches are not scanned."""
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n"
        "def f(m, k, scale=1.0, *, mode='a'):\n    pass\n\n"
        "def g(x, y=2):\n    pass\n\n"
        "def h(v):\n    pass\n\n"
        "def ridge(x, lam):\n    pass\n\n"
        "def _private(z):\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from functools import partial\n"
        "from . import a\n"
        "from .a import LIMIT, f, g, h, ridge\n\n"
        "def main(m, n, rest):\n"
        "    f(m, 10, mode='a')\n    a.f(n, k=10)\n"
        "    g(n, LIMIT)\n    g(m, a.LIMIT)\n"
        "    h(1)\n    h(-1)\n"
        "    ridge(m, 0.1)\n    partial(ridge, lam=0.1)\n"
        "    a._private(1)\n    a._private(1)\n", encoding="utf-8")
    assert fixed_parameters(tmp_path) == ["a.f.k", "a.f.mode", "a.f.scale",
                                          "a.g.y"]


def test_no_allow_list_entry_is_stale():
    assert stale_entries(PACKAGE) == []


def test_the_scan_flags_a_stale_entry(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n"
        "def kept(m):\n    pass\n\n"
        "@dataclass\n"
        "class Point:\n    x: float\n\n"
        "    def norm(self):\n        pass\n\n"
        "class Plain:\n    y: int\n", encoding="utf-8")
    allowed = {"a.kept": "", "a.Point": "", "a.gone": "", "b.kept": "",
               "a.Point.norm": "", "a.Point.gone": ""}
    fields = {"a.Point.x": "", "a.Point.z": "", "a.Plain.y": "",
              "a.kept": ""}
    fixed = {"a.kept.m": "", "a.kept.gone": "", "a.Point.norm.self": ""}
    assert stale_entries(tmp_path, allowed, fields, fixed) == [
        "a.Plain.y", "a.Point.gone", "a.Point.norm.self", "a.Point.z",
        "a.gone", "a.kept", "a.kept.gone", "b.kept"]
