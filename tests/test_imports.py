"""Every name a package or test module imports is used in that module, and
the package imports exactly the runtime dependencies ``pyproject.toml``
declares.

No linter is part of the toolchain, so this scans the source itself: a name
bound by ``import`` or ``from ... import`` that is never referenced again is
dead weight and hides which modules really depend on each other.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

from teayield.config import OPTIONS

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "teayield"


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
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys\nfrom math import pi, tau\n"
                   "def f() -> 'Path':\n    return sys.argv, pi\n",
                   encoding="utf-8")
    assert unused_imports(src) == ["mod.py:1: os", "mod.py:3: tau"]


# numpy is the only runtime dependency.  scipy is declared for the tests,
# which use it as an oracle; importing ``scipy.linalg`` after numpy costs
# about 28 MB of resident memory and 0.3 s on a 2-core x86-64 machine.  The
# scan reads imports at any depth, so an import inside a function counts as
# much as one at the top of a module, and
# ``test_cli.test_import_train_and_predict_load_no_scipy`` runs every command
# with scipy made unimportable.
def third_party_imports(path: Path) -> list[tuple[int, str]]:
    """The line and top-level name of each absolute import outside the
    standard library and this package, anywhere in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top != PACKAGE.name:
                found.append((node.lineno, top))
    return sorted(found)


def runtime_dependencies() -> set[str]:
    """The distribution names of the ``[project] dependencies`` in
    pyproject.toml, taken as their import names (true of numpy)."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.match(r"[A-Za-z0-9._-]+", requirement).group().lower()
            for requirement in project["dependencies"]}


def undeclared_imports(path: Path) -> list[str]:
    declared = runtime_dependencies()
    return [f"{path.name}:{line}: {name}"
            for line, name in third_party_imports(path)
            if name not in declared]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    """No module imports scipy, at module level or inside a function: every
    third-party import is a declared runtime dependency."""
    assert undeclared_imports(path) == []


def test_every_runtime_dependency_is_imported():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        imported |= {name for _, name in third_party_imports(path)}
    assert runtime_dependencies() <= imported


def test_the_scan_flags_a_module_level_scipy_import(tmp_path):
    """And one inside a function, a class or a ``try``.  ``scipyish`` is a
    name of its own; the standard library and the package itself are not
    third-party."""
    src = tmp_path / "mod.py"
    src.write_text("import scipy.linalg\n"
                   "import scipyish, os\n"
                   "try:\n    from scipy.special import expit\n"
                   "except ImportError:\n    pass\n"
                   "class A:\n    import numpy as np\n"
                   "def f():\n    import scipy.linalg\n"
                   "def g():\n    from teayield import cli\n"
                   "    from . import kernels\n"
                   "    import pandas\n",
                   encoding="utf-8")
    assert third_party_imports(src) == [
        (1, "scipy"), (2, "scipyish"), (4, "scipy"), (8, "numpy"),
        (10, "scipy"), (14, "pandas")]
    assert undeclared_imports(src) == [
        "mod.py:1: scipy", "mod.py:2: scipyish", "mod.py:4: scipy",
        "mod.py:10: scipy", "mod.py:14: pandas"]


# The fitted chain, ``preprocess.PreprocessState``, is the one code that
# transforms rows: ``pipeline.fit_chain`` builds each training matrix by
# replaying it, as scoring does.  So ``pipeline`` scales no column by hand.
# ``regressors`` may scale: its ridge learner standardizes its own design,
# outside the chain.
def calls_to(path: Path, forbidden: set[str]) -> list[str]:
    """Each call in the module to a function named in ``forbidden``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in forbidden:
                found.append((node.lineno, name))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


def chain_bypasses(path: Path) -> list[str]:
    """Each call in the module that transforms rows outside the chain."""
    return calls_to(path, {"apply_scaler"} if path.stem == "pipeline"
                    else set())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_rows_are_transformed_by_the_fitted_chain_alone(path):
    assert chain_bypasses(path) == []


def test_the_scan_flags_a_transform_outside_the_chain(tmp_path):
    body = ("from .preprocess import apply_scaler\n"
            "from . import preprocess\n"
            "def f(m, s):\n"
            "    m = apply_scaler(s, m)\n"
            "    return preprocess.apply_scaler(s, m)\n")
    for stem in ("pipeline", "preprocess", "cli"):
        (tmp_path / f"{stem}.py").write_text(body, encoding="utf-8")
    assert chain_bypasses(tmp_path / "pipeline.py") == [
        "pipeline.py:4: apply_scaler", "pipeline.py:5: apply_scaler"]
    assert chain_bypasses(tmp_path / "cli.py") == []
    assert chain_bypasses(tmp_path / "preprocess.py") == []


# ``EnsembleModel`` derives its weighting from its learners' errors, and the
# loader checks a stored weighting by writing the model back, so the
# weighting has one derivation site: ``serialize`` derives none.
WEIGHTING = {"resolve_weight_params", "compute_weights"}


def weighting_derivations(path: Path) -> list[str]:
    """Each call in ``serialize`` that derives the ensemble's weighting."""
    return calls_to(path, WEIGHTING if path.stem == "serialize" else set())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_model_alone_derives_its_weighting(path):
    assert weighting_derivations(path) == []


def test_the_scan_flags_a_weighting_derived_by_the_loader(tmp_path):
    body = ("from . import ensemble\n"
            "from .ensemble import resolve_weight_params\n"
            "def f(errors):\n"
            "    b, c = resolve_weight_params(errors)\n"
            "    return ensemble.compute_weights(errors, b, c)\n")
    for stem in ("serialize", "ensemble"):
        (tmp_path / f"{stem}.py").write_text(body, encoding="utf-8")
    assert weighting_derivations(tmp_path / "serialize.py") == [
        "serialize.py:4: resolve_weight_params",
        "serialize.py:5: compute_weights"]
    assert weighting_derivations(tmp_path / "ensemble.py") == []


# The model's types refuse the values no fit gives, so the loader converts
# each fact, builds the model and compares it with the document; it checks
# no value's range itself.
def range_checks(path: Path) -> list[str]:
    """Each call in ``serialize`` that checks a value is finite."""
    return calls_to(path, {"isfinite"} if path.stem == "serialize" else set())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_types_alone_check_ranges(path):
    assert range_checks(path) == []


def test_the_scan_flags_a_range_checked_by_the_loader(tmp_path):
    body = ("import math\nimport numpy as np\n"
            "def f(a, x):\n"
            "    return np.isfinite(a).all() and math.isfinite(x)\n")
    for stem in ("serialize", "regressors"):
        (tmp_path / f"{stem}.py").write_text(body, encoding="utf-8")
    assert range_checks(tmp_path / "serialize.py") == [
        "serialize.py:4: isfinite", "serialize.py:4: isfinite"]
    assert range_checks(tmp_path / "regressors.py") == []


# The fitting commands' peak memory is mostly imported code.  Two modules
# they do not need cost ``evaluate`` about 2.2 MB of it: ``multiprocessing``,
# which pulls in ``socket``, ``selectors`` and ``subprocess``, and
# ``numpy.ma``, which these numpy functions import on their first call (each
# seen in a fresh process under numpy 2.4).  So no module imports the one or
# calls the others; ``pipeline`` forks with ``os.fork``, and
# ``test_cli.test_fitting_loads_no_numpy_ma_or_multiprocessing`` runs the
# commands.
NUMPY_MA_FUNCTIONS = {"setdiff1d", "intersect1d", "union1d", "unique",
                      "percentile", "quantile", "median"}


def heavy_imports(path: Path) -> list[str]:
    """Each import of ``multiprocessing`` in the module, and each call or
    import of a numpy function that imports ``numpy.ma``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "multiprocessing"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            if top == "multiprocessing":
                found.append((node.lineno, node.module))
            elif top == "numpy":
                found += [(node.lineno, f"numpy.{alias.name}")
                          for alias in node.names
                          if alias.name in NUMPY_MA_FUNCTIONS]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in NUMPY_MA_FUNCTIONS
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{node.func.attr}"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_loads_multiprocessing_or_numpy_ma(path):
    assert heavy_imports(path) == []


def test_the_scan_flags_multiprocessing_and_numpy_ma(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import multiprocessing.pool\n"
                   "from multiprocessing import Process\n"
                   "from numpy import median, mean\n"
                   "import numpy as np\n"
                   "def f(a):\n"
                   "    import multiprocessing as mp\n"
                   "    b = np.percentile(a, 25) + np.sort(a)[0]\n"
                   "    return np.setdiff1d(a, b), a.median(), np.delete(a, 0)\n",
                   encoding="utf-8")
    assert heavy_imports(src) == [
        "mod.py:1: multiprocessing.pool", "mod.py:2: multiprocessing",
        "mod.py:3: numpy.median", "mod.py:6: multiprocessing",
        "mod.py:7: np.percentile", "mod.py:8: np.setdiff1d"]


# The reader, ``dataset``, builds every derived input column when a file is
# read: the encoded month and avg_temp.  So no other module encodes months
# or names avg_temp in code; a docstring may mention it.
def derived_column_owners(path: Path) -> list[str]:
    """Each place outside ``dataset`` that builds or names a derived column."""
    if path.stem == "dataset":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            docstrings.add(id(node.body[0].value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "encode_months":
                found.append((node.lineno, "encode_months"))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "avg_temp" in node.value and id(node) not in docstrings):
            found.append((node.lineno, "avg_temp"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_derived_columns_are_built_by_the_reader_alone(path):
    assert derived_column_owners(path) == []


def test_the_scan_flags_a_derived_column_outside_the_reader(tmp_path):
    body = ('"""Builds avg_temp."""\n'
            "from .dataset import encode_months\n"
            "def f(m, months):\n"
            '    """Reads avg_temp."""\n'
            "    names = ('a', 'avg_temp')\n"
            "    return m.column(f'{names[0]}'), encode_months(months, 'x')\n"
            "class A:\n"
            '    """avg_temp"""\n'
            "    key = 'avg_temp'\n")
    for stem in ("pipeline", "dataset"):
        (tmp_path / f"{stem}.py").write_text(body, encoding="utf-8")
    assert derived_column_owners(tmp_path / "pipeline.py") == [
        "pipeline.py:5: avg_temp", "pipeline.py:6: encode_months",
        "pipeline.py:9: avg_temp"]
    assert derived_column_owners(tmp_path / "dataset.py") == []


# ``config.OPTIONS`` is the one source of every setting a command runs with:
# the config types hold each live option's default and check its range.  A
# function takes such a setting as a required argument, since a default of
# its own would run, in a test that leaves it out, a setup no command runs.
# The same holds for the retired rows that a package constant fills, such as
# the GP's ``length_scale``.
LIVE_KEYS = {key for _, key, attr, _, _ in OPTIONS if attr is not None}
CONSTANT_KEYS = {"decay_sigma", "ridge_lambda", "patience", "signal_var",
                 "length_scale", "noise_var"}
SCANNED_KEYS = LIVE_KEYS | CONSTANT_KEYS


def shadow_defaults(path: Path) -> list[str]:
    """Each parameter of a function in the module that is named like a
    live INI key, or a retired one a package constant fills, and has a
    default."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            found += [(arg.lineno, arg.arg) for arg in defaulted
                      if arg.arg in SCANNED_KEYS]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_defaults_a_setting(path):
    assert shadow_defaults(path) == []


def test_the_scan_flags_a_default_for_a_live_option(tmp_path):
    """Positional, keyword-only and lambda parameters count, and so does a
    key retired at a package constant, such as ``length_scale``; a retired
    key such as ``iterations`` and a parameter without a default do not."""
    assert CONSTANT_KEYS <= {key for _, key, attr, _, _ in OPTIONS
                             if attr is None}
    src = tmp_path / "mod.py"
    src.write_text("def f(m, k=10, first=1):\n    pass\n"
                   "class A:\n"
                   "    def g(self, *, patience=2, seed):\n        pass\n"
                   "h = lambda threshold=0.5: threshold\n"
                   "def i(k, iterations='all'):\n    pass\n"
                   "def fit_gpr(m, signal_var, length_scale=1.0,\n"
                   "            noise_var=0.1):\n    pass\n",
                   encoding="utf-8")
    assert shadow_defaults(src) == ["mod.py:1: k", "mod.py:4: patience",
                                    "mod.py:6: threshold",
                                    "mod.py:9: length_scale",
                                    "mod.py:10: noise_var"]


# ``util`` is the one door to ``numpy.random``: ``util.generator`` makes
# every generator and ``util.derive_seed`` every seed, and ``util`` imports
# ``numpy.random`` without OpenSSL, which ``secrets`` would otherwise load
# for it (about 3.5 MB of resident memory under numpy 2.4).
def random_users(path: Path) -> list[str]:
    """Each place outside ``util`` that names or imports ``numpy.random``
    in code."""
    if path.stem == "util":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[:2] == ["numpy", "random"]]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[:2] == ["numpy", "random"]:
                found.append((node.lineno, node.module))
            elif node.module == "numpy":
                found += [(node.lineno, "numpy.random") for alias in node.names
                          if alias.name == "random"]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.random"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_util_alone_touches_numpy_random(path):
    assert random_users(path) == []


def test_the_scan_flags_numpy_random_outside_util(tmp_path):
    """Imports, calls, attribute reads and annotations count, at any depth;
    strings and other ``random`` attributes do not."""
    body = ("import numpy as np\n"
            "import numpy.random\n"
            "from numpy.random import default_rng\n"
            "from numpy import random, sort\n"
            "import random as stdlib_random\n"
            "def f(rng: np.random.Generator, seed):\n"
            "    g = np.random.default_rng(seed)\n"
            "    return numpy.random.SeedSequence(seed), g, 'np.random'\n"
            "class A:\n"
            "    gen = np.random\n"
            "    other = stdlib_random.random()\n")
    for stem in ("ensemble", "util"):
        (tmp_path / f"{stem}.py").write_text(body, encoding="utf-8")
    assert random_users(tmp_path / "ensemble.py") == [
        "ensemble.py:2: numpy.random", "ensemble.py:3: numpy.random",
        "ensemble.py:4: numpy.random", "ensemble.py:6: np.random",
        "ensemble.py:7: np.random", "ensemble.py:8: numpy.random",
        "ensemble.py:10: np.random"]
    assert random_users(tmp_path / "util.py") == []


# ``pipeline.evaluate_pipeline`` is the one owner of the BLAS thread count:
# it runs numpy's OpenBLAS at one thread in its two processes and restores
# the count after.  No other module sets it, by the library's calls or by
# the environment variable, and nothing sets it on import.
BLAS_THREAD_NAMES = ("scipy_openblas_", "OPENBLAS_NUM_THREADS")


def blas_thread_setters(path: Path) -> list[str]:
    """Each place outside ``pipeline`` that names the OpenBLAS thread calls
    or ``OPENBLAS_NUM_THREADS`` in code; a docstring may mention them."""
    if path.stem == "pipeline":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            text = node.value
        else:
            continue
        found += [(node.lineno, name) for name in BLAS_THREAD_NAMES
                  if name in text]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_pipeline_alone_sets_the_blas_threads(path):
    assert blas_thread_setters(path) == []


def test_the_scan_flags_blas_threads_set_outside_pipeline(tmp_path):
    """Names, attributes and strings count, f-strings too; docstrings and
    other names do not."""
    body = ('"""Sets OPENBLAS_NUM_THREADS."""\n'
            "import ctypes\n"
            "import os\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
            "def f(lib, op):\n"
            '    """Calls scipy_openblas_set_num_threads64_."""\n'
            "    lib.scipy_openblas_set_num_threads64_(1)\n"
            "    call = getattr(lib, f'scipy_openblas_{op}_num_threads64_')\n"
            "    scipy_openblas_get = lib.openblas_get_num_threads\n"
            "    return call, scipy_openblas_get, os.cpu_count()\n")
    for stem in ("regressors", "pipeline"):
        (tmp_path / f"{stem}.py").write_text(body, encoding="utf-8")
    assert blas_thread_setters(tmp_path / "regressors.py") == [
        "regressors.py:4: OPENBLAS_NUM_THREADS",
        "regressors.py:7: scipy_openblas_",
        "regressors.py:8: scipy_openblas_",
        "regressors.py:9: scipy_openblas_",
        "regressors.py:10: scipy_openblas_"]
    assert blas_thread_setters(tmp_path / "pipeline.py") == []
