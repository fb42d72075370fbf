"""Every layer the benchmark traces is still bound where it is called, and
called only where it is bound.

``benchmarks/spans.py`` wraps each function in ``LAYERS`` in its defining
module and in every module listed as a caller; a caller that no longer binds
the same function is skipped, and a call made from a module not listed runs
unwrapped.  Either way its per-layer metrics silently read 0.  This checks
the bindings by import and identity, and the calls by scanning the source,
without installing a wrapper or running a command.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util

from test_imports import PACKAGE

SPANS = PACKAGE.parent.parent / "benchmarks" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def unbound_layers() -> list[str]:
    """The layers, and the ``caller.function`` pairs, the tracer would miss."""
    missing = []
    for name, (callers, _) in _layers().items():
        home, func = name.split(".")
        original = getattr(importlib.import_module(f"teayield.{home}"), func,
                           None)
        if original is None:
            missing.append(name)
            continue
        missing += [f"{caller}.{func}" for caller in callers
                    if getattr(importlib.import_module(f"teayield.{caller}"),
                               func, None) is not original]
    return missing


def test_every_traced_layer_is_bound_by_its_callers():
    # pipeline trains its stage-report networks through
    # regressors.mlp_predictions, not by calling fit_mlp, and cross-validates
    # only through feature_select's search (the stage report refits its chain
    # in each fold and never called cross_validate), but spans.py still lists
    # it as a caller of both.
    assert unbound_layers() == ["pipeline.fit_mlp", "pipeline.cross_validate"]


def untraced_calls(sources: dict[str, str]) -> list[str]:
    """Each call in ``sources``, module name to text, of a function in
    ``LAYERS`` that the tracer would not see: a call by bare name from a
    module not listed as a caller, or a ``home.func`` call whose defining
    module is not listed."""
    layers = {}
    for name, (callers, _) in _layers().items():
        home, func = name.split(".")
        layers[func] = (home, callers)
    found = []
    for module, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            call = node.func
            if isinstance(call, ast.Name) and call.id in layers:
                func, via = call.id, module
            elif (isinstance(call, ast.Attribute)
                  and isinstance(call.value, ast.Name)
                  and call.attr in layers
                  and call.value.id == layers[call.attr][0]):
                func, via = call.attr, call.value.id
            else:
                continue
            if via not in layers[func][1]:
                found.append(f"{module}.py:{node.lineno}: {func}")
    return found


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_traced_layer_is_called_from_its_callers():
    assert untraced_calls(_package_sources()) == []


def test_the_scan_flags_a_call_from_an_unlisted_module():
    # regressors.fit_ols is wrapped in regressors, where the call looks it
    # up; a bare fit_ols in pipeline or ensemble is not wrapped.
    sources = _package_sources()
    line = sources["pipeline"].count("\n") + 3
    sources["pipeline"] += ("def planted(m):\n"
                            "    regressors.fit_ols(m)\n"
                            "    return fit_ols(m)\n")
    sources["ensemble"] = "def planted(m):\n    return fit_ols(m)\n"
    assert untraced_calls(sources) == ["ensemble.py:2: fit_ols",
                                       f"pipeline.py:{line}: fit_ols"]
