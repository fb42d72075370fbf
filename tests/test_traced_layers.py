"""Every layer the benchmark traces is still bound where it is called.

``benchmarks/spans.py`` wraps each function in ``LAYERS`` in its defining
module and in every module listed as a caller; a caller that no longer binds
the same function is skipped, and its per-layer metrics silently read 0.
This checks the bindings by import and identity alone, without installing a
wrapper or running a command.
"""

from __future__ import annotations

import importlib
import importlib.util

from test_imports import PACKAGE

SPANS = PACKAGE.parent.parent / "benchmarks" / "spans.py"


def unbound_layers() -> list[str]:
    """The layers, and the ``caller.function`` pairs, the tracer would miss."""
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, (callers, _) in spans.LAYERS.items():
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
    # pipeline trains its networks through regressors.make_mlp_factory, not
    # by calling fit_mlp, but spans.py still lists it as a caller.
    assert unbound_layers() == ["pipeline.fit_mlp"]
