"""Span recording for the traced benchmark run, applied from outside the package.

Run as a script, it is a drop-in for ``python -m teayield.cli``:

    python3 benchmarks/spans.py SPANS.json train --data ... --model ...

It wraps the public functions listed in ``LAYERS`` at every module that calls
them, runs ``teayield.cli.main`` under one root span, and writes every span
(name, start, end, parent, counts) to ``SPANS.json``.  Callers bind these
functions by name at import time (``from .regressors import fit_mlp``), so
each wrapper is installed in the calling modules, not only where the
function is defined.  ``kernels.mlp_forward`` and ``kernels.mlp_loss_grads``
are never wrapped: they run once per epoch inside ``kernels.mlp_train`` and a
span around each would swamp the kernel being measured.

``layer_metrics`` turns the spans of one or more traced commands into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _mlp_train_counts(args, result) -> dict:
    # Matmul flops per epoch, from the array shapes: X@W1 and X.T@dZ1 on the
    # fit rows, the three length-h products of backprop, and the forward pass
    # on the early-stopping shard.  Elementwise work (tanh, updates) is not
    # counted, so gflop_per_s is a computed lower bound on work done.
    x, xv, w1, max_epochs = args[0], args[2], args[4], args[9]
    n, f = x.shape
    nv, h = xv.shape[0], w1.shape[1]
    epochs = int(result[5])
    per_epoch = 4 * n * f * h + 5 * n * h + 2 * nv * (f * h + h)
    return {"epochs": epochs, "early_stops": int(epochs < max_epochs),
            "flop": epochs * per_epoch}


# layer name -> (modules that call it by name, counts from (args, result)).
# The layer name is "<defining module>.<function>".
LAYERS = {
    "kernels.mlp_train": (("kernels",), _mlp_train_counts),
    "kernels.relief_accumulate": (
        ("kernels",), lambda a, r: {"instances": len(a[2])}),
    "regressors.fit_mlp": (("regressors", "ensemble", "pipeline"), None),
    "regressors.predict": (
        ("regressors", "ensemble"), lambda a, r: {"rows": a[1].n_samples}),
    "regressors.fit_ols": (("regressors",), None),
    "regressors.fit_gpr": (("regressors",), None),
    "evaluation.cross_validate": (("feature_select", "pipeline"), None),
    "feature_select.rrelieff": (("ensemble", "pipeline"), None),
    "feature_select.sequential_forward_select": (
        ("pipeline",), lambda a, r: {"prefixes": len(r.trace)}),
    "preprocess.cooks_distance": (
        ("pipeline", "cli"), lambda a, r: {"rows_flagged": len(r.flagged)}),
    "pipeline.fit_chain": (("pipeline",), None),
    "pipeline.stage_report": (("pipeline",), None),
    "ensemble.train_pool": (("pipeline",), None),
    "ensemble.select_learners": (
        ("pipeline",), lambda a, r: {"prefixes": len(r.trace),
                                     "selected": len(r.selected_positions)}),
    "ensemble.predict_ensemble": (
        ("pipeline", "cli"), lambda a, r: {"rows": a[1].n_samples}),
    "dataset.load_csv": (("cli",), lambda a, r: {"rows": r.n_samples}),
    "serialize.load_model": (("cli",), None),
    "serialize.save_model": (("cli",), None),
}


class Recorder:
    """In-memory spans of one process: [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, result)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every layer in every calling module; return what was missing."""
        missing = []
        for name, (callers, counts) in LAYERS.items():
            home, func = name.split(".")
            original = getattr(importlib.import_module(f"teayield.{home}"),
                               func, None)
            if original is None:
                missing.append(name)
                continue
            traced = self.wrap(name, original, counts)
            for caller in callers:
                module = importlib.import_module(f"teayield.{caller}")
                if getattr(module, func, None) is original:
                    setattr(module, func, traced)
                else:
                    missing.append(f"{caller}.{func}")
        return missing


def _children(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def _under(spans, i: int, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(traces) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span lists of one or more traced commands.

    ``s`` is inclusive time, ``self_s`` excludes time in wrapped children
    (calls are single-threaded, so children never overlap).  Values are
    (number, unit) pairs.
    """
    wall = 0.0
    calls: dict[str, int] = {name: 0 for name in LAYERS}
    total: dict[str, float] = {name: 0.0 for name in LAYERS}
    own: dict[str, float] = {name: 0.0 for name in LAYERS}
    counts: dict[str, dict[str, float]] = {name: {} for name in LAYERS}
    fits = {"ensemble.train_pool": 0, "ensemble.select_learners": 0}
    for spans in traces:
        kids = _children(spans)
        for i, (name, start, end, _, got) in enumerate(spans):
            if name == "cli.main":
                wall += end - start
            if name not in LAYERS:
                continue
            duration = end - start
            calls[name] += 1
            total[name] += duration
            own[name] += duration - sum(spans[k][2] - spans[k][1]
                                        for k in kids[i])
            for key, value in got.items():
                counts[name][key] = counts[name].get(key, 0) + value
            if name == "regressors.fit_mlp":
                for stage in fits:
                    if _under(spans, i, stage):
                        fits[stage] += 1

    def count(name, key):
        return counts[name].get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    kernel = "kernels.mlp_train"
    epochs = count(kernel, "epochs")
    selected = count("ensemble.select_learners", "selected")
    out = {
        "kernels.mlp_train.calls": (calls[kernel], "count"),
        "kernels.mlp_train.epochs": (epochs, "count"),
        "kernels.mlp_train.self_s": (own[kernel], "s"),
        "kernels.mlp_train.us_per_epoch": (ratio(own[kernel] * 1e6, epochs), "us"),
        "kernels.mlp_train.early_stop_ratio": (
            ratio(count(kernel, "early_stops"), calls[kernel]), "ratio"),
        "kernels.mlp_train.gflop_per_s": (
            ratio(count(kernel, "flop") / 1e9, own[kernel]), "GFLOP/s"),
        "ensemble.select_learners.s": (total["ensemble.select_learners"], "s"),
        "ensemble.select_learners.fits": (fits["ensemble.select_learners"], "count"),
        "ensemble.select_learners.prefixes": (
            count("ensemble.select_learners", "prefixes"), "count"),
        "ensemble.select_learners.selected": (selected, "count"),
        "ensemble.train_pool.s": (total["ensemble.train_pool"], "s"),
        "ensemble.train_pool.fits": (fits["ensemble.train_pool"], "count"),
        "ensemble.pool_used_ratio": (
            ratio(selected, fits["ensemble.train_pool"]), "ratio"),
        "kernels.relief_accumulate.self_s": (own["kernels.relief_accumulate"], "s"),
        "kernels.relief_accumulate.us_per_instance": (
            ratio(own["kernels.relief_accumulate"] * 1e6,
                  count("kernels.relief_accumulate", "instances")), "us"),
        "feature_select.sequential_forward_select.prefixes": (
            count("feature_select.sequential_forward_select", "prefixes"), "count"),
        "preprocess.cooks_distance.rows_flagged": (
            count("preprocess.cooks_distance", "rows_flagged"), "count"),
        "pipeline.fit_chain.calls": (calls["pipeline.fit_chain"], "count"),
        # Layers that only `evaluate` runs report a share of the traced wall
        # time, so that workloads without them read 0 and not a zero time.
        "pipeline.stage_report.calls": (calls["pipeline.stage_report"], "count"),
        "pipeline.stage_report.share": (
            ratio(total["pipeline.stage_report"], wall), "ratio"),
        "regressors.fit_gpr.calls": (calls["regressors.fit_gpr"], "count"),
        "regressors.fit_gpr.share": (
            ratio(total["regressors.fit_gpr"], wall), "ratio"),
        "regressors.fit_mlp.self_s": (own["regressors.fit_mlp"], "s"),
        "regressors.predict.rows": (count("regressors.predict", "rows"), "count"),
        "dataset.load_csv.s": (total["dataset.load_csv"], "s"),
        "dataset.load_csv.rows_per_s": (
            ratio(count("dataset.load_csv", "rows"), total["dataset.load_csv"]),
            "1/s"),
        "ensemble.predict_ensemble.us_per_row": (
            ratio(total["ensemble.predict_ensemble"] * 1e6,
                  count("ensemble.predict_ensemble", "rows")), "us"),
        "serialize.load_model.s": (total["serialize.load_model"], "s"),
        "serialize.save_model.s": (total["serialize.save_model"], "s"),
    }
    for name in ("feature_select.rrelieff",
                 "feature_select.sequential_forward_select",
                 "regressors.fit_ols", "evaluation.cross_validate",
                 "preprocess.cooks_distance", "regressors.predict"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (total[name], "s")
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = recorder.install()
    if missing:
        print(f"spans: not wrapped: {', '.join(missing)}", file=sys.stderr)
    from teayield import cli
    status = recorder.wrap("cli.main", cli.main)(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
