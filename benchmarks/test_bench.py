"""Self-tests of the benchmark: the committed config and the traced run.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import run  # noqa: E402
from conftest import bench_config  # noqa: E402
from spans import layer_metrics  # noqa: E402
from teayield import ensemble  # noqa: E402
from teayield.config import load_config, render_config  # noqa: E402
from teayield.dataset import SyntheticSpec, generate_synthetic  # noqa: E402
from teayield.pipeline import train_ensemble_pipeline  # noqa: E402
from teayield.serialize import model_to_json  # noqa: E402


def test_committed_config_is_bench_config():
    assert load_config(run.CONFIG) == bench_config()
    assert run.CONFIG.read_text(encoding="utf-8") == render_config(bench_config())


def tiny_config():
    base = bench_config()
    mlp = replace(base.mlp, epochs=50)
    return replace(base, mlp=mlp, ensemble=replace(
        base.ensemble, pool_size=3, mlp=replace(mlp, hidden_size=5)))


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced train-and-predict on the tiny config."""
    work = tmp_path_factory.mktemp("bench")
    config = work / "tiny.ini"
    config.write_text(render_config(tiny_config()), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "CONFIG", config)
        mp.setattr(run, "FRESH_ROWS", 2_000)
        runner = run.Runner(ROOT, work)
        inputs = run.Inputs(runner, work, "canonical-train", 3)
        plain = run.Pass(runner, inputs, work / "plain", traced=False)
        traced = run.Pass(runner, inputs, work / "traced", traced=True)
    spans = json.loads((work / "traced" / "spans_train.json").read_text())["spans"]
    return plain, traced, layer_metrics([spans])


@pytest.fixture(scope="module")
def in_process():
    """The same training run in this process, recording each fit's epochs."""
    epochs = []
    original = ensemble.fit_mlp

    def counting(*args, **kwargs):
        model = original(*args, **kwargs)
        epochs.append(model.epochs_run)
        return model

    data = generate_synthetic(120, run.TRAIN_DATA_SEED, SyntheticSpec.canonical())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "fit_mlp", counting)
        result = train_ensemble_pipeline(data, tiny_config())
    return result, epochs


def test_traced_run_gives_the_untraced_outputs(tiny_runs, in_process):
    plain, traced, _ = tiny_runs
    for run_ in (plain, traced):
        assert {k: c.status for k, c in run_.children.items()} == {
            "train": 0, "predict": 0}
        assert run_.failures == []
    assert plain.digests["model"] is not None
    assert plain.digests["predictions"] is not None
    assert traced.digests == plain.digests
    result, _ = in_process
    expected = hashlib.sha256(model_to_json(result.model).encode()).hexdigest()
    assert plain.digests["model"] == expected


def test_traced_epochs_are_the_returned_epochs(tiny_runs, in_process):
    _, _, layers = tiny_runs
    _, epochs = in_process
    assert layers["kernels.mlp_train.epochs"][0] == sum(epochs)
    assert layers["kernels.mlp_train.calls"][0] == len(epochs)


def test_fit_counts_are_pool_plus_fold_refits(tiny_runs, in_process):
    _, _, layers = tiny_runs
    result, epochs = in_process
    cfg = tiny_config()
    refits = cfg.cv_folds * len(result.pool_report.trace)
    assert layers["ensemble.train_pool.fits"][0] == cfg.ensemble.pool_size
    assert layers["ensemble.select_learners.fits"][0] == refits
    assert layers["ensemble.select_learners.prefixes"][0] == len(result.pool_report.trace)
    assert layers["kernels.mlp_train.calls"][0] == cfg.ensemble.pool_size + refits
    assert len(epochs) == cfg.ensemble.pool_size + refits
