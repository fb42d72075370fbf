import csv

import pytest

from teayield.cli import main
from teayield.config import render_config
from teayield.serialize import load_model

from conftest import tiny_config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny config and a synthetic data file written by ``synth``."""
    work = tmp_path_factory.mktemp("cli")
    (work / "tiny.ini").write_text(render_config(tiny_config()),
                                   encoding="utf-8")
    assert main(["synth", "--config", str(work / "tiny.ini"),
                 "--out", str(work / "data.csv")]) == 0
    return work


def test_inspect_accepts_a_synth_file(workdir):
    out = workdir / "inspect"
    assert main(["inspect", "--data", str(workdir / "data.csv"),
                 "--config", str(workdir / "tiny.ini"), "--out", str(out)]) == 0
    assert (out / "correlation.csv").is_file()
    assert (out / "outliers.csv").is_file()


def test_train_creates_the_model_directory(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert main(["train", "--data", "data.csv", "--config", "tiny.ini",
                 "--model", "nodir/m.json"]) == 0
    assert len(load_model(workdir / "nodir" / "m.json").learners) >= 1
    assert (workdir / "nodir" / "pool_report.csv").is_file()


def test_predict_scores_rows_without_a_yield_column(workdir):
    data, no_yield = workdir / "data.csv", workdir / "no_yield.csv"
    with open(data, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("yield")
    with open(no_yield, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([c for j, c in enumerate(row) if j != drop]
                                 for row in rows)
    model = workdir / "model" / "m.json"
    cfg = ["--config", str(workdir / "tiny.ini")]
    assert main(["train", "--data", str(data), "--model", str(model)] + cfg) == 0
    for name, source in (("with.csv", data), ("without.csv", no_yield)):
        assert main(["predict", "--data", str(source), "--model", str(model),
                     "--out", str(workdir / name)] + cfg) == 0
    with_yield = (workdir / "with.csv").read_text(encoding="utf-8")
    assert (workdir / "without.csv").read_text(encoding="utf-8") == with_yield
    assert len(with_yield.splitlines()) == len(rows)
    assert main(["train", "--data", str(no_yield),
                 "--model", str(workdir / "other" / "m.json")] + cfg) == 1
    assert main(["evaluate", "--data", str(no_yield),
                 "--out", str(workdir / "eval")] + cfg) == 1
