import csv
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from teayield.cli import main
from teayield.config import render_config
from teayield.serialize import load_model

from conftest import corrupt_model_doc, csv_edits, mutate_csv, tiny_config


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


def test_predict_creates_the_output_directory(workdir, model_doc, capsys):
    """The predictions go straight to ``--out``, or to stdout, with the same
    bytes either way."""
    args = ["predict", "--data", str(workdir / "data.csv"),
            "--model", str(workdir / "trained" / "m.json"),
            "--config", str(workdir / "tiny.ini")]
    capsys.readouterr()
    assert main(args) == 0
    stdout = capsys.readouterr().out
    out = workdir / "predict_nodir" / "p.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode("utf-8")
    assert stdout.startswith("row,prediction\n0,")


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


@pytest.fixture(scope="module")
def model_doc(workdir):
    """The JSON document of a model trained on the synth file."""
    model = workdir / "trained" / "m.json"
    assert main(["train", "--data", str(workdir / "data.csv"),
                 "--model", str(model),
                 "--config", str(workdir / "tiny.ini")]) == 0
    return model.read_text(encoding="utf-8")


FIRST_MLP = ("learners", 0, "mlp")
CORRUPTIONS = {
    "b_hidden of length 1": (FIRST_MLP, "b_hidden", lambda a: a[:1]),
    "scaler means of length 1": (("preprocess", "scaler"), "means",
                                 lambda a: a[:1]),
    "w_out shorter than hidden_size": (FIRST_MLP, "w_out", lambda a: a[:-1]),
    "string b_out": (FIRST_MLP, "b_out", "0.5"),
    "NaN target_scale": (("preprocess",), "target_scale", float("nan")),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_predict_rejects_corrupt_model_arrays(workdir, model_doc, corruption,
                                              capsys):
    doc = json.loads(model_doc)
    corrupt_model_doc(doc, *CORRUPTIONS[corruption])
    bad = workdir / "trained" / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["predict", "--data", str(workdir / "data.csv"),
                 "--model", str(bad), "--out", str(workdir / "bad.csv"),
                 "--config", str(workdir / "tiny.ini")]) == 1
    assert "corrupt model document" in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["config", "data", "data, listed columns",
                                      "model"])
def test_non_utf8_input_exits_1_naming_the_file(workdir, model_doc, bad_file,
                                                capsys):
    """One 0xff byte in any input file is a user error, not an internal one.

    With ``feature_columns = auto`` the data file's header is read for its
    column names before the rows are loaded; with the columns listed in the
    config only the row loader reads the file.
    """
    listed = workdir / "listed.ini"
    extras = ("distractor_1", "distractor_2", "distractor_3")
    listed.write_text(render_config(replace(tiny_config(),
                                            feature_columns=extras)),
                      encoding="utf-8")
    files = {"config": workdir / "tiny.ini", "data": workdir / "data.csv",
             "model": workdir / "trained" / "m.json"}
    if bad_file == "data, listed columns":
        bad_file, files["config"] = "data", listed
    bad = workdir / f"non_utf8_{files[bad_file].name}"
    bad.write_bytes(b"\xff" + files[bad_file].read_bytes())
    files[bad_file] = bad
    capsys.readouterr()
    assert main(["predict", "--data", str(files["data"]),
                 "--model", str(files["model"]),
                 "--config", str(files["config"]),
                 "--out", str(workdir / "non_utf8.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


@given(edits=csv_edits())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_predict_on_mutated_data_exits_0_or_1(workdir, model_doc, edits,
                                              capsys):
    data = workdir / "mutated.csv"
    data.write_bytes(mutate_csv((workdir / "data.csv").read_text(
        encoding="utf-8"), edits))
    code = main(["predict", "--data", str(data),
                 "--model", str(workdir / "trained" / "m.json"),
                 "--config", str(workdir / "tiny.ini"),
                 "--out", str(workdir / "mutated_predictions.csv")])
    assert code in (0, 1), capsys.readouterr().err
