import configparser
import csv
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teayield import cli, ensemble
from teayield.cli import main
from teayield.config import render_config
from teayield.dataset import (SyntheticSpec, generate_synthetic, load_csv,
                              render_csv, write_csv)
from teayield.ensemble import (SCORE_BLOCK, BaseLearner, EnsembleModel,
                               compute_weights, predict_ensemble)
from teayield.errors import DataError
from teayield.preprocess import PreprocessState, ScalerState
from teayield.regressors import MLPModel, MLPTrainConfig
from teayield.serialize import load_model, save_model
from teayield.util import write_table

from conftest import (block_sizes, corrupt_model_doc, csv_edits, mutate_csv,
                      tiny_config, with_blank_lines)
from test_imports import PACKAGE


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


@pytest.mark.parametrize("args,seed", [([], 42), (["--seed", "7"], 7)])
def test_synth_writes_the_canonical_set(capsys, args, seed):
    """120 rows of the canonical generator spec, at the default config's
    seed or the one given."""
    assert main(["synth", *args]) == 0
    assert capsys.readouterr().out == render_csv(
        generate_synthetic(120, seed, SyntheticSpec.canonical()))


def test_synth_refuses_a_config_that_reshapes_the_data(workdir, capsys):
    config = workdir / "noisy.ini"
    config.write_text((workdir / "tiny.ini").read_text(encoding="utf-8")
                      .replace("noise_scale = 0.16\n", "noise_scale = 0.3\n"),
                      encoding="utf-8")
    out = workdir / "noisy.csv"
    capsys.readouterr()
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: [synth] noise_scale: retired option; it may only "
        "be 0.16, got '0.3'\n")
    assert not out.exists()


def test_synth_creates_the_output_directory(workdir):
    out = workdir / "synth_nodir" / "s.csv"
    assert main(["synth", "--config", str(workdir / "tiny.ini"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workdir / "data.csv").read_bytes()


# Output arguments that cannot be written, each the last argument: a path
# below a regular file, or a file path that is an existing directory.
UNWRITABLE = {
    "synth into a directory": ["synth", "--out", "{dir}"],
    "inspect below a file": ["inspect", "--data", "{data}",
                             "--out", "{file}/x"],
    "train a model into a directory": ["train", "--data", "{data}",
                                       "--model", "{dir}"],
    "train a model below a file": ["train", "--data", "{data}",
                                   "--model", "{file}/m.json"],
    "train reports below a file": ["train", "--data", "{data}",
                                   "--model", "{dir}/m.json",
                                   "--out", "{file}/r"],
    "evaluate below a file": ["evaluate", "--data", "{data}",
                              "--out", "{file}/x"],
    "predict below a file": ["predict", "--data", "{data}",
                             "--model", "{model}", "--out", "{file}/p.csv"],
    "predict into a directory": ["predict", "--data", "{data}",
                                 "--model", "{model}", "--out", "{dir}"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_exits_1_before_any_work(workdir, model_doc, case,
                                                   tmp_path, capsys):
    """The path is checked before the command trains or scores, and the
    error names it; nothing is written."""
    places = {"data": workdir / "data.csv", "dir": tmp_path / "existing",
              "file": tmp_path / "afile",
              "model": workdir / "trained" / "m.json"}
    places["dir"].mkdir()
    places["file"].write_text("not a directory\n", encoding="utf-8")
    args = [arg.format(**places) for arg in UNWRITABLE[case]]
    capsys.readouterr()
    assert main(args + ["--config", str(workdir / "tiny.ini")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {args[-1]}: ")
    assert list(places["dir"].iterdir()) == []


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
    "fractional epochs": (FIRST_MLP + ("config",), "epochs", 2.5),
    "boolean patience": (FIRST_MLP + ("config",), "patience", True),
    "infinite learning_rate": (FIRST_MLP + ("config",), "learning_rate",
                               float("inf")),
    "reversed ensemble weights": ((), "weights", lambda a: a[::-1]),
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


def test_predict_rejects_disagreeing_and_mistyped_learner_fields(
        workdir, model_doc, capsys):
    """A learner seed that is not its network's, a string ``epochs_run`` and
    a string ``literal_weights``: exit 1, and no predictions file."""
    doc = json.loads(model_doc)
    corrupt_model_doc(doc, ("learners", 0), "seed", lambda s: s + 1)
    corrupt_model_doc(doc, FIRST_MLP, "epochs_run", "50")
    corrupt_model_doc(doc, (), "literal_weights", "no")
    bad = workdir / "trained" / "mistyped.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "mistyped.csv"
    capsys.readouterr()
    assert main(["predict", "--data", str(workdir / "data.csv"),
                 "--model", str(bad), "--out", str(out),
                 "--config", str(workdir / "tiny.ini")]) == 1
    assert "corrupt model document" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["inspect", "train", "evaluate",
                                     "predict"])
def test_a_column_listed_twice_exits_1_naming_it(workdir, model_doc, command,
                                                 tmp_path, capsys):
    config = tmp_path / "twice.ini"
    config.write_text(render_config(replace(tiny_config(), feature_columns=(
        "distractor_1", "distractor_1", "distractor_2", "distractor_3"))),
        encoding="utf-8")
    out = {"inspect": ["--out", str(tmp_path / "out")],
           "train": ["--model", str(tmp_path / "m.json")],
           "evaluate": ["--out", str(tmp_path / "out")],
           "predict": ["--model", str(workdir / "trained" / "m.json"),
                       "--out", str(tmp_path / "p.csv")]}[command]
    capsys.readouterr()
    assert main([command, "--data", str(workdir / "data.csv"),
                 "--config", str(config)] + out) == 1
    assert capsys.readouterr().err == (
        "error: the schema names column 'distractor_1' twice\n")


# A file column under the name of a column the reader derives, or such a
# name listed in ``feature_columns``: (column name, listed in the config).
SHADOWS = {"header avg_temp": ("avg_temp", False),
           "header month_sin": ("month_sin", False),
           "feature_columns avg_temp": ("avg_temp", True)}


@pytest.mark.parametrize("case", sorted(SHADOWS))
@pytest.mark.parametrize("command", ["inspect", "train", "predict"])
def test_a_column_with_a_derived_name_exits_1_naming_it(
        workdir, model_doc, command, case, tmp_path, capsys):
    """The file's numbers never take the place of the derived column."""
    name, listed = SHADOWS[case]
    with open(workdir / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = tmp_path / "shadow.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0] + [name]] + [
            row + [str(20 + i % 3)] for i, row in enumerate(rows[1:])])
    config = tmp_path / "shadow.ini"
    columns = ("distractor_1", "distractor_2", "distractor_3", name)
    config.write_text(render_config(replace(
        tiny_config(), feature_columns=columns if listed else None)),
        encoding="utf-8")
    out = {"inspect": ["--out", str(tmp_path / "out")],
           "train": ["--model", str(tmp_path / "m.json")],
           "predict": ["--model", str(workdir / "trained" / "m.json"),
                       "--out", str(tmp_path / "p.csv")]}[command]
    capsys.readouterr()
    assert main([command, "--data", str(data), "--config", str(config)]
                + out) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: column {name!r} is derived when the file is read; "
        "the file and the schema may not name it\n")
    assert not (tmp_path / "m.json").exists()


def test_a_month_03_column_is_an_ordinary_feature(workdir, tmp_path, capsys):
    """No encoding derives ``month_NN`` columns: feature selection ranks
    such a file column with the others, and a model whose chain selects it
    scores files holding it."""
    with open(workdir / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = tmp_path / "month_03.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0] + ["month_03"]] + [
            row + [str(20 + i % 3)] for i, row in enumerate(rows[1:])])
    assert main(["train", "--data", str(data), "--model",
                 str(tmp_path / "trained" / "m.json"),
                 "--config", str(workdir / "tiny.ini")]) == 0
    with open(tmp_path / "trained" / "feature_rank.csv", newline="",
              encoding="utf-8") as fh:
        assert "month_03" in {row[0] for row in csv.reader(fh)}
    model = tmp_path / "m.json"
    save_model(scoring_model(5, {**SCALES, "month_03": (21.0, 0.8)}), model)
    capsys.readouterr()
    assert main(["predict", "--data", str(data), "--model", str(model),
                 "--out", str(tmp_path / "p.csv")]) == 0
    assert capsys.readouterr().err == (
        f"wrote {len(rows) - 1} predictions to {tmp_path / 'p.csv'}\n")


def test_extra_columns_in_another_order_score_the_same(workdir, tmp_path):
    """The chain keeps every column it selected in the order it selected
    them, whatever the header order of the scoring file."""
    model = tmp_path / "m.json"
    save_model(scoring_model(5, {**SCALES, "distractor_1": (0.0, 1.0),
                                 "distractor_3": (0.0, 1.0)}), model)
    with open(workdir / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[:6]
    a, b = rows[0].index("distractor_1"), rows[0].index("distractor_3")
    swapped = [[*row] for row in rows]
    for row in swapped:
        row[a], row[b] = row[b], row[a]
    scored = []
    for name, table in (("file", rows), ("swapped", swapped)):
        with open(tmp_path / f"{name}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        assert main(["predict", "--data", str(tmp_path / f"{name}.csv"),
                     "--model", str(model),
                     "--out", str(tmp_path / f"{name}_p.csv")]) == 0
        scored.append((tmp_path / f"{name}_p.csv").read_text(encoding="utf-8"))
    assert scored[0] == scored[1]


# With every scipy import made to fail, prints the scipy modules loaded after
# importing the command line and after each command, with its exit code; the
# commands' own output goes to stderr.
NO_SCIPY_SCRIPT = """\
import contextlib, sys
class NoScipy:
    @staticmethod
    def find_spec(name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")
sys.meta_path.insert(0, NoScipy())
def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
from teayield.cli import main
print("import", scipy_modules())
config, work = sys.argv[1:]
data, model = f"{work}/data.csv", f"{work}/m.json"
for args in (["synth", "--out", data],
             ["train", "--data", data, "--model", model],
             ["evaluate", "--data", data, "--out", f"{work}/evaluate"],
             ["predict", "--data", data, "--model", model,
              "--out", f"{work}/p.csv"]):
    with contextlib.redirect_stdout(sys.stderr):
        code = main(args + ["--config", config])
    print(args[0], code, scipy_modules())
"""


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """``python3 *args`` in a fresh process that imports this package."""
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_import_train_and_predict_load_no_scipy(workdir):
    """numpy is the only runtime dependency: in a fresh process where scipy
    cannot be imported, ``synth``, ``train``, ``evaluate`` and ``predict``
    exit 0 and load no scipy module."""
    run = _run_python("-c", NO_SCIPY_SCRIPT, str(workdir / "tiny.ini"),
                      str(workdir / "no_scipy"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["import []", "synth 0 []",
                                       "train 0 []", "evaluate 0 []",
                                       "predict 0 []"], run.stderr


def test_import_loads_no_process_machinery():
    """Importing ``multiprocessing`` takes about 18 ms, so only ``evaluate``
    does: a fresh ``import teayield.cli`` loads no module of
    ``multiprocessing`` or ``concurrent``."""
    run = _run_python("-c", "import sys, teayield.cli\n"
                      "print(sorted(k for k in sys.modules if k.split('.')[0]"
                      " in ('multiprocessing', 'concurrent')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_non_finite_predictions_exit_1(workdir, model_doc, capsys):
    """A huge but finite target scale sends rows to inf: an error naming how
    many, not a predictions file."""
    doc = json.loads(model_doc)
    corrupt_model_doc(doc, ("preprocess",), "target_scale", 1e308)
    huge = workdir / "trained" / "huge_scale.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "huge_scale.csv"
    capsys.readouterr()
    assert main(["predict", "--data", str(workdir / "data.csv"),
                 "--model", str(huge), "--out", str(out),
                 "--config", str(workdir / "tiny.ini")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "of 120 predictions are not finite, the first in row " in err
    assert not out.exists()


def test_underflowed_predictions_exit_1(workdir, model_doc, capsys):
    """A far negative target center sends every log-target prediction's
    ``exp`` to 0.0: an error, not a file of zeros."""
    doc = json.loads(model_doc)
    assert doc["model"]["preprocess"]["log_target"]
    corrupt_model_doc(doc, ("preprocess",), "target_center", -1e5)
    far = workdir / "trained" / "far_center.json"
    far.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "far_center.csv"
    capsys.readouterr()
    assert main(["predict", "--data", str(workdir / "data.csv"),
                 "--model", str(far), "--out", str(out),
                 "--config", str(workdir / "tiny.ini")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: 120 of 120 predictions underflowed to 0, the first in row 0")
    assert not out.exists()


def test_a_zero_yield_under_a_log_target_exits_1_naming_it(workdir, capsys):
    """The log of the target names the yield column and a plain number."""
    with open(workdir / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[6][rows[0].index("yield")] = "0"  # data row 5
    zero = workdir / "zero_yield.csv"
    with open(zero, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["train", "--data", str(zero),
                 "--model", str(workdir / "zero" / "m.json"),
                 "--config", str(workdir / "tiny.ini")]) == 1
    assert capsys.readouterr().err == (
        "error: log transform needs positive values; row 5, column 'yield' "
        "has 0.0\n")


# ``tiny_config`` holds out 30% of the rows and folds the rest 5 ways.  Of
# 9 rows, 6 train; a stage-report fold trains on 4, too few for 10 relief
# neighbours.  Of 6 rows, 4 train, too few for 5 folds.
@pytest.mark.parametrize("rows,message", [
    (9, "training rows of stage-report fold 0: [relieff] k = 10 needs more "
        "than 10 rows to rank features, got 4"),
    (6, "[evaluation] cv_folds = 5 needs at least 5 rows to fold, but the "
        "hold-out split leaves 4 training rows")])
def test_evaluate_on_a_small_file_exits_1_naming_the_option(
        workdir, tmp_path, capsys, rows, message):
    lines = (workdir / "data.csv").read_text(encoding="utf-8").splitlines(True)
    data = tmp_path / "small.csv"
    data.write_text("".join(lines[:rows + 1]), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--out", str(tmp_path / "out"),
                 "--config", str(workdir / "tiny.ini")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Of the 120 rows of the tiny config's synth file, 84 train and a
# stage-report fold trains on 67.  Feature selection ranks the features of a
# fold's rows; the ensemble ranks its learners on the 84 rows less those
# outlier removal drops.  At an outlier threshold of 0.01 it keeps 58.
@pytest.mark.parametrize("options,message", [
    ({"k": "67"}, "training rows of stage-report fold 0: [relieff] k = 67 "
     "needs more than 67 rows to rank features, got 67"),
    ({"k": "62", "threshold": "0.01"},
     "[relieff] k = 62 needs more than 62 rows to rank learners, got 58")])
def test_evaluate_with_too_few_rows_for_relief_exits_1_naming_the_option(
        workdir, tmp_path, capsys, options, message):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_config(tiny_config()))
    for key, value in options.items():
        parser["outliers" if key == "threshold" else "relieff"][key] = value
    config = tmp_path / "relief.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(workdir / "data.csv"),
                 "--out", str(tmp_path / "out"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Under ``cv_folds = 10`` and ``[relieff] k = 2``: ``train`` on 9 rows
# selects features on all 9; ``evaluate`` on 14 rows holds out 4, and a
# stage-report fold trains on 9 of the other 10.  The ensemble selects
# learners out of bag on the rows outlier removal kept: 8 of the first 10 at
# the config's outlier threshold (None), and 8 of the first 14 at 0.1.  At a
# ``subsample_fraction`` of 0.9 a subsample of 8 rows takes all 8.
@pytest.mark.parametrize("command,rows,threshold,message", [
    ("train", 9, None, "[evaluation] cv_folds = 10 needs at least 10 rows "
     "to select features, got 9"),
    ("evaluate", 14, None, "training rows of stage-report fold 0: "
     "[evaluation] cv_folds = 10 needs at least 10 rows to select features, "
     "got 9"),
    ("train", 10, None, "[ensemble] subsample_fraction = 0.9 leaves no row "
     "out of bag to select learners, got 8 rows"),
    ("train", 14, 0.1, "[ensemble] subsample_fraction = 0.9 leaves no row "
     "out of bag to select learners, got 8 rows")])
def test_too_few_rows_to_fold_exits_1_naming_cv_folds(
        workdir, tmp_path, capsys, command, rows, threshold, message):
    cfg = replace(tiny_config(), cv_folds=10,
                  relieff=replace(tiny_config().relieff, k=2))
    config = tmp_path / "folds.ini"
    config.write_text(render_config(cfg if threshold is None else replace(
        cfg, outlier_threshold=threshold)), encoding="utf-8")
    lines = (workdir / "data.csv").read_text(encoding="utf-8").splitlines(True)
    data = tmp_path / "small.csv"
    data.write_text("".join(lines[:rows + 1]), encoding="utf-8")
    out = (["--model", str(tmp_path / "m.json")] if command == "train"
           else ["--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert main([command, "--data", str(data), "--config", str(config)]
                + out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _ensemble_exits(*args):
    os._exit(3)


def _ensemble_fails(*args):
    raise DataError("planted ensemble failure")


@pytest.mark.parametrize("fit,code,message", [
    (_ensemble_fails, 1, "error: planted ensemble failure\n"),
    (_ensemble_exits, 2, "internal error: RuntimeError: the ensemble process "
                         "sent no readable result (exit status 3)\n")])
def test_a_failed_ensemble_process_exits_as_a_serial_run(
        workdir, tmp_path, monkeypatch, capsys, fit, code, message):
    """``evaluate`` fits its ensemble in a child process; a user error there
    exits 1 with its message, a child that ends without a result exits 2,
    and no child outlives the command."""
    monkeypatch.setattr("teayield.pipeline.train_ensemble_pipeline", fit)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(workdir / "data.csv"),
                 "--out", str(tmp_path / "out"),
                 "--config", str(workdir / "tiny.ini")]) == code
    assert capsys.readouterr().err == message
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("section", ["sfs", "ensemble"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_zero_patience_exits_1_before_any_fitting(workdir, section, command,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    fits = []
    monkeypatch.setattr("teayield.pipeline.fit_chain",
                        lambda *args, **kw: fits.append(args))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_config(tiny_config()))
    parser[section]["patience"] = "0"
    config = tmp_path / "zero_patience.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = ["--model", str(tmp_path / "m.json")] if command == "train" else []
    capsys.readouterr()
    assert main([command, "--data", str(workdir / "data.csv"),
                 "--config", str(config), "--out", str(tmp_path / "out")]
                + out) == 1
    assert f"[{section}] patience must be >= 1, got 0" in capsys.readouterr().err
    assert fits == []


# Mutated config and data bytes given to the commands that fit or generate.
# An input may fail to load or to fit, but only as a user error: exit 1,
# never 2.  Example counts keep the three properties near 2 s together.
def _mutated(workdir, name: str, source: str, edits, sep: str = ","):
    path = workdir / name
    path.write_bytes(mutate_csv((workdir / source).read_text(encoding="utf-8"),
                                edits, sep))
    return path


@given(ini_edits=csv_edits())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_synth_on_a_mutated_config_exits_0_or_1(workdir, ini_edits, capsys):
    config = _mutated(workdir, "mutated_synth.ini", "tiny.ini", ini_edits, "=")
    code = main(["synth", "--config", str(config),
                 "--out", str(workdir / "mutated_synth.csv")])
    assert code in (0, 1), capsys.readouterr().err


@pytest.mark.parametrize("command,examples", [("train", 8), ("evaluate", 4)])
def test_fitting_on_mutated_inputs_exits_0_or_1(workdir, command, examples,
                                                capsys):
    """Each example edits either the config or the data file."""
    @given(edits=csv_edits(), in_config=st.booleans())
    @settings(max_examples=examples, deadline=None)
    def fit(edits, in_config):
        config, data = workdir / "tiny.ini", workdir / "data.csv"
        if in_config:
            config = _mutated(workdir, "mutated_fit.ini", "tiny.ini", edits,
                              "=")
        else:
            data = _mutated(workdir, "mutated_fit.csv", "data.csv", edits)
        out = workdir / f"mutated_{command}"
        code = main([command, "--config", str(config), "--data", str(data),
                     "--out", str(out)]
                    + (["--model", str(out / "m.json")] if command == "train"
                       else []))
        assert code in (0, 1), capsys.readouterr().err

    fit()


# The mean and standard deviation the scaler of ``scoring_model`` gives each
# feature it selects.
SCALES = {"min_temp": (10.0, 5.0), "max_temp": (20.0, 5.0),
          "humidity": (60.0, 12.0), "rainfall": (125.0, 70.0),
          "soil_ph": (6.0, 0.5), "month_sin": (0.0, 0.7),
          "month_cos": (0.0, 0.7), "avg_temp": (15.0, 5.0)}


# ``predict`` reads and scores its file in blocks.  The model below has a
# chain that selects and scales the columns of ``scales`` and logs the
# target, as a trained chain does, so every step of scoring meets every
# block.
def scoring_model(hidden: int, scales: dict = SCALES) -> EnsembleModel:
    rng = np.random.default_rng(0)
    features = tuple(scales)
    means, stds = np.array(list(scales.values())).T
    state = PreprocessState(
        selected_features=features, scaler=ScalerState(means, stds),
        log_target=True, target_center=3.8, target_scale=0.5)
    f = len(features)
    errors = (0.1, 0.2, 0.3)
    learners = tuple(
        BaseLearner(MLPModel(0.3 * rng.normal(size=(f, hidden)),
                             rng.normal(size=hidden),
                             rng.normal(size=hidden) / hidden,
                             float(rng.normal()),
                             MLPTrainConfig(hidden_size=hidden), i, 1, eps),
                    (0,), eps)
        for i, eps in enumerate(errors))
    return EnsembleModel(learners, compute_weights(errors, 10.0, 0.2), 10.0,
                         0.2, state)


@pytest.fixture(scope="module")
def scoring(tmp_path_factory):
    """Saved scoring models of 5 and 28 hidden units, and a 12,289-row
    synth file."""
    work = tmp_path_factory.mktemp("scoring")
    for hidden in (5, 28):
        save_model(scoring_model(hidden), work / f"h{hidden}.json")
    write_csv(generate_synthetic(12_289, 8, SyntheticSpec.canonical()),
              work / "all.csv")
    return work


def whole_file_scoring(model_path, data, tmp_path) -> tuple[int, str]:
    """What ``predict`` is to give: its exit code, and its output file's
    text or its error line, from loading and scoring the whole file."""
    model = load_model(model_path)
    try:
        preds = predict_ensemble(model, load_csv(data, None,
                                                 require_target=False))
    except DataError as exc:
        return 1, f"error: {exc}\n"
    out = tmp_path / "whole.csv"
    write_table(out, ["row", "prediction"],
                ([i, repr(v)] for i, v in enumerate(map(float, preds))))
    return 0, out.read_text(encoding="utf-8")


def streamed_predict(model_path, data, tmp_path, capsys) -> tuple[int, str]:
    """``predict``'s exit code, and its output file's text or its stderr;
    a failed run leaves no output file."""
    out = tmp_path / "streamed.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["predict", "--data", str(data), "--model", str(model_path),
                 "--out", str(out)])
    if code == 0:
        return code, out.read_text(encoding="utf-8")
    assert not out.exists()
    return code, capsys.readouterr().err


def head_rows(source, n: int, path, blank_every: int = 0):
    """The header and first ``n`` data rows of ``source`` at ``path``, with
    a blank row after every ``blank_every``-th line."""
    with open(source, encoding="utf-8") as fh:
        text = "".join(next(fh) for _ in range(n + 1))
    if blank_every:
        text = with_blank_lines(text, blank_every)
    path.write_text(text, encoding="utf-8")
    return path


class TestStreamedPredict:
    """``predict`` gives the bytes and errors of scoring the whole file."""

    @pytest.mark.parametrize("hidden", [5, 28])
    @pytest.mark.parametrize("n", [SCORE_BLOCK - 1, 2 * SCORE_BLOCK - 1,
                                   2 * SCORE_BLOCK, 2 * SCORE_BLOCK + 1,
                                   4 * SCORE_BLOCK - 1, 4 * SCORE_BLOCK,
                                   4 * SCORE_BLOCK + 1, 6 * SCORE_BLOCK + 1])
    def test_streamed_predictions_are_whole_file_predictions(
            self, scoring, hidden, n, tmp_path, capsys, monkeypatch):
        """Scored in blocks of ``SCORE_BLOCK`` rows and the rest, one at a
        time."""
        sizes = []

        def recording(model, m):
            sizes.append(m.n_samples)
            return predict_ensemble(model, m)

        monkeypatch.setattr(cli, "predict_ensemble", recording)
        data = head_rows(scoring / "all.csv", n, tmp_path / "d.csv")
        model = scoring / f"h{hidden}.json"
        streamed = streamed_predict(model, data, tmp_path, capsys)
        assert sizes == block_sizes(n, SCORE_BLOCK)
        assert streamed[0] == 0
        assert streamed == whole_file_scoring(model, data, tmp_path)

    def test_blank_rows_do_not_count(self, scoring, tmp_path, capsys):
        n = 2 * SCORE_BLOCK + 1
        model = scoring / "h28.json"
        data = head_rows(scoring / "all.csv", n, tmp_path / "d.csv")
        blanks = head_rows(scoring / "all.csv", n, tmp_path / "blanks.csv",
                           blank_every=1000)
        streamed = streamed_predict(model, blanks, tmp_path, capsys)
        assert streamed == whole_file_scoring(model, blanks, tmp_path)
        assert streamed == streamed_predict(model, data, tmp_path, capsys)

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        """Blocks of 16 rows, for ``predict`` and whole-file scoring alike."""
        monkeypatch.setattr(cli, "SCORE_BLOCK", 16)
        monkeypatch.setattr(ensemble, "SCORE_BLOCK", 16)

    # Edits of the 120-row synth file (data row: column, cell) and of the
    # model's preprocessing, and a piece of the expected error.
    LATE_FAULTS = {
        "bad cell in the last block": ({110: ("humidity", "150")}, {},
                                       "row 111: humidity must be in"),
        "non-finite predictions": ({}, {"target_scale": 1e308},
                                   "of 120 predictions are not finite"),
        "scoring fault in the first block, bad cell in the last": (
            {110: ("humidity", "150")}, {"target_scale": 1e308},
            "row 111: humidity must be in"),
        "underflowed predictions": ({}, {"target_center": -1e5},
                                    "120 of 120 predictions underflowed"),
    }

    @pytest.mark.parametrize("case", sorted(LATE_FAULTS))
    def test_a_fault_in_a_late_block_is_the_whole_file_error(
            self, workdir, case, small_blocks, tmp_path, capsys):
        cells, chain, message = self.LATE_FAULTS[case]
        with open(workdir / "data.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row, (column, cell) in cells.items():
            rows[row + 1][rows[0].index(column)] = cell
        data = tmp_path / "faulty.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        model = tmp_path / "m.json"
        base = scoring_model(5)
        save_model(replace(base, preprocess=replace(base.preprocess, **chain)),
                   model)
        streamed = streamed_predict(model, data, tmp_path, capsys)
        assert streamed[0] == 1 and message in streamed[1]
        assert streamed == whole_file_scoring(model, data, tmp_path)

    @given(edits=csv_edits())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_data_gives_the_whole_file_result(self, workdir, edits,
                                                      small_blocks, tmp_path,
                                                      capsys):
        model = tmp_path / "m.json"
        if not model.exists():
            save_model(scoring_model(5), model)
        data = tmp_path / "mutated.csv"
        data.write_bytes(mutate_csv((workdir / "data.csv").read_text(
            encoding="utf-8"), edits))
        assert (streamed_predict(model, data, tmp_path, capsys)
                == whole_file_scoring(model, data, tmp_path))

    def test_memory_does_not_grow_with_the_rows(self, scoring, tmp_path):
        """Only a prediction per row is kept until the file ends.  The files
        hold 8,192 and 32,768 rows, so that both end in a full block and the
        difference in peak is what the extra rows leave behind.  Reading
        the whole file and copying it once per preprocessing step grew by
        about 330 traced bytes per row."""
        big, small = 32_768, 8_192
        assert big % SCORE_BLOCK == small % SCORE_BLOCK == 0
        source = tmp_path / "big.csv"
        write_csv(generate_synthetic(big, 9, SyntheticSpec.canonical()),
                  source)

        def predict(n: int) -> list[str]:
            return ["predict", "--data",
                    str(head_rows(source, n, tmp_path / f"{n}_rows.csv")),
                    "--model", str(scoring / "h28.json"),
                    "--out", str(tmp_path / "p.csv")]

        def traced_peak(args) -> int:
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert main(predict(small)) == 0  # warms caches up, untraced
        growth = traced_peak(predict(big)) - traced_peak(predict(small))
        assert growth / (big - small) < 32
