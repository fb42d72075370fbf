import json
import tempfile
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.ensemble import predict_ensemble
from teayield.errors import ConfigError, DataError, TeaYieldError
from teayield.pipeline import train_ensemble_pipeline
from teayield.serialize import load_model, model_to_json, save_model

from conftest import corrupt_model_doc, csv_edits, mutate_csv, tiny_config


@pytest.fixture(scope="module")
def model(canonical_raw):
    return train_ensemble_pipeline(canonical_raw, tiny_config()).model


def test_round_trip_is_byte_and_prediction_exact(model, canonical_raw,
                                                 tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert text == model_to_json(model)
    loaded = load_model(path)
    assert model_to_json(loaded) == text
    np.testing.assert_array_equal(predict_ensemble(loaded, canonical_raw),
                                  predict_ensemble(model, canonical_raw))


# Keys of retired options that files of format version 1 may hold, at the
# value of the one mode left.  Files written before avg_temp was built by the
# reader hold ``"add_avg_temp": true`` in the chain; that key is ignored.
# Files written before iRprop⁻ hold each network's gradient-descent
# ``learning_rate``, any finite number > 0; it is checked and dropped.
RETIRED_KEYS = [((), "literal_weights", False),
                (("preprocess",), "month_encoding", "cyclic"),
                (("preprocess",), "add_avg_temp", True)]


def test_a_model_file_with_retired_keys_loads(model, canonical_raw, tmp_path):
    doc = json.loads(model_to_json(model))
    for edit in RETIRED_KEYS:
        corrupt_model_doc(doc, *edit)
    for i, learner in enumerate(doc["model"]["learners"]):
        learner["mlp"]["config"]["learning_rate"] = 0.01 * (i + 1)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_model(path)
    assert model_to_json(loaded) == model_to_json(model)
    assert (predict_ensemble(loaded, canonical_raw).tobytes()
            == predict_ensemble(model, canonical_raw).tobytes())


@pytest.mark.parametrize("path,key,value,message", [
    ((), "literal_weights", True, "may only be false, got true"),
    (("preprocess",), "month_encoding", "onehot",
     'may only be "cyclic", got "onehot"'),
    (("preprocess",), "month_encoding", "integer",
     'may only be "cyclic", got "integer"'),
    # The chain logs the target alone, and writes no logged feature.
    (("preprocess",), "log_features", ["rainfall"],
     'may only be [], got ["rainfall"]')])
def test_a_retired_key_at_another_value_is_refused_by_name(
        model, tmp_path, path, key, value, message):
    doc = json.loads(model_to_json(model))
    corrupt_model_doc(doc, path, key, value)
    file = tmp_path / "model.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_model(file)
    assert str(info.value) == (f"{file}: corrupt model document ({key} is a "
                               f"retired option; it {message})")


@pytest.mark.parametrize("kind", ["linear", "gpr", "mlp", "forest", None])
def test_unknown_or_removed_kind_is_rejected(model, tmp_path, kind):
    doc = json.loads(model_to_json(model))
    doc["kind"] = kind
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="unknown model kind"):
        load_model(path)


def test_only_ensembles_are_saved(model):
    with pytest.raises(DataError, match="cannot serialize"):
        model_to_json(model.learners[0].model)


@pytest.mark.parametrize("part", [{"scaler": None}, {"log_target": False}],
                         ids=["no scaler", "no target log"])
def test_only_a_full_chain_is_saved(model, part):
    """The file states the fixed chain in full, so a model whose chain
    lacks a stage is refused, not written as if it had it."""
    partial = replace(model, preprocess=replace(model.preprocess, **part))
    with pytest.raises(DataError, match="cannot serialize a model whose "
                                        "chain lacks stages"):
        model_to_json(partial)


def one_nan(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flat[0] = np.nan
    return a


FIRST_MLP = ("learners", 0, "mlp")
CORRUPTIONS = {
    "w_hidden 1-D": (FIRST_MLP, "w_hidden", lambda a: a[0]),
    "w_hidden too few hidden units": (FIRST_MLP, "w_hidden",
                                      lambda a: a[:, :-1]),
    "learners disagree on features": (("learners", -1, "mlp"), "w_hidden",
                                      lambda a: a[:-1]),
    "NaN train_error": (FIRST_MLP, "train_error", float("nan")),
    "boolean b_out": (FIRST_MLP, "b_out", True),
    "integer b_out beyond float range": (FIRST_MLP, "b_out", 10**400),
    "scaler stds too long": (("preprocess", "scaler"), "stds",
                             lambda a: np.append(a, 1.0)),
    "NaN in w_hidden": (FIRST_MLP, "w_hidden", one_nan),
    "NaN in b_hidden": (FIRST_MLP, "b_hidden", one_nan),
    "NaN in w_out": (FIRST_MLP, "w_out", one_nan),
    "NaN in the ensemble weights": ((), "weights", one_nan),
    "NaN target_center": (("preprocess",), "target_center", float("nan")),
    "NaN target_scale": (("preprocess",), "target_scale", float("nan")),
    # Both are sample standard deviations, so 0 and below are corrupt.
    "zero target_scale": (("preprocess",), "target_scale", 0.0),
    "negative target_scale": (("preprocess",), "target_scale", -1.0),
    "zero scaler std": (("preprocess", "scaler"), "stds",
                        lambda a: np.where(np.arange(a.size) == 0, 0.0, a)),
    "negative scaler stds": (("preprocess", "scaler"), "stds", lambda a: -a),
    "string log_target": (("preprocess",), "log_target", "no"),
    "NaN weight_b": ((), "weight_b", float("nan")),
    "NaN weight_c": ((), "weight_c", float("nan")),
    "training patience 0": (FIRST_MLP + ("config",), "patience", 0),
    # A learner's hidden size and seed copy its network's, and the network's
    # config copies its hidden size; hidden sizes lie in [5, 30].
    "learner hidden_size differs": (("learners", 0), "hidden_size",
                                    lambda h: 35 - h),
    "learner seed differs": (("learners", 0), "seed", lambda s: s + 1),
    "config hidden_size differs": (FIRST_MLP + ("config",), "hidden_size",
                                   lambda h: 35 - h),
    "string learner train_error": (("learners", 0), "train_error", "abc"),
    "negative learner train_error": (("learners", 0), "train_error", -1),
    "negative network train_error": (FIRST_MLP, "train_error", -1.0),
    "string literal_weights": ((), "literal_weights", "no"),
    # The weights are compute_weights of the learners' train errors.
    "reversed ensemble weights": ((), "weights", lambda a: a[::-1]),
    "literal_weights flipped": ((), "literal_weights", True),
    "zero weight_b": ((), "weight_b", 0.0),
    "no learners": ((), "learners", []),
    "string subsample index": (("learners", 0), "subsample_indices", ["x"]),
    "boolean subsample index": (("learners", 0), "subsample_indices",
                                [True]),
    "string network seed": (FIRST_MLP, "seed", "7"),
    "string epochs_run": (FIRST_MLP, "epochs_run", "50"),
    "negative epochs_run": (FIRST_MLP, "epochs_run", -1),
    # The training config is decoded field by field, as the network is.
    "fractional epochs": (FIRST_MLP + ("config",), "epochs", 2.5),
    "boolean patience": (FIRST_MLP + ("config",), "patience", True),
    "infinite learning_rate": (FIRST_MLP + ("config",), "learning_rate",
                               float("inf")),
    "zero learning_rate": (FIRST_MLP + ("config",), "learning_rate", 0.0),
    "string learning_rate": (FIRST_MLP + ("config",), "learning_rate", "0.01"),
    # The chain is the full fixed one: ``stage_order`` names its stages in
    # order, the chain holds a scaler and logs the target.
    "feature_scaling left out": (("preprocess",), "stage_order",
                                 lambda s: [x for x in s
                                            if x != "feature_scaling"]),
    "feature_scaling twice": (("preprocess",), "stage_order",
                              lambda s: s + ["feature_scaling"]),
    "unknown stage": (("preprocess",), "stage_order", lambda s: s + ["bogus"]),
    "stage_order reversed": (("preprocess",), "stage_order",
                             lambda s: s[::-1]),
    "outlier_removal left out": (("preprocess",), "stage_order",
                                 lambda s: [x for x in s
                                            if x != "outlier_removal"]),
    "transformation alone, no scaler": [
        (("preprocess",), "stage_order", ["feature_transformation"]),
        (("preprocess",), "scaler", None)],
    "scaler dropped": (("preprocess",), "scaler", None),
    "log_target flipped": (("preprocess",), "log_target", False),
    # The scaler scales every selected feature.  A list holds several edits:
    # this one drops the last scaler column with its mean and std.
    "scaler drops a selected feature": [
        (("preprocess", "scaler"), "columns", lambda c: c[:-1]),
        (("preprocess", "scaler"), "means", lambda a: a[:-1]),
        (("preprocess", "scaler"), "stds", lambda a: a[:-1])],
    "scaler columns reordered": (("preprocess", "scaler"), "columns",
                                 lambda c: c[::-1]),
    "unknown month_encoding": (("preprocess",), "month_encoding", "weekly"),
    # Each network takes one input per feature the chain selects.
    "chain selects a feature fewer": (("preprocess",), "selected_features",
                                      lambda f: f[:-1]),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_arrays_and_numbers_are_rejected(model, tmp_path, corruption):
    assert len(model.learners) >= 2
    doc = json.loads(model_to_json(model))
    edits = CORRUPTIONS[corruption]
    for edit in edits if isinstance(edits, list) else [edits]:
        corrupt_model_doc(doc, *edit)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="corrupt model document"):
        load_model(path)


@pytest.mark.parametrize("edit", ["unknown key", "missing key"])
def test_network_config_keys_are_exactly_its_fields(model, tmp_path, edit):
    """A missing field is not filled with its default, and an unknown one
    is not ignored."""
    doc = json.loads(model_to_json(model))
    config = doc["model"]["learners"][0]["mlp"]["config"]
    if edit == "unknown key":
        config["momentum"] = 0.9
    else:
        del config["epochs"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="corrupt model document"):
        load_model(path)


def test_non_finite_ensemble_weights_are_rejected(model):
    weights = np.full(len(model.learners), 1.0 / len(model.learners))
    weights[0] = np.nan
    with pytest.raises(DataError, match="weights must be"):
        replace(model, weights=weights)


# Values the model fuzz property puts in place of one part of the document.
FUZZ_VALUES = (None, True, 0, -1, 2**63, 1e308, float("nan"), "", "x", [],
               {}, [0.5])


def _parts(obj, path=()):
    """The path to every value inside a JSON document, containers included."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _parts(value, path + (key,))


@given(part=st.integers(0, 2**16), value=st.sampled_from(FUZZ_VALUES),
       edits=csv_edits())
@settings(max_examples=150, deadline=None)
def test_mutated_model_files_load_and_score_or_raise(model, canonical_raw,
                                                     part, value, edits):
    """One part of the document is replaced by ``value``, then the JSON
    text is edited as comma-separated cells.  Loading raises a DataError or
    ConfigError, or gives a model that scores rows or raises a
    TeaYieldError."""
    doc = json.loads(model_to_json(model))
    parts = list(_parts(doc))
    *head, last = parts[part % len(parts)]
    reduce(lambda obj, key: obj[key], head, doc)[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_bytes(mutate_csv(json.dumps(doc), edits))
        try:
            loaded = load_model(path)
        except (ConfigError, DataError):
            return
    try:
        with np.errstate(over="ignore"):
            preds = predict_ensemble(loaded, canonical_raw)
    except TeaYieldError:
        return
    assert preds.shape == (canonical_raw.n_samples,)
