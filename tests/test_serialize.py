import json
import math
import re
import tempfile
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.ensemble import predict_ensemble, resolve_weight_params
from teayield.errors import ConfigError, DataError, TeaYieldError
from teayield.pipeline import train_ensemble_pipeline
from teayield.preprocess import PIPELINE_STAGES
from teayield.serialize import (_enc_array, _enc_ensemble, load_model,
                                model_to_json, save_model)

from conftest import corrupt_model_doc, csv_edits, mutate_csv, tiny_config

FIRST_MLP = ("learners", 0, "mlp")


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


def _keys(obj):
    """Every key of every object inside a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


def test_the_document_holds_the_fitted_facts_alone(model):
    """No subsample indices, training MSE, weighting, training config or
    copy of a fact: a network's width is the shape of its weights."""
    doc = json.loads(model_to_json(model))
    assert doc["version"] == 3
    assert set(_keys(doc)) == {
        "format", "version", "kind", "model", "learners", "error", "mlp",
        "w_hidden", "b_hidden", "w_out", "shape", "data", "b_out", "seed",
        "epochs_run", "preprocess", "selected_features", "scaler", "means",
        "stds", "target_center", "target_scale"}
    learner = doc["model"]["learners"][0]
    assert sorted(learner) == ["error", "mlp"]
    assert (learner["mlp"]["w_hidden"]["shape"][1]
            == model.learners[0].model.hidden_size)


def _refusal_of_version(model, tmp_path, version) -> str:
    doc = json.loads(model_to_json(model))
    doc["version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_model(path)
    return str(info.value).replace(str(path), "<path>")


def test_a_version_1_file_is_refused_with_advice(model, tmp_path):
    assert _refusal_of_version(model, tmp_path, 1) == (
        "<path>: the model format changed in version 3, and version 1 no "
        "longer loads; train the model again")


def test_a_version_2_file_gets_the_same_advice(model, tmp_path):
    """Version 2 wrote each network's training config; the document as it
    stands, with its version set to 2, is refused by the version alone."""
    assert _refusal_of_version(model, tmp_path, 2) == (
        "<path>: the model format changed in version 3, and version 2 no "
        "longer loads; train the model again")


# 2.0 and true compare equal to a version the loader knows, but only a JSON
# integer is one.
@pytest.mark.parametrize("version", [0, 4, "2", None, 2.0, True, 1.0])
def test_a_version_never_written_is_unsupported(model, tmp_path, version):
    doc = json.loads(model_to_json(model))
    doc["version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: unsupported format version {version}"


# A network's training config as format 2 wrote it under ``tiny_config``,
# for a network of 5 hidden units.
FORMAT_2_CONFIG = {"early_stop_fraction": 0.15, "epochs": 50,
                   "hidden_size": 5, "patience": 20}


# Keys that model files once held, each at the value of the one mode left,
# or as ``train`` last wrote it; the model writes none of them.
# ``add_avg_temp`` is from before the reader built avg_temp, and a network's
# ``config`` from before its width was read from its weights.
RETIRED_KEYS = {"model.literal_weights": ((), "literal_weights", False),
                "model.preprocess.month_encoding": (
                    ("preprocess",), "month_encoding", "cyclic"),
                "model.preprocess.add_avg_temp": (
                    ("preprocess",), "add_avg_temp", True),
                "model.learners[1].mlp.config": (
                    ("learners", 1, "mlp"), "config", FORMAT_2_CONFIG)}


def test_a_model_file_with_retired_keys_is_refused(model, tmp_path):
    for where, edit in RETIRED_KEYS.items():
        doc = json.loads(model_to_json(model))
        corrupt_model_doc(doc, *edit)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: corrupt model document ({where} "
                                   "is a key the model does not write)")


# Each object of the document, by the path a refusal names it.
OBJECTS = {"": None, "model.": (), "model.preprocess.": ("preprocess",),
           "model.preprocess.scaler.": ("preprocess", "scaler"),
           "model.preprocess.scaler.means.": ("preprocess", "scaler",
                                              "means"),
           "model.weights.": ("weights",),
           "model.learners[0].": ("learners", 0),
           "model.learners[0].mlp.": FIRST_MLP,
           "model.learners[0].mlp.config.": FIRST_MLP + ("config",)}


@pytest.mark.parametrize("where", sorted(OBJECTS))
def test_a_key_the_model_does_not_write_is_refused_by_path(model, tmp_path,
                                                           where):
    """Every object of a saved document holds only the keys the model
    writes (the document as written reloads: see the round-trip test).
    The ensemble weights, an array object in format 1, and a network's
    config, an object in formats 1 and 2, are written no more, so an extra
    key inside one is refused at the object itself."""
    doc = json.loads(model_to_json(model))
    refused = f"{where}extra"
    if where == "model.weights.":
        doc["model"]["weights"] = _enc_array(model.weights)
        refused = "model.weights"
    if where == "model.learners[0].mlp.config.":
        corrupt_model_doc(doc, FIRST_MLP, "config", dict(FORMAT_2_CONFIG))
        refused = "model.learners[0].mlp.config"
    corrupt_model_doc(doc, OBJECTS[where], "extra", 0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == (f"{path}: corrupt model document ({refused} "
                               "is a key the model does not write)")


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


CORRUPTIONS = {
    "w_hidden 1-D": (FIRST_MLP, "w_hidden", lambda a: a[0]),
    "w_hidden too few hidden units": (FIRST_MLP, "w_hidden",
                                      lambda a: a[:, :-1]),
    "learners disagree on features": (("learners", -1, "mlp"), "w_hidden",
                                      lambda a: a[:-1]),
    "boolean b_out": (FIRST_MLP, "b_out", True),
    "integer b_out beyond float range": (FIRST_MLP, "b_out", 10**400),
    "scaler stds too long": (("preprocess", "scaler"), "stds",
                             lambda a: np.append(a, 1.0)),
    "NaN in w_hidden": (FIRST_MLP, "w_hidden", one_nan),
    "NaN in b_hidden": (FIRST_MLP, "b_hidden", one_nan),
    "NaN in w_out": (FIRST_MLP, "w_out", one_nan),
    "NaN target_center": (("preprocess",), "target_center", float("nan")),
    "NaN target_scale": (("preprocess",), "target_scale", float("nan")),
    # Both are sample standard deviations, so 0 and below are corrupt.
    "zero target_scale": (("preprocess",), "target_scale", 0.0),
    "negative target_scale": (("preprocess",), "target_scale", -1.0),
    "zero scaler std": (("preprocess", "scaler"), "stds",
                        lambda a: np.where(np.arange(a.size) == 0, 0.0, a)),
    "negative scaler stds": (("preprocess", "scaler"), "stds", lambda a: -a),
    # A network's training config, which formats 1 and 2 wrote, at values
    # they refused too.  At any value it is a key the model does not write.
    "training patience 0": (FIRST_MLP, "config",
                            {**FORMAT_2_CONFIG, "patience": 0}),
    "config hidden_size differs": (FIRST_MLP, "config",
                                   {**FORMAT_2_CONFIG, "hidden_size": 30}),
    # A learner's error is the MSE of its out-of-bag predictions.
    "NaN learner error": (("learners", 0), "error", float("nan")),
    "negative learner error": (("learners", 0), "error", -1.0),
    "string learner error": (("learners", 0), "error", "abc"),
    "integer learner error": (("learners", 0), "error", 1),
    # A held float is written as a JSON float, and an array as canonical
    # base64: the decoder drops characters outside its alphabet, so this
    # one decodes to the stored network.
    "integer b_out": (FIRST_MLP, "b_out", 1),
    "non-canonical base64": (FIRST_MLP + ("w_out",), "data",
                             lambda d: d[:4] + "\n!*" + d[4:]),
    # Retired options are keys the model does not write, at any value.
    "string literal_weights": ((), "literal_weights", "no"),
    "literal_weights flipped": ((), "literal_weights", True),
    "no learners": ((), "learners", []),
    "string network seed": (FIRST_MLP, "seed", "7"),
    "string epochs_run": (FIRST_MLP, "epochs_run", "50"),
    "negative epochs_run": (FIRST_MLP, "epochs_run", -1),
    "fractional epochs": (FIRST_MLP, "config",
                          {**FORMAT_2_CONFIG, "epochs": 2.5}),
    "boolean patience": (FIRST_MLP, "config",
                         {**FORMAT_2_CONFIG, "patience": True}),
    "infinite learning_rate": (FIRST_MLP, "config", {
        **FORMAT_2_CONFIG, "learning_rate": float("inf")}),
    "zero learning_rate": (FIRST_MLP, "config",
                           {**FORMAT_2_CONFIG, "learning_rate": 0.0}),
    "string learning_rate": (FIRST_MLP, "config",
                             {**FORMAT_2_CONFIG, "learning_rate": "0.01"}),
    "config with an unknown key": (FIRST_MLP, "config",
                                   {**FORMAT_2_CONFIG, "momentum": 0.9}),
    "config without epochs": (FIRST_MLP, "config", {
        key: value for key, value in FORMAT_2_CONFIG.items()
        if key != "epochs"}),
    # The chain holds a scaler.
    "scaler dropped": (("preprocess",), "scaler", None),
    # The scaler scales every selected feature.  A list holds several edits:
    # this one drops the last feature's mean and std.
    "scaler drops a selected feature": [
        (("preprocess", "scaler"), "means", lambda a: a[:-1]),
        (("preprocess", "scaler"), "stds", lambda a: a[:-1])],
    "unknown month_encoding": (("preprocess",), "month_encoding", "weekly"),
    # Each network takes one input per feature the chain selects.
    "chain selects a feature fewer": (("preprocess",), "selected_features",
                                      lambda f: f[:-1]),
    # The chain selects distinct names.
    **{f"selected feature 0 is {json.dumps(value)}": (
        ("preprocess", "selected_features"), 0, value)
       for value in (0, None, ["x"])},
    "selected feature 1 repeats feature 0": (
        ("preprocess",), "selected_features", lambda f: f[:1] * 2 + f[2:]),
    # Keys that only format 1 wrote: the subsample indices, the training
    # MSE, the weighting and the copies of facts.  At any value, each is a
    # key the model does not write.
    "NaN train_error": (FIRST_MLP, "train_error", float("nan")),
    "negative network train_error": (FIRST_MLP, "train_error", -1.0),
    "string learner train_error": (("learners", 0), "train_error", "abc"),
    "negative learner train_error": (("learners", 0), "train_error", -1),
    "string subsample index": (("learners", 0), "subsample_indices", ["x"]),
    "boolean subsample index": (("learners", 0), "subsample_indices",
                                [True]),
    "NaN weight_b": ((), "weight_b", float("nan")),
    "zero weight_b": ((), "weight_b", 0.0),
    "NaN weight_c": ((), "weight_c", float("nan")),
    # A steepness 50 times 1 and a centre one ulp above 1; format 1 refused
    # such a weighting as not derived from the errors, format 2 at any value.
    "weight_b scaled": ((), "weight_b", 50.0),
    "weight_c one ulp up": ((), "weight_c", math.nextafter(1.0, math.inf)),
    "NaN in the ensemble weights": ((), "weights",
                                    _enc_array(np.array([np.nan, 1.0]))),
    # hidden sizes lie in [5, 30], and seeds are >= 0
    "learner hidden_size differs": (("learners", 0), "hidden_size", 4),
    "learner seed differs": (("learners", 0), "seed", -1),
    "network hidden_size differs": (FIRST_MLP, "hidden_size", 4),
    "feature_scaling left out": (("preprocess",), "stage_order", [
        x for x in PIPELINE_STAGES if x != "feature_scaling"]),
    "feature_scaling twice": (("preprocess",), "stage_order",
                              [*PIPELINE_STAGES, "feature_scaling"]),
    "unknown stage": (("preprocess",), "stage_order",
                      [*PIPELINE_STAGES, "bogus"]),
    "stage_order reversed": (("preprocess",), "stage_order",
                             list(PIPELINE_STAGES[::-1])),
    "outlier_removal left out": (("preprocess",), "stage_order", [
        x for x in PIPELINE_STAGES if x != "outlier_removal"]),
    "transformation alone, no scaler": [
        (("preprocess",), "stage_order", ["feature_transformation"]),
        (("preprocess",), "scaler", None)],
    "string log_target": (("preprocess",), "log_target", "no"),
    "log_target flipped": (("preprocess",), "log_target", False),
    "log_features holds a feature": (("preprocess",), "log_features",
                                     ["rainfall"]),
    "chain is a list": ((), "preprocess", [0.5]),
    "string learner": (("learners",), 0, "learner"),
    "network is a list": (("learners", 0), "mlp", [0.5]),
    "scaler is a list": (("preprocess",), "scaler", [0.5]),
    "model is a list": (None, "model", [0.5]),
    "string w_hidden": (FIRST_MLP, "w_hidden", "x"),
}


# Corruptions of a fact that a type of the model refuses, and how each
# refusal begins.
TYPE_MESSAGES = {
    "selected feature 0 is 0": "selected_features must be distinct strings",
    "selected feature 0 is null":
        "selected_features must be distinct strings",
    'selected feature 0 is ["x"]':
        "selected_features must be distinct strings",
    "selected feature 1 repeats feature 0":
        "selected_features must be distinct strings",
    "NaN in w_hidden": "the network's weights are not all finite",
    "zero scaler std": "scaler means and stds must be vectors",
    "zero target_scale": "target_center must be finite and target_scale",
    "learners disagree on features": "the chain selects",
    "no learners": "the ensemble has no learners",
    "NaN learner error": "errors must be finite and >= 0",
    "negative learner error": "errors must be finite and >= 0",
}


# The corruptions the loader refuses because the document does not hold a
# copy of what the model writes, and the path each refusal names.
COPY_PATHS = {
    "integer b_out": "model.learners[0].mlp.b_out",
    "integer learner error": "model.learners[0].error",
    "non-canonical base64": "model.learners[0].mlp.w_out.data",
    "chain is a list": "model.preprocess",
    "string learner": "model.learners[0]",
    "network is a list": "model.learners[0].mlp",
    "scaler is a list": "model.preprocess.scaler",
    "model is a list": "model",
    "string w_hidden": "model.learners[0].mlp.w_hidden",
}


# The corruptions that add a key the model does not write, and its path.
UNWRITTEN_PATHS = {
    "NaN train_error": "model.learners[0].mlp.train_error",
    "negative network train_error": "model.learners[0].mlp.train_error",
    "string learner train_error": "model.learners[0].train_error",
    "negative learner train_error": "model.learners[0].train_error",
    "string subsample index": "model.learners[0].subsample_indices",
    "boolean subsample index": "model.learners[0].subsample_indices",
    "NaN weight_b": "model.weight_b",
    "zero weight_b": "model.weight_b",
    "NaN weight_c": "model.weight_c",
    "weight_b scaled": "model.weight_b",
    "weight_c one ulp up": "model.weight_c",
    "NaN in the ensemble weights": "model.weights",
    "learner hidden_size differs": "model.learners[0].hidden_size",
    "learner seed differs": "model.learners[0].seed",
    "network hidden_size differs": "model.learners[0].mlp.hidden_size",
    **{case: "model.learners[0].mlp.config" for case in (
        "training patience 0", "config hidden_size differs",
        "fractional epochs", "boolean patience", "infinite learning_rate",
        "zero learning_rate", "string learning_rate",
        "config with an unknown key", "config without epochs")},
    "feature_scaling left out": "model.preprocess.stage_order",
    "feature_scaling twice": "model.preprocess.stage_order",
    "unknown stage": "model.preprocess.stage_order",
    "stage_order reversed": "model.preprocess.stage_order",
    "outlier_removal left out": "model.preprocess.stage_order",
    "string log_target": "model.preprocess.log_target",
    "log_target flipped": "model.preprocess.log_target",
    "log_features holds a feature": "model.preprocess.log_features",
    "literal_weights flipped": "model.literal_weights",
    "unknown month_encoding": "model.preprocess.month_encoding",
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
    message = "corrupt model document"
    if corruption in COPY_PATHS:
        message += (f" ({COPY_PATHS[corruption]} differs from what the "
                    "model writes)")
    if corruption in UNWRITTEN_PATHS:
        message += (f" ({UNWRITTEN_PATHS[corruption]} is a key the model "
                    "does not write)")
    if corruption in TYPE_MESSAGES:
        message += f" ({TYPE_MESSAGES[corruption]}"
    with pytest.raises(DataError, match=re.escape(message)):
        load_model(path)


def test_every_copy_case_is_a_corruption():
    assert set(COPY_PATHS) <= set(CORRUPTIONS)


def test_every_type_case_is_a_corruption():
    assert set(TYPE_MESSAGES) <= set(CORRUPTIONS)


def test_every_unwritten_case_is_a_corruption():
    assert set(UNWRITTEN_PATHS) <= set(CORRUPTIONS)


def test_a_missing_key_is_refused_by_path(model, tmp_path):
    """Deleting any one key under ``model``, at any depth, is refused with
    the key's path."""
    text = model_to_json(model)
    keys = [path for path in _parts(json.loads(text))
            if path[0] == "model" and type(path[-1]) is str]
    assert len(keys) > 3 * 14
    file = tmp_path / "model.json"
    for *head, key in keys:
        doc = json.loads(text)
        del reduce(lambda obj, step: obj[step], head, doc)[key]
        file.write_text(json.dumps(doc), encoding="utf-8")
        where = "".join(f"[{step}]" if type(step) is int else f".{step}"
                        for step in (*head, key))[1:]
        with pytest.raises(DataError) as info:
            load_model(file)
        assert str(info.value) == (f"{file}: corrupt model document "
                                   f"({where} is missing)")


@pytest.mark.parametrize("path,key", [((), "weight_b"),
                                      (("learners", 1), "seed"),
                                      (("preprocess", "scaler"), "columns")])
def test_a_missing_copy_is_refused_by_path(model, tmp_path, path, key):
    """Format 1 wrote ``weight_b``, each learner's seed and the scaler's
    columns as copies of facts held elsewhere: the learners' errors, the
    network's seed and the selected features.  Format 2 leaves each copy
    out, and a document that puts one back, at the value format 1 wrote, is
    refused by its path."""
    doc = json.loads(model_to_json(model))
    head = doc["model"]
    copies = {"weight_b": resolve_weight_params(
                  [bl.error for bl in model.learners])[0],
              "seed": head["learners"][1]["mlp"]["seed"],
              "columns": head["preprocess"]["selected_features"]}
    obj = reduce(lambda obj, step: obj[step], path, head)
    assert key not in obj
    obj[key] = copies[key]
    file = tmp_path / "model.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    where = "model" + "".join(f"[{step}]" if type(step) is int else f".{step}"
                              for step in path + (key,))
    with pytest.raises(DataError) as info:
        load_model(file)
    assert str(info.value) == (f"{file}: corrupt model document ({where} is "
                               "a key the model does not write)")


@pytest.mark.parametrize("key,change", [
    ("weight_b", lambda b: b * 50.0),
    ("weight_c", lambda c: math.nextafter(c, math.inf))],
    ids=["weight_b scaled", "weight_c one ulp up"])
def test_a_weighting_train_never_writes_is_rejected(model, tmp_path, key,
                                                    change):
    """The model derives its weighting from the learners' errors and writes
    none of it, so a document that stores the logistic's steepness
    ``weight_b`` or centre ``weight_c``, here moved from the one the errors
    give, is refused by the key's path."""
    errors = [bl.error for bl in model.learners]
    derived = dict(zip(("weight_b", "weight_c"),
                       resolve_weight_params(errors)))
    doc = json.loads(model_to_json(model))
    corrupt_model_doc(doc, (), key, change(derived[key]))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == (f"{path}: corrupt model document (model.{key} "
                               "is a key the model does not write)")


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
    ConfigError, or gives a model that writes what the document holds and
    that scores rows or raises a TeaYieldError."""
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
        stored = json.loads(path.read_text(encoding="utf-8"))["model"]
    assert (json.dumps(stored, sort_keys=True)
            == json.dumps(_enc_ensemble(loaded), sort_keys=True))
    try:
        with np.errstate(over="ignore"):
            preds = predict_ensemble(loaded, canonical_raw)
    except TeaYieldError:
        return
    assert preds.shape == (canonical_raw.n_samples,)
