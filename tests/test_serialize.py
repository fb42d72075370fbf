import json

import numpy as np
import pytest

from teayield.ensemble import predict_ensemble
from teayield.errors import DataError
from teayield.pipeline import train_ensemble_pipeline
from teayield.serialize import load_model, model_to_json, save_model

from conftest import corrupt_model_doc, tiny_config


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


FIRST_MLP = ("learners", 0, "mlp")
CORRUPTIONS = {
    "w_hidden 1-D": (FIRST_MLP, "w_hidden", lambda a: a[0]),
    "w_hidden too few hidden units": (FIRST_MLP, "w_hidden",
                                      lambda a: a[:, :-1]),
    "learners disagree on features": (("learners", -1, "mlp"), "w_hidden",
                                      lambda a: a[:-1]),
    "NaN train_error": (FIRST_MLP, "train_error", float("nan")),
    "boolean b_out": (FIRST_MLP, "b_out", True),
    "scaler stds too long": (("preprocess", "scaler"), "stds",
                             lambda a: np.append(a, 1.0)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_arrays_and_numbers_are_rejected(model, tmp_path, corruption):
    assert len(model.learners) >= 2
    doc = json.loads(model_to_json(model))
    corrupt_model_doc(doc, *CORRUPTIONS[corruption])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="corrupt model document"):
        load_model(path)
