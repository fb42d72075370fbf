import json

import numpy as np
import pytest

from teayield.ensemble import predict_ensemble
from teayield.errors import DataError
from teayield.pipeline import train_ensemble_pipeline
from teayield.serialize import load_model, model_to_json, save_model

from conftest import tiny_config


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
