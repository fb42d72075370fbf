"""Versioned model persistence.

Format: one JSON document, ``{"format": "teayield-model", "version": 1,
"kind": "ensemble", ...}``; ensembles are the only kind the command line
trains, saves and scores.  Float64 arrays are embedded as base64 of their
little-endian bytes, scalars as plain JSON numbers, so a round trip is
prediction-exact; keys are sorted and separators fixed, so the same model
always serializes to the same bytes.

The document holds the fitted facts: each network, each learner's error
and subsample, and the fitted chain.  It also holds copies: a learner's
``hidden_size`` and ``seed``, a network's ``hidden_size``, the weighting
``EnsembleModel`` derives (``weight_b``, ``weight_c``, ``weights``), the
scaler's ``columns``, and the fixed chain's ``stage_order``,
``log_target`` and ``log_features``.

The loader converts each fact with its declared type (``int``, ``float``,
or an array decoded from base64 and reshaped), builds the model, whose
types refuse what no fit gives, and refuses a document that does not hold
exactly what the model writes: each written key with the same JSON type
and value, a float in every bit, and no other key.  Its one other check,
which no type sees, is that the chain has a scaler.  Every refusal reads
``<path>: corrupt model document (...)``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict

import numpy as np

from .ensemble import BaseLearner, EnsembleModel
from .errors import DataError, FitError
from .preprocess import PIPELINE_STAGES, PreprocessState, ScalerState
from .regressors import MLPModel, MLPTrainConfig

FORMAT_NAME = "teayield-model"
FORMAT_VERSION = 1


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _dec_array(stored, where: str) -> np.ndarray:
    obj = _object(stored, where)
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])


def _enc_mlp(m: MLPModel) -> dict:
    return {"hidden_size": m.hidden_size,
            "w_hidden": _enc_array(m.w_hidden), "b_hidden": _enc_array(m.b_hidden),
            "w_out": _enc_array(m.w_out), "b_out": m.b_out,
            "config": asdict(m.config), "seed": m.seed,
            "epochs_run": m.epochs_run, "train_error": m.train_error}


def _dec_config(obj: dict) -> MLPTrainConfig:
    return MLPTrainConfig(
        hidden_size=int(obj["hidden_size"]), epochs=int(obj["epochs"]),
        early_stop_fraction=float(obj["early_stop_fraction"]),
        patience=int(obj["patience"]))


def _dec_mlp(stored, where: str) -> MLPModel:
    obj = _object(stored, where)
    return MLPModel(*(_dec_array(obj[key], f"{where}.{key}")
                      for key in ("w_hidden", "b_hidden", "w_out")),
                    float(obj["b_out"]), _dec_config(obj["config"]),
                    int(obj["seed"]), int(obj["epochs_run"]),
                    float(obj["train_error"]))


def _object(stored, where: str) -> dict:
    """``stored``, refused unless it is a JSON object, as at ``where``."""
    if not isinstance(stored, dict):
        raise ValueError(f"{where} differs from what the model writes")
    return stored


def _dec_learner(stored, where: str) -> BaseLearner:
    obj = _object(stored, where)
    return BaseLearner(_dec_mlp(obj["mlp"], f"{where}.mlp"),
                       tuple(map(int, obj["subsample_indices"])),
                       float(obj["train_error"]))


def _enc_learner(bl: BaseLearner) -> dict:
    return {"mlp": _enc_mlp(bl.model), "hidden_size": bl.model.hidden_size,
            "subsample_indices": list(bl.subsample_indices),
            "train_error": bl.train_error, "seed": bl.model.seed}


def _enc_head(m: EnsembleModel) -> dict:
    """All that ``_enc_ensemble`` writes but the learners; ``weight_b`` and
    ``weight_c`` first, so a wrong weighting is named by them."""
    state = m.preprocess
    return {
        "weight_b": m.weight_b, "weight_c": m.weight_c,
        "weights": _enc_array(m.weights),
        "preprocess": {
            "stage_order": list(PIPELINE_STAGES),
            "selected_features": list(state.selected_features),
            "scaler": {
                "columns": list(state.selected_features),
                "means": _enc_array(state.scaler.means),
                "stds": _enc_array(state.scaler.stds)},
            "log_features": [],
            "log_target": True,
            "target_center": state.target_center,
            "target_scale": state.target_scale,
        },
    }


def _enc_ensemble(m: EnsembleModel) -> dict:
    return {**_enc_head(m), "learners": list(map(_enc_learner, m.learners))}


def _refuse_unwritten(stored: dict, written, where: str) -> None:
    """Refuse a key of ``stored`` that is not in ``written``, naming its
    path: ``where`` followed by the key."""
    unwritten = sorted(set(stored).difference(written))
    if unwritten:
        raise ValueError(f"{where}{unwritten[0]} is a key the model does "
                         "not write")


def _check_copies(stored, written, where: str) -> None:
    """Refuse ``stored`` unless it holds exactly ``written``, what the model
    writes at ``where``: each written key with the same JSON type and value,
    a float in every bit, and no other key."""
    if isinstance(written, dict) and isinstance(stored, dict):
        _refuse_unwritten(stored, written, f"{where}.")
        for key, value in written.items():
            if key not in stored:
                raise ValueError(f"{where}.{key} is missing")
            _check_copies(stored[key], value, f"{where}.{key}")
    elif (isinstance(written, list) and isinstance(stored, list)
          and len(stored) == len(written)):
        for i, (item, value) in enumerate(zip(stored, written)):
            _check_copies(item, value, f"{where}[{i}]")
    # a float's repr is the shortest text that reads back to its bits
    elif type(stored) is not type(written) or repr(stored) != repr(written):
        raise ValueError(f"{where} differs from what the model writes")


def _dec_ensemble(stored) -> EnsembleModel:
    """The model of the facts in ``stored``, once it holds what the model
    writes.  The learners are written and checked one at a time, so one
    learner's encoding is held at once."""
    obj = _object(stored, "model")
    pre = _object(obj["preprocess"], "model.preprocess")
    if pre["scaler"] is None:
        raise ValueError("the chain has no scaler")
    where = "model.preprocess.scaler"
    scaler = _object(pre["scaler"], where)
    state = PreprocessState(
        selected_features=tuple(pre["selected_features"]),
        scaler=ScalerState(_dec_array(scaler["means"], f"{where}.means"),
                           _dec_array(scaler["stds"], f"{where}.stds")),
        log_target=True, target_center=float(pre["target_center"]),
        target_scale=float(pre["target_scale"]))
    model = EnsembleModel(tuple(
        _dec_learner(stored, f"model.learners[{i}]")
        for i, stored in enumerate(obj["learners"])), state)
    for i, (stored, bl) in enumerate(zip(obj["learners"], model.learners)):
        _check_copies(stored, _enc_learner(bl), f"model.learners[{i}]")
    head = {key: value for key, value in obj.items() if key != "learners"}
    _check_copies(head, _enc_head(model), "model")
    return model


_JSON = {"sort_keys": True, "separators": (",", ":")}


def _document(model: EnsembleModel) -> dict:
    if not isinstance(model, EnsembleModel):
        raise DataError(f"cannot serialize object of type {type(model).__name__}")
    if model.preprocess.scaler is None or not model.preprocess.log_target:
        raise DataError("cannot serialize a model whose chain lacks stages "
                        "of the fixed one")
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION,
            "kind": "ensemble", "model": _enc_ensemble(model)}


def model_to_json(model: EnsembleModel) -> str:
    return json.dumps(_document(model), **_JSON) + "\n"


def save_model(model: EnsembleModel, path) -> None:
    """Write ``model_to_json(model)`` to ``path``, encoded as it is written.
    A hundred learners' subsample indices make tens of thousands of pieces,
    which the one-shot encoder of ``model_to_json`` holds all at once: about
    1 MB of peak memory that ``train`` does not need."""
    doc = _document(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, **_JSON)
        fh.write("\n")


def load_model(path) -> EnsembleModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {doc.get('version')}")
    kind = doc.get("kind")
    if kind != "ensemble":
        raise DataError(f"{path}: unknown model kind {kind!r}")
    try:
        _refuse_unwritten(doc, ("format", "version", "kind", "model"), "")
        return _dec_ensemble(doc["model"])
    except (KeyError, TypeError, ValueError, OverflowError, FitError,
            DataError) as exc:
        raise DataError(f"{path}: corrupt model document ({exc})") from None
