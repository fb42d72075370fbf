"""Versioned model persistence.

Format: one JSON document, ``{"format": "teayield-model", "version": 1,
"kind": "ensemble", ...}``; ensembles are the only kind the command line
trains, saves and scores.  Float64 arrays are embedded as base64 of their
little-endian bytes, scalars as plain JSON numbers, so a round trip is
prediction-exact; keys are sorted and separators fixed, so the same model
always serializes to the same bytes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict

import numpy as np

from .ensemble import BaseLearner, EnsembleModel
from .errors import DataError
from .preprocess import PreprocessState, ScalerState
from .regressors import MLPModel, MLPTrainConfig

FORMAT_NAME = "teayield-model"
FORMAT_VERSION = 1


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def _dec_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])


def _enc_mlp(m: MLPModel) -> dict:
    return {"hidden_size": m.hidden_size,
            "w_hidden": _enc_array(m.w_hidden), "b_hidden": _enc_array(m.b_hidden),
            "w_out": _enc_array(m.w_out), "b_out": m.b_out,
            "config": asdict(m.config), "seed": m.seed,
            "epochs_run": m.epochs_run, "train_error": m.train_error}


def _dec_shaped(obj: dict, shape: tuple, what: str) -> np.ndarray:
    a = _dec_array(obj)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    return a


def _dec_finite(value, what: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _dec_mlp(obj: dict) -> MLPModel:
    h = obj["hidden_size"]
    if isinstance(h, bool) or not isinstance(h, int) or h < 1:
        raise ValueError(f"hidden_size must be a positive integer, got {h!r}")
    w_hidden = _dec_array(obj["w_hidden"])
    if w_hidden.ndim != 2 or w_hidden.shape[1] != h:
        raise ValueError(f"w_hidden has shape {w_hidden.shape}, "
                         f"expected (features, {h})")
    return MLPModel(h, w_hidden, _dec_shaped(obj["b_hidden"], (h,), "b_hidden"),
                    _dec_shaped(obj["w_out"], (h,), "w_out"),
                    _dec_finite(obj["b_out"], "b_out"),
                    MLPTrainConfig(**obj["config"]), obj["seed"],
                    obj["epochs_run"],
                    _dec_finite(obj["train_error"], "train_error"))


def _enc_ensemble(m: EnsembleModel) -> dict:
    state = m.preprocess
    return {
        "weights": _enc_array(m.weights),
        "weight_b": m.weight_b, "weight_c": m.weight_c,
        "literal_weights": m.literal_weights,
        "learners": [
            {"mlp": _enc_mlp(bl.model), "hidden_size": bl.hidden_size,
             "subsample_indices": list(bl.subsample_indices),
             "train_error": bl.train_error, "seed": bl.seed}
            for bl in m.learners],
        "preprocess": {
            "month_encoding": state.month_encoding,
            "add_avg_temp": state.add_avg_temp,
            "stage_order": list(state.stage_order),
            "selected_features": list(state.selected_features),
            "scaler": None if state.scaler is None else {
                "columns": list(state.scaler.columns),
                "means": _enc_array(state.scaler.means),
                "stds": _enc_array(state.scaler.stds)},
            "log_features": list(state.log_features),
            "log_target": state.log_target,
            "target_center": state.target_center,
            "target_scale": state.target_scale,
        },
    }


def _dec_scaler(obj: dict) -> ScalerState:
    columns = tuple(obj["columns"])
    shape = (len(columns),)
    return ScalerState(columns, _dec_shaped(obj["means"], shape, "scaler means"),
                       _dec_shaped(obj["stds"], shape, "scaler stds"))


def _dec_ensemble(obj: dict) -> EnsembleModel:
    pre = obj["preprocess"]
    scaler = pre["scaler"]
    state = PreprocessState(
        month_encoding=pre["month_encoding"], add_avg_temp=pre["add_avg_temp"],
        stage_order=tuple(pre["stage_order"]),
        selected_features=tuple(pre["selected_features"]),
        scaler=None if scaler is None else _dec_scaler(scaler),
        log_features=tuple(pre["log_features"]), log_target=pre["log_target"],
        target_center=pre["target_center"], target_scale=pre["target_scale"])
    learners = tuple(
        BaseLearner(_dec_mlp(bl["mlp"]), bl["hidden_size"],
                    tuple(bl["subsample_indices"]), bl["train_error"],
                    bl["seed"])
        for bl in obj["learners"])
    if len({bl.model.w_hidden.shape[0] for bl in learners}) > 1:
        raise ValueError("learners disagree on the number of input features")
    return EnsembleModel(learners, _dec_array(obj["weights"]), obj["weight_b"],
                         obj["weight_c"], obj["literal_weights"], state)


def model_to_json(model: EnsembleModel) -> str:
    if not isinstance(model, EnsembleModel):
        raise DataError(f"cannot serialize object of type {type(model).__name__}")
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
           "kind": "ensemble", "model": _enc_ensemble(model)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_model(model: EnsembleModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> EnsembleModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {doc.get('version')}")
    kind = doc.get("kind")
    if kind != "ensemble":
        raise DataError(f"{path}: unknown model kind {kind!r}")
    try:
        return _dec_ensemble(doc["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt model document ({exc})") from None
