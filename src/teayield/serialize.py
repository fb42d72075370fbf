"""Versioned model persistence.

Format: one JSON document, ``{"format": "teayield-model", "version": 1,
"kind": "ensemble", ...}``; ensembles are the only kind the command line
trains, saves and scores.  Float64 arrays are embedded as base64 of their
little-endian bytes, scalars as plain JSON numbers, so a round trip is
prediction-exact; keys are sorted and separators fixed, so the same model
always serializes to the same bytes.

A learner's ``hidden_size`` and ``seed`` are copies of its network's, and
the network's ``hidden_size`` is a copy of its ``config.hidden_size``.  The
copies are written from the network, and the loader rejects a document
whose copies disagree.  Likewise ``weight_b`` and ``weight_c`` are copies
of ``resolve_weight_params`` of the learners' train errors, and ``weights``
a copy of the weights the model makes from those errors, ``weight_b`` and
``weight_c``; the loader works all three out and rejects a document whose
copies differ from them in any bit.  Each network takes one input per
feature the chain selects, and a document whose chain and networks
disagree on that count is rejected too.

The chain is the fixed one of ``preprocess.PIPELINE_STAGES``, the one
``train`` fits, in full: ``stage_order`` is written as that list, the
scaler's ``columns`` as the selected features, and ``log_target`` as
``true``.  The loader rejects a document whose chain says anything else.
``log_features`` is written as ``[]``, and the loader accepts it, like the
keys of two retired options that documents written by older versions hold,
the weighting rule and the month encoding, only at the value of the one
mode left.  A network's ``config`` of such a document may also hold the
retired ``learning_rate``, which is checked and dropped.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, fields

import numpy as np

from .ensemble import BaseLearner, EnsembleModel, resolve_weight_params
from .errors import DataError, FitError
from .preprocess import PIPELINE_STAGES, PreprocessState, ScalerState
from .regressors import MLPModel, MLPTrainConfig

FORMAT_NAME = "teayield-model"
FORMAT_VERSION = 1


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def _dec_array(obj: dict, what: str = "array") -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} holds non-finite values")
    return a


def _enc_mlp(m: MLPModel) -> dict:
    return {"hidden_size": m.hidden_size,
            "w_hidden": _enc_array(m.w_hidden), "b_hidden": _enc_array(m.b_hidden),
            "w_out": _enc_array(m.w_out), "b_out": m.b_out,
            "config": asdict(m.config), "seed": m.seed,
            "epochs_run": m.epochs_run, "train_error": m.train_error}


def _dec_shaped(obj: dict, shape: tuple, what: str) -> np.ndarray:
    a = _dec_array(obj, what)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    return a


def _dec_finite(value, what: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _dec_int(value, what: str, low: int = 0) -> int:
    if type(value) is not int or value < low:  # a bool is not an int here
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _dec_error(value, what: str) -> float:
    """A mean squared error: a finite number >= 0."""
    if _dec_finite(value, what) < 0.0:
        raise ValueError(f"{what} must be >= 0, got {value!r}")
    return float(value)


def _dec_config(obj: dict) -> MLPTrainConfig:
    """A network's training config: exactly the fields of ``MLPTrainConfig``,
    each an integer or a finite number as declared, and in a document
    written before iRprop⁻ the gradient-descent ``learning_rate`` too, a
    finite number > 0 that nothing reads."""
    keys = {f.name for f in fields(MLPTrainConfig)}
    if set(obj) not in (keys, keys | {"learning_rate"}):
        raise ValueError(f"network config has keys {sorted(obj)}")
    if "learning_rate" in obj and not _dec_finite(obj["learning_rate"],
                                                  "learning_rate") > 0.0:
        raise ValueError(f"learning_rate must be > 0, "
                         f"got {obj['learning_rate']!r}")
    return MLPTrainConfig(
        hidden_size=_dec_int(obj["hidden_size"], "config hidden_size"),
        epochs=_dec_int(obj["epochs"], "epochs"),
        early_stop_fraction=_dec_finite(obj["early_stop_fraction"],
                                        "early_stop_fraction"),
        patience=_dec_int(obj["patience"], "patience"))


def _dec_mlp(obj: dict) -> MLPModel:
    config = _dec_config(obj["config"])
    h = config.hidden_size
    if _dec_int(obj["hidden_size"], "hidden_size") != h:
        raise ValueError(f"hidden_size differs from config hidden_size {h}")
    w_hidden = _dec_array(obj["w_hidden"], "w_hidden")
    if w_hidden.ndim != 2 or w_hidden.shape[1] != h:
        raise ValueError(f"w_hidden has shape {w_hidden.shape}, "
                         f"expected (features, {h})")
    return MLPModel(w_hidden, _dec_shaped(obj["b_hidden"], (h,), "b_hidden"),
                    _dec_shaped(obj["w_out"], (h,), "w_out"),
                    _dec_finite(obj["b_out"], "b_out"), config,
                    _dec_int(obj["seed"], "seed"),
                    _dec_int(obj["epochs_run"], "epochs_run"),
                    _dec_error(obj["train_error"], "train_error"))


def _dec_learner(obj: dict) -> BaseLearner:
    model = _dec_mlp(obj["mlp"])
    for key in ("hidden_size", "seed"):
        if _dec_int(obj[key], f"learner {key}") != getattr(model, key):
            raise ValueError(f"learner {key} differs from its network's")
    return BaseLearner(model, tuple(_dec_int(i, "subsample index")
                                    for i in obj["subsample_indices"]),
                       _dec_error(obj["train_error"], "learner train_error"))


def _enc_ensemble(m: EnsembleModel) -> dict:
    state = m.preprocess
    return {
        "weights": _enc_array(m.weights),
        "weight_b": m.weight_b, "weight_c": m.weight_c,
        "learners": [
            {"mlp": _enc_mlp(bl.model), "hidden_size": bl.model.hidden_size,
             "subsample_indices": list(bl.subsample_indices),
             "train_error": bl.train_error, "seed": bl.model.seed}
            for bl in m.learners],
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


def _positive(value, what: str):
    """``value`` if every entry is > 0, as a standard deviation must be."""
    if not np.all(np.asarray(value) > 0.0):
        raise ValueError(f"{what} must be > 0")
    return value


def _dec_scaler(obj: dict | None, selected: list) -> ScalerState:
    """The scaler of the selected features, each in its place."""
    if obj is None:
        raise ValueError("the chain has no scaler")
    if obj["columns"] != selected:
        raise ValueError(f"the scaler scales {obj['columns']}, the chain "
                         f"selects {selected}")
    shape = (len(selected),)
    return ScalerState(_dec_shaped(obj["means"], shape, "scaler means"),
                       _positive(_dec_shaped(obj["stds"], shape, "scaler stds"),
                                 "scaler stds"))


def _dec_ensemble(obj: dict) -> EnsembleModel:
    pre = obj["preprocess"]
    for key, value in (("stage_order", list(PIPELINE_STAGES)),
                       ("log_target", True)):
        if type(pre[key]) is not type(value) or pre[key] != value:
            raise ValueError(f"the chain is the fixed one; {key} may only "
                             f"be {json.dumps(value)}, got "
                             f"{json.dumps(pre[key])}")
    for holder, key, value in ((obj, "literal_weights", False),
                               (pre, "month_encoding", "cyclic"),
                               (pre, "log_features", [])):
        got = holder.get(key, value)
        if type(got) is not type(value) or got != value:
            raise ValueError(f"{key} is a retired option; it may only be "
                             f"{json.dumps(value)}, got {json.dumps(got)}")
    state = PreprocessState(
        selected_features=tuple(pre["selected_features"]),
        scaler=_dec_scaler(pre["scaler"], pre["selected_features"]),
        log_target=True,
        target_center=_dec_finite(pre["target_center"], "target_center"),
        target_scale=_positive(_dec_finite(pre["target_scale"], "target_scale"),
                               "target_scale"))
    learners = tuple(map(_dec_learner, obj["learners"]))
    if not learners:
        raise ValueError("the ensemble has no learners")
    inputs = {bl.model.w_hidden.shape[0] for bl in learners}
    if inputs != {len(state.selected_features)}:
        raise ValueError(f"the chain selects {len(state.selected_features)} "
                         f"features, the networks take {sorted(inputs)}")
    b, c = resolve_weight_params([bl.train_error for bl in learners])
    for key, value in (("weight_b", b), ("weight_c", c)):
        if _dec_finite(obj[key], key).hex() != value.hex():
            raise ValueError(f"{key} differs from that of the learners' "
                             f"train errors")
    model = EnsembleModel(learners, b, c, state)
    if not np.array_equal(_dec_array(obj["weights"], "weights"),
                          model.weights):
        raise ValueError("weights differ from those of the learners' "
                         "train errors")
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
        return _dec_ensemble(doc["model"])
    except (KeyError, TypeError, ValueError, OverflowError, FitError) as exc:
        raise DataError(f"{path}: corrupt model document ({exc})") from None
