"""Versioned model persistence.

Format: one JSON document, ``{"format": "teayield-model", "version": 3,
"kind": "ensemble", "model": ...}``; ensembles are the only kind the command
line trains, saves and scores.  Float64 arrays are embedded as base64 of
their little-endian bytes, scalars as plain JSON numbers, so a round trip is
prediction-exact; keys are sorted and separators fixed, so the same model
always serializes to the same bytes.

The document holds the fitted facts and nothing else: each learner's
network (its weights, seed and epochs run) and error, and the fitted chain
(the selected features, the scaler's means and stds, and the target's
centre and scale).  The weights, which the model derives from the errors,
the stages every chain has, and a network's width, which is its weights'
shape, are not written.  Version 1 also held the learners' subsample indices
and copies of the facts, and versions 1 and 2 each network's training
config; a file of either is refused with the advice to train again.

The loader reads each fact with its declared type (``int``, ``float``, or
an array decoded from base64 and reshaped), naming the path of a key it
does not find, and builds the model, whose types refuse what no fit gives.
It then refuses a document that does not hold exactly what the model
writes: each key with the same JSON type and value, a float in every bit,
and no other key.  Every refusal reads ``<path>: corrupt model document
(...)``.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .ensemble import BaseLearner, EnsembleModel
from .errors import DataError, FitError
from .preprocess import PreprocessState, ScalerState
from .regressors import MLPModel

FORMAT_NAME = "teayield-model"
FORMAT_VERSION = 3


def _at(where: str, key: str) -> str:
    """The path of ``key`` in the object at ``where``."""
    return f"{where}.{key}" if where else key


def _fields(stored, where: str):
    """A reader of the object ``stored`` at ``where``, refused unless it is
    a JSON object.  ``read(key)`` is the value at ``key``, or
    ``decode(value, path)`` when a decoder is given; a missing key is named
    by its path."""
    if not isinstance(stored, dict):
        raise ValueError(f"{where} differs from what the model writes")

    def read(key: str, decode=None):
        if key not in stored:
            raise ValueError(f"{_at(where, key)} is missing")
        return stored[key] if decode is None else decode(stored[key],
                                                         _at(where, key))
    return read


def _enc_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _dec_array(stored, where: str) -> np.ndarray:
    read = _fields(stored, where)
    raw = base64.b64decode(read("data"))
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(
        read("shape"))


def _enc_mlp(m: MLPModel) -> dict:
    return {"w_hidden": _enc_array(m.w_hidden),
            "b_hidden": _enc_array(m.b_hidden), "w_out": _enc_array(m.w_out),
            "b_out": m.b_out, "seed": m.seed, "epochs_run": m.epochs_run}


def _dec_mlp(stored, where: str) -> MLPModel:
    read = _fields(stored, where)
    return MLPModel(*(read(key, _dec_array)
                      for key in ("w_hidden", "b_hidden", "w_out")),
                    float(read("b_out")), int(read("seed")),
                    int(read("epochs_run")))


def _dec_learner(stored, where: str) -> BaseLearner:
    read = _fields(stored, where)
    return BaseLearner(read("mlp", _dec_mlp), float(read("error")))


def _enc_learner(bl: BaseLearner) -> dict:
    return {"mlp": _enc_mlp(bl.model), "error": bl.error}


def _enc_head(m: EnsembleModel) -> dict:
    """All that ``_enc_ensemble`` writes but the learners: the chain."""
    state = m.preprocess
    return {"preprocess": {
        "selected_features": list(state.selected_features),
        "scaler": {"means": _enc_array(state.scaler.means),
                   "stds": _enc_array(state.scaler.stds)},
        "target_center": state.target_center,
        "target_scale": state.target_scale}}


def _enc_ensemble(m: EnsembleModel) -> dict:
    return {**_enc_head(m), "learners": list(map(_enc_learner, m.learners))}


def _refuse_unwritten(stored: dict, written, where: str) -> None:
    """Refuse a key of ``stored``, the object at ``where``, that is not in
    ``written``, naming its path."""
    unwritten = sorted(set(stored).difference(written))
    if unwritten:
        raise ValueError(f"{_at(where, unwritten[0])} is a key the model "
                         "does not write")


def _check_written(stored, written, where: str) -> None:
    """Refuse ``stored`` unless it holds exactly ``written``, what the model
    writes at ``where``: each written key with the same JSON type and value,
    a float in every bit, and no other key.  The decoder has read every key
    the model writes, so none is missing."""
    if isinstance(written, dict) and isinstance(stored, dict):
        _refuse_unwritten(stored, written, where)
        for key, value in written.items():
            _check_written(stored[key], value, _at(where, key))
    elif (isinstance(written, list) and isinstance(stored, list)
          and len(stored) == len(written)):
        for i, (item, value) in enumerate(zip(stored, written)):
            _check_written(item, value, f"{where}[{i}]")
    # a float's repr is the shortest text that reads back to its bits
    elif type(stored) is not type(written) or repr(stored) != repr(written):
        raise ValueError(f"{where} differs from what the model writes")


def _dec_ensemble(stored, where: str) -> EnsembleModel:
    """The model of the facts in ``stored``, once it holds what the model
    writes.  The learners are written and checked one at a time, so one
    learner's encoding is held at once."""
    read = _fields(stored, where)
    pre = read("preprocess", _fields)
    scaler = pre("scaler", _fields)
    state = PreprocessState(
        selected_features=tuple(pre("selected_features")),
        scaler=ScalerState(scaler("means", _dec_array),
                           scaler("stds", _dec_array)),
        log_target=True, target_center=float(pre("target_center")),
        target_scale=float(pre("target_scale")))
    learners = read("learners")
    model = EnsembleModel(tuple(
        _dec_learner(item, f"{where}.learners[{i}]")
        for i, item in enumerate(learners)), state)
    for i, (item, bl) in enumerate(zip(learners, model.learners)):
        _check_written(item, _enc_learner(bl), f"{where}.learners[{i}]")
    head = {key: value for key, value in stored.items() if key != "learners"}
    _check_written(head, _enc_head(model), where)
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
    ``model_to_json`` holds the whole text, and the pieces its one-shot
    encoder joins, at once: writing that text raised ``train``'s peak RSS
    on the 120-row canonical set from 35.80-35.90 MB to 36.33-36.46 MB,
    higher in 5 of 5 alternating runs (2-core x86-64 VM, Python 3.11,
    numpy 2.4)."""
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
    version = doc.get("version")  # an int: 2.0 and true only compare equal
    if type(version) is int and version in (1, 2):
        raise DataError(f"{path}: the model format changed in version "
                        f"{FORMAT_VERSION}, and version {version} no longer "
                        "loads; train the model again")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    kind = doc.get("kind")
    if kind != "ensemble":
        raise DataError(f"{path}: unknown model kind {kind!r}")
    try:
        _refuse_unwritten(doc, ("format", "version", "kind", "model"), "")
        return _fields(doc, "")("model", _dec_ensemble)
    except (TypeError, ValueError, OverflowError, FitError,
            DataError) as exc:
        raise DataError(f"{path}: corrupt model document ({exc})") from None
