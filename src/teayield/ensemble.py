"""Selected, error-weighted ensemble of shallow networks.

The procedure: train a pool of single-hidden-layer networks with random
hidden sizes and random training subsamples for diversity; rank the pool by
running the relief feature ranker on the matrix of learner predictions
(each learner is a "feature", the true target is the target); walk the
ranked order with ``evaluation.forward_select``, the search feature
selection uses too, adding learners until ``patience`` prefixes in a row
fail to lower the best out-of-bag RMSE of the weighted combination, and
keep the best prefix; weight the survivors by a decreasing logistic in their
error eps_i,

    raw_i = 1 / (1 + exp(b * (eps_i - c))),   w_i = raw_i / sum(raw),

so lower-error learners get strictly larger weights; predict by the convex
combination sum(w_i * y_i).  A learner's error is its out-of-bag MSE, on the
rows its subsample left out (Breiman 1996, *Out-of-bag estimation*); every
subsample leaves a row out.

The selection fits nothing.  ``train_pool`` has each member predict every
row once, into one matrix that gives each member's error and that ranking
and selection read, and returns with it the matrix of the rows each member
left out.  A prefix predicts a row by the weighted mean of the members
whose subsample left that row out.  The walk starts at the first
ranked prefix that leaves every row out at least once, so every row is
scored from the first prefix on; with no such prefix, as in a pool of three
on 120 rows, the whole pool is kept.  The fitted preprocessing needed to
score raw records travels inside the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dataset import FeatureMatrix
from .errors import ConfigError, DataError, naming
from .evaluation import forward_select
from .feature_select import RankedFeatures, rrelieff
from .preprocess import PreprocessState
from .regressors import (HIDDEN_RANGE, MLPModel, MLPTrainConfig, fit_mlp,
                         predict, predict_mlp)
from .util import derive_seed, generator, write_table

# Rows scored at once: ``predict_ensemble`` cuts a matrix into blocks of this
# size, and ``teayield predict`` reads and scores its file in them.
# ``kernels.mlp_forward`` works a block two hidden units at a time
# (``UNIT_ROWS // SCORE_BLOCK``), so it holds 32 KB of activations, and as
# much again for the terms it adds, whatever a member's width.
SCORE_BLOCK = 2048


@dataclass(frozen=True)
class EnsembleConfig:
    """The pool: its size, each member's share of the rows and the
    networks' training settings; and the selection's ``patience``, the
    prefixes in a row that may fail to improve.  The weighting has no
    setting; see ``resolve_weight_params``."""

    pool_size: int = 100
    subsample_fraction: float = 0.9
    mlp: MLPTrainConfig = MLPTrainConfig(hidden_size=HIDDEN_RANGE[0])
    patience: int = 8

    def __post_init__(self):
        for name, value in (("pool_size", self.pool_size),
                            ("patience", self.patience)):
            if value < 1:
                raise ConfigError(
                    f"[ensemble] {name} must be >= 1, got {value}")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError("[ensemble] subsample_fraction must be in "
                              f"(0, 1], got {self.subsample_fraction}")


@dataclass(frozen=True)
class BaseLearner:
    """A network and its error, the MSE of its predictions of the rows its
    subsample left out."""

    model: MLPModel
    error: float


@dataclass(frozen=True)
class LearnerSelection:
    selected_positions: tuple[int, ...]
    trace: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class EnsembleModel:
    """The learners and the chain.  The weights are derived from the
    learners' errors, not given: ``compute_weights`` of them, one strictly
    positive weight per learner.  A DataError refuses an empty learner
    tuple, a network whose input count is not the number of selected
    features, and a weight that is not > 0."""

    learners: tuple[BaseLearner, ...]
    preprocess: PreprocessState
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.learners:
            raise DataError("the ensemble has no learners")
        n = len(self.preprocess.selected_features)
        inputs = {bl.model.w_hidden.shape[0] for bl in self.learners}
        if inputs != {n}:
            raise DataError(f"the chain selects {n} features, the networks "
                            f"take {sorted(inputs)}")
        w = compute_weights([bl.error for bl in self.learners])
        if not np.all(w > 0.0):  # a weight that underflowed to 0
            raise DataError("weights must be strictly positive and sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class PoolReport:
    pool: tuple[BaseLearner, ...]
    out_of_bag: np.ndarray  # True where a member left a row out
    ranking: RankedFeatures
    selection: LearnerSelection

    @property
    def trace(self) -> tuple[tuple[int, float], ...]:
        # the (size, out-of-bag RMSE) of each prefix the walk scored, none
        # when the whole pool is kept; benchmarks/test_bench.py reads it
        return self.selection.trace

    def to_csv(self, path) -> None:
        chosen = set(self.selection.selected_positions)
        kept = (~self.out_of_bag).sum(axis=1)
        write_table(path, ["learner", "seed", "hidden", "oob_mse",
                           "relief_weight", "selected", "epochs_run",
                           "subsample_rows"],
                    ([i, bl.model.seed, bl.model.hidden_size,
                      repr(float(bl.error)),
                      repr(float(self.ranking.weights[i])), int(i in chosen),
                      bl.model.epochs_run, int(kept[i])]
                     for i, bl in enumerate(self.pool)))


def _subsample_size(n: int, cfg: EnsembleConfig) -> int:
    return max(1, math.ceil(cfg.subsample_fraction * n))


def check_out_of_bag(cfg: EnsembleConfig, n: int) -> None:
    """Raise a DataError naming ``[ensemble] subsample_fraction``, its value
    and ``n`` when a learner's subsample of ``n`` rows takes them all, so no
    row is out of bag to select learners on."""
    if _subsample_size(n, cfg) == n:
        raise DataError(f"[ensemble] subsample_fraction = "
                        f"{cfg.subsample_fraction} leaves no row out of bag "
                        f"to select learners, got {n} rows")


def train_pool(m: FeatureMatrix, cfg: EnsembleConfig, seed: int
               ) -> tuple[tuple[BaseLearner, ...], np.ndarray, np.ndarray]:
    """Train ``pool_size`` diverse learners, and score every row of ``m``
    with each: row i of the first returned matrix is learner i's
    predictions, and row i of the second, of booleans, is True on the rows
    learner i left out.  Ranking and selection read these matrices.

    ``check_out_of_bag`` runs before the first fit, so every learner leaves
    a row out.  Learner i draws its hidden size uniformly in [5, 30] and its
    training rows (without replacement) from a seed derived from (seed, i),
    so the pool is identical however the fits are scheduled.  Its error is
    the MSE of its row of predictions over the rows it left out.
    """
    n = m.n_samples
    check_out_of_bag(cfg, n)
    pool, preds = [], np.empty((cfg.pool_size, n))
    out_of_bag = np.ones((cfg.pool_size, n), dtype=bool)
    for i, (scored, out) in enumerate(zip(preds, out_of_bag)):
        rng = generator(derive_seed(seed, i, 0))
        hidden = int(rng.integers(HIDDEN_RANGE[0], HIDDEN_RANGE[1] + 1))
        out[rng.choice(n, size=_subsample_size(n, cfg), replace=False)] = False
        with naming(f"learner {i}"):
            model = fit_mlp(m.take_rows(np.flatnonzero(~out)),
                            replace(cfg.mlp, hidden_size=hidden),
                            derive_seed(seed, i, 1))
        scored[:] = predict(model, m)
        resid = scored[out] - m.target[out]
        pool.append(BaseLearner(model, float((resid * resid).mean())))
    return tuple(pool), preds, out_of_bag


def rank_learners(preds: np.ndarray, target: np.ndarray,
                  k: int) -> RankedFeatures:
    """Rank the learners of a non-empty pool by the relief weight, at ``k``
    neighbors, of their prediction columns: ``preds`` is the matrix
    ``train_pool`` returns, over the rows whose targets are ``target``.
    Learner i is the feature ``learner_{i:03d}``.

    Constant-prediction learners would make the relief range normalization
    degenerate; they get weight -inf and sink to the bottom of the ranking
    (ordered among themselves by pool index) instead of aborting the run.
    """
    names = tuple(f"learner_{i:03d}" for i in range(len(preds)))
    weights = np.full(len(preds), -np.inf)
    good = [i for i in range(len(preds)) if np.ptp(preds[i]) > 0.0]
    if good:
        derived = FeatureMatrix(tuple(names[i] for i in good), preds[good].T,
                                target)
        weights[good] = rrelieff(derived, k=k).weights
    return RankedFeatures(names, weights)


def _quantile(s: list[float], q: float) -> float:
    """The ``q`` quantile of the sorted list ``s`` by linear interpolation,
    as ``np.percentile(s, 100 * q)`` computes it.  With p = (len(s) - 1) * q,
    i its whole part and t = p - i, a = s[i], b = s[i + 1] (s[i] at the
    end) and d = b - a, it is a + d * t for t < 0.5 and b - d * (1 - t)
    otherwise."""
    pos = (len(s) - 1) * q
    i = math.floor(pos)
    t = pos - i
    a, b = s[i], s[min(i + 1, len(s) - 1)]
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def resolve_weight_params(errors: Sequence[float]) -> tuple[float, float]:
    """The steepness b and centre c of the weighting logistic: c is the
    median of the learners' errors and b is ln(9)/IQR of them, roughly a 9:1
    raw weight ratio across the interquartile error range.

    The quartiles and the median come from one sort, bit for bit those of
    ``np.percentile`` and ``np.median``: the quartiles by numpy's linear
    interpolation (``_quantile``), and the median as the middle value, or
    for an even count the mean of the two middle values, (a + b) / 2, as
    ``np.mean`` adds and divides them.  Those two numpy functions import
    ``numpy.ma``, and a process's first ``np.sort`` maps about 0.3 MB of
    numpy's sorting code; ``predict``'s loader calls this, so either would
    add to its peak memory.  The sort and the arithmetic are Python's, on
    Python floats.
    """
    s = sorted(map(float, errors))
    iqr = _quantile(s, 0.75) - _quantile(s, 0.25)
    h = len(s) // 2
    c = s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2.0
    return math.log(9.0) / max(iqr, 1e-12), c


def _falling_logistic(z: float) -> float:
    """1 / (1 + e^z), or 0.0 where e^z overflows.

    ``math.exp`` is libm's, as in ``scipy.special.expit``, so the value is
    bit-identical to ``expit(-z)``; numpy's vectorised ``exp`` rounds a few
    per cent of inputs differently.
    """
    try:
        return 1.0 / (1.0 + math.exp(z))
    except OverflowError:
        return 0.0


def compute_weights(errors) -> np.ndarray:
    """Normalized learner weights from their errors.

    raw_i = 1 / (1 + exp(b * (eps_i - c))) under the b > 0 and c that
    ``resolve_weight_params`` gives for these errors: a decreasing logistic,
    so a strictly larger error always gets a strictly smaller weight.  As c
    is the median, at least half the raw weights are >= 1/2, so the sum is
    never 0.
    """
    eps = np.asarray(errors, dtype=np.float64)
    if not np.all(np.isfinite(eps)) or np.any(eps < 0.0):
        raise DataError("errors must be finite and >= 0")
    b, c = resolve_weight_params(eps)
    raw = np.array([_falling_logistic(b * (e - c)) for e in eps.tolist()])
    return raw / float(raw.sum())


def select_learners(pool: Sequence[BaseLearner], ranking: RankedFeatures,
                    preds: np.ndarray, out_of_bag: np.ndarray,
                    target: np.ndarray,
                    cfg: EnsembleConfig) -> LearnerSelection:
    """Grow ranked prefixes while the out-of-bag RMSE of the combination
    improves.

    ``preds`` and ``out_of_bag`` are the matrices ``train_pool`` returns,
    over the rows whose targets are ``target``: each member has predicted
    every row once, and left out the rows where its row of ``out_of_bag``
    is True.  A prefix's prediction for a row is the weighted mean of the
    prefix members whose subsample left that row out, with the prefix's
    weights (``compute_weights`` of its members' errors) renormalised over
    those members, so no member scores a row it trained on.  The search is
    ``evaluation.forward_select`` from the first ranked prefix that leaves
    every row out: it stops after ``cfg.patience`` consecutive non-improving
    prefix sizes and keeps the best prefix of the ranked order.  When no
    prefix leaves every row out, the whole pool is kept in ranked order and
    no prefix is scored.  The pool is not empty, and each member leaves a
    row out.
    """
    order = [int(i) for i in ranking.order]
    out = out_of_bag[order].astype(np.float64)  # 1 where a row is out of bag
    if not out.any(axis=0).all():
        return LearnerSelection(tuple(order), ())
    out_preds = out * preds[order]
    errors = [pool[pos].error for pos in order]

    def score(size: int) -> float:
        w = compute_weights(errors[:size])
        resid = (w @ out_preds[:size]) / (w @ out[:size]) - target
        return math.sqrt(float((resid * resid).mean()))

    # The first prefix to leave every row out ends at the latest rank at
    # which some row is first left out.
    first = int(out.argmax(axis=0).max()) + 1
    best_size, trace = forward_select(len(order), score, cfg.patience, first)
    return LearnerSelection(tuple(order[:best_size]), trace)


def predict_ensemble(e: EnsembleModel, m: FeatureMatrix) -> np.ndarray:
    """Weighted-average prediction in original yield units.

    Members are combined in the (transformed, standardized) training space,
    then mapped back; since the inverse maps are monotone the output always
    stays within the per-learner prediction envelope.

    Rows are scored in blocks of ``SCORE_BLOCK`` rows, so the hidden
    activations held at once do not grow with the row count.  The weighted
    network outputs (``kernels.mlp_forward``) are added in learner order,
    not by BLAS, so a row's bits do not depend on the other rows.

    A model whose values are finite but extreme can map rows to inf or NaN,
    or, under a log target, to an ``exp`` that underflows to 0; that is a
    DataError naming how many rows and the first of them.
    """
    x = e.preprocess.apply_features(m).values
    n = x.shape[0]
    out = np.empty(n)
    for lo in range(0, n, SCORE_BLOCK):
        block, xs = out[lo:lo + SCORE_BLOCK], x[lo:lo + SCORE_BLOCK]
        block[:] = e.weights[0] * predict_mlp(e.learners[0].model, xs)
        for w, bl in zip(e.weights[1:], e.learners[1:]):
            block += w * predict_mlp(bl.model, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = e.preprocess.invert_target(out)
    for bad, what in ((~np.isfinite(out), "are not finite"),
                      ((out == 0.0) & bool(e.preprocess.log_target),
                       "underflowed to 0")):
        rows = np.flatnonzero(bad)
        if rows.size:
            raise DataError(f"{rows.size} of {n} predictions {what}, "
                            f"the first in row {rows[0]}")
    return out

