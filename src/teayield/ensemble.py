"""Selected, error-weighted ensemble of shallow networks.

The procedure: train a pool of single-hidden-layer networks with random
hidden sizes and random training subsamples for diversity; rank the pool by
running the relief feature ranker on the matrix of learner predictions
(each learner is a "feature", the true target is the target); walk the
ranked order with ``evaluation.forward_select``, the search feature
selection uses too, adding learners while cross-validated RMSE of the
weighted combination strictly improves; weight the survivors by a decreasing
logistic in their error eps_i,

    raw_i = 1 / (1 + exp(b * (eps_i - c))),   w_i = raw_i / sum(raw),

so lower-error learners get strictly larger weights; predict by the convex
combination sum(w_i * y_i).  A learner's error is its out-of-bag MSE, on the
rows its subsample left out (Breiman 1996, *Out-of-bag estimation*), or its
training MSE when it trained on every row.  The fitted preprocessing needed
to score raw records travels inside the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import FeatureMatrix
from .errors import ConfigError, DataError, FitError
from .evaluation import forward_select, make_folds
from .feature_select import ReliefParams, rank_order, rrelieff
from .preprocess import PreprocessState
from .regressors import (HIDDEN_RANGE, MLPModel, MLPTrainConfig, fit_mlp,
                         predict, predict_mlp)
from .util import derive_seed, write_table

# Rows scored at once: ``predict_ensemble`` cuts a matrix into blocks of this
# size, and ``teayield predict`` reads and scores its file in them.  At 30
# hidden units one block's hidden activations take about 1 MB.
SCORE_BLOCK = 4096


@dataclass(frozen=True)
class EnsembleConfig:
    """The pool: its size, each member's share of the rows, and the
    networks' training settings.  The weighting has no setting; see
    ``resolve_weight_params``."""

    pool_size: int = 100
    subsample_fraction: float = 0.9
    mlp: MLPTrainConfig = MLPTrainConfig(hidden_size=HIDDEN_RANGE[0])

    def __post_init__(self):
        if self.pool_size < 1:
            raise ConfigError(
                f"[ensemble] pool_size must be >= 1, got {self.pool_size}")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ConfigError("[ensemble] subsample_fraction must be in "
                              f"(0, 1], got {self.subsample_fraction}")


@dataclass(frozen=True)
class BaseLearner:
    model: MLPModel
    subsample_indices: tuple[int, ...]
    train_error: float


@dataclass(frozen=True)
class LearnerRanking:
    weights: np.ndarray

    @property
    def order(self) -> np.ndarray:
        return rank_order(self.weights)


@dataclass(frozen=True)
class LearnerSelection:
    selected_positions: tuple[int, ...]
    trace: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class EnsembleModel:
    learners: tuple[BaseLearner, ...]
    weights: np.ndarray
    weight_b: float
    weight_c: float
    preprocess: PreprocessState

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape[0] != len(self.learners) or not self.learners:
            raise DataError("one weight per learner required, at least one learner")
        if (not np.all(np.isfinite(w)) or abs(float(w.sum()) - 1.0) > 1e-12
                or np.any(w <= 0.0)):
            raise DataError("weights must be strictly positive and sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class PoolReport:
    pool: tuple[BaseLearner, ...]
    ranking: LearnerRanking
    selection: LearnerSelection

    @property
    def trace(self) -> tuple[tuple[int, float], ...]:
        # benchmarks/test_bench.py counts the fold refits from it
        return self.selection.trace

    def to_csv(self, path) -> None:
        chosen = set(self.selection.selected_positions)
        write_table(path, ["learner", "seed", "hidden", "train_mse",
                           "relief_weight", "selected", "epochs_run",
                           "subsample_rows"],
                    ([i, bl.model.seed, bl.model.hidden_size,
                      repr(float(bl.train_error)),
                      repr(float(self.ranking.weights[i])), int(i in chosen),
                      bl.model.epochs_run, len(bl.subsample_indices)]
                     for i, bl in enumerate(self.pool)))


def _fit_member(m: FeatureMatrix, rows: np.ndarray, hidden: int,
                fit_seed: int, cfg: EnsembleConfig) -> BaseLearner:
    """A network fitted on ``rows`` of ``m``; its error is the MSE on the
    other rows, or the training MSE when ``rows`` are all of them."""
    sub = m.take_rows(rows)
    model = fit_mlp(sub, replace(cfg.mlp, hidden_size=hidden), fit_seed)
    eps = model.train_error
    unused = np.setdiff1d(np.arange(m.n_samples), rows)
    if unused.size:
        rest = m.take_rows(unused)
        resid = predict(model, rest) - rest.target
        eps = float((resid * resid).mean())
    return BaseLearner(model, tuple(int(r) for r in rows), eps)


def _draw_rows(rng: np.random.Generator, n: int, cfg: EnsembleConfig) -> np.ndarray:
    n_sub = max(1, math.ceil(cfg.subsample_fraction * n))
    return np.sort(rng.choice(n, size=n_sub, replace=False))


def train_pool(m: FeatureMatrix, cfg: EnsembleConfig,
               seed: int) -> tuple[BaseLearner, ...]:
    """Train ``pool_size`` diverse learners.

    Learner i draws its hidden size uniformly in [5, 30] and its training
    rows (without replacement) from a seed derived from
    (seed, i), so the pool is identical however the fits are scheduled.
    """
    pool = []
    for i in range(cfg.pool_size):
        rng = np.random.default_rng(derive_seed(seed, i, 0))
        hidden = int(rng.integers(HIDDEN_RANGE[0], HIDDEN_RANGE[1] + 1))
        rows = _draw_rows(rng, m.n_samples, cfg)
        try:
            pool.append(_fit_member(m, rows, hidden, derive_seed(seed, i, 1), cfg))
        except FitError as exc:
            raise FitError(f"learner {i}: {exc}") from exc
    return tuple(pool)


def rank_learners(pool: Sequence[BaseLearner], m: FeatureMatrix,
                  relief: ReliefParams = ReliefParams()) -> LearnerRanking:
    """Rank learners by relief weight of their prediction columns.

    Constant-prediction learners would make the relief range normalization
    degenerate; they get weight -inf and sink to the bottom of the ranking
    (ordered among themselves by pool index) instead of aborting the run.
    """
    if not pool:
        raise DataError("cannot rank an empty pool")
    preds = np.vstack([predict(bl.model, m) for bl in pool])
    weights = np.full(len(pool), -np.inf)
    good = [i for i in range(len(pool)) if np.ptp(preds[i]) > 0.0]
    if good:
        derived = FeatureMatrix(
            tuple(f"learner_{i:03d}" for i in good), preds[good].T, m.target,
            m.target_name)
        ranked = rrelieff(derived, k=relief.k)
        for pos, i in enumerate(good):
            weights[i] = ranked.weights[pos]
    return LearnerRanking(weights)


def resolve_weight_params(errors: Sequence[float]) -> tuple[float, float]:
    """The steepness b and centre c of the weighting logistic: c is the
    median of the learners' errors and b is ln(9)/IQR of them, roughly a 9:1
    raw weight ratio across the interquartile error range."""
    eps = np.asarray(errors, dtype=np.float64)
    iqr = float(np.percentile(eps, 75) - np.percentile(eps, 25))
    return math.log(9.0) / max(iqr, 1e-12), float(np.median(eps))


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


def compute_weights(errors, b: float, c: float) -> np.ndarray:
    """Normalized learner weights from their errors.

    raw_i = 1 / (1 + exp(b * (eps_i - c))), a decreasing logistic, so a
    strictly larger error always gets a strictly smaller weight.
    """
    eps = np.asarray(errors, dtype=np.float64)
    if eps.ndim != 1 or eps.shape[0] < 1:
        raise DataError("errors must be a non-empty vector")
    if not np.all(np.isfinite(eps)) or np.any(eps < 0.0):
        raise DataError("errors must be finite and >= 0")
    if b <= 0.0:
        raise ConfigError(f"weight steepness b must be > 0, got {b}")
    raw = np.array([_falling_logistic(b * (e - c)) for e in eps.tolist()])
    total = float(raw.sum())
    if total <= 0.0:
        raise FitError(f"all raw weights underflowed to zero (b={b}, c={c}, "
                       f"errors in [{eps.min():g}, {eps.max():g}])")
    return raw / total


def select_learners(pool: Sequence[BaseLearner], ranking: LearnerRanking,
                    m: FeatureMatrix, cfg: EnsembleConfig, folds: int = 10,
                    seed: int = 0, patience: int = 1) -> LearnerSelection:
    """Grow ranked prefixes while CV RMSE of the combination improves.

    Cross-validation retrains each prefix member per fold (same hidden size,
    subsample redrawn from the fold's training rows, fold-derived seeds) so
    no learner scores rows it saw in training.  Combination weights are
    recomputed per prefix from the fold-trained members' errors.  The search
    is ``evaluation.forward_select``: it stops after ``patience`` consecutive
    non-improving prefix sizes and keeps the best prefix of the ranked order.
    """
    if not pool:
        raise DataError("cannot select from an empty pool")
    plan = make_folds(m.n_samples, folds, seed)
    fold_rows = [plan.fold_indices(f) for f in range(plan.k)]
    fold_train = [m.take_rows(tr) for tr, _ in fold_rows]
    fold_eval = [m.take_rows(ev) for _, ev in fold_rows]
    cache: dict[tuple[int, int, int], tuple[float, np.ndarray]] = {}

    def member(fold: int, pos: int) -> tuple[float, np.ndarray]:
        # Fold copies are seeded by the learner's own seed, not its rank
        # position, so identical pool entries retrain identically and adding
        # a duplicate can never look like an improvement.
        identity, hidden = pool[pos].model.seed, pool[pos].model.hidden_size
        key = (fold, identity, hidden)
        if key not in cache:
            train = fold_train[fold]
            rng = np.random.default_rng(derive_seed(seed, fold, identity, 0))
            rows = _draw_rows(rng, train.n_samples, cfg)
            try:
                bl = _fit_member(train, rows, hidden,
                                 derive_seed(seed, fold, identity, 1), cfg)
            except FitError as exc:
                raise FitError(f"fold {fold}, learner {pos}: {exc}") from exc
            cache[key] = (bl.train_error, predict(bl.model, fold_eval[fold]))
        return cache[key]

    order = [int(i) for i in ranking.order]

    def score(size: int) -> float:
        oof = np.empty(m.n_samples)
        for fold in range(plan.k):
            eps, preds = zip(*(member(fold, pos) for pos in order[:size]))
            b, c = resolve_weight_params(eps)
            w = compute_weights(eps, b, c)
            oof[fold_rows[fold][1]] = w @ np.vstack(preds)
        resid = oof - m.target
        return math.sqrt(float((resid * resid).mean()))

    best_size, trace = forward_select(len(order), score, patience)
    return LearnerSelection(tuple(order[:best_size]), trace)


def assemble(pool: Sequence[BaseLearner], selection: LearnerSelection,
             preprocess: PreprocessState) -> EnsembleModel:
    """Build the final model from the selected pool members."""
    learners = tuple(pool[pos] for pos in selection.selected_positions)
    errors = [bl.train_error for bl in learners]
    b, c = resolve_weight_params(errors)
    weights = compute_weights(errors, b, c)
    return EnsembleModel(learners, weights, b, c, preprocess)


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

