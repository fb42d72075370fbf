"""Selected, error-weighted ensemble of shallow networks.

The procedure: train a pool of single-hidden-layer networks with random
hidden sizes and random training subsamples for diversity; rank the pool by
running the relief feature ranker on the matrix of learner predictions
(each learner is a "feature", the true target is the target); walk the
ranked order with ``evaluation.forward_select``, the search feature
selection uses too, adding learners while the out-of-bag RMSE of the
weighted combination strictly improves; weight the survivors by a decreasing
logistic in their error eps_i,

    raw_i = 1 / (1 + exp(b * (eps_i - c))),   w_i = raw_i / sum(raw),

so lower-error learners get strictly larger weights; predict by the convex
combination sum(w_i * y_i).  A learner's error is its out-of-bag MSE, on the
rows its subsample left out (Breiman 1996, *Out-of-bag estimation*), or its
training MSE when it trained on every row.

The selection fits nothing.  Each member predicts every row once, and a
prefix predicts a row by the weighted mean of the members whose subsample
left that row out.  The walk starts at the first ranked prefix that leaves
every row out at least once, so every row is scored from the first prefix
on; with no such prefix, as in a pool of three on 120 rows, the whole pool
is kept.  The fitted preprocessing needed to score raw records travels
inside the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import FeatureMatrix
from .errors import ConfigError, DataError, FitError
from .evaluation import forward_select
from .feature_select import ReliefParams, rank_order, rrelieff
from .preprocess import PreprocessState
from .regressors import (HIDDEN_RANGE, MLPModel, MLPTrainConfig, fit_mlp,
                         predict, predict_mlp)
from .util import derive_seed, write_table

# Rows scored at once: ``predict_ensemble`` cuts a matrix into blocks of this
# size, and ``teayield predict`` reads and scores its file in them.  At 30
# hidden units, the widest a member can be, one block's hidden activations
# take about 0.5 MB, and ``kernels.mlp_forward`` holds a second array of that
# size while it adds them up.
SCORE_BLOCK = 2048


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
        # the (size, out-of-bag RMSE) of each prefix the walk scored, none
        # when the whole pool is kept; benchmarks/test_bench.py reads it
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


def _subsample_size(n: int, cfg: EnsembleConfig) -> int:
    return max(1, math.ceil(cfg.subsample_fraction * n))


def _draw_rows(rng: np.random.Generator, n: int, cfg: EnsembleConfig) -> np.ndarray:
    return np.sort(rng.choice(n, size=_subsample_size(n, cfg), replace=False))


def check_out_of_bag(cfg: EnsembleConfig, n: int) -> None:
    """Raise a DataError naming ``[ensemble] subsample_fraction``, its value
    and ``n`` when a learner's subsample of ``n`` rows takes them all, so no
    row is out of bag to select learners on."""
    if _subsample_size(n, cfg) == n:
        raise DataError(f"[ensemble] subsample_fraction = "
                        f"{cfg.subsample_fraction} leaves no row out of bag "
                        f"to select learners, got {n} rows")


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
                    m: FeatureMatrix, cfg: EnsembleConfig,
                    patience: int = 1) -> LearnerSelection:
    """Grow ranked prefixes while the out-of-bag RMSE of the combination
    improves.

    Each member predicts every row of ``m`` once.  A prefix's prediction for
    a row is the weighted mean of the prefix members whose subsample left
    that row out, with the prefix's weights (``resolve_weight_params`` and
    ``compute_weights`` over its members' errors) renormalised over those
    members, so no member scores a row it trained on.  The search is
    ``evaluation.forward_select`` from the first ranked prefix that leaves
    every row out: it stops after ``patience`` consecutive non-improving
    prefix sizes and keeps the best prefix of the ranked order.  When no
    prefix leaves every row out, the whole pool is kept in ranked order and
    no prefix is scored.  ``cfg`` must leave a row out of each subsample of
    ``m`` (see ``check_out_of_bag``).
    """
    if not pool:
        raise DataError("cannot select from an empty pool")
    check_out_of_bag(cfg, m.n_samples)
    order = [int(i) for i in ranking.order]
    out = np.ones((len(order), m.n_samples))  # 1 where a row is out of bag
    for row, pos in zip(out, order):
        row[list(pool[pos].subsample_indices)] = 0.0
    if not out.any(axis=0).all():
        return LearnerSelection(tuple(order), ())
    out_preds = out * np.vstack([predict(pool[pos].model, m) for pos in order])
    errors = [pool[pos].train_error for pos in order]

    def score(size: int) -> float:
        eps = errors[:size]
        w = compute_weights(eps, *resolve_weight_params(eps))
        resid = (w @ out_preds[:size]) / (w @ out[:size]) - m.target
        return math.sqrt(float((resid * resid).mean()))

    # The first prefix to leave every row out ends at the latest rank at
    # which some row is first left out.
    first = int(out.argmax(axis=0).max()) + 1
    best_size, trace = forward_select(len(order), score, patience, first)
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

