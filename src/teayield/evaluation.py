"""Metrics, data splitting, k-fold cross-validation and forward selection.

The harness is model-agnostic: it takes learner factories (see
``regressors``), so any preprocessing a factory performs is refit on every
training fold and never sees the scored rows.  ``forward_select`` is the
one greedy search over a ranked candidate list (Caruana et al. 2004,
*Ensemble selection from libraries of models*): feature selection walks
ranked features with it, learner selection ranked pool members.  The staged
pipeline report lives in ``pipeline.stage_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix
from .errors import DataError, TeaYieldError
from .util import as_float_array, derive_seed


@dataclass(frozen=True)
class MetricsReport:
    """mae/mse/rmse plus R^2 (None when the true values are constant)."""

    mae: float
    mse: float
    rmse: float
    r2: float | None


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignment: np.ndarray

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_rows, eval_rows) for one fold."""
        mask = self.assignment == fold
        return np.nonzero(~mask)[0], np.nonzero(mask)[0]


def metrics(y_true, y_pred) -> MetricsReport:
    """MAE, MSE, RMSE = sqrt(MSE), and R^2 = 1 - SSE/SST.

    R^2 is reported as None when y_true is constant (SST = 0); the other
    metrics are still returned.
    """
    y_true = as_float_array(y_true, "y_true")
    y_pred = as_float_array(y_pred, "y_pred")
    if y_true.shape[0] != y_pred.shape[0]:
        raise DataError("metrics requires vectors of equal length")
    if y_true.shape[0] < 1:
        raise DataError("metrics requires at least one sample")
    err = y_pred - y_true
    mae = float(np.abs(err).mean())
    mse = float((err * err).mean())
    rmse = math.sqrt(mse)
    sst = float(((y_true - y_true.mean()) ** 2).sum())
    r2 = None if sst == 0.0 else 1.0 - float((err * err).sum()) / sst
    return MetricsReport(mae, mse, rmse, r2)


def make_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle, then round-robin assignment: fold sizes differ by <= 1."""
    if not 2 <= k <= n:
        raise DataError(f"fold count must satisfy 2 <= k <= {n}, got {k}")
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = np.arange(n) % k
    return FoldPlan(int(k), assignment)


def cross_validate(m: FeatureMatrix, factory, plan: FoldPlan,
                   seed: int = 0) -> np.ndarray:
    """The read-only out-of-fold predictions: each fold's rows scored by a
    model fit on the other folds.

    ``factory(train_matrix, fit_seed)`` must return a prediction closure and
    is called once per fold with a fold-derived seed, so results do not
    depend on evaluation order.  ``metrics(m.target, oof).rmse`` is the
    pooled CV RMSE.
    """
    if plan.n != m.n_samples:
        raise DataError(f"fold plan covers {plan.n} samples, matrix has "
                        f"{m.n_samples}")
    oof = np.empty(m.n_samples)
    for fold in range(plan.k):
        train_rows, eval_rows = plan.fold_indices(fold)
        try:
            predict_fn = factory(m.take_rows(train_rows), derive_seed(seed, fold))
            preds = np.asarray(predict_fn(m.take_rows(eval_rows)), dtype=np.float64)
        except TeaYieldError as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc
        if preds.shape != (eval_rows.shape[0],):
            raise DataError(f"fold {fold}: factory returned shape {preds.shape}, "
                            f"expected ({eval_rows.shape[0]},)")
        oof[eval_rows] = preds
    oof.flags.writeable = False
    return oof


def forward_select(n_candidates: int, score, patience: int, first: int = 1
                   ) -> tuple[int, tuple[tuple[int, float], ...]]:
    """Greedy forward selection over a ranked list of ``n_candidates``.

    ``score(size)`` is the error of the first ``size`` candidates.  Prefixes
    grow one candidate at a time from the first ``first``; a prefix becomes
    the best only when its score is strictly lower than every earlier one,
    and the walk stops after ``patience`` consecutive prefixes that are not.
    Returns the best size (0 if no prefix was scored) and the
    ``(size, score)`` trace.
    """
    if patience < 1:
        raise DataError(f"patience must be >= 1, got {patience}")
    trace = []
    best_score = math.inf
    best_size = 0
    bad = 0
    for size in range(first, n_candidates + 1):
        value = score(size)
        trace.append((size, value))
        if value < best_score:
            best_score = value
            best_size = size
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    return best_size, tuple(trace)


def holdout_split(m: FeatureMatrix, test_fraction: float,
                  seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Seeded shuffle split into (train, test); both sides keep row order."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = m.n_samples
    if n < 2:
        raise DataError("need at least 2 samples to split")
    n_test = min(n - 1, max(1, round(test_fraction * n)))
    perm = np.random.default_rng(seed).permutation(n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])
    return m.take_rows(train_rows), m.take_rows(test_rows)
