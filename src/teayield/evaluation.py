"""Metrics, data splitting, k-fold cross-validation and forward selection.

The harness is model-agnostic: it takes a ``fit_predict(train, test)``
function (see ``regressors``), so any preprocessing that function performs
is refit on every training fold and never sees the scored rows.
``forward_select`` is the one greedy search over a ranked candidate list
(Caruana et al. 2004, *Ensemble selection from libraries of models*):
feature selection walks ranked features with it, learner selection ranked
pool members.  The staged pipeline report lives in ``pipeline.stage_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix
from .errors import DataError, naming
from .util import as_float_array, generator


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

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_rows, eval_rows) for one fold."""
        mask = self.assignment == fold
        return np.nonzero(~mask)[0], np.nonzero(mask)[0]


def metrics(y_true, y_pred) -> MetricsReport:
    """MAE, MSE, RMSE = sqrt(MSE), and R^2 = 1 - SSE/SST.

    R^2 is reported as None when y_true is constant (SST = 0); the other
    metrics are still returned.  The two vectors are of one length >= 1.
    """
    y_true = as_float_array(y_true, "y_true")
    y_pred = as_float_array(y_pred, "y_pred")
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
    perm = generator(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = np.arange(n) % k
    return FoldPlan(int(k), assignment)


def cross_validate(m: FeatureMatrix, fit_predict,
                   plan: FoldPlan) -> np.ndarray:
    """The read-only out-of-fold predictions: each fold's rows scored by a
    model fit on the other folds of ``plan``, a plan over ``m``'s rows.

    ``fit_predict(train_matrix, eval_matrix)`` fits on a fold's training
    rows and returns its predictions for the fold's rows, one per row; it is
    called once per fold.  ``metrics(m.target, oof).rmse`` is the pooled CV
    RMSE.
    """
    oof = np.empty(m.n_samples)
    for fold in range(plan.k):
        train_rows, eval_rows = plan.fold_indices(fold)
        with naming(f"fold {fold}"):
            oof[eval_rows] = fit_predict(m.take_rows(train_rows),
                                         m.take_rows(eval_rows))
    oof.flags.writeable = False
    return oof


def forward_select(n_candidates: int, score, patience: int, first: int = 1
                   ) -> tuple[int, tuple[tuple[int, float], ...]]:
    """Greedy forward selection over a ranked list of ``n_candidates``.

    ``score(size)`` is the error of the first ``size`` candidates.  Prefixes
    grow one candidate at a time from the first ``first``; a prefix becomes
    the best only when its score is strictly lower than every earlier one,
    and the walk stops after ``patience`` consecutive prefixes that are not.
    ``patience`` is >= 1, as ``feature_select.SFS_PATIENCE`` and
    ``[ensemble] patience`` are.  Returns the best size (0 if no prefix was scored) and the
    ``(size, score)`` trace.
    """
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
    """Seeded shuffle split into (train, test); both sides keep row order.
    ``test_fraction`` lies in (0, 1), as ``[evaluation] holdout_fraction``
    does, and each side keeps at least one row."""
    n = m.n_samples
    if n < 2:
        raise DataError("need at least 2 samples to split")
    n_test = min(n - 1, max(1, round(test_fraction * n)))
    perm = generator(seed).permutation(n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])
    return m.take_rows(train_rows), m.take_rows(test_rows)
