"""Feature ranking and subset selection.

Ranking uses the regression form of the relief family (RReliefF,
Robnik-Šikonja & Kononenko 2003): for every instance, the k nearest
neighbors (Manhattan distance over range-normalized features) contribute to
three accumulators - probability weight of a different target (ndc), of a
different feature value (nda), and of both together (ndcda) - with neighbor
influence decaying as exp(-(rank / DECAY_SIGMA)^2).  The final weight per
feature is

    W = ndcda / ndc - (nda - ndcda) / (m - ndc)

which is positive for features whose variation coincides with target
variation among near neighbors.  Subset selection then walks the ranked
order, less the affine copies of an earlier column, with
``evaluation.forward_select``, the search learner selection uses too: each
prefix is scored by the pooled cross-validated RMSE of ridge regression at
penalty ``SFS_RIDGE_LAMBDA`` on its standardized columns
(``regressors.ridge_predictions``), the walk stops after ``SFS_PATIENCE``
prefixes in a row that do not lower the best RMSE so far, and the best
prefix is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .dataset import FeatureMatrix
from .errors import FitError, naming
from .evaluation import cross_validate, forward_select, make_folds, metrics
from .regressors import ridge_predictions
from .util import write_table

# Width of the neighbor influence decay, in neighbor ranks.
DECAY_SIGMA = 20.0

# The feature search's ridge penalty, and its patience in prefixes.
SFS_RIDGE_LAMBDA, SFS_PATIENCE = 1e-2, 2


@dataclass(frozen=True)
class RankedFeatures:
    feature_names: tuple[str, ...]
    weights: np.ndarray

    @property
    def order(self) -> np.ndarray:
        return rank_order(self.weights)

    def ordered_names(self) -> tuple[str, ...]:
        return tuple(self.feature_names[i] for i in self.order)

    def to_csv(self, path) -> None:
        write_table(path, ["feature", "weight", "rank"],
                    ([self.feature_names[i], repr(float(self.weights[i])), rank]
                     for rank, i in enumerate(self.order, start=1)))


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[str, ...]
    trace: tuple[tuple[int, float], ...]

    def trace_to_csv(self, path) -> None:
        write_table(path, ["subset_size", "cv_rmse"],
                    ([size, repr(float(rmse))] for size, rmse in self.trace))


def neighbor_rank_weights(k: int) -> np.ndarray:
    """Influence of the r-th nearest neighbor, normalized to sum to 1."""
    raw = np.exp(-(np.arange(1, k + 1) / DECAY_SIGMA) ** 2)
    return raw / raw.sum()


def relief_weights_from_counts(ndc: float, nda: np.ndarray, ndcda: np.ndarray,
                               m_used: int) -> np.ndarray:
    hit_term = ndcda / ndc if ndc > 0.0 else np.zeros_like(ndcda)
    rest = m_used - ndc
    miss_term = (nda - ndcda) / rest if rest > 0.0 else np.zeros_like(nda)
    return hit_term - miss_term


def rank_order(weights: np.ndarray) -> np.ndarray:
    """Descending by weight; exact ties keep the lower column index first."""
    f = weights.shape[0]
    return np.lexsort((np.arange(f), -weights))


def rrelieff(m: FeatureMatrix, k: int) -> RankedFeatures:
    """Rank features by the regression relief weight, visiting every
    instance once, so the ranking draws no random number.

    ``k`` lies in [1, n) for the n rows of ``m``: ``PipelineConfig`` holds
    ``relieff_k`` >= 1, and ``pipeline._check_rows`` refuses k >= n naming
    ``[relieff] k``.  Features and target are internally normalized by
    their observed range, so the ranking is invariant under positive affine
    rescaling of any column.
    """
    n = m.n_samples
    ranges = np.ptp(m.values, axis=0)
    zero = np.nonzero(ranges == 0.0)[0]
    if zero.size:
        raise FitError(f"column {m.column_names[zero[0]]!r} has zero range; "
                       "relief diff is undefined")
    y_range = np.ptp(m.target)
    if y_range == 0.0:
        raise FitError("target has zero range; relief diff is undefined")

    xn = np.ascontiguousarray((m.values - m.values.min(axis=0)) / ranges)
    yn = np.ascontiguousarray((m.target - m.target.min()) / y_range)
    ndc, nda, ndcda = kernels.relief_accumulate(
        xn, yn, np.arange(n, dtype=np.int64), k, neighbor_rank_weights(k))
    weights = relief_weights_from_counts(ndc, nda, ndcda, n)
    return RankedFeatures(m.column_names, weights)


# The |Pearson r| at which a column counts as an affine copy of another.
COPY_CORRELATION = 1.0 - 1e-12


def _dedupe_affine(m: FeatureMatrix, names: tuple[str, ...]) -> list[str]:
    # ``names`` without the affine copies of a column named before them: the
    # search standardizes each column, so a copy adds nothing to it.
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant column
        r = np.abs(np.corrcoef(m.values, rowvar=False).reshape(
            m.n_features, m.n_features))
    col = {name: j for j, name in enumerate(m.column_names)}
    kept: list[int] = []
    for name in names:
        if not (r[col[name], kept] >= COPY_CORRELATION).any():
            kept.append(col[name])
    return [m.column_names[j] for j in kept]


def sequential_forward_select(m: FeatureMatrix, ranked: RankedFeatures,
                              folds: int, seed: int) -> SelectionResult:
    """Grow prefixes of the ranked order while CV RMSE strictly improves.

    A column whose |Pearson r| with one ranked before it is at least
    ``COPY_CORRELATION`` (an affine copy, such as ``2 * x + 1``) is dropped
    from the order first, so the search never selects both and spends no
    prefix on a copy.
    Every prefix is scored by ``ridge_predictions`` at ``SFS_RIDGE_LAMBDA``
    with the same fold plan, drawn from ``seed``, so a trace entry can be
    reproduced by rerunning ``cross_validate`` on that prefix.  The search
    is ``evaluation.forward_select``: it stops after ``SFS_PATIENCE``
    consecutive non-improving prefix sizes and keeps the best prefix seen.
    ``ranked`` holds at least one feature, as every matrix the reader
    builds does.
    """
    order_names = _dedupe_affine(m, ranked.ordered_names())
    plan = make_folds(m.n_samples, folds, seed)
    ridge = partial(ridge_predictions, ridge_lambda=SFS_RIDGE_LAMBDA)

    def score(size: int) -> float:
        prefix = order_names[:size]
        sub = m.subset(prefix)
        with naming(f"prefix of size {size} ({prefix})"):
            oof = cross_validate(sub, ridge, plan)
        return metrics(sub.target, oof).rmse

    best_size, trace = forward_select(len(order_names), score, SFS_PATIENCE)
    return SelectionResult(tuple(order_names[:best_size]), trace)
