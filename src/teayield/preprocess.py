"""Fitted, reapplicable preprocessing transforms.

Three stages: standardization to zero mean and unit variance, natural-log
transformation of strictly positive columns, and influence-based outlier
flagging via Cook's distance on an ordinary-least-squares fit of the target
on all features plus an intercept.  ``PreprocessState`` is the fitted chain
that replays them on new rows.  Fit states are immutable; apply operations
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import TARGET_COLUMN, FeatureMatrix
from .errors import DataError, FitError
from .util import write_table


@dataclass(frozen=True)
class ScalerState:
    """Per-column mean and sample (n-1) standard deviation."""

    columns: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray


@dataclass(frozen=True)
class PreprocessState:
    """A fitted preprocessing chain.

    It only selects, scales and logs columns, and maps the target.  It maps
    loaded rows to model inputs, the ``selected_features`` columns in that
    order, replaying the feature stages in fit order (outlier removal only
    ever drops training rows), and the target to model units and back:
    forward ``log`` (if ``log_target``), then ``(y - target_center) /
    target_scale``.  Chains fitted for cross-validation keep center 0 and
    scale 1, which change no value.  A log error names a row by its
    position, or by its entry in ``rows`` where given.
    """

    stage_order: tuple[str, ...]
    selected_features: tuple[str, ...]
    scaler: ScalerState | None
    log_features: tuple[str, ...]
    log_target: bool
    target_center: float
    target_scale: float

    def apply_features(self, m: FeatureMatrix,
                       rows: np.ndarray | None = None) -> FeatureMatrix:
        missing = [c for c in self.selected_features if c not in m.column_names]
        if missing:
            raise DataError(f"input data lacks model columns {missing}")
        for stage in self.stage_order:
            if stage == "feature_scaling" and self.scaler is not None:
                m = apply_scaler(self.scaler, m)
            elif stage == "feature_transformation" and self.log_features:
                m = log_transform(m, self.log_features, rows)
        return m.subset(self.selected_features)

    def transform_target(self, y: np.ndarray,
                         rows: np.ndarray | None = None) -> np.ndarray:
        if self.log_target:
            y = _checked_log(y, TARGET_COLUMN, rows)
        return (y - self.target_center) / self.target_scale

    def invert_target(self, z: np.ndarray) -> np.ndarray:
        y = z * self.target_scale + self.target_center
        return np.exp(y) if self.log_target else y


@dataclass(frozen=True)
class OutlierReport:
    """Cook's distances with the indices flagged above the threshold."""

    distances: np.ndarray
    flagged: tuple[int, ...]
    threshold: float
    leverages: np.ndarray

    def to_csv(self, path) -> None:
        flagged = set(self.flagged)
        write_table(path, ["index", "cooks_distance", "flagged"],
                    ([i, repr(float(d)), int(i in flagged)]
                     for i, d in enumerate(self.distances)))


def _resolve_columns(m: FeatureMatrix,
                     columns: Sequence[str] | None) -> tuple[str, ...]:
    if columns is None:
        return m.column_names
    for name in columns:
        if name == m.target_name:
            raise DataError(f"target {name!r} is not a feature column")
        if name not in m.column_names:
            raise DataError(f"no column named {name!r}")
    return tuple(columns)


def fit_scaler(m: FeatureMatrix, columns: Sequence[str] | None = None) -> ScalerState:
    """Fit per-column (mean, std). Constant columns are a fit error."""
    columns = _resolve_columns(m, columns)
    if m.n_samples < 2:
        raise FitError("need at least 2 samples to fit a scaler")
    means = np.empty(len(columns))
    stds = np.empty(len(columns))
    for i, name in enumerate(columns):
        col = m.column(name)
        means[i] = col.mean()
        stds[i] = col.std(ddof=1)
        if stds[i] == 0.0:
            raise FitError(f"column {name!r} is constant; cannot standardize")
    return ScalerState(columns, means, stds)


def apply_scaler(s: ScalerState, m: FeatureMatrix) -> FeatureMatrix:
    """Replace each fitted column by (x - mean) / std. Target untouched."""
    updates = {}
    for name, mu, sd in zip(s.columns, s.means, s.stds):
        updates[name] = (m.column(name) - mu) / sd
    return m.replace_columns(updates)


def _checked_log(col: np.ndarray, name: str,
                 rows: np.ndarray | None = None) -> np.ndarray:
    bad = np.nonzero(col <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"log transform needs positive values; row "
            f"{i if rows is None else int(rows[i])}, "
            f"column {name!r} has {float(col[i])!r}")
    return np.log(col)


def log_transform(m: FeatureMatrix, columns: Sequence[str],
                  rows: np.ndarray | None = None) -> FeatureMatrix:
    """Natural log on the selected feature columns; the target is logged
    by ``PreprocessState.transform_target``.

    Values must be strictly positive; the transform is refused for zero or
    negative entries, naming the first offending row, by its position in
    ``m`` or its entry in ``rows``, and column.
    """
    return m.replace_columns({name: _checked_log(m.column(name), name, rows)
                              for name in _resolve_columns(m, columns)})


def _design_matrix(m: FeatureMatrix) -> np.ndarray:
    return np.column_stack([np.ones(m.n_samples), m.values])


def independent_columns(m: FeatureMatrix) -> tuple[str, ...]:
    """Greedy maximal set of columns linearly independent of the intercept
    and of each other (e.g. drops avg_temp next to min/max temperature).

    Least-squares predictions and the hat matrix depend only on the span of
    the design, so fitting on this subset reproduces what a pseudo-inverse
    fit on the full collinear design would predict.
    """
    n = m.n_samples
    basis = [np.ones(n)]
    kept = []
    for name in m.column_names:
        candidate = np.column_stack(basis + [m.column(name)])
        if np.linalg.matrix_rank(candidate) == candidate.shape[1]:
            basis.append(m.column(name))
            kept.append(name)
    return tuple(kept)


def cooks_distance(m: FeatureMatrix, threshold: float = 0.5) -> OutlierReport:
    """Cook's distance of every sample under OLS of target on features.

    D_i = (e_i^2 / (p * s^2)) * (h_ii / (1 - h_ii)^2), where e_i is the OLS
    residual, h_ii the hat-matrix diagonal, p the number of fitted
    coefficients (features + intercept), and s^2 the residual mean square.
    Samples with D_i > threshold are flagged.
    """
    n = m.n_samples
    X = _design_matrix(m)
    p = X.shape[1]
    if n <= p:
        raise FitError(f"need more than {p} samples for {p} coefficients, have {n}")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() <= diag.max() * np.finfo(np.float64).eps * max(n, p):
        raise FitError("design matrix is rank-deficient; Cook's distance undefined")
    beta = np.linalg.solve(r, q.T @ m.target)
    resid = m.target - X @ beta
    h = np.einsum("ij,ij->i", q, q)
    if np.any(h >= 1.0 - 1e-12):
        worst = int(np.argmax(h))
        raise FitError(f"sample {worst} has leverage {h[worst]:.6f} ~ 1; "
                       "Cook's distance is degenerate there")
    s2 = float(resid @ resid) / (n - p)
    # An (up to rounding) exact fit has no influence structure: calling the
    # distances zero beats dividing noise by noise.
    tiny = (1e-12 * max(1.0, float(np.abs(m.target).max()))) ** 2
    if s2 <= tiny:
        distances = np.zeros(n)
    else:
        distances = (resid ** 2 / (p * s2)) * (h / (1.0 - h) ** 2)
    flagged = tuple(int(i) for i in np.nonzero(distances > threshold)[0])
    return OutlierReport(distances, flagged, float(threshold), h)


def remove_outliers(m: FeatureMatrix, report: OutlierReport) -> FeatureMatrix:
    """Drop the flagged rows, preserving the order of the survivors."""
    if report.distances.shape[0] != m.n_samples:
        raise DataError(
            f"report covers {report.distances.shape[0]} samples, matrix has "
            f"{m.n_samples}; it was not produced from this matrix")
    if not report.flagged:
        return m
    flagged = np.asarray(report.flagged, dtype=np.int64)
    if flagged.min() < 0 or flagged.max() >= m.n_samples:
        raise DataError("flagged index out of range")
    keep = np.setdiff1d(np.arange(m.n_samples), flagged)
    return m.take_rows(keep)
