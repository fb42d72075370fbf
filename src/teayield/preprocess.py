"""Fitted, reapplicable preprocessing transforms.

The chain is fixed: ``PIPELINE_STAGES`` names its four stages in the order
they run.  Feature selection keeps a subset of the columns; standardization
scales every kept column to zero mean and unit variance; influence-based
outlier flagging drops training rows by Cook's distance on an
ordinary-least-squares fit of the target on the features plus an intercept;
and the transformation takes the natural log of the strictly positive
target.  ``PreprocessState`` is the fitted chain that replays them on new
rows.  Fit states are immutable; apply operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import TARGET_COLUMN, FeatureMatrix
from .errors import DataError, FitError
from .util import write_table

PIPELINE_STAGES = ("feature_selection", "feature_scaling", "outlier_removal",
                   "feature_transformation")


@dataclass(frozen=True)
class ScalerState:
    """Per-column mean and sample (n-1) standard deviation, one entry per
    column of the matrices it scales, in their order.  A FitError refuses
    means and stds that are not 1-D vectors of one length, a value that is
    not finite, and a std that is not > 0."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        if not (self.means.ndim == 1 and self.stds.shape == self.means.shape
                and np.isfinite(self.means).all()
                and np.isfinite(self.stds).all() and (self.stds > 0.0).all()):
            raise FitError("scaler means and stds must be vectors of one "
                           "length, the means finite and the stds finite "
                           "and > 0")


@dataclass(frozen=True)
class PreprocessState:
    """A fitted preprocessing chain: the fixed one of ``PIPELINE_STAGES``,
    or, while ``pipeline.fit_chain`` fits it, the first stages of it.

    It only selects and scales columns, and maps the target.  It maps
    loaded rows to model inputs, the ``selected_features`` columns in that
    order, each scaled by ``scaler`` if one was fitted (outlier removal only
    ever drops training rows), and the target to model units and back:
    forward ``log`` (if ``log_target``), then ``(y - target_center) /
    target_scale``.  Chains fitted for cross-validation keep center 0 and
    scale 1, which change no value.  A log error names a row by its
    position, or by its entry in ``rows`` where given.  A FitError refuses
    ``selected_features`` that are not distinct strings, a scaler not as
    wide as them, and a target center or scale that is not finite, or a
    scale not > 0.
    """

    selected_features: tuple[str, ...]
    scaler: ScalerState | None
    log_target: bool
    target_center: float
    target_scale: float

    def __post_init__(self):
        names = self.selected_features
        if (not all(isinstance(c, str) for c in names)
                or len(set(names)) != len(names)):
            raise FitError(f"selected_features must be distinct strings, "
                           f"got {list(names)!r}")
        if self.scaler is not None and self.scaler.means.size != len(names):
            raise FitError(f"the scaler scales {self.scaler.means.size} "
                           f"columns, the chain selects {len(names)}")
        if not (math.isfinite(self.target_center)
                and 0.0 < self.target_scale < math.inf):
            raise FitError(f"target_center must be finite and target_scale "
                           f"finite and > 0, got {self.target_center!r} and "
                           f"{self.target_scale!r}")

    def apply_features(self, m: FeatureMatrix) -> FeatureMatrix:
        missing = [c for c in self.selected_features if c not in m.column_names]
        if missing:
            raise DataError(f"input data lacks model columns {missing}")
        m = m.subset(self.selected_features)
        return m if self.scaler is None else apply_scaler(self.scaler, m)

    def transform_target(self, y: np.ndarray,
                         rows: np.ndarray | None = None) -> np.ndarray:
        if self.log_target:
            bad = np.nonzero(y <= 0.0)[0]
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"log transform needs positive values; row "
                    f"{i if rows is None else int(rows[i])}, "
                    f"column {TARGET_COLUMN!r} has {float(y[i])!r}")
            y = np.log(y)
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


def fit_scaler(m: FeatureMatrix) -> ScalerState:
    """Fit per-column (mean, std) of every feature column.  Constant columns
    are a fit error."""
    if m.n_samples < 2:
        raise FitError("need at least 2 samples to fit a scaler")
    means = np.empty(m.n_features)
    stds = np.empty(m.n_features)
    for i, name in enumerate(m.column_names):
        col = m.column(name)
        means[i] = col.mean()
        stds[i] = col.std(ddof=1)
        if stds[i] == 0.0:
            raise FitError(f"column {name!r} is constant; cannot standardize")
    return ScalerState(means, stds)


def apply_scaler(s: ScalerState, m: FeatureMatrix) -> FeatureMatrix:
    """Replace every column by (x - mean) / std, for a matrix as wide as
    the scaler, column for column as it was fitted.  Target untouched."""
    return FeatureMatrix(m.column_names, (m.values - s.means) / s.stds,
                         m.target)


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


def cooks_distance(m: FeatureMatrix, threshold: float) -> OutlierReport:
    """Cook's distance of every sample under OLS of target on
    ``independent_columns(m)``, so a collinear column changes no distance.

    D_i = (e_i^2 / (p * s^2)) * (h_ii / (1 - h_ii)^2), where e_i is the OLS
    residual, h_ii the hat-matrix diagonal, p the number of fitted
    coefficients (independent features + intercept), and s^2 the residual
    mean square.  Samples with D_i > threshold are flagged.
    """
    m = m.subset(independent_columns(m))
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
    """Drop the rows ``report`` flags, a report of ``m`` itself, preserving
    the order of the survivors."""
    if not report.flagged:
        return m
    return m.take_rows(np.delete(np.arange(m.n_samples), report.flagged))
