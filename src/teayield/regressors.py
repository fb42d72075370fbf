"""The in-scope learners: linear (OLS/ridge), exact Gaussian process
regression with a squared-exponential kernel, and the single-hidden-layer
network used as the ensemble base learner.

Fitted models are immutable and thread-safe for prediction.  Fitting is
determined by (data, config, seed) and starts no thread of its own; BLAS
runs at the library's thread count, which only ``evaluate`` sets (to one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import FeatureMatrix
from .errors import DataError, FitError
from .preprocess import apply_scaler, fit_scaler, independent_columns
from .util import generator

HIDDEN_RANGE = (5, 30)

# The most rows ``fit_gpr`` takes: exact inference is O(n^3) in time and
# O(n^2) in memory.
GPR_MAX_ROWS = 5000

# The stage report's GP: signal variance, length scale and noise variance,
# fixed on the standardized target (no marginal-likelihood fit).
GPR_SIGNAL_VAR, GPR_LENGTH_SCALE, GPR_NOISE_VAR = 1.0, 2.0, 0.1


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float


@dataclass(frozen=True)
class GPRModel:
    """Exact GP regressor at the ``GPR_*`` constants, with the kernel
    k(x, x') = GPR_SIGNAL_VAR * exp(-||x-x'||^2 / (2 GPR_LENGTH_SCALE^2)).

    The prior mean is zero, so callers are expected to center (typically
    standardize) the target before fitting.  ``alpha`` solves
    (K + GPR_NOISE_VAR*I) alpha = y, so the posterior mean at a query is
    k(query, x_train) @ alpha.
    """

    x_train: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class MLPTrainConfig:
    hidden_size: int
    epochs: int = 2000
    early_stop_fraction: float = 0.15
    patience: int = 20

    def __post_init__(self):
        if not HIDDEN_RANGE[0] <= self.hidden_size <= HIDDEN_RANGE[1]:
            raise FitError(f"[mlp] hidden_size must be in {list(HIDDEN_RANGE)}"
                           f", got {self.hidden_size}")
        if self.epochs < 1:
            raise FitError(f"[mlp] epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.early_stop_fraction < 1.0:
            raise FitError("[mlp] early_stop_fraction must be in [0, 1), "
                           f"got {self.early_stop_fraction}")
        if self.patience < 1:
            raise FitError(f"[mlp] patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class MLPModel:
    """One tanh hidden layer, identity output.  Its width is ``w_hidden``'s
    second dimension, and it keeps no training setting.  A FitError refuses
    weights not shaped for one width or not finite, a width outside
    ``HIDDEN_RANGE``, and a negative ``seed`` or ``epochs_run``."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float
    seed: int
    epochs_run: int

    def __post_init__(self):
        shapes = (self.w_hidden.shape, self.b_hidden.shape, self.w_out.shape)
        if len(shapes[0]) != 2 or shapes[1:] != (shapes[0][1:],) * 2:
            raise FitError(f"w_hidden, b_hidden and w_out have shapes {shapes}"
                           ", expected (features, h), (h,) and (h,)")
        if not HIDDEN_RANGE[0] <= self.hidden_size <= HIDDEN_RANGE[1]:
            raise FitError(f"a network's width must be in {list(HIDDEN_RANGE)}"
                           f", got {self.hidden_size}")
        if not all(np.isfinite(a).all() for a in (
                self.w_hidden, self.b_hidden, self.w_out, self.b_out)):
            raise FitError("the network's weights are not all finite")
        if min(self.seed, self.epochs_run) < 0:
            raise FitError(f"seed and epochs_run must be >= 0, got "
                           f"{self.seed} and {self.epochs_run}")

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[1]


def _feature_array(m: FeatureMatrix) -> np.ndarray:
    return np.ascontiguousarray(m.values)


def fit_ols(m: FeatureMatrix, ridge_lambda: float) -> LinearModel:
    """Least squares with a ridge penalty ``ridge_lambda`` >= 0, none at 0
    (intercept unpenalized).

    Solved on centered data through lstsq (ridge via the augmented-rows
    trick), never through the raw normal equations.
    """
    n, f = m.values.shape
    if n <= f:
        raise FitError(f"need more than {f} samples to fit {f} coefficients, have {n}")
    x_mean = m.values.mean(axis=0)
    y_mean = float(m.target.mean())
    xc = m.values - x_mean
    yc = m.target - y_mean
    if ridge_lambda > 0.0:
        a = np.vstack([xc, math.sqrt(ridge_lambda) * np.eye(f)])
        b = np.concatenate([yc, np.zeros(f)])
        beta = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        beta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
        if rank < f:
            raise FitError("design matrix is rank-deficient; use ridge_lambda > 0")
    intercept = y_mean - float(x_mean @ beta)
    return LinearModel(beta, intercept)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ||a_i - b_j||^2 without forming the large intermediate difference tensor.
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return GPR_SIGNAL_VAR * np.exp(-_sq_dists(a, b)
                                   / (2.0 * GPR_LENGTH_SCALE ** 2))


def fit_gpr(m: FeatureMatrix) -> GPRModel:
    """Factor K + GPR_NOISE_VAR*I once; inference is exact and O(n^3), so
    more than ``GPR_MAX_ROWS`` rows are a FitError.

    The noise keeps every eigenvalue of the factored matrix at least
    GPR_NOISE_VAR, less the rounding of K (about 1e-11 at ``GPR_MAX_ROWS``
    rows), so the Cholesky needs no jitter; a failure is a FitError.  With
    the lower factor L, ``alpha`` solves L z = y and then L^T alpha = z,
    each by ``numpy.linalg.solve`` (Rasmussen & Williams 2006, Alg. 2.1).
    It agrees with ``scipy.linalg.cho_solve`` to 1e-12 relative; the tests
    check it.
    """
    n = m.n_samples
    if n > GPR_MAX_ROWS:
        raise FitError(f"{n} samples exceeds the exact-inference cap of "
                       f"{GPR_MAX_ROWS}")
    x = _feature_array(m)
    try:
        lower = np.linalg.cholesky(_kernel(x, x) + GPR_NOISE_VAR * np.eye(n))
    except np.linalg.LinAlgError:
        raise FitError("the GP's kernel matrix is not positive definite"
                       ) from None
    alpha = np.linalg.solve(lower.T, np.linalg.solve(lower, m.target))
    return GPRModel(x, alpha)


def fit_mlp(m: FeatureMatrix, config: MLPTrainConfig, seed: int) -> MLPModel:
    """Train the shallow network with full-batch iRprop⁻ on MSE
    (``kernels.mlp_train``, every step starting at ``kernels.DELTA0``).

    Features are assumed standardized (training tends to stall otherwise;
    this is a documented precondition, not enforced).  Weights are
    initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from the
    seeded generator, biases at zero; the generator then draws the
    early-stopping shard (a held-out ``early_stop_fraction`` of the given
    rows).
    """
    n, f = m.values.shape
    rng = generator(seed)
    h = config.hidden_size
    lim1 = 1.0 / math.sqrt(f)
    w1 = rng.uniform(-lim1, lim1, (f, h))
    lim2 = 1.0 / math.sqrt(h)
    w2 = rng.uniform(-lim2, lim2, h)
    b1, b2 = np.zeros(h), 0.0

    x = _feature_array(m)
    y = np.ascontiguousarray(m.target)
    n_val = int(round(config.early_stop_fraction * n))
    if n_val >= 1 and n - n_val >= 1:
        perm = rng.permutation(n)
        val_idx = perm[:n_val]
        fit_idx = perm[n_val:]
        x_fit, y_fit = np.ascontiguousarray(x[fit_idx]), np.ascontiguousarray(y[fit_idx])
        x_val, y_val = np.ascontiguousarray(x[val_idx]), np.ascontiguousarray(y[val_idx])
    else:
        x_fit, y_fit = x, y
        x_val, y_val = np.empty((0, f)), np.empty(0)

    w1, b1, w2, b2, _, epochs_run, status = kernels.mlp_train(
        x_fit, y_fit, x_val, y_val, w1, b1, w2, b2,
        kernels.DELTA0, config.epochs, config.patience)
    if status != 0:
        raise FitError(f"non-finite training loss at epoch {epochs_run}")
    return MLPModel(w1, b1, w2, float(b2), int(seed), int(epochs_run))


def predict_mlp(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """The network's outputs for the rows of the input array ``x``."""
    if x.shape[1] != model.w_hidden.shape[0]:
        raise DataError(f"matrix has {x.shape[1]} features, model expects "
                        f"{model.w_hidden.shape[0]}")
    return kernels.mlp_forward(x, model.w_hidden, model.b_hidden,
                               model.w_out, model.b_out)


def predict(model, m: FeatureMatrix) -> np.ndarray:
    """Batch prediction for a fitted linear model, GP or network.  The
    learners below predict rows with the columns they fitted on."""
    x = _feature_array(m)
    if isinstance(model, LinearModel):
        return x @ model.coefficients + model.intercept
    if isinstance(model, GPRModel):
        return _kernel(x, model.x_train) @ model.alpha
    return predict_mlp(model, x)


# ---------------------------------------------------------------------------
# The learners the stage report and the feature search score.  Each fits on
# ``train`` and returns its predictions for the rows of ``test``, so any
# preprocessing it does is refit on every training fold.
# ---------------------------------------------------------------------------


def _target_standardizer(m: FeatureMatrix) -> tuple[FeatureMatrix, float, float]:
    mu = float(m.target.mean())
    sd = float(m.target.std(ddof=1)) if m.n_samples > 1 else 0.0
    if sd == 0.0:
        sd = 1.0
    return m.with_target((m.target - mu) / sd), mu, sd


def ridge_predictions(train: FeatureMatrix, test: FeatureMatrix,
                      ridge_lambda: float) -> np.ndarray:
    """Ridge regression on ``train``'s columns, each standardized with its
    mean and std on ``train``: the feature search's learner.  ``test`` holds
    the same columns, as the search's folds of one matrix do."""
    scaler = fit_scaler(train)
    # A column-major copy: ``fit_ols`` sums each column's mean in memory
    # order, and on the row-major fold rows the feature-selection trace
    # would differ in its last bits.
    model = fit_ols(apply_scaler(scaler, train.subset(train.column_names)),
                    ridge_lambda)
    return predict(model, apply_scaler(scaler, test))


def ols_predictions(train: FeatureMatrix, test: FeatureMatrix) -> np.ndarray:
    """Least squares on ``independent_columns(train)``.  Its predictions
    depend only on the design's span, so they are those of a pseudo-inverse
    fit on a collinear design."""
    columns = independent_columns(train)
    model = fit_ols(train.subset(columns), 0.0)
    return predict(model, test.subset(columns))


def gpr_predictions(train: FeatureMatrix, test: FeatureMatrix) -> np.ndarray:
    """The GP at the ``GPR_*`` constants, fitted on ``train`` with its
    target standardized (zero prior mean), its predictions mapped back;
    features are used as given."""
    ztrain, mu, sd = _target_standardizer(train)
    model = fit_gpr(ztrain)
    return predict(model, test.subset(train.column_names)) * sd + mu


def mlp_predictions(train: FeatureMatrix, test: FeatureMatrix,
                    config: MLPTrainConfig, seed: int) -> np.ndarray:
    """The network trained on ``train`` with its target standardized, for
    training stability, its predictions mapped back; features as given."""
    ztrain, mu, sd = _target_standardizer(train)
    model = fit_mlp(ztrain, config, seed)
    return predict(model, test.subset(train.column_names)) * sd + mu
