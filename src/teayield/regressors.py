"""The in-scope learners: linear (OLS/ridge), exact Gaussian process
regression with a squared-exponential kernel, and the single-hidden-layer
network used as the ensemble base learner.

Fitted models are immutable and thread-safe for prediction; fitting is
single-threaded and fully determined by (data, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .dataset import FeatureMatrix
from .errors import DataError, FitError
from .preprocess import fit_scaler

HIDDEN_RANGE = (5, 30)


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float


@dataclass(frozen=True)
class GPRModel:
    """Exact GP regressor with k(x, x') = signal_var * exp(-||x-x'||^2 / (2 l^2)).

    The prior mean is zero, so callers are expected to center (typically
    standardize) the target before fitting.  ``alpha`` solves
    (K + noise_var*I + jitter*I) alpha = y, with whatever diagonal jitter the
    fit needed, so the posterior mean at a query is k(query, x_train) @ alpha.
    """

    signal_var: float
    length_scale: float
    x_train: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class MLPTrainConfig:
    hidden_size: int
    epochs: int = 2000
    early_stop_fraction: float = 0.15
    patience: int = 20

    def __post_init__(self):
        lo, hi = HIDDEN_RANGE
        if not lo <= self.hidden_size <= hi:
            raise FitError(f"[mlp] hidden_size must be in [{lo}, {hi}], "
                           f"got {self.hidden_size}")
        if self.epochs < 1:
            raise FitError(f"[mlp] epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.early_stop_fraction < 1.0:
            raise FitError("[mlp] early_stop_fraction must be in [0, 1), "
                           f"got {self.early_stop_fraction}")
        if self.patience < 1:
            raise FitError(f"[mlp] patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class MLPModel:
    """One tanh hidden layer, identity output."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float
    config: MLPTrainConfig
    seed: int
    epochs_run: int
    train_error: float

    @property
    def hidden_size(self) -> int:
        return self.config.hidden_size


def _feature_array(m: FeatureMatrix) -> np.ndarray:
    return np.ascontiguousarray(m.values)


def fit_ols(m: FeatureMatrix, ridge_lambda: float = 0.0) -> LinearModel:
    """Least squares with optional ridge penalty (intercept unpenalized).

    Solved on centered data through lstsq (ridge via the augmented-rows
    trick), never through the raw normal equations.
    """
    if ridge_lambda < 0:
        raise FitError(f"ridge_lambda must be >= 0, got {ridge_lambda}")
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


def _kernel(a: np.ndarray, b: np.ndarray, signal_var: float,
            length_scale: float) -> np.ndarray:
    return signal_var * np.exp(-_sq_dists(a, b) / (2.0 * length_scale ** 2))


def fit_gpr(m: FeatureMatrix, signal_var: float = 1.0, length_scale: float = 1.0,
            noise_var: float = 0.1, max_n: int = 5000) -> GPRModel:
    """Factor K + noise_var*I once; inference is exact and O(n^3).

    If the Cholesky fails, a diagonal jitter starting at 1e-10 * mean(diag K)
    escalates tenfold up to 1e-4 * mean(diag K) before giving up.

    With the lower factor L, ``alpha`` solves L z = y and then L^T alpha = z,
    each by ``numpy.linalg.solve`` (Rasmussen & Williams 2006, Alg. 2.1).
    It agrees with ``scipy.linalg.cho_solve`` to 1e-12 relative on
    well-conditioned kernels, and to the condition number times the rounding
    unit on a jittered, near-singular one; the tests check both.
    """
    if signal_var <= 0 or length_scale <= 0:
        raise FitError("signal_var and length_scale must be > 0")
    if noise_var < 0:
        raise FitError(f"noise_var must be >= 0, got {noise_var}")
    n = m.n_samples
    if n > max_n:
        raise FitError(f"{n} samples exceeds the exact-inference cap of {max_n}")
    x = _feature_array(m)
    k = _kernel(x, x, signal_var, length_scale)
    c = k + noise_var * np.eye(n)
    unit = float(np.trace(k)) / n
    jitter = 0.0
    step = 1e-10 * unit
    cap = 1e-4 * unit
    while True:
        try:
            lower = np.linalg.cholesky(c + jitter * np.eye(n))
            break
        except np.linalg.LinAlgError:
            jitter = step if jitter == 0.0 else jitter * 10.0
            if jitter > cap:
                raise FitError(
                    f"kernel matrix not positive definite even with jitter "
                    f"{cap:g} (signal_var={signal_var}, length_scale="
                    f"{length_scale}, noise_var={noise_var})") from None
    alpha = np.linalg.solve(lower.T, np.linalg.solve(lower, m.target))
    return GPRModel(float(signal_var), float(length_scale), x, alpha)


def fit_mlp(m: FeatureMatrix, config: MLPTrainConfig, seed: int) -> MLPModel:
    """Train the shallow network with full-batch iRprop⁻ on MSE
    (``kernels.mlp_train``, every step starting at ``kernels.DELTA0``).

    Features are assumed standardized (training tends to stall otherwise;
    this is a documented precondition, not enforced).  Weights are
    initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from the
    seeded generator, biases at zero; the generator then draws the
    early-stopping shard (a held-out ``early_stop_fraction`` of the given
    rows).  ``train_error`` is the final MSE over all given rows.
    """
    n, f = m.values.shape
    if n < 1:
        raise FitError("cannot train on an empty matrix")
    rng = np.random.default_rng(seed)
    h = config.hidden_size
    lim1 = 1.0 / math.sqrt(f)
    w1 = rng.uniform(-lim1, lim1, (f, h))
    lim2 = 1.0 / math.sqrt(h)
    w2 = rng.uniform(-lim2, lim2, h)
    b1 = np.zeros(h)
    b2 = 0.0

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
    if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(b1))
            and np.all(np.isfinite(w2)) and math.isfinite(b2)):
        raise FitError("training produced non-finite weights")

    resid = kernels.mlp_forward(x, w1, b1, w2, b2) - y
    train_error = float((resid * resid).mean())
    return MLPModel(w1, b1, w2, float(b2), config, int(seed),
                    int(epochs_run), train_error)


def predict_mlp(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """The network's outputs for the rows of the input array ``x``."""
    if x.shape[1] != model.w_hidden.shape[0]:
        raise DataError(f"matrix has {x.shape[1]} features, model expects "
                        f"{model.w_hidden.shape[0]}")
    return kernels.mlp_forward(x, model.w_hidden, model.b_hidden,
                               model.w_out, model.b_out)


def predict(model, m: FeatureMatrix) -> np.ndarray:
    """Uniform batch prediction for any fitted model."""
    x = _feature_array(m)
    if isinstance(model, LinearModel):
        if x.shape[1] != model.coefficients.shape[0]:
            raise DataError(f"matrix has {x.shape[1]} features, model expects "
                            f"{model.coefficients.shape[0]}")
        return x @ model.coefficients + model.intercept
    if isinstance(model, GPRModel):
        if x.shape[1] != model.x_train.shape[1]:
            raise DataError(f"matrix has {x.shape[1]} features, model expects "
                            f"{model.x_train.shape[1]}")
        return _kernel(x, model.x_train, model.signal_var,
                       model.length_scale) @ model.alpha
    if isinstance(model, MLPModel):
        return predict_mlp(model, x)
    raise DataError(f"cannot predict with object of type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Learner factories for the cross-validation harness.  A factory maps
# (training matrix, seed) to a prediction closure; preprocessing done inside
# the factory is therefore refit on every training fold.
# ---------------------------------------------------------------------------

PredictFn = Callable[[FeatureMatrix], np.ndarray]
LearnerFactory = Callable[[FeatureMatrix, int], PredictFn]


def _target_standardizer(m: FeatureMatrix) -> tuple[FeatureMatrix, float, float]:
    mu = float(m.target.mean())
    sd = float(m.target.std(ddof=1)) if m.n_samples > 1 else 0.0
    if sd == 0.0:
        sd = 1.0
    return m.with_target((m.target - mu) / sd), mu, sd


def make_linear_factory(ridge_lambda: float = 0.0,
                        standardize_features: bool = False,
                        drop_dependent: bool = False) -> LearnerFactory:
    # drop_dependent projects onto a linearly independent column subset
    # before the fit; least-squares predictions only depend on the design's
    # span, so this reproduces a pseudo-inverse fit on a collinear design.
    def factory(train: FeatureMatrix, seed: int) -> PredictFn:
        from .preprocess import apply_scaler, independent_columns

        columns = independent_columns(train) if drop_dependent else train.column_names
        scaler = (fit_scaler(train.subset(columns))
                  if standardize_features else None)

        def design(m: FeatureMatrix) -> FeatureMatrix:
            m = m.subset(columns)
            return m if scaler is None else apply_scaler(scaler, m)

        model = fit_ols(design(train), ridge_lambda)
        return lambda m: predict(model, design(m))
    return factory


def make_gpr_factory(signal_var: float = 1.0, length_scale: float = 1.0,
                     noise_var: float = 0.1) -> LearnerFactory:
    # The target is standardized per training fold (zero prior mean) and
    # predictions are mapped back; features are used exactly as given.
    def factory(train: FeatureMatrix, seed: int) -> PredictFn:
        ztrain, mu, sd = _target_standardizer(train)
        model = fit_gpr(ztrain, signal_var, length_scale, noise_var)

        def predict_fn(m: FeatureMatrix) -> np.ndarray:
            return predict(model, m.subset(train.column_names)) * sd + mu
        return predict_fn
    return factory


def make_mlp_factory(config: MLPTrainConfig) -> LearnerFactory:
    # Target standardized per fold for training stability; features as given.
    def factory(train: FeatureMatrix, seed: int) -> PredictFn:
        ztrain, mu, sd = _target_standardizer(train)
        model = fit_mlp(ztrain, config, seed)

        def predict_fn(m: FeatureMatrix) -> np.ndarray:
            return predict(model, m.subset(train.column_names)) * sd + mu
        return predict_fn
    return factory
