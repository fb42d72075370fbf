import re
from dataclasses import replace

import numpy as np
import pytest

from teayield import kernels, regressors
from teayield.dataset import FeatureMatrix
from teayield.errors import DataError, FitError
from teayield.preprocess import apply_scaler, fit_scaler
from teayield.regressors import MLPTrainConfig, fit_gpr, fit_mlp, fit_ols, predict

from conftest import random_matrix


class TestFitOls:
    def test_exact_line(self, rng):
        x = rng.normal(size=30)
        m = FeatureMatrix(("x",), x.reshape(-1, 1), 2.0 * x + 1.0)
        model = fit_ols(m, 0.0)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(1.0, abs=1e-10)

    def test_huge_ridge_shrinks_to_mean(self, rng):
        m = random_matrix(rng, 40, 3)
        model = fit_ols(m, ridge_lambda=1e12)
        assert np.all(np.abs(model.coefficients) < 1e-6)
        assert model.intercept == pytest.approx(m.target.mean(), rel=1e-6)

    def test_residuals_orthogonal_to_design(self, rng):
        m = random_matrix(rng, 50, 4)
        model = fit_ols(m, 0.0)
        resid = m.target - predict(model, m)
        assert abs(resid.sum()) < 1e-8
        for j in range(4):
            assert abs(resid @ m.values[:, j]) < 1e-8

    def test_rank_deficient_rejected(self, rng):
        x = rng.normal(size=20)
        m = FeatureMatrix(("a", "b"), np.column_stack([x, 3 * x]),
                          rng.normal(size=20))
        with pytest.raises(FitError, match="rank-deficient"):
            fit_ols(m, 0.0)

    def test_ridge_handles_collinearity(self, rng):
        x = rng.normal(size=20)
        m = FeatureMatrix(("a", "b"), np.column_stack([x, 3 * x]),
                          rng.normal(size=20))
        model = fit_ols(m, ridge_lambda=1e-3)
        assert np.all(np.isfinite(model.coefficients))

    def test_needs_more_samples_than_features(self, rng):
        with pytest.raises(FitError, match="samples"):
            fit_ols(random_matrix(rng, 3, 3), 0.0)

    def test_predictions_invariant_under_rescaling(self, rng):
        m = random_matrix(rng, 40, 3)
        direct = predict(fit_ols(m, 0.0), m)
        scaled = apply_scaler(fit_scaler(m), m)
        rescaled = predict(fit_ols(scaled, 0.0), scaled)
        np.testing.assert_allclose(direct, rescaled, atol=1e-8)


def one_row(x) -> FeatureMatrix:
    """A one-row matrix holding the two features ``x``."""
    return FeatureMatrix(("x0", "x1"), np.reshape(x, (1, 2)), np.zeros(1))


def fit_gpr_keeping_factor(monkeypatch, m: FeatureMatrix):
    """The fitted GP and the Cholesky factors taken while fitting it."""
    factors = []
    cholesky = np.linalg.cholesky

    def keeping(a):
        factors.append(cholesky(a))
        return factors[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", keeping)
        g = fit_gpr(m)
    return g, factors


def relative_error(a: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(a - reference) / np.linalg.norm(reference))


def dense_posterior_mean(m: FeatureMatrix, x: np.ndarray) -> float:
    """k(x, X) (K + noise I)^-1 y at the ``GPR_*`` constants, through the
    explicit inverse."""
    sv, ls = regressors.GPR_SIGNAL_VAR, regressors.GPR_LENGTH_SCALE
    diff = m.values - x
    kstar = sv * np.exp(-np.sum(diff * diff, axis=1) / (2 * ls * ls))
    d2 = (np.sum(m.values ** 2, 1)[:, None] + np.sum(m.values ** 2, 1)[None, :]
          - 2 * m.values @ m.values.T)
    kmat = (sv * np.exp(-d2 / (2 * ls * ls))
            + regressors.GPR_NOISE_VAR * np.eye(m.n_samples))
    return float(kstar @ np.linalg.inv(kmat) @ m.target)


class TestGPR:
    def test_matches_dense_inverse(self, rng):
        for _ in range(5):
            m = random_matrix(rng, int(rng.integers(3, 9)), 2)
            x = rng.normal(size=2)
            assert predict(fit_gpr(m), one_row(x))[0] == pytest.approx(
                dense_posterior_mean(m, x), abs=1e-8)

    def test_far_query_reverts_to_prior(self, rng):
        g = fit_gpr(random_matrix(rng, 8, 2))
        assert abs(predict(g, one_row(np.full(2, 100.0)))[0]) < 1e-10

    def test_a_duplicated_row_is_factored_at_the_first_attempt(
            self, rng, monkeypatch):
        """The noise keeps K + noise I positive definite however the rows
        repeat, so one Cholesky serves the fit."""
        m = random_matrix(rng, 7, 2).take_rows([0, 1, 2, 3, 4, 5, 6, 0])
        g, factors = fit_gpr_keeping_factor(monkeypatch, m)
        assert len(factors) == 1
        x = rng.normal(size=2)
        assert predict(g, one_row(x))[0] == pytest.approx(
            dense_posterior_mean(m, x), abs=1e-8)

    def test_a_failed_factorization_is_a_fit_error(self, rng, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        with pytest.raises(FitError, match="not positive definite"):
            fit_gpr(random_matrix(rng, 8, 2))

    def test_alpha_matches_scipy_cho_solve(self, rng, monkeypatch):
        """Over random inputs with 10 to 120 rows, ``alpha`` agrees with
        scipy's Cholesky solve on the same factor to 1e-12 relative."""
        linalg = pytest.importorskip("scipy.linalg")
        for _ in range(40):
            m = random_matrix(rng, int(rng.integers(10, 121)),
                              int(rng.integers(1, 6)))
            g, (lower,) = fit_gpr_keeping_factor(monkeypatch, m)
            oracle = linalg.cho_solve((lower, True), m.target)
            assert relative_error(g.alpha, oracle) <= 1e-12

    def test_posterior_mean_linear_in_targets(self, rng):
        values = rng.normal(size=(10, 2))
        y1 = rng.normal(size=10)
        y2 = rng.normal(size=10)
        query = FeatureMatrix(("a", "b"), rng.normal(size=(4, 2)), np.zeros(4))

        def posterior(y):
            return predict(fit_gpr(FeatureMatrix(("a", "b"), values, y)),
                           query)

        np.testing.assert_allclose(posterior(y1 + y2),
                                   posterior(y1) + posterior(y2), atol=1e-10)

    def test_sample_cap(self, rng, monkeypatch):
        monkeypatch.setattr(regressors, "GPR_MAX_ROWS", 10)
        m = random_matrix(rng, 30, 2)
        with pytest.raises(FitError, match="cap of 10"):
            fit_gpr(m)


def finite_difference_grads(x, y, w1, b1, w2, b2, h=1e-5):
    def loss(w1_, b1_, w2_, b2_):
        a = np.tanh(x @ w1_ + b1_)
        err = a @ w2_ + b2_ - y
        return float((err * err).mean())

    grads = []
    for arr in (w1, b1, w2):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss(w1, b1, w2, b2)
            flat[i] = orig - h
            lo = loss(w1, b1, w2, b2)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    hi = loss(w1, b1, w2, b2 + h)
    lo = loss(w1, b1, w2, b2 - h)
    grads.append((hi - lo) / (2 * h))
    return grads


class TestMLP:
    def test_zero_network_outputs_bias(self, rng):
        x = rng.normal(size=(7, 3))
        out = kernels.mlp_forward(x, np.zeros((3, 6)), np.zeros(6),
                                  np.zeros(6), 1.75)
        np.testing.assert_array_equal(out, np.full(7, 1.75))

    def test_overfits_tiny_noiseless_data(self, rng):
        values = rng.normal(size=(8, 2))
        target = np.tanh(values @ np.array([1.0, -0.5]))
        m = FeatureMatrix(("a", "b"), values, target)
        config = MLPTrainConfig(8, epochs=20000, early_stop_fraction=0.0)
        model = fit_mlp(m, config, seed=0)
        resid = predict(model, m) - target
        assert float((resid * resid).mean()) < 1e-3

    def test_gradients_match_finite_differences(self, rng):
        for h_size in (5, 10, 17, 24, 30):
            for _ in range(4):
                n, f = 12, 3
                x = rng.normal(size=(n, f))
                y = rng.normal(size=n)
                w1 = rng.normal(scale=0.5, size=(f, h_size))
                b1 = rng.normal(scale=0.1, size=h_size)
                w2 = rng.normal(scale=0.5, size=h_size)
                b2 = float(rng.normal())
                # One full-batch iRprop⁻ step with no shard moves every
                # parameter by DELTA0 against the sign of its gradient, up
                # to the rounding of the subtraction.
                delta0 = kernels.DELTA0
                w1n, b1n, w2n, b2n, _, epochs, status = kernels.mlp_train(
                    x, y, np.empty((0, f)), np.empty(0), w1, b1, w2, b2,
                    delta0, 1, 1)
                assert (epochs, status) == (1, 0)
                moves = (w1n - w1, b1n - b1, w2n - w2, b2n - b2)
                grads = finite_difference_grads(
                    x, y, w1.copy(), b1.copy(), w2.copy(), b2)
                for move, grad in zip(moves, grads):
                    move, grad = np.atleast_1d(move), np.atleast_1d(grad)
                    clear = np.abs(grad) > 1e-6
                    assert clear.any()
                    np.testing.assert_allclose(
                        move[clear], -delta0 * np.sign(grad[clear]),
                        rtol=1e-9)

    def test_loss_non_increasing_at_small_lr(self, rng, monkeypatch):
        """iRprop⁻ starts every step at ``kernels.DELTA0``, 1e-3.  The loss
        may rise in an epoch where a step overshoots, before that step
        halves; here that happens in 14 of 1,500 epochs."""
        m = random_matrix(rng, 60, 3, target_noise=0.3)
        scaled = apply_scaler(fit_scaler(m), m)
        config = MLPTrainConfig(10, epochs=1500, early_stop_fraction=0.15,
                                patience=1500)
        histories = []
        original = kernels.mlp_train

        def recording(*args):
            result = original(*args)
            histories.append(result[4])
            return result

        monkeypatch.setattr(kernels, "mlp_train", recording)
        fit_mlp(scaled, config, seed=3)
        (losses,) = histories
        diffs = np.diff(losses)
        violations = int((diffs > 0).sum())
        assert violations <= max(1, int(0.01 * len(losses)))

    def test_bit_identical_across_runs(self, rng):
        m = random_matrix(rng, 40, 3)
        scaled = apply_scaler(fit_scaler(m), m)
        config = MLPTrainConfig(9, epochs=300)
        a = fit_mlp(scaled, config, seed=11)
        b = fit_mlp(scaled, config, seed=11)
        np.testing.assert_array_equal(a.w_hidden, b.w_hidden)
        np.testing.assert_array_equal(a.b_hidden, b.b_hidden)
        np.testing.assert_array_equal(a.w_out, b.w_out)
        assert a.b_out == b.b_out

    def test_hidden_size_bounds_enforced(self):
        with pytest.raises(FitError, match="hidden_size"):
            MLPTrainConfig(4)
        with pytest.raises(FitError, match="hidden_size"):
            MLPTrainConfig(31)

    @pytest.mark.parametrize("part,message", [
        ({"w_hidden": np.zeros(5)}, "shapes ((5,), (5,), (5,))"),
        ({"w_hidden": np.zeros((3, 4))}, "shapes ((3, 4), (5,), (5,))"),
        ({"b_hidden": np.zeros(4)}, "shapes ((3, 5), (4,), (5,))"),
        ({"w_out": np.zeros((5, 1))}, "shapes ((3, 5), (5,), (5, 1))"),
        ({"w_hidden": np.full((3, 5), np.nan)}, "not all finite"),
        ({"b_hidden": np.full(5, np.inf)}, "not all finite"),
        ({"b_out": np.nan}, "not all finite"),
        ({"seed": -1}, "got -1 and "),
        ({"epochs_run": -1}, "got 1 and -1"),
        # The width is w_hidden's; fits train 5 to 30 hidden units.
        ({"w_out": np.zeros(6)}, "shapes ((3, 5), (5,), (6,))"),
        *(({"w_hidden": np.zeros((3, h)), "b_hidden": np.zeros(h),
            "w_out": np.zeros(h)}, f"width must be in [5, 30], got {h}")
          for h in (4, 31))])
    def test_a_network_no_fit_gives_is_refused(self, rng, part, message):
        model = fit_mlp(random_matrix(rng, 20, 3), MLPTrainConfig(5, epochs=50),
                        seed=1)
        with pytest.raises(FitError, match=re.escape(message)):
            replace(model, **part)

    def test_predict_deterministic_and_batch_equals_loop(self, rng):
        m = random_matrix(rng, 30, 3)
        scaled = apply_scaler(fit_scaler(m), m)
        model = fit_mlp(scaled, MLPTrainConfig(6, epochs=200), seed=5)
        batch1 = predict(model, scaled)
        batch2 = predict(model, scaled)
        np.testing.assert_array_equal(batch1, batch2)
        loop = np.array([
            float(predict(model, scaled.take_rows([i]))[0])
            for i in range(scaled.n_samples)])
        np.testing.assert_allclose(batch1, loop, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        m = random_matrix(rng, 20, 3)
        model = fit_mlp(m, MLPTrainConfig(5, epochs=50), seed=1)
        with pytest.raises(DataError, match="features"):
            predict(model, random_matrix(rng, 4, 2))


class TestPredictDispatch:
    def test_linear_predicts_training_data(self, rng):
        values = rng.normal(size=(20, 2))
        target = values @ np.array([1.0, 2.0]) + 0.5
        m = FeatureMatrix(("a", "b"), values, target)
        resid = predict(fit_ols(m, 0.0), m) - target
        assert np.max(np.abs(resid)) < 1e-10
