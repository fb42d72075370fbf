import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.dataset import FeatureMatrix
from teayield.errors import DataError, FitError
from teayield.preprocess import (OutlierReport, PreprocessState, apply_scaler,
                                 cooks_distance, fit_scaler,
                                 independent_columns, log_transform,
                                 remove_outliers)

from conftest import random_matrix


class TestScaler:
    def test_symmetric_triple(self):
        m = FeatureMatrix(("a",), [[1.0], [2.0], [3.0]], [0.0, 0.0, 1.0])
        s = fit_scaler(m, ("a",))
        assert s.means[0] == 2.0
        assert s.stds[0] == 1.0

    def test_constant_column_rejected(self):
        m = FeatureMatrix(("a",), [[5.0], [5.0], [5.0]], [0.0, 1.0, 2.0])
        with pytest.raises(FitError, match="'a'"):
            fit_scaler(m, ("a",))

    def test_matches_two_pass_computation(self, rng):
        col = rng.normal(3.0, 2.5, size=80)
        m = FeatureMatrix(("a",), col.reshape(-1, 1), rng.normal(size=80))
        s = fit_scaler(m, ("a",))
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
        assert s.means[0] == pytest.approx(mean, rel=1e-12)
        assert s.stds[0] == pytest.approx(var ** 0.5, rel=1e-12)

    def test_apply_to_own_fit_data_standardizes(self, rng):
        m = random_matrix(rng, 40, 3)
        scaled = apply_scaler(fit_scaler(m), m)
        for name in m.column_names:
            col = scaled.column(name)
            assert abs(col.mean()) < 1e-12
            assert col.std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_mean_maps_to_zero(self):
        m = FeatureMatrix(("a",), [[1.0], [3.0]], [0.0, 1.0])
        s = fit_scaler(m, ("a",))
        scaled = apply_scaler(s, FeatureMatrix(("a",), [[2.0]], [0.0]))
        assert scaled.column("a")[0] == 0.0

    def test_disjoint_apply_matches_manual(self, rng):
        train = random_matrix(rng, 30, 2)
        other = random_matrix(rng, 10, 2)
        s = fit_scaler(train)
        scaled = apply_scaler(s, other)
        for i, name in enumerate(other.column_names):
            manual = (other.column(name) - s.means[i]) / s.stds[i]
            np.testing.assert_array_equal(scaled.column(name), manual)

    def test_target_untouched(self, rng):
        m = random_matrix(rng, 20, 2)
        scaled = apply_scaler(fit_scaler(m), m)
        np.testing.assert_array_equal(scaled.target, m.target)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invert_is_identity(self, seed):
        m = random_matrix(np.random.default_rng(seed), 15, 3)
        s = fit_scaler(m)
        back = apply_scaler(s, m).values * s.stds + s.means
        np.testing.assert_allclose(back, m.values, atol=1e-12)

    def test_unknown_column(self, rng):
        m = random_matrix(rng, 10, 2)
        with pytest.raises(DataError, match="nope"):
            fit_scaler(m, ("nope",))


class TestLogTransform:
    def test_log_of_one_is_zero(self):
        m = FeatureMatrix(("a",), [[1.0]], [2.0])
        assert log_transform(m, ("a",)).column("a")[0] == 0.0

    def test_zero_value_names_row_and_column(self):
        m = FeatureMatrix(("a",), [[2.0], [0.0]], [1.0, 1.0])
        with pytest.raises(DataError, match=r"row 1.*'a'"):
            log_transform(m, ("a",))

    def test_reduces_skewness_of_lognormal_column(self, rng):
        col = np.exp(rng.normal(0.0, 1.0, size=500))
        m = FeatureMatrix(("a",), col.reshape(-1, 1), rng.normal(size=500))

        def skew(x):
            c = x - x.mean()
            return np.mean(c ** 3) / np.mean(c ** 2) ** 1.5

        out = log_transform(m, ("a",))
        assert abs(skew(out.column("a"))) < abs(skew(col))

    def test_the_target_is_logged_by_the_chain_alone(self, rng):
        y = np.exp(rng.normal(size=30))
        m = FeatureMatrix(("a",), rng.normal(size=(30, 1)), y)
        with pytest.raises(DataError, match="target 'yield'"):
            log_transform(m, (m.target_name,))
        chain = PreprocessState(
            stage_order=(), selected_features=m.column_names, scaler=None,
            log_features=(), log_target=True, target_center=0.0,
            target_scale=1.0)
        np.testing.assert_array_equal(chain.transform_target(y), np.log(y))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_strictly_monotone(self, seed):
        r = np.random.default_rng(seed)
        col = r.uniform(0.1, 50.0, size=20)
        m = FeatureMatrix(("a",), col.reshape(-1, 1), r.normal(size=20))
        out = log_transform(m, ("a",)).column("a")
        assert np.array_equal(np.argsort(col, kind="stable"),
                              np.argsort(out, kind="stable"))


def loo_cooks(m):
    """Leave-one-out oracle: D_i = sum_j (yhat_j - yhat_j(i))^2 / (p s^2)."""
    n = m.n_samples
    X = np.column_stack([np.ones(n), m.values])
    p = X.shape[1]
    beta = np.linalg.lstsq(X, m.target, rcond=None)[0]
    yhat = X @ beta
    s2 = float((m.target - yhat) @ (m.target - yhat)) / (n - p)
    out = np.empty(n)
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        beta_i = np.linalg.lstsq(X[keep], m.target[keep], rcond=None)[0]
        diff = yhat - X @ beta_i
        out[i] = float(diff @ diff) / (p * s2)
    return out


class TestCooksDistance:
    def test_exact_linear_data_has_zero_distances(self, rng):
        values = rng.normal(size=(20, 2))
        target = values @ np.array([2.0, -1.0]) + 3.0
        m = FeatureMatrix(("a", "b"), values, target)
        rep = cooks_distance(m)
        assert np.all(rep.distances < 1e-10)
        assert rep.flagged == ()

    def test_planted_gross_outlier_is_flagged(self, rng):
        n = 120
        values = rng.normal(size=(n, 3))
        target = values @ np.array([1.0, 2.0, -1.5]) + 0.3 * rng.normal(size=n)
        # one gross outlier at a high-leverage point
        values[17] = [4.0, -4.0, 4.0]
        target[17] += 25.0
        m = FeatureMatrix(("a", "b", "c"), values, target)
        rep = cooks_distance(m, threshold=0.5)
        assert int(np.argmax(rep.distances)) == 17
        assert 17 in rep.flagged

    def test_matches_leave_one_out_refit(self, rng):
        for _ in range(10):
            n = int(rng.integers(8, 16))
            f = int(rng.integers(1, 5))
            m = random_matrix(rng, n, f, target_noise=0.5)
            rep = cooks_distance(m)
            np.testing.assert_allclose(rep.distances, loo_cooks(m), atol=1e-8)

    def test_hat_diagonal_properties(self, rng):
        m = random_matrix(rng, 30, 4)
        rep = cooks_distance(m)
        assert np.all(rep.leverages >= -1e-10)
        assert np.all(rep.leverages <= 1.0 + 1e-10)
        assert rep.leverages.sum() == pytest.approx(5.0, abs=1e-10)

    def test_invariant_under_feature_rescaling(self, rng):
        m = random_matrix(rng, 25, 3, target_noise=0.3)
        scaled = apply_scaler(fit_scaler(m), m)
        np.testing.assert_allclose(cooks_distance(m).distances,
                                   cooks_distance(scaled).distances, atol=1e-8)

    def test_too_few_samples(self, rng):
        m = random_matrix(rng, 4, 4)
        with pytest.raises(FitError, match="samples"):
            cooks_distance(m)

    def test_rank_deficient_design(self, rng):
        x = rng.normal(size=20)
        m = FeatureMatrix(("a", "b"), np.column_stack([x, 2 * x]),
                          rng.normal(size=20))
        with pytest.raises(FitError, match="rank-deficient"):
            cooks_distance(m)

    def test_report_csv_format(self, rng, tmp_path):
        rep = cooks_distance(random_matrix(rng, 12, 2))
        path = tmp_path / "out.csv"
        rep.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index,cooks_distance,flagged"
        assert len(lines) == 13


class TestRemoveOutliers:
    def test_empty_flagged_is_identity(self, rng):
        m = random_matrix(rng, 10, 2)
        rep = OutlierReport(np.zeros(10), (), 0.5, np.zeros(10))
        out = remove_outliers(m, rep)
        np.testing.assert_array_equal(out.values, m.values)

    def test_single_removal_shifts_rows(self, rng):
        m = random_matrix(rng, 5, 2)
        rep = OutlierReport(np.zeros(5), (0,), 0.5, np.zeros(5))
        out = remove_outliers(m, rep)
        assert out.n_samples == 4
        np.testing.assert_array_equal(out.values[0], m.values[1])

    def test_never_removes_more_than_flagged(self, rng):
        m = random_matrix(rng, 12, 2)
        rep = OutlierReport(np.zeros(12), (3, 7), 0.5, np.zeros(12))
        assert remove_outliers(m, rep).n_samples == 10

    def test_report_from_other_matrix_rejected(self, rng):
        m = random_matrix(rng, 10, 2)
        rep = OutlierReport(np.zeros(8), (1,), 0.5, np.zeros(8))
        with pytest.raises(DataError, match="not produced"):
            remove_outliers(m, rep)


class TestIndependentColumns:
    def test_drops_exact_linear_combination(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        m = FeatureMatrix(("a", "b", "avg"),
                          np.column_stack([a, b, (a + b) / 2.0]),
                          rng.normal(size=30))
        assert independent_columns(m) == ("a", "b")

    def test_keeps_independent_set(self, rng):
        m = random_matrix(rng, 30, 4)
        assert independent_columns(m) == m.column_names
