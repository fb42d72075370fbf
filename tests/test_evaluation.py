import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.dataset import FeatureMatrix
from teayield.errors import DataError
from teayield.evaluation import (cross_validate, forward_select, holdout_split,
                                 make_folds, metrics)
from teayield.regressors import ols_predictions

from conftest import random_matrix


class TestMetrics:
    def test_perfect_prediction(self, rng):
        y = rng.normal(size=20)
        rep = metrics(y, y)
        assert rep.mae == 0.0 and rep.mse == 0.0 and rep.rmse == 0.0
        assert rep.r2 == 1.0

    def test_mean_predictor_has_zero_r2(self, rng):
        y = rng.normal(size=30)
        rep = metrics(y, np.full(30, y.mean()))
        assert rep.r2 == pytest.approx(0.0, abs=1e-12)

    def test_rmse_is_root_of_mse(self, rng):
        for _ in range(25):
            y = rng.normal(size=15)
            p = rng.normal(size=15)
            rep = metrics(y, p)
            assert rep.rmse == pytest.approx(math.sqrt(rep.mse), abs=1e-12)

    def test_constant_truth_leaves_r2_undefined(self):
        rep = metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert rep.r2 is None
        assert rep.mae == pytest.approx(2.0 / 3.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mae_never_exceeds_rmse(self, seed):
        r = np.random.default_rng(seed)
        rep = metrics(r.normal(size=10), r.normal(size=10))
        assert rep.mae <= rep.rmse + 1e-12

    @given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_r2_invariant_under_joint_affine_map(self, a, b):
        r = np.random.default_rng(7)
        y = r.normal(size=25)
        p = y + 0.3 * r.normal(size=25)
        assert metrics(a * y + b, a * p + b).r2 == pytest.approx(
            metrics(y, p).r2, abs=1e-9)


class TestMakeFolds:
    def test_leave_one_out(self):
        plan = make_folds(10, 10, 0)
        sizes = np.bincount(plan.assignment, minlength=10)
        np.testing.assert_array_equal(sizes, np.ones(10))

    def test_remainder_fold_sizes(self):
        plan = make_folds(11, 10, 0)
        sizes = np.bincount(plan.assignment, minlength=10)
        assert sorted(sizes) == [1] * 9 + [2]

    def test_deterministic(self):
        np.testing.assert_array_equal(make_folds(30, 5, 4).assignment,
                                      make_folds(30, 5, 4).assignment)

    def test_partition_property(self):
        for seed in range(5):
            plan = make_folds(23, 4, seed)
            assert plan.assignment.shape == (23,)
            assert set(plan.assignment) == {0, 1, 2, 3}
            sizes = np.bincount(plan.assignment)
            assert sizes.max() - sizes.min() <= 1

    def test_bad_k(self):
        with pytest.raises(DataError):
            make_folds(5, 6, 0)
        with pytest.raises(DataError):
            make_folds(5, 1, 0)


class TestCrossValidate:
    def test_noiseless_linear_data_scores_zero(self, rng):
        values = rng.normal(size=(40, 3))
        m = FeatureMatrix(("a", "b", "c"), values,
                          values @ np.array([1.0, -2.0, 0.5]) + 4.0)
        oof = cross_validate(m, ols_predictions, make_folds(40, 5, 0))
        assert metrics(m.target, oof).rmse < 1e-8

    def test_mean_predictor_r2_not_positive(self, rng):
        m = random_matrix(rng, 50, 2, target_noise=0.2)

        def mean_predictions(train, test):
            return np.full(test.n_samples, float(train.target.mean()))

        oof = cross_validate(m, mean_predictions, make_folds(50, 5, 1))
        assert metrics(m.target, oof).r2 <= 0.0

    def test_pooled_rmse_matches_manual_concatenation(self, rng):
        m = random_matrix(rng, 30, 2, target_noise=0.5)
        plan = make_folds(30, 5, 2)
        oof = cross_validate(m, ols_predictions, plan)
        manual = np.empty(30)
        for fold in range(5):
            train_rows, eval_rows = plan.fold_indices(fold)
            manual[eval_rows] = ols_predictions(m.take_rows(train_rows),
                                                m.take_rows(eval_rows))
        expected = math.sqrt(float(np.mean((manual - m.target) ** 2)))
        assert metrics(m.target, oof).rmse == pytest.approx(expected, abs=1e-12)

    def test_no_sample_in_both_sides_and_scalers_differ(self, rng):
        m = random_matrix(rng, 40, 2)
        plan = make_folds(40, 4, 3)
        seen = []

        def mean_predictions(train, test):
            seen.append(train.values.mean(axis=0))
            return np.full(test.n_samples, float(train.target.mean()))

        cross_validate(m, mean_predictions, plan)
        for fold in range(4):
            train_rows, eval_rows = plan.fold_indices(fold)
            assert len(set(train_rows) & set(eval_rows)) == 0
        means = np.array(seen)
        assert np.ptp(means, axis=0).max() > 0.0

    def test_fold_error_names_fold(self, rng):
        m = random_matrix(rng, 12, 2)

        def broken(train, test):
            raise DataError("nope")

        with pytest.raises(DataError, match="fold 0"):
            cross_validate(m, broken, make_folds(12, 3, 0))


class TestHoldoutSplit:
    def test_paper_counts(self, rng):
        m = random_matrix(rng, 141, 2)
        train, test = holdout_split(m, 0.2, seed=0)
        assert test.n_samples == 28
        assert train.n_samples == 113

    def test_small_split(self, rng):
        train, test = holdout_split(random_matrix(rng, 10, 2), 0.2, seed=1)
        assert (train.n_samples, test.n_samples) == (8, 2)

    def test_partition(self, rng):
        m = random_matrix(rng, 25, 2)
        train, test = holdout_split(m, 0.3, seed=5)
        joined = np.concatenate([train.target, test.target])
        assert sorted(joined) == sorted(m.target)
        assert train.n_samples + test.n_samples == 25

    def test_pure_function_of_inputs(self, rng):
        m = random_matrix(rng, 30, 2)
        a = holdout_split(m, 0.25, seed=9)
        b = holdout_split(m, 0.25, seed=9)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1].values, b[1].values)


class TestForwardSelect:
    SCORES = (3.0, 2.0, 2.0, 1.0, 5.0, 5.0, 0.5)

    @pytest.mark.parametrize("patience, best, scored", [
        (1, 2, 3), (2, 4, 6), (3, 7, 7), (10, 7, 7)])
    def test_keeps_strict_improvements_and_stops_after_patience_misses(
            self, patience, best, scored):
        calls = []

        def score(size):
            calls.append(size)
            return self.SCORES[size - 1]

        size, trace = forward_select(len(self.SCORES), score, patience)
        assert size == best
        assert calls == list(range(1, scored + 1))
        assert trace == tuple((s, self.SCORES[s - 1]) for s in calls)
