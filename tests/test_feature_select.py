import numpy as np
import pytest

from teayield import feature_select, kernels
from teayield.dataset import FeatureMatrix
from teayield.errors import FitError
from teayield.evaluation import cross_validate, make_folds, metrics
from teayield.feature_select import (DECAY_SIGMA, neighbor_rank_weights,
                                     relief_weights_from_counts, rrelieff,
                                     sequential_forward_select)
from teayield.pipeline import fit_preprocess
from teayield.regressors import ridge_predictions

from conftest import bench_config, random_matrix


def brute_force_relief(m, k, rank_w):
    """Direct evaluation of the accumulation over every instance and its
    exact k nearest neighbors (ties to the lower index)."""
    values = m.values
    n, f = values.shape
    ranges = values.max(axis=0) - values.min(axis=0)
    xn = (values - values.min(axis=0)) / ranges
    y = m.target
    yn = (y - y.min()) / (y.max() - y.min())
    ndc = 0.0
    nda = np.zeros(f)
    ndcda = np.zeros(f)
    for i in range(n):
        dist = [(sum(abs(xn[i, a] - xn[j, a]) for a in range(f)), j)
                for j in range(n) if j != i]
        dist.sort()
        for r, (_, j) in enumerate(dist[:k]):
            w = rank_w[r]
            dy = abs(yn[i] - yn[j])
            ndc += w * dy
            for a in range(f):
                da = abs(xn[i, a] - xn[j, a])
                nda[a] += w * da
                ndcda[a] += w * da * dy
    hit = ndcda / ndc if ndc > 0 else np.zeros(f)
    rest = n - ndc
    miss = (nda - ndcda) / rest if rest > 0 else np.zeros(f)
    return hit - miss


def kernel_relief(m, k, rank_w):
    """The relief weights that ``kernels.relief_accumulate`` gives over every
    instance under the neighbor influences ``rank_w``, normalized as
    ``rrelieff`` normalizes its input."""
    values, y = m.values, m.target
    xn = (values - values.min(axis=0)) / np.ptp(values, axis=0)
    yn = (y - y.min()) / np.ptp(y)
    n = m.n_samples
    counts = kernels.relief_accumulate(xn, yn, np.arange(n), k, rank_w)
    return relief_weights_from_counts(*counts, n)


def planted_matrix(seed, n=200, noise_features=5):
    r = np.random.default_rng(seed)
    target = np.sort(r.normal(size=n))  # monotone target
    cols = [target.copy()]
    names = ["signal"]
    for i in range(noise_features):
        cols.append(r.normal(size=n))
        names.append(f"noise_{i}")
    return FeatureMatrix(tuple(names), np.column_stack(cols), target)


def with_copy(m, name, source):
    """``m`` with a copy of its column ``source`` appended as ``name``."""
    return FeatureMatrix(m.column_names + (name,),
                         np.column_stack([m.values, m.column(source)]),
                         m.target)


class TestRRelieff:
    def test_planted_relevant_feature_ranked_first(self):
        hits = 0
        for seed in range(20):
            m = planted_matrix(seed)
            ranked = rrelieff(m, k=10)
            hits += ranked.order[0] == 0
        assert hits >= 19

    def test_duplicated_feature_gets_equal_weight(self, rng):
        m = planted_matrix(3, n=60, noise_features=2)
        dup = with_copy(m, "signal_copy", "signal")
        ranked = rrelieff(dup, k=8)
        i = dup.col_index("signal")
        j = dup.col_index("signal_copy")
        assert ranked.weights[i] == pytest.approx(ranked.weights[j], abs=1e-12)

    def test_matches_brute_force_on_tiny_instances(self, rng):
        for seed in range(8):
            r = np.random.default_rng(seed)
            n = int(r.integers(6, 13))
            f = int(r.integers(2, 5))
            m = random_matrix(r, n, f, target_noise=0.5)
            k = n - 1
            for rank_w in (np.full(k, 1.0 / k), neighbor_rank_weights(k)):
                oracle = brute_force_relief(m, k, rank_w)
                np.testing.assert_allclose(kernel_relief(m, k, rank_w),
                                           oracle, atol=1e-10)
            np.testing.assert_array_equal(
                rrelieff(m, k=k).weights,
                kernel_relief(m, k, neighbor_rank_weights(k)))

    def test_matches_brute_force_with_ties_and_rank_decay(self):
        # Feature values on a 0..4 grid make the normalized values and their
        # distance sums exact, so many neighbors tie; with a steep rank decay
        # (sigma 2) both the tie-break and the neighbor order change the
        # weights.  ``rrelieff`` decays at DECAY_SIGMA, which is checked too.
        for seed in range(6):
            r = np.random.default_rng(seed)
            n, f, k = 40, 3, 7
            values = r.integers(0, 5, size=(n, f)).astype(float)
            values[:2] = [[0.0] * f, [4.0] * f]
            m = FeatureMatrix(tuple(f"x{i}" for i in range(f)), values,
                              r.normal(size=n))
            steep = np.exp(-(np.arange(1, k + 1) / 2.0) ** 2)
            steep /= steep.sum()
            np.testing.assert_allclose(kernel_relief(m, k, steep),
                                       brute_force_relief(m, k, steep),
                                       atol=1e-10)
            np.testing.assert_allclose(
                rrelieff(m, k=k).weights,
                brute_force_relief(m, k, neighbor_rank_weights(k)),
                atol=1e-10)

    def test_weights_within_unit_interval(self, rng):
        m = random_matrix(rng, 50, 6)
        ranked = rrelieff(m, k=7)
        assert np.all(ranked.weights >= -1.0)
        assert np.all(ranked.weights <= 1.0)

    def test_affine_rescaling_invariance(self, rng):
        m = random_matrix(rng, 40, 4)
        ranked = rrelieff(m, k=6)
        values = np.array(m.values)
        values[:, 1] = 7.5 * m.column("x1") - 3.0
        rescaled = FeatureMatrix(m.column_names, values, m.target)
        ranked2 = rrelieff(rescaled, k=6)
        np.testing.assert_allclose(ranked.weights, ranked2.weights, atol=1e-10)

    def test_argmax_stable_under_duplication(self):
        for seed in range(10):
            m = planted_matrix(seed, n=80, noise_features=3)
            top = m.column_names[rrelieff(m, k=8).order[0]]
            dup = with_copy(m, "extra_copy", top)
            top2 = dup.column_names[rrelieff(dup, k=8).order[0]]
            assert top2 == top

    def test_zero_range_feature_rejected(self, rng):
        m = FeatureMatrix(("a", "flat"),
                          np.column_stack([rng.normal(size=20), np.ones(20)]),
                          rng.normal(size=20))
        with pytest.raises(FitError, match="flat"):
            rrelieff(m, k=3)

    def test_zero_range_target_rejected(self, rng):
        m = FeatureMatrix(("a",), rng.normal(size=(20, 1)), np.ones(20))
        with pytest.raises(FitError, match="target"):
            rrelieff(m, k=3)

    def test_rank_csv(self, rng, tmp_path):
        m = random_matrix(rng, 30, 3)
        ranked = rrelieff(m, k=5)
        path = tmp_path / "rank.csv"
        ranked.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "feature,weight,rank"
        assert len(lines) == 4

    def test_neighbor_weights_sum_to_one(self):
        for k in (1, 10, 30):
            w = neighbor_rank_weights(k)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(w) < 0)
        raw = np.exp(-(np.arange(1, 11) / DECAY_SIGMA) ** 2)
        np.testing.assert_array_equal(neighbor_rank_weights(10),
                                      raw / raw.sum())


class TestSequentialForwardSelect:
    def test_single_sufficient_feature(self):
        m = planted_matrix(5)
        ranked = rrelieff(m, k=10)
        result = sequential_forward_select(m, ranked, folds=5, seed=0)
        assert result.selected == ("signal",)

    def test_identical_copies_collapse_to_one(self, rng):
        x = np.sort(rng.normal(size=80))
        values = np.column_stack([x, x, x])
        m = FeatureMatrix(("a", "b", "c"), values, x + 0.05 * rng.normal(size=80))
        ranked = rrelieff(m, k=8)
        result = sequential_forward_select(m, ranked, folds=5, seed=0)
        assert len(result.selected) == 1

    def test_trace_reproducible_by_rerunning_evaluator(self, rng):
        m = random_matrix(rng, 60, 4, target_noise=0.5)
        ranked = rrelieff(m, k=8)
        result = sequential_forward_select(m, ranked, folds=5, seed=3)
        plan = make_folds(m.n_samples, 5, 3)
        order = list(ranked.ordered_names())
        for size, rmse in result.trace:
            oof = cross_validate(
                m.subset(order[:size]),
                lambda train, test: ridge_predictions(
                    train, test, feature_select.SFS_RIDGE_LAMBDA),
                plan)
            assert metrics(m.target, oof).rmse == pytest.approx(rmse, abs=1e-12)

    def test_selected_nonempty_and_bounded(self, rng):
        for seed in range(5):
            m = random_matrix(np.random.default_rng(seed), 40, 5,
                              target_noise=1.0)
            ranked = rrelieff(m, k=6)
            result = sequential_forward_select(m, ranked, folds=4, seed=seed)
            assert 1 <= len(result.selected) <= 5
            assert result.selected == ranked.ordered_names()[:len(result.selected)]

    def test_trace_minimum_at_selected_size(self, rng):
        m = random_matrix(rng, 50, 5, target_noise=0.8)
        ranked = rrelieff(m, k=6)
        result = sequential_forward_select(m, ranked, folds=5, seed=2)
        rmses = [r for _, r in result.trace]
        assert min(rmses) == rmses[len(result.selected) - 1]

    def test_evaluator_failure_names_prefix(self, rng, monkeypatch):
        m = random_matrix(rng, 30, 3)
        ranked = rrelieff(m, k=5)

        def broken(train, test, ridge_lambda):
            raise FitError("boom")

        monkeypatch.setattr(feature_select, "ridge_predictions", broken)
        with pytest.raises(FitError, match="prefix of size 1"):
            sequential_forward_select(m, ranked, folds=4, seed=0)


def test_duplicated_copy_never_co_selected():
    """An exact or affine copy of a column ranked before it leaves the
    order before any prefix is scored, so the search never selects both,
    and every prefix it scores holds one of them at most: three distinct
    columns give three prefixes at most.  The search standardizes each
    column, so ``2 * signal``, ``signal + 1`` and ``signal * (1 + 1e-15)``
    add to it no more than ``signal`` itself does."""
    copies = (lambda s: s, lambda s: 2.0 * s, lambda s: s + 1.0,
              lambda s: s * (1.0 + 1e-15))
    for seed in range(20):
        for copy in copies:
            r = np.random.default_rng(seed)
            n = 150
            signal = np.sort(r.normal(size=n))
            values = np.column_stack([signal, copy(signal),
                                      r.normal(size=n), r.normal(size=n)])
            m = FeatureMatrix(("signal", "copy", "n1", "n2"), values,
                              signal + 0.1 * r.normal(size=n))
            result = sequential_forward_select(m, rrelieff(m, k=10),
                                               folds=5, seed=seed)
            assert not {"signal", "copy"} <= set(result.selected)
            assert len(result.trace) <= 3


def test_a_copy_of_rainfall_is_not_selected_with_it(canonical_raw):
    """The 120-row canonical set with ``dup``, a copy of ``rainfall`` or an
    affine map of it, appended, at the bench config: RReliefF ranks the two
    next to each other, either first, since a map can move the relief
    weight in its last bits.  The search used to select the first eight
    ranked names, both included.  It selects those names less the second of
    the two now, ``avg_temp`` among them, and no two prefixes score
    alike."""
    for change in (lambda x: x, lambda x: 2.0 * x, lambda x: x + 1.0,
                   lambda x: x * (1.0 + 1e-15)):
        values = with_copy(canonical_raw, "dup", "rainfall").values.copy()
        values[:, -1] = change(values[:, -1])
        m = FeatureMatrix(canonical_raw.column_names + ("dup",), values,
                          canonical_raw.target)
        _, _, artifacts = fit_preprocess(m, bench_config())
        order = artifacts.ranked.ordered_names()
        first, second = sorted(("rainfall", "dup"), key=order.index)
        assert order.index(second) == order.index(first) + 1
        assert artifacts.selection.selected == tuple(
            name for name in order[:8] if name != second)
        assert "avg_temp" in artifacts.selection.selected
        rmses = [rmse for _, rmse in artifacts.selection.trace]
        assert len(set(rmses)) == len(rmses)
