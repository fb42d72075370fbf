import csv
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from teayield import ensemble, pipeline
from teayield.config import PipelineConfig
from teayield.dataset import FeatureMatrix, SyntheticSpec, generate_synthetic
from teayield.ensemble import (SCORE_BLOCK, BaseLearner, EnsembleConfig,
                               EnsembleModel, PoolReport,
                               check_out_of_bag, compute_weights,
                               predict_ensemble, rank_learners,
                               resolve_weight_params, select_learners,
                               train_pool)
from teayield.errors import DataError
from teayield.feature_select import RankedFeatures
from teayield.pipeline import train_ensemble_pipeline
from teayield.preprocess import PreprocessState
from teayield.regressors import MLPModel, MLPTrainConfig, predict, predict_mlp

from conftest import bench_config, block_sizes, random_matrix, tiny_config

# The ranking's neighbour count, as ``PipelineConfig`` holds it.
RELIEF_K = PipelineConfig().relieff_k
FAST_MLP = MLPTrainConfig(hidden_size=5, epochs=150, early_stop_fraction=0.15,
                          patience=30)


def fast_config(pool_size=6, **kw):
    return EnsembleConfig(pool_size=pool_size, mlp=FAST_MLP, **kw)


def rank(preds, m):
    """The learners whose predictions of the rows of ``m`` are the rows of
    ``preds``, the matrix ``train_pool`` returns, ranked as the pipeline
    ranks them."""
    return rank_learners(preds, m.target, RELIEF_K)


def select(pool, preds, out_of_bag, ranking, m, cfg):
    """The learners of ``pool`` selected on the rows of ``m``, which they
    predict as the rows of ``preds`` say and left out where the rows of
    ``out_of_bag`` are True, as the pipeline selects them."""
    return select_learners(pool, ranking, preds, out_of_bag, m.target, cfg)


@pytest.fixture()
def small_matrix(rng):
    m = random_matrix(rng, 50, 3, target_noise=0.3)
    std = (m.target - m.target.mean()) / m.target.std(ddof=1)
    return m.with_target(std)


def with_steepness(eps: np.ndarray, b: float) -> np.ndarray:
    """``eps`` rescaled so that ``resolve_weight_params`` gives a steepness
    of about ``b``: b = ln 9 / IQR, and the IQR scales with the errors."""
    iqr = float(np.percentile(eps, 75) - np.percentile(eps, 25))
    return eps * (math.log(9.0) / iqr / b)


class TestComputeWeights:
    def test_midpoint_symmetry(self):
        w = compute_weights([0.3, 0.3])
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_a_huge_error_gets_zero_weight_without_a_warning(self):
        """Four equal errors leave no IQR, so the steepness is ln 9 / 1e-12.
        A fifth error of 1e308 makes the logistic's exponent inf, and one of
        1.0 makes it too large for ``math.exp``: either weight is 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for huge in (1e308, 1.0):
                w = compute_weights([0.0, 0.0, 0.0, 0.0, huge])
                assert w.tolist() == [0.25, 0.25, 0.25, 0.25, 0.0]

    def test_hand_derived_example(self):
        """Two errors: c = 0.15 and the quartiles 0.125 and 0.175, so
        b * (eps - c) = -+ln 9, and the raw weights are 0.9 and 0.1."""
        w = compute_weights([0.1, 0.2])
        np.testing.assert_allclose(w, [0.9, 0.1], rtol=1e-12)

    def test_strictly_monotone_decreasing_in_error(self, rng):
        eps = np.sort(rng.uniform(0.0, 2.0, size=12))
        eps = np.unique(eps)
        w = compute_weights(eps)
        assert np.all(np.diff(w) < 0)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            eps = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 30)))
            w = compute_weights(eps)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0)

    def test_permutation_equivariance(self, rng):
        eps = rng.uniform(0.0, 1.0, size=8)
        perm = rng.permutation(8)
        w = compute_weights(eps)
        w_perm = compute_weights(eps[perm])
        np.testing.assert_allclose(w[perm], w_perm, atol=1e-15)

    def test_rejects_negative_errors(self):
        with pytest.raises(DataError, match="finite"):
            compute_weights([-0.1, 0.2])

    @pytest.mark.parametrize("b", [1e-9, 1e-4, 0.5, 3.0, 100.0, 1e6, 1e12])
    def test_bit_identical_to_scipy_expit(self, rng, b):
        """The weights equal ``expit(-b * (eps - c))``, normalized, bit for
        bit, under the b and c that ``resolve_weight_params`` gives, on
        errors scaled to a steepness near ``b``.  The errors are log-normal,
        some with tails far beyond the IQR, so raw weights that underflow
        or whose exponent overflows are included."""
        zeros = 0
        for _ in range(40):
            eps = with_steepness(np.exp(rng.normal(
                0.0, rng.uniform(0.1, 6.0), size=int(rng.integers(2, 101)))),
                b)
            steep, c = resolve_weight_params(eps)
            assert steep == pytest.approx(b, rel=1e-9)
            raw = expit(-steep * (eps - c))
            want = raw / raw.sum()
            assert compute_weights(eps).tobytes() == want.tobytes()
            zeros += int((raw == 0.0).sum())
        assert zeros > 0


class TestResolveWeightParams:
    def test_bit_identical_to_numpy_percentile_and_median(self, rng):
        """b = ln 9 / IQR and c = the median, with the quartiles of
        ``np.percentile`` and the median of ``np.median``, bit for bit, on
        1 to 119 errors, half of the vectors rounded so that they hold
        ties."""
        for _ in range(2000):
            eps = rng.exponential(10.0 ** rng.uniform(-3, 1),
                                  size=int(rng.integers(1, 120)))
            if rng.random() < 0.5:
                eps = np.round(eps, int(rng.integers(0, 3)))
            iqr = float(np.percentile(eps, 75) - np.percentile(eps, 25))
            want = (math.log(9.0) / max(iqr, 1e-12), float(np.median(eps)))
            got = resolve_weight_params(eps)
            assert [x.hex() for x in got] == [x.hex() for x in want], eps

    def test_hand_derived_example(self):
        """Quartile positions 0.75 and 2.25 of four sorted errors."""
        b, c = resolve_weight_params([0.4, 0.1, 0.3, 0.2])
        assert c == 0.25
        assert b == pytest.approx(math.log(9.0) / 0.15, rel=1e-12)


class TestTrainPool:
    def test_degenerate_pool_of_one_full_fraction(self, small_matrix,
                                                  monkeypatch):
        """A subsample of every row leaves none out to take an error on, so
        the pool is refused before its first fit."""
        fits = []
        monkeypatch.setattr(ensemble, "fit_mlp", lambda *args: fits.append(1))
        with pytest.raises(DataError) as info:
            train_pool(small_matrix, fast_config(
                pool_size=1, subsample_fraction=1.0), seed=0)
        assert str(info.value) == (
            "[ensemble] subsample_fraction = 1.0 leaves no row out of bag to "
            "select learners, got 50 rows")
        assert fits == []

    def test_deterministic(self, small_matrix):
        cfg = fast_config()
        (a, a_preds, a_out), (b, b_preds, b_out) = (
            train_pool(small_matrix, cfg, seed=5) for _ in range(2))
        assert a_preds.tobytes() == b_preds.tobytes()
        np.testing.assert_array_equal(a_out, b_out)
        for la, lb in zip(a, b):
            assert la.model.seed == lb.model.seed
            assert la.model.hidden_size == lb.model.hidden_size
            assert la.error == lb.error
            np.testing.assert_array_equal(la.model.w_hidden, lb.model.w_hidden)

    def test_hidden_sizes_cover_range(self, small_matrix):
        pool, _, _ = train_pool(small_matrix, fast_config(pool_size=100),
                                seed=1)
        distinct = {bl.model.hidden_size for bl in pool}
        assert len(distinct) >= 15
        assert all(5 <= h <= 30 for h in distinct)

    def test_subsample_sizes(self, small_matrix):
        _, _, out_of_bag = train_pool(
            small_matrix, fast_config(subsample_fraction=0.8), seed=2)
        expected = math.ceil(0.8 * small_matrix.n_samples)
        assert (~out_of_bag).sum(axis=1).tolist() == [expected] * 6

    def test_oof_errors_use_unseen_rows(self, small_matrix, monkeypatch):
        """Row i of the mask matrix is False exactly on the rows member i
        trained on; its error is, bit for bit, the MSE that ``predict``
        gives on the rows it left out; and row i of the prediction matrix is
        its predictions of every row."""
        real_fit, trained = ensemble.fit_mlp, []

        def fitting(m, *args):
            trained.append(m.values)
            return real_fit(m, *args)

        monkeypatch.setattr(ensemble, "fit_mlp", fitting)
        for fraction in (0.7, 0.9):
            trained.clear()
            pool, preds, out_of_bag = train_pool(small_matrix, fast_config(
                subsample_fraction=fraction), seed=3)
            for bl, scored, out, values in zip(pool, preds, out_of_bag,
                                               trained, strict=True):
                # the rows of small_matrix are distinct
                np.testing.assert_array_equal(
                    small_matrix.values[~out], values)
                assert (scored.tobytes()
                        == predict(bl.model, small_matrix).tobytes())
                sub = small_matrix.take_rows(np.flatnonzero(out))
                resid = predict(bl.model, sub) - sub.target
                assert bl.error == float((resid * resid).mean())


class TestRankLearners:
    def test_perfect_learner_ranked_first(self, small_matrix):
        _, preds, _ = train_pool(small_matrix, fast_config(pool_size=4),
                                 seed=0)
        # a fifth learner whose predictions equal the target exactly
        ranking = rank(np.vstack([preds, small_matrix.target]), small_matrix)
        assert ranking.order[0] == len(preds)

    def test_identical_learners_get_equal_weights(self, small_matrix):
        _, preds, _ = train_pool(small_matrix, fast_config(pool_size=1),
                                 seed=4)
        ranking = rank(np.repeat(preds, 2, axis=0), small_matrix)
        assert ranking.weights[0] == pytest.approx(ranking.weights[1],
                                                   abs=1e-12)

    def test_pool_of_one(self, small_matrix):
        _, preds, _ = train_pool(small_matrix, fast_config(pool_size=1),
                                 seed=5)
        ranking = rank(preds, small_matrix)
        np.testing.assert_array_equal(ranking.order, [0])

    def test_constant_learner_demoted_to_bottom(self, small_matrix):
        _, preds, _ = train_pool(small_matrix, fast_config(pool_size=3),
                                 seed=6)
        # learner 0 predicts 0 for every row
        flat = np.zeros((1, small_matrix.n_samples))
        ranking = rank(np.vstack([flat, preds]), small_matrix)
        assert ranking.order[-1] == 0
        assert ranking.weights[0] == -np.inf
        assert ranking.ordered_names()[-1] == "learner_000"
        assert ranking.feature_names == (
            "learner_000", "learner_001", "learner_002", "learner_003")


class _ConstantModel:
    """Stand-in network that holds a stub member's predictions."""

    def __init__(self, out):
        self.out = np.asarray(out, dtype=np.float64)


def stub_learner(predictions, error):
    """A pool member that predicts ``predictions``, with the error
    ``error``."""
    return BaseLearner(_ConstantModel(predictions), error)


def stub_predictions(pool):
    """The prediction matrix of stub members, as ``train_pool`` returns
    one for the members it fits."""
    return np.vstack([bl.model.out for bl in pool])


def stub_out_of_bag(outs, n):
    """The mask matrix of members that left out the rows of each of
    ``outs`` of ``n`` rows, as ``train_pool`` returns one."""
    out_of_bag = np.zeros((len(outs), n), dtype=bool)
    for row, rows in zip(out_of_bag, outs):
        row[list(rows)] = True
    return out_of_bag


def ranked_by(weights):
    """The learners of a pool ranked by ``weights``, one per member."""
    return RankedFeatures(tuple(f"learner_{i:03d}" for i in
                                range(len(weights))),
                          np.asarray(weights, dtype=np.float64))


def ranked_as_given(pool):
    """A ranking that orders ``pool`` as it is."""
    return ranked_by(np.arange(len(pool), 0, -1))


class TestSelectLearners:
    CFG = fast_config(subsample_fraction=0.5, patience=5)

    def test_a_prefix_predicts_a_row_from_the_members_that_left_it_out(self):
        """Four rows; A leaves out rows 0 and 1, B rows 2 and 3, C rows 1
        and 2.  The first prefix to leave every row out is (A, B)."""
        target = np.array([1.0, -2.0, 0.5, 3.0])
        m = FeatureMatrix(("x",), np.zeros((4, 1)), target)
        preds = {"A": [1.5, -1.0, 9.0, 9.0], "B": [9.0, 9.0, 0.0, 2.0],
                 "C": [9.0, -3.0, 1.5, 9.0]}
        out = {"A": (0, 1), "B": (2, 3), "C": (1, 2)}
        errors = {"A": 0.1, "B": 0.3, "C": 0.2}
        pool = [stub_learner(preds[k], errors[k]) for k in "ABC"]
        sel = select(pool, stub_predictions(pool),
                     stub_out_of_bag([out[k] for k in "ABC"], 4),
                     ranked_as_given(pool), m, self.CFG)

        def by_hand(names):
            eps = [errors[k] for k in names]
            w = dict(zip(names, compute_weights(eps)))
            sq = 0.0
            for row in range(4):
                left_out = [k for k in names if row in out[k]]
                pred = (sum(w[k] * preds[k][row] for k in left_out)
                        / sum(w[k] for k in left_out))
                sq += (pred - target[row]) ** 2
            return math.sqrt(sq / 4)

        assert [size for size, _ in sel.trace] == [2, 3]
        assert sel.trace[0][1] == pytest.approx(by_hand("AB"), rel=1e-12)
        assert sel.trace[1][1] == pytest.approx(by_hand("ABC"), rel=1e-12)
        # (A, B) scores each row from one member: rows 0 and 1 from A and
        # rows 2 and 3 from B.
        assert sel.trace[0][1] == pytest.approx(
            math.sqrt((0.25 + 1.0 + 0.25 + 1.0) / 4), rel=1e-12)

    def test_the_walk_starts_at_the_first_prefix_to_leave_every_row_out(self):
        n = 6
        m = FeatureMatrix(("x",), np.zeros((n, 1)), np.zeros(n))
        rng = np.random.default_rng(3)
        # Ranked first to last, the members leave out rows 0-1, 0-1 again,
        # 2-3, 4-5 and 1-2, so every row is out of bag from the fourth on.
        outs = [(0, 1), (0, 1), (2, 3), (4, 5), (1, 2)]
        pool = [stub_learner(rng.normal(size=n), 0.1 * (i + 1))
                for i in range(len(outs))]
        sel = select(pool, stub_predictions(pool), stub_out_of_bag(outs, n),
                     ranked_as_given(pool), m, self.CFG)
        assert [size for size, _ in sel.trace] == [4, 5]
        best = min(sel.trace, key=lambda t: t[1])[0]
        assert sel.selected_positions == tuple(range(best))

    def test_the_whole_pool_is_kept_when_no_prefix_leaves_every_row_out(self):
        """Row 3 is in every member's subsample, so no prefix is scored."""
        n = 4
        m = FeatureMatrix(("x",), np.zeros((n, 1)), np.zeros(n))
        outs = [(0,), (1, 2), (0, 2)]
        pool = [stub_learner(np.ones(n), 0.1) for _ in outs]
        sel = select(pool, stub_predictions(pool), stub_out_of_bag(outs, n),
                     ranked_by([0.1, 0.3, 0.2]), m, self.CFG)
        assert sel.selected_positions == (1, 2, 0)
        assert sel.trace == ()

    def test_selection_fits_no_network(self, small_matrix, monkeypatch):
        """Selection reads the pool's predictions: it refits no network and
        asks no member for a prediction."""
        pool, preds, out_of_bag = train_pool(small_matrix, fast_config(
            pool_size=8, subsample_fraction=0.5), seed=4)
        ranking = rank(preds, small_matrix)
        calls = []
        monkeypatch.setattr(ensemble, "fit_mlp",
                            lambda *args: calls.append("fit"))
        monkeypatch.setattr(ensemble, "predict",
                            lambda *args: calls.append("predict"))
        sel = select(pool, preds, out_of_bag, ranking, small_matrix,
                     replace(self.CFG, patience=3))
        assert sel.trace
        assert calls == []

    def test_training_predicts_each_member_once(self, monkeypatch):
        """The members' errors, ranking and selection share one prediction
        matrix, so each member predicts every row of the pool's matrix
        once."""
        cfg = tiny_config()
        raw = generate_synthetic(120, 42, SyntheticSpec.canonical())
        pooled, predicted = [], []
        real_pool, real_predict = pipeline.train_pool, ensemble.predict

        def pooling(m, *args):
            pooled.append(m.n_samples)
            return real_pool(m, *args)

        def counting(model, m):
            predicted.append(m.n_samples)
            return real_predict(model, m)

        monkeypatch.setattr(pipeline, "train_pool", pooling)
        monkeypatch.setattr(ensemble, "predict", counting)
        train_ensemble_pipeline(raw, cfg)
        assert predicted == pooled * cfg.ensemble.pool_size

    @pytest.mark.parametrize("fraction,n", [(1.0, 50), (0.9, 9)])
    def test_a_subsample_of_every_row_is_refused(self, fraction, n):
        with pytest.raises(DataError) as info:
            check_out_of_bag(fast_config(subsample_fraction=fraction), n)
        assert str(info.value) == (
            f"[ensemble] subsample_fraction = {fraction} leaves no row out of "
            f"bag to select learners, got {n} rows")

    def test_pool_with_planted_oracle_selects_it(self, small_matrix):
        """Ranked last, a member that predicts every row exactly and left
        every row out is still added: it lowers the out-of-bag error."""
        pool, preds, out_of_bag = train_pool(small_matrix, fast_config(
            pool_size=10, subsample_fraction=0.5), seed=7)
        oracle = stub_learner(small_matrix.target, 0.0)
        sel = select(pool + (oracle,), np.vstack([preds, oracle.model.out]),
                     np.vstack([out_of_bag, np.ones(50, dtype=bool)]),
                     ranked_as_given(pool + (oracle,)), small_matrix,
                     replace(self.CFG, patience=11))
        assert sel.selected_positions == tuple(range(11))
        assert sel.trace[-1][1] < min(score for _, score in sel.trace[:-1])

    def test_identical_learners_collapse_to_one(self, small_matrix):
        """Twins that left every row out predict as one does."""
        pool, preds, _ = train_pool(small_matrix, fast_config(pool_size=1),
                                    seed=8)
        twins, twin_preds = pool * 3, np.repeat(preds, 3, axis=0)
        ranking = rank(twin_preds, small_matrix)
        sel = select(twins, twin_preds, np.ones((3, 50), dtype=bool), ranking,
                     small_matrix, replace(self.CFG, patience=1))
        assert len(sel.selected_positions) == 1
        assert sel.trace[0][1] == sel.trace[1][1]

    def test_trace_minimum_at_selected_size(self, small_matrix):
        cfg = fast_config(pool_size=10, subsample_fraction=0.5)
        pool, preds, out_of_bag = train_pool(small_matrix, cfg, seed=9)
        ranking = rank(preds, small_matrix)
        sel = select(pool, preds, out_of_bag, ranking, small_matrix,
                     replace(cfg, patience=3))
        rmses = dict(sel.trace)
        assert min(rmses.values()) == rmses[len(sel.selected_positions)]


def one_member_state(m):
    return PreprocessState(selected_features=m.column_names, scaler=None,
                           log_target=False, target_center=0.0,
                           target_scale=1.0)


def member_predictions(model, m):
    """(members, rows): each member's prediction in yield units."""
    feats = model.preprocess.apply_features(m)
    return np.vstack([model.preprocess.invert_target(predict(bl.model, feats))
                      for bl in model.learners])


class TestPredictEnsemble:
    def build(self, m, pool):
        return EnsembleModel(tuple(pool), one_member_state(m))

    def test_singleton_equals_member(self, small_matrix):
        pool, _, _ = train_pool(small_matrix, fast_config(pool_size=1),
                                seed=10)
        model = self.build(small_matrix, pool)
        np.testing.assert_array_equal(model.weights, [1.0])
        np.testing.assert_array_equal(predict_ensemble(model, small_matrix),
                                      predict(pool[0].model, small_matrix))

    def test_equal_weights_average(self, small_matrix):
        pool, _, _ = train_pool(small_matrix, fast_config(pool_size=2),
                                seed=11)
        model = self.build(small_matrix, [replace(bl, error=0.1)
                                          for bl in pool])
        np.testing.assert_array_equal(model.weights, [0.5, 0.5])
        members = member_predictions(model, small_matrix)
        np.testing.assert_allclose(predict_ensemble(model, small_matrix),
                                   members.mean(axis=0), atol=1e-12)

    def test_convex_combination_bounds(self, small_matrix):
        cfg = fast_config(pool_size=5)
        pool, _, _ = train_pool(small_matrix, cfg, seed=12)
        eps = [bl.error for bl in pool]
        model = self.build(small_matrix, pool)
        np.testing.assert_array_equal(model.weights, compute_weights(eps))
        members = member_predictions(model, small_matrix)
        combined = predict_ensemble(model, small_matrix)
        assert np.all(combined >= members.min(axis=0) - 1e-12)
        assert np.all(combined <= members.max(axis=0) + 1e-12)

    def test_identical_members_reproduce_single(self, small_matrix):
        pool, _, _ = train_pool(small_matrix, fast_config(pool_size=1),
                                seed=13)
        twins = (pool[0], pool[0], pool[0], pool[0])
        model = self.build(small_matrix, twins)
        np.testing.assert_array_equal(model.weights, [0.25] * 4)
        np.testing.assert_array_equal(predict_ensemble(model, small_matrix),
                                      predict(pool[0].model, small_matrix))

    def test_weights_are_made_not_given(self, small_matrix):
        pool, _, _ = train_pool(small_matrix, fast_config(pool_size=2),
                                seed=14)
        with pytest.raises(TypeError, match="weights"):
            EnsembleModel(tuple(pool), one_member_state(small_matrix),
                          weights=np.array([0.5, 0.5]))

    def test_an_empty_ensemble_is_refused(self, small_matrix):
        with pytest.raises(DataError, match="no learners"):
            self.build(small_matrix, ())

    def test_weights_must_be_strictly_positive(self, small_matrix):
        """A learner whose raw weight underflows to 0 is refused, not kept
        at weight 0: four equal errors make the IQR 0, so the logistic is
        steep enough to send the fifth, larger error's weight to 0.0."""
        pool, _, _ = train_pool(small_matrix, fast_config(pool_size=5),
                                seed=14)
        pool = [replace(bl, error=eps)
                for bl, eps in zip(pool, (0.1, 0.1, 0.1, 0.1, 0.5))]
        with pytest.raises(DataError, match="strictly positive"):
            self.build(small_matrix, pool)


class TestBlockScoring:
    """``predict_ensemble`` scores in blocks of ``SCORE_BLOCK`` rows and the
    rest, bit-equal to one pass that adds the weighted learner outputs in
    learner order."""

    @staticmethod
    def model(rng, m, hidden, members=4):
        f = m.n_features
        learners = tuple(
            BaseLearner(MLPModel(rng.normal(size=(f, hidden)),
                                 rng.normal(size=hidden),
                                 0.3 * rng.normal(size=hidden),
                                 float(rng.normal()), i, 1),
                        eps)
            for i, eps in enumerate(0.2 * rng.random(members)))
        state = replace(one_member_state(m), log_target=True,
                        target_center=3.8, target_scale=0.5)
        return EnsembleModel(learners, state)

    @pytest.mark.parametrize("hidden", [5, 28])
    @pytest.mark.parametrize("n", [SCORE_BLOCK - 1, 2 * SCORE_BLOCK - 1,
                                   2 * SCORE_BLOCK, 2 * SCORE_BLOCK + 1,
                                   4 * SCORE_BLOCK + 3])
    def test_bit_equal_to_one_pass(self, rng, hidden, n, monkeypatch):
        m = random_matrix(rng, n, 6)
        model = self.model(rng, m, hidden)
        feats = model.preprocess.apply_features(m)
        combined = 0.0
        for w, bl in zip(model.weights, model.learners):
            combined = combined + w * predict(bl.model, feats)
        one_pass = model.preprocess.invert_target(combined)
        sizes = []

        def recording(network, x):
            sizes.append(x.shape[0])
            return predict_mlp(network, x)

        monkeypatch.setattr(ensemble, "predict_mlp", recording)
        np.testing.assert_array_equal(predict_ensemble(model, m), one_pass)
        assert sizes == [size for size in block_sizes(n, SCORE_BLOCK)
                         for _ in model.learners]

    def test_input_count_is_checked(self, rng):
        """A chain that selects five of the six columns the networks were
        built for is refused when the model is built, and a network handed
        five columns refuses them when it scores."""
        m = random_matrix(rng, 10, 6)
        model = self.model(rng, m, 5)
        with pytest.raises(DataError, match=re.escape(
                "the chain selects 5 features, the networks take [6]")):
            replace(model, preprocess=replace(
                model.preprocess, selected_features=m.column_names[:5]))
        with pytest.raises(DataError, match="matrix has 5 features, model "
                                            "expects 6"):
            predict_mlp(model.learners[0].model, m.values[:, :5])


class TestFullPipelineDeterminism:
    def test_bit_identical_models_and_predictions(self):
        raw = generate_synthetic(60, 3, SyntheticSpec(n_distractors=1))
        cfg = replace(bench_config(), cv_folds=4,
                      mlp=FAST_MLP,
                      ensemble=replace(bench_config().ensemble, pool_size=5,
                                       mlp=FAST_MLP))
        a = train_ensemble_pipeline(raw, cfg)
        b = train_ensemble_pipeline(raw, cfg)
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        for la, lb in zip(a.model.learners, b.model.learners):
            np.testing.assert_array_equal(la.model.w_hidden, lb.model.w_hidden)
        np.testing.assert_array_equal(predict_ensemble(a.model, raw),
                                      predict_ensemble(b.model, raw))


class TestPoolReport:
    def test_csv_shape_and_selected_prefix(self, small_matrix, tmp_path):
        cfg = fast_config(pool_size=5)
        pool, preds, out_of_bag = train_pool(small_matrix, cfg, seed=15)
        ranking = rank(preds, small_matrix)
        sel = select(pool, preds, out_of_bag, ranking, small_matrix,
                     replace(cfg, patience=1))
        path = tmp_path / "pool.csv"
        PoolReport(pool, out_of_bag, ranking, sel).to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("learner,seed,hidden,oob_mse,relief_weight,"
                            "selected,epochs_run,subsample_rows")
        assert len(lines) == 6
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        chosen = [int(r["learner"]) for r in rows if r["selected"] == "1"]
        assert tuple(chosen) == tuple(sorted(sel.selected_positions))
        assert [(int(r["seed"]), int(r["hidden"])) for r in rows] == [
            (bl.model.seed, bl.model.hidden_size) for bl in pool]
        assert [int(r["epochs_run"]) for r in rows] == [
            bl.model.epochs_run for bl in pool]
        # each member's error, and the rows it kept
        assert [float(r["oob_mse"]) for r in rows] == [bl.error for bl in pool]
        assert [int(r["subsample_rows"]) for r in rows] == [
            math.ceil(0.9 * small_matrix.n_samples)] * 5
        # epochs_run tells members that stopped early from those that ran
        # every epoch.
        assert any(bl.model.epochs_run < cfg.mlp.epochs for bl in pool)
