import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from teayield import ensemble
from teayield.dataset import FeatureMatrix, SyntheticSpec, generate_synthetic
from teayield.ensemble import (SCORE_BLOCK, BaseLearner, EnsembleConfig,
                               EnsembleModel, LearnerRanking, PoolReport,
                               compute_weights,
                               predict_ensemble, rank_learners,
                               resolve_weight_params, select_learners,
                               train_pool)
from teayield.errors import ConfigError, DataError, FitError
from teayield.pipeline import train_ensemble_pipeline
from teayield.preprocess import PreprocessState
from teayield.regressors import MLPModel, MLPTrainConfig, predict, predict_mlp

from conftest import bench_config, block_sizes, random_matrix

FAST_MLP = MLPTrainConfig(hidden_size=5, epochs=150, early_stop_fraction=0.15,
                          patience=30)


def fast_config(pool_size=6, **kw):
    return EnsembleConfig(pool_size=pool_size, mlp=FAST_MLP, **kw)


@pytest.fixture()
def small_matrix(rng):
    m = random_matrix(rng, 50, 3, target_noise=0.3)
    std = (m.target - m.target.mean()) / m.target.std(ddof=1)
    return m.with_target(std)


class TestComputeWeights:
    def test_midpoint_symmetry(self):
        w = compute_weights([0.3, 0.3], b=5.0, c=0.3)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_small_b_approaches_uniform(self):
        w = compute_weights([0.1, 0.5, 0.9], b=1e-9, c=0.5)
        np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-9)

    def test_a_huge_error_gets_zero_weight_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = compute_weights([0.0, 1e308], 10.0, 0.0)
        assert w.tolist() == [1.0, 0.0]

    def test_hand_derived_example(self):
        w = compute_weights([0.1, 0.2], b=10.0, c=0.15)
        np.testing.assert_allclose(w, [0.6225, 0.3775], atol=1e-4)

    def test_strictly_monotone_decreasing_in_error(self, rng):
        eps = np.sort(rng.uniform(0.0, 2.0, size=12))
        eps = np.unique(eps)
        w = compute_weights(eps, b=3.0, c=float(np.median(eps)))
        assert np.all(np.diff(w) < 0)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            eps = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 30)))
            b, c = resolve_weight_params(eps)
            w = compute_weights(eps, b, c)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0)

    def test_permutation_equivariance(self, rng):
        eps = rng.uniform(0.0, 1.0, size=8)
        perm = rng.permutation(8)
        w = compute_weights(eps, b=4.0, c=0.5)
        w_perm = compute_weights(eps[perm], b=4.0, c=0.5)
        np.testing.assert_allclose(w[perm], w_perm, atol=1e-15)

    def test_rejects_bad_steepness(self):
        with pytest.raises(ConfigError, match="b"):
            compute_weights([0.1], b=0.0, c=0.0)

    def test_rejects_negative_errors(self):
        with pytest.raises(DataError, match="finite"):
            compute_weights([-0.1, 0.2], b=1.0, c=0.0)

    def test_underflow_reported(self):
        with pytest.raises(FitError, match="underflow"):
            compute_weights([1000.0, 2000.0], b=10.0, c=0.0)

    @pytest.mark.parametrize("b", [1e-9, 1e-4, 0.5, 3.0, 100.0, 1e6, 1e12])
    def test_bit_identical_to_scipy_expit(self, rng, b):
        """The weights equal ``expit(-b * (eps - c))``, normalized, bit for
        bit, raw weights that underflow or whose exponent overflows
        included; where every raw weight is 0 both forms give none."""
        for _ in range(40):
            eps = rng.exponential(10.0 ** rng.uniform(-3, 1),
                                  size=int(rng.integers(1, 101)))
            c = (float(np.median(eps)) if rng.random() < 0.5
                 else float(rng.uniform(0.0, 2.0 * eps.max())))
            raw = expit(-b * (eps - c))
            if raw.sum() == 0.0:
                with pytest.raises(FitError, match="underflow"):
                    compute_weights(eps, b, c)
            else:
                w = compute_weights(eps, b, c)
                assert w.tobytes() == (raw / raw.sum()).tobytes()

    def test_every_raw_weight_underflows_as_with_scipy_expit(self):
        eps, b, c = np.array([0.5, 700.0, 1000.0]), 1e12, 0.25
        assert not expit(-b * (eps - c)).any()
        with pytest.raises(FitError, match="underflow"):
            compute_weights(eps, b, c)


class TestTrainPool:
    def test_degenerate_pool_of_one_full_fraction(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=1,
                                                    subsample_fraction=1.0),
                          seed=0)
        assert len(pool) == 1
        assert pool[0].subsample_indices == tuple(range(small_matrix.n_samples))
        # No row is left out, so the error is the training MSE.
        assert pool[0].train_error == pool[0].model.train_error

    def test_deterministic(self, small_matrix):
        cfg = fast_config()
        a = train_pool(small_matrix, cfg, seed=5)
        b = train_pool(small_matrix, cfg, seed=5)
        for la, lb in zip(a, b):
            assert la.model.seed == lb.model.seed
            assert la.model.hidden_size == lb.model.hidden_size
            assert la.train_error == lb.train_error
            np.testing.assert_array_equal(la.model.w_hidden, lb.model.w_hidden)

    def test_hidden_sizes_cover_range(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=100), seed=1)
        distinct = {bl.model.hidden_size for bl in pool}
        assert len(distinct) >= 15
        assert all(5 <= h <= 30 for h in distinct)

    def test_subsample_sizes(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(subsample_fraction=0.8),
                          seed=2)
        expected = math.ceil(0.8 * small_matrix.n_samples)
        assert all(len(bl.subsample_indices) == expected for bl in pool)

    def test_oof_errors_use_unseen_rows(self, small_matrix):
        pool = train_pool(small_matrix,
                          fast_config(subsample_fraction=0.7),
                          seed=3)
        for bl in pool:
            rest = sorted(set(range(small_matrix.n_samples))
                          - set(bl.subsample_indices))
            sub = small_matrix.take_rows(rest)
            resid = predict(bl.model, sub) - sub.target
            assert bl.train_error == pytest.approx(float((resid ** 2).mean()),
                                                    abs=1e-12)


class TestRankLearners:
    def test_perfect_learner_ranked_first(self, small_matrix, rng):
        pool = list(train_pool(small_matrix, fast_config(pool_size=4), seed=0))
        # forge a learner whose predictions equal the target exactly
        target = small_matrix.target

        class Oracle:
            def __init__(self, out):
                self.out = out

        perfect = replace(pool[0])
        object.__setattr__(perfect, "model", _ConstantModel(target))
        pool.append(perfect)
        ranking = rank_learners(pool, small_matrix)
        assert ranking.order[0] == len(pool) - 1

    def test_identical_learners_get_equal_weights(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=1), seed=4)
        twins = (pool[0], pool[0])
        ranking = rank_learners(twins, small_matrix)
        assert ranking.weights[0] == pytest.approx(ranking.weights[1],
                                                   abs=1e-12)

    def test_pool_of_one(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=1), seed=5)
        ranking = rank_learners(pool, small_matrix)
        np.testing.assert_array_equal(ranking.order, [0])

    def test_constant_learner_demoted_to_bottom(self, small_matrix):
        pool = list(train_pool(small_matrix, fast_config(pool_size=3), seed=6))
        flat = replace(pool[0])
        object.__setattr__(flat, "model",
                           _ConstantModel(np.zeros(small_matrix.n_samples)))
        pool.insert(0, flat)
        ranking = rank_learners(pool, small_matrix)
        assert ranking.order[-1] == 0
        assert ranking.weights[0] == -np.inf


class _ConstantModel:
    """Stand-in model returning fixed predictions (test helper)."""

    def __init__(self, out):
        self.out = np.asarray(out, dtype=np.float64)
        self.w_hidden = np.zeros((3, 5))  # satisfies the dispatch check

    def __call__(self):  # pragma: no cover
        raise AssertionError


@pytest.fixture(autouse=True)
def _patch_predict_for_constant(monkeypatch):
    import teayield.ensemble as ens
    real = ens.predict

    def dispatch(model, m):
        if isinstance(model, _ConstantModel):
            return model.out[:m.n_samples]
        return real(model, m)

    monkeypatch.setattr(ens, "predict", dispatch)


def stub_learner(predictions, out_rows, n, error):
    """A pool member that predicts ``predictions``, trained on every row of
    ``n`` but ``out_rows``, with the error ``error``."""
    kept = tuple(r for r in range(n) if r not in set(out_rows))
    return BaseLearner(_ConstantModel(predictions), kept, error)


def ranked_as_given(pool):
    """A ranking that orders ``pool`` as it is."""
    return LearnerRanking(np.arange(len(pool), 0, -1, dtype=np.float64))


class TestSelectLearners:
    CFG = fast_config(subsample_fraction=0.5)

    def test_a_prefix_predicts_a_row_from_the_members_that_left_it_out(self):
        """Four rows; A leaves out rows 0 and 1, B rows 2 and 3, C rows 1
        and 2.  The first prefix to leave every row out is (A, B)."""
        target = np.array([1.0, -2.0, 0.5, 3.0])
        m = FeatureMatrix(("x",), np.zeros((4, 1)), target)
        preds = {"A": [1.5, -1.0, 9.0, 9.0], "B": [9.0, 9.0, 0.0, 2.0],
                 "C": [9.0, -3.0, 1.5, 9.0]}
        out = {"A": (0, 1), "B": (2, 3), "C": (1, 2)}
        errors = {"A": 0.1, "B": 0.3, "C": 0.2}
        pool = [stub_learner(preds[k], out[k], 4, errors[k]) for k in "ABC"]
        sel = select_learners(pool, ranked_as_given(pool), m, self.CFG,
                              patience=5)

        def by_hand(names):
            eps = [errors[k] for k in names]
            w = dict(zip(names, compute_weights(eps,
                                                *resolve_weight_params(eps))))
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
        pool = [stub_learner(rng.normal(size=n), rows, n, 0.1 * (i + 1))
                for i, rows in enumerate(outs)]
        sel = select_learners(pool, ranked_as_given(pool), m, self.CFG,
                              patience=5)
        assert [size for size, _ in sel.trace] == [4, 5]
        best = min(sel.trace, key=lambda t: t[1])[0]
        assert sel.selected_positions == tuple(range(best))

    def test_the_whole_pool_is_kept_when_no_prefix_leaves_every_row_out(self):
        """Row 3 is in every member's subsample, so no prefix is scored."""
        n = 4
        m = FeatureMatrix(("x",), np.zeros((n, 1)), np.zeros(n))
        pool = [stub_learner(np.ones(n), rows, n, 0.1)
                for rows in [(0,), (1, 2), (0, 2)]]
        ranking = LearnerRanking(np.array([0.1, 0.3, 0.2]))
        sel = select_learners(pool, ranking, m, self.CFG, patience=5)
        assert sel.selected_positions == (1, 2, 0)
        assert sel.trace == ()

    def test_selection_fits_no_network(self, small_matrix, monkeypatch):
        """Each member predicts the rows once, and nothing is refitted."""
        pool = train_pool(small_matrix, fast_config(pool_size=8,
                                                    subsample_fraction=0.5),
                          seed=4)
        ranking = rank_learners(pool, small_matrix)
        fits, predicted = [], []
        monkeypatch.setattr(ensemble, "fit_mlp",
                            lambda *args: fits.append(args))
        real = ensemble.predict

        def counting(model, m):
            predicted.append(m.n_samples)
            return real(model, m)

        monkeypatch.setattr(ensemble, "predict", counting)
        sel = select_learners(pool, ranking, small_matrix, self.CFG,
                              patience=3)
        assert sel.trace
        assert fits == []
        assert predicted == [small_matrix.n_samples] * len(pool)

    @pytest.mark.parametrize("fraction,n", [(1.0, 50), (0.9, 9)])
    def test_a_subsample_of_every_row_is_refused(self, fraction, n):
        m = FeatureMatrix(("x",), np.zeros((n, 1)), np.zeros(n))
        pool = [stub_learner(np.ones(n), (), n, 0.1)]
        with pytest.raises(DataError) as info:
            select_learners(pool, ranked_as_given(pool), m,
                            fast_config(subsample_fraction=fraction))
        assert str(info.value) == (
            f"[ensemble] subsample_fraction = {fraction} leaves no row out of "
            f"bag to select learners, got {n} rows")

    def test_pool_with_planted_oracle_selects_it(self, small_matrix):
        """Ranked last, a member that predicts every row exactly and left
        every row out is still added: it lowers the out-of-bag error."""
        pool = list(train_pool(small_matrix, fast_config(
            pool_size=10, subsample_fraction=0.5), seed=7))
        oracle = stub_learner(small_matrix.target, range(50), 50, 0.0)
        ranking = LearnerRanking(np.arange(11, 0, -1, dtype=np.float64))
        sel = select_learners(pool + [oracle], ranking, small_matrix,
                              self.CFG, patience=11)
        assert sel.selected_positions == tuple(range(11))
        assert sel.trace[-1][1] < min(score for _, score in sel.trace[:-1])

    def test_identical_learners_collapse_to_one(self, small_matrix):
        """Twins that left every row out predict as one does."""
        pool = train_pool(small_matrix, fast_config(pool_size=1), seed=8)
        twin = BaseLearner(pool[0].model, (), pool[0].train_error)
        twins = (twin, twin, twin)
        ranking = rank_learners(twins, small_matrix)
        sel = select_learners(twins, ranking, small_matrix, self.CFG,
                              patience=1)
        assert len(sel.selected_positions) == 1
        assert sel.trace[0][1] == sel.trace[1][1]

    def test_trace_minimum_at_selected_size(self, small_matrix):
        cfg = fast_config(pool_size=10, subsample_fraction=0.5)
        pool = train_pool(small_matrix, cfg, seed=9)
        ranking = rank_learners(pool, small_matrix)
        sel = select_learners(pool, ranking, small_matrix, cfg, patience=3)
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
    def build(self, m, pool, weights):
        eps = [bl.train_error for bl in pool]
        return EnsembleModel(tuple(pool), np.asarray(weights), 1.0,
                             float(np.median(eps)), one_member_state(m))

    def test_singleton_equals_member(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=1), seed=10)
        model = self.build(small_matrix, pool, [1.0])
        np.testing.assert_array_equal(predict_ensemble(model, small_matrix),
                                      predict(pool[0].model, small_matrix))

    def test_equal_weights_average(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=2), seed=11)
        model = self.build(small_matrix, pool, [0.5, 0.5])
        members = member_predictions(model, small_matrix)
        np.testing.assert_allclose(predict_ensemble(model, small_matrix),
                                   members.mean(axis=0), atol=1e-12)

    def test_convex_combination_bounds(self, small_matrix):
        cfg = fast_config(pool_size=5)
        pool = train_pool(small_matrix, cfg, seed=12)
        sel_positions = tuple(range(5))
        eps = [bl.train_error for bl in pool]
        b, c = resolve_weight_params(eps)
        w = compute_weights(eps, b, c)
        model = EnsembleModel(tuple(pool), w, b, c,
                              one_member_state(small_matrix))
        members = member_predictions(model, small_matrix)
        combined = predict_ensemble(model, small_matrix)
        assert np.all(combined >= members.min(axis=0) - 1e-12)
        assert np.all(combined <= members.max(axis=0) + 1e-12)

    def test_identical_members_reproduce_single(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=1,
                                                    subsample_fraction=1.0),
                          seed=13)
        twins = (pool[0], pool[0], pool[0], pool[0])
        model = self.build(small_matrix, twins, [0.25] * 4)
        np.testing.assert_array_equal(predict_ensemble(model, small_matrix),
                                      predict(pool[0].model, small_matrix))

    def test_weights_must_sum_to_one(self, small_matrix):
        pool = train_pool(small_matrix, fast_config(pool_size=2), seed=14)
        with pytest.raises(DataError, match="sum to 1"):
            EnsembleModel(tuple(pool), np.array([0.7, 0.6]), 1.0, 0.0,
                          one_member_state(small_matrix))


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
                                 float(rng.normal()),
                                 MLPTrainConfig(hidden_size=hidden), i, 1, 0.1),
                        (0,), 0.1)
            for i in range(members))
        weights = rng.random(members)
        state = replace(one_member_state(m), log_target=True,
                        target_center=3.8, target_scale=0.5)
        return EnsembleModel(learners, weights / weights.sum(), 1.0, 0.1,
                             state)

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
        """The chain hands the networks five of the six columns they were
        built for."""
        m = random_matrix(rng, 10, 6)
        model = self.model(rng, m, 5)
        model = replace(model, preprocess=replace(
            model.preprocess, selected_features=m.column_names[:5]))
        with pytest.raises(DataError, match="matrix has 5 features, model "
                                            "expects 6"):
            predict_ensemble(model, m)


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
        pool = train_pool(small_matrix, cfg, seed=15)
        ranking = rank_learners(pool, small_matrix)
        sel = select_learners(pool, ranking, small_matrix, cfg, patience=1)
        path = tmp_path / "pool.csv"
        PoolReport(pool, ranking, sel).to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("learner,seed,hidden,train_mse,relief_weight,"
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
        assert [int(r["subsample_rows"]) for r in rows] == [
            len(bl.subsample_indices) for bl in pool]
        # epochs_run tells members that stopped early from those that ran
        # every epoch.
        assert any(bl.model.epochs_run < cfg.mlp.epochs for bl in pool)
