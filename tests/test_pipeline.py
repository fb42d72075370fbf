from dataclasses import replace

import numpy as np
import pytest

from teayield import pipeline
from teayield.evaluation import make_folds
from teayield.pipeline import fit_chain, fit_preprocess, prepare_input, stage_report
from teayield.preprocess import remove_outliers
from teayield.regressors import make_linear_factory

from conftest import tiny_config


class TestFittedChain:
    def test_cv_chain_has_identity_target_scaling(self, canonical_raw):
        cfg = replace(tiny_config(), outlier_rule="4_over_n")
        raw = prepare_input(canonical_raw)
        train_m, chain, artifacts = fit_chain(raw, cfg, 3)
        assert (chain.target_center, chain.target_scale) == (0.0, 1.0)
        assert chain.log_target and artifacts.outliers.flagged
        kept = remove_outliers(raw, artifacts.outliers)
        np.testing.assert_array_equal(chain.transform_target(kept.target),
                                      train_m.target)

    def test_target_maps_invert_each_other(self, canonical_raw):
        processed, state, _ = fit_preprocess(canonical_raw, tiny_config())
        assert state.log_target and state.target_scale != 1.0
        y = canonical_raw.target
        np.testing.assert_allclose(state.invert_target(state.transform_target(y)),
                                   y, rtol=1e-12)
        z = processed.target
        np.testing.assert_allclose(state.transform_target(state.invert_target(z)),
                                   z, rtol=1e-12, atol=1e-12)

    def test_scored_targets_never_reach_the_fold_chain(self, canonical_raw):
        cfg = tiny_config()
        raw = prepare_input(canonical_raw)
        plan = make_folds(raw.n_samples, cfg.cv_folds, 7)
        factory = make_linear_factory(0.0, drop_dependent=True)
        fold = 2
        _, eval_rows = plan.fold_indices(fold)
        y = raw.target.copy()
        y[eval_rows] *= 3.0
        runs = []
        for m in (raw, raw.with_target(y)):
            cache: dict = {}
            rmse = pipeline._chain_cv_rmse(m, cfg.stages, cfg, factory, plan,
                                           1, 2, cache)
            runs.append((rmse, cache[(cfg.stages, fold)]))
        (rmse_a, (train_a, chain_a)), (rmse_b, (train_b, chain_b)) = runs
        assert rmse_a != rmse_b
        np.testing.assert_array_equal(train_a.values, train_b.values)
        np.testing.assert_array_equal(train_a.target, train_b.target)
        assert replace(chain_a, scaler=None) == replace(chain_b, scaler=None)
        assert chain_a.scaler.columns == chain_b.scaler.columns
        np.testing.assert_array_equal(chain_a.scaler.means, chain_b.scaler.means)
        np.testing.assert_array_equal(chain_a.scaler.stds, chain_b.scaler.stds)


class TestStageReport:
    @pytest.mark.parametrize("paper_faithful", [False, True])
    def test_every_stage_is_scored_in_yield_units(self, canonical_raw,
                                                  paper_faithful):
        cfg = replace(tiny_config(), paper_faithful=paper_faithful)
        assert cfg.log_target and cfg.stages[-1] == "feature_transformation"
        report = stage_report(canonical_raw, cfg, cfg.seed)
        assert report.mode == ("paper_faithful" if paper_faithful
                               else "fold_refit")
        for model in report.model_names:
            before = report.cell(model, "outlier_removal")
            after = report.cell(model, "feature_transformation")
            assert before / 2.0 <= after <= 2.0 * before, model
