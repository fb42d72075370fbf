from dataclasses import replace

import numpy as np
import pytest

from teayield import pipeline
from teayield.dataset import SyntheticSpec, generate_synthetic
from teayield.errors import DataError
from teayield.evaluation import make_folds
from teayield.pipeline import fit_chain, fit_preprocess, stage_report
from teayield.preprocess import remove_outliers
from teayield.util import derive_seed

from conftest import bench_config, tiny_config


def _assert_same_fit(a, b) -> None:
    """Two ``(matrix, chain)`` prefixes are equal, array for array."""
    (m_a, chain_a), (m_b, chain_b) = a, b
    assert m_a.column_names == m_b.column_names
    np.testing.assert_array_equal(m_a.values, m_b.values)
    np.testing.assert_array_equal(m_a.target, m_b.target)
    assert replace(chain_a, scaler=None) == replace(chain_b, scaler=None)
    assert (chain_a.scaler is None) == (chain_b.scaler is None)
    if chain_a.scaler is not None:
        assert chain_a.scaler.columns == chain_b.scaler.columns
        np.testing.assert_array_equal(chain_a.scaler.means, chain_b.scaler.means)
        np.testing.assert_array_equal(chain_a.scaler.stds, chain_b.scaler.stds)


def _traced_stage_report(raw, cfg):
    """``stage_report`` with the result of every ``fit_chain`` call it made."""
    fits = []

    def recording(*args, **kw):
        fits.append(fit_chain(*args, **kw))
        return fits[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "fit_chain", recording)
        report = stage_report(raw, cfg, cfg.seed)
    return report, fits


@pytest.fixture(scope="module")
def traced_report(canonical_raw):
    """The traced ``tiny_config`` stage report in either mode, made once."""
    made = {}

    def get(paper_faithful: bool):
        if paper_faithful not in made:
            cfg = replace(tiny_config(), paper_faithful=paper_faithful)
            made[paper_faithful] = (cfg,) + _traced_stage_report(canonical_raw,
                                                                 cfg)
        return made[paper_faithful]
    return get


class TestFittedChain:
    def test_cv_chain_has_identity_target_scaling(self, canonical_raw):
        cfg = replace(tiny_config(), outlier_rule="4_over_n")
        raw = canonical_raw
        prefixes, artifacts = fit_chain(raw, cfg, 3)
        train_m, chain = prefixes[-1]
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

    @pytest.mark.parametrize("outlier_rule", ["fixed", "4_over_n"])
    def test_prefix_k_is_a_fit_of_the_first_k_stages(self, canonical_raw,
                                                     outlier_rule):
        cfg = replace(tiny_config(), outlier_rule=outlier_rule)
        raw = canonical_raw
        prefixes, _ = fit_chain(raw, cfg, 3)
        assert len(prefixes) == len(cfg.stages) + 1
        for k, prefix in enumerate(prefixes):
            assert prefix[1].stage_order == cfg.stages[:k]
            alone, _ = fit_chain(raw, replace(cfg, stages=cfg.stages[:k]), 3)
            _assert_same_fit(prefix, alone[-1])
        if outlier_rule == "4_over_n":  # the last prefix lost rows
            assert prefixes[-1][0].n_samples < raw.n_samples

    @pytest.mark.parametrize("changes", [
        {"outlier_rule": "fixed"}, {"outlier_rule": "4_over_n"},
        {"log_features": ("rainfall",), "scale_columns": ("humidity",)}],
        ids=["fixed", "4_over_n", "log rainfall, scale humidity"])
    def test_training_rows_are_the_served_chain_on_the_kept_rows(
            self, canonical_raw, changes):
        """The matrix the pool trains on is what the fitted chain makes of
        the rows outlier removal kept, array for array."""
        processed, state, artifacts = fit_preprocess(
            canonical_raw, replace(tiny_config(), **changes))
        kept = remove_outliers(canonical_raw, artifacts.outliers)
        if changes.get("outlier_rule") == "4_over_n":
            assert kept.n_samples < canonical_raw.n_samples
        if "log_features" in changes:
            assert state.log_features == ("rainfall",)
            assert state.scaler.columns == ("humidity",)
        served = state.apply_features(kept)
        assert processed.column_names == served.column_names
        np.testing.assert_array_equal(processed.values, served.values)
        np.testing.assert_array_equal(processed.target,
                                      state.transform_target(kept.target))

    @pytest.mark.parametrize("row", [100, 105, 115])
    def test_a_log_error_names_the_given_row_after_outlier_removal(self, row):
        """A zero yield in row 100 of the tiny config's synth set, under
        ``4_over_n``: outlier removal drops rows before it, and the log of
        the target still names the row of the matrix ``fit_chain`` was
        given, not its position among the kept rows."""
        cfg = replace(tiny_config(), outlier_rule="4_over_n")
        raw = generate_synthetic(cfg.synth_n, cfg.seed, cfg.synth)
        target = raw.target.copy()
        target[row] = 0.0
        raw = raw.with_target(target)
        _, artifacts = fit_chain(raw, replace(cfg, stages=cfg.stages[:-1]), 3)
        assert min(artifacts.outliers.flagged) < row
        with pytest.raises(DataError) as info:
            fit_chain(raw, cfg, 3)
        assert str(info.value) == (f"log transform needs positive values; "
                                   f"row {row}, column 'yield' has 0.0")

    def test_the_ols_evaluator_fits_the_collinear_temperatures(self):
        """avg_temp is the mean of min_temp and max_temp, so a feature prefix
        holding all three is rank-deficient; least squares fits its span."""
        raw = generate_synthetic(120, 2, SyntheticSpec.canonical())
        _, state, _ = fit_preprocess(raw, replace(bench_config(),
                                                  sfs_evaluator="ols"))
        assert {"min_temp", "max_temp", "avg_temp"} <= set(
            state.selected_features)

    def test_scored_targets_never_reach_the_fold_chain(self, canonical_raw,
                                                       traced_report):
        """Scaling the targets of one fold's scored rows changes the report
        but no bit of that fold's chain, at any prefix."""
        cfg, report_a, fits_a = traced_report(False)
        raw = canonical_raw
        fold = 2
        plan = make_folds(raw.n_samples, cfg.cv_folds,
                          derive_seed(cfg.seed, pipeline._TAG_STAGE))
        _, eval_rows = plan.fold_indices(fold)
        y = raw.target.copy()
        y[eval_rows] *= 3.0
        report_b, fits_b = _traced_stage_report(raw.with_target(y), cfg)
        assert not np.array_equal(report_a.rmse, report_b.rmse)
        (prefixes_a, _), (prefixes_b, _) = fits_a[fold], fits_b[fold]
        assert len(prefixes_a) == len(cfg.stages) + 1
        for a, b in zip(prefixes_a, prefixes_b):
            _assert_same_fit(a, b)
        # Every other fold trains on the scaled rows.
        (raw_a, _), (raw_b, _) = fits_a[0][0][0], fits_b[0][0][0]
        assert not np.array_equal(raw_a.target, raw_b.target)


class TestStageReport:
    @pytest.mark.parametrize("paper_faithful", [False, True])
    def test_every_stage_is_scored_in_yield_units(self, traced_report,
                                                  paper_faithful):
        cfg, report, _ = traced_report(paper_faithful)
        assert cfg.log_target and cfg.stages[-1] == "feature_transformation"
        assert report.mode == ("paper_faithful" if paper_faithful
                               else "fold_refit")
        for model in report.model_names:
            before = report.cell(model, "outlier_removal")
            after = report.cell(model, "feature_transformation")
            assert before / 2.0 <= after <= 2.0 * before, model

    @pytest.mark.parametrize("paper_faithful", [False, True])
    def test_one_chain_fit_per_training_set(self, traced_report,
                                            paper_faithful):
        cfg, _, fits = traced_report(paper_faithful)
        assert len(fits) == (1 if paper_faithful else cfg.cv_folds)

    @pytest.mark.parametrize("paper_faithful", [False, True])
    def test_scaling_does_not_move_the_least_squares_cell(self, traced_report,
                                                          paper_faithful):
        """Least squares predictions do not change when a column is scaled,
        and both columns read the same selected features."""
        cfg, report, _ = traced_report(paper_faithful)
        assert cfg.stages[:2] == ("feature_selection", "feature_scaling")
        np.testing.assert_allclose(report.cell("mlr", "feature_scaling"),
                                   report.cell("mlr", "feature_selection"),
                                   rtol=1e-9)
