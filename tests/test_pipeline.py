import ast
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from teayield import pipeline, regressors
from teayield.config import PipelineConfig
from teayield.dataset import SyntheticSpec, generate_synthetic
from teayield.ensemble import predict_ensemble
from teayield.errors import DataError, FitError, TeaYieldError
from teayield.evaluation import (cross_validate, holdout_split, make_folds,
                                 metrics)
from teayield.pipeline import (STAGE_MODELS, STAGE_NAMES, evaluate_pipeline,
                               fit_chain, fit_preprocess, stage_report,
                               train_ensemble_pipeline)
from teayield.preprocess import (PIPELINE_STAGES, cooks_distance, fit_scaler,
                                 remove_outliers)
from teayield.regressors import ols_predictions
from teayield.util import derive_seed

from conftest import assert_no_child_left, tiny_config
from test_imports import PACKAGE


def _assert_same_fit(a, b) -> None:
    """Two ``(matrix, chain)`` prefixes are equal, array for array."""
    (m_a, chain_a), (m_b, chain_b) = a, b
    assert m_a.column_names == m_b.column_names
    np.testing.assert_array_equal(m_a.values, m_b.values)
    np.testing.assert_array_equal(m_a.target, m_b.target)
    assert replace(chain_a, scaler=None) == replace(chain_b, scaler=None)
    assert (chain_a.scaler is None) == (chain_b.scaler is None)
    if chain_a.scaler is not None:
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
    """The traced ``tiny_config`` stage report, made once."""
    cfg = tiny_config()
    return (cfg,) + _traced_stage_report(canonical_raw, cfg)


class TestFittedChain:
    def test_cv_chain_has_identity_target_scaling(self, canonical_raw):
        cfg = replace(tiny_config(), outlier_threshold=4 / 120)
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

    # 4 / 120: the 4-over-n rule of thumb on the 120 canonical rows.
    @pytest.mark.parametrize("outlier_threshold", [0.5, 4 / 120],
                             ids=["fixed", "4_over_n"])
    def test_prefix_k_is_a_fit_of_the_first_k_stages(self, canonical_raw,
                                                     outlier_threshold):
        """Each stage fits its part of the chain on the previous prefix's
        matrix, and each prefix's matrix is its chain replayed on the raw
        rows kept so far."""
        cfg = replace(tiny_config(), outlier_threshold=outlier_threshold)
        raw = canonical_raw
        prefixes, artifacts = fit_chain(raw, cfg, 3)
        assert len(prefixes) == len(PIPELINE_STAGES) + 1
        selected = artifacts.selection.selected
        scaler = fit_scaler(prefixes[1][0])
        assert scaler.means.shape == scaler.stds.shape == (len(selected),)
        np.testing.assert_array_equal(
            artifacts.outliers.distances,
            cooks_distance(prefixes[2][0], outlier_threshold).distances)
        for k, (m, chain) in enumerate(prefixes):
            # Prefix k holds the parts of the first k stages, and no other.
            assert chain.selected_features == (selected if k >= 1
                                               else raw.column_names)
            assert (chain.scaler is None) == (k < 2)
            if chain.scaler is not None:
                np.testing.assert_array_equal(chain.scaler.means,
                                              scaler.means)
                np.testing.assert_array_equal(chain.scaler.stds, scaler.stds)
            assert chain.log_target == (k == 4)
            assert (chain.target_center, chain.target_scale) == (0.0, 1.0)
            kept = raw if k < 3 else remove_outliers(raw, artifacts.outliers)
            assert m.column_names == chain.selected_features
            np.testing.assert_array_equal(m.values,
                                          chain.apply_features(kept).values)
            np.testing.assert_array_equal(
                m.target, chain.transform_target(kept.target))
        if outlier_threshold == 4 / 120:  # the last prefix lost rows
            assert prefixes[-1][0].n_samples < raw.n_samples

    @pytest.mark.parametrize("outlier_threshold", [0.5, 4 / 120],
                             ids=["fixed", "4_over_n"])
    def test_training_rows_are_the_served_chain_on_the_kept_rows(
            self, canonical_raw, outlier_threshold):
        """The matrix the pool trains on is what the fitted chain makes of
        the rows outlier removal kept, array for array.  The chain scales
        every selected column and logs the target alone."""
        processed, state, artifacts = fit_preprocess(
            canonical_raw, replace(tiny_config(),
                                   outlier_threshold=outlier_threshold))
        kept = remove_outliers(canonical_raw, artifacts.outliers)
        if outlier_threshold == 4 / 120:
            assert kept.n_samples < canonical_raw.n_samples
        assert (state.scaler.means.shape == state.scaler.stds.shape
                == (len(state.selected_features),))
        assert state.log_target
        served = state.apply_features(kept)
        assert processed.column_names == served.column_names
        np.testing.assert_array_equal(processed.values, served.values)
        np.testing.assert_array_equal(processed.target,
                                      state.transform_target(kept.target))

    @pytest.mark.parametrize("row", [100, 105, 115])
    def test_a_log_error_names_the_given_row_after_outlier_removal(self, row):
        """A zero yield in row 100 of the tiny config's synth set, at
        outlier threshold 4 / 120: outlier removal drops rows before it, and
        the log of the target still names the row of the matrix
        ``fit_chain`` was given, not its position among the kept rows."""
        cfg = replace(tiny_config(), outlier_threshold=4 / 120)
        raw = generate_synthetic(120, cfg.seed, SyntheticSpec.canonical())
        target = raw.target.copy()
        target[row] = 0.0
        raw = raw.with_target(target)
        reports = []

        def recording(*args):
            reports.append(cooks_distance(*args))
            return reports[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "cooks_distance", recording)
            with pytest.raises(DataError) as info:
                fit_chain(raw, cfg, 3)
        assert min(reports[0].flagged) < row
        assert str(info.value) == (f"log transform needs positive values; "
                                   f"row {row}, column 'yield' has 0.0")

    def test_the_ols_evaluator_fits_the_collinear_temperatures(self):
        """avg_temp is the mean of min_temp and max_temp, so a feature prefix
        holding all three is rank-deficient; least squares, the stage
        report's mlr learner, fits its span.  Under ``cross_validate`` its
        predictions are those of a pseudo-inverse fit of the full collinear
        design, to 1e-9 relative."""
        raw = generate_synthetic(120, 2, SyntheticSpec.canonical())
        prefix = raw.subset(("rainfall", "min_temp", "max_temp", "avg_temp"))
        plan = make_folds(prefix.n_samples, 10, 0)
        oof = cross_validate(prefix, ols_predictions, plan)
        design = np.column_stack([np.ones(prefix.n_samples), prefix.values])
        assert np.linalg.matrix_rank(design) == design.shape[1] - 1
        expected = np.empty(prefix.n_samples)
        for fold in range(plan.k):
            train_rows, eval_rows = plan.fold_indices(fold)
            beta = np.linalg.lstsq(design[train_rows],
                                   prefix.target[train_rows], rcond=None)[0]
            expected[eval_rows] = design[eval_rows] @ beta
        np.testing.assert_allclose(oof, expected, rtol=1e-9)

    def test_the_shipped_defaults_keep_soil_ph(self):
        """On the 84 training rows of canonical generator seed 1, feature
        selection under ``PipelineConfig()`` keeps ``soil_ph``, a real
        feature that RReliefF ranks below a distractor.  At
        patience 1 the search would stop at the first rank that does not
        improve and keep only rainfall and humidity."""
        train, _ = holdout_split(
            generate_synthetic(120, 1, SyntheticSpec.canonical()), 0.3, 7)
        assert train.n_samples == 84
        _, chain, _ = fit_preprocess(train, PipelineConfig())
        assert {"rainfall", "humidity", "soil_ph"} <= set(
            chain.selected_features)

    def test_scored_targets_never_reach_the_fold_chain(self, canonical_raw,
                                                       traced_report):
        """Scaling the targets of one fold's scored rows changes the report
        but no bit of that fold's chain, at any prefix."""
        cfg, report_a, fits_a = traced_report
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
        assert len(prefixes_a) == len(PIPELINE_STAGES) + 1
        for a, b in zip(prefixes_a, prefixes_b):
            _assert_same_fit(a, b)
        # Every other fold trains on the scaled rows.
        (raw_a, _), (raw_b, _) = fits_a[0][0][0], fits_b[0][0][0]
        assert not np.array_equal(raw_a.target, raw_b.target)


class TestStageReport:
    def test_every_stage_is_scored_in_yield_units(self, traced_report):
        cfg, report, _ = traced_report
        assert PIPELINE_STAGES[-1] == "feature_transformation"
        before = report.rmse[:, STAGE_NAMES.index("outlier_removal")]
        after = report.rmse[:, STAGE_NAMES.index("feature_transformation")]
        for model, b, a in zip(STAGE_MODELS, before, after):
            assert b / 2.0 <= a <= 2.0 * b, model

    def test_one_chain_fit_per_training_set(self, traced_report):
        cfg, _, fits = traced_report
        assert len(fits) == cfg.cv_folds

    def test_scaling_does_not_move_the_least_squares_cell(self, traced_report):
        """Least squares predictions do not change when a column is scaled,
        and both columns read the same selected features."""
        cfg, report, _ = traced_report
        assert PIPELINE_STAGES[:2] == ("feature_selection", "feature_scaling")
        mlr = report.rmse[STAGE_MODELS.index("mlr")]
        np.testing.assert_allclose(mlr[STAGE_NAMES.index("feature_scaling")],
                                   mlr[STAGE_NAMES.index("feature_selection")],
                                   rtol=1e-9)


def _unpicklable(*args):
    class Local(TeaYieldError):  # a class defined here cannot be pickled
        pass
    raise Local("planted")


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def _raises(exc):
    def fit(*args):
        raise exc
    return fit


def _sleeps(*args):
    time.sleep(60)


def _wait_for(path) -> None:
    """Wait for the marker file ``path``, which another process writes."""
    deadline = time.monotonic() + 60.0
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no {path.name}")
        time.sleep(0.005)


def _schedule_folds(monkeypatch, marks, hold):
    """Patch ``stage_fold`` to leave the marker ``ran-<fold>-<pid>`` in
    ``marks`` and call ``hold(fold, in_parent)`` before the real fold.

    Returns a function that reads the markers: for each fold that ran,
    whether the parent ran it.
    """
    parent, real = os.getpid(), pipeline.stage_fold

    def fold_fn(raw, cfg, seed, fold):
        (marks / f"ran-{fold}-{os.getpid()}").touch()
        hold(fold, os.getpid() == parent)
        return real(raw, cfg, seed, fold)

    def in_parent() -> dict[int, bool]:
        ran = [path.name.split("-")[1:] for path in marks.glob("ran-*")]
        return {int(fold): int(pid) == parent for fold, pid in ran}

    monkeypatch.setattr(pipeline, "stage_fold", fold_fn)
    return in_parent


def _after(marker, train):
    """``train`` once the marker file ``marker`` exists."""
    def fit(*args):
        _wait_for(marker)
        return train(*args)
    return fit


def _after_fold_0(marks, train):
    """``train`` once this process, the parent, has claimed fold 0."""
    return _after(marks / f"ran-0-{os.getpid()}", train)


@pytest.fixture(scope="module")
def serial_evaluation(canonical_raw):
    """The ``tiny_config`` stage report and hold-out metrics made in one
    process: ``stage_report``, then the ensemble."""
    cfg = tiny_config()
    train_m, test_m = holdout_split(
        canonical_raw, cfg.holdout_fraction,
        derive_seed(cfg.seed, pipeline._TAG_HOLDOUT))
    serial = stage_report(train_m, cfg, cfg.seed)
    model = train_ensemble_pipeline(train_m, cfg).model
    return serial, metrics(test_m.target, predict_ensemble(model, test_m))


@pytest.fixture()
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to two for
    the test and restored after it."""
    calls = pipeline._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS has no thread-count calls")
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


class TestEvaluateInTwoProcesses:
    """``evaluate_pipeline``'s forked child runs the ensemble, then claims
    stage-report folds along with the parent; it inherits the ``pipeline``
    functions patched before the call."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child_left()

    def test_the_result_is_the_serial_chain_bit_for_bit(
            self, canonical_raw, serial_evaluation):
        serial, holdout = serial_evaluation
        result = evaluate_pipeline(canonical_raw, tiny_config())
        assert result.stage.rmse.shape == serial.rmse.shape
        assert (result.stage.rmse == serial.rmse).all()
        assert result.holdout == holdout

    @pytest.mark.parametrize("split", ["parent-runs-every-fold",
                                       "child-runs-most-folds"])
    def test_a_forced_split_is_the_serial_result_bit_for_bit(
            self, canonical_raw, serial_evaluation, monkeypatch, tmp_path,
            split):
        """Either the child's ensemble waits until the parent starts the
        last fold, so the parent runs every fold; or the parent holds fold 0
        until the child starts the last fold, so the child runs the rest."""
        k = tiny_config().cv_folds
        go = tmp_path / "go"

        def hold(fold, in_parent):
            if split == "child-runs-most-folds" and in_parent:
                _wait_for(go)
            elif fold == k - 1:
                go.touch()

        in_parent = _schedule_folds(monkeypatch, tmp_path, hold)
        train = _after_fold_0(tmp_path, pipeline.train_ensemble_pipeline)
        if split == "parent-runs-every-fold":
            train = _after(go, train)
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline", train)
        result = evaluate_pipeline(canonical_raw, tiny_config())
        assert in_parent() == {fold: split == "parent-runs-every-fold"
                               or fold == 0 for fold in range(k)}
        serial, holdout = serial_evaluation
        assert (result.stage.rmse == serial.rmse).all()
        assert result.holdout == holdout

    def test_an_ensemble_error_keeps_its_type_and_message(
            self, canonical_raw, monkeypatch):
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline",
                            _raises(FitError("planted ensemble failure")))
        with pytest.raises(FitError, match="^planted ensemble failure$"):
            evaluate_pipeline(canonical_raw, tiny_config())

    def test_the_stage_report_error_wins(self, canonical_raw, monkeypatch):
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline",
                            _raises(FitError("ensemble")))
        monkeypatch.setattr(pipeline, "stage_fold",
                            _raises(DataError("stage report")))
        with pytest.raises(DataError, match="^stage report$"):
            evaluate_pipeline(canonical_raw, tiny_config())

    def test_each_process_runs_one_blas_thread(
            self, canonical_raw, monkeypatch, tmp_path, blas_threads):
        """Every task, the child's ensemble and the folds of both processes,
        sees one BLAS thread, and the parent has its two back after."""
        def seen(real):
            def task(*args):
                (tmp_path / f"{os.getpid()}-{blas_threads()}").touch()
                return real(*args)
            return task

        for name in ("stage_fold", "train_ensemble_pipeline"):
            monkeypatch.setattr(pipeline, name, seen(getattr(pipeline, name)))
        evaluate_pipeline(canonical_raw, tiny_config())
        marks = {tuple(path.name.split("-")) for path in tmp_path.iterdir()}
        pids = {pid for pid, _ in marks}
        assert str(os.getpid()) in pids and len(pids) == 2
        assert {threads for _, threads in marks} == {"1"}
        assert blas_threads() == 2

    def test_a_failed_evaluation_restores_the_blas_threads(
            self, canonical_raw, monkeypatch, blas_threads):
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline",
                            _raises(FitError("ensemble")))
        monkeypatch.setattr(pipeline, "stage_fold",
                            _raises(DataError("stage report")))
        with pytest.raises(DataError, match="^stage report$"):
            evaluate_pipeline(canonical_raw, tiny_config())
        assert blas_threads() == 2

    @pytest.mark.parametrize("fit,status", [(_killed, -signal.SIGKILL),
                                            (_unpicklable, 1)],
                             ids=["killed", "unpicklable"])
    def test_no_result_is_an_error_naming_the_exit_status(
            self, canonical_raw, monkeypatch, fit, status):
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline", fit)
        with pytest.raises(RuntimeError, match=fr"\(exit status {status}\)$"):
            evaluate_pipeline(canonical_raw, tiny_config())

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), DataError("stop")])
    def test_a_stopped_stage_report_ends_a_running_child(
            self, canonical_raw, monkeypatch, exc):
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline", _sleeps)
        monkeypatch.setattr(pipeline, "stage_fold", _raises(exc))
        start = time.perf_counter()
        with pytest.raises(type(exc)):
            evaluate_pipeline(canonical_raw, tiny_config())
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("module,plant,error,message", [
        (pipeline, "fit_chain", DataError,
         "^training rows of stage-report fold 1: planted$"),
        (regressors, "fit_gpr", FitError,
         "^stage 'raw', model 'gpr': planted$")],
        ids=["chain", "cell"])
    def test_a_child_fold_error_beats_later_folds_and_the_ensemble(
            self, canonical_raw, monkeypatch, tmp_path, module, plant, error,
            message):
        """The ensemble fails.  The parent holds fold 0 until the
        child has fold 1, then fails a later fold; only then does the child
        fail fold 1, inside ``stage_fold``."""
        child_has_1 = tmp_path / "child-has-1"
        parent_has_later = tmp_path / "parent-has-later"
        current = {}

        def hold(fold, in_parent):
            current["fold"] = None if in_parent else fold
            if in_parent and fold == 0:
                _wait_for(child_has_1)
            elif in_parent:
                parent_has_later.touch()
                raise FitError("a later fold in the parent")
            elif fold == 1:
                child_has_1.touch()
                _wait_for(parent_has_later)

        def planted(real):
            def fit(*args, **kw):
                if current.get("fold") == 1:
                    raise error("planted")
                return real(*args, **kw)
            return fit

        in_parent = _schedule_folds(monkeypatch, tmp_path, hold)
        monkeypatch.setattr(module, plant, planted(getattr(module, plant)))
        monkeypatch.setattr(pipeline, "train_ensemble_pipeline", _after_fold_0(
            tmp_path, _raises(FitError("planted ensemble failure"))))
        with pytest.raises(error, match=message):
            evaluate_pipeline(canonical_raw, tiny_config())
        ran = in_parent()
        assert ran[0] and not ran[1]
        assert any(ran[fold] for fold in ran if fold > 1)


def test_a_full_task_queue_leaves_the_rest_to_the_parent():
    """A pipe holds 16,384 task numbers; the tasks after them are returned
    for the parent to run, in order, once the queue is empty."""
    tasks = range(1, 20_001)
    claim, spill = pipeline._task_queue(tasks)
    try:
        claimed = list(pipeline._claims(claim))
    finally:
        os.close(claim)
    assert len(spill) > 0
    assert claimed + list(spill) == list(tasks)


def test_the_benchmark_holds_out_the_rows_evaluate_holds_out():
    """``benchmarks/helper.py`` writes the training side of ``evaluate``'s
    hold-out split, drawn from its own copy of the seed stream tag."""
    tree = ast.parse((PACKAGE.parent.parent / "benchmarks" / "helper.py"
                      ).read_text(encoding="utf-8"))
    tags = [ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets]
            == ["HOLDOUT_STREAM"]]
    assert tags == [pipeline._TAG_HOLDOUT]
