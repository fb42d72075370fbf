"""End-to-end pipeline: staged preprocessing, ensemble training, and the
stage-by-stage cross-validation report.

The preprocessing chain runs the configured stages in order (the default
order is selection, scaling, outlier removal, transformation) and keeps
the fitted chain after every stage prefix.  The stage report reads its
columns from those prefixes.  By default it fits the chain once inside
every training fold, so no statistic computed from scored rows leaks into
fitting; ``paper_faithful = true`` instead fits it once on all rows before
folding, reproducing the simpler traditional procedure.  Outlier removal
drops training rows only, and a fitted chain never drops a row it scores,
so the default report scores every row.  The ``paper_faithful`` report
does not: it cross-validates over each prefix's matrix, so from the outlier
removal column on, the rows that stage flagged are never scored.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig
from .dataset import FeatureMatrix
from .ensemble import (EnsembleModel, PoolReport, assemble, predict_ensemble,
                       rank_learners, select_learners, train_pool)
from .errors import DataError, FitError
from .evaluation import (MetricsReport, cross_validate, holdout_split,
                         make_folds, metrics)
from .feature_select import (RankedFeatures, SelectionResult, rrelieff,
                             sequential_forward_select)
from .preprocess import (OutlierReport, PreprocessState, cooks_distance,
                         fit_scaler, independent_columns, remove_outliers)
from .regressors import make_gpr_factory, make_linear_factory, make_mlp_factory
from .util import derive_seed, write_table

STAGE_MODELS = ("mlr", "gpr", "mlp")

# Seed stream tags for the master seed.
(_TAG_SELECT, _TAG_POOL, _TAG_PICK, _TAG_STAGE, _TAG_HOLDOUT,
 _TAG_CHAIN) = range(1, 7)


@dataclass(frozen=True)
class ChainArtifacts:
    ranked: RankedFeatures | None = None
    selection: SelectionResult | None = None
    outliers: OutlierReport | None = None


@dataclass(frozen=True)
class StageReport:
    stage_names: tuple[str, ...]
    model_names: tuple[str, ...]
    rmse: np.ndarray  # (n_models, n_stages)
    mlp_replicates: int  # network trainings averaged in each mlp cell
    mode: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.rmse)):
            raise FitError("stage report contains non-finite cells")

    def cell(self, model: str, stage: str) -> float:
        return float(self.rmse[self.model_names.index(model),
                               self.stage_names.index(stage)])

    def to_csv(self, path) -> None:
        write_table(path, ["model", "stage", "cv_rmse", "replicates", "mode"],
                    ([model, stage, repr(float(self.rmse[i, j])),
                      self.mlp_replicates if model == "mlp" else 1,
                      self.mode]
                     for i, model in enumerate(self.model_names)
                     for j, stage in enumerate(self.stage_names)))


def sfs_evaluator(cfg: PipelineConfig):
    """Learner factory used to score feature prefixes."""
    if cfg.sfs_evaluator == "ridge":
        return make_linear_factory(cfg.sfs_ridge_lambda, standardize_features=True)
    if cfg.sfs_evaluator == "ols":
        return make_linear_factory(0.0, drop_dependent=True)
    if cfg.sfs_evaluator == "gpr":
        return make_gpr_factory(cfg.gpr_signal_var, cfg.gpr_length_scale,
                                cfg.gpr_noise_var)
    return make_mlp_factory(cfg.mlp)


def fit_chain(m: FeatureMatrix, cfg: PipelineConfig, seed: int
              ) -> tuple[list[tuple[FeatureMatrix, PreprocessState]],
                         ChainArtifacts]:
    """Fit the staged preprocessing on training data, stage by stage.

    Returns one ``(matrix, chain)`` pair per stage prefix, for the first k
    of ``cfg.stages`` with k = 0 .. len(cfg.stages), and the per-stage
    artifacts.  The chain adds no column to ``m``: it only selects, scales
    and logs columns and maps the target.  A stage only fits: it sets its
    part of the chain, and outlier removal drops rows from the kept raw
    rows.  Each prefix matrix is then its chain replayed on the kept rows
    (``apply_features`` and ``transform_target``, the code that scores new
    rows), and the next stage fits on it.  The chain keeps target center 0
    and scale 1.  A stage reads only what the stages before it produced, so
    prefix k equals the last prefix of a fit of ``cfg.stages[:k]`` with the
    same seed.  A log-transform error names the row of the given matrix,
    also after outlier removal has dropped rows before it.
    """
    kept = m
    rows = np.arange(m.n_samples)  # the given row of each kept row
    chain = PreprocessState(
        month_encoding=cfg.month_encoding, stage_order=(),
        selected_features=m.column_names, scaler=None, log_features=(),
        log_target=False, target_center=0.0, target_scale=1.0)
    ranked = selection = outliers = None
    prefixes = [(m, chain)]
    for stage in cfg.stages:
        if stage == "feature_selection":
            ranked = rrelieff(m, k=cfg.relieff.k,
                              iterations=cfg.relieff.iterations,
                              seed=derive_seed(seed, 1),
                              decay_sigma=cfg.relieff.decay_sigma)
            selection = sequential_forward_select(
                m, ranked, sfs_evaluator(cfg), folds=cfg.cv_folds,
                seed=derive_seed(seed, 2), patience=cfg.sfs_patience)
            chain = replace(chain, selected_features=selection.selected)
        elif stage == "feature_scaling":
            columns = cfg.scale_columns  # None scales every column
            if columns is not None:
                columns = tuple(c for c in columns if c in m.column_names)
            if columns != ():
                chain = replace(chain, scaler=fit_scaler(m, columns))
        elif stage == "outlier_removal":
            outliers = cooks_distance(m.subset(independent_columns(m)),
                                      cfg.outlier_threshold_for(m.n_samples))
            kept = remove_outliers(kept, outliers)
            rows = np.delete(rows, outliers.flagged)
        elif stage == "feature_transformation":
            chain = replace(chain, log_target=cfg.log_target,
                            log_features=tuple(c for c in cfg.log_features
                                               if c in m.column_names))
        chain = replace(chain, stage_order=chain.stage_order + (stage,))
        m = chain.apply_features(kept, rows).with_target(
            chain.transform_target(kept.target, rows))
        prefixes.append((m, chain))
    return prefixes, ChainArtifacts(ranked, selection, outliers)


def fit_preprocess(m: FeatureMatrix, cfg: PipelineConfig
                   ) -> tuple[FeatureMatrix, PreprocessState, ChainArtifacts]:
    """Fit the full chain and standardize the target for pool training."""
    prefixes, artifacts = fit_chain(m, cfg, derive_seed(cfg.seed, _TAG_SELECT))
    processed, chain = prefixes[-1]
    mu = float(processed.target.mean())
    sd = float(processed.target.std(ddof=1)) if processed.n_samples > 1 else 0.0
    if sd == 0.0:
        raise FitError("target is constant after preprocessing; cannot train")
    processed = processed.with_target((processed.target - mu) / sd)
    return (processed, replace(chain, target_center=mu, target_scale=sd),
            artifacts)


@dataclass(frozen=True)
class TrainingResult:
    model: EnsembleModel
    pool_report: PoolReport
    artifacts: ChainArtifacts


def train_ensemble_pipeline(m: FeatureMatrix, cfg: PipelineConfig) -> TrainingResult:
    """The full procedure: preprocess, pool, rank, select, weight."""
    processed, state, artifacts = fit_preprocess(m, cfg)
    pool = train_pool(processed, cfg.ensemble, derive_seed(cfg.seed, _TAG_POOL))
    ranking = rank_learners(pool, processed, cfg.relieff)
    selection = select_learners(pool, ranking, processed, cfg.ensemble,
                                folds=cfg.cv_folds,
                                seed=derive_seed(cfg.seed, _TAG_PICK),
                                patience=cfg.ensemble_patience)
    model = assemble(pool, selection, cfg.ensemble, state)
    return TrainingResult(model, PoolReport(pool, ranking, selection), artifacts)


def _stage_factories(cfg: PipelineConfig) -> dict:
    return {
        "mlr": make_linear_factory(0.0, drop_dependent=True),
        "gpr": make_gpr_factory(cfg.gpr_signal_var, cfg.gpr_length_scale,
                                cfg.gpr_noise_var),
        "mlp": make_mlp_factory(cfg.mlp),
    }


@contextmanager
def _naming(stage: str, model: str):
    """Prefix a fit or data error raised inside with its stage-report cell."""
    try:
        yield
    except (FitError, DataError) as exc:
        raise type(exc)(f"stage {stage!r}, model {model!r}: {exc}") from exc


def stage_report(raw: FeatureMatrix, cfg: PipelineConfig, seed: int) -> StageReport:
    """CV RMSE of each in-scope model after each cumulative pipeline stage.

    The "raw" column uses no preprocessing; column j adds the first j
    configured stages.  The chain is fitted once per training fold (once on
    all rows with ``paper_faithful``), and column j is scored through its
    prefix j, so neighbouring columns differ by their stage alone: the same
    selected features, scaler and dropped rows.  Every cell is scored in
    yield units.  The network cell is the mean of ``mlp_replicates``
    independently seeded trainings.  All models in a column share one fold
    plan.  By default every row is scored in every column; with
    ``paper_faithful`` a column is cross-validated over its prefix's matrix,
    so the rows outlier removal flagged are not scored in its column or any
    later one.
    """
    stage_names = ("raw",) + tuple(cfg.stages)
    factories = _stage_factories(cfg)
    cells = [(j, model, derive_seed(seed, _TAG_STAGE, j, i, r))
             for j in range(len(stage_names))
             for i, model in enumerate(STAGE_MODELS)
             for r in range(cfg.mlp_replicates if model == "mlp" else 1)]
    plan_seed = derive_seed(seed, _TAG_STAGE)
    if cfg.paper_faithful:
        prefixes, _ = fit_chain(raw, cfg, derive_seed(seed, _TAG_CHAIN))
        scores = []
        for j, model, fit_seed in cells:
            stage_m, chain = prefixes[j]
            plan = make_folds(stage_m.n_samples, cfg.cv_folds, plan_seed)
            with _naming(stage_names[j], model):
                oof = cross_validate(stage_m, factories[model], plan, fit_seed)
            scores.append(metrics(chain.invert_target(stage_m.target),
                                  chain.invert_target(oof)).rmse)
    else:
        # Predictions are mapped back to yield units through each fold's
        # chain, and no statistic of the scored rows reaches the chain.
        oof = np.empty((len(cells), raw.n_samples))  # a row per cell
        plan = make_folds(raw.n_samples, cfg.cv_folds, plan_seed)
        for fold in range(plan.k):
            train_rows, eval_rows = plan.fold_indices(fold)
            prefixes, _ = fit_chain(raw.take_rows(train_rows), cfg,
                                    derive_seed(seed, _TAG_CHAIN, fold))
            eval_raw = raw.take_rows(eval_rows)
            for c, (j, model, fit_seed) in enumerate(cells):
                train_m, chain = prefixes[j]
                with _naming(stage_names[j], model):
                    predict_fn = factories[model](train_m,
                                                  derive_seed(fit_seed, fold))
                    oof[c, eval_rows] = chain.invert_target(np.asarray(
                        predict_fn(chain.apply_features(eval_raw)),
                        dtype=np.float64))
        scores = [metrics(raw.target, row).rmse for row in oof]

    values: dict[tuple[str, int], list[float]] = {}
    for (j, model, _), score in zip(cells, scores):
        values.setdefault((model, j), []).append(score)
    columns = range(len(stage_names))
    rmse = np.array([[np.mean(values[model, j]) for j in columns]
                     for model in STAGE_MODELS])
    return StageReport(stage_names, STAGE_MODELS, rmse, cfg.mlp_replicates,
                       "paper_faithful" if cfg.paper_faithful else "fold_refit")


@dataclass(frozen=True)
class HoldoutEvaluation:
    stage: StageReport
    holdout: MetricsReport


def evaluate_pipeline(m: FeatureMatrix, cfg: PipelineConfig) -> HoldoutEvaluation:
    """Hold out a test split, build the stage report and the ensemble on the
    training side only, then score the ensemble on the untouched split."""
    train_m, test_m = holdout_split(m, cfg.holdout_fraction,
                                    derive_seed(cfg.seed, _TAG_HOLDOUT))
    report = stage_report(train_m, cfg, cfg.seed)
    result = train_ensemble_pipeline(train_m, cfg)
    preds = predict_ensemble(result.model, test_m)
    return HoldoutEvaluation(report, metrics(test_m.target, preds))
