"""End-to-end pipeline: staged preprocessing, ensemble training, and the
stage-by-stage cross-validation report.

The preprocessing chain is fixed: feature selection, scaling of every
selected column, outlier removal, and the log of the target, in that order
(``preprocess.PIPELINE_STAGES``).  Fitting it keeps the fitted chain after
every stage prefix, and the stage report reads its columns from those
prefixes.  It fits the chain once inside every training fold, so no
statistic computed from scored rows leaks into fitting.
Outlier removal drops training rows only, and a fitted chain never drops a
row it scores, so the report scores every row in every column.

``evaluate_pipeline`` runs in two processes.  After the hold-out split it
forks one child, which fits the ensemble on the training side and sends
back its predictions for the held-out rows; meanwhile the parent builds
the stage report.  The two halves share nothing but their inputs, and each
is the same deterministic code on the same rows as in one process, so every
output bit is the same.  When both halves fail, the stage report's error
is raised, as when one process runs them in turn.  ``train``, ``predict``
and each single fit run in one process.
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
from .evaluation import MetricsReport, holdout_split, make_folds, metrics
from .feature_select import (RankedFeatures, SelectionResult, rrelieff,
                             sequential_forward_select)
from .preprocess import (PIPELINE_STAGES, OutlierReport, PreprocessState,
                         cooks_distance, fit_scaler, independent_columns,
                         remove_outliers)
from .regressors import make_gpr_factory, make_linear_factory, make_mlp_factory
from .util import derive_seed, write_table

# The stage report's rows and its columns (see ``stage_report``).
STAGE_MODELS = ("mlr", "gpr", "mlp")
STAGE_NAMES = ("raw",) + PIPELINE_STAGES

# Seed stream tags for the master seed.
(_TAG_SELECT, _TAG_POOL, _TAG_PICK, _TAG_STAGE, _TAG_HOLDOUT,
 _TAG_CHAIN) = range(1, 7)


@dataclass(frozen=True)
class ChainArtifacts:
    ranked: RankedFeatures
    selection: SelectionResult
    outliers: OutlierReport


@dataclass(frozen=True)
class StageReport:
    rmse: np.ndarray  # (STAGE_MODELS, STAGE_NAMES)
    mlp_replicates: int  # network trainings averaged in each mlp cell

    def __post_init__(self):
        if not np.all(np.isfinite(self.rmse)):
            raise FitError("stage report contains non-finite cells")

    def to_csv(self, path) -> None:
        write_table(path, ["model", "stage", "cv_rmse", "replicates"],
                    ([model, stage, repr(float(self.rmse[i, j])),
                      self.mlp_replicates if model == "mlp" else 1]
                     for i, model in enumerate(STAGE_MODELS)
                     for j, stage in enumerate(STAGE_NAMES)))


def _check_rows(cfg: PipelineConfig, n: int, chosen: str) -> None:
    """Before RReliefF ranks ``chosen`` on ``n`` rows and the forward search
    folds them, raise a DataError naming ``[relieff] k`` or
    ``[evaluation] cv_folds``, its value and ``n`` if the rows are too few
    for it."""
    k = cfg.relieff.k
    if k >= n:
        raise DataError(f"[relieff] k = {k} needs more than {k} rows to rank "
                        f"{chosen}, got {n}")
    if cfg.cv_folds > n:
        raise DataError(f"[evaluation] cv_folds = {cfg.cv_folds} needs at "
                        f"least {cfg.cv_folds} rows to select {chosen}, "
                        f"got {n}")


def fit_chain(m: FeatureMatrix, cfg: PipelineConfig, seed: int
              ) -> tuple[list[tuple[FeatureMatrix, PreprocessState]],
                         ChainArtifacts]:
    """Fit the preprocessing chain on training data, stage by stage.

    Returns one ``(matrix, chain)`` pair per stage prefix, for the first k
    of ``PIPELINE_STAGES`` with k = 0 .. 4, and the per-stage artifacts.
    The chain adds no column to ``m``: it only selects and scales columns
    and maps the target.  A stage only fits, and sets its part of the
    chain: selection the selected features, scaling a scaler of every
    selected column, the transformation the log of the target; outlier
    removal sets no part, and drops rows from the kept raw rows.  Each
    prefix matrix is then its chain replayed on the kept rows
    (``apply_features`` and ``transform_target``, the code that scores new
    rows), and the next stage fits on it.  The chain keeps target center 0
    and scale 1.  A log error names the row of the given matrix, also after
    outlier removal has dropped rows before it.
    """
    kept = m
    rows = np.arange(m.n_samples)  # the given row of each kept row
    chain = PreprocessState(
        selected_features=m.column_names, scaler=None, log_target=False,
        target_center=0.0, target_scale=1.0)
    prefixes = [(m, chain)]

    def next_prefix(**parts) -> None:
        """Set the next stage's ``parts`` of the chain, and replay it."""
        nonlocal m, chain
        chain = replace(chain, **parts)
        m = chain.apply_features(kept).with_target(
            chain.transform_target(kept.target, rows))
        prefixes.append((m, chain))

    _check_rows(cfg, m.n_samples, "features")
    ranked = rrelieff(m, k=cfg.relieff.k)
    selection = sequential_forward_select(
        m, ranked, make_linear_factory(cfg.sfs_ridge_lambda,
                                       standardize_features=True),
        folds=cfg.cv_folds, seed=derive_seed(seed, 2),
        patience=cfg.sfs_patience)
    next_prefix(selected_features=selection.selected)
    next_prefix(scaler=fit_scaler(m))
    outliers = cooks_distance(m.subset(independent_columns(m)),
                              cfg.outlier_threshold)
    kept = remove_outliers(kept, outliers)
    rows = np.delete(rows, outliers.flagged)
    next_prefix()
    next_prefix(log_target=True)
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
    _check_rows(cfg, processed.n_samples, "learners")
    pool = train_pool(processed, cfg.ensemble, derive_seed(cfg.seed, _TAG_POOL))
    ranking = rank_learners(pool, processed, cfg.relieff)
    selection = select_learners(pool, ranking, processed, cfg.ensemble,
                                folds=cfg.cv_folds,
                                seed=derive_seed(cfg.seed, _TAG_PICK),
                                patience=cfg.ensemble_patience)
    model = assemble(pool, selection, state)
    return TrainingResult(model, PoolReport(pool, ranking, selection), artifacts)


def _stage_factories(cfg: PipelineConfig) -> dict:
    return {
        "mlr": make_linear_factory(0.0, drop_dependent=True),
        "gpr": make_gpr_factory(cfg.gpr_signal_var, cfg.gpr_length_scale,
                                cfg.gpr_noise_var),
        "mlp": make_mlp_factory(cfg.mlp),
    }


@contextmanager
def _naming(where: str):
    """Prefix a fit or data error raised inside with where it arose."""
    try:
        yield
    except (FitError, DataError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def stage_report(raw: FeatureMatrix, cfg: PipelineConfig, seed: int) -> StageReport:
    """CV RMSE of each in-scope model after each cumulative pipeline stage.

    The "raw" column uses no preprocessing; column j adds the first j
    stages of the chain.  The chain is fitted once per training fold, and
    column j is scored through its prefix j, so neighbouring columns differ
    by their stage alone: the same selected features, scaler and dropped
    rows.  Every row is scored in every column, in yield units: predictions
    are mapped back through each fold's chain, and no statistic of the
    scored rows reaches the chain.  The network cell is the mean of
    ``mlp_replicates`` independently seeded trainings.  All cells share one
    fold plan.
    """
    factories = _stage_factories(cfg)
    cells = [(j, model, derive_seed(seed, _TAG_STAGE, j, i, r))
             for j in range(len(STAGE_NAMES))
             for i, model in enumerate(STAGE_MODELS)
             for r in range(cfg.mlp_replicates if model == "mlp" else 1)]
    oof = np.empty((len(cells), raw.n_samples))  # a row per cell
    plan = make_folds(raw.n_samples, cfg.cv_folds,
                      derive_seed(seed, _TAG_STAGE))
    for fold in range(plan.k):
        train_rows, eval_rows = plan.fold_indices(fold)
        with _naming(f"training rows of stage-report fold {fold}"):
            prefixes, _ = fit_chain(raw.take_rows(train_rows), cfg,
                                    derive_seed(seed, _TAG_CHAIN, fold))
        eval_raw = raw.take_rows(eval_rows)
        for c, (j, model, fit_seed) in enumerate(cells):
            train_m, chain = prefixes[j]
            with _naming(f"stage {STAGE_NAMES[j]!r}, model {model!r}"):
                predict_fn = factories[model](train_m,
                                              derive_seed(fit_seed, fold))
                oof[c, eval_rows] = chain.invert_target(np.asarray(
                    predict_fn(chain.apply_features(eval_raw)),
                    dtype=np.float64))
    scores = [metrics(raw.target, row).rmse for row in oof]

    values: dict[tuple[str, int], list[float]] = {}
    for (j, model, _), score in zip(cells, scores):
        values.setdefault((model, j), []).append(score)
    columns = range(len(STAGE_NAMES))
    rmse = np.array([[np.mean(values[model, j]) for j in columns]
                     for model in STAGE_MODELS])
    return StageReport(rmse, cfg.mlp_replicates)


@dataclass(frozen=True)
class HoldoutEvaluation:
    stage: StageReport
    holdout: MetricsReport


def evaluate_pipeline(m: FeatureMatrix, cfg: PipelineConfig) -> HoldoutEvaluation:
    """Hold out a test split, build the stage report and the ensemble on the
    training side only, then score the ensemble on the untouched split.

    The two halves run side by side.  A forked child process fits the
    ensemble and sends back its hold-out predictions, one float64 vector,
    or the exception that stopped it; the parent builds the stage report
    meanwhile.  Each half is the code a serial run would call, on the same
    inputs and seeds, so the result is bit for bit the serial one.  Errors
    are those of the serial run, which builds the stage report first: when
    both halves fail, the stage report's error wins, and the child's
    exception is raised again here with its type and message.  A child that
    ends without a readable result, because it was killed or its exception
    could not be pickled, is a RuntimeError naming its exit status.  The
    child is terminated and joined before this returns or raises.

    The child is forked, so it starts with the parent's imported modules
    and data and pickles only its result; numpy's OpenBLAS shuts its
    thread pool down before a fork.
    """
    train_m, test_m = holdout_split(m, cfg.holdout_fraction,
                                    derive_seed(cfg.seed, _TAG_HOLDOUT))
    if cfg.cv_folds > train_m.n_samples:
        raise DataError(f"[evaluation] cv_folds = {cfg.cv_folds} needs at "
                        f"least {cfg.cv_folds} rows to fold, but the hold-out "
                        f"split leaves {train_m.n_samples} training rows")
    import multiprocessing  # here, not at the top: it slows every import

    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_ensemble_half,
                            args=(train_m, test_m, cfg, send))
    child.start()
    send.close()
    try:
        report = stage_report(train_m, cfg, cfg.seed)
        try:
            preds = receive.recv()
        except Exception:  # EOFError, or a result that does not unpickle
            child.join()
            raise RuntimeError(f"the ensemble process sent no readable "
                               f"result (exit status {child.exitcode})") from None
    finally:
        child.terminate()
        child.join()
        child.close()
        receive.close()
    if isinstance(preds, Exception):
        raise preds
    return HoldoutEvaluation(report, metrics(test_m.target, preds))


def _ensemble_half(train_m: FeatureMatrix, test_m: FeatureMatrix,
                   cfg: PipelineConfig, send) -> None:
    """The child's half of ``evaluate_pipeline``: fit the ensemble and send
    its predictions for ``test_m``, or the exception that stopped it."""
    try:
        result = train_ensemble_pipeline(train_m, cfg)
        send.send(predict_ensemble(result.model, test_m))
    except Exception as exc:  # raised again in the parent
        send.send(exc)
