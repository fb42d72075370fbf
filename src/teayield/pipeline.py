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

``evaluate_pipeline`` runs in two processes that share one queue of
tasks.  After the hold-out split it forks one child with ``os.fork``, which
starts on the ensemble (fit on the training side, then predict the
held-out rows) while the parent starts on the stage-report folds; each then
claims the next unclaimed fold until none is left.  The child sends its
results back as one pickle over a pipe and leaves through ``os._exit``.
Every task is the same deterministic code on the same rows and seeds as in
one process, so every output bit is the same whichever process ran it, and
the error raised is the serial run's: the lowest failing fold's, or else
the ensemble's.  Both processes run numpy's OpenBLAS at one thread: at
1,200 rows, two processes of two BLAS threads each made ``evaluate`` about
four times slower on two cores.  ``train``, ``predict`` and each single fit
run in one process, at the library's thread count.  No command imports
``multiprocessing``: its one fork would cost every ``evaluate`` the memory
of ``socket``, ``selectors`` and ``subprocess``, which it pulls in.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .config import PipelineConfig
from .dataset import FeatureMatrix
from .ensemble import (EnsembleModel, PoolReport, predict_ensemble,
                       rank_learners, select_learners, train_pool)
from .errors import DataError, FitError, naming
from .evaluation import (FoldPlan, MetricsReport, holdout_split,
                         make_folds, metrics)
from .feature_select import (RankedFeatures, SelectionResult, rrelieff,
                             sequential_forward_select)
from .preprocess import (PIPELINE_STAGES, OutlierReport, PreprocessState,
                         cooks_distance, fit_scaler, remove_outliers)
from .regressors import gpr_predictions, mlp_predictions, ols_predictions
from .util import derive_seed, write_table

# The stage report's rows and its columns (see ``stage_report``).
STAGE_MODELS = ("mlr", "gpr", "mlp")
STAGE_NAMES = ("raw",) + PIPELINE_STAGES

# Seed stream tags for the master seed.  Tag 3 seeded the fold refits of
# learner selection, which no longer draws; the other numbers stay, and
# ``benchmarks/helper.py`` repeats ``_TAG_HOLDOUT``.
_TAG_SELECT, _TAG_POOL, _TAG_STAGE, _TAG_HOLDOUT, _TAG_CHAIN = 1, 2, 4, 5, 6


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
    scores them, raise a DataError naming the option, its value and ``n`` if
    the rows are too few for it: ``[relieff] k``; for features, which the
    search folds, ``[evaluation] cv_folds``.  Learners are scored out of
    bag, and ``train_pool`` checks that before it fits one."""
    k = cfg.relieff_k
    if k >= n:
        raise DataError(f"[relieff] k = {k} needs more than {k} rows to rank "
                        f"{chosen}, got {n}")
    if chosen == "features" and cfg.cv_folds > n:
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
    chain: selection the selected features, which the forward search picks
    at the ``feature_select`` constants, scaling a scaler of every selected
    column, the transformation the log of the target; outlier removal sets
    no part, and drops the rows ``cooks_distance`` flags from the kept raw
    rows.  Each prefix matrix is then its chain replayed on the kept rows
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
    ranked = rrelieff(m, k=cfg.relieff_k)
    selection = sequential_forward_select(m, ranked, folds=cfg.cv_folds,
                                          seed=derive_seed(seed, 2))
    next_prefix(selected_features=selection.selected)
    next_prefix(scaler=fit_scaler(m))
    outliers = cooks_distance(m, cfg.outlier_threshold)
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
    pool, preds, out_of_bag = train_pool(processed, cfg.ensemble,
                                         derive_seed(cfg.seed, _TAG_POOL))
    ranking = rank_learners(preds, processed.target, cfg.relieff_k)
    selection = select_learners(pool, ranking, preds, out_of_bag,
                                processed.target, cfg.ensemble)
    model = EnsembleModel(tuple(pool[pos] for pos in
                                selection.selected_positions), state)
    return TrainingResult(model, PoolReport(pool, out_of_bag, ranking,
                                            selection), artifacts)


def _stage_predictions(model: str, train: FeatureMatrix, test: FeatureMatrix,
                       cfg: PipelineConfig, seed: int) -> np.ndarray:
    """The predictions for ``test`` of the stage report's learner ``model``
    fitted on ``train``; only the network draws from ``seed``."""
    if model == "mlr":
        return ols_predictions(train, test)
    if model == "gpr":
        return gpr_predictions(train, test)
    return mlp_predictions(train, test, cfg.mlp, seed)


def _stage_plan(n: int, cfg: PipelineConfig, seed: int) -> FoldPlan:
    """The stage report's one fold plan over ``n`` rows."""
    return make_folds(n, cfg.cv_folds, derive_seed(seed, _TAG_STAGE))


def _stage_cells(cfg: PipelineConfig, seed: int) -> list[tuple[int, str, int]]:
    """The stage report's fits in each fold: ``(column, model, seed)``, one
    per network replicate."""
    return [(j, model, derive_seed(seed, _TAG_STAGE, j, i, r))
            for j in range(len(STAGE_NAMES))
            for i, model in enumerate(STAGE_MODELS)
            for r in range(cfg.mlp_replicates if model == "mlp" else 1)]


def stage_fold(raw: FeatureMatrix, cfg: PipelineConfig, seed: int,
               fold: int) -> np.ndarray:
    """The out-of-fold predictions of stage-report fold ``fold``, in yield
    units: one row per cell of ``_stage_cells``, one column per scored row.

    The chain is fitted once on the fold's training rows and maps the
    fold's rows once per prefix; each cell is fitted on its prefix and scores
    them as that prefix mapped them.  Every seed
    comes from ``seed`` and ``fold``, so a fold's block does not depend on
    which other folds ran, in what order, or in which process.
    """
    train_rows, eval_rows = _stage_plan(raw.n_samples, cfg, seed
                                        ).fold_indices(fold)
    with naming(f"training rows of stage-report fold {fold}"):
        prefixes, _ = fit_chain(raw.take_rows(train_rows), cfg,
                                derive_seed(seed, _TAG_CHAIN, fold))
    eval_raw = raw.take_rows(eval_rows)
    scored = [chain.apply_features(eval_raw) for _, chain in prefixes]
    cells = _stage_cells(cfg, seed)
    block = np.empty((len(cells), len(eval_rows)))
    for c, (j, model, fit_seed) in enumerate(cells):
        train_m, chain = prefixes[j]
        with naming(f"stage {STAGE_NAMES[j]!r}, model {model!r}"):
            preds = _stage_predictions(model, train_m, scored[j], cfg,
                                       derive_seed(fit_seed, fold))
            block[c] = chain.invert_target(np.asarray(preds, dtype=np.float64))
    return block


def _assemble_report(raw: FeatureMatrix, cfg: PipelineConfig, seed: int,
                     blocks: list[np.ndarray]) -> StageReport:
    """The stage report from every fold's ``stage_fold`` block, in fold
    order: each block is scattered to its fold's rows, and each cell is
    scored on every row."""
    plan = _stage_plan(raw.n_samples, cfg, seed)
    cells = _stage_cells(cfg, seed)
    oof = np.empty((len(cells), raw.n_samples))  # a row per cell
    for fold, block in enumerate(blocks):
        oof[:, plan.fold_indices(fold)[1]] = block
    scores = [metrics(raw.target, row).rmse for row in oof]

    values: dict[tuple[str, int], list[float]] = {}
    for (j, model, _), score in zip(cells, scores):
        values.setdefault((model, j), []).append(score)
    columns = range(len(STAGE_NAMES))
    rmse = np.array([[np.mean(values[model, j]) for j in columns]
                     for model in STAGE_MODELS])
    return StageReport(rmse, cfg.mlp_replicates)


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
    fold plan.  The folds run in turn here; ``evaluate_pipeline`` spreads
    the same ``stage_fold`` calls over two processes.
    """
    return _assemble_report(raw, cfg, seed,
                            [stage_fold(raw, cfg, seed, fold)
                             for fold in range(cfg.cv_folds)])


@dataclass(frozen=True)
class HoldoutEvaluation:
    stage: StageReport
    holdout: MetricsReport


def evaluate_pipeline(m: FeatureMatrix, cfg: PipelineConfig) -> HoldoutEvaluation:
    """Hold out a test split, build the stage report and the ensemble on the
    training side only, then score the ensemble on the untouched split.

    The work is k + 1 tasks for two processes: task 0 fits the ensemble and
    predicts the held-out rows, and task f + 1 is ``stage_fold`` for fold f.
    A forked child starts on task 0, the longest, while the parent starts on
    the folds, and each process then claims the next unclaimed fold until
    none is left: Graham's list scheduling, with the long task first.  The
    child sends back every result it made, or the exception that stopped a
    task, once, as one pickle of ``{task: result}`` written to a pipe
    (``_child_tasks``).  Each task is the code a serial run calls, with
    seeds from ``derive_seed`` alone, so the result is bit for bit the
    serial one whichever process ran which task.

    Errors are those of the serial run, which builds the stage report fold
    by fold and then the ensemble.  Each process runs every task it claims,
    failed or not, and the error raised is that of the lowest failing fold,
    with its type and message, or else the ensemble's.  When the parent ran
    every fold up to its own first failure, that error is raised without
    waiting for the child.  A fold's training
    rows are checked before the fork, so a fold too small to select features
    fails at once, as in the serial run.  A child that ends without a
    readable result is a RuntimeError naming its exit status, as
    ``os.waitstatus_to_exitcode`` gives it: minus the signal number for a
    killed child, and 1 for one whose result could not be pickled.  On
    every exit, returned or raised, the child is sent SIGTERM and reaped.

    The child is forked, so it starts with the parent's imported modules
    and data and pickles only its results.  The parent flushes its stdio
    buffers before the fork, so the child writes no output twice, and the
    child flushes its own before ``os._exit``, which runs none of the exit
    handlers it inherited.  numpy's OpenBLAS shuts its thread pool down
    before a fork; the parent sets it to one thread first, which the child
    inherits, and restores the count on every exit (``_one_blas_thread``).
    """
    train_m, test_m = holdout_split(m, cfg.holdout_fraction,
                                    derive_seed(cfg.seed, _TAG_HOLDOUT))
    n = train_m.n_samples
    if cfg.cv_folds > n:
        raise DataError(f"[evaluation] cv_folds = {cfg.cv_folds} needs at "
                        f"least {cfg.cv_folds} rows to fold, but the hold-out "
                        f"split leaves {n} training rows")
    plan = _stage_plan(n, cfg, cfg.seed)
    for fold in range(plan.k):
        with naming(f"training rows of stage-report fold {fold}"):
            _check_rows(cfg, plan.fold_indices(fold)[0].size, "features")

    def run(task: int):
        if task == 0:
            return predict_ensemble(train_ensemble_pipeline(train_m, cfg).model,
                                    test_m)
        return stage_fold(train_m, cfg, cfg.seed, task - 1)

    serial = [*range(1, plan.k + 1), 0]  # the order a serial run fails in
    claim, spill = _task_queue(range(1, plan.k + 1))
    receive, send = os.pipe()
    _flush_stdio()  # or the child writes the parent's buffered output again
    with _one_blas_thread():  # the child inherits the count
        pid = os.fork()
        if pid == 0:
            _child_tasks(run, claim, send)
        os.close(send)
        reaped = False
        try:
            results = _run_tasks(itertools.chain(_claims(claim), spill), run)
            _raise_first_error(results, serial)
            try:
                with open(receive, "rb", closefd=False) as fh:
                    results |= pickle.load(fh)
            except Exception:  # EOFError, or a result that does not unpickle
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                reaped = True
                raise RuntimeError(f"the ensemble process sent no readable "
                                   f"result (exit status {status})") from None
        finally:
            if not reaped:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            os.close(receive)
            os.close(claim)
    _raise_first_error(results, serial)
    report = _assemble_report(train_m, cfg, cfg.seed,
                              [results[task] for task in range(1, plan.k + 1)])
    return HoldoutEvaluation(report, metrics(test_m.target, results[0]))


# Bytes per task number in ``_task_queue``; a 64 KiB pipe holds 16,384.
_TASK_BYTES = 4


def _task_queue(tasks: range) -> tuple[int, range]:
    """A pipe that holds ``tasks`` in order, for processes to claim from, and
    the tasks that did not fit in its buffer.  Its write end is closed, so a
    reader finds the queue empty when a read returns no bytes; a read of one
    task number is atomic, so two readers never claim the same task."""
    claim, write = os.pipe()
    os.set_blocking(write, False)
    queued = 0
    try:
        for task in tasks:
            os.write(write, task.to_bytes(_TASK_BYTES, "little"))
            queued += 1
    except BlockingIOError:  # full; a write this short is all or nothing
        pass
    finally:
        os.close(write)
    return claim, tasks[queued:]


def _claims(claim: int):
    """The task numbers claimed from a ``_task_queue`` pipe, one at a time,
    until it is empty."""
    while record := os.read(claim, _TASK_BYTES):
        yield int.from_bytes(record, "little")


def _run_tasks(tasks, run) -> dict:
    """``{task: run(task)}`` over ``tasks``, with the exception in place of
    the result of a task that raised one."""
    results = {}
    for task in tasks:
        try:
            results[task] = run(task)
        except Exception as exc:  # raised again in the parent
            results[task] = exc
    return results


def _raise_first_error(results: dict, order: list[int]) -> None:
    """Raise the exception of the first task in ``order`` that failed, up to
    the first task that ``results`` lacks."""
    for task in order:
        if task not in results:
            return
        if isinstance(results[task], Exception):
            raise results[task]


def _openblas_threads():
    """The ``(set, get)`` thread-count calls of the OpenBLAS that numpy's
    wheels bundle under ``numpy.libs``, or None: numpy exposes no thread
    control of its own, and a numpy built on another BLAS has no such
    library, or one without these calls."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for name in sorted(os.listdir(libs) if os.path.isdir(libs) else []):
        if name.startswith("libscipy_openblas64_"):
            lib = ctypes.CDLL(os.path.join(libs, name))
            try:
                set_threads = lib.scipy_openblas_set_num_threads64_
                get_threads = lib.scipy_openblas_get_num_threads64_
            except AttributeError:  # an OpenBLAS without these calls
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, and restore the
    count it had on every exit from the block.  Where ``_openblas_threads``
    finds no calls, this does nothing, and the BLAS keeps its threads."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _flush_stdio() -> None:
    """Write out what ``sys.stdout`` and ``sys.stderr`` hold buffered."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def _child_tasks(run, claim: int, send: int) -> NoReturn:
    """The forked child of ``evaluate_pipeline``: run task 0, then claim
    tasks from the queue until it is empty, and write every result to the
    pipe ``send`` as one pickle.  It leaves through ``os._exit``, never back
    into the parent's code: with status 0 once the pickle is written, and
    with status 1 and the traceback on stderr when anything raised, such as
    a result that cannot be pickled."""
    status = 1
    try:
        data = pickle.dumps(_run_tasks(itertools.chain([0], _claims(claim)),
                                       run))
        with open(send, "wb") as fh:
            fh.write(data)
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        _flush_stdio()
        os._exit(status)
