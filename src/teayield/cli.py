"""Batch command-line front end.

Commands: ``synth`` (generate a synthetic dataset), ``inspect`` (correlation
and outlier reports), ``train`` (fit and save the ensemble), ``evaluate``
(stage report plus hold-out metrics), ``predict`` (score new rows with a
saved model).  Exit codes: 0 success, 1 user/data/config error, 2 internal
error.  Diagnostics go to stderr; data goes to stdout only when no output
path is given.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, load_config, paper_defaults
from .dataset import (CANONICAL_SCHEMA, FeatureMatrix, correlation_report,
                      generate_synthetic, load_csv, read_blocks, render_csv,
                      write_csv)
from .ensemble import SCORE_BLOCK, predict_ensemble
from .errors import DataError, TeaYieldError
from .pipeline import evaluate_pipeline, train_ensemble_pipeline
from .preprocess import cooks_distance, independent_columns
from .serialize import load_model, save_model
from .util import write_table


def _read_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else paper_defaults()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _schema(cfg: PipelineConfig) -> tuple[str, ...] | None:
    # With ``feature_columns = auto`` the extra features are the file's own
    # non-canonical columns; otherwise exactly the configured list.
    return (None if cfg.feature_columns is None
            else CANONICAL_SCHEMA + tuple(cfg.feature_columns))


def _load_data(path, cfg: PipelineConfig) -> FeatureMatrix:
    return load_csv(path, _schema(cfg))


def _output(path, directory: bool = False) -> Path:
    """``path`` made ready to write: the directory itself, or a file's
    parent directory, is created, and a file path may not be a directory.
    A failure is a DataError naming the path."""
    out = Path(path)
    try:
        (out if directory else out.parent).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None
    if not directory and out.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    return out


def cmd_synth(args) -> int:
    cfg = _read_config(args)
    m = generate_synthetic(cfg.synth_n, cfg.seed, cfg.synth)
    if args.out:
        write_csv(m, _output(args.out))
        print(f"wrote {m.n_samples} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(render_csv(m))
    return 0


def cmd_inspect(args) -> int:
    cfg = _read_config(args)
    m = _load_data(args.data, cfg)
    out = _output(args.out, directory=True)
    report = correlation_report(m)
    report.to_csv(out / "correlation.csv")
    outliers = cooks_distance(m.subset(independent_columns(m)),
                              cfg.outlier_threshold_for(m.n_samples))
    outliers.to_csv(out / "outliers.csv")
    print(f"correlation and outlier reports written to {out} "
          f"({len(outliers.flagged)} samples flagged at threshold "
          f"{outliers.threshold:g})", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    cfg = _read_config(args)
    m = _load_data(args.data, cfg)
    model_path = _output(args.model)
    out = _output(args.out, directory=True) if args.out else model_path.parent
    result = train_ensemble_pipeline(m, cfg)
    save_model(result.model, model_path)
    result.pool_report.to_csv(out / "pool_report.csv")
    if result.artifacts.ranked is not None:
        result.artifacts.ranked.to_csv(out / "feature_rank.csv")
    if result.artifacts.selection is not None:
        result.artifacts.selection.trace_to_csv(out / "feature_selection_trace.csv")
    print(f"trained ensemble of {len(result.model.learners)} learners; "
          f"model saved to {args.model}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _read_config(args)
    m = _load_data(args.data, cfg)
    out = _output(args.out, directory=True)
    evaluation = evaluate_pipeline(m, cfg)
    evaluation.stage.to_csv(out / "stage_report.csv")
    scored = evaluation.holdout
    metrics = [("mae", repr(scored.mae)), ("mse", repr(scored.mse)),
               ("rmse", repr(scored.rmse)),
               ("r2", "undefined" if scored.r2 is None else repr(scored.r2))]
    lines = [f"{metric} = {text}" for metric, text in metrics]
    (out / "holdout_metrics.txt").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
    write_table(out / "holdout_metrics.csv", ["metric", "value"], metrics)
    print("\n".join(lines))
    print(f"stage report and hold-out metrics written to {out}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    """Score the rows of ``--data`` with a saved model.

    The file is read and scored in blocks of ``SCORE_BLOCK`` data rows,
    keeping one prediction per row until it ends; a row's prediction does
    not depend on the other rows, so that equals scoring the whole file.
    Blocks meet a file's faults in another order than the whole file does:
    a log-transform error in the first block can precede a bad cell in the
    last, and the non-finite and underflow checks count every row.  So when
    any block fails, the whole file is loaded and scored, and its error, row
    and count are reported.  Nothing is written unless every row is scored.
    """
    cfg = _read_config(args)
    out = _output(args.out) if args.out else None
    model = load_model(args.model)
    source = (args.data, _schema(cfg), False)
    try:
        preds = np.concatenate([predict_ensemble(model, block) for block
                                in read_blocks(*source, block=SCORE_BLOCK)])
    except DataError:
        preds = predict_ensemble(model, load_csv(*source))
    write_table(out, ["row", "prediction"],
                ([i, repr(v)] for i, v in enumerate(map(float, preds))))
    if out is not None:
        print(f"wrote {len(preds)} predictions to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teayield",
        description="Monthly crop-yield modeling: staged preprocessing, "
                    "baseline regressors, and a selected error-weighted "
                    "ensemble of shallow networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, data=False, model_in=False,
            model_out=False, out_required=False, out_help="output directory"):
        p = sub.add_parser(name, help=help_text)
        if data:
            p.add_argument("--data", required=True, help="input CSV file")
        if model_in:
            p.add_argument("--model", required=True, help="saved model file")
        if model_out:
            p.add_argument("--model", required=True,
                           help="where to write the trained model")
        p.add_argument("--config", help="INI config file (defaults apply if omitted)")
        p.add_argument("--out", required=out_required, help=out_help)
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(fn=fn)
        return p

    add("synth", cmd_synth, "generate a synthetic dataset CSV",
        out_help="output CSV path (stdout if omitted)")
    add("inspect", cmd_inspect, "write correlation and outlier reports",
        data=True, out_required=True)
    add("train", cmd_train, "train and save the ensemble model",
        data=True, model_out=True,
        out_help="report directory (defaults to the model's directory)")
    add("evaluate", cmd_evaluate,
        "stage-by-stage report plus hold-out metrics",
        data=True, out_required=True)
    add("predict", cmd_predict,
        "score schema rows with a saved model (the yield column is optional)",
        data=True, model_in=True,
        out_help="predictions CSV path (stdout if omitted)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TeaYieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
