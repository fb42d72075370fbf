"""Pipeline configuration: INI file with sections, one master seed.

``paper_defaults()`` returns the default configuration; every stated
constant of the method (outlier threshold 0.5, 100-learner pool, hidden
sizes 5-30, 10-fold CV) is a default here, and everything else is an
explicit, documented choice.  ``render_config`` writes the INI text back
out, so the shipped default file can never drift from the code.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

from .dataset import MONTH_ENCODINGS, SyntheticSpec
from .ensemble import EnsembleConfig
from .errors import ConfigError, DataError, FitError
from .feature_select import ReliefParams
from .regressors import MLPTrainConfig

PIPELINE_STAGES = ("feature_selection", "feature_scaling", "outlier_removal",
                   "feature_transformation")
SFS_EVALUATORS = ("ridge", "ols", "gpr", "mlp")
OUTLIER_RULES = ("fixed", "4_over_n")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 42
    month_encoding: str = "cyclic"
    paper_faithful: bool = False
    feature_columns: tuple[str, ...] | None = None  # None = accept file extras
    stages: tuple[str, ...] = PIPELINE_STAGES
    scale_columns: tuple[str, ...] | None = None  # None = all features
    log_features: tuple[str, ...] = ()
    log_target: bool = True
    outlier_threshold: float = 0.5
    outlier_rule: str = "fixed"
    relieff: ReliefParams = ReliefParams()
    sfs_evaluator: str = "ridge"
    sfs_ridge_lambda: float = 1e-2
    sfs_patience: int = 1
    mlp: MLPTrainConfig = MLPTrainConfig(hidden_size=12)
    gpr_signal_var: float = 1.0
    gpr_length_scale: float = 2.0
    gpr_noise_var: float = 0.1
    ensemble: EnsembleConfig = EnsembleConfig()
    ensemble_patience: int = 1
    cv_folds: int = 10
    holdout_fraction: float = 0.2
    mlp_replicates: int = 5
    synth_n: int = 120
    synth: SyntheticSpec = SyntheticSpec.canonical()

    def __post_init__(self):
        if self.month_encoding not in MONTH_ENCODINGS:
            raise ConfigError(f"month_encoding must be one of {MONTH_ENCODINGS}, "
                              f"got {self.month_encoding!r}")
        seen = set()
        for stage in self.stages:
            if stage not in PIPELINE_STAGES:
                raise ConfigError(f"unknown stage {stage!r}; choose from "
                                  f"{PIPELINE_STAGES}")
            if stage in seen:
                raise ConfigError(f"stage {stage!r} listed twice")
            seen.add(stage)
        if self.sfs_evaluator not in SFS_EVALUATORS:
            raise ConfigError(f"sfs evaluator must be one of {SFS_EVALUATORS}, "
                              f"got {self.sfs_evaluator!r}")
        if self.outlier_rule not in OUTLIER_RULES:
            raise ConfigError(f"outlier rule must be one of {OUTLIER_RULES}, "
                              f"got {self.outlier_rule!r}")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must be in (0, 1)")
        if self.mlp_replicates < 1:
            raise ConfigError("mlp_replicates must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def outlier_threshold_for(self, n: int) -> float:
        if self.outlier_rule == "4_over_n":
            return 4.0 / n
        return self.outlier_threshold


def paper_defaults() -> PipelineConfig:
    """The default configuration (all stated method constants)."""
    return PipelineConfig()


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: cannot parse {text!r} as a boolean")


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {text!r} as an integer") from None


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text.strip()!r} is not a finite number")
    return value


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_optional(text: str, parse, sentinels, where: str):
    if text.strip().lower() in sentinels:
        return None
    return parse(text, where)


def load_config(path) -> PipelineConfig:
    """Read an INI config; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    cfg = paper_defaults()
    relieff = cfg.relieff
    mlp = cfg.mlp
    ens = cfg.ensemble
    synth = cfg.synth
    updates: dict = {}

    def handle(section: str, key: str, raw: str) -> None:
        nonlocal relieff, mlp, ens, synth
        where = f"{path}: [{section}] {key}"
        field = (section, key)
        if field == ("pipeline", "seed"):
            updates["seed"] = _parse_int(raw, where)
        elif field == ("pipeline", "month_encoding"):
            updates["month_encoding"] = raw.strip()
        elif field == ("pipeline", "paper_faithful"):
            updates["paper_faithful"] = _parse_bool(raw, where)
        elif field == ("pipeline", "stages"):
            updates["stages"] = _parse_list(raw)
        elif field == ("data", "feature_columns"):
            updates["feature_columns"] = _parse_optional(
                raw, lambda t, w: _parse_list(t), ("auto",), where)
        elif field == ("scaling", "columns"):
            updates["scale_columns"] = _parse_optional(
                raw, lambda t, w: _parse_list(t), ("all",), where)
        elif field == ("transform", "log_features"):
            updates["log_features"] = _parse_list(raw)
        elif field == ("transform", "log_target"):
            updates["log_target"] = _parse_bool(raw, where)
        elif field == ("outliers", "threshold"):
            updates["outlier_threshold"] = _parse_float(raw, where)
        elif field == ("outliers", "rule"):
            updates["outlier_rule"] = raw.strip()
        elif field == ("relieff", "k"):
            relieff = replace(relieff, k=_parse_int(raw, where))
        elif field == ("relieff", "iterations"):
            relieff = replace(relieff, iterations=_parse_optional(
                raw, _parse_int, ("all",), where))
        elif field == ("relieff", "decay_sigma"):
            relieff = replace(relieff, decay_sigma=_parse_optional(
                raw, _parse_float, ("none",), where))
        elif field == ("sfs", "evaluator"):
            updates["sfs_evaluator"] = raw.strip()
        elif field == ("sfs", "ridge_lambda"):
            updates["sfs_ridge_lambda"] = _parse_float(raw, where)
        elif field == ("sfs", "patience"):
            updates["sfs_patience"] = _parse_int(raw, where)
        elif field == ("mlp", "hidden_size"):
            mlp = replace(mlp, hidden_size=_parse_int(raw, where))
        elif field == ("mlp", "learning_rate"):
            mlp = replace(mlp, learning_rate=_parse_float(raw, where))
        elif field == ("mlp", "epochs"):
            mlp = replace(mlp, epochs=_parse_int(raw, where))
        elif field == ("mlp", "early_stop_fraction"):
            mlp = replace(mlp, early_stop_fraction=_parse_float(raw, where))
        elif field == ("mlp", "patience"):
            mlp = replace(mlp, patience=_parse_int(raw, where))
        elif field == ("gpr", "signal_var"):
            updates["gpr_signal_var"] = _parse_float(raw, where)
        elif field == ("gpr", "length_scale"):
            updates["gpr_length_scale"] = _parse_float(raw, where)
        elif field == ("gpr", "noise_var"):
            updates["gpr_noise_var"] = _parse_float(raw, where)
        elif field == ("ensemble", "pool_size"):
            ens = replace(ens, pool_size=_parse_int(raw, where))
        elif field == ("ensemble", "subsample_fraction"):
            ens = replace(ens, subsample_fraction=_parse_float(raw, where))
        elif field == ("ensemble", "bootstrap"):
            ens = replace(ens, bootstrap=_parse_bool(raw, where))
        elif field == ("ensemble", "oof_errors"):
            ens = replace(ens, oof_errors=_parse_bool(raw, where))
        elif field == ("ensemble", "weight_b"):
            ens = replace(ens, weight_b=_parse_optional(
                raw, _parse_float, ("auto",), where))
        elif field == ("ensemble", "weight_c"):
            ens = replace(ens, weight_c=_parse_optional(
                raw, _parse_float, ("auto",), where))
        elif field == ("ensemble", "literal_weights"):
            ens = replace(ens, literal_weights=_parse_bool(raw, where))
        elif field == ("ensemble", "patience"):
            updates["ensemble_patience"] = _parse_int(raw, where)
        elif field == ("evaluation", "cv_folds"):
            updates["cv_folds"] = _parse_int(raw, where)
        elif field == ("evaluation", "holdout_fraction"):
            updates["holdout_fraction"] = _parse_float(raw, where)
        elif field == ("evaluation", "mlp_replicates"):
            updates["mlp_replicates"] = _parse_int(raw, where)
        elif field == ("synth", "n"):
            updates["synth_n"] = _parse_int(raw, where)
        elif section == "synth" and key in (
                "noise_scale", "n_distractors", "n_outliers", "outlier_shift",
                "rain_coef", "temp_coef", "ph_coef", "humidity_coef",
                "season_amp", "base_log_yield", "start_year"):
            if key in ("n_distractors", "n_outliers", "start_year"):
                synth = replace(synth, **{key: _parse_int(raw, where)})
            else:
                synth = replace(synth, **{key: _parse_float(raw, where)})
        else:
            raise ConfigError(f"{where}: unknown option")

    known_sections = ("pipeline", "data", "scaling", "transform", "outliers",
                      "relieff", "sfs", "mlp", "gpr", "ensemble", "evaluation",
                      "synth")
    try:
        for section in parser.sections():
            if section not in known_sections:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                handle(section, key, raw)
        # The ensemble trains with the [mlp] settings; its hidden size is
        # redrawn per learner, so the template value is immaterial.
        return replace(cfg, relieff=relieff, mlp=mlp,
                       ensemble=replace(ens, mlp=replace(mlp, hidden_size=5)),
                       synth=synth, **updates)
    except ConfigError:
        raise
    except (FitError, DataError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def render_config(cfg: PipelineConfig) -> str:
    """Serialize a config back to INI text (inverse of load_config)."""
    def fmt_list(values) -> str:
        return ", ".join(values) if values else ""

    out = io.StringIO()
    out.write("[pipeline]\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"month_encoding = {cfg.month_encoding}\n")
    out.write(f"paper_faithful = {str(cfg.paper_faithful).lower()}\n")
    out.write(f"stages = {fmt_list(cfg.stages)}\n\n")
    out.write("[data]\n")
    out.write("feature_columns = "
              + ("auto" if cfg.feature_columns is None
                 else fmt_list(cfg.feature_columns)) + "\n\n")
    out.write("[scaling]\n")
    out.write("columns = "
              + ("all" if cfg.scale_columns is None
                 else fmt_list(cfg.scale_columns)) + "\n\n")
    out.write("[transform]\n")
    out.write(f"log_features = {fmt_list(cfg.log_features)}\n")
    out.write(f"log_target = {str(cfg.log_target).lower()}\n\n")
    out.write("[outliers]\n")
    out.write(f"threshold = {cfg.outlier_threshold!r}\n")
    out.write(f"rule = {cfg.outlier_rule}\n\n")
    out.write("[relieff]\n")
    out.write(f"k = {cfg.relieff.k}\n")
    out.write("iterations = "
              + ("all" if cfg.relieff.iterations is None
                 else str(cfg.relieff.iterations)) + "\n")
    out.write("decay_sigma = "
              + ("none" if cfg.relieff.decay_sigma is None
                 else repr(cfg.relieff.decay_sigma)) + "\n\n")
    out.write("[sfs]\n")
    out.write(f"evaluator = {cfg.sfs_evaluator}\n")
    out.write(f"ridge_lambda = {cfg.sfs_ridge_lambda!r}\n")
    out.write(f"patience = {cfg.sfs_patience}\n\n")
    out.write("[mlp]\n")
    out.write(f"hidden_size = {cfg.mlp.hidden_size}\n")
    out.write(f"learning_rate = {cfg.mlp.learning_rate!r}\n")
    out.write(f"epochs = {cfg.mlp.epochs}\n")
    out.write(f"early_stop_fraction = {cfg.mlp.early_stop_fraction!r}\n")
    out.write(f"patience = {cfg.mlp.patience}\n\n")
    out.write("[gpr]\n")
    out.write(f"signal_var = {cfg.gpr_signal_var!r}\n")
    out.write(f"length_scale = {cfg.gpr_length_scale!r}\n")
    out.write(f"noise_var = {cfg.gpr_noise_var!r}\n\n")
    out.write("[ensemble]\n")
    out.write(f"pool_size = {cfg.ensemble.pool_size}\n")
    out.write(f"subsample_fraction = {cfg.ensemble.subsample_fraction!r}\n")
    out.write(f"bootstrap = {str(cfg.ensemble.bootstrap).lower()}\n")
    out.write(f"oof_errors = {str(cfg.ensemble.oof_errors).lower()}\n")
    out.write("weight_b = " + ("auto" if cfg.ensemble.weight_b is None
                               else repr(cfg.ensemble.weight_b)) + "\n")
    out.write("weight_c = " + ("auto" if cfg.ensemble.weight_c is None
                               else repr(cfg.ensemble.weight_c)) + "\n")
    out.write(f"literal_weights = {str(cfg.ensemble.literal_weights).lower()}\n")
    out.write(f"patience = {cfg.ensemble_patience}\n\n")
    out.write("[evaluation]\n")
    out.write(f"cv_folds = {cfg.cv_folds}\n")
    out.write(f"holdout_fraction = {cfg.holdout_fraction!r}\n")
    out.write(f"mlp_replicates = {cfg.mlp_replicates}\n\n")
    out.write("[synth]\n")
    out.write(f"n = {cfg.synth_n}\n")
    s = cfg.synth
    out.write(f"noise_scale = {s.noise_scale!r}\n")
    out.write(f"n_distractors = {s.n_distractors}\n")
    out.write(f"n_outliers = {s.n_outliers}\n")
    out.write(f"outlier_shift = {s.outlier_shift!r}\n")
    out.write(f"rain_coef = {s.rain_coef!r}\n")
    out.write(f"temp_coef = {s.temp_coef!r}\n")
    out.write(f"ph_coef = {s.ph_coef!r}\n")
    out.write(f"humidity_coef = {s.humidity_coef!r}\n")
    out.write(f"season_amp = {s.season_amp!r}\n")
    out.write(f"base_log_yield = {s.base_log_yield!r}\n")
    out.write(f"start_year = {s.start_year}\n")
    return out.getvalue()
