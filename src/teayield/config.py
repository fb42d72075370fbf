"""Pipeline configuration: INI file with sections, one master seed.

``paper_defaults()`` returns the configuration a command runs without
``--config``.  ``render_config`` writes a configuration as INI text and
``load_config`` reads it back, so the benchmark's committed config file is
``render_config`` of the tests' ``bench_config`` and cannot drift from the
code.  ``OPTIONS`` is the single list of INI options; ``load_config`` and
``render_config`` are loops over it.  A retired option keeps its row, with
the one value left to it, and sets nothing.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from functools import reduce

from .dataset import SyntheticSpec
from .ensemble import EnsembleConfig
from .errors import ConfigError, DataError, FitError
from .feature_select import ReliefParams
from .regressors import MLPTrainConfig

PIPELINE_STAGES = ("feature_selection", "feature_scaling", "outlier_removal",
                   "feature_transformation")
OUTLIER_RULES = ("fixed", "4_over_n")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 42
    feature_columns: tuple[str, ...] | None = None  # None = accept file extras
    stages: tuple[str, ...] = PIPELINE_STAGES
    scale_columns: tuple[str, ...] | None = None  # None = all features
    log_features: tuple[str, ...] = ()
    log_target: bool = True
    outlier_threshold: float = 0.5
    outlier_rule: str = "fixed"
    relieff: ReliefParams = ReliefParams()
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
        seen = set()
        for stage in self.stages:
            if stage not in PIPELINE_STAGES:
                raise ConfigError(f"unknown stage {stage!r}; choose from "
                                  f"{PIPELINE_STAGES}")
            if stage in seen:
                raise ConfigError(f"stage {stage!r} listed twice")
            seen.add(stage)
        if seen >= {"feature_scaling", "feature_transformation"} and (
                self.stages.index("feature_scaling")
                < self.stages.index("feature_transformation")):
            for column in self.log_features:
                if self.scale_columns is None or column in self.scale_columns:
                    raise ConfigError(
                        f"log_features column {column!r} is also scaled, and "
                        "feature_scaling runs before feature_transformation: "
                        "a standardized column has values <= 0 to log")
        if self.outlier_rule not in OUTLIER_RULES:
            raise ConfigError(f"outlier rule must be one of {OUTLIER_RULES}, "
                              f"got {self.outlier_rule!r}")
        for name, patience in (("[sfs] patience", self.sfs_patience),
                               ("[ensemble] patience", self.ensemble_patience)):
            if patience < 1:
                raise ConfigError(f"{name} must be >= 1, got {patience}")
        for name, value in (("[gpr] signal_var", self.gpr_signal_var),
                            ("[gpr] length_scale", self.gpr_length_scale),
                            ("[outliers] threshold", self.outlier_threshold)):
            if not value > 0.0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name, value in (("[gpr] noise_var", self.gpr_noise_var),
                            ("[sfs] ridge_lambda", self.sfs_ridge_lambda)):
            if not value >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
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
    """``PipelineConfig()``: every field at its default, the configuration a
    command runs without ``--config``.

    The paper's abstract states none of these method constants; they are
    this package's choices.  The benchmark does not run them: it runs
    ``bench_config`` from ``tests/conftest.py``, written out as
    ``benchmarks/bench.ini``, which differs in six method options and the
    master seed.
    """
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


def _parse_list(text: str, where: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Value kind -> (parse INI text, format a value as INI text).
_KINDS = {
    "int": (_parse_int, str),
    "float": (_parse_float, repr),
    "bool": (_parse_bool, lambda value: str(value).lower()),
    "str": (lambda text, where: text.strip(), str),
    "list": (_parse_list, ", ".join),
}


def _nested(section: str, key: str, kind: str, none_word: str | None = None):
    """A row for the field ``key`` of the sub-config named ``section``."""
    return section, key, (section, key), kind, none_word


def _retired(section: str, key: str, kind: str, value):
    """A row for a retired option: no attribute path, and in place of the
    None word the one value the option may still be given."""
    return section, key, None, kind, value


# The single list of INI options, in file order.  Each row is (section, key,
# attribute path from a PipelineConfig, value kind, the word that stands for
# None if the option may be None); a retired row has the path None and its
# one value last.  ``ensemble.mlp`` has no row: it is the [mlp] section with
# ``hidden_size=5`` (see load_config).
# ``synth.interaction_coef`` has none yet: its row would add a line to the
# benchmark's committed config, which must equal render_config's output.
# The five retired rows select modes the method no longer has.  They remain
# because that committed file still lists them, and go when the benchmark's
# config is next regenerated.
OPTIONS = (
    ("pipeline", "seed", ("seed",), "int", None),
    _retired("pipeline", "month_encoding", "str", "cyclic"),
    _retired("pipeline", "paper_faithful", "bool", False),
    ("pipeline", "stages", ("stages",), "list", None),
    ("data", "feature_columns", ("feature_columns",), "list", "auto"),
    ("scaling", "columns", ("scale_columns",), "list", "all"),
    ("transform", "log_features", ("log_features",), "list", None),
    ("transform", "log_target", ("log_target",), "bool", None),
    ("outliers", "threshold", ("outlier_threshold",), "float", None),
    ("outliers", "rule", ("outlier_rule",), "str", None),
    _nested("relieff", "k", "int"),
    _nested("relieff", "iterations", "int", "all"),
    _nested("relieff", "decay_sigma", "float", "none"),
    _retired("sfs", "evaluator", "str", "ridge"),
    ("sfs", "ridge_lambda", ("sfs_ridge_lambda",), "float", None),
    ("sfs", "patience", ("sfs_patience",), "int", None),
    _nested("mlp", "hidden_size", "int"),
    _nested("mlp", "learning_rate", "float"),
    _nested("mlp", "epochs", "int"),
    _nested("mlp", "early_stop_fraction", "float"),
    _nested("mlp", "patience", "int"),
    ("gpr", "signal_var", ("gpr_signal_var",), "float", None),
    ("gpr", "length_scale", ("gpr_length_scale",), "float", None),
    ("gpr", "noise_var", ("gpr_noise_var",), "float", None),
    _nested("ensemble", "pool_size", "int"),
    _nested("ensemble", "subsample_fraction", "float"),
    _retired("ensemble", "bootstrap", "bool", False),
    _nested("ensemble", "oof_errors", "bool"),
    _nested("ensemble", "weight_b", "float", "auto"),
    _nested("ensemble", "weight_c", "float", "auto"),
    _retired("ensemble", "literal_weights", "bool", False),
    ("ensemble", "patience", ("ensemble_patience",), "int", None),
    ("evaluation", "cv_folds", ("cv_folds",), "int", None),
    ("evaluation", "holdout_fraction", ("holdout_fraction",), "float", None),
    ("evaluation", "mlp_replicates", ("mlp_replicates",), "int", None),
    ("synth", "n", ("synth_n",), "int", None),
    _nested("synth", "noise_scale", "float"),
    _nested("synth", "n_distractors", "int"),
    _nested("synth", "n_outliers", "int"),
    _nested("synth", "outlier_shift", "float"),
    _nested("synth", "rain_coef", "float"),
    _nested("synth", "temp_coef", "float"),
    _nested("synth", "ph_coef", "float"),
    _nested("synth", "humidity_coef", "float"),
    _nested("synth", "season_amp", "float"),
    _nested("synth", "base_log_yield", "float"),
    _nested("synth", "start_year", "int"),
)


def _with_value(obj, path: tuple[str, ...], value):
    """``obj`` with the attribute at ``path`` replaced by ``value``."""
    head, *rest = path
    if rest:
        value = _with_value(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def load_config(path) -> PipelineConfig:
    """Read an INI config; unknown sections or keys are errors.

    Every error names the file: ``<path>: <what is wrong>``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if parser.defaults():
        raise ConfigError(f"{path}: options in [{parser.default_section}] "
                          "are not supported; put them in their sections")

    sections = {row[0] for row in OPTIONS}
    options = {(row[0], row[1]): row[2:] for row in OPTIONS}
    values = {}
    cfg = paper_defaults()
    try:
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                where = f"[{section}] {key}"
                if (section, key) not in options:
                    raise ConfigError(f"{where}: unknown option")
                attr, kind, word = options[section, key]
                if attr is None:
                    if _KINDS[kind][0](raw, where) != word:
                        raise ConfigError(
                            f"{where}: retired option; it may only be "
                            f"{_KINDS[kind][1](word)}, got {raw.strip()!r}")
                    continue
                values[attr] = (None if raw.strip().lower() == word
                                else _KINDS[kind][0](raw, where))
        # Set in table order, whatever the file's: the check of log_features
        # against the stages and scaled columns set before it then sees
        # them final, and until then log_features is empty.
        for _, _, attr, _, _ in OPTIONS:
            if attr in values:
                cfg = _with_value(cfg, attr, values[attr])
        # The ensemble trains with the [mlp] settings; its hidden size is
        # redrawn per learner, so the template value is immaterial.
        return _with_value(cfg, ("ensemble", "mlp"),
                           replace(cfg.mlp, hidden_size=5))
    except (ConfigError, FitError, DataError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def render_config(cfg: PipelineConfig) -> str:
    """Serialize a config back to INI text (inverse of load_config)."""
    sections: dict[str, list[str]] = {}
    for section, key, attr, kind, word in OPTIONS:
        value = word if attr is None else reduce(getattr, attr, cfg)
        text = word if value is None else _KINDS[kind][1](value)
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    return "\n".join(f"[{section}]\n" + "".join(lines)
                     for section, lines in sections.items())
