"""Pipeline configuration: INI file with sections, one master seed.

``PipelineConfig()`` is the configuration a command runs without
``--config`` and the one the benchmark measures: its committed config file
is ``render_config`` of ``PipelineConfig()`` at master seed 10.  The
paper's abstract states no method constant; the defaults are this package's
choices.  ``render_config`` writes a configuration as INI text and
``load_config`` reads it back; both are loops over ``OPTIONS``, the single
list of INI options.  A retired option keeps its row, with the one value
left to it, and sets nothing.  No option shapes the preprocessing chain's
stages: it is the fixed chain of ``preprocess.PIPELINE_STAGES``, which
scales every selected column and logs the target alone.  Nor does one
choose RReliefF's instances or neighbor decay (every row is visited, at
``feature_select.DECAY_SIGMA``), the networks' iRprop⁻ steps (the
constants of ``kernels``), the ensemble's weighting constants (taken
from the learners' errors), or the synthetic data: ``teayield synth``
draws the canonical generator spec.  An error in a value names its
``[section] key`` and the value given.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from functools import reduce

from .dataset import SyntheticSpec
from .ensemble import EnsembleConfig
from .errors import ConfigError, DataError, FitError
from .feature_select import DECAY_SIGMA, ReliefParams
from .preprocess import PIPELINE_STAGES
from .regressors import MLPTrainConfig


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 42
    feature_columns: tuple[str, ...] | None = None  # None = accept file extras
    outlier_threshold: float = 0.5
    relieff: ReliefParams = ReliefParams()
    sfs_ridge_lambda: float = 1e-2
    sfs_patience: int = 2
    mlp: MLPTrainConfig = MLPTrainConfig(hidden_size=12)
    gpr_signal_var: float = 1.0
    gpr_length_scale: float = 2.0
    gpr_noise_var: float = 0.1
    ensemble: EnsembleConfig = EnsembleConfig()
    ensemble_patience: int = 8
    cv_folds: int = 10
    holdout_fraction: float = 0.3
    mlp_replicates: int = 5

    def __post_init__(self):
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
        for name, value, low in (("[evaluation] cv_folds", self.cv_folds, 2),
                                 ("[evaluation] mlp_replicates",
                                  self.mlp_replicates, 1),
                                 ("[pipeline] seed", self.seed, 0)):
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("[evaluation] holdout_fraction must be in "
                              f"(0, 1), got {self.holdout_fraction}")


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


def _retired_synth(key: str, kind: str):
    """A retired ``[synth]`` row at the canonical generator's value."""
    return _retired("synth", key, kind, getattr(SyntheticSpec.canonical(), key))


# The single list of INI options, in file order.  Each row is (section, key,
# attribute path from a PipelineConfig, value kind, the word that stands for
# None if the option may be None); a retired row has the path None and its
# one value last.  One field has no row (see ``_unwritten``):
# ``ensemble.mlp`` is the [mlp] section with ``hidden_size=5``.
# The 28 retired rows select modes the method no longer has, reorder, drop
# or bend the fixed preprocessing chain, set the gradient-descent rate that
# iRprop⁻ replaced, or shape the synthetic data, which ``teayield synth``
# draws at the canonical spec.  They remain because the
# benchmark's committed config still lists them, and go when it is next
# regenerated.
OPTIONS = (
    ("pipeline", "seed", ("seed",), "int", None),
    _retired("pipeline", "month_encoding", "str", "cyclic"),
    _retired("pipeline", "paper_faithful", "bool", False),
    _retired("pipeline", "stages", "list", PIPELINE_STAGES),
    ("data", "feature_columns", ("feature_columns",), "list", "auto"),
    _retired("scaling", "columns", "str", "all"),
    _retired("transform", "log_features", "list", ()),
    _retired("transform", "log_target", "bool", True),
    ("outliers", "threshold", ("outlier_threshold",), "float", None),
    _retired("outliers", "rule", "str", "fixed"),
    _nested("relieff", "k", "int"),
    _retired("relieff", "iterations", "str", "all"),
    _retired("relieff", "decay_sigma", "float", DECAY_SIGMA),
    _retired("sfs", "evaluator", "str", "ridge"),
    ("sfs", "ridge_lambda", ("sfs_ridge_lambda",), "float", None),
    ("sfs", "patience", ("sfs_patience",), "int", None),
    _nested("mlp", "hidden_size", "int"),
    _retired("mlp", "learning_rate", "float", 0.01),
    _nested("mlp", "epochs", "int"),
    _nested("mlp", "early_stop_fraction", "float"),
    _nested("mlp", "patience", "int"),
    ("gpr", "signal_var", ("gpr_signal_var",), "float", None),
    ("gpr", "length_scale", ("gpr_length_scale",), "float", None),
    ("gpr", "noise_var", ("gpr_noise_var",), "float", None),
    _nested("ensemble", "pool_size", "int"),
    _nested("ensemble", "subsample_fraction", "float"),
    _retired("ensemble", "bootstrap", "bool", False),
    _retired("ensemble", "oof_errors", "bool", True),
    _retired("ensemble", "weight_b", "str", "auto"),
    _retired("ensemble", "weight_c", "str", "auto"),
    _retired("ensemble", "literal_weights", "bool", False),
    ("ensemble", "patience", ("ensemble_patience",), "int", None),
    ("evaluation", "cv_folds", ("cv_folds",), "int", None),
    ("evaluation", "holdout_fraction", ("holdout_fraction",), "float", None),
    ("evaluation", "mlp_replicates", ("mlp_replicates",), "int", None),
    _retired("synth", "n", "int", 120),
    _retired_synth("noise_scale", "float"),
    _retired_synth("n_distractors", "int"),
    _retired_synth("n_outliers", "int"),
    _retired_synth("outlier_shift", "float"),
    _retired_synth("rain_coef", "float"),
    _retired_synth("temp_coef", "float"),
    _retired_synth("ph_coef", "float"),
    _retired_synth("humidity_coef", "float"),
    _retired_synth("season_amp", "float"),
    _retired_synth("base_log_yield", "float"),
    _retired_synth("start_year", "int"),
)


def _with_value(obj, path: tuple[str, ...], value):
    """``obj`` with the attribute at ``path`` replaced by ``value``."""
    head, *rest = path
    if rest:
        value = _with_value(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def _unwritten(cfg: PipelineConfig) -> dict:
    """The value ``load_config`` gives each field that no row carries, for
    a file that sets the rows as ``cfg`` holds them."""
    # The ensemble trains with the [mlp] settings; its hidden size is
    # redrawn per learner, so the template value is immaterial.
    return {("ensemble", "mlp"): replace(cfg.mlp, hidden_size=5)}


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
    cfg = PipelineConfig()
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
                            f"{_KINDS[kind][1](word) or 'empty'}, "
                            f"got {raw.strip()!r}")
                    continue
                values[attr] = (None if raw.strip().lower() == word
                                else _KINDS[kind][0](raw, where))
        for attr, value in values.items():
            cfg = _with_value(cfg, attr, value)
        for attr, value in _unwritten(cfg).items():
            cfg = _with_value(cfg, attr, value)
        return cfg
    except (ConfigError, FitError, DataError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def render_config(cfg: PipelineConfig) -> str:
    """Serialize a config back to INI text (inverse of load_config).

    A field that no row carries must hold the value ``load_config`` gives
    it; any other value is a ConfigError naming the field, since the text
    would read back as another config.
    """
    for attr, loaded in _unwritten(cfg).items():
        value = reduce(getattr, attr, cfg)
        if value != loaded:
            raise ConfigError(
                f"{'.'.join(attr)} has no INI option: the file would read "
                f"back as {loaded!r}, not {value!r}")
    sections: dict[str, list[str]] = {}
    for section, key, attr, kind, word in OPTIONS:
        value = word if attr is None else reduce(getattr, attr, cfg)
        text = word if value is None else _KINDS[kind][1](value)
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    return "\n".join(f"[{section}]\n" + "".join(lines)
                     for section, lines in sections.items())
