import configparser
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield import feature_select, regressors
from teayield.config import OPTIONS, PipelineConfig, load_config, render_config
from teayield.errors import ConfigError, DataError
from teayield.preprocess import PIPELINE_STAGES
from teayield.regressors import HIDDEN_RANGE

from conftest import bench_config, csv_edits, mutate_csv, tiny_config


@pytest.mark.parametrize("section,key,value", [
    ("outliers", "threshold", "nan"),
    ("mlp", "learning_rate", "inf"),
    ("gpr", "noise_var", "-inf"),
    ("ensemble", "subsample_fraction", "NaN"),
    ("sfs", "ridge_lambda", "infinity"),
    # A retired number is parsed before it is compared with its one value.
    ("relieff", "decay_sigma", "infinity"),
])
def test_non_finite_numbers_are_rejected(tmp_path, section, key, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_config(tiny_config()))
    parser[section][key] = value
    path = tmp_path / "cfg.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*finite"):
        load_config(path)


@pytest.mark.parametrize("section,key,value,message", [
    ("evaluation", "cv_folds", "1",
     "[evaluation] cv_folds must be >= 2, got 1"),
    ("evaluation", "holdout_fraction", "1.5",
     "[evaluation] holdout_fraction must be in (0, 1), got 1.5"),
    ("evaluation", "mlp_replicates", "0",
     "[evaluation] mlp_replicates must be >= 1, got 0"),
    ("pipeline", "seed", "-1", "[pipeline] seed must be >= 0, got -1"),
    ("ensemble", "pool_size", "0", "[ensemble] pool_size must be >= 1, got 0"),
    ("ensemble", "patience", "0", "[ensemble] patience must be >= 1, got 0"),
    ("ensemble", "subsample_fraction", "1.5",
     "[ensemble] subsample_fraction must be in (0, 1], got 1.5"),
    ("mlp", "patience", "x", "[mlp] patience: cannot parse 'x' as an integer"),
    ("mlp", "patience", "0", "[mlp] patience must be >= 1, got 0"),
    ("mlp", "early_stop_fraction", "1.0",
     "[mlp] early_stop_fraction must be in [0, 1), got 1.0"),
    ("mlp", "hidden_size", "31",
     "[mlp] hidden_size must be in [5, 30], got 31"),
    ("mlp", "epochs", "0", "[mlp] epochs must be >= 1, got 0"),
    # Ranges that fitting would otherwise meet only once it had started.
    ("relieff", "k", "0", "[relieff] k must be >= 1, got 0"),
    ("outliers", "threshold", "-1.0",
     "[outliers] threshold must be > 0, got -1.0"),
    # Retired options load only at the one value left to them.
    ("pipeline", "month_encoding", "onehot", "[pipeline] month_encoding: "
     "retired option; it may only be cyclic, got 'onehot'"),
    ("mlp", "learning_rate", "0.0", "[mlp] learning_rate: retired option; "
     "it may only be 0.01, got '0.0'"),
    ("pipeline", "paper_faithful", "true", "[pipeline] paper_faithful: "
     "retired option; it may only be false, got 'true'"),
    ("pipeline", "month_encoding", "integer", "[pipeline] month_encoding: "
     "retired option; it may only be cyclic, got 'integer'"),
    ("sfs", "evaluator", "ols",
     "[sfs] evaluator: retired option; it may only be ridge, got 'ols'"),
    ("sfs", "evaluator", "gpr",
     "[sfs] evaluator: retired option; it may only be ridge, got 'gpr'"),
    ("sfs", "evaluator", "mlp",
     "[sfs] evaluator: retired option; it may only be ridge, got 'mlp'"),
    ("ensemble", "bootstrap", "yes",
     "[ensemble] bootstrap: retired option; it may only be false, got 'yes'"),
    ("ensemble", "literal_weights", "1", "[ensemble] literal_weights: "
     "retired option; it may only be false, got '1'"),
    ("outliers", "rule", "4_over_n",
     "[outliers] rule: retired option; it may only be fixed, got '4_over_n'"),
    ("ensemble", "oof_errors", "false", "[ensemble] oof_errors: "
     "retired option; it may only be true, got 'false'"),
    # The preprocessing chain is fixed: its stages run in one order, every
    # selected column is scaled, and the target alone is logged.  A file
    # that reorders, drops or repeats a stage, scales some columns or logs
    # a feature is refused at that option, also where the columns are
    # misspelled.
    ("pipeline", "stages", "feature_selection, feature_transformation, "
     "outlier_removal, feature_scaling", "[pipeline] stages: retired option; "
     "it may only be feature_selection, feature_scaling, outlier_removal, "
     "feature_transformation, got 'feature_selection, "
     "feature_transformation, outlier_removal, feature_scaling'"),
    ("pipeline", "stages", "feature_selection, outlier_removal, "
     "feature_transformation", "[pipeline] stages: retired option; it may "
     "only be feature_selection, feature_scaling, outlier_removal, "
     "feature_transformation, got 'feature_selection, outlier_removal, "
     "feature_transformation'"),
    ("pipeline", "stages", "feature_selection, feature_scaling, "
     "feature_scaling, outlier_removal, feature_transformation",
     "[pipeline] stages: retired option; it may only be feature_selection, "
     "feature_scaling, outlier_removal, feature_transformation, got "
     "'feature_selection, feature_scaling, feature_scaling, "
     "outlier_removal, feature_transformation'"),
    ("scaling", "columns", "humidity",
     "[scaling] columns: retired option; it may only be all, got 'humidity'"),
    ("scaling", "columns", "humidty",
     "[scaling] columns: retired option; it may only be all, got 'humidty'"),
    ("transform", "log_features", "rainfall", "[transform] log_features: "
     "retired option; it may only be empty, got 'rainfall'"),
    ("transform", "log_target", "false", "[transform] log_target: "
     "retired option; it may only be true, got 'false'"),
    # RReliefF visits every row at one neighbor decay, and the ensemble
    # weighting takes its constants from the learners' errors.
    ("relieff", "iterations", "0", "[relieff] iterations: retired option; "
     "it may only be all, got '0'"),
    ("relieff", "iterations", "80", "[relieff] iterations: retired option; "
     "it may only be all, got '80'"),
    ("relieff", "decay_sigma", "0.0", "[relieff] decay_sigma: retired "
     "option; it may only be 20.0, got '0.0'"),
    ("relieff", "decay_sigma", "none", "[relieff] decay_sigma: cannot parse "
     "'none' as a number"),
    ("ensemble", "weight_b", "-1.0", "[ensemble] weight_b: retired option; "
     "it may only be auto, got '-1.0'"),
    ("ensemble", "weight_c", "0.5", "[ensemble] weight_c: retired option; "
     "it may only be auto, got '0.5'"),
    # The stage-report GP and the feature search run at package constants.
    ("gpr", "signal_var", "0.0", "[gpr] signal_var: retired option; "
     "it may only be 1.0, got '0.0'"),
    ("gpr", "length_scale", "0.0", "[gpr] length_scale: retired option; "
     "it may only be 2.0, got '0.0'"),
    ("gpr", "noise_var", "-0.5", "[gpr] noise_var: retired option; "
     "it may only be 0.1, got '-0.5'"),
    ("sfs", "ridge_lambda", "-1.0", "[sfs] ridge_lambda: retired option; "
     "it may only be 0.01, got '-1.0'"),
    ("sfs", "patience", "0", "[sfs] patience: retired option; "
     "it may only be 2, got '0'"),
    # The synthetic data is drawn at the canonical generator spec.
    ("synth", "n", "240",
     "[synth] n: retired option; it may only be 120, got '240'"),
    ("synth", "noise_scale", "0.1", "[synth] noise_scale: retired option; "
     "it may only be 0.16, got '0.1'"),
    ("synth", "n_distractors", "0", "[synth] n_distractors: retired option; "
     "it may only be 3, got '0'"),
    ("synth", "start_year", "2010", "[synth] start_year: retired option; "
     "it may only be 2008, got '2010'"),
])
def test_every_error_names_the_file_once(tmp_path, section, key, value,
                                         message):
    """Checks made when the config is built name the file as parse errors
    do, and a parse error is not prefixed twice."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_config(tiny_config()))
    parser[section][key] = value
    path = tmp_path / "bad.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n\n[pipeline]\nmonth_encoding = cyclic\n",
])
def test_options_in_the_default_section_are_rejected(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        load_config(path)


# The field the table leaves out on purpose, which ``render_config`` refuses
# at any value but the one ``load_config`` gives it: the ensemble's network
# settings are the [mlp] section with hidden_size=5.
NOT_IN_TABLE = {("ensemble", "mlp")}


def _field_paths(obj, prefix=()):
    for f in fields(obj):
        path = prefix + (f.name,)
        value = getattr(obj, f.name)
        if is_dataclass(value) and path not in NOT_IN_TABLE:
            yield from _field_paths(value, path)
        else:
            yield path


# Retired rows set no field: they have no attribute path.
PATHS = {row[2] for row in OPTIONS if row[2] is not None}


def test_every_config_field_has_a_table_row():
    paths = set(_field_paths(PipelineConfig()))
    assert NOT_IN_TABLE <= paths
    assert paths - NOT_IN_TABLE == PATHS
    assert len({(row[0], row[1]) for row in OPTIONS}) == len(OPTIONS)


def test_the_retired_options_may_be_left_out(tmp_path):
    """Each loads at its one value (``render_config`` writes them) or when
    left out, and sets nothing."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_config(tiny_config()))
    retired = [row for row in OPTIONS if row[2] is None]
    assert [parser[row[0]][row[1]] for row in retired] == [
        "cyclic", "false", "feature_selection, feature_scaling, "
        "outlier_removal, feature_transformation", "all", "", "true",
        "fixed", "all", "20.0", "ridge", "0.01", "2", "0.01", "1.0", "2.0",
        "0.1", "false", "true", "auto", "auto", "false", "120", "0.16", "3",
        "3", "4.5", "0.55", "0.3", "-0.6", "0.45", "0.4", "3.8", "2008"]
    for section, key, *_ in retired:
        del parser[section][key]
    path = tmp_path / "retired.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert load_config(path) == tiny_config()


# The retired rows whose one value is a constant the package runs with.
CONSTANT_ROWS = {
    ("relieff", "decay_sigma"): feature_select.DECAY_SIGMA,
    ("sfs", "ridge_lambda"): feature_select.SFS_RIDGE_LAMBDA,
    ("sfs", "patience"): feature_select.SFS_PATIENCE,
    ("gpr", "signal_var"): regressors.GPR_SIGNAL_VAR,
    ("gpr", "length_scale"): regressors.GPR_LENGTH_SCALE,
    ("gpr", "noise_var"): regressors.GPR_NOISE_VAR,
}


@pytest.mark.parametrize("section,key", sorted(CONSTANT_ROWS))
def test_a_retired_row_holds_its_package_constant(tmp_path, section, key):
    """The row's one value is the constant the code runs with, and a file
    that sets another value is refused naming the option."""
    constant = CONSTANT_ROWS[section, key]
    _, _, attr, _, value = next(row for row in OPTIONS
                                if row[:2] == (section, key))
    assert attr is None and value == constant
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_config(tiny_config()))
    parser[section][key] = str(constant * 3)
    path = tmp_path / "constant.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (
        f"{path}: [{section}] {key}: retired option; it may only be "
        f"{constant!r}, got {str(constant * 3)!r}")


@pytest.mark.parametrize("seed", [0, 1, 10, 42])
def test_the_bench_config_is_the_shipped_defaults(seed):
    assert bench_config(seed) == replace(PipelineConfig(), seed=seed)


def test_the_shipped_defaults_render_and_load_back(tmp_path):
    path = tmp_path / "defaults.ini"
    path.write_text(render_config(PipelineConfig()), encoding="utf-8")
    assert load_config(path) == PipelineConfig()


NONE_WORDS = {row[4] for row in OPTIONS} - {None}
names = st.lists(st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1,
                         max_size=8).filter(lambda s: s not in NONE_WORDS),
                 max_size=4).map(tuple)
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

VALUES = {
    ("seed",): st.integers(min_value=0),
    ("feature_columns",): st.none() | names,
    ("outlier_threshold",): positive,
    ("relieff_k",): st.integers(min_value=1),
    ("mlp", "hidden_size"): st.integers(*HIDDEN_RANGE),
    ("mlp", "epochs"): st.integers(min_value=1),
    ("mlp", "early_stop_fraction"): st.floats(0.0, 1.0, exclude_max=True),
    ("mlp", "patience"): st.integers(min_value=1),
    ("ensemble", "pool_size"): st.integers(min_value=1),
    ("ensemble", "subsample_fraction"): st.floats(0.0, 1.0, exclude_min=True),
    ("ensemble", "patience"): st.integers(min_value=1),
    ("cv_folds",): st.integers(min_value=2),
    ("holdout_fraction",): fractions,
    ("mlp_replicates",): st.integers(min_value=1),
}


def test_the_strategy_varies_every_table_row():
    assert set(VALUES) == PATHS


def _set(obj, path, value):
    head, *rest = path
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


@st.composite
def configs(draw):
    cfg = PipelineConfig()
    for path, values in VALUES.items():
        cfg = _set(cfg, path, draw(values))
    return replace(cfg, ensemble=replace(
        cfg.ensemble, mlp=replace(cfg.mlp, hidden_size=5)))


@settings(max_examples=200, deadline=None)
@given(cfg=configs())
def test_render_then_load_is_exact(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round_trip.ini"
    text = render_config(cfg)
    path.write_text(text, encoding="utf-8")
    loaded = load_config(path)
    assert loaded == cfg
    assert render_config(loaded) == text


@pytest.mark.parametrize("stages,scale_columns,log_features", [
    (PIPELINE_STAGES, None, ("rainfall",)),
    (PIPELINE_STAGES, ("humidity", "rainfall"), ("rainfall",)),
    (("feature_scaling", "feature_transformation"), ("rainfall",),
     ("soil_ph", "rainfall")),
])
def test_a_column_scaled_before_its_log_is_rejected(tmp_path, stages,
                                                    scale_columns,
                                                    log_features):
    """By ``load_config``, before any data is read, naming the file and the
    first of the chain's retired options that the file sets to another
    value."""
    lines = (("pipeline", "stages", ", ".join(PIPELINE_STAGES),
              ", ".join(stages)),
             ("scaling", "columns", "all", ", ".join(scale_columns or ("all",))),
             ("transform", "log_features", "", ", ".join(log_features)))
    text = render_config(tiny_config())
    for _, key, old, new in lines:
        text = text.replace(f"{key} = {old}\n", f"{key} = {new}\n")
    path = tmp_path / "scaled_log.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    section, key, old, new = next(line for line in lines if line[2] != line[3])
    assert str(info.value) == (f"{path}: [{section}] {key}: retired option; "
                               f"it may only be {old or 'empty'}, got {new!r}")


@pytest.mark.parametrize("attr,value,message", [
    (("ensemble", "mlp", "early_stop_fraction"), 0.05, "ensemble.mlp has no "
     "INI option: the file would read back as MLPTrainConfig(hidden_size=5, "
     "epochs=50, early_stop_fraction=0.15, patience=20), not "
     "MLPTrainConfig(hidden_size=5, epochs=50, early_stop_fraction=0.05, "
     "patience=20)")])
def test_a_value_no_option_carries_is_not_rendered(attr, value, message):
    """It would read back as another config."""
    with pytest.raises(ConfigError) as info:
        render_config(_set(tiny_config(), attr, value))
    assert str(info.value) == message


@given(edits=csv_edits())
@settings(max_examples=150, deadline=None)
def test_mutated_ini_files_load_or_raise_config_error(edits):
    """Lines are cut at ``=``, so an edit can drop, swap or replace a key or
    a value, or set any byte of the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.ini"
        path.write_bytes(mutate_csv(render_config(bench_config()), edits,
                                    sep="="))
        try:
            load_config(path)
        except (ConfigError, DataError):
            pass
