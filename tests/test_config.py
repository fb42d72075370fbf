import configparser
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.config import (OPTIONS, OUTLIER_RULES, PIPELINE_STAGES,
                             load_config, paper_defaults, render_config)
from teayield.errors import ConfigError, DataError
from teayield.regressors import HIDDEN_RANGE

from conftest import bench_config, csv_edits, mutate_csv, tiny_config


@pytest.mark.parametrize("section,key,value", [
    ("outliers", "threshold", "nan"),
    ("mlp", "learning_rate", "inf"),
    ("gpr", "noise_var", "-inf"),
    ("ensemble", "weight_b", "NaN"),
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
    ("evaluation", "cv_folds", "1", "cv_folds must be >= 2, got 1"),
    ("sfs", "patience", "0", "[sfs] patience must be >= 1, got 0"),
    ("ensemble", "pool_size", "0", "pool_size must be >= 1, got 0"),
    ("mlp", "patience", "x", "[mlp] patience: cannot parse 'x' as an integer"),
    # Ranges that fitting would otherwise meet only once it had started.
    ("ensemble", "weight_b", "-1.0", "weight_b must be > 0, got -1.0"),
    ("relieff", "k", "0", "relieff k must be >= 1, got 0"),
    ("relieff", "iterations", "0", "relieff iterations must be >= 1, got 0"),
    ("relieff", "decay_sigma", "0.0",
     "relieff decay_sigma must be > 0, got 0.0"),
    ("gpr", "signal_var", "0.0", "[gpr] signal_var must be > 0, got 0.0"),
    ("gpr", "length_scale", "0.0", "[gpr] length_scale must be > 0, got 0.0"),
    ("gpr", "noise_var", "-0.5", "[gpr] noise_var must be >= 0, got -0.5"),
    ("sfs", "ridge_lambda", "-1.0",
     "[sfs] ridge_lambda must be >= 0, got -1.0"),
    ("outliers", "threshold", "-1.0",
     "[outliers] threshold must be > 0, got -1.0"),
    # Retired options load only at the one value left to them.
    ("pipeline", "month_encoding", "onehot", "[pipeline] month_encoding: "
     "retired option; it may only be cyclic, got 'onehot'"),
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


# Fields the table leaves out on purpose: the ensemble's network settings are
# the [mlp] section with hidden_size=5, and interaction_coef is not written
# yet, since rendering it would change the benchmark's committed config.
NOT_IN_TABLE = {("ensemble", "mlp"), ("synth", "interaction_coef")}


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
    paths = set(_field_paths(paper_defaults()))
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
        "cyclic", "false", "ridge", "false", "false"]
    for section, key, *_ in retired:
        del parser[section][key]
    path = tmp_path / "retired.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert load_config(path) == tiny_config()


NONE_WORDS = {row[4] for row in OPTIONS} - {None}
names = st.lists(st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1,
                         max_size=8).filter(lambda s: s not in NONE_WORDS),
                 max_size=4).map(tuple)
numbers = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(0.0, allow_infinity=False)
fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

VALUES = {
    ("seed",): st.integers(min_value=0),
    ("stages",): st.lists(st.sampled_from(PIPELINE_STAGES),
                          unique=True).map(tuple),
    ("feature_columns",): st.none() | names,
    ("scale_columns",): st.none() | names,
    ("log_features",): names,
    ("log_target",): st.booleans(),
    ("outlier_threshold",): positive,
    ("outlier_rule",): st.sampled_from(OUTLIER_RULES),
    ("relieff", "k"): st.integers(min_value=1),
    ("relieff", "iterations"): st.none() | st.integers(min_value=1),
    ("relieff", "decay_sigma"): st.none() | positive,
    ("sfs_ridge_lambda",): non_negative,
    ("sfs_patience",): st.integers(min_value=1),
    ("mlp", "hidden_size"): st.integers(*HIDDEN_RANGE),
    ("mlp", "learning_rate"): st.floats(0.0, exclude_min=True,
                                        allow_infinity=False),
    ("mlp", "epochs"): st.integers(min_value=1),
    ("mlp", "early_stop_fraction"): st.floats(0.0, 1.0, exclude_max=True),
    ("mlp", "patience"): st.integers(min_value=1),
    ("gpr_signal_var",): positive,
    ("gpr_length_scale",): positive,
    ("gpr_noise_var",): non_negative,
    ("ensemble", "pool_size"): st.integers(min_value=1),
    ("ensemble", "subsample_fraction"): st.floats(0.0, 1.0, exclude_min=True),
    ("ensemble", "oof_errors"): st.booleans(),
    ("ensemble", "weight_b"): st.none() | positive,
    ("ensemble", "weight_c"): st.none() | numbers,
    ("ensemble_patience",): st.integers(min_value=1),
    ("cv_folds",): st.integers(min_value=2),
    ("holdout_fraction",): fractions,
    ("mlp_replicates",): st.integers(min_value=1),
    ("synth_n",): st.integers(),
    ("synth", "noise_scale"): st.floats(0.0, allow_infinity=False),
    ("synth", "n_distractors"): st.integers(min_value=0),
    ("synth", "n_outliers"): st.integers(min_value=0),
    ("synth", "outlier_shift"): numbers,
    ("synth", "rain_coef"): numbers,
    ("synth", "temp_coef"): numbers,
    ("synth", "ph_coef"): numbers,
    ("synth", "humidity_coef"): numbers,
    ("synth", "season_amp"): numbers,
    ("synth", "base_log_yield"): numbers,
    ("synth", "start_year"): st.integers(),
}


def test_the_strategy_varies_every_table_row():
    assert set(VALUES) == PATHS


def _set(obj, path, value):
    head, *rest = path
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def scaled_before_logged(cfg, column: str) -> bool:
    """Whether ``cfg`` scales ``column`` before its log transform, which
    ``PipelineConfig`` rejects."""
    stages = cfg.stages
    return ("feature_scaling" in stages and "feature_transformation" in stages
            and stages.index("feature_scaling")
            < stages.index("feature_transformation")
            and (cfg.scale_columns is None or column in cfg.scale_columns))


@st.composite
def configs(draw):
    """Valid configs only: the drawn log features leave out the columns the
    drawn stages and scaled columns would scale before the log.  ``VALUES``
    sets the stages and scaled columns before the log features."""
    cfg = paper_defaults()
    for path, values in VALUES.items():
        value = draw(values)
        if path == ("log_features",):
            value = tuple(c for c in value if not scaled_before_logged(cfg, c))
        cfg = _set(cfg, path, value)
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
    """By ``load_config``, naming the file and the column, before any data
    is read."""
    cfg = tiny_config()
    path = tmp_path / "scaled_log.ini"
    path.write_text(render_config(cfg).replace(
        "log_features = \n", f"log_features = {', '.join(log_features)}\n")
        .replace("columns = all\n",
                 f"columns = {', '.join(scale_columns or ('all',))}\n")
        .replace(f"stages = {', '.join(cfg.stages)}\n",
                 f"stages = {', '.join(stages)}\n"), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (
        f"{path}: log_features column 'rainfall' is also scaled, and "
        "feature_scaling runs before feature_transformation: a standardized "
        "column has values <= 0 to log")
    with pytest.raises(ConfigError, match="'rainfall' is also scaled"):
        replace(cfg, stages=stages, scale_columns=scale_columns,
                log_features=log_features)


@pytest.mark.parametrize("stages,scale_columns", [
    (PIPELINE_STAGES, ("humidity",)),
    (("feature_transformation", "feature_scaling"), None),
    (("feature_selection", "outlier_removal", "feature_transformation"), None),
])
def test_a_column_logged_but_not_scaled_first_loads(tmp_path, stages,
                                                    scale_columns):
    """Also when the file sets the log features before the scaled columns
    and the stages."""
    cfg = replace(tiny_config(), stages=stages, scale_columns=scale_columns,
                  log_features=("rainfall",))
    sections = render_config(cfg).split("\n\n")
    path = tmp_path / "logged.ini"
    path.write_text("\n\n".join(sorted(
        sections, key=lambda text: not text.startswith("[transform]"))),
        encoding="utf-8")
    assert load_config(path) == cfg


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
