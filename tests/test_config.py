import configparser

import pytest

from teayield.config import load_config, render_config
from teayield.errors import ConfigError

from conftest import tiny_config


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
