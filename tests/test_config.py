import dataclasses

import pytest

from voxsynth.config import ConfigError, GeneratorConfig, load_config, parse_config_text

# the full default prior table; every bound checked exactly
DEFAULTS = {
    "rot_min": -15.0,
    "rot_max": 15.0,
    "scale_min": 0.85,
    "scale_max": 1.15,
    "shear_min": -0.012,
    "shear_max": 0.012,
    "trans_min": -20.0,
    "trans_max": 20.0,
    "warp_std_max": 3.0,
    "mean_min": 10.0,
    "mean_max": 240.0,
    "std_min": 1.0,
    "std_max": 25.0,
    "bias_std_max": 0.5,
    "gamma_var": 0.4,
    "hr_spacing": 1.0,
    "spacing_max": 9.0,
    "alpha_min": 0.95,
    "alpha_max": 1.15,
}


def test_empty_file_gives_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    for key, value in DEFAULTS.items():
        assert getattr(cfg, key) == value, key
    assert cfg.crop_size == 160
    assert cfg.seed == 0
    assert cfg.schema == "brain"


def test_single_override_keeps_other_defaults():
    cfg = parse_config_text("spacing_max = 5\n")
    assert cfg.spacing_max == 5.0
    for key, value in DEFAULTS.items():
        if key != "spacing_max":
            assert getattr(cfg, key) == value


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# top\n\ncrop_size = 96  # inline\n")
    assert cfg.crop_size == 96


def test_inverted_bounds_rejected_with_key():
    with pytest.raises(ConfigError, match="mean_min"):
        parse_config_text("mean_min = 300\nmean_max = 200\n")


def test_negative_gamma_var_rejected():
    with pytest.raises(ConfigError, match="gamma_var"):
        parse_config_text("gamma_var = -0.1\n")


@pytest.mark.parametrize("prefix", ["rot", "scale", "shear", "trans", "mean", "std", "alpha"])
def test_every_inverted_pair_rejected_naming_both_keys(prefix):
    lo_key, hi_key = f"{prefix}_min", f"{prefix}_max"
    lo, hi = DEFAULTS[lo_key], DEFAULTS[hi_key]
    with pytest.raises(ConfigError) as info:
        GeneratorConfig(**{lo_key: hi, hi_key: lo})
    assert str(info.value) == f"{lo_key}={hi} exceeds {hi_key}={lo}"


@pytest.mark.parametrize("key", ["warp_std_max", "bias_std_max", "gamma_var"])
def test_negative_spread_rejected(key):
    with pytest.raises(ConfigError) as info:
        parse_config_text(f"{key} = -0.1\n")
    assert str(info.value) == f"{key}=-0.1 must be >= 0"
    assert getattr(parse_config_text(f"{key} = 0\n"), key) == 0.0


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="wobble"):
        parse_config_text("wobble = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_bad_number_rejected_with_key():
    with pytest.raises(ConfigError, match="crop_size"):
        parse_config_text("crop_size = many\n")


def test_bool_and_string_keys():
    cfg = parse_config_text("crop_first = false\nisotropic_lr = true\nschema = my.csv\n")
    assert cfg.crop_first is False
    assert cfg.isotropic_lr is True
    assert cfg.schema == "my.csv"
    # every field's default, written as text, parses back to itself
    defaults = GeneratorConfig().as_dict()
    parsed = parse_config_text("".join(f"{k} = {v}\n" for k, v in defaults.items())).as_dict()
    assert parsed == defaults
    assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in defaults.items()}


def test_spacing_max_below_native_rejected():
    with pytest.raises(ConfigError, match="spacing_max"):
        parse_config_text("spacing_max = 0.5\n")


def test_resolved_config_is_echoed(tmp_path, caplog):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 7\n")
    with caplog.at_level("INFO", logger="voxsynth.config"):
        load_config(path)
    assert any("resolved config" in r.message and "'seed': 7" in r.message for r in caplog.records)


def test_validation_on_direct_construction():
    with pytest.raises(ConfigError):
        GeneratorConfig(alpha_min=2.0, alpha_max=1.0)


def test_replace_validates():
    # the CLI's overrides go through dataclasses.replace, and the samplers
    # rely on every config being validated
    cfg = GeneratorConfig()
    with pytest.raises(ConfigError, match="spacing_max"):
        dataclasses.replace(cfg, hr_spacing=10.0)
    with pytest.raises(ConfigError, match="warp_std_max"):
        dataclasses.replace(cfg, warp_std_max=-1.0)


def test_non_finite_values_rejected_with_key():
    with pytest.raises(ConfigError, match="rot_max"):
        parse_config_text("rot_max = nan\n")
    with pytest.raises(ConfigError, match="spacing_max"):
        GeneratorConfig(spacing_max=float("inf"))
