"""Generator configuration: every randomisation prior in one validated place.

The config file format is plain ``key = value`` lines; ``#`` starts a comment
and blank lines are ignored. Every key is optional, so an empty file yields
the default priors below. Unknown keys and inverted bound pairs are rejected
with the offending key named.
"""

from __future__ import annotations

import logging
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

logger = logging.getLogger(__name__)

__all__ = ["GeneratorConfig", "ConfigError", "load_config", "parse_config_text"]


class ConfigError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds of the uniform/Gaussian priors driving sample generation.

    Angles are degrees, spatial measures millimetres; intensity means/stds
    assume synthesis in a nominal [0, 255] range (the image is rescaled to
    [0, 1] afterwards). ``gamma_var`` is the variance of the log-domain
    exponent of the gamma augmentation.
    """

    rot_min: float = -15.0
    rot_max: float = 15.0
    scale_min: float = 0.85
    scale_max: float = 1.15
    shear_min: float = -0.012
    shear_max: float = 0.012
    trans_min: float = -20.0
    trans_max: float = 20.0
    warp_std_max: float = 3.0
    mean_min: float = 10.0
    mean_max: float = 240.0
    std_min: float = 1.0
    std_max: float = 25.0
    bias_std_max: float = 0.5
    gamma_var: float = 0.4
    hr_spacing: float = 1.0
    spacing_max: float = 9.0
    alpha_min: float = 0.95
    alpha_max: float = 1.15
    crop_size: int = 160
    crop_first: bool = True
    isotropic_lr: bool = False
    schema: str = "brain"
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for lo_key, hi_key in (
            ("rot_min", "rot_max"),
            ("scale_min", "scale_max"),
            ("shear_min", "shear_max"),
            ("trans_min", "trans_max"),
            ("mean_min", "mean_max"),
            ("std_min", "std_max"),
            ("alpha_min", "alpha_max"),
        ):
            lo, hi = getattr(self, lo_key), getattr(self, hi_key)
            if lo > hi:
                raise ConfigError(f"{lo_key}={lo} exceeds {hi_key}={hi}")
        if self.warp_std_max < 0:
            raise ConfigError(f"warp_std_max={self.warp_std_max} must be >= 0")
        if self.bias_std_max < 0:
            raise ConfigError(f"bias_std_max={self.bias_std_max} must be >= 0")
        if self.gamma_var < 0:
            raise ConfigError(f"gamma_var={self.gamma_var} must be >= 0")
        if self.hr_spacing <= 0:
            raise ConfigError(f"hr_spacing={self.hr_spacing} must be > 0")
        if self.spacing_max < self.hr_spacing:
            raise ConfigError(
                f"spacing_max={self.spacing_max} below hr_spacing={self.hr_spacing}"
            )
        if self.crop_size < 1:
            raise ConfigError(f"crop_size={self.crop_size} must be >= 1")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_overrides(self, **kwargs) -> "GeneratorConfig":
        return replace(self, **kwargs)


_FIELD_TYPES = typing.get_type_hints(GeneratorConfig)


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES[key]
    if kind is str:
        return text
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key {key}: expected a boolean, got {text!r}")
    try:
        return int(text) if kind is int else float(text)
    except ValueError:
        raise ConfigError(f"key {key}: could not parse {text!r} as a number") from None


def parse_config_text(text: str) -> GeneratorConfig:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, value.strip())
    return GeneratorConfig(**values)


def load_config(path) -> GeneratorConfig:
    """Read a config file, apply defaults for absent keys, and validate.

    The fully resolved configuration is echoed at INFO level so a run log
    always records the priors that were in effect.
    """
    text = Path(path).read_text()
    config = parse_config_text(text)
    logger.info("resolved config: %s", config.as_dict())
    return config
