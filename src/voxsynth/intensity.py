"""Label-conditioned image synthesis and intensity corruption.

A synthetic image starts as independent per-voxel Gaussian draws whose mean
and std depend only on the voxel's label, then gets multiplied by a smooth
positive bias field, rescaled into [0, 1], and passed through a random gamma
(power-law) remapping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .volume import Volume, resize_trilinear

__all__ = [
    "GmmParams",
    "BiasParams",
    "sample_gmm_params",
    "synth_gmm_image",
    "sample_bias_params",
    "bias_field_from_params",
    "apply_bias",
    "rescale_minmax",
    "draw_gamma",
    "apply_gamma",
]

BIAS_GRID_SHAPE = (4, 4, 4)
GAMMA_INPUT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class GmmParams:
    """Per-label Gaussian intensity parameters."""

    means: dict[int, float]
    stds: dict[int, float]


@dataclass(frozen=True)
class BiasParams:
    """Log-domain bias control grid and the std it was drawn with."""

    std: float
    grid: np.ndarray  # shape BIAS_GRID_SHAPE, log domain


def sample_gmm_params(cfg, labels_present, rng) -> GmmParams:
    """Independent uniform mean/std draws for every label present.

    Labels are visited in sorted order, mean before std, so a seeded stream
    replays identically.
    """
    labels = sorted(int(v) for v in labels_present)
    if not labels:
        raise ValueError("labels_present must not be empty")
    means = {}
    stds = {}
    for label in labels:
        means[label] = float(rng.uniform(cfg.mean_min, cfg.mean_max))
        stds[label] = float(rng.uniform(cfg.std_min, cfg.std_max))
    return GmmParams(means=means, stds=stds)


def synth_gmm_image(labels: Volume, params: GmmParams, rng) -> Volume:
    """Draw each voxel from the Gaussian of its label, i.i.d. across voxels.

    Negative draws are kept; the later rescale absorbs them.
    """
    if not labels.is_labels:
        raise ValueError("synth_gmm_image needs a label volume")
    present = labels.labels_present()
    missing = [v for v in present if v not in params.means]
    if missing:
        raise ValueError(f"no intensity parameters for labels {missing}")
    max_label = max(present)
    mean_lut = np.zeros(max_label + 1, dtype=np.float64)
    std_lut = np.zeros(max_label + 1, dtype=np.float64)
    for label in present:
        mean_lut[label] = params.means[label]
        std_lut[label] = params.stds[label]
    noise = rng.standard_normal(labels.dims)
    data = mean_lut[labels.data] + std_lut[labels.data] * noise
    return labels.with_data(data)


def sample_bias_params(cfg, rng) -> BiasParams:
    """Draw the bias std from U(0, bias_std_max) and the 4x4x4 log-grid."""
    std = float(rng.uniform(0.0, cfg.bias_std_max))
    grid = rng.standard_normal(BIAS_GRID_SHAPE) * std
    return BiasParams(std=std, grid=grid)


def bias_field_from_params(params: BiasParams, target_dims) -> Volume:
    """Upsample the log-grid to the target dims and exponentiate.

    The log field is symmetric about zero, so brightening and darkening by the
    same factor are equally likely; the realised field is strictly positive.
    """
    target_dims = tuple(int(d) for d in target_dims)
    if any(d < 2 for d in target_dims):
        raise ValueError(f"target dims must be >= 2 per axis, got {target_dims}")
    log_field = resize_trilinear(params.grid, target_dims)
    return Volume(np.exp(log_field))


def apply_bias(image: Volume, bias: Volume) -> Volume:
    if image.dims != bias.dims:
        raise ValueError(f"image dims {image.dims} do not match bias dims {bias.dims}")
    return image.with_data(image.data * bias.data)


def rescale_minmax(image: Volume, lo_pct: float = 0.0, hi_pct: float = 100.0) -> Volume:
    """Affine intensity map sending the lo/hi percentiles to 0/1, then clamp.

    The training path uses (0, 100); inference uses (1, 99) so outliers clamp.
    Percentiles interpolate linearly between order statistics. A constant
    image has no span: it comes back all zeros with a warning.
    """
    if not (0.0 <= lo_pct < hi_pct <= 100.0):
        raise ValueError(f"percentiles must satisfy 0 <= lo < hi <= 100, got ({lo_pct}, {hi_pct})")
    data = np.asarray(image.data, dtype=np.float64)
    if lo_pct == 0.0 and hi_pct == 100.0:
        lo, hi = float(data.min()), float(data.max())
    else:
        lo, hi = (float(p) for p in np.percentile(data, [lo_pct, hi_pct]))
    if hi <= lo:
        warnings.warn(
            "rescale_minmax: constant image, returning all zeros", RuntimeWarning, stacklevel=2
        )
        return image.with_data(np.zeros(image.dims, dtype=np.float64))
    out = (data - lo) / (hi - lo)
    np.clip(out, 0.0, 1.0, out=out)
    return image.with_data(out)


def draw_gamma(cfg, rng) -> float:
    """Log-domain gamma exponent: gamma ~ N(0, gamma_var)."""
    return float(rng.normal(0.0, np.sqrt(cfg.gamma_var)))


def apply_gamma(image: Volume, log_exponent: float) -> Volume:
    """Voxel-wise power remap input**exp(log_exponent) of a [0, 1] image.

    Monotone with 0 and 1 as fixed points, so the range is preserved.
    """
    data = np.asarray(image.data, dtype=np.float64)
    lo, hi = float(data.min()), float(data.max())
    if lo < -GAMMA_INPUT_TOLERANCE or hi > 1.0 + GAMMA_INPUT_TOLERANCE:
        raise ValueError(f"gamma input must lie in [0, 1], got range [{lo}, {hi}]")
    clipped = np.clip(data, 0.0, 1.0)
    return image.with_data(clipped ** np.exp(log_exponent))
