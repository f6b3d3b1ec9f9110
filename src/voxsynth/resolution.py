"""Acquisition-resolution simulation: slice-profile blur along a random axis,
downsampling to the slice spacing, and upsampling back to the native grid.

Slice thickness maps to a Gaussian std chosen so the blur divides the power of
the native-resolution signal by ten at the cut-off frequency of the simulated
slab; a random factor alpha perturbs it to soften the Gaussian-profile
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .volume import Volume, resample_axis, resampled_size

__all__ = [
    "ResolutionParams",
    "sample_resolution",
    "thickness_sigma",
    "blur_axis",
    "simulate_lr",
]

AXIS_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class ResolutionParams:
    """One simulated acquisition: slice axis, spacing/thickness in mm, and the
    thickness perturbation factor, relative to the native spacing."""

    axis: int
    slice_spacing: float
    slice_thickness: float
    alpha: float
    hr_spacing: float

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis}")
        if not (0 < self.hr_spacing <= self.slice_thickness <= self.slice_spacing):
            raise ValueError(
                "resolution parameters must satisfy 0 < native <= thickness <= spacing, "
                f"got native={self.hr_spacing}, thickness={self.slice_thickness}, "
                f"spacing={self.slice_spacing}"
            )

    @property
    def axis_name(self) -> str:
        return AXIS_NAMES[self.axis]


def sample_resolution(cfg, rng) -> ResolutionParams:
    """Uniform slice axis; spacing ~ U(native, spacing_max); thickness
    ~ U(native, spacing) since slices very rarely overlap; alpha uniform."""
    axis = int(rng.integers(0, 3))
    spacing = float(rng.uniform(cfg.hr_spacing, cfg.spacing_max))
    thickness = float(rng.uniform(cfg.hr_spacing, spacing))
    alpha = float(rng.uniform(cfg.alpha_min, cfg.alpha_max))
    return ResolutionParams(
        axis=axis,
        slice_spacing=spacing,
        slice_thickness=thickness,
        alpha=alpha,
        hr_spacing=cfg.hr_spacing,
    )


def thickness_sigma(r_thick: float, r_hr: float, alpha: float) -> float:
    """Blur std (in voxels at the native grid) for a given slice thickness:

        sigma = 2 * alpha * ln(10) / (2*pi) * r_thick / r_hr

    which attenuates the native signal power tenfold at the cut-off frequency
    of a slice of that thickness.
    """
    if r_thick <= 0 or r_hr <= 0:
        raise ValueError(f"thicknesses must be positive, got r_thick={r_thick}, r_hr={r_hr}")
    return 2.0 * alpha * np.log(10.0) / (2.0 * np.pi) * r_thick / r_hr


def gaussian_taps(sigma: float) -> np.ndarray:
    """Discrete Gaussian kernel truncated at ceil(3*sigma) taps per side and
    renormalised to sum exactly one."""
    radius = int(np.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-0.5 * (offsets / sigma) ** 2)
    return taps / taps.sum()


def blur_axis(image: Volume, sigma: float, axis: int) -> Volume:
    """1-D Gaussian blur along a single axis with edge replication.

    sigma = 0 is a bit-exact identity.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if sigma == 0.0:
        return image
    data = np.asarray(image.data, dtype=np.float64)
    out = correlate1d(data, gaussian_taps(sigma), axis=axis, mode="nearest")
    return image.with_data(out)


def simulate_lr(image: Volume, params: ResolutionParams, isotropic: bool = False) -> Volume:
    """Simulate a low-resolution acquisition and return it on the native grid.

    Pipeline: blur along the slice axis, linearly resample that axis down to
    the slice spacing, then back up to the native spacing. In-plane axes are
    untouched unless `isotropic` is set, which degrades all three axes.
    Output dims, spacing, and affine equal the input's.
    """
    if image.is_labels:
        raise ValueError("simulate_lr operates on intensity images")
    if any(abs(s - params.hr_spacing) > 1e-6 * params.hr_spacing for s in image.spacing):
        raise ValueError(
            f"image spacing {image.spacing} is not isotropic at {params.hr_spacing} mm"
        )
    axes = (0, 1, 2) if isotropic else (params.axis,)
    sigma = thickness_sigma(params.slice_thickness, params.hr_spacing, params.alpha)

    out = image
    for axis in axes:
        out = blur_axis(out, sigma, axis)
    if params.slice_spacing == params.hr_spacing:
        return out

    data = np.asarray(out.data, dtype=np.float64)
    for axis in axes:
        n_native = image.dims[axis]
        n_low = resampled_size(n_native, params.hr_spacing, params.slice_spacing)
        data = resample_axis(data, axis, n_low, params.slice_spacing, params.hr_spacing)
        data = resample_axis(data, axis, n_native, params.hr_spacing, params.slice_spacing)
    return image.with_data(data)
