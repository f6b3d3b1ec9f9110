import numpy as np
import pytest

from voxsynth.config import GeneratorConfig
from voxsynth.resolution import (
    ResolutionParams,
    blur_axis,
    gaussian_taps,
    sample_resolution,
    simulate_lr,
    thickness_sigma,
)

from conftest import make_image


class TestSampleResolution:
    def test_defaults_bound_spacing(self, rng):
        cfg = GeneratorConfig()
        for _ in range(200):
            params = sample_resolution(cfg, rng)
            assert 1.0 <= params.slice_spacing <= 9.0
            assert 1.0 <= params.slice_thickness <= params.slice_spacing
            assert 0.95 <= params.alpha <= 1.15

    def test_degenerate_interval_pins_everything(self, rng):
        cfg = GeneratorConfig(spacing_max=1.0)
        params = sample_resolution(cfg, rng)
        assert params.slice_spacing == 1.0
        assert params.slice_thickness == 1.0

    def test_axis_uniform_within_3_sigma(self, rng):
        cfg = GeneratorConfig()
        n = 10_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_resolution(cfg, rng).axis] += 1
        sigma = np.sqrt(n * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - n / 3) < 3 * sigma)

    def test_params_invariant_enforced(self):
        with pytest.raises(ValueError):
            ResolutionParams(axis=0, slice_spacing=2.0, slice_thickness=3.0, alpha=1.0, hr_spacing=1.0)
        with pytest.raises(ValueError):
            ResolutionParams(axis=5, slice_spacing=2.0, slice_thickness=1.0, alpha=1.0, hr_spacing=1.0)


class TestThicknessSigma:
    def test_unit_case_closed_form(self):
        assert thickness_sigma(1.0, 1.0, 1.0) == pytest.approx(2 * np.log(10) / (2 * np.pi), abs=1e-12)
        assert thickness_sigma(1.0, 1.0, 1.0) == pytest.approx(0.7329355, abs=1e-6)

    def test_zero_alpha_gives_zero(self):
        assert thickness_sigma(3.0, 1.0, 0.0) == 0.0

    def test_linear_in_thickness(self):
        base = thickness_sigma(1.0, 1.0, 1.0)
        for r in (1, 3, 5, 7, 9):
            assert thickness_sigma(float(r), 1.0, 1.0) == pytest.approx(r * base, rel=1e-12)
        assert thickness_sigma(5.0, 1.0, 1.0) == pytest.approx(3.66468, abs=1e-5)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            thickness_sigma(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            thickness_sigma(1.0, -1.0, 1.0)


class TestBlurAxis:
    def test_zero_sigma_bit_exact(self, rng):
        image = make_image(rng.standard_normal((5, 5, 5)))
        out = blur_axis(image, 0.0, 0)
        assert np.array_equal(out.data, image.data)

    def test_constant_image_unchanged(self):
        image = make_image(np.full((6, 6, 6), 3.25))
        out = blur_axis(image, 2.0, 1)
        assert np.allclose(out.data, 3.25, atol=1e-12)

    def test_impulse_matches_kernel_oracle(self):
        sigma = 1.0
        data = np.zeros((11, 3, 3))
        data[5, 1, 1] = 1.0
        out = blur_axis(make_image(data), sigma, 0)
        # oracle: normalised taps truncated at ceil(3 sigma) = 3 per side
        taps = np.exp(-0.5 * (np.arange(-3, 4) / sigma) ** 2)
        taps = taps / taps.sum()
        assert np.allclose(out.data[2:9, 1, 1], taps, atol=1e-12)
        assert out.data[1, 1, 1] == 0.0  # beyond the truncated support
        assert np.all(out.data[:, 0, 0] == 0.0)  # other lines untouched

    def test_taps_sum_to_one(self):
        for sigma in (0.3, 0.7, 1.0, 2.5, 7.3):
            taps = gaussian_taps(sigma)
            assert len(taps) == 2 * int(np.ceil(3 * sigma)) + 1
            assert taps.sum() == pytest.approx(1.0, abs=1e-12)

    def test_edge_replication(self):
        data = np.zeros((6, 1, 1))
        data[0] = 1.0
        out = blur_axis(make_image(data), 1.0, 0)
        # replicated edge keeps more mass at the border than interior blur would
        taps = gaussian_taps(1.0)
        expected_first = taps[:4].sum()  # replicated x[-3..0] all equal 1
        assert out.data[0, 0, 0] == pytest.approx(expected_first, abs=1e-12)


def lr_params(axis=0, spacing=5.0, thickness=None, alpha=1.0):
    return ResolutionParams(
        axis=axis,
        slice_spacing=spacing,
        slice_thickness=spacing if thickness is None else thickness,
        alpha=alpha,
        hr_spacing=1.0,
    )


class TestSimulateLr:
    def test_output_geometry_matches_input(self, rng):
        image = make_image(rng.uniform(0, 1, (20, 21, 22)))
        out = simulate_lr(image, lr_params(axis=2, spacing=7.3, thickness=4.1))
        assert out.dims == image.dims
        assert out.spacing == image.spacing
        assert np.array_equal(out.affine, image.affine)

    def test_near_identity_at_native_resolution(self, rng):
        # spacing == thickness == native leaves only the residual formula blur
        image = make_image(rng.uniform(0, 1, (16, 16, 16)))
        params = ResolutionParams(0, 1.0, 1.0, 0.95, 1.0)
        out = simulate_lr(image, params)
        blurred = blur_axis(image, thickness_sigma(1.0, 1.0, 0.95), 0)
        assert np.allclose(out.data, blurred.data, atol=1e-12)

    def test_boundary_ramp_widens_with_spacing(self):
        # sharp two-region boundary orthogonal to the slice axis
        data = np.zeros((60, 8, 8))
        data[30:] = 1.0
        image = make_image(data)
        out = simulate_lr(image, lr_params(spacing=5.0, thickness=5.0))
        profile = out.data[:, 4, 4]
        width_out = np.sum((profile > 0.05) & (profile < 0.95))
        assert width_out >= 5  # at least the slice spacing
        narrow = simulate_lr(image, lr_params(spacing=1.5, thickness=1.5))
        width_narrow = np.sum((narrow.data[:, 4, 4] > 0.05) & (narrow.data[:, 4, 4] < 0.95))
        assert width_out > width_narrow

    def test_blur_confined_to_slice_axis(self, rng):
        # a pattern varying only in-plane is untouched by through-plane blur
        inplane = np.tile(rng.uniform(0, 1, (1, 12, 12)), (12, 1, 1))
        image = make_image(inplane)
        out = simulate_lr(image, lr_params(axis=0, spacing=6.0, thickness=6.0))
        assert np.allclose(out.data, inplane, atol=1e-9)

    def test_global_mean_preserved_on_constant(self):
        image = make_image(np.full((24, 6, 6), 0.37))
        out = simulate_lr(image, lr_params(spacing=4.7, thickness=3.2))
        assert abs(out.data.mean() - 0.37) < 1e-4

    def test_range_never_exceeds_input(self, rng):
        image = make_image(rng.uniform(0, 1, (18, 18, 18)))
        out = simulate_lr(image, lr_params(axis=1, spacing=8.0, thickness=6.0))
        assert out.data.min() >= image.data.min() - 1e-12
        assert out.data.max() <= image.data.max() + 1e-12

    def test_monotone_degradation_with_spacing(self, rng):
        base = rng.uniform(0, 1, (32, 8, 8))
        image = make_image(base)
        errors = []
        for spacing in (2.0, 4.0, 8.0):
            out = simulate_lr(image, lr_params(spacing=spacing, thickness=spacing))
            errors.append(np.abs(out.data - base).mean())
        assert errors[0] < errors[1] < errors[2]

    def test_isotropic_mode_degrades_all_axes(self, rng):
        varying = rng.uniform(0, 1, (12, 12, 12))
        image = make_image(varying)
        aniso = simulate_lr(image, lr_params(axis=0, spacing=6.0, thickness=6.0))
        iso = simulate_lr(image, lr_params(axis=0, spacing=6.0, thickness=6.0), isotropic=True)
        # in-plane profile changes only in isotropic mode
        assert not np.allclose(iso.data[0, :, 0], aniso.data[0, :, 0], atol=1e-6)

    def test_anisotropic_input_rejected(self, rng):
        image = make_image(rng.uniform(0, 1, (8, 8, 8)), spacing=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="isotropic"):
            simulate_lr(image, lr_params())
