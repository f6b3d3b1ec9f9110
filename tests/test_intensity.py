import numpy as np
import pytest

from voxsynth.config import GeneratorConfig
from voxsynth.intensity import (
    BiasParams,
    apply_bias,
    apply_gamma,
    bias_field_from_params,
    draw_gamma,
    rescale_minmax,
    sample_bias_params,
    sample_gmm_params,
    synth_gmm_image,
)
from voxsynth.volume import axis_positions

from conftest import make_image, make_labels


class TestGmmParams:
    def test_defaults_bound_all_draws(self, rng):
        cfg = GeneratorConfig()
        params = sample_gmm_params(cfg, range(50), rng)
        assert all(10 <= m <= 240 for m in params.means.values())
        assert all(1 <= s <= 25 for s in params.stds.values())
        assert len(params.means) == 50

    def test_degenerate_bounds_make_identical_params(self, rng):
        cfg = GeneratorConfig(mean_min=100, mean_max=100, std_min=5, std_max=5)
        params = sample_gmm_params(cfg, [1, 2, 3], rng)
        assert set(params.means.values()) == {100.0}
        assert set(params.stds.values()) == {5.0}

    def test_mean_of_many_draws_near_midpoint(self, rng):
        cfg = GeneratorConfig()
        means = [sample_gmm_params(cfg, [1], rng).means[1] for _ in range(10_000)]
        assert abs(np.mean(means) - 125.0) < 0.01 * 125.0

    def test_empty_label_set_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            sample_gmm_params(GeneratorConfig(), [], rng)


class TestSynthImage:
    def test_zero_std_gives_exact_mean_map(self, rng):
        labels = make_labels(np.tile(np.array([1, 2], dtype=np.int32), (4, 4, 2)))
        cfg = GeneratorConfig(std_min=0.0, std_max=0.0)
        params = sample_gmm_params(cfg, [1, 2], rng)
        image = synth_gmm_image(labels, params, rng)
        assert np.all(image.data[labels.data == 1] == params.means[1])
        assert np.all(image.data[labels.data == 2] == params.means[2])

    def test_one_label_region_statistics(self, rng):
        # 32^3 voxels at mean 100, std 10: CLT bounds on sample mean and std
        labels = make_labels(np.ones((32, 32, 32)))
        from voxsynth.intensity import GmmParams

        params = GmmParams(means={1: 100.0}, stds={1: 10.0})
        image = synth_gmm_image(labels, params, rng)
        assert abs(image.data.mean() - 100.0) < 0.6
        assert abs(image.data.std() - 10.0) < 0.5

    def test_regions_are_uncorrelated(self, rng):
        half = 16
        data = np.zeros((2 * half, half, half), dtype=np.int32)
        data[:half] = 1
        data[half:] = 2
        labels = make_labels(data)
        from voxsynth.intensity import GmmParams

        params = GmmParams(means={1: 0.0, 2: 0.0}, stds={1: 1.0, 2: 1.0})
        image = synth_gmm_image(labels, params, rng)
        a = image.data[:half].ravel()
        b = image.data[half:].ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(a.size)

    def test_missing_label_parameter_is_named(self, rng):
        labels = make_labels(np.full((2, 2, 2), 9))
        from voxsynth.intensity import GmmParams

        with pytest.raises(ValueError, match="9"):
            synth_gmm_image(labels, GmmParams(means={1: 0.0}, stds={1: 1.0}), rng)

    def test_negative_label_rejected(self, rng):
        # a negative label would index the lookup table from its end
        data = np.full((2, 2, 2), 5)
        data[0] = -1
        from voxsynth.intensity import GmmParams

        params = GmmParams(means={-1: 10.0, 5: 200.0}, stds={-1: 0.0, 5: 0.0})
        with pytest.raises(ValueError, match="negative label -1"):
            synth_gmm_image(make_labels(data), params, rng)


class TestBiasField:
    def test_zero_bound_gives_unit_field(self, rng):
        cfg = GeneratorConfig(bias_std_max=0.0)
        field = bias_field_from_params(sample_bias_params(cfg, rng), (8, 9, 10))
        assert np.all(field.data == 1.0)

    def test_default_std_within_bound(self, rng):
        cfg = GeneratorConfig()
        for _ in range(100):
            assert 0 <= sample_bias_params(cfg, rng).std <= 0.5

    def test_field_strictly_positive(self, rng):
        cfg = GeneratorConfig(bias_std_max=3.0)  # exaggerated bias
        for _ in range(5):
            field = bias_field_from_params(sample_bias_params(cfg, rng), (6, 6, 6))
            assert field.data.min() > 0.0

    def test_single_control_point_matches_exp_kernel_oracle(self):
        grid = np.zeros((4, 4, 4))
        grid[1, 2, 3] = 0.8
        field = bias_field_from_params(BiasParams(std=1.0, grid=grid), (12, 12, 12))

        def hat(t):
            return max(0.0, 1.0 - abs(t))

        pos = [np.clip(axis_positions(12, 4 / 12, 4, 1.0), 0, 3) for _ in range(3)]
        for i in range(0, 12, 2):
            for j in range(0, 12, 2):
                for k in range(0, 12, 2):
                    log_term = 0.8 * hat(pos[0][i] - 1) * hat(pos[1][j] - 2) * hat(pos[2][k] - 3)
                    assert field.data[i, j, k] == pytest.approx(np.exp(log_term), rel=1e-12)

    def test_log_field_symmetric_in_distribution(self, rng):
        # multiplication and division by the same factor equally likely:
        # the log-domain control values pool to zero mean
        cfg = GeneratorConfig()
        pooled = np.concatenate(
            [sample_bias_params(cfg, rng).grid.ravel() for _ in range(2000)]
        )
        assert abs(pooled.mean()) < 3.0 * pooled.std() / np.sqrt(pooled.size)


class TestApplyBias:
    def test_unit_bias_is_identity(self, rng):
        image = make_image(rng.standard_normal((4, 4, 4)))
        out = apply_bias(image, make_image(np.ones((4, 4, 4))))
        assert np.array_equal(out.data, image.data)

    def test_unit_image_returns_bias(self, rng):
        bias = make_image(rng.uniform(0.5, 2.0, (4, 4, 4)))
        out = apply_bias(make_image(np.ones((4, 4, 4))), bias)
        assert np.array_equal(out.data, bias.data)

    def test_elementwise_product_oracle(self, rng):
        image = make_image(rng.standard_normal((3, 4, 5)))
        bias = make_image(rng.uniform(0.5, 2.0, (3, 4, 5)))
        out = apply_bias(image, bias)
        for idx in np.ndindex(3, 4, 5):
            assert out.data[idx] == image.data[idx] * bias.data[idx]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            apply_bias(make_image(np.ones((2, 2, 2))), make_image(np.ones((3, 3, 3))))


class TestRescale:
    def test_affine_map_on_known_range(self):
        data = np.array([2.0, 6.0, 10.0] * 9).reshape(3, 3, 3)
        out = rescale_minmax(make_image(data))
        assert out.data.min() == 0.0
        assert out.data.max() == 1.0
        assert np.all(out.data[data == 6.0] == 0.5)

    def test_percentile_path_clamps_outliers(self, rng):
        data = rng.uniform(0, 1, size=(10, 10, 10))
        flat = data.ravel()
        flat[:20] = 1e6  # 2% outliers
        out = rescale_minmax(make_image(data), 1.0, 99.0)
        assert np.all(out.data[data > 1e5] == 1.0)
        lo, hi = np.percentile(np.sort(data.ravel()), [1, 99])  # sorting oracle
        body = (data - lo) / (hi - lo)
        np.clip(body, 0, 1, out=body)
        assert np.allclose(out.data, body, atol=1e-12)

    def test_idempotent_for_full_range(self, rng):
        image = make_image(rng.standard_normal((5, 5, 5)))
        once = rescale_minmax(image)
        twice = rescale_minmax(once)
        assert np.allclose(once.data, twice.data, atol=1e-15)

    def test_constant_image_warns_and_zeroes(self):
        with pytest.warns(RuntimeWarning, match="constant"):
            out = rescale_minmax(make_image(np.full((3, 3, 3), 7.0)))
        assert np.all(out.data == 0.0)

    def test_bad_percentiles_rejected(self):
        image = make_image(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            rescale_minmax(image, 50, 50)
        with pytest.raises(ValueError):
            rescale_minmax(image, -1, 99)


class TestGamma:
    def test_zero_exponent_is_identity(self, rng):
        image = make_image(rng.uniform(0, 1, (4, 4, 4)))
        out = apply_gamma(image, 0.0)
        assert np.array_equal(out.data, image.data)

    def test_forced_exponent_two(self):
        image = make_image(np.full((2, 2, 2), 0.5))
        out = apply_gamma(image, np.log(2.0))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_preserves_unit_interval_and_order(self, rng):
        cfg = GeneratorConfig()
        values = np.sort(rng.uniform(0, 1, 64))
        image = make_image(values.reshape(4, 4, 4))
        out = apply_gamma(image, draw_gamma(cfg, rng))
        flat = out.data.ravel()
        assert flat.min() >= 0.0 and flat.max() <= 1.0
        assert np.all(np.diff(flat) >= 0.0)

    def test_endpoints_fixed(self, rng):
        image = make_image(np.array([0.0, 1.0] * 4).reshape(2, 2, 2))
        out = apply_gamma(image, draw_gamma(GeneratorConfig(), rng))
        assert np.all(out.data[image.data == 0.0] == 0.0)
        assert np.all(out.data[image.data == 1.0] == 1.0)

    def test_default_exponent_distribution(self, rng):
        cfg = GeneratorConfig()
        draws = np.array([draw_gamma(cfg, rng) for _ in range(20_000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 0.4) < 0.02

    def test_out_of_range_input_rejected(self):
        image = make_image(np.full((2, 2, 2), 1.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            apply_gamma(image, 0.1)
