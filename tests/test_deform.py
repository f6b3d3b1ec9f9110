import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from voxsynth.config import GeneratorConfig
from voxsynth.deform import (
    _BLOCK,
    SVF,
    AffineParams,
    DeformationField,
    affine_matrix,
    compose_transforms,
    integrate_svf,
    jacobian_determinant,
    sample_affine,
    sample_svf,
    upsample_svf,
    warp_labels,
    _self_compose,
)
from voxsynth.volume import axis_coordinates, axis_positions, nearest_indices

from conftest import make_labels


def degenerate_cfg(**overrides):
    base = dict(
        rot_min=0.0, rot_max=0.0, scale_min=1.0, scale_max=1.0,
        shear_min=0.0, shear_max=0.0, trans_min=0.0, trans_max=0.0,
        warp_std_max=0.0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestAffine:
    def test_degenerate_config_gives_exact_identity(self, rng):
        params, matrix = sample_affine(degenerate_cfg(), rng, dims=(8, 8, 8))
        assert params.rotations_deg == (0.0, 0.0, 0.0)
        assert params.scalings == (1.0, 1.0, 1.0)
        assert np.array_equal(matrix, np.eye(4))

    def test_pure_translation_moves_centre_by_10mm(self):
        params = AffineParams((0, 0, 0), (1, 1, 1), (0, 0, 0), (10.0, 0.0, 0.0))
        spacing = (2.0, 1.0, 1.0)
        matrix = affine_matrix(params, dims=(9, 9, 9), spacing=spacing)
        centre = np.array([4.0, 4.0, 4.0, 1.0])
        world = np.diag([2.0, 1.0, 1.0, 1.0])  # volume affine
        moved = world @ matrix @ centre - world @ centre
        assert np.allclose(moved[:3], (10.0, 0.0, 0.0), atol=1e-12)

    def test_default_draws_respect_bounds(self, rng):
        cfg = GeneratorConfig()
        for _ in range(50):
            params, matrix = sample_affine(cfg, rng, dims=(16, 16, 16))
            assert all(-15 <= r <= 15 for r in params.rotations_deg)
            assert all(0.85 <= s <= 1.15 for s in params.scalings)
            assert all(-0.012 <= s <= 0.012 for s in params.shearings)
            assert all(-20 <= t <= 20 for t in params.translations_mm)
            assert abs(np.linalg.det(matrix)) > 1e-6

    def test_pivot_is_volume_centre(self, rng):
        # with no translation the centre voxel must be a fixed point
        params = AffineParams((10, -5, 3), (1.1, 0.9, 1.05), (0.01, 0.0, -0.01), (0, 0, 0))
        matrix = affine_matrix(params, dims=(11, 9, 7))
        centre = np.array([5.0, 4.0, 3.0, 1.0])
        assert np.allclose(matrix @ centre, centre, atol=1e-12)


class TestSampleSvf:
    def test_zero_bound_gives_zero_grid(self, rng):
        svf = sample_svf(degenerate_cfg(), rng)
        assert svf.std == 0.0
        assert np.all(svf.grid == 0.0)
        assert svf.grid.shape == (10, 10, 10, 3)

    def test_std_within_default_bound(self, rng):
        cfg = GeneratorConfig()
        stds = [sample_svf(cfg, rng).std for _ in range(200)]
        assert all(0 <= s <= 3 for s in stds)
        assert max(s for s in stds) > 1.0  # actually spans the range

    def test_grid_values_match_declared_std(self, rng):
        # pooled standardised values over ~10^5 draws behave as unit normals
        pooled = []
        for _ in range(40):
            svf = sample_svf(GeneratorConfig(), rng)
            if svf.std > 0.1:
                pooled.append(svf.grid.ravel() / svf.std)
        values = np.concatenate(pooled)
        assert values.size > 1e5
        assert abs(values.std() - 1.0) < 0.02


class TestUpsampleSvf:
    def test_zero_grid_gives_zero_field(self):
        field = upsample_svf(SVF(np.zeros((10, 10, 10, 3)), 0.0), (12, 13, 14))
        assert field.shape == (3, 12, 13, 14)
        assert np.all(field == 0.0)

    def test_constant_grid_gives_constant_field(self):
        grid = np.zeros((10, 10, 10, 3))
        grid[..., 0], grid[..., 1], grid[..., 2] = 1.5, -2.0, 0.25
        field = upsample_svf(SVF(grid, 1.0), (9, 17, 21))
        assert np.allclose(field[0], 1.5, atol=1e-12)
        assert np.allclose(field[1], -2.0, atol=1e-12)
        assert np.allclose(field[2], 0.25, atol=1e-12)

    def test_single_control_point_matches_hat_kernel_oracle(self):
        grid = np.zeros((10, 10, 10, 3))
        grid[4, 5, 6, 1] = 2.0
        dims = (20, 20, 20)
        field = upsample_svf(SVF(grid, 1.0), dims)

        def hat(t):
            return max(0.0, 1.0 - abs(t))

        pos = [np.clip(axis_positions(dims[a], 10 / dims[a], 10, 1.0), 0, 9) for a in range(3)]
        for i in range(0, 20, 3):
            for j in range(0, 20, 3):
                for k in range(0, 20, 3):
                    expected = 2.0 * hat(pos[0][i] - 4) * hat(pos[1][j] - 5) * hat(pos[2][k] - 6)
                    assert field[1, i, j, k] == pytest.approx(expected, abs=1e-12)
                    assert field[0, i, j, k] == 0.0


def euler_flow(velocity, substeps=1000):
    """Independent oracle: forward-Euler integration of the stationary field."""
    dims = velocity.shape[1:]
    pos = np.indices(dims, dtype=np.float64)
    dt = 1.0 / substeps
    for _ in range(substeps):
        sampled = np.empty_like(pos)
        for c in range(3):
            map_coordinates(velocity[c], pos, order=1, mode="nearest", output=sampled[c])
        pos = pos + dt * sampled
    return pos - np.indices(dims, dtype=np.float64)


def smooth_velocity(dims, rng, magnitude):
    svf = SVF(rng.standard_normal((10, 10, 10, 3)), 1.0)
    vel = upsample_svf(svf, dims)
    return vel * (magnitude / np.abs(vel).max())


class TestIntegrateSvf:
    def test_zero_velocity_gives_exact_identity(self):
        field = integrate_svf(np.zeros((3, 6, 6, 6)))
        assert np.all(field.displacement == 0.0)

    def test_constant_velocity_integrates_to_itself(self):
        vel = np.zeros((3, 8, 8, 8))
        vel[0], vel[1], vel[2] = 0.375, -0.25, 0.0625
        field = integrate_svf(vel)
        assert np.array_equal(field.displacement, vel)

    def test_steps_below_one_rejected(self):
        with pytest.raises(ValueError):
            integrate_svf(np.zeros((3, 4, 4, 4)), steps=0)

    def test_nan_velocity_rejected(self):
        # used to return a field with NaN voxels after a cast warning
        vel = np.zeros((3, 6, 6, 6))
        vel[1, 2, 3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            integrate_svf(vel)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_velocity_rejected(self, value):
        # used to loop about 1000 times and raise OverflowError from 2.0**1024
        vel = np.zeros((3, 6, 6, 6))
        vel[0, 0, 0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            integrate_svf(vel)

    def test_matches_fine_euler_oracle(self, rng):
        vel = smooth_velocity((32, 32, 32), rng, magnitude=0.1)
        fast = integrate_svf(vel).displacement
        reference = euler_flow(vel, substeps=1000)
        assert np.abs(fast - reference).max() < 1e-3

    def test_small_field_linearises(self, rng):
        vel = smooth_velocity((16, 16, 16), rng, magnitude=1e-4)
        field = integrate_svf(vel)
        assert np.abs(field.displacement - vel).max() < 1e-7


def scipy_self_compose(disp):
    """The squaring step as three whole-volume map_coordinates calls."""
    coords = np.indices(disp.shape[1:], dtype=np.float64) + disp
    out = np.empty_like(disp)
    for c in range(3):
        map_coordinates(disp[c], coords, order=1, mode="nearest", output=out[c])
    out += disp
    return out


class TestSelfCompose:
    """The blocked squaring kernel must reproduce map_coordinates bit for bit
    (values and the sign of zeros)."""

    def assert_same_bits(self, disp):
        out = np.empty_like(disp)
        _self_compose(np.pad(disp, ((0, 0), (1, 1), (1, 1), (1, 1)), mode="edge"), out)
        expected = scipy_self_compose(disp)
        assert np.array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims", [(7, 5, 9), (1, 6, 4), (6, 1, 4), (5, 4, 1), (2, 3, _BLOCK + 7)])
    def test_non_cubic_and_singleton_axes(self, rng, dims):
        self.assert_same_bits(rng.standard_normal((3,) + dims) * 2.0)

    def test_far_outside_the_grid(self, rng):
        disp = rng.standard_normal((3, 7, 5, 9)) * 1e3
        disp[0, 0, 0, :3] = (-1e12, 1e12, -0.5)
        self.assert_same_bits(disp)

    def test_integer_coordinates_including_last_voxel(self, rng):
        dims = (7, 5, 9)
        targets = np.stack([rng.integers(-3, n + 3, size=dims) for n in dims]).astype(np.float64)
        targets[:, 0, 0, 0] = [n - 1 for n in dims]
        targets[:, 1, 1, 1] = 0.0
        self.assert_same_bits(targets - np.indices(dims, dtype=np.float64))

    def test_signed_zeros(self):
        self.assert_same_bits(np.full((3, 4, 5, 6), -0.0))

    def test_voxel_count_not_a_multiple_of_the_block(self, rng):
        dims = (23, 19, 21)
        assert np.prod(dims) > _BLOCK and np.prod(dims) % _BLOCK != 0
        self.assert_same_bits(smooth_velocity(dims, rng, magnitude=4.0))

    def test_160_cube_field_unchanged(self):
        # SHA-256 recorded with the map_coordinates implementation
        vel = upsample_svf(sample_svf(GeneratorConfig(), np.random.default_rng(4)), (160,) * 3)
        field = integrate_svf(vel).displacement
        digest = hashlib.sha256(np.ascontiguousarray(field).tobytes()).hexdigest()
        assert digest == "5a1dea49a63c1e6c930f2b4063bef24a8940ec65a93a88eb05b41f654e3701ac"

    def test_memory_order_of_the_velocity_does_not_matter(self, rng):
        vel = smooth_velocity((9, 7, 8), rng, magnitude=4.0)
        expected = integrate_svf(vel).displacement.tobytes()
        fortran = np.asfortranarray(vel)
        moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(vel, 0, -1)), -1, 0)
        strided = np.zeros(vel.shape[:3] + (2 * vel.shape[3],))
        strided[..., ::2] = vel
        for other in (fortran, moved, strided[..., ::2]):
            assert not other.flags.c_contiguous
            assert integrate_svf(other).displacement.tobytes() == expected

    def test_rejects_non_contiguous_buffers(self):
        padded = np.asfortranarray(np.zeros((3, 6, 7, 8)))
        with pytest.raises(ValueError, match="C-contiguous"):
            _self_compose(padded, np.empty((3, 4, 5, 6)))


class TestCompose:
    def test_identity_identity(self):
        field = compose_transforms(np.eye(4), DeformationField(np.zeros((3, 5, 5, 5))))
        assert np.allclose(field.displacement, 0.0, atol=1e-12)

    def test_translation_only(self):
        matrix = np.eye(4)
        matrix[:3, 3] = (1.0, -2.0, 0.5)
        field = compose_transforms(matrix, DeformationField(np.zeros((3, 4, 4, 4))))
        assert np.allclose(field.displacement[0], 1.0)
        assert np.allclose(field.displacement[1], -2.0)
        assert np.allclose(field.displacement[2], 0.5)

    def test_singular_affine_rejected(self):
        singular = np.eye(4)
        singular[0, 0] = 0.0
        with pytest.raises(ValueError, match="singular"):
            compose_transforms(singular, DeformationField(np.zeros((3, 4, 4, 4))))

    def test_pointwise_composition_oracle(self, rng):
        dims = (12, 11, 10)
        vel = smooth_velocity(dims, rng, magnitude=1.5)
        nonlin = integrate_svf(vel)
        params, matrix = sample_affine(GeneratorConfig(), rng, dims)
        total = compose_transforms(matrix, nonlin)

        points = rng.uniform(0, np.array(dims) - 1.0, size=(100, 3))
        for p in points:
            # sequential: interpolate the nonlinear displacement, then affine
            u = np.array(
                [
                    map_coordinates(nonlin.displacement[c], p.reshape(3, 1), order=1, mode="nearest")[0]
                    for c in range(3)
                ]
            )
            expected = (matrix[:3, :3] @ (p + u) + matrix[:3, 3]) - p
            got = np.array(
                [
                    map_coordinates(total.displacement[c], p.reshape(3, 1), order=1, mode="nearest")[0]
                    for c in range(3)
                ]
            )
            assert np.abs(got - expected).max() < 1e-6


class TestWarpLabels:
    def test_identity_is_bit_exact(self, rng):
        v = make_labels(rng.integers(0, 5, size=(6, 6, 6)))
        out = warp_labels(v, np.eye(4), DeformationField(np.zeros((3, 6, 6, 6))))
        assert np.array_equal(out.data, v.data)

    def test_integer_translation_shifts_with_edge_clamp(self, rng):
        data = rng.integers(0, 5, size=(5, 4, 4))
        v = make_labels(data)
        disp = np.zeros((3, 5, 4, 4))
        disp[0] = 1.0
        out = warp_labels(v, np.eye(4), DeformationField(disp))
        expected = data[np.minimum(np.arange(5) + 1, 4), :, :]
        assert np.array_equal(out.data, expected)

    def test_random_field_matches_scalar_nearest_oracle(self, rng):
        data = rng.integers(0, 2, size=(8, 8, 8))
        v = make_labels(data)
        disp = rng.uniform(-2.5, 2.5, size=(3, 8, 8, 8))
        out = warp_labels(v, np.eye(4), DeformationField(disp))
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    src = []
                    for c, x in enumerate((i, j, k)):
                        coord = min(max(x + disp[c, i, j, k], 0.0), 7.0)
                        src.append(min(int(np.floor(coord + 0.5)), 7))
                    assert out.data[i, j, k] == data[src[0], src[1], src[2]]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_half_voxel_ties_round_up(self, rng, axis):
        data = rng.integers(0, 50, size=(5, 6, 7))
        v = make_labels(data)
        n = data.shape[axis]
        disp = np.zeros((3, 5, 6, 7))
        disp[axis] = 0.5
        out = warp_labels(v, np.eye(4), DeformationField(disp))
        expected = np.take(data, np.minimum(np.arange(n) + 1, n - 1), axis=axis)
        assert np.array_equal(out.data, expected)
        disp[axis] = -0.5
        out = warp_labels(v, np.eye(4), DeformationField(disp))
        assert np.array_equal(out.data, data)

    def test_never_invents_labels(self, rng):
        v = make_labels(rng.integers(3, 7, size=(6, 6, 6)))
        disp = rng.uniform(-10, 10, size=(3, 6, 6, 6))
        out = warp_labels(v, np.eye(4), DeformationField(disp))
        assert set(np.unique(out.data)) <= set(np.unique(v.data))

    def test_dim_mismatch_rejected(self, rng):
        v = make_labels(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="dims"):
            warp_labels(v, np.eye(4), DeformationField(np.zeros((3, 5, 5, 5))))

    def test_singular_affine_rejected(self):
        singular = np.eye(4)
        singular[1, 1] = 0.0
        with pytest.raises(ValueError, match="singular"):
            warp_labels(make_labels(np.zeros((4, 4, 4))), singular, DeformationField(np.zeros((3, 4, 4, 4))))

    @pytest.mark.parametrize("dims", [(160, 160, 160), (37, 53, 29), (2, 90, 61)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fused_pull_equals_the_composed_field_pull(self, dims, seed):
        rng = np.random.default_rng(seed)
        v = make_labels(rng.integers(0, 60, dims))
        _, matrix = sample_affine(GeneratorConfig(), rng, dims)
        nonlin = DeformationField(upsample_svf(sample_svf(GeneratorConfig(), rng), dims))
        expected = pull_through_field(v.data, compose_transforms(matrix, nonlin))
        out = warp_labels(v, matrix, nonlin)
        assert out.dtype == v.dtype
        assert out.data.tobytes() == expected.tobytes()


def pull_through_field(data, field):
    """Nearest-neighbour pull through a dense field: x -> x + field(x)."""
    flat = np.zeros(data.shape, dtype=np.intp)
    for c, n in enumerate(data.shape):
        flat *= n
        flat += nearest_indices(field.displacement[c] + axis_coordinates(data.shape, c), n)
    return data.ravel()[flat]


class TestJacobian:
    def test_identity_field_gives_one_everywhere(self):
        det = jacobian_determinant(DeformationField(np.zeros((3, 5, 5, 5))))
        assert np.allclose(det.data, 1.0, atol=1e-12)

    def test_uniform_scaling_gives_analytic_determinant(self):
        dims = (9, 9, 9)
        ident = np.indices(dims, dtype=np.float64)
        field = DeformationField(0.1 * ident)  # x -> 1.1 x
        det = jacobian_determinant(field)
        assert np.allclose(det.data[1:-1, 1:-1, 1:-1], 1.1**3, atol=1e-9)

    def test_integrated_default_svfs_stay_positive(self, rng):
        # spot check at the working grid size; the acceptance suite sweeps 100
        cfg = GeneratorConfig()
        for _ in range(3):
            svf = sample_svf(cfg, rng)
            vel = upsample_svf(svf, (64, 64, 64))
            det = jacobian_determinant(integrate_svf(vel))
            assert det.data[1:-1, 1:-1, 1:-1].min() > 0.0


def test_no_memory_is_held_beyond_the_results(rng):
    dims = (20, 16, 24)  # used by no other test, so nothing of it is cached yet
    vel = smooth_velocity(dims, rng, magnitude=3.0)
    _, matrix = sample_affine(GeneratorConfig(), rng, dims)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field = integrate_svf(vel)
        composed = compose_transforms(matrix, field)
        det = jacobian_determinant(composed)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    results = field.displacement.nbytes + composed.displacement.nbytes + det.data.nbytes
    assert held - results < vel.nbytes / 4


def test_deform_stage_holds_at_most_two_fields(rng):
    # upsample, integrate and pull as generate_sample nests them: the velocity
    # is freed once scaled, and the pull builds no composed field
    dims = (96, 96, 96)
    labels = make_labels(rng.integers(0, 60, dims))
    svf = SVF(rng.standard_normal((10, 10, 10, 3)) * 3.0, 3.0)
    _, matrix = sample_affine(GeneratorConfig(), rng, dims)
    field_bytes = 3 * np.prod(dims) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = warp_labels(labels, matrix, integrate_svf(upsample_svf(svf, dims)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.dims == dims
    assert peak < 2.5 * field_bytes
