import numpy as np
import pytest

from voxsynth import volume
from voxsynth.volume import (
    Volume,
    axis_positions,
    crop_at,
    draw_crop_offset,
    flip_lr,
    relabel,
    resample,
    resample_axis,
)

from conftest import make_image, make_labels


def scalar_trilinear(data, x, y, z):
    """Independent reference: clamp, pick the 8 corners, tensor-product weights."""
    nx, ny, nz = data.shape

    def clamp(v, n):
        return min(max(v, 0.0), n - 1.0)

    x, y, z = clamp(x, nx), clamp(y, ny), clamp(z, nz)
    x0, y0, z0 = int(np.floor(x)), int(np.floor(y)), int(np.floor(z))
    x0, y0, z0 = min(x0, nx - 2) if nx > 1 else 0, min(y0, ny - 2) if ny > 1 else 0, min(z0, nz - 2) if nz > 1 else 0
    fx, fy, fz = x - x0, y - y0, z - z0
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (fx if dx else 1 - fx) * (fy if dy else 1 - fy) * (fz if dz else 1 - fz)
                total += w * data[min(x0 + dx, nx - 1), min(y0 + dy, ny - 1), min(z0 + dz, nz - 1)]
    return total


class TestVolume:
    def test_rejects_bad_shapes_and_spacing(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), spacing=(1, 0, 1))
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), affine=np.eye(3))

    def test_data_is_read_only(self):
        v = make_image(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_label_detection_by_dtype(self):
        assert make_labels(np.zeros((2, 2, 2))).is_labels
        assert not make_image(np.zeros((2, 2, 2))).is_labels


class TestResample:
    def test_constant_volume_stays_constant(self):
        v = make_image(np.full((5, 4, 3), 0.5), spacing=(1, 1, 1))
        for mode in ("trilinear", "nearest"):
            out = resample(v, (2.0, 0.7, 1.3), mode=mode)
            assert np.all(out.data == 0.5)

    def test_same_spacing_is_bit_exact_copy(self, rng):
        v = make_image(rng.standard_normal((4, 5, 6)), spacing=(1.0, 2.0, 3.0))
        out = resample(v, (1.0, 2.0, 3.0))
        assert out.data is not v.data
        assert np.array_equal(out.data, v.data)

    def test_ramp_matches_scalar_oracle(self):
        # 1-D ramp embedded in 3D, 1 mm -> 2 mm
        ramp = np.arange(4, dtype=np.float64).reshape(4, 1, 1) * np.ones((4, 3, 3))
        v = make_image(ramp)
        out = resample(v, (2.0, 1.0, 1.0))
        assert out.dims == (2, 3, 3)
        # oracle: output voxel centres carried into input voxel coordinates by
        # fixing the field-of-view centre (input centre 1.5, output centre 0.5,
        # scale 2), then scalar trilinear interpolation
        for i in range(2):
            x_src = (i - 0.5) * 2.0 + 1.5
            expected = scalar_trilinear(ramp, x_src, 1.0, 1.0)
            assert out.data[i, 1, 1] == pytest.approx(expected, abs=1e-12)

    def test_random_grid_matches_scalar_oracle(self, rng):
        data = rng.standard_normal((5, 6, 7))
        v = make_image(data, spacing=(1.0, 1.5, 0.8))
        target = (1.7, 1.0, 1.1)
        out = resample(v, target)
        pos = [axis_positions(out.dims[a], target[a], v.dims[a], v.spacing[a]) for a in range(3)]
        for i in range(out.dims[0]):
            for j in range(0, out.dims[1], 2):
                for k in range(0, out.dims[2], 3):
                    expected = scalar_trilinear(data, pos[0][i], pos[1][j], pos[2][k])
                    assert out.data[i, j, k] == pytest.approx(expected, abs=1e-10)

    def test_trilinear_exact_on_affine_ramp_interior(self):
        idx = np.indices((8, 8, 8), dtype=np.float64)
        ramp = 2.0 + 0.5 * idx[0] - 0.25 * idx[1] + 0.125 * idx[2]
        out = resample(make_image(ramp), (1.6, 1.6, 1.6))
        pos = [axis_positions(out.dims[a], 1.6, 8, 1.0) for a in range(3)]
        interior = [
            (i, j, k)
            for i in range(out.dims[0])
            for j in range(out.dims[1])
            for k in range(out.dims[2])
            if 0 <= pos[0][i] <= 7 and 0 <= pos[1][j] <= 7 and 0 <= pos[2][k] <= 7
        ]
        assert interior
        for i, j, k in interior:
            expected = 2.0 + 0.5 * pos[0][i] - 0.25 * pos[1][j] + 0.125 * pos[2][k]
            assert out.data[i, j, k] == pytest.approx(expected, abs=1e-12)

    def test_trilinear_bounded_by_input_range(self, rng):
        data = rng.standard_normal((6, 6, 6))
        out = resample(make_image(data), (0.4, 1.9, 0.9))
        assert out.data.min() >= data.min() - 1e-12
        assert out.data.max() <= data.max() + 1e-12

    def test_nearest_never_invents_labels(self, rng):
        data = rng.integers(0, 5, size=(6, 5, 4))
        v = make_labels(data)
        out = resample(v, (0.6, 1.7, 1.1), mode="nearest")
        assert set(np.unique(out.data)) <= set(np.unique(data))
        assert out.is_labels

    def test_trilinear_on_labels_rejected(self):
        v = make_labels(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="nearest"):
            resample(v, (2, 2, 2), mode="trilinear")

    def test_nonpositive_spacing_rejected(self):
        v = make_image(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            resample(v, (1, -1, 1))

    def test_collapse_to_single_voxel_axis(self):
        # extreme downsampling: axis collapses to one voxel but geometry stays sane
        v = make_image(np.arange(60, dtype=np.float64).reshape(5, 4, 3))
        out = resample(v, (100.0, 1.0, 1.0))
        assert out.dims == (1, 4, 3)
        assert out.data.min() >= v.data.min() and out.data.max() <= v.data.max()
        # the affine still advances 100 source-spacings per output voxel
        assert out.affine[0, 0] == pytest.approx(100.0)

    def test_fov_preserved_in_world_coordinates(self):
        v = make_image(np.zeros((8, 6, 4)), spacing=(1, 2, 3))
        out = resample(v, (2.0, 1.0, 1.5))
        # world position of the grid centre must be identical
        def centre_world(vol):
            c = (np.array(vol.dims) - 1) / 2.0
            return vol.affine @ np.append(c, 1.0)

        assert np.allclose(centre_world(v), centre_world(out), atol=1e-9)


class TestCrop:
    def test_full_size_crop_is_identity_with_zero_offset(self, rng):
        v = make_labels(rng.integers(0, 3, size=(4, 4, 4)))
        offset = draw_crop_offset(v.dims, (4, 4, 4), rng)
        assert offset == (0, 0, 0)
        out = crop_at(v, offset, (4, 4, 4))
        assert np.array_equal(out.data, v.data)
        assert np.allclose(out.affine, v.affine)

    def test_offsets_replay_rng_and_cover_all_positions(self):
        # 4^3 volume, 2^3 crops: offsets live in {0,1,2}^3; replaying the same
        # stream must give the same block, and all 27 offsets must be reachable
        v = make_labels(np.arange(64).reshape(4, 4, 4))
        seen = set()
        for seed in range(300):
            rng1 = np.random.default_rng(seed)
            rng2 = np.random.default_rng(seed)
            expected_offset = tuple(rng1.integers(0, [3, 3, 3]))
            out = crop_at(v, draw_crop_offset(v.dims, (2, 2, 2), rng2), (2, 2, 2))
            ox, oy, oz = expected_offset
            assert np.array_equal(out.data, v.data[ox : ox + 2, oy : oy + 2, oz : oz + 2])
            seen.add(expected_offset)
        assert len(seen) == 27

    def test_crop_updates_world_positions(self, rng):
        affine = np.diag([1.0, 2.0, 3.0, 1.0])
        affine[:3, 3] = (10, 20, 30)
        v = make_labels(rng.integers(0, 9, size=(5, 5, 5)), spacing=(1, 2, 3), affine=affine)
        out = crop_at(v, (1, 2, 3), (2, 2, 2))
        # voxel (0,0,0) of the crop is voxel (1,2,3) of the input
        world_in = v.affine @ np.array([1, 2, 3, 1.0])
        world_out = out.affine @ np.array([0, 0, 0, 1.0])
        assert np.allclose(world_in, world_out)

    def test_oversized_crop_rejected(self):
        v = make_labels(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            crop_at(v, draw_crop_offset(v.dims, (5, 4, 4), np.random.default_rng(0)), (5, 4, 4))

    def test_training_crop_size_accepted_on_big_volume(self, rng):
        v = make_labels(np.zeros((161, 162, 163), dtype=np.int32))
        out = crop_at(v, draw_crop_offset(v.dims, (160, 160, 160), rng), (160, 160, 160))
        assert out.dims == (160, 160, 160)


class TestFlip:
    table = {0: 0, 1: 2, 2: 1, 3: 3}

    def test_neutral_labels_only_mirror(self):
        data = np.zeros((4, 3, 3), dtype=np.int32)
        data[0, 1, 1] = 3
        v = make_labels(data)
        out = flip_lr(v, self.table)
        assert out.data[3, 1, 1] == 3
        assert out.data[0, 1, 1] == 0

    def test_paired_label_swaps_value_at_mirrored_position(self):
        data = np.zeros((4, 3, 3), dtype=np.int32)
        data[1, 0, 2] = 2  # right label
        v = make_labels(data)
        out = flip_lr(v, self.table)
        assert out.data[2, 0, 2] == 1  # left label at mirrored x

    def test_involution_on_random_volume(self, rng):
        data = rng.integers(0, 4, size=(8, 8, 8))
        v = make_labels(data)
        out = flip_lr(flip_lr(v, self.table), self.table)
        assert np.array_equal(out.data, v.data)

    def test_label_counts_preserved_up_to_pairing(self, rng):
        data = rng.integers(0, 4, size=(8, 8, 8))
        v = make_labels(data)
        out = flip_lr(v, self.table)
        for a, b in ((0, 0), (3, 3), (1, 2), (2, 1)):
            assert (v.data == a).sum() == (out.data == b).sum()

    def test_unknown_label_named_in_error(self):
        data = np.full((2, 2, 2), 9, dtype=np.int32)
        with pytest.raises(ValueError, match="9"):
            flip_lr(make_labels(data), self.table)

    def test_flip_axis_follows_affine(self):
        # world x comes from voxel axis 1 here
        affine = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        data = np.zeros((3, 4, 3), dtype=np.int32)
        data[1, 0, 1] = 3
        out = flip_lr(make_labels(data, affine=affine), self.table)
        assert out.data[1, 3, 1] == 3

    def test_non_mutual_partners_rejected(self):
        v = make_labels(np.zeros((2, 2, 2), dtype=np.int32))
        with pytest.raises(ValueError, match="3 -> 2 -> 1"):
            flip_lr(v, {0: 0, 1: 2, 2: 1, 3: 2})
        with pytest.raises(ValueError, match="1 -> 2 -> 2"):
            flip_lr(v, {0: 0, 1: 2, 2: 2})

    def test_negative_label_in_the_volume_rejected(self):
        table = {5: -1, -1: 5, 0: 0}
        data = np.array([-1, 0, 0, 0]).reshape(4, 1, 1)
        # a swap table indexed by -1 turned the whole line into 5
        with pytest.raises(ValueError, match="negative label -1"):
            flip_lr(make_labels(data), table)

    def test_negative_label_in_the_table_rejected(self):
        table = {5: -1, -1: 5, 0: 0}
        data = np.array([5, 0, 0, 0]).reshape(4, 1, 1)
        with pytest.raises(ValueError, match="negative label -1"):
            flip_lr(make_labels(data), table)


class TestRelabel:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="negative label -3"):
            relabel(np.array([-3, 1]).reshape(2, 1, 1), {})
        with pytest.raises(ValueError, match="negative label -1"):
            relabel(np.array([0, 1]).reshape(2, 1, 1), {-1: 1})

    def test_value_that_does_not_fit_the_dtype_rejected(self):
        # 300 used to wrap to 44 in a uint8 map
        with pytest.raises(ValueError, match="label 300 does not fit the data's dtype uint8"):
            relabel(np.array([1, 2], np.uint8), {1: 300})
        with pytest.raises(ValueError, match="label -1 does not fit the data's dtype uint16"):
            relabel(np.array([1, 2], np.uint16), {2: -1})

    def test_only_keys_the_data_can_hold_are_checked(self):
        out = relabel(np.array([1, 2], np.uint8), {1: 7, 900: 70000, 2: 255})
        assert out.dtype == np.uint8
        assert out.tolist() == [7, 255]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
    def test_dtype_kept_and_unnamed_labels_unchanged(self, rng, dtype):
        data = rng.integers(0, 50, (6, 5, 4)).astype(dtype)
        mapping = {3: 40, 40: 3, 7: 0, 99: 1}
        out = relabel(data, mapping)
        assert out.dtype == dtype
        expected = np.array([mapping.get(int(v), int(v)) for v in data.ravel()]).reshape(data.shape)
        assert np.array_equal(out, expected)


def whole_volume_lerp(data, axis, n_dst, s_dst, s_src):
    """The resample_axis formula over the whole volume at once."""
    n = data.shape[axis]
    p = np.clip(axis_positions(n_dst, s_dst, n, s_src), 0.0, n - 1.0)
    i0 = np.floor(p).astype(np.intp)
    if n > 1:
        np.minimum(i0, n - 2, out=i0)
    shape = [1] * data.ndim
    shape[axis] = n_dst
    f = (p - i0).reshape(shape)
    lo = np.take(data, i0, axis=axis).astype(np.float64)
    hi = np.take(data, np.minimum(i0 + 1, n - 1), axis=axis).astype(np.float64)
    return (1.0 - f) * lo + f * hi


class TestResampleAxis:
    @pytest.mark.parametrize("slab", [1, 7, 64 * 1024])
    @pytest.mark.parametrize("shape", [(7, 1, 300), (300, 5, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
    def test_slabs_equal_the_whole_volume_formula(self, rng, monkeypatch, slab, shape, dtype):
        monkeypatch.setattr(volume, "_SLAB", slab)
        data = (rng.standard_normal(shape) * 1000).astype(dtype)
        for axis in range(3):
            n = shape[axis]
            for n_dst in (1, 2, 3 * n + 1, max(1, n // 3)):
                got = resample_axis(data, axis, n_dst, n / n_dst, 1.0)
                expected = whole_volume_lerp(data, axis, n_dst, n / n_dst, 1.0)
                assert got.dtype == np.float64
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
