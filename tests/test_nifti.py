import gzip
import struct

import numpy as np
import pytest

from voxsynth.nifti import read_nifti, write_nifti
from voxsynth.volume import Volume

from conftest import fail_writes, make_image, make_labels


def volumes_equal(a: Volume, b: Volume) -> bool:
    return (
        a.dtype == b.dtype
        and np.array_equal(a.data, b.data)
        and np.allclose(a.spacing, b.spacing, atol=1e-6)
        and np.allclose(a.affine, b.affine, atol=1e-4)
    )


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize(
    "dtype,values",
    [
        (np.uint8, [0, 1, 255]),
        (np.int16, [-32768, 0, 32767]),
        (np.int32, [-(2**31), 0, 2**31 - 1]),
        (np.float32, [-1.5, 0.0, 3.25e7]),
    ],
)
def test_round_trip_bit_exact(tmp_path, rng, dtype, values, suffix):
    shape = (5, 4, 3)
    if np.issubdtype(dtype, np.integer):
        data = rng.choice(np.array(values, dtype=dtype), size=shape)
    else:
        data = rng.standard_normal(shape).astype(dtype)
    affine = np.diag([1.0, 2.0, 0.5, 1.0])
    affine[:3, 3] = (-4, 7, 0.25)
    v = Volume(data, spacing=(1.0, 2.0, 0.5), affine=affine)
    path = tmp_path / f"vol{suffix}"
    write_nifti(v, path, datatype=dtype)
    back = read_nifti(path)
    assert volumes_equal(v, back)
    assert back.data.dtype == dtype


def test_gzip_and_plain_encodings_agree(tmp_path, rng):
    data = rng.standard_normal((4, 4, 4)).astype(np.float32)
    v = make_image(data).astype(np.float32)
    write_nifti(v, tmp_path / "a.nii", datatype=np.float32)
    write_nifti(v, tmp_path / "a.nii.gz", datatype=np.float32)
    plain = read_nifti(tmp_path / "a.nii")
    zipped = read_nifti(tmp_path / "a.nii.gz")
    assert volumes_equal(plain, zipped)
    # decompression oracle: the gzip payload is byte-identical to the plain file
    raw_plain = (tmp_path / "a.nii").read_bytes()
    raw_gz = gzip.decompress((tmp_path / "a.nii.gz").read_bytes())
    assert raw_plain == raw_gz


def test_identical_volumes_give_identical_gz_bytes(tmp_path, rng):
    data = rng.standard_normal((4, 4, 4)).astype(np.float32)
    v = make_image(data).astype(np.float32)
    write_nifti(v, tmp_path / "a.nii.gz", datatype=np.float32)
    write_nifti(v, tmp_path / "b.nii.gz", datatype=np.float32)
    assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()


def test_scl_slope_inter_applied(tmp_path):
    v = make_labels(np.full((2, 2, 2), 3, dtype=np.int16))
    path = tmp_path / "scaled.nii"
    write_nifti(v, path, datatype=np.int16)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 2.0, 1.0)  # slope 2, intercept 1
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    assert np.all(back.data == 7.0)  # raw 3 -> 3*2 + 1
    assert not back.is_labels


def test_unit_slope_zero_inter_keeps_integer_dtype(tmp_path):
    v = make_labels(np.full((2, 2, 2), 3, dtype=np.int16))
    path = tmp_path / "unit.nii"
    write_nifti(v, path, datatype=np.int16)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 1.0, 0.0)
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    assert back.is_labels and np.all(back.data == 3)


def test_nan_slope_means_no_scaling(tmp_path):
    data = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    path = tmp_path / "nan_slope.nii"
    write_nifti(make_labels(data), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, float("nan"), 0.0)
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    assert back.dtype == np.int32
    assert np.array_equal(back.data, data)


def test_nan_intercept_with_scaling_slope_rejected(tmp_path):
    path = tmp_path / "nan_inter.nii"
    write_nifti(make_labels(np.full((2, 2, 2), 3, dtype=np.int16)), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2f", raw, 112, 2.0, float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="scl_inter"):
        read_nifti(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_pixdim_rejected(tmp_path, bad):
    path = tmp_path / "pixdim.nii"
    write_nifti(make_labels(np.zeros((2, 2, 2))), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 80, bad)  # pixdim[1]
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="spacing"):
        read_nifti(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_vox_offset_rejected(tmp_path, bad):
    path = tmp_path / "offset.nii"
    write_nifti(make_labels(np.zeros((2, 2, 2))), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 108, bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="vox_offset"):
        read_nifti(path)


def test_unsupported_datatype_rejected(tmp_path):
    v = make_image(np.zeros((2, 2, 2)))
    path = tmp_path / "f64.nii"
    write_nifti(v.astype(np.float32), path, datatype=np.float32)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 32)  # complex64 code
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="datatype"):
        read_nifti(path)
    with pytest.raises(ValueError, match="datatype"):
        write_nifti(v, tmp_path / "bad.nii", datatype=np.float64)


READ_ONLY_DTYPES = [
    (np.uint16, 512, [0, 1, 65535]),
    (np.int64, 1024, [-(2**63), 0, 2**63 - 1]),
    (np.float64, 64, [-1.5e300, 0.0, 5e-324]),
]


def write_raw_payload(path, data, code):
    """A little-endian NIfTI file of `data` under datatype `code`: the header
    write_nifti gives the same shape, with its datatype and bitpix patched."""
    write_nifti(make_labels(np.zeros(data.shape, dtype=np.uint8)), path)
    raw = bytearray(path.read_bytes()[:352])
    struct.pack_into("<2h", raw, 70, code, data.dtype.itemsize * 8)
    path.write_bytes(bytes(raw) + data.astype(data.dtype.newbyteorder("<")).tobytes(order="F"))


@pytest.mark.parametrize("dtype,code,values", READ_ONLY_DTYPES)
def test_read_only_datatypes_round_trip(tmp_path, rng, dtype, code, values):
    data = rng.choice(np.array(values, dtype=dtype), size=(5, 4, 3))
    write_raw_payload(tmp_path / "v.nii", data, code)
    back = read_nifti(tmp_path / "v.nii")
    assert back.dtype == dtype
    assert back.data.tobytes() == data.tobytes()


@pytest.mark.parametrize("dtype,code,values", READ_ONLY_DTYPES)
def test_read_only_datatypes_truncated_is_io_error(tmp_path, dtype, code, values):
    data = np.array(values * 20, dtype=dtype).reshape(5, 4, 3)
    path = tmp_path / "v.nii"
    write_raw_payload(path, data, code)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(OSError, match="truncated"):
        read_nifti(path)


def test_truncated_file_is_io_error(tmp_path):
    v = make_image(np.zeros((4, 4, 4))).astype(np.float32)
    path = tmp_path / "t.nii"
    write_nifti(v, path, datatype=np.float32)
    blob = path.read_bytes()
    (tmp_path / "short.nii").write_bytes(blob[: len(blob) - 10])
    with pytest.raises(OSError, match="truncated"):
        read_nifti(tmp_path / "short.nii")
    (tmp_path / "tiny.nii").write_bytes(blob[:100])
    with pytest.raises(OSError, match="truncated"):
        read_nifti(tmp_path / "tiny.nii")


def test_wrong_dimension_count_rejected(tmp_path):
    v = make_image(np.zeros((2, 2, 2))).astype(np.float32)
    path = tmp_path / "d4.nii"
    write_nifti(v, path, datatype=np.float32)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 5, 1, 1, 1)  # a 4-D volume of 5 frames
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="3D"):
        read_nifti(path)


@pytest.mark.parametrize("ndim", [4, 7])
def test_trailing_singleton_axes_read_as_3d(tmp_path, rng, ndim):
    # SPM, FSL and FreeSurfer write 3D volumes with a singleton time axis
    v = make_labels(rng.integers(0, 9, (3, 4, 5)))
    path = tmp_path / "t1.nii"
    write_nifti(v, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, ndim, 3, 4, 5, 1, 1, 1, 1)
    path.write_bytes(bytes(raw))
    assert volumes_equal(read_nifti(path), v)


def test_qform_fallback_when_sform_absent(tmp_path):
    v = make_image(np.zeros((3, 3, 3))).astype(np.float32)
    path = tmp_path / "q.nii"
    write_nifti(v, path, datatype=np.float32)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2h", raw, 252, 1, 0)  # qform on, sform off
    struct.pack_into("<3f", raw, 256, 0.0, 0.0, 0.0)  # identity quaternion
    struct.pack_into("<3f", raw, 268, 5.0, 6.0, 7.0)
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    expected = np.eye(4)
    expected[:3, 3] = (5, 6, 7)
    assert np.allclose(back.affine, expected, atol=1e-6)


def test_pixdim_fallback_when_no_codes(tmp_path):
    v = Volume(np.zeros((3, 3, 3), dtype=np.float32), spacing=(2.0, 3.0, 4.0))
    path = tmp_path / "p.nii"
    write_nifti(v, path, datatype=np.float32)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2h", raw, 252, 0, 0)
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    assert np.allclose(back.affine, np.diag([2.0, 3.0, 4.0, 1.0]))


def test_float_to_integer_requires_quantize(tmp_path):
    v = make_image(np.linspace(0, 1, 8).reshape(2, 2, 2))
    with pytest.raises(ValueError, match="float data cannot be written as uint8"):
        write_nifti(v, tmp_path / "q.nii", datatype=np.uint8)


def test_labels_as_float_rejected(tmp_path):
    v = make_labels(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="integer"):
        write_nifti(v, tmp_path / "l.nii", datatype=np.float32)


def test_int16_overflow_rejected(tmp_path):
    v = make_labels(np.full((2, 2, 2), 40000))
    with pytest.raises(ValueError, match="fit"):
        write_nifti(v, tmp_path / "o.nii", datatype=np.int16)


def test_big_endian_read(tmp_path):
    # byte-swap an entire little-endian file and read it back
    v = make_labels(np.arange(8, dtype=np.int16).reshape(2, 2, 2))
    path = tmp_path / "le.nii"
    write_nifti(v, path, datatype=np.int16)
    raw = bytearray(path.read_bytes())

    be = bytearray(raw)
    # swap the header fields we parse plus the data payload
    for offset, fmt in [
        (0, "i"), (40, "8h"), (70, "h"), (72, "h"), (76, "8f"), (108, "f"),
        (112, "2f"), (252, "2h"), (256, "3f"), (268, "3f"), (280, "4f"),
        (296, "4f"), (312, "4f"),
    ]:
        values = struct.unpack_from("<" + fmt, raw, offset)
        struct.pack_into(">" + fmt, be, offset, *values)
    payload = np.frombuffer(bytes(raw[352:]), dtype="<i2").astype(">i2").tobytes()
    be[352:] = payload
    (tmp_path / "be.nii").write_bytes(bytes(be))
    back = read_nifti(tmp_path / "be.nii")
    assert np.array_equal(back.data, v.data)


def background_image(rng, n=64):
    """Uniform noise whose first two-thirds along z are exact zeros, like the
    contiguous background of a skull-stripped scan."""
    data = rng.uniform(0.0, 100.0, (n, n, n)).astype(np.float32)
    data[:, :, : 2 * n // 3] = 0.0
    return make_image(data).astype(np.float32)


def test_gzip_payload_equals_plain_file_for_labels_and_background(tmp_path, rng):
    labels = make_labels(rng.integers(0, 40, (16, 12, 8)))
    for name, v, dtype in (("lab", labels, np.int32), ("img", background_image(rng, 16), np.float32)):
        write_nifti(v, tmp_path / f"{name}.nii", datatype=dtype)
        write_nifti(v, tmp_path / f"{name}.nii.gz", datatype=dtype)
        raw_plain = (tmp_path / f"{name}.nii").read_bytes()
        assert gzip.decompress((tmp_path / f"{name}.nii.gz").read_bytes()) == raw_plain, name
        assert volumes_equal(read_nifti(tmp_path / f"{name}.nii.gz"), v), name


def test_identical_label_volumes_give_identical_gz_bytes(tmp_path, rng):
    v = make_labels(rng.integers(0, 40, (10, 9, 8)))
    write_nifti(v, tmp_path / "a.nii.gz")
    write_nifti(v, tmp_path / "b.nii.gz")
    assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()


@pytest.mark.parametrize("dtype", [np.int32, np.float32])
def test_gzip_header_stores_no_mtime_and_no_name(tmp_path, rng, dtype):
    v = Volume(rng.integers(0, 9, (4, 4, 4)).astype(dtype))
    write_nifti(v, tmp_path / "named.nii.gz", datatype=dtype)
    raw = (tmp_path / "named.nii.gz").read_bytes()
    assert raw[:3] == b"\x1f\x8b\x08"  # gzip magic, deflate
    assert raw[3] == 0  # FLG: no name, comment or extra field
    assert struct.unpack_from("<I", raw, 4)[0] == 0  # MTIME


def test_float_background_compresses_like_level_9(tmp_path, rng):
    # run-length matching codes the zero background as well as level-9 LZ
    # matching does; Huffman-only coding would be about 1.28x
    v = background_image(rng)
    write_nifti(v, tmp_path / "bg.nii", datatype=np.float32)
    write_nifti(v, tmp_path / "bg.nii.gz", datatype=np.float32)
    level_9 = len(gzip.compress((tmp_path / "bg.nii").read_bytes(), 9))
    assert len((tmp_path / "bg.nii.gz").read_bytes()) <= 1.02 * level_9


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_failed_write_leaves_the_old_file_and_no_other(tmp_path, rng, monkeypatch, suffix):
    path = tmp_path / f"vol{suffix}"
    write_nifti(make_labels(np.ones((4, 4, 4))), path)
    before = path.read_bytes()
    fail_writes(monkeypatch, "vol")
    with pytest.raises(OSError, match="No space"):
        write_nifti(make_labels(rng.integers(0, 9, (8, 8, 8))), path)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]
