"""Single-file NIfTI-1 reading and writing.

Implements the 348-byte binary header plus raw voxel payload, optionally
inside a gzip container (detected by magic bytes on read, by a ``.gz`` suffix
on write). Only 3D volumes are supported; a header whose axes beyond the third
all have size 1, such as a singleton time axis, reads as its 3D volume. The
writer uses four datatypes: uint8, int16, int32, float32; the reader also
takes the uint16, int64 and float64 payloads that real scans come in.
Unless told otherwise, the writer picks a file's datatype from the data:
float32 for intensities, and for labels their own dtype when it is one of the
four, otherwise int32 after a range check, so callers pass volumes as they are.

Gzip output is deflated at level 6 with a strategy chosen by the payload
kind: run-length matching (``Z_RLE``) for float payloads, whose noisy
mantissas give LZ matching almost nothing to find but whose zero background
still codes to a few bytes, and the default strategy for integer (label)
payloads. The gzip header stores mtime 0 and no file name, so identical
volumes produce identical files. Every file is written to a temporary
sibling and renamed into place, so a failed write never leaves a partial
file under the final name.

Layout notes: voxel data is stored x-fastest, matching the ``[x, y, z]``
index convention of :class:`voxsynth.volume.Volume`; the grid-to-world map is
written to the sform rows and read back with the standard sform > qform >
pixdim-diagonal precedence.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .volume import Volume

__all__ = ["read_nifti", "write_nifti"]

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# NIfTI-1 datatype codes of the dtypes the writer uses; the reader also takes
# three more that real scans come in
_CODE_FOR_DTYPE = {
    np.dtype(np.uint8): 2,
    np.dtype(np.int16): 4,
    np.dtype(np.int32): 8,
    np.dtype(np.float32): 16,
}
_DTYPE_FOR_CODE = {code: dt for dt, code in _CODE_FOR_DTYPE.items()}
_DTYPE_FOR_CODE.update({64: np.dtype(np.float64), 512: np.dtype(np.uint16), 1024: np.dtype(np.int64)})


def _quaternion_affine(b: float, c: float, d: float, offsets, pixdim, qfac: float) -> np.ndarray:
    a_sq = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(a_sq) if a_sq > 0 else 0.0
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    affine = np.eye(4)
    affine[:3, 0] = rot[:, 0] * pixdim[0]
    affine[:3, 1] = rot[:, 1] * pixdim[1]
    affine[:3, 2] = rot[:, 2] * pixdim[2] * qfac
    affine[:3, 3] = offsets
    return affine


def read_nifti(path) -> Volume:
    """Load a ``.nii`` or ``.nii.gz`` file as a :class:`Volume`.

    Voxel values are rescaled by ``scl_slope``/``scl_inter`` when the header
    declares a non-trivial scaling (a finite slope not in {0, 1} or a nonzero
    intercept), in which case the result is a float image. A zero or
    non-finite slope means no scaling; a non-finite intercept next to a
    finite, nonzero slope raises ``ValueError``.
    """
    with open(path, "rb") as f:
        gzipped = f.read(2) == b"\x1f\x8b"
        f.seek(0)
        # decoded from the open file, so the compressed bytes are never held whole
        raw = gzip.GzipFile(fileobj=f).read() if gzipped else f.read()
    if len(raw) < HEADER_SIZE:
        raise OSError(f"truncated file: {len(raw)} bytes, header needs {HEADER_SIZE}")
    order = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        order = ">"
        (sizeof_hdr,) = struct.unpack_from(">i", raw, 0)
        if sizeof_hdr != HEADER_SIZE:
            raise ValueError("not a NIfTI-1 file (bad sizeof_hdr)")

    magic = raw[344:348]
    if magic == MAGIC_PAIR:
        raise ValueError("two-file NIfTI (.hdr/.img) is not supported; use single-file .nii")
    if magic != MAGIC_SINGLE:
        raise ValueError(f"not a single-file NIfTI-1 (magic {magic!r})")

    dim = struct.unpack_from(order + "8h", raw, 40)
    # SPM, FSL and FreeSurfer write 3D volumes with a singleton time axis
    if not 3 <= dim[0] <= 7 or any(d != 1 for d in dim[4 : dim[0] + 1]):
        raise ValueError(f"expected a 3D volume, header declares {dim[0]} dimensions")
    dims = (int(dim[1]), int(dim[2]), int(dim[3]))
    if min(dims) < 1:
        raise ValueError(f"invalid dims {dims}")

    (datatype,) = struct.unpack_from(order + "h", raw, 70)
    pixdim = struct.unpack_from(order + "8f", raw, 76)
    (vox_offset,) = struct.unpack_from(order + "f", raw, 108)
    scl_slope, scl_inter = struct.unpack_from(order + "2f", raw, 112)
    qform_code, sform_code = struct.unpack_from(order + "2h", raw, 252)
    quatern = struct.unpack_from(order + "3f", raw, 256)
    qoffset = struct.unpack_from(order + "3f", raw, 268)
    srow_x = struct.unpack_from(order + "4f", raw, 280)
    srow_y = struct.unpack_from(order + "4f", raw, 296)
    srow_z = struct.unpack_from(order + "4f", raw, 312)

    spacing = tuple(float(p) for p in pixdim[1:4])
    if not all(0 < s < math.inf for s in spacing):
        raise ValueError(f"pixdim spacing {spacing} must be positive and finite")

    if sform_code > 0:
        affine = np.array([srow_x, srow_y, srow_z, [0.0, 0.0, 0.0, 1.0]], dtype=np.float64)
    elif qform_code > 0:
        qfac = -1.0 if pixdim[0] < 0 else 1.0
        affine = _quaternion_affine(*quatern, qoffset, spacing, qfac)
    else:
        affine = np.diag([spacing[0], spacing[1], spacing[2], 1.0])

    if datatype not in _DTYPE_FOR_CODE:
        raise ValueError(
            f"unsupported NIfTI datatype code {datatype}; "
            "supported: uint8 (2), int16 (4), int32 (8), float32 (16), "
            "float64 (64), uint16 (512), int64 (1024)"
        )
    dtype = _DTYPE_FOR_CODE[datatype].newbyteorder(order)
    count = int(np.prod(dims))
    if not math.isfinite(vox_offset):
        raise ValueError(f"vox_offset {vox_offset} must be finite")
    start = int(vox_offset)
    if start < HEADER_SIZE:
        start = VOX_OFFSET
    end = start + count * dtype.itemsize
    if len(raw) < end:
        raise OSError(f"truncated file: need {end} bytes of voxel data, have {len(raw)}")

    data = np.frombuffer(raw, dtype=dtype, count=count, offset=start).reshape(dims, order="F")
    data = np.array(data, dtype=dtype.newbyteorder("="), order="C")

    if scl_slope != 0.0 and math.isfinite(scl_slope):
        if not math.isfinite(scl_inter):
            raise ValueError(f"scl_slope {scl_slope} with non-finite scl_inter {scl_inter}")
        if scl_slope != 1.0 or scl_inter != 0.0:
            data = data.astype(np.float64) * scl_slope + scl_inter

    return Volume(data, spacing, affine)


def _resolve_datatype(v: Volume, datatype) -> np.dtype:
    if datatype is not None:
        dt = np.dtype(datatype)
        if dt not in _CODE_FOR_DTYPE:
            raise ValueError(f"unsupported write datatype {dt}; use uint8/int16/int32/float32")
        return dt
    if not v.is_labels:
        return np.dtype(np.float32)
    if v.dtype in _CODE_FOR_DTYPE:
        return v.dtype
    return np.dtype(np.int32)


def write_nifti(v: Volume, path, datatype=None) -> None:
    """Write a volume as single-file NIfTI-1, gzipped when `path` ends in .gz.

    Without `datatype` the on-disk dtype follows the data: float32 for an
    intensity image; for labels their own dtype when NIfTI-1 has it, otherwise
    int32. Labels need an integer datatype that holds their range, and float
    data is written as float32 only. No intensity scaling is written, so a
    read of the file reproduces the stored array bit-exactly.
    """
    path = Path(path)
    dt = _resolve_datatype(v, datatype)

    if v.is_labels and not np.issubdtype(dt, np.integer):
        raise ValueError("label volumes must be written with an integer datatype")
    if np.issubdtype(dt, np.integer):
        if not v.is_labels:
            raise ValueError(f"float data cannot be written as {dt}; write it as float32")
        info = np.iinfo(dt)
        lo, hi = int(v.data.min()), int(v.data.max())
        if lo < info.min or hi > info.max:
            raise ValueError(
                f"label range [{lo}, {hi}] does not fit datatype {dt} "
                f"([{info.min}, {info.max}])"
            )
    out = v.data.astype(dt.newbyteorder("<"), order="F", copy=False)

    code = _CODE_FOR_DTYPE[np.dtype(dt)]
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, v.dims[0], v.dims[1], v.dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, code)
    struct.pack_into("<h", header, 72, dt.itemsize * 8)
    struct.pack_into("<8f", header, 76, 1.0, v.spacing[0], v.spacing[1], v.spacing[2], 0, 0, 0, 0)
    struct.pack_into("<f", header, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", header, 112, 0.0, 0.0)  # no scaling: round trips bit-exactly
    struct.pack_into("<B", header, 123, 2)  # spatial units: millimetres
    descrip = b"voxsynth"
    header[148 : 148 + len(descrip)] = descrip
    struct.pack_into("<2h", header, 252, 0, 1)  # qform off, sform on
    affine = v.affine
    struct.pack_into("<4f", header, 280, *affine[0])
    struct.pack_into("<4f", header, 296, *affine[1])
    struct.pack_into("<4f", header, 312, *affine[2])
    header[344:348] = MAGIC_SINGLE

    # the transpose of an F-ordered array is a C-contiguous buffer holding the
    # voxels x-fastest, so no bytes copy of the payload is made
    chunks = (bytes(header), b"\x00" * (VOX_OFFSET - HEADER_SIZE), out.T)

    with replaced_atomically(path) as f:
        if path.name.endswith(".gz"):
            # wbits 31: a gzip container with mtime 0 and no file name
            strategy = zlib.Z_RLE if dt.kind == "f" else zlib.Z_DEFAULT_STRATEGY
            deflate = zlib.compressobj(6, zlib.DEFLATED, 31, 8, strategy)
            for chunk in chunks:
                f.write(deflate.compress(chunk))
            f.write(deflate.flush())
        else:
            for chunk in chunks:
                f.write(chunk)


@contextmanager
def replaced_atomically(path):
    """Open a temporary sibling of `path` for binary writing and rename it to
    `path` when the block succeeds; on any failure remove it instead.

    The sibling keeps the final suffix (``.gz`` included) and carries the
    writer's process id, so concurrent writers never share one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp{path.suffix}")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
