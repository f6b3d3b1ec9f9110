"""3D volume container plus the resampling, cropping, and flipping primitives.

Arrays are indexed ``[x, y, z]``; axis 0 of the array is the x axis of the
voxel grid and matches the fastest-varying axis of the on-disk layout used by
:mod:`voxsynth.nifti`. Orientation lives in the world affine, never in the
memory order. Volumes are immutable: every operation returns a new instance.

Resampling follows a single grid convention used package-wide: voxel values
sit at voxel centres, the centre of the field of view is fixed under any
change of grid, and lookups outside the grid clamp to the nearest edge voxel.
This module is the only one that knows how a voxel is looked up: linear
resampling along an axis (:func:`resample_axis`), round-half-up nearest
indices (:func:`nearest_indices`), label lookup tables (:func:`relabel`) and
the size of a resampled axis (:func:`resampled_size`) live here, and the
other modules call them. Voxel coordinates come from :func:`axis_coordinates`
one axis at a time; no module keeps a dense coordinate grid.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Volume",
    "resample",
    "crop_at",
    "draw_crop_offset",
    "flip_lr",
    "resize_trilinear",
    "axis_positions",
]

_SLAB = 65536  # output voxels per slab of resample_axis; keeps its temporaries small


class Volume:
    """A 3D scalar or integer-label grid with voxel spacing and world affine.

    Integer dtypes mark label volumes, float dtypes mark images; operations
    that only make sense for one kind check :attr:`is_labels`.

    The label census of :meth:`labels_present` is cached on first use. That
    relies on immutability: nothing may write the wrapped array afterwards,
    which holds for every volume this package builds.
    """

    __slots__ = ("_data", "_spacing", "_affine", "_labels")

    def __init__(self, data, spacing=(1.0, 1.0, 1.0), affine=None):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3D, got {arr.ndim}D")
        if min(arr.shape) < 1:
            raise ValueError(f"volume dims must be >= 1, got {arr.shape}")
        spacing = tuple(float(s) for s in spacing)
        if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):
            raise ValueError(f"spacing must be three positive finite values, got {spacing}")
        if affine is None:
            affine = np.diag([spacing[0], spacing[1], spacing[2], 1.0])
        affine = np.asarray(affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ValueError(f"affine must be 4x4, got {affine.shape}")
        view = arr.view()
        view.setflags(write=False)
        self._data = view
        self._spacing = spacing
        aff = affine.copy()
        aff.setflags(write=False)
        self._affine = aff
        self._labels = None

    @property
    def data(self) -> np.ndarray:
        """Read-only voxel array, indexed [x, y, z]."""
        return self._data

    @property
    def spacing(self) -> tuple[float, float, float]:
        """Voxel size in millimetres per axis."""
        return self._spacing

    @property
    def affine(self) -> np.ndarray:
        """4x4 voxel-to-world transform (millimetres)."""
        return self._affine

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def is_labels(self) -> bool:
        """True when the volume holds integer labels rather than intensities."""
        return np.issubdtype(self._data.dtype, np.integer)

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel in cubic millimetres."""
        sx, sy, sz = self._spacing
        return sx * sy * sz

    def with_data(self, data) -> "Volume":
        """New volume with replaced data and the same geometry."""
        return Volume(data, self._spacing, self._affine)

    def astype(self, dtype) -> "Volume":
        return self.with_data(self._data.astype(dtype))

    def labels_present(self) -> list[int]:
        """Sorted label values occurring in a label volume, as a new list."""
        if not self.is_labels:
            raise ValueError("labels_present requires an integer label volume")
        if self._labels is None:
            self._labels = tuple(int(v) for v in np.unique(self._data))
        return list(self._labels)

    def __repr__(self) -> str:
        kind = "labels" if self.is_labels else "image"
        return f"Volume({kind}, dims={self.dims}, spacing={self._spacing})"


# ---------------------------------------------------------------------------
# grid geometry helpers (shared by every interpolating operation)
# ---------------------------------------------------------------------------

def axis_positions(n_dst: int, s_dst: float, n_src: int, s_src: float) -> np.ndarray:
    """Source-grid coordinates of destination voxel centres along one axis.

    Both grids share their field-of-view centre; a destination step of
    ``s_dst`` millimetres advances ``s_dst / s_src`` source voxels.
    """
    i = np.arange(n_dst, dtype=np.float64)
    return (i + 0.5 - n_dst / 2.0) * (s_dst / s_src) + n_src / 2.0 - 0.5


def axis_coordinates(dims, axis: int) -> np.ndarray:
    """Float64 voxel indices along `axis`, shaped to broadcast against `dims`."""
    shape = [1] * len(dims)
    shape[axis] = dims[axis]
    return np.arange(dims[axis], dtype=np.float64).reshape(shape)


def resample_axis(
    data: np.ndarray, axis: int, n_dst: int, s_dst: float, s_src: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Linear resampling of `data` along one axis onto `n_dst` voxels of
    `s_dst` spacing, the source voxels being `s_src` apart (the
    :func:`axis_positions` grid), with edge clamping.

    Each output voxel is ``(1.0 - f) * lo + f * hi`` in float64, whatever the
    input dtype. The output (a new array, or `out`, a float64 array of the
    output shape) is filled in slabs of about `_SLAB` voxels along another
    axis, so the gathered ``lo``/``hi`` values and their products stay small
    instead of costing three more whole-volume temporaries.
    """
    n = data.shape[axis]
    p = np.clip(axis_positions(n_dst, s_dst, n, s_src), 0.0, n - 1.0)
    i0 = np.floor(p).astype(np.intp)
    if n > 1:
        np.minimum(i0, n - 2, out=i0)
    i1 = np.minimum(i0 + 1, n - 1)
    f = (p - i0).reshape([-1 if a == axis else 1 for a in range(data.ndim)])
    shape = list(data.shape)
    shape[axis] = n_dst
    if out is None:
        out = np.empty(shape)
    elif out.shape != tuple(shape) or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {tuple(shape)}, got {out.dtype} {out.shape}")
    slab_axis = 1 if axis == 0 else 0
    step = max(1, _SLAB * out.shape[slab_axis] // out.size)
    index = [slice(None)] * data.ndim
    for s0 in range(0, out.shape[slab_axis], step):
        index[slab_axis] = slice(s0, s0 + step)
        slab, dst = data[tuple(index)], out[tuple(index)]
        np.multiply(1.0 - f, np.take(slab, i0, axis=axis), out=dst)
        dst += f * np.take(slab, i1, axis=axis)
    return out


def nearest_indices(pos: np.ndarray, n: int) -> np.ndarray:
    """Round-half-up nearest voxel indices with edge clamping."""
    idx = np.floor(np.clip(pos, 0.0, n - 1.0) + 0.5).astype(np.intp)
    return np.minimum(idx, n - 1)


def resize_trilinear(data: np.ndarray, target_dims, out: np.ndarray | None = None) -> np.ndarray:
    """Resize a 3D scalar grid to `target_dims` with centre-aligned trilinear
    interpolation, treating both grids as covering the same field of view.

    Linear interpolation is separable, so this runs as three cheap 1-D passes.
    Given `out` (float64, `target_dims`), the last pass writes straight into
    it.
    """
    grid = np.asarray(data, dtype=np.float64)
    axes = [a for a in range(3) if int(target_dims[a]) != grid.shape[a]]
    if out is not None and not axes:
        out[...] = grid
        return out
    for axis in axes:
        n_src, n_dst = grid.shape[axis], int(target_dims[axis])
        grid = resample_axis(grid, axis, n_dst, n_src / n_dst, 1.0, out=out if axis == axes[-1] else None)
    return grid


def resampled_size(n: int, s: float, t: float) -> int:
    """Voxel count, at least 1, of an axis of `n` voxels `s` mm apart once
    resampled to `t` mm: ``n * s / t`` rounded half up."""
    return max(1, int(np.floor(n * s / t + 0.5)))


def _resampled_affine(affine: np.ndarray, positions, steps) -> np.ndarray:
    """Affine of an output grid whose voxel j sits at source voxel coordinate
    positions[axis][j], advancing steps[axis] source voxels per output voxel."""
    new = np.eye(4)
    origin = np.array([positions[0][0], positions[1][0], positions[2][0], 1.0])
    for a in range(3):
        new[:3, a] = affine[:3, a] * steps[a]
    new[:3, 3] = (affine @ origin)[:3]
    return new


def resample(v: Volume, target_spacing, mode: str = "trilinear") -> Volume:
    """Resample a volume onto a grid of `target_spacing` millimetres.

    Output dims are ``round(dims * spacing / target_spacing)`` (at least 1);
    the field-of-view centre is fixed and out-of-grid lookups clamp to the
    edge voxel. Label volumes require ``mode="nearest"``.
    """
    target_spacing = tuple(float(t) for t in target_spacing)
    if not all(0 < t < np.inf for t in target_spacing):
        raise ValueError(f"target spacing must be positive and finite, got {target_spacing}")
    if mode not in ("trilinear", "nearest"):
        raise ValueError(f"unknown resampling mode {mode!r}")
    if mode == "trilinear" and v.is_labels:
        raise ValueError("trilinear resampling of a label volume; use mode='nearest'")

    if target_spacing == v.spacing:
        return v.with_data(v.data.copy())

    dims_out = tuple(map(resampled_size, v.dims, v.spacing, target_spacing))
    positions = [
        axis_positions(dims_out[a], target_spacing[a], v.dims[a], v.spacing[a])
        for a in range(3)
    ]
    steps = [target_spacing[a] / v.spacing[a] for a in range(3)]
    new_affine = _resampled_affine(v.affine, positions, steps)

    if mode == "nearest":
        idx = [nearest_indices(positions[a], v.dims[a]) for a in range(3)]
        out = v.data[np.ix_(idx[0], idx[1], idx[2])]
    else:
        out = np.asarray(v.data, dtype=np.float64)
        for a in range(3):
            out = resample_axis(out, a, dims_out[a], target_spacing[a], v.spacing[a])
    return Volume(out, target_spacing, new_affine)


def draw_crop_offset(dims, size, rng) -> tuple[int, int, int]:
    """Uniform corner offset of a `size` sub-block inside a `dims` grid."""
    size = tuple(int(s) for s in size)
    for n, s in zip(dims, size):
        if s < 1 or s > n:
            raise ValueError(f"crop size {size} invalid for volume dims {tuple(dims)}")
    high = np.array([n - s + 1 for n, s in zip(dims, size)], dtype=np.int64)
    offset = rng.integers(0, high)
    return tuple(int(o) for o in offset)


def crop_at(v: Volume, offset, size) -> Volume:
    """Extract the contiguous sub-block at `offset`; world positions of the
    retained voxels are unchanged."""
    ox, oy, oz = (int(o) for o in offset)
    sx, sy, sz = (int(s) for s in size)
    if ox < 0 or oy < 0 or oz < 0 or ox + sx > v.dims[0] or oy + sy > v.dims[1] or oz + sz > v.dims[2]:
        raise ValueError(f"crop block offset={offset} size={size} exceeds dims {v.dims}")
    block = v.data[ox : ox + sx, oy : oy + sy, oz : oz + sz].copy()
    affine = np.array(v.affine)
    affine[:3, 3] += affine[:3, :3] @ np.array([ox, oy, oz], dtype=np.float64)
    return Volume(block, v.spacing, affine)


def lr_axis(affine: np.ndarray) -> int:
    """Voxel axis most aligned with the world left-right (x) direction."""
    return int(np.argmax(np.abs(affine[0, :3])))


def flip_lr(labels: Volume, flips: dict[int, int]) -> Volume:
    """Mirror a label volume along the world left-right axis, replacing each
    label by its partner in `flips` so anatomy stays on the correct side
    (a midline label is its own partner).

    Partners must be mutual, so flipping is an involution: applying it twice
    restores the input.
    """
    if not labels.is_labels:
        raise ValueError("flip_lr operates on label volumes")
    for value, partner in flips.items():
        if flips.get(partner) != value:
            raise ValueError(
                f"flip partners are not mutual: {value} -> {partner} -> {flips.get(partner)}"
            )
    for value in labels.labels_present():
        if value not in flips:
            raise ValueError(f"label {value} is in the volume but not in the flip table")
    mirrored = np.flip(labels.data, axis=lr_axis(labels.affine))
    return labels.with_data(relabel(mirrored, flips))


def relabel(data: np.ndarray, mapping: dict[int, int]) -> np.ndarray:
    """Label array with each key of `mapping` replaced by its value; values
    the mapping does not name are kept, and so is the dtype.

    Labels index a lookup table, so a negative label in the data or in the
    mapping's keys raises ``ValueError``; so does a value, for a key the data
    can hold, that does not fit the data's dtype.
    """
    lowest = min([int(data.min()), *mapping])
    if lowest < 0:
        raise ValueError(f"negative label {lowest} cannot index a lookup table")
    if not mapping:
        return data.copy()
    # only keys up to the data's largest label can be looked up
    lut = np.arange(int(data.max()) + 1, dtype=data.dtype)
    info = np.iinfo(data.dtype)
    for src, dst in mapping.items():
        if src < lut.size:
            if not info.min <= dst <= info.max:
                raise ValueError(f"label {dst} does not fit the data's dtype {data.dtype}")
            lut[src] = dst
    return lut[data]
