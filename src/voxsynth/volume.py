"""3D volume container plus the resampling, cropping, and flipping primitives.

Arrays are indexed ``[x, y, z]``; axis 0 of the array is the x axis of the
voxel grid and matches the fastest-varying axis of the on-disk layout used by
:mod:`voxsynth.nifti`. Orientation lives in the world affine, never in the
memory order. Volumes are immutable: every operation returns a new instance.

Resampling follows a single grid convention used package-wide: voxel values
sit at voxel centres, the centre of the field of view is fixed under any
change of grid, and lookups outside the grid clamp to the nearest edge voxel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Volume",
    "LabelPairTable",
    "resample",
    "crop_at",
    "draw_crop_offset",
    "flip_lr",
    "resize_trilinear",
    "axis_positions",
]


class Volume:
    """A 3D scalar or integer-label grid with voxel spacing and world affine.

    Integer dtypes mark label volumes, float dtypes mark images; operations
    that only make sense for one kind check :attr:`is_labels`.
    """

    __slots__ = ("_data", "_spacing", "_affine")

    def __init__(self, data, spacing=(1.0, 1.0, 1.0), affine=None):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3D, got {arr.ndim}D")
        if min(arr.shape) < 1:
            raise ValueError(f"volume dims must be >= 1, got {arr.shape}")
        spacing = tuple(float(s) for s in spacing)
        if len(spacing) != 3 or any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be three positive values, got {spacing}")
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

    def with_data(self, data, spacing=None, affine=None) -> "Volume":
        """New volume with replaced data, keeping geometry unless overridden."""
        return Volume(
            data,
            self._spacing if spacing is None else spacing,
            self._affine if affine is None else affine,
        )

    def astype(self, dtype) -> "Volume":
        return self.with_data(self._data.astype(dtype))

    def labels_present(self) -> list[int]:
        """Sorted label values occurring in a label volume."""
        if not self.is_labels:
            raise ValueError("labels_present requires an integer label volume")
        return [int(v) for v in np.unique(self._data)]

    def __repr__(self) -> str:
        kind = "labels" if self.is_labels else "image"
        return f"Volume({kind}, dims={self.dims}, spacing={self._spacing})"


@dataclass(frozen=True)
class LabelPairTable:
    """Right/left label pairings plus the midline labels left untouched by a flip."""

    pairs: tuple[tuple[int, int], ...]
    neutral: frozenset[int]

    def __post_init__(self):
        seen: set[int] = set()
        for right, left in self.pairs:
            for v in (right, left):
                if v in seen:
                    raise ValueError(f"label {v} appears twice in the pair table")
                seen.add(v)
        overlap = seen & set(self.neutral)
        if overlap:
            raise ValueError(f"labels {sorted(overlap)} are both paired and neutral")

    def known_labels(self) -> frozenset[int]:
        flat = {v for pair in self.pairs for v in pair}
        return frozenset(flat | set(self.neutral))

    def swap_lut(self, max_label: int) -> np.ndarray:
        """Identity lookup table with each pair's values exchanged."""
        lut = np.arange(max_label + 1, dtype=np.int64)
        for right, left in self.pairs:
            if right <= max_label:
                lut[right] = left
            if left <= max_label:
                lut[left] = right
        return lut


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


def _lerp_along_axis(data: np.ndarray, pos: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of `data` at fractional positions along one axis."""
    n = data.shape[axis]
    p = np.clip(pos, 0.0, n - 1.0)
    i0 = np.floor(p).astype(np.intp)
    if n > 1:
        np.minimum(i0, n - 2, out=i0)
    f = p - i0
    shape = [1] * data.ndim
    shape[axis] = len(pos)
    f = f.reshape(shape)
    lo = np.take(data, i0, axis=axis)
    hi = np.take(data, np.minimum(i0 + 1, n - 1), axis=axis)
    return (1.0 - f) * lo + f * hi


def _nearest_indices(pos: np.ndarray, n: int) -> np.ndarray:
    """Round-half-up nearest voxel indices with edge clamping."""
    idx = np.floor(np.clip(pos, 0.0, n - 1.0) + 0.5).astype(np.intp)
    return np.minimum(idx, n - 1)


def resize_trilinear(data: np.ndarray, target_dims) -> np.ndarray:
    """Resize a 3D scalar grid to `target_dims` with centre-aligned trilinear
    interpolation, treating both grids as covering the same field of view.

    Linear interpolation is separable, so this runs as three cheap 1-D passes.
    """
    out = np.asarray(data, dtype=np.float64)
    for axis in range(3):
        n_src = out.shape[axis]
        n_dst = int(target_dims[axis])
        if n_dst == n_src:
            continue
        pos = axis_positions(n_dst, n_src / n_dst, n_src, 1.0)
        out = _lerp_along_axis(out, pos, axis)
    return out


def _output_dims(dims, spacing, target_spacing) -> tuple[int, int, int]:
    out = []
    for n, s, t in zip(dims, spacing, target_spacing):
        out.append(max(1, int(np.floor(n * s / t + 0.5))))
    return tuple(out)


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
    if any(t <= 0 for t in target_spacing):
        raise ValueError(f"target spacing must be positive, got {target_spacing}")
    if mode not in ("trilinear", "nearest"):
        raise ValueError(f"unknown resampling mode {mode!r}")
    if mode == "trilinear" and v.is_labels:
        raise ValueError("trilinear resampling of a label volume; use mode='nearest'")

    if target_spacing == v.spacing:
        return v.with_data(v.data.copy())

    dims_out = _output_dims(v.dims, v.spacing, target_spacing)
    positions = [
        axis_positions(dims_out[a], target_spacing[a], v.dims[a], v.spacing[a])
        for a in range(3)
    ]
    steps = [target_spacing[a] / v.spacing[a] for a in range(3)]
    new_affine = _resampled_affine(v.affine, positions, steps)

    if mode == "nearest":
        idx = [_nearest_indices(positions[a], v.dims[a]) for a in range(3)]
        out = v.data[np.ix_(idx[0], idx[1], idx[2])]
    else:
        out = np.asarray(v.data, dtype=np.float64)
        for a in range(3):
            out = _lerp_along_axis(out, positions[a], a)
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


def flip_lr(labels: Volume, table: LabelPairTable) -> Volume:
    """Mirror a label volume along the world left-right axis, exchanging
    paired label values so anatomy stays on the correct side.

    Flipping is an involution: applying it twice restores the input.
    """
    if not labels.is_labels:
        raise ValueError("flip_lr operates on label volumes")
    present = np.unique(labels.data)
    known = table.known_labels()
    for value in present:
        if int(value) not in known:
            raise ValueError(
                f"label {int(value)} is in the volume but not in the flip table"
            )
    axis = lr_axis(labels.affine)
    mirrored = np.flip(labels.data, axis=axis)
    lut = table.swap_lut(int(present.max()) if present.size else 0)
    swapped = lut[mirrored].astype(labels.dtype)
    return labels.with_data(swapped)
