"""Random spatial transforms: affine sampling, smooth velocity fields, their
exponential via scaling-and-squaring, composition, warping, and Jacobians.

All maps are backward (pull) maps over voxel coordinates: a dense field gives,
for each output voxel, the displacement to the source position that is looked
up. Out-of-grid lookups clamp to the edge voxel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# no longer called here (_self_compose reproduces it); kept bound because
# perfbench's traced runs wrap `deform.map_coordinates` to count calls
from scipy.ndimage import map_coordinates  # noqa: F401

from .volume import Volume, axis_coordinates, nearest_indices, resize_trilinear

__all__ = [
    "AffineParams",
    "SVF",
    "DeformationField",
    "SVF_GRID_SHAPE",
    "sample_affine",
    "affine_matrix",
    "sample_svf",
    "upsample_svf",
    "integrate_svf",
    "compose_transforms",
    "warp_labels",
    "jacobian_determinant",
]

SVF_GRID_SHAPE = (10, 10, 10, 3)
DEFAULT_SQUARING_STEPS = 7
MAX_STEP_DISPLACEMENT = 0.5  # voxels; squaring depth is raised until satisfied
_BLOCK = 8192  # flat voxels per gather block of _self_compose; keeps its buffers in cache


@dataclass(frozen=True)
class AffineParams:
    """Sampled affine components: degrees, unitless factors, millimetres."""

    rotations_deg: tuple[float, float, float]
    scalings: tuple[float, float, float]
    shearings: tuple[float, float, float]
    translations_mm: tuple[float, float, float]


@dataclass(frozen=True)
class SVF:
    """Coarse stationary velocity grid (values in target voxel units)."""

    grid: np.ndarray  # shape SVF_GRID_SHAPE
    std: float


@dataclass(frozen=True)
class DeformationField:
    """Dense per-voxel displacement, shape (3, nx, ny, nz), voxel units."""

    displacement: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.displacement.shape[1:]


def affine_matrix(params: AffineParams, dims, spacing=(1.0, 1.0, 1.0)) -> np.ndarray:
    """4x4 pull-back matrix over voxel coordinates, pivoting about the volume
    centre: translate . rotate(z, y, x) . shear . scale.

    Translations are millimetres and are converted to voxels via `spacing`;
    the shear factors fill the upper triangle of a unit-determinant matrix.
    """
    rx, ry, rz = np.deg2rad(params.rotations_deg)
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rot_x = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rot_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rot_z = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    sh1, sh2, sh3 = params.shearings
    shear = np.array([[1.0, sh1, sh2], [0.0, 1.0, sh3], [0.0, 0.0, 1.0]])
    scale = np.diag(params.scalings)

    linear = rot_z @ rot_y @ rot_x @ shear @ scale
    centre = (np.asarray(dims, dtype=np.float64) - 1.0) / 2.0
    t_vox = np.asarray(params.translations_mm, dtype=np.float64) / np.asarray(spacing)
    matrix = np.eye(4)
    matrix[:3, :3] = linear
    matrix[:3, 3] = centre - linear @ centre + t_vox
    return matrix


def sample_affine(cfg, rng, dims, spacing=(1.0, 1.0, 1.0)):
    """Draw affine parameters from their uniform priors and build the matrix.

    Draw order is fixed (rotations, scalings, shearings, translations) so a
    seeded stream replays identically.
    """
    rotations = rng.uniform(cfg.rot_min, cfg.rot_max, size=3)
    scalings = rng.uniform(cfg.scale_min, cfg.scale_max, size=3)
    shearings = rng.uniform(cfg.shear_min, cfg.shear_max, size=3)
    translations = rng.uniform(cfg.trans_min, cfg.trans_max, size=3)
    params = AffineParams(
        rotations_deg=tuple(rotations),
        scalings=tuple(scalings),
        shearings=tuple(shearings),
        translations_mm=tuple(translations),
    )
    return params, affine_matrix(params, dims, spacing)


def sample_svf(cfg, rng) -> SVF:
    """Coarse velocity grid: std drawn from U(0, warp_std_max), then i.i.d.
    zero-mean Gaussian values at every control point."""
    if cfg.warp_std_max < 0:
        raise ValueError(f"warp_std_max must be >= 0, got {cfg.warp_std_max}")
    std = float(rng.uniform(0.0, cfg.warp_std_max))
    grid = rng.standard_normal(SVF_GRID_SHAPE) * std
    return SVF(grid=grid, std=std)


def upsample_svf(svf: SVF, target_dims) -> np.ndarray:
    """Dense velocity field: each component of the control grid is upsampled
    to `target_dims` with centre-aligned trilinear interpolation. Control
    values are displacements in target voxel units, so upsampling transfers
    them unchanged."""
    target_dims = tuple(int(d) for d in target_dims)
    if any(d < 2 for d in target_dims):
        raise ValueError(f"target dims must be >= 2 per axis, got {target_dims}")
    out = np.empty((3,) + target_dims, dtype=np.float64)
    for c in range(3):
        out[c] = resize_trilinear(svf.grid[..., c], target_dims)
    return out


def _squaring_steps(max_disp: float, steps: int) -> int:
    while max_disp / (2.0**steps) >= MAX_STEP_DISPLACEMENT:
        steps += 1
    return steps


def integrate_svf(velocity: np.ndarray, steps: int = DEFAULT_SQUARING_STEPS) -> DeformationField:
    """Exponentiate a stationary velocity field by scaling and squaring.

    The field is scaled down to ``velocity / 2**steps`` and self-composed
    `steps` times; `steps` is raised automatically until the initial
    displacement is below half a voxel, which keeps every composition well
    inside the grid's resolution and the result free of foldings.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    # C order, so that the squaring kernel can write through flat views
    vel = np.ascontiguousarray(velocity, dtype=np.float64)
    if vel.ndim != 4 or vel.shape[0] != 3:
        raise ValueError(f"velocity must have shape (3, nx, ny, nz), got {vel.shape}")
    max_disp = float(np.abs(vel).max())
    steps = _squaring_steps(max_disp, steps)

    disp = vel / (2.0**steps)
    if max_disp == 0.0:
        return DeformationField(disp)

    stepped = np.empty_like(disp)
    for _ in range(steps):
        _self_compose(disp, stepped)
        disp, stepped = stepped, disp  # reuse the old buffer next iteration
    return DeformationField(disp)


def _self_compose(disp: np.ndarray, out: np.ndarray) -> None:
    """One squaring step: ``out = disp + disp(ident + disp)``, both C-contiguous
    (3, nx, ny, nz) arrays.

    The lookup is trilinear with edge clamping and reproduces
    ``map_coordinates(disp[c], ident + disp, order=1, mode="nearest")`` bit
    for bit, because it does scipy's arithmetic in scipy's order: weights
    ``w0 = 1 - x`` and ``w1 = 1 - w0`` from the unclamped coordinate, indices
    clamped to the grid, and a sum from +0.0 over the 8 corner terms
    ``((v * wx) * wy) * wz`` with the last axis fastest. It runs over blocks of
    whole z-rows, at least `_BLOCK` voxels each, so that the 8 gathers of all
    three components stay in cache, which makes it about twice as fast as
    three whole-volume calls. A voxel's coordinate is its row's (x, y) and its
    z, all exact integers, plus its displacement.
    """
    if not (disp.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("_self_compose needs C-contiguous arrays")
    dims = disp.shape[1:]
    nz = dims[2]
    src = disp.reshape(3, -1)
    dst = out.reshape(3, -1)
    rows = dims[0] * dims[1]
    rows_per = -(-_BLOCK // nz)
    rows_xy = np.empty((2,) + dims[:2])
    for c in range(2):
        rows_xy[c] = axis_coordinates(dims[:2], c)
    rows_xy = rows_xy.reshape(2, rows, 1)
    z_tiled = np.tile(np.arange(nz, dtype=np.float64), min(rows_per, rows))
    width = z_tiled.size
    coord, floor, value, acc = np.empty((4, 3, width))
    weights = np.empty((2, 3, width))  # [w0, w1] per axis
    index = np.empty((2, 3, width), dtype=np.intp)  # clamped [floor, floor + 1] times stride
    pairs = np.empty((4, width), dtype=np.intp)
    corners = np.empty((8, width), dtype=np.intp)
    last = np.array(dims, dtype=np.intp).reshape(3, 1) - 1
    strides = np.array([dims[1] * nz, nz, 1], dtype=np.intp).reshape(3, 1)
    for r0 in range(0, rows, rows_per):
        r1 = min(r0 + rows_per, rows)
        start, stop = r0 * nz, r1 * nz
        if stop - start != width:  # the shorter last block
            width = stop - start
            coord, floor, value, acc, weights, index, pairs, corners = (
                buf[..., :width] for buf in (coord, floor, value, acc, weights, index, pairs, corners)
            )
        np.add(rows_xy[:, r0:r1], src[:2, start:stop].reshape(2, -1, nz), out=coord[:2].reshape(2, -1, nz))
        np.add(z_tiled[:width], src[2, start:stop], out=coord[2])
        np.floor(coord, out=floor)
        np.subtract(coord, floor, out=coord)
        np.subtract(1.0, coord, out=weights[0])
        np.subtract(1.0, weights[0], out=weights[1])
        # clamping the floor to [-1, n-1] first keeps the cast in range and
        # leaves both clamped indices unchanged
        np.clip(floor, -1.0, last, out=floor)
        index[0] = floor
        np.add(index[0], 1, out=index[1])
        np.maximum(index[0], 0, out=index[0])
        np.minimum(index[1], last, out=index[1])
        index *= strides
        for k in range(4):
            np.add(index[k >> 1, 0], index[k & 1, 1], out=pairs[k])
        for k in range(8):
            np.add(pairs[k >> 1], index[k & 1, 2], out=corners[k])
        for k in range(8):
            term = acc if k == 0 else value
            np.take(src, corners[k], axis=1, out=term, mode="clip")
            term *= weights[k >> 2, 0]
            term *= weights[(k >> 1) & 1, 1]
            term *= weights[k & 1, 2]
            if k:
                acc += term
        acc += 0.0  # scipy sums from +0.0, so an all -0.0 sum reads +0.0
        np.add(acc, src[:, start:stop], out=dst[:, start:stop])


def compose_transforms(matrix: np.ndarray, nonlin: DeformationField) -> DeformationField:
    """Fuse an affine and a dense field into one pull-back field:
    each voxel x maps to affine(x + nonlin(x))."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (4, 4):
        raise ValueError(f"affine must be 4x4, got {matrix.shape}")
    if abs(np.linalg.det(matrix[:3, :3])) < 1e-12:
        raise ValueError("affine matrix is singular")
    dims = nonlin.dims
    points = np.empty(nonlin.displacement.shape)
    for c in range(3):
        np.add(axis_coordinates(dims, c), nonlin.displacement[c], out=points[c])
    flat = points.reshape(3, -1)
    mapped = (matrix[:3, :3] @ flat).reshape(points.shape)
    mapped += matrix[:3, 3].reshape(3, 1, 1, 1)
    for c in range(3):
        mapped[c] -= axis_coordinates(dims, c)
    return DeformationField(mapped)


def warp_labels(labels: Volume, field: DeformationField) -> Volume:
    """Pull a label volume through a displacement field with nearest-neighbour
    lookup (round half up per axis, edge clamp)."""
    if not labels.is_labels:
        raise ValueError("warp_labels operates on label volumes")
    if labels.dims != field.dims:
        raise ValueError(f"field dims {field.dims} do not match volume dims {labels.dims}")
    flat = None
    for c, n in enumerate(labels.dims):
        idx = nearest_indices(field.displacement[c] + axis_coordinates(labels.dims, c), n)
        if flat is None:
            flat = idx
        else:
            flat *= n
            flat += idx
    data = np.ascontiguousarray(labels.data)
    return labels.with_data(data.ravel()[flat])


def jacobian_determinant(field: DeformationField) -> Volume:
    """Determinant of the Jacobian of x + displacement(x) per voxel, using
    central differences inside and one-sided differences at the faces."""
    dims = field.dims
    if any(d < 3 for d in dims):
        raise ValueError(f"jacobian needs dims >= 3 per axis, got {dims}")
    g = [np.gradient(axis_coordinates(dims, i) + field.displacement[i], edge_order=1) for i in range(3)]
    det = (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )
    return Volume(det)
