"""Random spatial transforms: affine sampling, smooth velocity fields, their
exponential via scaling-and-squaring, composition, warping, and Jacobians.

All maps are backward (pull) maps over voxel coordinates: a dense field gives,
for each output voxel, the displacement to the source position that is looked
up. Out-of-grid lookups clamp to the edge voxel. The squaring kernel and the
label pull walk cache-sized blocks of whole z-rows (:func:`_blocks`), so a
sample's deformation holds at most two dense fields at a time.
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
_BLOCK = 8192  # voxels per block of the squaring kernel and the pull; keeps their buffers in cache


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
    inside the grid's resolution and the result free of foldings. A
    non-finite velocity raises ``ValueError``.

    The field being squared lives in an edge-padded buffer (see
    :func:`_self_compose`). The velocity is not referenced once it is scaled
    into that buffer, so a caller that passes a temporary lets it be freed;
    the last step writes the plain C-contiguous result, and no padded buffer
    outlives the call.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    velocity = np.asarray(velocity, dtype=np.float64)
    if velocity.ndim != 4 or velocity.shape[0] != 3:
        raise ValueError(f"velocity must have shape (3, nx, ny, nz), got {velocity.shape}")
    max_disp = float(max(velocity.max(), -velocity.min()))
    if not np.isfinite(max_disp):
        raise ValueError(f"velocity must be finite, got a largest magnitude of {max_disp}")
    steps = _squaring_steps(max_disp, steps)
    if max_disp == 0.0:
        return DeformationField(np.divide(velocity, 2.0**steps, order="C"))

    shape = velocity.shape
    padded = np.empty((3,) + tuple(n + 2 for n in shape[1:]))
    np.divide(velocity, 2.0**steps, out=padded[:, 1:-1, 1:-1, 1:-1])
    del velocity
    _pad_faces(padded)
    stepped = np.empty_like(padded)
    for _ in range(steps - 1):
        _self_compose(padded, stepped[:, 1:-1, 1:-1, 1:-1])
        _pad_faces(stepped)
        padded, stepped = stepped, padded  # reuse the old buffer next iteration
    del stepped
    disp = np.empty(shape)
    _self_compose(padded, disp)
    return DeformationField(disp)


def _pad_faces(padded: np.ndarray) -> None:
    """Copy each face of the interior onto the padding next to it, axis after
    axis, so edges and corners replicate their nearest interior voxel."""
    for axis in (1, 2, 3):
        face = [slice(None)] * 4
        for pad, inner in ((0, 1), (-1, -2)):
            face[axis] = inner
            value = padded[tuple(face)]
            face[axis] = pad
            padded[tuple(face)] = value


def _self_compose(padded: np.ndarray, out: np.ndarray) -> None:
    """One squaring step, ``out = disp + disp(ident + disp)``.

    `disp` is the interior of `padded`, a C-contiguous ``(3, nx+2, ny+2,
    nz+2)`` buffer whose faces replicate their neighbours (:func:`_pad_faces`);
    `out` is any ``(3, nx, ny, nz)`` array, such as the interior of the next
    padded buffer.

    The lookup is trilinear with edge clamping and reproduces
    ``map_coordinates(disp[c], ident + disp, order=1, mode="nearest")`` bit
    for bit, because it does scipy's arithmetic in scipy's order: weights
    ``w0 = 1 - x`` and ``w1 = 1 - w0`` from the unclamped coordinate, corners
    clamped to the grid, and a sum from +0.0 over the 8 corner terms
    ``((v * wx) * wy) * wz`` with the last axis fastest. The padding makes the
    clamp one clip of the floor to ``[-1, n-1]``: a padded voxel replicates
    the clamped one, so each voxel needs one base index (a float dot of the
    floor with the padded strides, exact for integers) and every corner is
    that base plus a constant. The kernel walks blocks of interior z-rows,
    one x-plane times a run of y-rows, about `_BLOCK` voxels each, so that the
    8 gathers of all three components stay in cache.
    """
    if not padded.flags.c_contiguous:
        raise ValueError("_self_compose needs a C-contiguous padded buffer")
    nx, ny, nz = (n - 2 for n in padded.shape[1:])
    src = padded.reshape(3, -1)
    sx, sy = (ny + 2) * (nz + 2), nz + 2
    y_col = np.arange(ny, dtype=np.float64).reshape(ny, 1)
    z_row = np.arange(nz, dtype=np.float64)
    last = np.array([nx, ny, nz], dtype=np.float64).reshape(3, 1) - 1.0
    strides = np.array([sx, sy, 1], dtype=np.float64)
    # padded index of (floor + 1) per axis, plus the corner's 0/1 step per axis
    offsets = [(k >> 2) * sx + ((k >> 1) & 1) * sy + (k & 1) + sx + sy + 1 for k in range(8)]
    width = None
    for x, y0, y1 in _blocks((nx, ny, nz)):
        if (y1 - y0) * nz != width:  # the first block, or a plane's shorter last one
            width = (y1 - y0) * nz
            coord, floor, value, acc = np.empty((4, 3, width))
            weights = np.empty((2, 3, width))  # [w0, w1] per axis
            base_f = np.empty(width)
            base, corner = np.empty((2, width), dtype=np.intp)
        disp = padded[:, x + 1, y0 + 1 : y1 + 1, 1:-1]
        rows = coord.reshape(3, y1 - y0, nz)
        np.add(float(x), disp[0], out=rows[0])
        np.add(y_col[y0:y1], disp[1], out=rows[1])
        np.add(z_row, disp[2], out=rows[2])
        np.floor(coord, out=floor)
        np.subtract(coord, floor, out=coord)
        np.subtract(1.0, coord, out=weights[0])
        np.subtract(1.0, weights[0], out=weights[1])
        np.clip(floor, -1.0, last, out=floor)
        np.dot(strides, floor, out=base_f)
        base[...] = base_f
        for k in range(8):
            term = acc if k == 0 else value
            np.add(base, offsets[k], out=corner)
            np.take(src, corner, axis=1, out=term, mode="clip")
            term *= weights[k >> 2, 0]
            term *= weights[(k >> 1) & 1, 1]
            term *= weights[k & 1, 2]
            if k:
                acc += term
        acc += 0.0  # scipy sums from +0.0, so an all -0.0 sum reads +0.0
        np.add(acc.reshape(3, y1 - y0, nz), disp, out=out[:, x, y0:y1])


def _blocks(dims):
    """``(x, y0, y1)`` of the blocks the dense-field passes walk: whole
    z-rows of one x-plane, a run of y-rows of about `_BLOCK` voxels, balanced
    over the plane."""
    nx, ny, nz = dims
    rows = -(-ny // -(-ny * nz // _BLOCK))
    for x in range(nx):
        for y0 in range(0, ny, rows):
            yield x, y0, min(y0 + rows, ny)


def _affine_parts(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 linear part and the shift of a non-singular 4x4 pull matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (4, 4):
        raise ValueError(f"affine must be 4x4, got {matrix.shape}")
    if abs(np.linalg.det(matrix[:3, :3])) < 1e-12:
        raise ValueError("affine matrix is singular")
    return matrix[:3, :3], matrix[:3, 3]


def compose_transforms(matrix: np.ndarray, nonlin: DeformationField) -> DeformationField:
    """Fuse an affine and a dense field into one pull-back field:
    each voxel x maps to affine(x + nonlin(x)). :func:`warp_labels` pulls
    through the same map without building this field."""
    linear, shift = _affine_parts(matrix)
    dims = nonlin.dims
    points = np.empty(nonlin.displacement.shape)
    for c in range(3):
        np.add(axis_coordinates(dims, c), nonlin.displacement[c], out=points[c])
    flat = points.reshape(3, -1)
    mapped = (linear @ flat).reshape(points.shape)
    mapped += shift.reshape(3, 1, 1, 1)
    for c in range(3):
        mapped[c] -= axis_coordinates(dims, c)
    return DeformationField(mapped)


def warp_labels(labels: Volume, matrix: np.ndarray, nonlin: DeformationField) -> Volume:
    """Pull a label volume through affine(x + nonlin(x)) with nearest-neighbour
    lookup (round half up per axis, edge clamp). For a dense field alone, pass
    ``np.eye(4)``.

    No dense composed field is built: each block of :func:`_blocks` runs
    :func:`compose_transforms`' arithmetic in its order (``pts = ident + d``,
    ``linear @ pts``, ``+= shift``, ``-= ident``), rounds ``mapped + ident``
    to source indices and gathers, so the labels are the ones a pull through
    the composed field gives.
    """
    if not labels.is_labels:
        raise ValueError("warp_labels operates on label volumes")
    if labels.dims != nonlin.dims:
        raise ValueError(f"field dims {nonlin.dims} do not match volume dims {labels.dims}")
    linear, shift = _affine_parts(matrix)
    dims = labels.dims
    data = np.ascontiguousarray(labels.data).ravel()
    out = np.empty(dims, dtype=data.dtype)
    y_col = np.arange(dims[1], dtype=np.float64).reshape(dims[1], 1)
    z_row = np.arange(dims[2], dtype=np.float64)
    for x, y0, y1 in _blocks(dims):
        ident = (float(x), y_col[y0:y1], z_row)
        disp = nonlin.displacement[:, x, y0:y1]
        pts = np.empty(disp.shape)
        for c in range(3):
            np.add(ident[c], disp[c], out=pts[c])
        mapped = (linear @ pts.reshape(3, -1)).reshape(pts.shape)
        mapped += shift.reshape(3, 1, 1)
        idx = []
        for c, n in enumerate(dims):
            # the composed field holds mapped - ident, and its pull adds ident back
            mapped[c] -= ident[c]
            mapped[c] += ident[c]
            idx.append(nearest_indices(mapped[c], n))
        flat = (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]
        np.take(data, flat, out=out[x, y0:y1], mode="clip")
    return labels.with_data(out)


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
