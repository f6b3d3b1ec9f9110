"""Segmentation losses, evaluation metrics, and label-map postprocessing.

Conventions, fixed so numbers are reproducible across implementations:
surface voxels are mask voxels with at least one 6-neighbour outside the mask
(the volume border counts as outside); surface distances are centre-to-centre
Euclidean distances in millimetres; percentiles interpolate linearly between
order statistics; connected components use 6-connectivity throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .schema import LabelSchema
from .volume import Volume

__all__ = [
    "ProbMap",
    "MetricsReport",
    "MissingStructureError",
    "soft_dice_loss",
    "hard_dice",
    "sd95",
    "soft_volume",
    "cohens_d",
    "largest_cc",
    "fill_holes",
    "evaluate_volumes",
    "postprocess_labels",
]

_STRUCT6 = ndimage.generate_binary_structure(3, 1)
PROB_SUM_TOLERANCE = 1e-5


class MissingStructureError(ValueError):
    """A metric was asked for a label with an empty mask."""


class ProbMap:
    """Per-label soft predictions plus background, summing to one per voxel.

    ``probs[0]`` is the background channel; ``probs[i]`` is the channel of
    ``labels[i - 1]``.
    """

    def __init__(self, probs: np.ndarray, labels):
        probs = np.asarray(probs, dtype=np.float64)
        labels = tuple(int(v) for v in labels)
        if probs.ndim != 4 or probs.shape[0] != len(labels) + 1:
            raise ValueError(
                f"probs must have shape (len(labels)+1, nx, ny, nz), got {probs.shape} "
                f"for {len(labels)} labels"
            )
        if probs.min() < -PROB_SUM_TOLERANCE or probs.max() > 1 + PROB_SUM_TOLERANCE:
            raise ValueError("probabilities must lie in [0, 1]")
        total = probs.sum(axis=0)
        if np.abs(total - 1.0).max() > PROB_SUM_TOLERANCE:
            raise ValueError("per-voxel probabilities must sum to 1")
        self.probs = probs
        self.labels = labels

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.probs.shape[1:]

    @classmethod
    def from_labels(cls, volume: Volume, labels) -> "ProbMap":
        """One-hot encoding of a label volume over the given foreground labels;
        anything else counts as background."""
        labels = tuple(int(v) for v in labels)
        data = volume.data
        probs = np.zeros((len(labels) + 1,) + volume.dims, dtype=np.float64)
        for i, label in enumerate(labels, start=1):
            probs[i] = data == label
        probs[0] = 1.0 - probs[1:].sum(axis=0)
        return cls(probs, labels)


def soft_dice_loss(pred: ProbMap, truth: ProbMap) -> float:
    """Average soft Dice loss over the foreground labels.

    Each label contributes 2*sum(Y*T) / sum(Y^2 + T^2); the loss is one minus
    the mean contribution, so it lives in [0, 1] with 0 at a perfect
    prediction. A label empty in both maps counts as perfectly predicted.
    """
    if pred.dims != truth.dims:
        raise ValueError(f"geometry mismatch: {pred.dims} vs {truth.dims}")
    if pred.labels != truth.labels:
        raise ValueError(f"label mismatch: {pred.labels} vs {truth.labels}")
    terms = []
    for i in range(1, len(pred.labels) + 1):
        y = pred.probs[i]
        t = truth.probs[i]
        denom = float(np.sum(y * y) + np.sum(t * t))
        if denom == 0.0:
            terms.append(1.0)
        else:
            terms.append(2.0 * float(np.sum(y * t)) / denom)
    return 1.0 - float(np.mean(terms))


def hard_dice(a: Volume, b: Volume, label: int) -> float:
    """Dice overlap of one label's binary masks; both-empty counts as 1."""
    if a.dims != b.dims:
        raise ValueError(f"geometry mismatch: {a.dims} vs {b.dims}")
    mask_a = a.data == label
    mask_b = b.data == label
    size = int(mask_a.sum()) + int(mask_b.sum())
    if size == 0:
        return 1.0
    inter = int(np.logical_and(mask_a, mask_b).sum())
    return 2.0 * inter / size


def _surface(mask: np.ndarray) -> np.ndarray:
    # border_value=0 treats everything beyond the volume as outside the mask
    eroded = ndimage.binary_erosion(mask, structure=_STRUCT6, border_value=0)
    return mask & ~eroded


def sd95(a: Volume, b: Volume, label: int, spacing=None) -> float:
    """95th percentile of the pooled two-way surface distances, millimetres.

    Directed distances from every surface voxel of one mask to the nearest
    surface voxel of the other are pooled over both directions before taking
    the percentile.
    """
    if a.dims != b.dims:
        raise ValueError(f"geometry mismatch: {a.dims} vs {b.dims}")
    spacing = a.spacing if spacing is None else tuple(float(s) for s in spacing)
    mask_a = a.data == label
    mask_b = b.data == label
    if not mask_a.any() or not mask_b.any():
        raise MissingStructureError(
            f"label {label} is empty in {'both' if not mask_a.any() and not mask_b.any() else 'one'}"
            " of the volumes"
        )
    surf_a = _surface(mask_a)
    surf_b = _surface(mask_b)
    dist_to_b = ndimage.distance_transform_edt(~surf_b, sampling=spacing)
    dist_to_a = ndimage.distance_transform_edt(~surf_a, sampling=spacing)
    pooled = np.concatenate([dist_to_b[surf_a], dist_to_a[surf_b]])
    return float(np.percentile(pooled, 95))


def soft_volume(prob: Volume, spacing=None) -> float:
    """Expected structure volume in cubic millimetres: sum of the soft map
    times the voxel volume."""
    data = np.asarray(prob.data, dtype=np.float64)
    if data.min() < 0 or data.max() > 1:
        raise ValueError("soft map values must lie in [0, 1]")
    if spacing is None:
        voxel = prob.voxel_volume
    else:
        sx, sy, sz = (float(s) for s in spacing)
        voxel = sx * sy * sz
    return float(data.sum() * voxel)


def cohens_d(group_a, group_b) -> float:
    """Pooled-standard-deviation effect size between two volume samples."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError(f"both groups need at least 2 values, got {a.size} and {b.size}")
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    pooled = ((a.size - 1) * var_a + (b.size - 1) * var_b) / (a.size + b.size - 2)
    if pooled == 0.0:
        raise ValueError("pooled variance is zero; effect size undefined")
    return float((a.mean() - b.mean()) / np.sqrt(pooled))


def largest_cc(labels: Volume, label: int) -> Volume:
    """Keep only the largest 6-connected component of one label.

    Size ties go to the component containing the lowest linear voxel index.
    A label absent from the volume is a no-op.
    """
    mask = labels.data == label
    if not mask.any():
        return labels
    # a C-order crop keeps the voxels' raster order, so the tie rule holds
    box = _bbox_slices(mask, margin=0)
    mask = mask[box]
    components, count = ndimage.label(mask, structure=_STRUCT6)
    if count <= 1:
        return labels
    flat = components.ravel()
    sizes = np.bincount(flat)
    sizes[0] = 0
    best = sizes.max()
    candidates = np.flatnonzero(sizes == best)
    if len(candidates) == 1:
        winner = candidates[0]
    else:
        first_index = {c: np.argmax(flat == c) for c in candidates}
        winner = min(candidates, key=lambda c: first_index[c])
    out = labels.data.copy()
    out[box][mask & (components != winner)] = 0
    return labels.with_data(out)


def _bbox_slices(mask: np.ndarray, margin: int = 1):
    idx = np.nonzero(mask)
    slices = []
    for axis in range(3):
        lo = max(int(idx[axis].min()) - margin, 0)
        hi = min(int(idx[axis].max()) + margin + 1, mask.shape[axis])
        slices.append(slice(lo, hi))
    return tuple(slices)


def fill_holes(labels: Volume, fillable) -> Volume:
    """Fill internal background cavities of the given labels.

    A cavity is a 6-connected background component that neither reaches the
    face of the label's (padded) bounding box nor touches any label other than
    the one enclosing it; such components are relabelled to the enclosing
    label. A background region with a tunnel to the outside stays open.
    """
    out = labels.data.copy()
    for label in sorted(int(v) for v in fillable):
        mask = out == label
        if not mask.any():
            continue
        box = _bbox_slices(mask)
        sub = out[box]
        background = sub == 0
        if not background.any():
            continue
        components, count = ndimage.label(background, structure=_STRUCT6)
        if count == 0:
            continue
        open_ids = set()
        for axis in range(3):
            for face in (0, -1):
                face_slice = [slice(None)] * 3
                face_slice[axis] = face
                open_ids.update(np.unique(components[tuple(face_slice)]))
        open_ids.discard(0)
        boxes = ndimage.find_objects(components)
        for comp_id in range(1, count + 1):
            if comp_id in open_ids:
                continue
            # closed components sit strictly inside the subvolume, so the
            # padded box around them stays in bounds
            inner = tuple(
                slice(s.start - 1, s.stop + 1) for s in boxes[comp_id - 1]
            )
            comp = components[inner] == comp_id
            neighbours = ndimage.binary_dilation(comp, structure=_STRUCT6) & ~comp
            if np.all(sub[inner][neighbours] == label):
                sub[inner][comp] = label
        out[box] = sub
    return labels.with_data(out)


@dataclass
class MetricsReport:
    """Per-label evaluation table; None marks a metric that was undefined
    (structure missing from one of the volumes)."""

    rows: list[dict] = field(default_factory=list)

    COLUMNS = ("label", "name", "dice", "sd95_mm", "volume_pred_mm3", "volume_gt_mm3")

    def add(self, label, name, dice, sd95_mm, volume_pred_mm3, volume_gt_mm3):
        values = (label, name, dice, sd95_mm, volume_pred_mm3, volume_gt_mm3)
        self.rows.append(dict(zip(self.COLUMNS, values)))

    def mean(self, key: str):
        values = [r[key] for r in self.rows if r[key] is not None]
        return float(np.mean(values)) if values else None

    def to_csv_text(self) -> str:
        def fmt(value):
            if value is None:
                return ""
            if isinstance(value, float):
                return f"{value:.6f}"
            return str(value)

        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(fmt(row[c]) for c in self.COLUMNS))
        lines.append(",".join(["mean", ""] + [fmt(self.mean(c)) for c in self.COLUMNS[2:]]))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv_text())


def evaluate_volumes(pred: Volume, gt: Volume, schema: LabelSchema) -> MetricsReport:
    """Hard Dice, SD95, and volumes for every label the schema marks as
    evaluated. SD95 is left undefined when a structure is missing.

    Each label is scored on the bounding box of its two masks plus one voxel,
    clamped at the volume faces, so the cost follows the structure's size,
    not the volume's. Every number equals the whole-volume one. The box holds
    both masks, so the overlap and the voxel counts are the same. It also
    holds every 6-neighbour of a mask voxel that the volume holds, so the
    erosion finds the same surface voxels (a box that reaches a face keeps
    that face as the border). Each distance transform then sees the same
    surface voxels and measures the same nearest distances.
    """
    if pred.dims != gt.dims:
        raise ValueError(f"geometry mismatch: {pred.dims} vs {gt.dims}")
    report = MetricsReport()
    voxel = gt.voxel_volume
    for label in sorted(schema.evaluated_labels):
        name = schema.names.get(label, "")
        either = (pred.data == label) | (gt.data == label)
        if not either.any():
            report.add(label, name, 1.0, None, 0.0, 0.0)
            continue
        box = _bbox_slices(either)
        pred_box = pred.with_data(pred.data[box])
        gt_box = gt.with_data(gt.data[box])
        dice = hard_dice(pred_box, gt_box, label)
        try:
            distance = sd95(pred_box, gt_box, label, spacing=gt.spacing)
        except MissingStructureError:
            distance = None
        vol_pred = float((pred_box.data == label).sum()) * voxel
        vol_gt = float((gt_box.data == label).sum()) * voxel
        report.add(label, name, dice, distance, vol_pred, vol_gt)
    return report


def postprocess_labels(seg: Volume, schema: LabelSchema) -> Volume:
    """Clean a predicted label map: keep the largest component of every
    predicted label, then fill cavities of the labels marked fillable."""
    out = seg
    for label in sorted(schema.target_labels):
        out = largest_cc(out, label)
    return fill_holes(out, schema.fillable_labels & schema.target_labels)
