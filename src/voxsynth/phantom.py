"""Procedural demo head: nested ellipsoids labelled with the default schema.

The phantom gives every CLI path something to run on without external data.
It is deterministic, mirror-symmetric about the midline (so left/right flips
are exact), and carries skin, skull, fluid, paired hemispheric structures,
and small white-matter lesions.
"""

from __future__ import annotations

import numpy as np

from .volume import Volume, axis_coordinates

__all__ = ["demo_phantom"]

# (left id, right id, centre in unit coords, radii in unit coords); a centre x
# of +c paints the right structure at +c and the left one at -c.
_PAIRED = (
    (4, 43, (0.22, 0.05, 0.10), (0.10, 0.22, 0.14)),  # lateral ventricles
    (17, 53, (0.32, -0.25, -0.10), (0.08, 0.14, 0.08)),  # hippocampi
    (78, 79, (0.38, 0.18, 0.15), (0.07, 0.07, 0.07)),  # white matter lesions
)


def demo_phantom(size: int = 64) -> Volume:
    """Build the demo label map at the given cubic size (1 mm spacing)."""
    n = int(size)
    if n < 16:
        raise ValueError(f"phantom size must be >= 16, got {n}")
    centre = (n - 1) / 2.0
    u = [(axis_coordinates((n, n, n), a) - centre) / (n / 2.0) for a in range(3)]

    def inside(centre_u, radii) -> np.ndarray:
        cx, cy, cz = centre_u
        rx, ry, rz = radii
        return (
            ((u[0] - cx) / rx) ** 2 + ((u[1] - cy) / ry) ** 2 + ((u[2] - cz) / rz) ** 2
        ) <= 1.0

    labels = np.zeros((n, n, n), dtype=np.int32)
    left = u[0] < 0  # world x is the left-right axis; negative x is the left side

    def paint(value, mask):
        labels[mask] = value

    def paint_pair(left_id, right_id, mask):
        paint(left_id, mask & left)
        paint(right_id, mask & ~left)

    paint(509, inside((0, 0, 0), (0.95, 0.88, 0.90)))  # skin
    paint(510, inside((0, 0, 0), (0.87, 0.80, 0.82)))  # skull
    paint(24, inside((0, 0, 0), (0.80, 0.73, 0.75)))  # csf
    paint_pair(3, 42, inside((0, 0, 0), (0.74, 0.67, 0.69)))  # cortex
    paint_pair(2, 41, inside((0, 0, 0), (0.62, 0.55, 0.57)))  # white matter
    for left_id, right_id, (cx, cy, cz), radii in _PAIRED:
        paint(left_id, inside((-cx, cy, cz), radii))
        paint(right_id, inside((cx, cy, cz), radii))
    paint(16, inside((0.0, -0.12, -0.45), (0.13, 0.16, 0.22)))  # brainstem

    affine = np.eye(4)
    affine[:3, 3] = -centre
    return Volume(labels, (1.0, 1.0, 1.0), affine)
