"""Training-map edits: skull-strip simulation, lesion dropout, target projection."""

from __future__ import annotations

import numpy as np

from .schema import BACKGROUND, LabelSchema
from .volume import Volume, relabel

__all__ = [
    "STRIP_NONE",
    "STRIP_FULL",
    "STRIP_KEEP_CSF",
    "draw_strip_branch",
    "apply_skullstrip",
    "draw_lesion_keep",
    "apply_lesion_dropout",
    "build_target",
]

STRIP_NONE = "none"
STRIP_FULL = "full"
STRIP_KEEP_CSF = "keep_csf"


def draw_strip_branch(rng) -> str:
    """Half the maps keep their head labels; the stripped half splits evenly
    between a complete strip and one that leaves the fluid layer behind."""
    u = rng.random()
    if u < 0.5:
        return STRIP_NONE
    if u < 0.75:
        return STRIP_FULL
    return STRIP_KEEP_CSF


def apply_skullstrip(labels: Volume, schema: LabelSchema, branch: str) -> Volume:
    if branch == STRIP_NONE:
        return labels
    stripped = set(schema.extracerebral_labels)
    if branch == STRIP_FULL and schema.csf_label is not None:
        stripped.add(schema.csf_label)
    elif branch not in (STRIP_FULL, STRIP_KEEP_CSF):
        raise ValueError(f"unknown strip branch {branch!r}")
    mapping = {lab: BACKGROUND for lab in stripped}
    return labels.with_data(relabel(labels.data, mapping))


def draw_lesion_keep(rng) -> bool:
    return bool(rng.random() < 0.5)


def apply_lesion_dropout(labels: Volume, schema: LabelSchema, keep: bool) -> Volume:
    if keep:
        return labels
    return labels.with_data(relabel(labels.data, schema.lesion_hosts))


def build_target(deformed_labels: Volume, schema: LabelSchema) -> Volume:
    """Reset every label that is not to be predicted to background."""
    data = deformed_labels.data
    present = np.unique(data)
    mapping = {
        int(v): BACKGROUND
        for v in present
        if int(v) != BACKGROUND and int(v) not in schema.target_labels
    }
    return deformed_labels.with_data(relabel(data, mapping))
