"""Per-sample parameter record: everything needed to reproduce one sample.

A manifest stores the seed pair, the resolved configuration, and every random
decision a generation run made. Replaying it re-derives the same random stream
and re-executes the pipeline, reproducing the sample bit-exactly; the recorded
parameter values double as a cross-check and as debugging metadata. Manifests
serialise to deterministic, human-readable JSON text.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .nifti import replaced_atomically

__all__ = ["SampleManifest", "ManifestFormatError", "MANIFEST_FORMAT"]

MANIFEST_FORMAT = "voxsynth-manifest-v2"


class ManifestFormatError(ValueError):
    """A manifest that is a JSON object of another format."""


@dataclass
class SampleManifest:
    master_seed: int
    sample_index: int
    map_index: int
    map_id: str
    config: dict
    stages: list[str] = field(default_factory=list)
    flip_applied: bool = False
    crop_offset: list[int] | None = None
    crop_size: list[int] | None = None
    strip_branch: str = "none"
    lesions_kept: bool = True
    affine: dict = field(default_factory=dict)
    svf_std: float = 0.0
    squaring_steps: int = 0  # the steps and dtype integrate_svf actually used
    integration_dtype: str = ""
    gmm_means: dict = field(default_factory=dict)
    gmm_stds: dict = field(default_factory=dict)
    bias_std: float = 0.0
    gamma_log_exponent: float = 0.0
    resolution: dict = field(default_factory=dict)
    format: str = MANIFEST_FORMAT

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SampleManifest":
        """Parse a manifest; any malformed document raises `ValueError`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"manifest must be a JSON object, got {type(payload).__name__}")
        fmt = payload.get("format")
        if fmt != MANIFEST_FORMAT:
            raise ManifestFormatError(f"manifest format {fmt!r} is not {MANIFEST_FORMAT!r}")
        if not isinstance(payload.get("config"), dict):
            raise ValueError("manifest config must be a JSON object")
        try:
            return cls(**payload)
        except TypeError as exc:  # a missing or unknown field
            raise ValueError(f"malformed manifest: {exc}") from exc

    def save(self, path) -> None:
        """Write the manifest through a temporary sibling renamed into place."""
        with replaced_atomically(path) as f:
            f.write(self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path) -> "SampleManifest":
        return cls.from_json(Path(path).read_text())
