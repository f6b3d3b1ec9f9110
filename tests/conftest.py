import errno
import io
from pathlib import Path

import numpy as np
import pytest

import voxsynth.nifti as nifti_module
from voxsynth.schema import LabelEntry, LabelSchema
from voxsynth.volume import Volume


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_labels(data, spacing=(1.0, 1.0, 1.0), affine=None) -> Volume:
    return Volume(np.asarray(data, dtype=np.int32), spacing, affine)


def make_image(data, spacing=(1.0, 1.0, 1.0), affine=None) -> Volume:
    return Volume(np.asarray(data, dtype=np.float64), spacing, affine)


@pytest.fixture
def tiny_schema() -> LabelSchema:
    """Small synthetic schema: paired tissue 1/2, neutral tissue 3, one
    extracerebral label 4, csf 5, and a lesion pair 6/7 hosted in 1/2."""
    entries = [
        LabelEntry(0, "background", "background", 0, None, True, False, False),
        LabelEntry(1, "left tissue", "brain", 2, None, True, True, True),
        LabelEntry(2, "right tissue", "brain", 1, None, True, True, True),
        LabelEntry(3, "middle tissue", "brain", 3, None, True, True, False),
        LabelEntry(4, "husk", "extracerebral", 4, None, False, False, False),
        LabelEntry(5, "fluid", "csf", 5, None, False, False, False),
        LabelEntry(6, "left spot", "lesion", 7, 1, False, False, False),
        LabelEntry(7, "right spot", "lesion", 6, 2, False, False, False),
    ]
    return LabelSchema(entries, source="tiny")


class _DiskFull(io.FileIO):
    """A file that stores the first bytes of its first write, then fails."""

    def write(self, b):
        super().write(bytes(memoryview(b).cast("B")[:100]))
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_writes(monkeypatch, fragment):
    """Make every write-mode open in voxsynth.nifti of a path whose name holds
    `fragment` fail partway through its first write."""

    def opener(path, mode="r", *args, **kwargs):
        if "w" in mode and fragment in Path(path).name:
            return _DiskFull(path, "wb")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(nifti_module, "open", opener, raising=False)
