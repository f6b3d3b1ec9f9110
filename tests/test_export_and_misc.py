import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import voxsynth
from conftest import make_image, make_labels

_MODULES = sorted(m.name for m in pkgutil.iter_modules(voxsynth.__path__) if not m.ispkg)
# (module, name) of every `from .module import name` in the package's __init__
_PACKAGE_IMPORTS = [
    (node.module, alias.name)
    for node in ast.parse(inspect.getsource(voxsynth)).body
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
]


@pytest.mark.parametrize("module", _MODULES)
def test_public_names_resolve(module):
    """Each name in a module's `__all__` exists, so `import *` works, and each
    name the package imports from it is public there and bound on the package."""
    mod = importlib.import_module(f"voxsynth.{module}")
    public = getattr(mod, "__all__", [])
    assert [name for name in public if not hasattr(mod, name)] == []
    for source, name in _PACKAGE_IMPORTS:
        if source == module:
            assert name in public and getattr(voxsynth, name) is getattr(mod, name)


def test_cli_reports_partial_batch_failure(tmp_path, monkeypatch):
    import voxsynth.pipeline as pipeline_module
    from voxsynth.cli import dispatch

    original = pipeline_module.generate_sample

    def flaky(maps, cfg, index, **kwargs):
        if index == 0:
            raise RuntimeError("boom")
        return original(maps, cfg, index, **kwargs)

    monkeypatch.setattr(pipeline_module, "generate_sample", flaky)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("crop_size = 24\n")
    code = dispatch(
        ["--quiet", "generate", "--config", str(cfg), "--maps", "demo",
         "--count", "2", "--out", str(tmp_path / "out"), "--workers", "1"]
    )
    assert code == 2


def test_volume_astype_and_helpers(rng):
    image = make_image(rng.uniform(0, 1, (3, 3, 3)))
    as_f32 = image.astype(np.float32)
    assert as_f32.dtype == np.float32
    with pytest.raises(ValueError, match="label"):
        image.labels_present()
    assert image.voxel_volume == 1.0
    labels = make_labels(np.array([3, 0, 3, 1, 0, 0, 1, 3]).reshape(2, 2, 2))
    present = labels.labels_present()
    present.append(7)
    present[0] = 9
    assert labels.labels_present() == [0, 1, 3]  # the cached census is not shared
