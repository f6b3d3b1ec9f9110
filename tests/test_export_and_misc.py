import numpy as np
import pytest

from conftest import make_image


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
