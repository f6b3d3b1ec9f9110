import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voxsynth import clustering
from voxsynth.cli import dispatch
from voxsynth.manifest import SampleManifest
from voxsynth.nifti import read_nifti, write_nifti
from voxsynth.phantom import demo_phantom
from voxsynth.pipeline import sample_file_names

from conftest import fail_writes, make_image


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text("crop_size = 24\nseed = 5\n")
    return str(path)


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "generate" in capsys.readouterr().out
    assert dispatch(["generate", "--help"]) == 0
    assert "--maps" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert dispatch([]) == 1


def test_missing_required_flag_named(capsys):
    code = dispatch(["generate", "--count", "1", "--out", "x"])
    assert code == 1
    assert "--maps" in capsys.readouterr().err


def test_unknown_flag_suggests_closest(capsys):
    code = dispatch(["generate", "--mapz", "demo", "--count", "1", "--out", "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--mapz" in err and "did you mean --maps" in err


def test_unknown_command_rejected(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_generate_demo_end_to_end(tmp_path, fast_config):
    out = tmp_path / "samples"
    code = dispatch(
        ["--quiet", "generate", "--config", fast_config, "--maps", "demo",
         "--count", "2", "--out", str(out), "--workers", "1"]
    )
    assert code == 0
    for i in range(2):
        image_name, target_name, manifest_name = sample_file_names(i)
        image = read_nifti(out / image_name)
        target = read_nifti(out / target_name)
        assert image.dims == (24, 24, 24)
        assert target.is_labels
        manifest = SampleManifest.load(out / manifest_name)
        assert manifest.sample_index == i
        assert manifest.map_id == "demo-phantom"


def test_generate_seed_flag_overrides(tmp_path, fast_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "123"), (out_b, "123")):
        assert dispatch(
            ["--quiet", "generate", "--config", fast_config, "--maps", "demo",
             "--count", "1", "--out", str(out), "--seed", seed, "--workers", "1"]
        ) == 0
    name = sample_file_names(0)[0]
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_generate_from_maps_dir(tmp_path, fast_config):
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    write_nifti(demo_phantom(24), maps_dir / "head.nii.gz")
    out = tmp_path / "out"
    code = dispatch(
        ["--quiet", "generate", "--config", fast_config, "--maps", str(maps_dir),
         "--count", "1", "--out", str(out), "--workers", "1"]
    )
    assert code == 0
    manifest = SampleManifest.load(out / sample_file_names(0)[2])
    assert manifest.map_id == "head"


def test_generate_empty_maps_dir_fatal(tmp_path):
    empty = tmp_path / "maps"
    empty.mkdir()
    code = dispatch(
        ["--quiet", "generate", "--maps", str(empty), "--count", "1", "--out", str(tmp_path / "o")]
    )
    assert code == 3


def test_phantom_subcommand(tmp_path):
    out = tmp_path / "phantom.nii.gz"
    assert dispatch(["--quiet", "phantom", "--out", str(out), "--size", "32"]) == 0
    v = read_nifti(out)
    assert v.dims == (32, 32, 32)
    assert v.is_labels


def test_preprocess_subcommand(tmp_path, rng):
    scan = make_image(rng.uniform(0, 500, (16, 16, 4)), spacing=(1, 1, 4))
    write_nifti(scan.astype(np.float32), tmp_path / "scan.nii.gz", datatype=np.float32)
    out = tmp_path / "pre.nii.gz"
    code = dispatch(["--quiet", "preprocess", "--in", str(tmp_path / "scan.nii.gz"), "--out", str(out)])
    assert code == 0
    v = read_nifti(out)
    assert v.spacing == (1.0, 1.0, 1.0)
    assert v.dims == (16, 16, 16)
    assert 0.0 <= v.data.min() and v.data.max() <= 1.0


def test_postprocess_and_evaluate_subcommands(tmp_path):
    phantom = demo_phantom(32)
    noisy = np.array(phantom.data)
    noisy[0, 0, 0] = 17  # disconnected hippocampus satellite
    noisy_vol = phantom.with_data(noisy)
    write_nifti(noisy_vol, tmp_path / "pred.nii.gz")
    write_nifti(phantom, tmp_path / "gt.nii.gz")

    out_seg = tmp_path / "clean.nii.gz"
    assert dispatch(
        ["--quiet", "postprocess", "--in", str(tmp_path / "pred.nii.gz"), "--out", str(out_seg)]
    ) == 0
    cleaned = read_nifti(out_seg)
    assert cleaned.data[0, 0, 0] == 0

    table = tmp_path / "metrics.csv"
    assert dispatch(
        ["--quiet", "evaluate", "--pred", str(out_seg), "--gt", str(tmp_path / "gt.nii.gz"),
         "--out", str(table)]
    ) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "label,name,dice,sd95_mm,volume_pred_mm3,volume_gt_mm3"
    assert lines[-1].startswith("mean,")
    # cleaned prediction equals the ground truth almost everywhere: dice ~ 1
    dice_values = [float(line.split(",")[2]) for line in lines[1:-1] if line.split(",")[2]]
    assert all(d > 0.99 for d in dice_values)


def test_enhance_labels_subcommand(tmp_path, rng):
    labels = demo_phantom(24)
    intensity = rng.uniform(0, 1, (24, 24, 24)).astype(np.float32)
    write_nifti(make_image(intensity).astype(np.float32), tmp_path / "img.nii.gz", datatype=np.float32)
    write_nifti(labels, tmp_path / "seg.nii.gz")
    out = tmp_path / "sub.nii.gz"
    mapping = tmp_path / "mapping.csv"
    code = dispatch(
        ["--quiet", "enhance-labels", "--image", str(tmp_path / "img.nii.gz"),
         "--labels", str(tmp_path / "seg.nii.gz"), "--out", str(out),
         "--map", str(mapping), "--bg-classes", "3", "--seed", "1"]
    )
    assert code == 0
    sub = read_nifti(out)
    rows = mapping.read_text().splitlines()
    assert rows[0] == "sub_label,parent_label"
    pairs = dict(tuple(int(v) for v in r.split(",")) for r in rows[1:])
    # applying the mapping restores the original parents
    lut = np.zeros(max(pairs) + 1, dtype=np.int64)
    for sub_id, parent in pairs.items():
        lut[sub_id] = parent
    assert np.array_equal(lut[sub.data], labels.data)


@pytest.mark.parametrize("command", ["evaluate", "enhance-labels"])
def test_failed_csv_write_leaves_no_csv(tmp_path, monkeypatch, rng, command):
    labels = demo_phantom(16)
    write_nifti(make_image(rng.uniform(0, 1, labels.dims)), tmp_path / "img.nii")
    write_nifti(labels, tmp_path / "seg.nii")
    seg, table = str(tmp_path / "seg.nii"), str(tmp_path / "table.csv")
    flags = {
        "evaluate": ["--pred", seg, "--gt", seg, "--out", table],
        "enhance-labels": ["--image", str(tmp_path / "img.nii"), "--labels", seg,
                           "--out", str(tmp_path / "sub.nii"), "--map", table, "--bg-classes", "3"],
    }[command]
    fail_writes(monkeypatch, "table")
    assert dispatch(["--quiet", command, *flags]) == 3
    # neither the final file nor its temporary sibling is left behind
    assert not any("table" in p.name for p in tmp_path.iterdir())


def test_failed_map_write_leaves_no_volume(tmp_path, monkeypatch, rng):
    labels = demo_phantom(16)
    write_nifti(make_image(rng.uniform(0, 1, labels.dims)), tmp_path / "img.nii")
    write_nifti(labels, tmp_path / "seg.nii")
    fail_writes(monkeypatch, "map")
    code = dispatch(
        ["--quiet", "enhance-labels", "--image", str(tmp_path / "img.nii"),
         "--labels", str(tmp_path / "seg.nii"), "--out", str(tmp_path / "sub.nii"),
         "--map", str(tmp_path / "map.csv"), "--bg-classes", "3"]
    )
    assert code == 3
    # the volume's sub-label ids mean nothing without the map, so it goes too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.nii", "seg.nii"]


def test_negative_count_refused_before_the_out_dir(tmp_path, caplog):
    out = tmp_path / "o"
    code = dispatch(["--quiet", "generate", "--maps", "demo", "--count", "-2", "--out", str(out)])
    assert code == 3
    assert "count" in caplog.text
    assert not out.exists()


def test_config_env_var_used(tmp_path, monkeypatch, rng):
    cfg_path = tmp_path / "env.cfg"
    cfg_path.write_text("hr_spacing = 2.0\n")
    monkeypatch.setenv("VOXSYNTH_CONFIG", str(cfg_path))
    scan = make_image(rng.uniform(0, 1, (8, 8, 8)))
    write_nifti(scan.astype(np.float32), tmp_path / "s.nii.gz", datatype=np.float32)
    out = tmp_path / "p.nii.gz"
    assert dispatch(["--quiet", "preprocess", "--in", str(tmp_path / "s.nii.gz"), "--out", str(out)]) == 0
    assert read_nifti(out).spacing == (2.0, 2.0, 2.0)


def test_quiet_is_applied_on_every_dispatch(tmp_path, caplog):
    out = str(tmp_path / "phantom.nii")

    def phantom_logged(*flags):
        caplog.clear()
        assert dispatch([*flags, "phantom", "--out", out, "--size", "16"]) == 0
        return any("wrote demo phantom" in r.getMessage() for r in caplog.records)

    assert not phantom_logged("--quiet")
    assert phantom_logged()
    assert not phantom_logged("--quiet")


def test_enhance_labels_rejects_zero_bg_classes(tmp_path, caplog, rng):
    labels = demo_phantom(16)
    write_nifti(make_image(rng.uniform(0, 1, labels.dims)), tmp_path / "img.nii")
    write_nifti(labels, tmp_path / "seg.nii")
    code = dispatch(
        ["--quiet", "enhance-labels", "--image", str(tmp_path / "img.nii"),
         "--labels", str(tmp_path / "seg.nii"), "--out", str(tmp_path / "sub.nii"),
         "--map", str(tmp_path / "map.csv"), "--bg-classes", "0"]
    )
    assert code != 0
    assert "(0, 0)" in caplog.text
    assert not (tmp_path / "sub.nii").exists()


def test_enhance_labels_rejects_zero_fg_classes(tmp_path, caplog, rng, monkeypatch):
    fits = []
    monkeypatch.setattr(clustering, "em_fit_1d", lambda *a, **kw: fits.append(a))
    labels = demo_phantom(16)
    write_nifti(make_image(rng.uniform(0, 1, labels.dims)), tmp_path / "img.nii")
    write_nifti(labels, tmp_path / "seg.nii")
    code = dispatch(
        ["--quiet", "enhance-labels", "--image", str(tmp_path / "img.nii"),
         "--labels", str(tmp_path / "seg.nii"), "--out", str(tmp_path / "sub.nii"),
         "--map", str(tmp_path / "map.csv"), "--fg-classes", "0"]
    )
    assert code == 3
    assert "fg_k" in caplog.text and "got 0" in caplog.text
    assert fits == []  # refused before the background fit
    assert not (tmp_path / "sub.nii").exists()


def test_module_entry_point_exit_codes(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "voxsynth.cli", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )

    shown = run("--help")
    assert shown.returncode == 0 and "generate" in shown.stdout
    refused = run("generate", "--mapz", "demo", "--count", "1", "--out", str(tmp_path / "out"))
    assert refused.returncode == 1
    assert "unrecognized argument: --mapz (did you mean --maps?)" in refused.stderr
