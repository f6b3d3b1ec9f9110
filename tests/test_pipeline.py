import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from voxsynth import deform
from voxsynth.config import GeneratorConfig
from voxsynth.manifest import MANIFEST_FORMAT, SampleManifest
from voxsynth.nifti import read_nifti, write_nifti
from voxsynth.phantom import demo_phantom
from voxsynth.pipeline import (
    PipelineError,
    generate_batch,
    generate_sample,
    load_maps_dir,
    preprocess_for_inference,
    replay_manifest,
    sample_file_names,
    sample_rng,
)
from voxsynth.schema import SchemaError, load_schema

from conftest import fail_writes, make_image, make_labels


def slab_map(n=12):
    """Neutral-label test map: label 3 fills the upper y half (flip-invariant)."""
    data = np.zeros((n, n, n), dtype=np.int32)
    data[:, n // 2 :, :] = 3
    return make_labels(data)


def frozen_cfg(**overrides):
    """All randomisation disabled: identity warp, exact mean image, no bias,
    no gamma, native resolution."""
    base = dict(
        rot_min=0.0, rot_max=0.0, scale_min=1.0, scale_max=1.0,
        shear_min=0.0, shear_max=0.0, trans_min=0.0, trans_max=0.0,
        warp_std_max=0.0, std_min=0.0, std_max=0.0, bias_std_max=0.0,
        gamma_var=0.0, spacing_max=1.0, alpha_min=0.0, alpha_max=0.0,
        schema="tiny", crop_size=12,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


VALID_MANIFEST = json.loads(
    SampleManifest(master_seed=1, sample_index=0, map_index=0, map_id="demo", config={}).to_json()
)


@pytest.fixture
def fast_cfg():
    return GeneratorConfig(crop_size=16, seed=99)


class TestGenerateSample:
    def test_all_randomness_disabled_gives_mean_map(self, tiny_schema):
        cfg = frozen_cfg()
        pair = generate_sample([slab_map()], cfg, 0, schema=tiny_schema)
        labels = slab_map().data
        values = np.unique(pair.image.data)
        assert set(values) == {0.0, 1.0}  # two means, rescaled to the unit span
        for label in (0, 3):
            region = pair.image.data[labels == label]
            assert len(np.unique(region)) == 1
        assert np.array_equal(pair.target.data, labels)
        assert pair.manifest.svf_std == 0.0
        assert pair.manifest.bias_std == 0.0

    def test_fixed_seed_bit_identical(self, fast_cfg):
        maps = [demo_phantom(24)]
        a = generate_sample(maps, fast_cfg, 3)
        b = generate_sample(maps, fast_cfg, 3)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.target.data, b.target.data)
        assert a.manifest == b.manifest

    def test_different_indices_differ(self, fast_cfg):
        maps = [demo_phantom(24)]
        a = generate_sample(maps, fast_cfg, 0)
        b = generate_sample(maps, fast_cfg, 1)
        assert not np.array_equal(a.image.data, b.image.data)

    def test_default_cfg_postconditions(self, fast_cfg):
        schema = load_schema("brain")
        pair = generate_sample([demo_phantom(24)], fast_cfg, 5, schema=schema)
        assert pair.image.dims == (16, 16, 16)  # crop size
        assert pair.target.dims == (16, 16, 16)
        assert pair.image.data.min() >= 0.0 and pair.image.data.max() <= 1.0
        assert set(pair.target.labels_present()) <= schema.target_labels | {0}
        assert pair.image.spacing == pair.target.spacing
        assert np.array_equal(pair.image.affine, pair.target.affine)

    def test_crop_capped_at_map_size(self):
        cfg = GeneratorConfig(crop_size=160)
        pair = generate_sample([demo_phantom(24)], cfg, 0)
        assert pair.image.dims == (24, 24, 24)
        assert pair.manifest.crop_size == [24, 24, 24]

    def test_crop_after_warp_switch(self, tiny_schema):
        cfg = frozen_cfg(crop_first=False)
        pair = generate_sample([slab_map()], cfg, 0, schema=tiny_schema)
        stages = pair.manifest.stages
        assert stages.index("crop") > stages.index("deform")
        assert np.array_equal(pair.target.data, slab_map().data)

    def test_stage_order_recorded(self, fast_cfg):
        pair = generate_sample([demo_phantom(24)], fast_cfg, 0)
        assert pair.manifest.stages == [
            "select", "flip", "crop", "skullstrip", "lesions", "deform",
            "synth", "bias", "rescale", "gamma", "resolution", "target",
        ]

    def test_manifest_records_draws(self, fast_cfg):
        pair = generate_sample([demo_phantom(24)], fast_cfg, 2)
        m = pair.manifest
        assert m.master_seed == 99 and m.sample_index == 2
        assert set(m.affine) == {"rotations_deg", "scalings", "shearings", "translations_mm"}
        assert 0 <= m.svf_std <= 3
        assert m.resolution["axis"] in ("x", "y", "z")
        assert 1 <= m.resolution["slice_thickness_mm"] <= m.resolution["slice_spacing_mm"] <= 9
        assert all(10 <= mu <= 240 for mu in m.gmm_means.values())

    def test_empty_maps_rejected(self, fast_cfg):
        with pytest.raises(ValueError, match="empty"):
            generate_sample([], fast_cfg, 0)

    def test_errors_carry_stage_annotation(self, fast_cfg, tiny_schema):
        # phantom labels are unknown to the tiny schema: fails at map selection
        with pytest.raises(PipelineError, match="stage 'select'"):
            generate_sample([demo_phantom(24)], fast_cfg, 0, schema=tiny_schema)

    def test_flip_probability_half(self, fast_cfg):
        flips = 0
        n = 400
        for i in range(n):
            rng = sample_rng(fast_cfg.seed, i)
            rng.integers(0, 1)  # map selection draw
            flips += rng.random() < 0.5
        assert abs(flips - n / 2) < 3 * np.sqrt(n * 0.25)


class TestGenerateBatch:
    def test_zero_count_succeeds_with_empty_dir(self, tmp_path, fast_cfg):
        result = generate_batch([demo_phantom(24)], fast_cfg, 0, tmp_path / "out")
        assert result.ok and result.written == []
        assert (tmp_path / "out").is_dir()

    def test_negative_count_refused_before_the_out_dir(self, tmp_path, fast_cfg):
        with pytest.raises(ValueError, match="count=-2"):
            generate_batch([demo_phantom(24)], fast_cfg, -2, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_worker_counts_agree_bitwise(self, tmp_path, fast_cfg):
        maps = [demo_phantom(24)]
        solo = generate_batch(maps, fast_cfg, 4, tmp_path / "solo", workers=1)
        multi = generate_batch(maps, fast_cfg, 4, tmp_path / "multi", workers=4)
        assert solo.ok and multi.ok
        for i in range(4):
            for name in sample_file_names(i):
                a = (tmp_path / "solo" / name).read_bytes()
                b = (tmp_path / "multi" / name).read_bytes()
                assert a == b, name

    def test_resume_regenerates_only_missing(self, tmp_path, fast_cfg):
        maps = [demo_phantom(24)]
        out = tmp_path / "out"
        generate_batch(maps, fast_cfg, 3, out)
        originals = {
            name: (out / name).read_bytes() for i in range(3) for name in sample_file_names(i)
        }
        for name in sample_file_names(1):
            (out / name).unlink()
        sentinel = out / sample_file_names(0)[0]
        stamp = sentinel.stat().st_mtime_ns
        result = generate_batch(maps, fast_cfg, 3, out)
        assert result.skipped == [0, 2]
        assert sentinel.stat().st_mtime_ns == stamp  # untouched, not rewritten
        for name, blob in originals.items():
            assert (out / name).read_bytes() == blob

    def test_failure_reported_without_aborting(self, tmp_path, fast_cfg, monkeypatch):
        maps = [demo_phantom(24)]

        import voxsynth.pipeline as pipeline_module

        original = pipeline_module.generate_sample

        def flaky(maps, cfg, index, **kwargs):
            if index == 1:
                raise RuntimeError("boom")
            return original(maps, cfg, index, **kwargs)

        monkeypatch.setattr(pipeline_module, "generate_sample", flaky)
        result = generate_batch(maps, fast_cfg, 3, tmp_path / "out")
        assert not result.ok
        assert set(result.failures) == {1}
        assert len(result.written) == 2

    def test_killed_worker_recorded_and_resumable(self, tmp_path, fast_cfg, monkeypatch):
        maps = [demo_phantom(24)]
        clean = generate_batch(maps, fast_cfg, 3, tmp_path / "clean")
        assert clean.ok

        import voxsynth.pipeline as pipeline_module

        original = pipeline_module.generate_sample

        def killed(maps, cfg, index, **kwargs):
            if index == 1:
                os._exit(1)
            return original(maps, cfg, index, **kwargs)

        pools = []
        pool_outcomes = pipeline_module._pool_outcomes

        def recorded(pending, workers, initargs):
            pools.append((list(pending), workers))
            return pool_outcomes(pending, workers, initargs)

        monkeypatch.setattr(pipeline_module, "generate_sample", killed)
        monkeypatch.setattr(pipeline_module, "_pool_outcomes", recorded)
        out = tmp_path / "out"
        result = generate_batch(maps, fast_cfg, 3, out, workers=2)
        assert set(result.failures) == {1}
        # the first retry runs at full width; only then are samples isolated
        assert pools[0] == ([0, 1, 2], 2)
        assert 1 in pools[1][0] and pools[1][1] == 2
        assert ([1], 1) in pools[2:] and all(width == 1 for _, width in pools[2:])
        assert len(result.written) == 2
        for i in (0, 2):
            for name in sample_file_names(i):
                assert (out / name).read_bytes() == (tmp_path / "clean" / name).read_bytes(), name
        monkeypatch.undo()
        resumed = generate_batch(maps, fast_cfg, 3, out, workers=2)
        assert resumed.ok and len(resumed.written) == 3
        for i in range(3):
            for name in sample_file_names(i):
                assert (out / name).read_bytes() == (tmp_path / "clean" / name).read_bytes(), name

    @pytest.mark.parametrize("kind", [0, 2], ids=["image", "manifest"])
    def test_write_failing_partway_leaves_no_partial_file(self, tmp_path, fast_cfg, monkeypatch, kind):
        maps = [demo_phantom(24)]
        out = tmp_path / "out"
        generate_batch(maps, fast_cfg, 2, out)
        originals = {
            name: (out / name).read_bytes() for i in range(2) for name in sample_file_names(i)
        }
        lost = out / sample_file_names(0)[kind]
        lost.unlink()
        fail_writes(monkeypatch, lost.name.split(".")[0] + ".")  # this file's name only
        result = generate_batch(maps, fast_cfg, 2, out)
        assert set(result.failures) == {0}
        assert sorted(p.name for p in out.iterdir()) == sorted(set(originals) - {lost.name})
        monkeypatch.undo()
        resumed = generate_batch(maps, fast_cfg, 2, out)
        assert resumed.ok and resumed.skipped == [1]
        for name, blob in originals.items():
            assert (out / name).read_bytes() == blob, name

    def test_bad_map_refused_before_any_sample(self, tmp_path, fast_cfg):
        good = demo_phantom(24)
        data = np.array(good.data)
        data[0, 0, 0] = 999  # not declared in the brain schema
        out = tmp_path / "out"
        with pytest.raises(SchemaError, match=r"map 'bad': labels \[999\]"):
            generate_batch([good, make_labels(data)], fast_cfg, 4, out, map_ids=["good", "bad"])
        assert not out.exists()
        with pytest.raises(ValueError, match="map 'float' is not a label volume"):
            generate_batch(
                [good, make_image(data)], fast_cfg, 4, out, workers=2, map_ids=["good", "float"]
            )
        assert not out.exists()

    def test_one_census_per_map_and_per_sample(self, tmp_path, fast_cfg, monkeypatch):
        shapes = []
        unique = np.unique

        def counted(values, *args, **kwargs):
            shapes.append(np.shape(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        result = generate_batch([demo_phantom(24), demo_phantom(20)], fast_cfg, 3, tmp_path / "out")
        assert result.ok
        # the batch checks each map once; each sample then counts its crop once
        assert shapes == [(24, 24, 24), (20, 20, 20)] + [(16, 16, 16)] * 3

    def test_maps_dir_skips_hidden_files(self, tmp_path):
        write_nifti(slab_map(), tmp_path / "a.nii")
        (tmp_path / ".a.123.tmp.nii").write_bytes(b"partial")  # an interrupted write
        maps, ids = load_maps_dir(tmp_path)
        assert ids == ["a"] and len(maps) == 1

    def test_resume_refuses_another_runs_samples(self, tmp_path, fast_cfg):
        maps = [demo_phantom(24)]
        out = tmp_path / "out"
        generate_batch(maps, fast_cfg, 2, out)
        with pytest.raises(ValueError, match=r"sample 0 .*config\.seed"):
            generate_batch(maps, dataclasses.replace(fast_cfg, seed=2), 3, out)
        assert not any((out / name).exists() for name in sample_file_names(2))
        (out / sample_file_names(1)[2]).write_bytes((out / sample_file_names(0)[2]).read_bytes())
        with pytest.raises(ValueError, match=r"sample 1 .*sample_index"):
            generate_batch(maps, fast_cfg, 2, out)

    def test_resume_regenerates_unreadable_manifest(self, tmp_path, fast_cfg):
        maps = [demo_phantom(24)]
        out = tmp_path / "out"
        generate_batch(maps, fast_cfg, 2, out)
        originals = {
            name: (out / name).read_bytes() for i in range(2) for name in sample_file_names(i)
        }
        payload = json.loads(originals[sample_file_names(0)[2]])
        del payload["config"]
        for text in ("{", "[]", "3", json.dumps(payload)):
            (out / sample_file_names(0)[2]).write_text(text)
            result = generate_batch(maps, fast_cfg, 2, out)
            assert result.ok and result.skipped == [1]
            for name, blob in originals.items():
                assert (out / name).read_bytes() == blob

    def test_resume_refuses_another_manifest_format(self, tmp_path, fast_cfg):
        # resuming a shorter batch into an older directory would leave both
        # formats side by side, so the first old manifest stops the batch
        maps = [demo_phantom(24)]
        out = tmp_path / "out"
        generate_batch(maps, fast_cfg, 2, out)
        for i in range(2):
            path = out / sample_file_names(i)[2]
            payload = json.loads(path.read_text())
            del payload["squaring_steps"], payload["integration_dtype"]
            payload["format"] = "voxsynth-manifest-v1"
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        message = rf"sample 0 .*'voxsynth-manifest-v1' .*'{MANIFEST_FORMAT}'.*new output directory"
        with pytest.raises(ValueError, match=message):
            generate_batch(maps, fast_cfg, 1, out)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    # Two SHA-256 digests per case over samples 0-7: one over the decoded image
    # and target arrays (dtype, shape, bytes), one over the manifest text, so a
    # change to either is told apart. Both were recorded on the source just
    # before the digest was split; the combined digest they replace was
    # recorded before the blocked squaring kernel replaced map_coordinates.
    # The manifest digests were re-recorded for manifest v2, which adds the
    # squaring steps and the integration dtype; the array digests held.
    GOLDEN = {
        "default": (
            {},
            "d341b926d56d8f56980b0ab33f489ac013ca1ce57961df315af3cf6427dc13aa",
            "4d07d5d278c2e97e68fcb5870170636f7d4f14a84d7481a07d5022b17bdc93e9",
        ),
        "crop_after_warp": (
            {"crop_first": False},
            "2af138a8ec5ff9e56cdda3ad1d88363c8a9220a532f3439d46cce33a9b86df9e",
            "eee0afa53e5432a67fe03dfcd6574778853278d8c155376e7f8c99acc8d2c4a1",
        ),
        "isotropic_lr": (
            {"isotropic_lr": True},
            "27cf19b422d19b277b2d3e9a054374c6ffa1b7fac953b74481e8432e6e3a3f46",
            "3715eab75843f52b932a1144c81c5c9894b587418cc4e97a8de216f8364eab1f",
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_samples_unchanged(self, tmp_path, case):
        overrides, expected_arrays, expected_manifests = self.GOLDEN[case]
        cfg = GeneratorConfig(crop_size=40, seed=3, **overrides)
        result = generate_batch([demo_phantom(48)], cfg, 8, tmp_path, map_ids=["demo"])
        assert result.ok
        arrays, manifests = hashlib.sha256(), hashlib.sha256()
        for i in range(8):
            image_name, target_name, manifest_name = sample_file_names(i)
            for name in (image_name, target_name):
                data = read_nifti(tmp_path / name).data
                arrays.update(str(data.dtype).encode())
                arrays.update(str(data.shape).encode())
                arrays.update(np.ascontiguousarray(data).tobytes())
            manifests.update((tmp_path / manifest_name).read_bytes())
        assert arrays.hexdigest() == expected_arrays
        assert manifests.hexdigest() == expected_manifests


class TestReplay:
    def test_manifest_replay_is_bit_exact(self, tmp_path, fast_cfg):
        maps = [demo_phantom(24)]
        out = tmp_path / "out"
        generate_batch(maps, fast_cfg, 2, out, map_ids=["demo"])
        for i in range(2):
            image_name, target_name, manifest_name = sample_file_names(i)
            manifest = SampleManifest.load(out / manifest_name)
            pair = replay_manifest(manifest, maps, map_ids=["demo"])
            stored_image = read_nifti(out / image_name)
            stored_target = read_nifti(out / target_name)
            assert np.array_equal(pair.image.data.astype(np.float32), stored_image.data)
            assert np.array_equal(pair.target.data, stored_target.data)

    def test_replay_detects_integration_drift(self, fast_cfg, monkeypatch):
        # sample 1's velocity needs an eighth step under a 0.05-voxel first
        # step; every random draw stays the same, only the recorded steps move
        maps = [demo_phantom(24)]
        manifest = generate_sample(maps, fast_cfg, 1).manifest
        assert (manifest.squaring_steps, manifest.integration_dtype) == (7, "float32")
        monkeypatch.setattr(deform, "MAX_STEP_DISPLACEMENT", 0.05)
        drifted = generate_sample(maps, fast_cfg, 1).manifest
        assert drifted.squaring_steps == 8
        assert dataclasses.replace(drifted, squaring_steps=7) == manifest
        with pytest.raises(PipelineError, match="diverged"):
            replay_manifest(manifest, maps)

    def test_replay_with_wrong_maps_is_detected(self, fast_cfg):
        pair = generate_sample([demo_phantom(24)], fast_cfg, 0)
        other = [demo_phantom(32)]
        with pytest.raises(PipelineError, match="diverged"):
            replay_manifest(pair.manifest, other)

    def test_manifest_json_round_trip(self, fast_cfg):
        pair = generate_sample([demo_phantom(24)], fast_cfg, 7)
        text = pair.manifest.to_json()
        assert SampleManifest.from_json(text) == pair.manifest
        assert SampleManifest.from_json(text).to_json() == text

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "3",
            '"x"',
            "{",
            json.dumps({k: v for k, v in VALID_MANIFEST.items() if k != "map_id"}),
            json.dumps({**VALID_MANIFEST, "extra": 1}),
            json.dumps({**VALID_MANIFEST, "config": 3}),
        ],
        ids=["list", "number", "string", "truncated", "missing_field", "unknown_field", "config_not_object"],
    )
    def test_malformed_manifest_raises_value_error(self, text):
        with pytest.raises(ValueError):
            SampleManifest.from_json(text)

    @pytest.mark.parametrize(
        "config, key",
        [({"bogus": 1}, "bogus"), ({"crop_size": "16"}, "crop_size")],
        ids=["unknown_key", "wrong_type"],
    )
    def test_replay_refuses_a_malformed_config(self, config, key):
        manifest = SampleManifest.from_json(json.dumps({**VALID_MANIFEST, "config": config}))
        with pytest.raises(ValueError, match=key):
            replay_manifest(manifest, [demo_phantom(24)])


class TestPreprocess:
    def test_thick_scan_regridded_isotropic(self, rng):
        data = rng.uniform(0, 1, (32, 32, 7))
        scan = make_image(data, spacing=(1.0, 1.0, 5.0))
        out = preprocess_for_inference(scan, GeneratorConfig())
        assert out.spacing == (1.0, 1.0, 1.0)
        assert out.dims == (32, 32, 35)  # 5x more slices along the thick axis
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_outliers_clamped_body_spans_unit_interval(self, rng):
        data = rng.uniform(0.2, 0.8, (16, 16, 16))
        data[0, 0, :5] = 1e6
        out = preprocess_for_inference(make_image(data), GeneratorConfig())
        assert np.all(out.data[0, 0, :5] == 1.0)
        assert (out.data == 0.0).any() and (out.data == 1.0).any()

    def test_native_scan_nearly_unchanged(self, rng):
        data = rng.uniform(0, 1, (12, 12, 12))
        scan = make_image(data)
        out = preprocess_for_inference(scan, GeneratorConfig())
        assert out.dims == scan.dims
        lo, hi = np.percentile(data, [1, 99])
        expected = np.clip((data - lo) / (hi - lo), 0, 1)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_constant_scan_warns_and_zeroes(self):
        scan = make_image(np.full((8, 8, 8), 3.0))
        with pytest.warns(RuntimeWarning, match="constant"):
            out = preprocess_for_inference(scan, GeneratorConfig())
        assert np.all(out.data == 0.0)

    def test_integer_scan_accepted(self, rng):
        scan = make_labels(rng.integers(0, 1000, (8, 8, 8)))
        out = preprocess_for_inference(scan, GeneratorConfig())
        assert not out.is_labels
