"""One full generation step, batch generation, and inference preprocessing.

Each sample is driven by its own random stream derived from (master seed,
sample index), so batches are order-independent, resumable, and safe to
parallelise: the same inputs always produce bit-identical outputs no matter
how many workers ran. Every random decision is written to the sample's
manifest; replaying a manifest re-derives the stream and reproduces the
sample bit-exactly.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import intensity, resolution, target
from .config import GeneratorConfig
from .deform import integrate_svf, sample_affine, sample_svf, upsample_svf, warp_labels
# not called here; kept bound because perfbench's traced runs wrap each deform
# step under the name `generate_sample` looks it up by
from .deform import compose_transforms  # noqa: F401
from .manifest import SampleManifest
from .nifti import read_nifti, write_nifti
from .schema import LabelSchema, SchemaError, load_schema
from .volume import Volume, crop_at, draw_crop_offset, flip_lr, resample

logger = logging.getLogger(__name__)

__all__ = [
    "SamplePair",
    "BatchResult",
    "PipelineError",
    "sample_rng",
    "generate_sample",
    "generate_batch",
    "preprocess_for_inference",
    "replay_manifest",
    "sample_file_names",
]

FLIP_PROBABILITY = 0.5


class PipelineError(RuntimeError):
    """A generation stage failed; the message names the stage."""


@dataclass
class SamplePair:
    """One synthetic image, its segmentation target, and the full parameter
    record. Image and target share dims, spacing, and affine by construction."""

    image: Volume
    target: Volume
    manifest: SampleManifest


@dataclass
class BatchResult:
    written: list[tuple[str, str, str]] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def sample_rng(master_seed: int, sample_index: int) -> np.random.Generator:
    """Independent per-sample stream from a hashed (seed, index) pair."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(sample_index,)))


@contextmanager
def _stage(name: str, stages: list[str]):
    stages.append(name)
    logger.debug("stage %s", name)
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage '{name}' failed: {exc}") from exc


def _map_id(map_ids, index: int) -> str:
    return map_ids[index] if map_ids is not None else f"map-{index:03d}"


def _check_map(labels, map_id: str, schema: LabelSchema) -> None:
    """Refuse a map that is not a label volume or holds an undeclared label."""
    if not isinstance(labels, Volume) or not labels.is_labels:
        raise ValueError(f"map {map_id!r} is not a label volume")
    try:
        schema.check_labels_known(labels.labels_present())
    except SchemaError as exc:
        raise SchemaError(f"map {map_id!r}: {exc}") from None


def generate_sample(
    maps,
    cfg: GeneratorConfig,
    sample_index: int,
    schema: LabelSchema | None = None,
    map_ids=None,
) -> SamplePair:
    """Run the full generative pipeline for one sample index.

    Stage order: select a map, maybe flip it, crop, simulate skull stripping,
    drop or keep lesions, deform, synthesise intensities, bias, rescale,
    gamma, simulate acquisition resolution, and project the target. With
    ``cfg.crop_first`` off, the crop moves after the deformation instead.
    The crop size is capped at the map size per axis.
    """
    if not maps:
        raise ValueError("maps must not be empty")
    if schema is None:
        schema = load_schema(cfg.schema)
    rng = sample_rng(cfg.seed, sample_index)
    stages: list[str] = []

    manifest = SampleManifest(
        master_seed=cfg.seed,
        sample_index=int(sample_index),
        map_index=0,
        map_id="",
        config=cfg.as_dict(),
        stages=stages,
    )

    with _stage("select", stages):
        map_index = int(rng.integers(0, len(maps)))
        labels = maps[map_index]
        manifest.map_index = map_index
        manifest.map_id = _map_id(map_ids, map_index)
        _check_map(labels, manifest.map_id, schema)

    with _stage("flip", stages):
        flip_applied = bool(rng.random() < FLIP_PROBABILITY)
        manifest.flip_applied = flip_applied
        if flip_applied:
            labels = flip_lr(labels, schema.flips)

    def crop_stage():
        nonlocal labels
        with _stage("crop", stages):
            size = tuple(min(int(cfg.crop_size), d) for d in labels.dims)
            offset = draw_crop_offset(labels.dims, size, rng)
            labels = crop_at(labels, offset, size)
            manifest.crop_offset = list(offset)
            manifest.crop_size = list(size)

    if cfg.crop_first:
        crop_stage()

    with _stage("skullstrip", stages):
        branch = target.draw_strip_branch(rng)
        manifest.strip_branch = branch
        labels = target.apply_skullstrip(labels, schema, branch)

    with _stage("lesions", stages):
        keep = target.draw_lesion_keep(rng)
        manifest.lesions_kept = keep
        labels = target.apply_lesion_dropout(labels, schema, keep)

    with _stage("deform", stages):
        affine_params, matrix = sample_affine(cfg, rng, labels.dims, labels.spacing)
        manifest.affine = {
            "rotations_deg": list(affine_params.rotations_deg),
            "scalings": list(affine_params.scalings),
            "shearings": list(affine_params.shearings),
            "translations_mm": list(affine_params.translations_mm),
        }
        svf = sample_svf(cfg, rng)
        manifest.svf_std = svf.std
        # nested so the velocity is freed inside integrate_svf, once it is
        # scaled into the squaring buffer; the pull builds no composed field
        labels = warp_labels(labels, matrix, integrate_svf(upsample_svf(svf, labels.dims)))

    if not cfg.crop_first:
        crop_stage()

    with _stage("synth", stages):
        present = labels.labels_present()
        gmm = intensity.sample_gmm_params(cfg, present, rng)
        manifest.gmm_means = {str(k): v for k, v in gmm.means.items()}
        manifest.gmm_stds = {str(k): v for k, v in gmm.stds.items()}
        image = intensity.synth_gmm_image(labels, gmm, rng)

    with _stage("bias", stages):
        bias_params = intensity.sample_bias_params(cfg, rng)
        manifest.bias_std = bias_params.std
        bias = intensity.bias_field_from_params(bias_params, image.dims)
        image = intensity.apply_bias(image, bias)

    with _stage("rescale", stages):
        image = intensity.rescale_minmax(image, 0.0, 100.0)

    with _stage("gamma", stages):
        log_exponent = intensity.draw_gamma(cfg, rng)
        manifest.gamma_log_exponent = log_exponent
        image = intensity.apply_gamma(image, log_exponent)

    with _stage("resolution", stages):
        res = resolution.sample_resolution(cfg, rng)
        manifest.resolution = {
            "axis": res.axis_name,
            "slice_spacing_mm": res.slice_spacing,
            "slice_thickness_mm": res.slice_thickness,
            "alpha": res.alpha,
        }
        image = resolution.simulate_lr(image, res, isotropic=cfg.isotropic_lr)

    with _stage("target", stages):
        target_map = target.build_target(labels, schema)

    return SamplePair(image=image, target=target_map, manifest=manifest)


def sample_file_names(index: int) -> tuple[str, str, str]:
    stem = f"sample_{index:05d}"
    return (f"{stem}_image.nii.gz", f"{stem}_target.nii.gz", f"{stem}.manifest")


def _write_pair(pair: SamplePair, out_dir: Path, index: int) -> tuple[str, str, str]:
    image_name, target_name, manifest_name = sample_file_names(index)
    image_path = out_dir / image_name
    target_path = out_dir / target_name
    manifest_path = out_dir / manifest_name
    write_nifti(pair.image, image_path)
    write_nifti(pair.target, target_path)
    pair.manifest.save(manifest_path)
    return (str(image_path), str(target_path), str(manifest_path))


def _belongs_to_run(out_dir: Path, index: int, cfg: GeneratorConfig) -> bool:
    """Whether sample `index` is already written by this run and can be skipped.

    Only the manifest is read: it is written last, so a readable one marks a
    complete triple. An unreadable manifest means the sample is regenerated; a
    readable one from another run (other config or seed) raises, because
    resuming into it would mix the two runs in one directory.
    """
    names = sample_file_names(index)
    if not all((out_dir / name).exists() for name in names):
        return False
    try:
        manifest = SampleManifest.load(out_dir / names[2])
    except (OSError, ValueError) as exc:
        logger.warning("sample %d has an unreadable manifest, regenerating: %s", index, exc)
        return False
    expected = cfg.as_dict()
    differ = sorted(
        f"config.{key}"
        for key in expected.keys() | manifest.config.keys()
        if expected.get(key) != manifest.config.get(key)
    )
    if manifest.sample_index != index:
        differ.append("sample_index")
    if differ:
        raise ValueError(
            f"sample {index} in {out_dir} belongs to another run ({', '.join(differ)} "
            "differ); use a new output directory"
        )
    return True


# per-process state of the sample runner: set by the pool initializer in each
# worker, or by generate_batch itself for the length of an in-process batch
_WORKER: dict = {}


def _init_worker(maps, cfg, schema, out_dir, map_ids):
    _WORKER["maps"] = maps
    _WORKER["cfg"] = cfg
    _WORKER["schema"] = schema
    _WORKER["out_dir"] = out_dir
    _WORKER["map_ids"] = map_ids


def _run_sample(index: int) -> tuple[str, str, str]:
    started = time.perf_counter()
    pair = generate_sample(
        _WORKER["maps"],
        _WORKER["cfg"],
        index,
        schema=_WORKER["schema"],
        map_ids=_WORKER["map_ids"],
    )
    paths = _write_pair(pair, _WORKER["out_dir"], index)
    logger.info("sample %d generated in %.0f ms", index, (time.perf_counter() - started) * 1000.0)
    return paths


def _run_in_process(pending, initargs):
    _init_worker(*initargs)
    try:
        for index in pending:
            try:
                yield index, _run_sample(index), None
            except Exception as exc:
                yield index, None, exc
    finally:
        _WORKER.clear()


def _run_in_pool(pending, workers, initargs):
    """Run `pending` in a pool of `workers` forked processes.

    A worker that dies (killed, out of memory) breaks the pool and fails every
    unfinished sample with it. Those are retried once together in a fresh pool
    of `workers`; only the samples that break that pool too are then retried
    one at a time, each alone in a one-worker pool, so only a sample that
    breaks its own pool fails.
    """
    broken = yield from _unless_broken(_pool_outcomes(pending, workers, initargs))
    if broken:
        logger.warning("a worker died; retrying samples %s in a fresh pool", broken)
        broken = yield from _unless_broken(_pool_outcomes(broken, workers, initargs))
    if broken:
        logger.warning("a worker died again; retrying samples %s one at a time", broken)
    for index in broken:
        yield from _pool_outcomes([index], 1, initargs)


def _unless_broken(outcomes):
    """Pass on the outcomes not failed by a broken pool; return the indices
    of those that were."""
    broken = []
    for index, paths, error in outcomes:
        if isinstance(error, BrokenProcessPool):
            broken.append(index)
        else:
            yield index, paths, error
    return broken


def _pool_outcomes(pending, workers, initargs):
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=initargs) as pool:
        futures = {index: pool.submit(_run_sample, index) for index in pending}
        for index, future in futures.items():
            error = future.exception()  # a broken pool fails its pending futures
            yield index, None if error else future.result(), error


def generate_batch(
    maps,
    cfg: GeneratorConfig,
    count: int,
    out_dir,
    workers: int = 1,
    map_ids=None,
) -> BatchResult:
    """Write `count` (image, target, manifest) triples into `out_dir`.

    Samples already written by this run are skipped, so an interrupted batch
    resumes where it stopped and a deleted sample is regenerated
    bit-identically; a directory holding another run's samples is refused
    before anything is generated. Each map is checked against the schema
    once, before anything is written: one that is not a label volume raises
    ``ValueError``, one with an undeclared label ``SchemaError``, naming the
    map's id. The check caches each map's label census, which the samples
    reuse. With ``workers <= 1`` the samples run in the calling process,
    otherwise in a pool of that many forked workers, which inherit it.
    Failures are collected per sample instead of aborting; the samples of a
    pool whose worker died are retried, first in a fresh pool of `workers`,
    then one at a time.
    """
    schema = load_schema(cfg.schema)
    for index, labels in enumerate(maps):
        _check_map(labels, _map_id(map_ids, index), schema)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = BatchResult()

    pending = []
    for index in range(count):
        if _belongs_to_run(out_dir, index, cfg):
            result.skipped.append(index)
            result.written.append(tuple(str(out_dir / name) for name in sample_file_names(index)))
        else:
            pending.append(index)

    initargs = (maps, cfg, schema, out_dir, map_ids)
    if workers <= 1:
        outcomes = _run_in_process(pending, initargs)
    else:
        outcomes = _run_in_pool(pending, workers, initargs)
    for index, paths, error in outcomes:
        if error is not None:
            result.failures[index] = str(error)
            logger.error("sample %d failed: %s", index, error)
        else:
            result.written.append(paths)

    result.written.sort()
    return result


def preprocess_for_inference(scan: Volume, cfg: GeneratorConfig) -> Volume:
    """Put a scan of any resolution on the native isotropic grid and rescale
    its intensities into [0, 1] using the robust (1st, 99th) percentiles."""
    if scan.is_labels:
        scan = scan.astype(np.float64)
    iso = (cfg.hr_spacing,) * 3
    regridded = resample(scan, iso, mode="trilinear")
    return intensity.rescale_minmax(regridded, 1.0, 99.0)


def replay_manifest(manifest: SampleManifest, maps, map_ids=None) -> SamplePair:
    """Re-run the pipeline from a manifest and verify the recorded parameters.

    The random stream is re-derived from the stored (master seed, sample
    index); the freshly recorded decisions must match the manifest, otherwise
    the inputs differ from the original run and an error is raised.
    """
    cfg = GeneratorConfig(**manifest.config)
    pair = generate_sample(maps, cfg, manifest.sample_index, map_ids=map_ids)
    if pair.manifest != manifest:
        raise PipelineError(
            "replay diverged from the manifest; the provided maps or package "
            "version differ from the original run"
        )
    return pair


def load_maps_dir(maps_dir) -> tuple[list[Volume], list[str]]:
    """Read all NIfTI label maps in a directory, sorted by name. Hidden files,
    such as the temporary sibling of an interrupted write, are skipped."""
    maps_dir = Path(maps_dir)
    paths = sorted(
        p
        for p in maps_dir.iterdir()
        if p.name.endswith((".nii", ".nii.gz")) and not p.name.startswith(".")
    )
    if not paths:
        raise FileNotFoundError(f"no .nii or .nii.gz label maps in {maps_dir}")
    volumes = [read_nifti(p) for p in paths]
    ids = [p.name.removesuffix(".nii.gz").removesuffix(".nii") for p in paths]
    return volumes, ids
