"""The workloads: their inputs, their timed items and their output checks.

Each workload draws its inputs from the workload seed. An item is the unit
that throughput counts: a generated sample or an inference case. Input files
an item needs are written before its timer starts; outputs are checked after
the last item, outside the timed region.

- gen_pool: `generate_batch` with one worker per core on a 192^3 demo-phantom
  map loaded from a `.nii.gz` directory, so each sample is a real 160^3
  training crop. `deform` does about three quarters of the work and the
  NIfTI writes most of the rest. It is the only workload on the process-pool
  path (fork, worker start-up, handing the maps over).
- tools: per case, `preprocess`, `postprocess` and `evaluate` on 160^3 files
  and `enhance-labels` on a 64^3 generated pair, all through the CLI's
  `dispatch`. `metrics` and `clustering` do the work, `deform` none, and it
  is the only workload that reads NIfTI volumes in its items.
- gen_serial: the generator batch with one worker. It is not in
  BENCHMARK.json (the time budget of a full evaluation holds two), but
  `--workload gen_serial` runs it by hand.
"""

from __future__ import annotations

import csv
import io
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers, probes

TOOLS_STREAM = 1  # tools inputs come from (seed, TOOLS_STREAM, case), not the generator's seed
TOOLS_SIZE = 160
TOOLS_THICK_SLICE = 3  # the scan keeps every voxel along x and y, 3 mm slices along z
SUBDIVIDE_CROP = 64
SUBDIVIDE_PHANTOM = 72
SUBDIVIDE_BG_CLASSES = 4
EVALUATE_COLUMNS = ["label", "name", "dice", "sd95_mm", "volume_pred_mm3", "volume_gt_mm3"]
CSV_TOLERANCE = 1e-6  # evaluate writes six decimals


@dataclass
class Run:
    """State of one benchmark run, shared by the harness and the workload."""

    seed: int
    work: Path
    nproc: int
    tracer: object = None  # spans.Tracer in a traced run
    vs: object = None  # the voxsynth package, imported afresh during set-up
    cli: object = None
    state: dict = field(default_factory=dict)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def count(self, name: str, value: float = 1.0) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    def dispatch(self, command: str, *argv: str) -> None:
        with self.span(f"cli.{command}"):
            code = self.cli.dispatch(["--quiet", command, *argv])
        if code != 0:
            raise RuntimeError(f"voxsynth {command} exited with {code}")


def _size(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


class Workload:
    name = ""
    why = ""

    def prepare(self, run: Run) -> None:
        """Inputs that set-up needs; runs once, before set-up."""

    def setup(self, run: Run) -> None:
        """What a user pays before the first item, after the import."""
        run.vs.load_schema("brain")

    def prepare_item(self, run: Run, index: int) -> None:
        """Inputs of one item, written before its timer starts."""

    def run_item(self, run: Run, index: int) -> tuple[list, list, int]:
        """Run one timed item: (ids completed, ids failed, bytes written)."""
        raise NotImplementedError

    def checks(self, run: Run, done: list) -> list[tuple[str, bool]]:
        return []


# -- generation ----------------------------------------------------------------


class Generate(Workload):
    map_size = 192
    worker_mb = 1000  # a 160^3 sample peaks near 0.75 GB in its process

    def __init__(self, name: str, why: str, pooled: bool):
        self.name, self.why, self.pooled = name, why, pooled

    def prepare(self, run):
        maps_dir = run.work / "maps"
        maps_dir.mkdir()
        run.vs.write_nifti(run.vs.demo_phantom(self.map_size), maps_dir / "demo-phantom.nii.gz")

    def setup(self, run):
        run.state["maps"], run.state["map_ids"] = run.vs.pipeline.load_maps_dir(run.work / "maps")
        run.vs.load_schema("brain")
        run.state["cfg"] = run.vs.GeneratorConfig(seed=run.seed)
        # one worker per core, as many as the free memory holds, at least one
        pooled = max(1, min(run.nproc, probes.available_mb() // self.worker_mb))
        run.state["workers"] = pooled if self.pooled else 1

    def run_item(self, run, index):
        workers = run.state["workers"]
        first = index * workers
        wanted = list(range(first, first + workers))
        out = run.work / "samples"
        if run.tracer is not None:
            run.tracer.item = None if self.pooled else first
        run.count(layers.BATCH_WORKERS, workers)
        with run.span(layers.BATCH_SPAN):
            result = run.vs.generate_batch(
                run.state["maps"], run.state["cfg"], first + workers, out,
                workers=workers, map_ids=run.state["map_ids"],
            )
        failed = [i for i in wanted if i in result.failures]
        done = [i for i in wanted if i not in result.failures]
        names = run.vs.pipeline.sample_file_names
        return done, failed, sum(_size(*(out / n for n in names(i))) for i in done)

    def checks(self, run, done):
        vs = run.vs
        schema = vs.load_schema("brain")
        out = run.work / "samples"
        results = []
        for index in done:
            image_name, target_name, manifest_name = vs.pipeline.sample_file_names(index)
            try:
                image = vs.read_nifti(out / image_name)
                target = vs.read_nifti(out / target_name)
                vs.SampleManifest.load(out / manifest_name)
            except (OSError, ValueError) as exc:
                results.append((f"sample {index} reads back: {exc}", False))
                continue
            data = image.data
            results.append((f"sample {index} image and target dims agree", image.dims == target.dims))
            results.append((
                f"sample {index} image finite and in [0, 1]",
                bool(np.isfinite(data).all()) and float(data.min()) >= 0.0 and float(data.max()) <= 1.0,
            ))
            results.append((
                f"sample {index} target labels are background or schema target labels",
                set(target.labels_present()) - {0} <= set(schema.target_labels),
            ))
        if done:
            results.append(self._replay_check(run, done[0]))
        return results

    def _replay_check(self, run, index):
        """Replay one manifest in this process (the serial path) and compare
        it with the batch's files, byte for byte once written the same way."""
        vs = run.vs
        out = run.work / "samples"
        replay_dir = run.work / "replay"
        replay_dir.mkdir(exist_ok=True)
        names = vs.pipeline.sample_file_names(index)
        label = f"sample {index} replays byte-identically"
        try:
            manifest = vs.SampleManifest.load(out / names[2])
            pair = vs.replay_manifest(manifest, run.state["maps"], map_ids=run.state["map_ids"])
            image = vs.read_nifti(out / names[0])
            target = vs.read_nifti(out / names[1])
            vs.write_nifti(pair.image.astype(image.dtype), replay_dir / names[0], datatype=image.dtype)
            vs.write_nifti(pair.target, replay_dir / names[1], datatype=target.dtype)
            pair.manifest.save(replay_dir / names[2])
        except Exception as exc:  # a failed replay is a failed check, not a crash
            return (f"{label}: {exc}", False)
        same = all((out / n).read_bytes() == (replay_dir / n).read_bytes() for n in names)
        return (label, same)


# -- inference tools -----------------------------------------------------------


def _smooth_warp(labels: np.ndarray, amplitude: float, rng) -> np.ndarray:
    """Nearest-neighbour pull through a smooth random sinusoidal displacement
    of at most `amplitude` voxels per axis."""
    dims = labels.shape
    axes = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij", sparse=True)
    index = []
    for a in range(3):
        shift = np.zeros(dims)
        for b in range(3):
            cycles = rng.uniform(0.5, 2.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            shift = shift + amplitude / 3.0 * np.sin(2.0 * np.pi * cycles * axes[b] / dims[b] + phase)
        index.append(np.clip(np.rint(axes[a] + shift), 0, dims[a] - 1).astype(np.intp))
    return labels[tuple(index)]


def _ball(dims, centre, radius):
    """Bounding box of a voxel ball and the ball's mask inside it."""
    lo = [max(int(c) - radius, 0) for c in centre]
    hi = [min(int(c) + radius + 1, n) for c, n in zip(centre, dims)]
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    grid = np.indices([b - a for a, b in zip(lo, hi)]).astype(np.float64)
    dist2 = sum((grid[i] + lo[i] - centre[i]) ** 2 for i in range(3))
    return box, dist2 <= radius * radius


def _plausible_prediction(target: np.ndarray, rng) -> np.ndarray:
    """The target under a small warp, plus spurious islands of predicted
    labels in the background and small holes inside structures."""
    pred = _smooth_warp(target, 1.5, rng)
    labels = [int(v) for v in np.unique(target) if v != 0]
    background = np.argwhere(pred == 0)
    for _ in range(6):  # islands: disconnected blobs that postprocessing removes
        centre = background[rng.integers(len(background))]
        box, ball = _ball(pred.shape, centre, 2)
        pred[box][ball & (pred[box] == 0)] = labels[rng.integers(len(labels))]
    interior = np.argwhere(pred != 0)
    for _ in range(4):  # holes: small background cavities
        centre = interior[rng.integers(len(interior))]
        box, ball = _ball(pred.shape, centre, 1)
        pred[box][ball] = 0
    return pred


class Tools(Workload):
    name = "tools"
    why = (
        "preprocess, postprocess and evaluate on 160^3 files plus enhance-labels on a 64^3 pair, "
        "through dispatch: metrics, clustering and NIfTI reads, no deform"
    )

    def _base(self, run):
        if "base" not in run.state:
            vs = run.vs
            phantom = vs.demo_phantom(TOOLS_SIZE)
            target = vs.build_target(phantom, vs.load_schema("brain"))
            run.state["base"] = (phantom, target, [vs.demo_phantom(SUBDIVIDE_PHANTOM)])
        return run.state["base"]

    def prepare_item(self, run, index):
        vs = run.vs
        phantom, target, pair_maps = self._base(run)
        rng = np.random.default_rng([run.seed, TOOLS_STREAM, index])
        case = run.work / f"case{index:03d}"
        case.mkdir()
        gt = _smooth_warp(target.data, 3.0, rng)
        vs.write_nifti(target.with_data(gt), case / "gt.nii.gz")
        vs.write_nifti(target.with_data(_plausible_prediction(gt, rng)), case / "pred.nii.gz")

        # thick-slice scan: random per-label intensities plus noise, averaged
        # over 3-slice slabs along z
        tissue = _smooth_warp(phantom.data, 3.0, rng)
        means = rng.uniform(10.0, 240.0, size=int(tissue.max()) + 1)
        image = means[tissue] + rng.normal(0.0, 5.0, tissue.shape)
        n = TOOLS_SIZE // TOOLS_THICK_SLICE
        image = image[:, :, : n * TOOLS_THICK_SLICE].reshape(TOOLS_SIZE, TOOLS_SIZE, n, TOOLS_THICK_SLICE).mean(axis=3)
        affine = phantom.affine.copy()
        affine[2, 2] = float(TOOLS_THICK_SLICE)
        scan = vs.Volume(image.astype(np.float32), (1.0, 1.0, float(TOOLS_THICK_SLICE)), affine)
        vs.write_nifti(scan, case / "scan.nii.gz", datatype=np.float32)

        # a generated 64^3 image/target pair for enhance-labels
        cfg = vs.GeneratorConfig(seed=int(rng.integers(2**31)), crop_size=SUBDIVIDE_CROP)
        result = vs.generate_batch(pair_maps, cfg, 1, case / "pair", workers=1)
        if not result.ok:
            raise RuntimeError(f"could not generate the input pair of case {index}: {result.failures}")

    def _pair(self, run, index):
        case = run.work / f"case{index:03d}"
        image, target, _ = run.vs.pipeline.sample_file_names(0)
        return case / "pair" / image, case / "pair" / target

    def run_item(self, run, index):
        case = run.work / f"case{index:03d}"
        image, target = self._pair(run, index)
        run.dispatch("preprocess", "--in", str(case / "scan.nii.gz"), "--out", str(case / "ready.nii.gz"))
        run.dispatch("postprocess", "--in", str(case / "pred.nii.gz"), "--out", str(case / "clean.nii.gz"))
        run.dispatch(
            "evaluate", "--pred", str(case / "clean.nii.gz"), "--gt", str(case / "gt.nii.gz"),
            "--out", str(case / "metrics.csv"),
        )
        run.dispatch(
            "enhance-labels", "--image", str(image), "--labels", str(target), "--out", str(case / "sub.nii.gz"),
            "--map", str(case / "sub.csv"), "--bg-classes", str(SUBDIVIDE_BG_CLASSES), "--seed", str(run.seed),
        )
        outputs = ("ready.nii.gz", "clean.nii.gz", "metrics.csv", "sub.nii.gz", "sub.csv")
        return [index], [], _size(*(case / name for name in outputs))

    def checks(self, run, done):
        vs = run.vs
        schema = vs.load_schema("brain")
        results = []
        for index in done:
            case = run.work / f"case{index:03d}"
            ready = vs.read_nifti(case / "ready.nii.gz")
            expected_z = (TOOLS_SIZE // TOOLS_THICK_SLICE) * TOOLS_THICK_SLICE
            results.append((
                f"case {index} preprocessed scan is 1 mm isotropic, finite and in [0, 1]",
                ready.dims == (TOOLS_SIZE, TOOLS_SIZE, expected_z)
                and bool(np.isfinite(ready.data).all())
                and float(ready.data.min()) >= 0.0
                and float(ready.data.max()) <= 1.0,
            ))
            clean = vs.read_nifti(case / "clean.nii.gz")
            pred = vs.read_nifti(case / "pred.nii.gz")
            results.append((
                f"case {index} postprocessing adds no label",
                set(clean.labels_present()) <= set(pred.labels_present()),
            ))
            gt = vs.read_nifti(case / "gt.nii.gz")
            results.append(_evaluate_csv_check(index, case / "metrics.csv", clean, gt, schema))
            results += _subdivision_checks(vs, index, self._pair(run, index)[1], case)
        return results


def _evaluate_csv_check(index, path, pred, gt, schema) -> tuple[str, bool]:
    """The CSV has the documented columns, one row per evaluated label and a
    mean row, and its Dice and volumes equal a direct numpy computation."""
    label = f"case {index} evaluate CSV matches numpy Dice and volumes"
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    evaluated = sorted(schema.evaluated_labels)
    if rows[0] != EVALUATE_COLUMNS or len(rows) != len(evaluated) + 2 or rows[-1][0] != "mean":
        return (f"{label}: unexpected layout", False)
    voxel = float(np.prod(gt.spacing))
    for row, value in zip(rows[1:-1], evaluated):
        a, b = pred.data == value, gt.data == value
        size = int(a.sum()) + int(b.sum())
        dice = 1.0 if size == 0 else 2.0 * int(np.logical_and(a, b).sum()) / size
        expected = (value, dice, a.sum() * voxel, b.sum() * voxel)
        got = (int(row[0]), float(row[2]), float(row[4]), float(row[5]))
        if got[0] != expected[0] or any(abs(g - e) > CSV_TOLERANCE for g, e in zip(got[1:], expected[1:])):
            return (f"{label}: label {value} reads {got}, expected {expected}", False)
    return (label, True)


def _subdivision_checks(vs, index, target_path, case) -> list[tuple[str, bool]]:
    """The parent mapping restores the input labels bit-exactly, and the
    mapping CSV covers the sub-labels present with the input labels as
    parents."""
    labels = vs.read_nifti(target_path)
    sub = vs.read_nifti(case / "sub.nii.gz")
    rows = list(csv.reader(io.StringIO((case / "sub.csv").read_text())))
    mapping = {int(s): int(p) for s, p in rows[1:]}
    restored = vs.apply_parent_mapping(sub, mapping)
    present = set(int(v) for v in np.unique(sub.data))
    return [
        (
            f"case {index} parent mapping restores the input labels bit-exactly",
            np.array_equal(restored.data, labels.data),
        ),
        (
            f"case {index} mapping CSV covers the sub-labels present, parents are the input labels",
            rows[0] == ["sub_label", "parent_label"]
            and present <= set(mapping)
            and set(mapping.values()) == set(labels.labels_present()),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Generate(
            "gen_pool",
            "generate_batch with one worker per core on real 160^3 crops: deform-bound, writes NIfTI, "
            "the only process-pool workload",
            pooled=True,
        ),
        Tools(),
        Generate(
            "gen_serial",
            "the same batch with 1 worker; runnable by hand, not in BENCHMARK.json (see README)",
            pooled=False,
        ),
    )
}
