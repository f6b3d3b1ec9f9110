"""Where the traced run hooks each voxsynth module, and the per-layer metrics.

Every wrapper sits in the namespace the caller looks the function up in:
`generate_sample` imports `integrate_svf` into `voxsynth.pipeline`, the CLI
imports `read_nifti` from `voxsynth.nifti` at call time, `evaluate_volumes`
finds `sd95` among the globals of `voxsynth.metrics`, and so on. The CLI layer
is spanned at the benchmark's own `dispatch` call sites (see workloads.py).

A metric named `<layer>.<function>.s` is the median, over the run's items, of
that function's self time per item: its span time minus the time of the
wrapped calls inside it. `map_coordinates` is counted but not spanned, so
interpolation stays inside the self time of `integrate_svf`.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

from .spans import Tracer, median, per_item_count, per_item_self

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = [
    ("deform.upsample_svf.s", "s", "lower"),
    ("deform.integrate_svf.s", "s", "lower"),
    ("deform.compose_transforms.s", "s", "lower"),
    ("deform.warp_labels.s", "s", "lower"),
    ("deform.interp_calls", "count", "lower"),
    ("deform.interp_mpoints", "Mpoint", "lower"),
    ("deform.integrate_svf.share", "ratio", "lower"),
    ("nifti.write_nifti.s", "s", "lower"),
    ("nifti.write_mb", "MB", "lower"),
    ("nifti.read_nifti.s", "s", "lower"),
    ("nifti.read_mb", "MB", "lower"),
    ("intensity.synth_gmm_image.s", "s", "lower"),
    ("intensity.bias_field_from_params.s", "s", "lower"),
    ("intensity.apply_bias.s", "s", "lower"),
    ("intensity.rescale_minmax.s", "s", "lower"),
    ("intensity.apply_gamma.s", "s", "lower"),
    ("resolution.simulate_lr.s", "s", "lower"),
    ("target.apply_skullstrip.s", "s", "lower"),
    ("target.apply_lesion_dropout.s", "s", "lower"),
    ("target.build_target.s", "s", "lower"),
    ("volume.flip_lr.s", "s", "lower"),
    ("volume.crop_at.s", "s", "lower"),
    ("volume.resample.s", "s", "lower"),
    ("pipeline.generate_sample.s", "s", "lower"),
    ("pipeline.preprocess_for_inference.s", "s", "lower"),
    ("pipeline.worker_busy_ratio", "ratio", "higher"),
    ("pipeline.worker_peak_rss_mb", "MB", "lower"),
    ("metrics.postprocess_labels.s", "s", "lower"),
    ("metrics.largest_cc.s", "s", "lower"),
    ("metrics.fill_holes.s", "s", "lower"),
    ("metrics.evaluate_volumes.s", "s", "lower"),
    ("metrics.sd95.s", "s", "lower"),
    ("metrics.sd95_calls", "count", "lower"),
    ("metrics.evaluate_volumes.share", "ratio", "lower"),
    ("clustering.subdivide_labels.s", "s", "lower"),
    ("clustering.em_fit_1d.s", "s", "lower"),
    ("clustering.em_iters", "count", "lower"),
    ("clustering.em_converged_ratio", "ratio", "higher"),
    ("cli.preprocess.s", "s", "lower"),
    ("cli.postprocess.s", "s", "lower"),
    ("cli.evaluate.s", "s", "lower"),
    ("cli.enhance-labels.s", "s", "lower"),
    ("trace.throughput_per_s", "1/s", "higher"),
    ("trace.overhead_s_per_item", "s", "lower"),
    ("trace.spans_per_item", "count", "lower"),
]

# per-item counts recorded by the wrappers below
COUNT_METRICS = (
    "deform.interp_calls",
    "deform.interp_mpoints",
    "nifti.write_mb",
    "nifti.read_mb",
    "metrics.sd95_calls",
    "clustering.em_iters",
)
# spans whose inclusive time is reported as a share of the item's wall time
SHARE_METRICS = ("deform.integrate_svf", "metrics.evaluate_volumes")
# what a generating process is busy with: the sample and its two image files
BUSY_SPANS = ("pipeline.generate_sample", "nifti.write_nifti")
BATCH_SPAN = "pipeline.generate_batch"
BATCH_WORKERS = "pipeline.batch_workers"  # a count recorded with each batch span
ITEM_SPAN = "bench.item"


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


def _count_interp(tracer, args, kwargs, result):
    coords = args[1] if len(args) > 1 else kwargs["coordinates"]
    tracer.count("deform.interp_calls")
    tracer.count("deform.interp_mpoints", coords[0].size / 1e6)


def _count_write(tracer, args, kwargs, result):
    tracer.count("nifti.write_mb", _file_mb(kwargs.get("path", args[1])))


def _count_read(tracer, args, kwargs, result):
    tracer.count("nifti.read_mb", _file_mb(kwargs.get("path", args[0])))


def _count_sd95(tracer, args, kwargs, result):
    tracer.count("metrics.sd95_calls")


def _em_counter(em_fit_1d):
    signature = inspect.signature(em_fit_1d)

    def count(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        updates = len(result.log_likelihoods) - 1
        tracer.count("clustering.em_iters", updates)
        tracer.count("clustering.em_fits")
        if updates < bound.arguments["max_iters"]:
            tracer.count("clustering.em_converged")

    return count


def _sample_index(args, kwargs):
    return kwargs["sample_index"] if "sample_index" in kwargs else args[2]


def install(tracer: Tracer) -> None:
    """Wrap the voxsynth functions the per-layer metrics need."""
    mod = {
        name: importlib.import_module(f"voxsynth.{name}")
        for name in ("pipeline", "deform", "intensity", "resolution", "target", "nifti", "metrics", "clustering")
    }
    pipeline, wrap = mod["pipeline"], tracer.wrap
    wrap(pipeline, "generate_sample", "pipeline.generate_sample", item_from=_sample_index)
    wrap(pipeline, "preprocess_for_inference", "pipeline.preprocess_for_inference")
    for attr in ("upsample_svf", "integrate_svf", "compose_transforms", "warp_labels"):
        wrap(pipeline, attr, f"deform.{attr}")
    wrap(mod["deform"], "map_coordinates", None, after=_count_interp)
    for attr in ("flip_lr", "crop_at", "resample"):
        wrap(pipeline, attr, f"volume.{attr}")
    for attr in ("synth_gmm_image", "bias_field_from_params", "apply_bias", "rescale_minmax", "apply_gamma"):
        wrap(mod["intensity"], attr, f"intensity.{attr}")
    wrap(mod["resolution"], "simulate_lr", "resolution.simulate_lr")
    for attr in ("apply_skullstrip", "apply_lesion_dropout", "build_target"):
        wrap(mod["target"], attr, f"target.{attr}")
    for owner in (pipeline, mod["nifti"]):
        wrap(owner, "write_nifti", "nifti.write_nifti", after=_count_write)
        wrap(owner, "read_nifti", "nifti.read_nifti", after=_count_read)
    metrics = mod["metrics"]
    for attr in ("postprocess_labels", "largest_cc", "fill_holes", "evaluate_volumes"):
        wrap(metrics, attr, f"metrics.{attr}")
    wrap(metrics, "sd95", "metrics.sd95", after=_count_sd95)
    clustering = mod["clustering"]
    wrap(clustering, "subdivide_labels", "clustering.subdivide_labels")
    wrap(clustering, "em_fit_1d", "clustering.em_fit_1d", after=_em_counter(clustering.em_fit_1d))


def _busy_ratio(tracer: Tracer) -> float:
    """Time the generating processes spent on samples and their files, over
    workers x wall time of the batches."""
    busy = capacity = 0.0
    batches = [s for s in tracer.spans if s.name == BATCH_SPAN]
    workers = [v for n, _, v in tracer.counts if n == BATCH_WORKERS]
    for batch, n_workers in zip(batches, workers):
        capacity += n_workers * batch.duration
        for s in tracer.spans:
            if (
                s.name in BUSY_SPANS
                and s.parent in (None, batch.id)
                and batch.start <= s.start
                and s.end <= batch.end
            ):
                busy += s.duration
    return busy / capacity if capacity else 0.0


def layer_metrics(tracer: Tracer, items, throughput: float, main_peak_mb: float) -> dict[str, float]:
    """Every per-layer metric of a traced run; layers the run's items never
    call read 0."""
    spans = tracer.spans
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".s"):
            values[name] = median(per_item_self(spans, name[: -len(".s")], items))
    for name in COUNT_METRICS:
        values[name] = median(per_item_count(tracer.counts, name, items))

    item_wall = dict.fromkeys(items, 0.0)
    for s in spans:
        if s.parent is None and s.item in item_wall:
            item_wall[s.item] += s.duration
    for name in SHARE_METRICS:
        inclusive = dict.fromkeys(items, 0.0)
        for s in spans:
            if s.name == name and s.item in inclusive:
                inclusive[s.item] += s.duration
        values[f"{name}.share"] = median(
            inclusive[i] / item_wall[i] for i in items if item_wall[i] > 0
        )

    fits = sum(v for n, _, v in tracer.counts if n == "clustering.em_fits")
    converged = sum(v for n, _, v in tracer.counts if n == "clustering.em_converged")
    values["clustering.em_converged_ratio"] = converged / fits if fits else 0.0
    values["pipeline.worker_busy_ratio"] = _busy_ratio(tracer)
    generating = any(s.name == "pipeline.generate_sample" for s in spans)
    if tracer.worker_rss_mb:
        values["pipeline.worker_peak_rss_mb"] = max(tracer.worker_rss_mb.values())
    else:
        values["pipeline.worker_peak_rss_mb"] = main_peak_mb if generating else 0.0

    values["trace.throughput_per_s"] = throughput
    spans_per_item = len(spans) / len(items) if items else 0.0
    values["trace.spans_per_item"] = spans_per_item
    values["trace.overhead_s_per_item"] = spans_per_item * wrapper_cost_s()
    return values


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one, measured here."""
    def noop():
        return None

    tracer = Tracer(".")
    holder = type("Holder", (), {"noop": staticmethod(noop)})
    tracer.wrap(holder, "noop", "noop")
    tracer.active = True
    traced = holder.noop
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    elapsed_traced = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    elapsed_plain = time.perf_counter() - started
    return max(elapsed_traced - elapsed_plain, 0.0) / calls

