"""The benchmark harness: one run of one workload, and the all-workloads table.

A run imports voxsynth afresh from `src/` of this checkout, writes its inputs
and outputs under `.perfbench_work/` and removes them when it ends. Its
order: machine record and interpolation probe; workload inputs; set-up,
repeated; the timed items (traced or not); the interpolation probe again;
the output checks; the accuracy probes. Only the items are timed for
throughput.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import layers, probes
from .spans import Tracer, check_metric_name, peak_rss_mb, timing_summary
from .workloads import WORKLOADS, Run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

# (name, unit, better) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("output_mb_per_item", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("warp_err_max_vox", "vox", "lower"),
    ("fit_loglik_per_voxel", "nat/voxel", "higher"),
]
SETUP_REPEATS = 5


def _import_voxsynth():
    """Import voxsynth afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "voxsynth" or m.startswith("voxsynth.")]:
        del sys.modules[name]
    vs = importlib.import_module("voxsynth")
    cli = importlib.import_module("voxsynth.cli")
    if Path(vs.__file__).resolve().parent != (SRC / "voxsynth").resolve():
        raise ImportError(f"voxsynth was imported from {vs.__file__}, not from {SRC}")
    return vs, cli


def _timed_setup(run: Run, workload) -> list[float]:
    """Import and set-up, repeated; the last repetition's modules stay."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        run.vs, run.cli = _import_voxsynth()
        workload.setup(run)
        seconds.append(time.perf_counter() - started)
    return seconds


def _timed_items(run: Run, workload, seconds: float):
    """Run whole items until the next one would end past `seconds`; at least one."""
    done, failed, item_seconds, written = [], [], [], 0
    tracer = run.tracer
    index = 0
    while True:
        workload.prepare_item(run, index)
        if tracer is not None:
            tracer.item, tracer.active = index, True
        started = time.perf_counter()
        try:
            with run.span(layers.ITEM_SPAN):
                ids, bad, size = workload.run_item(run, index)
        except Exception as exc:  # the program failed this item; record it and go on
            print(f"item {index} failed: {exc!r}", file=sys.stderr)
            ids, bad, size = [], [index], 0
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False
        done += ids
        failed += bad
        written += size
        item_seconds.append(elapsed)
        index += 1
        total = sum(item_seconds)
        if total + total / len(item_seconds) > seconds:
            return done, failed, item_seconds, written


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: returns (result object, record)."""
    if not (SRC / "voxsynth" / "__init__.py").is_file():
        raise FileNotFoundError(f"no voxsynth sources under {SRC}")
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        record["machine"] = probes.machine_record()
        interp_before = probes.interp_probe_s(seed)
        run = Run(seed=seed, work=work, nproc=probes.nproc())
        run.vs, run.cli = _import_voxsynth()
        workload.prepare(run)
        setup = _timed_setup(run, workload)

        if trace:
            run.tracer = Tracer(work)
            layers.install(run.tracer)
        done, failed, item_seconds, written = _timed_items(run, workload, seconds)
        peak_mb = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
        if trace:
            run.tracer.uninstall()
            run.tracer.merge_worker_dumps()
        interp_after = probes.interp_probe_s(seed)

        checks = workload.checks(run, done)
        warp_err = probes.warp_error_max_vox(run.vs)
        fit_loglik = probes.fit_loglik_per_voxel(run.vs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(done) + len(failed) + len(checks)
    n_failed = len(failed) + sum(not ok for _, ok in checks)
    throughput = len(done) / sum(item_seconds)
    end_to_end = {
        "throughput_per_s": throughput,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "output_mb_per_item": written / 1e6 / max(len(done), 1),
        "ok_ratio": (attempted - n_failed) / attempted,
        "warp_err_max_vox": warp_err,
        "fit_loglik_per_voxel": fit_loglik,
    }
    if trace:
        values = layers.layer_metrics(run.tracer, done, throughput, peak_mb)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in layers.LAYER_METRICS}
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u} for n, u, _ in END_TO_END}
    for metric in metrics:
        check_metric_name(metric)

    record.update(
        probe_interp_s={"before": interp_before, "after": interp_after},
        warp_probe={"grid": probes.WARP_GRID, "seeds": list(probes.WARP_SEEDS),
                    "stride": probes.WARP_STRIDE, "euler_steps": probes.WARP_EULER_STEPS},
        fit_probe={"seed": probes.FIT_SEED, "crop": probes.FIT_CROP, "phantom": probes.FIT_PHANTOM},
        items=len(done) + len(failed),
        item_s=timing_summary(item_seconds),
        item_seconds=item_seconds,
        setup_runs_s=setup,
        end_to_end=end_to_end,
        failed_checks=[label for label, ok in checks if not ok],
        checks=len(checks),
    )
    result = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    return result, record


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process, one
    after another; prints the end-to-end table and the tracing overhead."""
    ok = True
    for name in WORKLOADS:
        outputs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN_SCRIPT), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            outputs[trace] = (json.loads(lines[-2].removeprefix("record: ")), json.loads(lines[-1]))
        record, plain = outputs[0]
        _, traced = outputs[1]
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {name}: {WORKLOADS[name].why}")
        print(f"   {record['items']} items, item time {record['item_s']}, "
              f"{plain['attempted']} attempted, {plain['failed']} failed")
        for metric, value in plain["metrics"].items():
            print(f"   {metric:24s} {value['value']:12.6g} {value['unit']}")
        untraced = plain["metrics"]["throughput_per_s"]["value"]
        with_trace = traced["metrics"]["trace.throughput_per_s"]["value"]
        wrappers = traced["metrics"]["trace.overhead_s_per_item"]["value"]
        print(f"   tracing overhead         {untraced - with_trace:12.6g} 1/s "
              f"({(untraced - with_trace) / untraced:+.1%} of untraced; wrappers cost {wrappers:.2g} s per item)")
        for share in ("deform.integrate_svf.share", "metrics.evaluate_volumes.share"):
            value = traced["metrics"][share]["value"]
            if value:
                print(f"   {share:24s} {value:12.6g} of an item")
        print(f"   per-layer: {json.dumps({k: round(v['value'], 6) for k, v in traced['metrics'].items() if v['value']})}")
        print(f"   machine: {json.dumps(record['machine'])}, probe_interp_s {record['probe_interp_s']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="Run a voxsynth benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot run against this checkout: {exc}", file=sys.stderr)
        return 2
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0

