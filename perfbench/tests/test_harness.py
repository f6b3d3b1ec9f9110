"""Self-tests of the benchmark harness: span arithmetic, the reporting rules,
metric names, and that wrappers exist only during a traced run.

Run with `PYTHONPATH=src python -m pytest -q perfbench/tests`.
"""

import json
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers, probes
from perfbench.spans import (
    Span,
    Tracer,
    check_metric_name,
    is_traced,
    per_item_count,
    per_item_self,
    self_times,
    timing_summary,
)
from perfbench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("r", "root", 0.0, 10.0, None, 1),
        Span("a", "child", 1.0, 4.0, "r", 1),
        Span("b", "child", 3.0, 6.0, "r", 1),  # overlaps a: the union 1..6 counts once
        Span("g", "grandchild", 2.0, 3.0, "a", 1),
        Span("x", "root", 20.0, 21.5, None, 2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"r": 5.0, "a": 2.0, "b": 3.0, "g": 1.0, "x": 1.5})
    assert per_item_self(spans, "root", [1, 2, 3]) == pytest.approx([5.0, 1.5, 0.0])
    assert per_item_self(spans, "child", [1, 2]) == pytest.approx([5.0, 0.0])


def test_children_outside_the_parent_interval_are_clipped():
    spans = [Span("p", "parent", 0.0, 2.0, None, 0), Span("c", "child", 1.5, 3.0, "p", 0)]
    assert self_times(spans)["p"] == pytest.approx(1.5)


def test_counts_are_summed_per_item():
    counts = [("calls", 0, 1.0), ("calls", 0, 1.0), ("calls", 1, 1.0), ("other", 0, 7.0)]
    assert per_item_count(counts, "calls", [0, 1, 2]) == [2.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "n, tail",
    [(1, None), (10, None), (99, None), (100, "p90"), (199, "p90"), (200, "p95"), (1000, "p99"), (10000, "p99.9")],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, tail):
    summary = timing_summary(range(n))
    assert summary["n"] == n
    assert summary["median"] == pytest.approx((n - 1) / 2)
    tails = [key for key in summary if key.startswith("p")]
    assert tails == ([] if tail is None else [tail])
    if tail is not None:
        pct = float(tail[1:])
        assert summary[tail] == pytest.approx((n - 1) * pct / 100.0)


def test_metric_names_follow_the_pattern():
    for name, _, _ in harness.END_TO_END + layers.LAYER_METRICS:
        assert check_metric_name(name) == name
    for bad in ("", "a b", "-lead", ".lead", "x" * 65, "ratio%", "naïve"):
        with pytest.raises(ValueError):
            check_metric_name(bad)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["gen_pool", "tools"]
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.LAYER_METRICS
    ]


@pytest.fixture
def restore_voxsynth_modules():
    """A run re-imports voxsynth; put the modules other tests hold back."""
    saved = {k: v for k, v in sys.modules.items() if k == "voxsynth" or k.startswith("voxsynth.")}
    yield
    for name in [k for k in sys.modules if k == "voxsynth" or k.startswith("voxsynth.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_wrappers_are_installed_only_in_the_traced_run(monkeypatch, restore_voxsynth_modules):
    seen = {}

    class Probe(Workload):
        name = "probe"

        def run_item(self, run, index):
            pipeline = sys.modules["voxsynth.pipeline"]
            seen[run.tracer is not None] = all(
                is_traced(getattr(pipeline, attr)) for attr in ("integrate_svf", "generate_sample")
            )
            return [index], [], 1

    monkeypatch.setitem(WORKLOADS, "probe", Probe())
    monkeypatch.setattr(probes, "interp_probe_s", lambda seed=0: 0.1)
    monkeypatch.setattr(probes, "warp_error_max_vox", lambda vs: 0.5)
    monkeypatch.setattr(probes, "fit_loglik_per_voxel", lambda vs: 1.0)
    for trace in (False, True):
        result, _ = harness.run_workload("probe", seed=0, seconds=0.0, trace=trace)
        assert result["correct"] and result["attempted"] == 1
        assert not is_traced(sys.modules["voxsynth.pipeline"].integrate_svf)
        expected = layers.LAYER_METRICS if trace else harness.END_TO_END
        assert list(result["metrics"]) == [name for name, _, _ in expected]
    assert seen == {False: False, True: True}


def test_uninstall_restores_every_original(tmp_path):
    from voxsynth import metrics

    original = metrics.sd95
    tracer = Tracer(tmp_path)
    tracer.wrap(metrics, "sd95", "metrics.sd95")
    assert is_traced(metrics.sd95)
    tracer.uninstall()
    assert metrics.sd95 is original
