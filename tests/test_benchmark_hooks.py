"""The package as the benchmark in `perfbench/` sees it: the values of its
accuracy probes, and that its traced run's wrappers still fit the functions
they wrap."""

import voxsynth
from perfbench import layers, probes
from perfbench.spans import Tracer, is_traced
from voxsynth import cli, pipeline
from voxsynth.config import GeneratorConfig
from voxsynth.nifti import write_nifti
from voxsynth.phantom import demo_phantom


def test_accuracy_probes_read_their_recorded_values():
    # recorded by the benchmark after squaring moved to float32; a change to
    # integrate_svf or em_fit_1d that moves either value must say so
    assert probes.warp_error_max_vox(voxsynth) == 0.6079832250356461
    assert probes.fit_loglik_per_voxel(voxsynth) == 1.523622863759315


def test_traced_wrappers_record_deform_and_em(tmp_path):
    tracer = Tracer(tmp_path)
    layers.install(tracer)
    tracer.active = True
    try:
        cfg = GeneratorConfig(seed=3, crop_size=24)
        pair = pipeline.generate_sample([demo_phantom(32)], cfg, 0)
        write_nifti(pair.image, tmp_path / "image.nii")
        write_nifti(pair.target, tmp_path / "target.nii")
        code = cli.dispatch([
            "--quiet", "enhance-labels", "--image", str(tmp_path / "image.nii"),
            "--labels", str(tmp_path / "target.nii"), "--out", str(tmp_path / "sub.nii"),
            "--map", str(tmp_path / "sub.csv"), "--bg-classes", "3", "--seed", "0",
        ])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert code == cli.EXIT_OK
    spans = {s.name for s in tracer.spans}
    assert {"clustering.em_fit_1d", "deform.integrate_svf"} <= spans
    em_iters = [v for name, _, v in tracer.counts if name == "clustering.em_iters"]
    assert em_iters and all(v >= 0 for v in em_iters)
    assert not is_traced(voxsynth.clustering.em_fit_1d) and not is_traced(pipeline.integrate_svf)


def test_traced_wrappers_record_postprocess_and_evaluate(tmp_path):
    gt = demo_phantom(24)
    pred = gt.data.copy()
    pred[0, 0, 0] = pred[12, 12, 12]  # an island for largest_cc to remove
    write_nifti(gt, tmp_path / "gt.nii")
    write_nifti(gt.with_data(pred), tmp_path / "pred.nii")
    tracer = Tracer(tmp_path)
    layers.install(tracer)
    tracer.active = True
    try:
        codes = [
            cli.dispatch(["--quiet", "postprocess", "--in", str(tmp_path / "pred.nii"),
                          "--out", str(tmp_path / "clean.nii")]),
            cli.dispatch(["--quiet", "evaluate", "--pred", str(tmp_path / "clean.nii"),
                          "--gt", str(tmp_path / "gt.nii"), "--out", str(tmp_path / "metrics.csv")]),
        ]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert codes == [cli.EXIT_OK, cli.EXIT_OK]
    spans = {s.name for s in tracer.spans}
    layer_names = {f"metrics.{name}" for name in ("largest_cc", "fill_holes", "evaluate_volumes", "sd95")}
    assert layer_names <= spans
    sd95_calls = [v for name, _, v in tracer.counts if name == "metrics.sd95_calls"]
    assert sum(sd95_calls) > 0
    assert not any(is_traced(getattr(voxsynth.metrics, name.split(".")[1])) for name in layer_names)
