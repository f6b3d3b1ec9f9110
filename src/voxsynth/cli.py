"""Command-line interface: generate, preprocess, postprocess, evaluate,
enhance-labels, and phantom subcommands.

Exit codes: 0 success, 1 usage error, 2 partial batch failure, 3 fatal error.
The environment variable ``VOXSYNTH_CONFIG`` supplies a default --config path.
"""

from __future__ import annotations

import argparse
import difflib
import logging
import os
import sys
from pathlib import Path

import numpy as np

# called through their modules, so that wrappers installed on the module
# attributes (perfbench's tracer) see the CLI's calls too
from . import clustering, config, metrics, nifti, phantom, pipeline, schema

logger = logging.getLogger("voxsynth")

CONFIG_ENV_VAR = "VOXSYNTH_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_FATAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="voxsynth", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    p = command("generate", "generate synthetic (image, target) pairs from label maps", _cmd_generate)
    p.add_argument("--config", help="generator config file (default: env or built-in priors)")
    p.add_argument("--maps", required=True, help="directory of .nii/.nii.gz label maps, or 'demo'")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="parallel workers (default: available cores)")

    p = command("preprocess", "resample a scan to the native grid and rescale to [0, 1]", _cmd_preprocess)
    p.add_argument("--in", dest="input", required=True, help="input scan")
    p.add_argument("--out", required=True, help="output scan")
    p.add_argument("--resolution", type=float, help="target isotropic spacing in mm")
    p.add_argument("--config", help="generator config file")

    p = command("postprocess", "keep largest components and fill holes in a segmentation", _cmd_postprocess)
    p.add_argument("--in", dest="input", required=True, help="input segmentation")
    p.add_argument("--schema", default="brain", help="label schema CSV or 'brain'")
    p.add_argument("--out", required=True, help="output segmentation")

    p = command("evaluate", "score a segmentation against a reference", _cmd_evaluate)
    p.add_argument("--pred", required=True, help="predicted segmentation")
    p.add_argument("--gt", required=True, help="reference segmentation")
    p.add_argument("--schema", default="brain", help="label schema CSV or 'brain'")
    p.add_argument("--out", required=True, help="output metrics table (CSV)")

    p = command("enhance-labels", "subdivide labels into intensity clusters", _cmd_enhance_labels)
    p.add_argument("--image", required=True, help="intensity image")
    p.add_argument("--labels", required=True, help="label map aligned with the image")
    p.add_argument("--out", required=True, help="output subdivided label map")
    p.add_argument("--map", dest="mapping", required=True, help="output sub-label/parent CSV")
    p.add_argument("--fg-classes", type=int, default=2, help="clusters per foreground label")
    p.add_argument("--bg-classes", type=int, help="background clusters (default: random 3..10)")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = command("phantom", "write the bundled demo label map", _cmd_phantom)
    p.add_argument("--out", required=True, help="output path (.nii or .nii.gz)")
    p.add_argument("--size", type=int, default=64, help="cubic size in voxels")

    return parser, sub.choices


def _load_cfg(path_arg):
    path = path_arg or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return config.load_config(path)
    cfg = config.GeneratorConfig()
    logger.info("resolved config: %s", cfg.as_dict())
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load_cfg(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    if args.maps == "demo":
        maps, map_ids = [phantom.demo_phantom()], ["demo-phantom"]
    else:
        maps, map_ids = pipeline.load_maps_dir(args.maps)
    logger.info("generating %d samples from %d maps into %s", args.count, len(maps), args.out)
    result = pipeline.generate_batch(
        maps, cfg, args.count, args.out, workers=args.workers, map_ids=map_ids
    )
    logger.info(
        "batch done: %d written, %d skipped, %d failed",
        len(result.written) - len(result.skipped),
        len(result.skipped),
        len(result.failures),
    )
    return EXIT_OK if result.ok else EXIT_PARTIAL


def _cmd_preprocess(args) -> int:
    cfg = _load_cfg(args.config)
    if args.resolution is not None:
        cfg = cfg.with_overrides(hr_spacing=args.resolution)
    scan = nifti.read_nifti(args.input)
    nifti.write_nifti(pipeline.preprocess_for_inference(scan, cfg), args.out)
    logger.info("preprocessed %s -> %s at %.3g mm", args.input, args.out, cfg.hr_spacing)
    return EXIT_OK


def _cmd_postprocess(args) -> int:
    label_schema = schema.load_schema(args.schema)
    seg = nifti.read_nifti(args.input)
    nifti.write_nifti(metrics.postprocess_labels(seg, label_schema), args.out)
    logger.info("postprocessed %s -> %s", args.input, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    label_schema = schema.load_schema(args.schema)
    pred = nifti.read_nifti(args.pred)
    gt = nifti.read_nifti(args.gt)
    report = metrics.evaluate_volumes(pred, gt, label_schema)
    report.save(args.out)
    logger.info(
        "evaluated %d labels: mean dice %s, mean sd95 %s mm -> %s",
        len(report.rows),
        f"{report.mean('dice'):.4f}" if report.mean("dice") is not None else "n/a",
        f"{report.mean('sd95_mm'):.4f}" if report.mean("sd95_mm") is not None else "n/a",
        args.out,
    )
    return EXIT_OK


def _cmd_enhance_labels(args) -> int:
    image = nifti.read_nifti(args.image)
    labels = nifti.read_nifti(args.labels)
    rng = np.random.default_rng(args.seed)
    bg_range = (args.bg_classes, args.bg_classes) if args.bg_classes is not None else (3, 10)
    sub, mapping = clustering.subdivide_labels(
        image, labels, fg_k=args.fg_classes, bg_k_range=bg_range, rng=rng
    )
    nifti.write_nifti(sub, args.out)
    lines = ["sub_label,parent_label"]
    lines += [f"{s},{p}" for s, p in sorted(mapping.items())]
    Path(args.mapping).write_text("\n".join(lines) + "\n")
    logger.info("subdivided %d parents into %d sub-labels", len(set(mapping.values())), len(mapping))
    return EXIT_OK


def _cmd_phantom(args) -> int:
    nifti.write_nifti(phantom.demo_phantom(args.size), args.out)
    logger.info("wrote demo phantom (%d^3) to %s", args.size, args.out)
    return EXIT_OK


def _unknown_flag_error(argv, commands) -> str | None:
    """Usage message with the closest valid flag when an unknown one is passed.

    Checked before parsing, because argparse reports a missing required flag
    ahead of a misspelt one.
    """
    command = next((a for a in argv if a in commands), None)
    if command is None:
        return None
    valid = [
        flag
        for action in commands[command]._actions
        for flag in action.option_strings
        if flag.startswith("--")
    ]
    for token in argv[argv.index(command) + 1 :]:
        if token.startswith("--") and token.split("=", 1)[0] not in valid:
            flag = token.split("=", 1)[0]
            message = f"voxsynth {command}: unrecognized argument: {flag}"
            close = difflib.get_close_matches(flag, valid, n=1)
            if close:
                message += f" (did you mean {close[0]}?)"
            return message
    return None


def dispatch(argv) -> int:
    parser, commands = _build_parser()
    unknown = _unknown_flag_error(argv, commands)
    if unknown:
        print(unknown, file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    # basicConfig only acts on a process's first call; the level is set on every one
    logging.basicConfig(format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    logger.setLevel(logging.WARNING if args.quiet else logging.INFO)
    logging.captureWarnings(True)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except Exception as exc:
        logger.error("fatal: %s", exc)
        return EXIT_FATAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
