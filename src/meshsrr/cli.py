"""Command-line pipeline driver.

Subcommands:
  run       render/degrade/reconstruct an experiment from a config or preset
  metrics   score one image directory against a reference directory
  resample  convert between mesh value files and uniform-grid images
  flow      register a pair of grid images and dump the flow field

Exit codes: 0 success, 2 configuration error (also a run too large for
memory), 3 numerical divergence, 4 file or format error. A warning raised
as an error (-W error) exits 2 from run, else 4. run writes OUT/MODE.partial,
renamed OUT/MODE once complete; a full one of either exits 4 before any mode.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import (ExperimentConfig, PRESET_NAMES, default_config_text,
                     parse_config, parse_sets, preset)
from .errors import ConfigError, DivergenceError, FileFormatError, MeshError
from .experiment import artifact_dirs, run_experiment
from .fileio import (read_fem_image, read_grid_image, read_mesh, write_flow,
                     write_pgm16, write_values)
from .flow import FlowParams, horn_schunck
from .mesh import build_pixel_assignment, downsample, upsample
from .metrics import THRESHOLD_FRACTION, evaluate_sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mesh-srr",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("-c", "--config", help="configuration file (key = value sections)")
    run.add_argument("--preset", choices=PRESET_NAMES,
                     help="start from a named scenario instead of the defaults")
    run.add_argument("-o", "--output", help="artifact directory (overrides the config)")
    run.add_argument("--motion", choices=("both", "known", "estimated"), default="both",
                     help="which motion variants to run (default: both)")
    run.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                     help="override a single config value; repeatable")
    run.add_argument("--print-defaults", action="store_true",
                     help="print the documented default configuration and exit")

    met = sub.add_parser("metrics", help="compare two image sets")
    met.add_argument("--reference", required=True, help="directory of reference .pgm images")
    met.add_argument("--candidate", required=True, help="directory of candidate .pgm images")
    met.add_argument("--fraction", type=float, default=THRESHOLD_FRACTION,
                     help="binarization threshold as a fraction of each image maximum")
    met.add_argument("-o", "--output", help="write the CSV here instead of stdout")

    res = sub.add_parser("resample", help="convert between mesh values and grid images")
    res.add_argument("direction", choices=("up", "down"))
    res.add_argument("--mesh", required=True, help="mesh file (FEMESH 1)")
    res.add_argument("--values", help="element value file (up direction)")
    res.add_argument("--image", help="grid image file (down direction)")
    res.add_argument("--grid", type=int, help="grid side for the up direction")
    res.add_argument("-o", "--output", required=True)

    flw = sub.add_parser("flow", help="register a pair of grid images")
    flw.add_argument("--target", required=True,
                     help="image whose geometry the flow maps onto")
    flw.add_argument("--source", required=True,
                     help="image that warping by the flow aligns to the target")
    flw.add_argument("--lam", type=float, default=FlowParams().lam)
    flw.add_argument("--levels", type=int, default=FlowParams().pyramid_levels)
    flw.add_argument("--spacing", type=float, default=FlowParams().pyramid_spacing)
    flw.add_argument("--iterations", type=int, default=FlowParams().iterations_per_level,
                     help="most conjugate-gradient iterations per warp; a pair "
                          "stops earlier once its relative residual is within 1e-3")
    flw.add_argument("--warps", type=int, default=FlowParams().warps_per_level)
    flw.add_argument("-o", "--output", required=True)
    return parser


def _load_run_config(args) -> ExperimentConfig:
    base = preset(args.preset) if args.preset else ExperimentConfig()
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{args.config}: {exc}") from exc
        base = parse_config(text, base=base)
    return parse_sets(args.set, base)


def _cmd_run(args) -> int:
    if args.print_defaults:
        sys.stdout.write(default_config_text())
        return 0
    cfg = _load_run_config(args)
    root = args.output or cfg.output_dir
    labels = ("estimated", "known") if args.motion == "both" else (args.motion,)
    outs = {label: str(Path(root) / label) if root else "" for label in labels}
    for out in filter(None, outs.values()):  # refuse the run before any mode runs
        artifact_dirs(out)
    for label, out in outs.items():
        result = run_experiment(replace(cfg, known_motion=label == "known", output_dir=out))
        print(f"[{label} motion] frames={cfg.scene.frames} grid={cfg.grid} "
              f"elapsed={result.elapsed_seconds:.1f}s")
        print("  time: " + " ".join(f"{stage}={s:.2f}s"
                                    for stage, s in result.stage_seconds.items()))
        print(f"  LR : overlap={result.lr_metrics.avg_overlap:.4f} "
              f"hausdorff={result.lr_metrics.avg_hausdorff:.4f} "
              f"masd={result.lr_metrics.avg_masd:.5f}")
        print(f"  SRR: overlap={result.srr_metrics.avg_overlap:.4f} "
              f"hausdorff={result.srr_metrics.avg_hausdorff:.4f} "
              f"masd={result.srr_metrics.avg_masd:.5f}")
        if out:
            print(f"  artifacts: {out}")
    return 0


def _cmd_metrics(args) -> int:
    if not 0.0 < args.fraction <= 1.0:
        raise ConfigError(f"--fraction must be in (0, 1], got {args.fraction}")
    ref_dir = Path(args.reference)
    cand_dir = Path(args.candidate)
    refs = sorted(ref_dir.glob("*.pgm"))
    cands = sorted(cand_dir.glob("*.pgm"))
    if not refs:
        raise FileFormatError(f"no .pgm images under {ref_dir}")
    if len(refs) != len(cands):
        raise FileFormatError(
            f"image counts differ: {len(refs)} reference vs {len(cands)} candidate")
    truths = [read_grid_image(p) for p in refs]
    estimates = [read_grid_image(p) for p in cands]
    try:
        report = evaluate_sequence(truths, estimates, fraction=args.fraction)
    except ValueError as exc:  # mismatched grids or an empty binarized mask
        raise FileFormatError(f"{ref_dir} vs {cand_dir}: {exc}") from exc
    if args.output:
        Path(args.output).write_text(report.to_csv())
    else:
        sys.stdout.write(report.to_csv())
    return 0


def _cmd_resample(args) -> int:
    mesh = read_mesh(args.mesh)
    if args.direction == "up":
        if not args.values or not args.grid or args.grid < 1:
            raise ConfigError("resample up needs --values and a positive --grid")
        img = read_fem_image(mesh, args.values)
        width = height = args.grid
    else:
        if not args.image:
            raise ConfigError("resample down needs --image")
        img = read_grid_image(args.image)
        width, height = img.width, img.height
    try:
        assignment = build_pixel_assignment(mesh, width, height)
    except MeshError as exc:  # overlapping elements
        raise FileFormatError(f"{args.mesh}: {exc}") from exc
    if args.direction == "up":
        write_pgm16(upsample(img, assignment), args.output)
        return 0
    try:
        values = downsample(img, assignment).values
    except MeshError as exc:  # element sums beyond double precision
        raise FileFormatError(f"{args.image}: {exc}") from exc
    write_values(values, args.output)
    return 0


def _cmd_flow(args) -> int:
    try:
        params = FlowParams(lam=args.lam, pyramid_levels=args.levels,
                            pyramid_spacing=args.spacing,
                            iterations_per_level=args.iterations,
                            warps_per_level=args.warps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    target = read_grid_image(args.target)
    source = read_grid_image(args.source)
    try:
        flow = horn_schunck(target, source, params)
    except ValueError as exc:  # mismatched or too small images
        raise FileFormatError(f"{args.source}: {exc}") from exc
    write_flow(flow, args.output)
    return 0


def _describe(exc: Exception) -> str:
    """The message followed by any notes added on the way up (e.g. the frame)."""
    return "; ".join([str(exc), *getattr(exc, "__notes__", ())])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "metrics": _cmd_metrics,
                "resample": _cmd_resample, "flow": _cmd_flow}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {_describe(exc)}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes that numpy refuses, such as a huge grid or frame count
        print(f"configuration error: too large for memory: {_describe(exc)}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {_describe(exc)}", file=sys.stderr)
        return 3
    except (FileFormatError, OSError) as exc:
        print(f"i/o error: {_describe(exc)}", file=sys.stderr)
        return 4
    except Warning as exc:  # about the run's configuration, or else an input file
        config = args.command == "run"
        print(f"{'configuration' if config else 'i/o'} error: {_describe(exc)}", file=sys.stderr)
        return 2 if config else 4


if __name__ == "__main__":
    sys.exit(main())
