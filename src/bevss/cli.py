"""Command-line entry point.

Subcommands: synth, labels, loss, optimize, eval, gradcheck, render.
All numeric text output uses 9 significant digits so golden-file tests
are stable across platforms.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import evaluation, fileio, gradcheck, synth
from .fileio import _fmt
from .grid import FrameSet, cell_indices
from .losses import LossWeights
from .masks import DYNAMIC, STATIC, MaskThresholds
from .optimizer import OptimConfig, cell_space, field_loss_and_gradients, optimize, prepare_supervision
from .pieces import PieceParams, oversegment


def _parse_frames(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _add_scene_arg(p):
    p.add_argument("--scene", required=True, help="scene manifest (file or directory)")


def _weights(args) -> LossWeights:
    return LossWeights(args.lambda_mc, args.lambda_pr, args.lambda_tc)


def _add_no_mask_arg(p):
    p.add_argument("--no-mask", action="store_true", help="plain Chamfer on full clouds")


def _add_lambda_args(p):
    w = LossWeights()
    p.add_argument("--lambda-mc", type=float, default=w.lambda_mc)
    p.add_argument("--lambda-pr", type=float, default=w.lambda_pr)
    p.add_argument("--lambda-tc", type=float, default=w.lambda_tc)


def _add_label_args(p):
    thr, params = MaskThresholds(), PieceParams()
    p.add_argument("--tau2d", type=float, default=thr.tau_2d)
    p.add_argument("--tau3d", type=float, default=thr.tau_3d)
    p.add_argument("--ground-z", type=float, default=thr.ground_z)
    p.add_argument("--delta-d", type=float, default=params.delta_d)


def _problem(args, **optim):
    """The scene of args with its stored labels (the default ones if it
    has none) and the OptimConfig of the loss options."""
    bundle = fileio.load_scene(args.scene)
    cfg = OptimConfig(weights=_weights(args), use_mask=not args.no_mask, **optim)
    return prepare_supervision(bundle), cfg


def cmd_synth(args) -> int:
    spec = synth.preset(args.preset, seed=args.seed)
    if args.frames:
        spec = dataclasses.replace(spec, frame_set=FrameSet(offsets=_parse_frames(args.frames)))
    bundle = synth.generate(spec)
    path = fileio.save_scene(bundle, args.out)
    print(path)
    return 0


def cmd_labels(args) -> int:
    bundle = fileio.load_scene(args.scene)
    bundle.pseudo_masks.clear()
    bundle.pieces = None
    thr = MaskThresholds(args.tau2d, args.tau3d, args.ground_z)
    prepare_supervision(bundle, thr, PieceParams(delta_d=args.delta_d))
    out = args.out or (args.scene if os.path.isdir(args.scene) else os.path.dirname(args.scene))
    fileio.save_scene(bundle, out)
    for t in bundle.mask_frames:
        status = bundle.pseudo_masks[t].status
        print(
            f"frame {t}: static {int((status == STATIC).sum())} "
            f"dynamic {int((status == DYNAMIC).sum())} "
            f"unknown {int((status > DYNAMIC).sum())}"
        )
    print(f"pieces: {bundle.pieces.piece_count}")
    return 0


def _saved_objective(bundle, cfg: OptimConfig, pred_dir: str) -> dict:
    """Loss components of cfg's objective at the fields saved in pred_dir."""
    space = cell_space(bundle, cfg)
    fields = {}
    for t in bundle.frame_set.offsets:  # only the occupied cells of each are kept
        fields[t] = fileio.load_field(fileio.field_path(pred_dir, t), bundle.grid).values[space.cells]
    components, _ = field_loss_and_gradients(space, fields)
    return components


def cmd_loss(args) -> int:
    bundle, cfg = _problem(args)
    components = _saved_objective(bundle, cfg, args.pred)
    for key in ("mc", "pr", "tc", "total"):
        print(f"{key}: {_fmt(components[key])}")
    return 0


def cmd_optimize(args) -> int:
    bundle, cfg = _problem(args, max_iters=args.iters, learning_rate=args.lr)
    fields, report = optimize(bundle, cfg)
    os.makedirs(args.out, exist_ok=True)
    for t, fld in fields.items():
        fileio.save_field(fileio.field_path(args.out, t), fld)
    # The loss at the saved fields, which hold float32: near a zero loss
    # their rounding moves it by more than 1e-6 of report.final.
    final = _saved_objective(bundle, cfg, args.out)
    lines = [
        f"iterations={report.iterations}",
        f"converged={str(report.converged).lower()}",
        f"stop_reason={report.stop_reason}",
        f"wall_time_s={_fmt(report.wall_time_s)}",
        f"loss_total={_fmt(final['total'])}",
        f"loss_mc={_fmt(final['mc'])}",
        f"loss_pr={_fmt(final['pr'])}",
        f"loss_tc={_fmt(final['tc'])}",
        f"use_mask={str(cfg.use_mask).lower()}",
        f"seeded_cells={report.seeded_cells}",
    ]
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_eval(args) -> int:
    bundle = fileio.load_scene(args.scene)
    horizon_frames = args.horizon / bundle.frame_set.frame_interval_s
    # Every offset is evaluated before the first line is printed, one
    # prediction field in memory at a time.
    gts = {t: _need(bundle.gt_fields, t, f"ground-truth field for offset {t}") for t in bundle.frame_set.offsets}
    reports = {}
    for t, gt in gts.items():
        pred = fileio.load_field(fileio.field_path(args.pred, t), bundle.grid)
        pred_h = evaluation.interpolate_flow(pred, horizon_frames)
        gt_h = evaluation.interpolate_flow(gt, horizon_frames)
        reports[t] = evaluation.evaluate(pred_h, gt_h, bundle.clouds[0], horizon_s=args.horizon)
    for t, rep in reports.items():
        print(f"offset {t}:")
        for name in evaluation.BUCKETS:
            b = rep.bucket(name)
            print(f"  {name}: mean {_fmt(b.mean)} median {_fmt(b.median)} cells {b.count}")
        if args.kv:
            for name in evaluation.BUCKETS:
                b = rep.bucket(name)
                print(f"eval.{t}.{name}.mean={_fmt(b.mean)}")
                print(f"eval.{t}.{name}.median={_fmt(b.median)}")
                print(f"eval.{t}.{name}.count={b.count}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(seed=args.seed, instances=args.instances)
    worst = 0.0
    for name, err in results.items():
        print(f"{name}: {_fmt(err)}")
        worst = max(worst, err)
    print(f"max: {_fmt(worst)}")
    # `not err < bound` also fails a NaN error.
    failed = [name for name, err in results.items() if not err < gradcheck.MAX_ERROR]
    if failed:
        names = ", ".join(failed)
        print(f"error: relative error not below {gradcheck.MAX_ERROR:g}: {names}", file=sys.stderr)
        return 1
    return 0


def _write_ppm(path: str, rgb: np.ndarray):
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.astype(np.uint8).tobytes())


def _label_colors(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(40, 255, size=(max(n, 1), 3))


def _need(table: dict, key, what: str):
    """table[key], or an error that names what the scene lacks."""
    if key not in table:
        raise ValueError(f"the scene has no {what}")
    return table[key]


_RUN_LABELS = "; run `bevss labels` first"


def cmd_render(args) -> int:
    bundle = fileio.load_scene(args.scene)
    spec = bundle.grid
    if args.what == "field":
        if args.pred:
            fld = fileio.load_field(fileio.field_path(args.pred, args.t), spec)
        else:
            fld = _need(bundle.gt_fields, args.t, f"field for offset {args.t}")
        mag = np.linalg.norm(fld.values, axis=2)
        peak = max(mag.max(), 1e-9)
        rgb = np.zeros((spec.cells_y, spec.cells_x, 3))
        rgb[:, :, 0] = np.abs(fld.values[:, :, 0]).T / peak * 255
        rgb[:, :, 1] = np.abs(fld.values[:, :, 1]).T / peak * 255
        rgb[:, :, 2] = mag.T / peak * 128
        _write_ppm(args.out, rgb[::-1])
    elif args.what in ("mask", "pieces"):
        t = args.t if args.what == "mask" else 0
        cloud = _need(bundle.clouds, t, f"point cloud for frame {t}")
        idx, valid = cell_indices(cloud.points, spec)
        rgb = np.zeros((spec.cells_x, spec.cells_y, 3), dtype=np.uint8)
        if args.what == "mask":
            status = _need(bundle.pseudo_masks, t, f"pseudo mask for frame {t}" + _RUN_LABELS).status
            palette = np.array([[90, 90, 90], [60, 220, 60], [60, 60, 220]])
            colors = palette[np.minimum(status, 2)]
        else:
            if bundle.pieces is None:
                raise ValueError("the scene has no rigid pieces" + _RUN_LABELS)
            labels = bundle.pieces.labels
            palette = _label_colors(bundle.pieces.piece_count)
            colors = np.where(labels[:, None] >= 0, palette[np.clip(labels, 0, None)], 30)
        rgb[idx[valid, 0], idx[valid, 1]] = colors[valid]
        _write_ppm(args.out, np.transpose(rgb, (1, 0, 2))[::-1])
    elif args.what == "seg2d":
        key = (args.camera, args.t)
        flow = _need(bundle.flow_images, key, f"flow image for camera {args.camera} at frame {args.t}")
        seg = oversegment(flow, PieceParams())
        palette = _label_colors(seg.count)
        _write_ppm(args.out, palette[seg.labels])
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bevss")
    parser.add_argument(
        "--debug", action="store_true", help="on an error, show the full traceback"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--preset", choices=synth.PRESETS, default="one-box")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", default=None, help='prediction offsets, e.g. "-1,1,2"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("labels", help="compute pseudo masks and rigid pieces")
    _add_scene_arg(p)
    _add_label_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("loss", help="print loss components for given fields")
    _add_scene_arg(p)
    _add_lambda_args(p)
    p.add_argument("--pred", required=True, help="directory with BEV1 field files")
    _add_no_mask_arg(p)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("optimize", help="fit BEV fields by gradient descent or an exact per-cell solve")
    defaults = OptimConfig()
    _add_scene_arg(p)
    _add_lambda_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=defaults.max_iters)
    p.add_argument(
        "--lr",
        type=float,
        default=defaults.learning_rate,
        help="descent step, meters; the plain Chamfer objective alone is solved and reads no rate",
    )
    _add_no_mask_arg(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="speed-bucketed errors against ground truth")
    _add_scene_arg(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--horizon", type=float, default=1.0, help="evaluation horizon, seconds")
    p.add_argument("--kv", action="store_true", help="also print key=value lines")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("render", help="portable-pixmap visualizations")
    _add_scene_arg(p)
    p.add_argument("--what", choices=("field", "mask", "pieces", "seg2d"), required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--camera", type=int, default=0)
    p.add_argument("--pred", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        if args.debug:
            raise
        # Send the unwritten rest to devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:  # argparse handles usage errors with code 2
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
