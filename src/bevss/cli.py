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


def _add_lambda_args(p):
    w = LossWeights()
    p.add_argument("--lambda-mc", type=float, default=w.lambda_mc)
    p.add_argument("--lambda-pr", type=float, default=w.lambda_pr)
    p.add_argument("--lambda-tc", type=float, default=w.lambda_tc)


# Label options by the MaskThresholds or PieceParams field they set.
_MASK_OPTS = {"--tau2d": "tau_2d", "--tau3d": "tau_3d", "--ground-z": "ground_z"}
_PIECE_OPTS = {"--delta-d": "delta_d"}


def _supervision(bundle, args):
    thr = _label_options(args, _MASK_OPTS, bool(bundle.pseudo_masks))
    params = _label_options(args, _PIECE_OPTS, bundle.pieces is not None)
    return prepare_supervision(bundle, MaskThresholds(**thr), PieceParams(**params))


def _label_options(args, opts, stored: bool) -> dict:
    """The options of `opts` given on the command line, keyed by field.

    Stored labels are used as they are, so an option that would only
    change them is an error instead of being silently ignored.
    """
    given = {}
    for flag, field in opts.items():
        value = getattr(args, field)
        if value is None:
            continue
        if stored:
            raise ValueError(
                f"{flag} has no effect on a scene that already has labels; "
                f"pass it to `bevss labels` instead"
            )
        given[field] = value
    return given


def _add_label_args(p):
    for flag, field in {**_MASK_OPTS, **_PIECE_OPTS}.items():
        p.add_argument(flag, type=float, default=None, dest=field)


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
    _supervision(bundle, args)
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


def _load_pred_fields(pred_dir: str, bundle):
    fields = {}
    for t in bundle.frame_set.offsets:
        fields[t] = fileio.load_field(fileio.field_path(pred_dir, t), bundle.grid)
    return fields


def cmd_loss(args) -> int:
    bundle = fileio.load_scene(args.scene)
    _supervision(bundle, args)
    space = cell_space(bundle, OptimConfig(frame_set=bundle.frame_set, weights=_weights(args)))
    fields = _load_pred_fields(args.pred, bundle)
    components, _ = field_loss_and_gradients(
        space, {t: fld.values[space.cells] for t, fld in fields.items()}
    )
    for key in ("mc", "pr", "tc", "total"):
        print(f"{key}: {_fmt(components[key])}")
    return 0


def cmd_optimize(args) -> int:
    bundle = fileio.load_scene(args.scene)
    _supervision(bundle, args)
    frame_set = bundle.frame_set
    if args.frames:
        frame_set = FrameSet(offsets=_parse_frames(args.frames), frame_interval_s=frame_set.frame_interval_s)
    cfg = OptimConfig(
        max_iters=args.iters,
        learning_rate=args.lr,
        frame_set=frame_set,
        weights=_weights(args),
        use_mask=not args.no_mask,
    )
    fields, report = optimize(bundle, cfg)
    os.makedirs(args.out, exist_ok=True)
    for t, fld in fields.items():
        fileio.save_field(fileio.field_path(args.out, t), fld)
    final = report.final
    lines = [
        f"iterations={report.iterations}",
        f"converged={str(report.converged).lower()}",
        f"stop_reason={report.stop_reason}",
        f"wall_time_s={_fmt(report.wall_time_s)}",
        f"loss_total={_fmt(final['total'])}",
        f"loss_mc={_fmt(final['mc'])}",
        f"loss_pr={_fmt(final['pr'])}",
        f"loss_tc={_fmt(final['tc'])}",
    ]
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_eval(args) -> int:
    bundle = fileio.load_scene(args.scene)
    horizon_frames = args.horizon / bundle.frame_set.frame_interval_s
    for t in bundle.frame_set.offsets:
        pred = fileio.load_field(fileio.field_path(args.pred, t), bundle.grid)
        gt = bundle.gt_fields[t]
        pred_h = evaluation.interpolate_flow(pred, horizon_frames)
        gt_h = evaluation.interpolate_flow(gt, horizon_frames)
        rep = evaluation.evaluate(pred_h, gt_h, bundle.clouds[0], horizon_s=args.horizon)
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
    return 0


def _write_ppm(path: str, rgb: np.ndarray):
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.astype(np.uint8).tobytes())


def _label_colors(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(40, 255, size=(max(n, 1), 3))


def cmd_render(args) -> int:
    bundle = fileio.load_scene(args.scene)
    spec = bundle.grid
    if args.what == "field":
        fld = bundle.gt_fields[args.t] if not args.pred else fileio.load_field(
            fileio.field_path(args.pred, args.t), spec
        )
        mag = np.linalg.norm(fld.values, axis=2)
        peak = max(mag.max(), 1e-9)
        rgb = np.zeros((spec.cells_y, spec.cells_x, 3))
        rgb[:, :, 0] = np.abs(fld.values[:, :, 0]).T / peak * 255
        rgb[:, :, 1] = np.abs(fld.values[:, :, 1]).T / peak * 255
        rgb[:, :, 2] = mag.T / peak * 128
        _write_ppm(args.out, rgb[::-1])
    elif args.what in ("mask", "pieces"):
        cloud = bundle.clouds[args.t if args.what == "mask" else 0]
        idx, valid = cell_indices(cloud.points, spec)
        rgb = np.zeros((spec.cells_x, spec.cells_y, 3), dtype=np.uint8)
        if args.what == "mask":
            status = bundle.pseudo_masks[args.t].status
            palette = np.array([[90, 90, 90], [60, 220, 60], [60, 60, 220]])
            colors = palette[np.minimum(status, 2)]
        else:
            labels = bundle.pieces.labels
            palette = _label_colors(bundle.pieces.piece_count)
            colors = np.where(labels[:, None] >= 0, palette[np.clip(labels, 0, None)], 30)
        rgb[idx[valid, 0], idx[valid, 1]] = colors[valid]
        _write_ppm(args.out, np.transpose(rgb, (1, 0, 2))[::-1])
    elif args.what == "seg2d":
        flow = bundle.flow_images[(args.camera, args.t)]
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
    _add_label_args(p)
    _add_lambda_args(p)
    p.add_argument("--pred", required=True, help="directory with BEV1 field files")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("optimize", help="fit BEV fields by gradient descent")
    defaults = OptimConfig()
    _add_scene_arg(p)
    _add_label_args(p)
    _add_lambda_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=defaults.max_iters)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--frames", default=None)
    p.add_argument("--no-mask", action="store_true", help="plain Chamfer on full clouds")
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
        return args.func(args)
    except Exception as exc:  # argparse handles usage errors with code 2
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
