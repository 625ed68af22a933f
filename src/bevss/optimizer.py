"""Direct optimization of BEV motion fields.

Instead of training a network, the per-cell fields for all predicted
offsets are fitted jointly by gradient descent on the total
self-supervised loss, which shows that the supervision signals alone
recover the true motion.
"""

import time
from dataclasses import dataclass

import numpy as np

from .grid import BevMotionField, FrameSet, PointFlowSet, cell_indices, gather_flows
from .losses import LossValue, LossWeights, masked_chamfer, rigidity, temporal_consistency, total
from .masks import DYNAMIC, MaskThresholds, StaticDynamicMask, build_mask
from .pieces import PieceParams, build_pieces
from .scene import SceneBundle

LR_DECAY = 0.5  # learning-rate factor applied every LR_DECAY_EVERY iterations
LR_DECAY_EVERY = 100


class DivergenceError(RuntimeError):
    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class OptimConfig:
    max_iters: int = 500
    learning_rate: float = 0.05  # meters per step
    convergence_tol: float = 1e-5  # relative loss change over 10 iterations
    frame_set: FrameSet = FrameSet()
    weights: LossWeights = LossWeights()
    use_mask: bool = True  # False = plain Chamfer on the full clouds

    def __post_init__(self):
        if self.max_iters < 1 or self.learning_rate <= 0:
            raise ValueError("need positive iteration count and learning rate")


@dataclass
class OptimReport:
    iterations: int
    trajectory: list  # one dict per iteration: total/mc/pr/tc
    fields: dict  # t -> BevMotionField
    wall_time_s: float
    converged: bool


def prepare_supervision(
    bundle: SceneBundle,
    thr: MaskThresholds = MaskThresholds(),
    piece_params: PieceParams = PieceParams(),
) -> SceneBundle:
    """Fill in pseudo masks for every frame and rigid pieces for frame 0."""
    for t in bundle.mask_frames:
        if t not in bundle.pseudo_masks:
            bundle.pseudo_masks[t] = build_mask(
                bundle.clouds[t], bundle.frame_flows(t), bundle.cam_pair(t), thr
            )
    if bundle.pieces is None:
        cams0 = [bundle.cameras[(k, 0)] for k in bundle.camera_ids]
        bundle.pieces = build_pieces(
            bundle.clouds[0], bundle.frame_flows(0), cams0, piece_params, bundle.grid
        )
    return bundle


def _all_dynamic_masks(bundle: SceneBundle) -> dict:
    return {
        t: StaticDynamicMask(t, np.full(len(bundle.clouds[t]), DYNAMIC, dtype=np.uint8))
        for t in bundle.mask_frames
    }


def field_loss_and_gradients(bundle: SceneBundle, fields: dict, cfg: OptimConfig):
    """Total loss plus analytic per-cell gradients (sum over cell points).

    fields maps each offset to a (cells_x, cells_y, 2) array. Cells with
    no frame-0 points get zero gradient; out-of-grid points carry zero
    flow and contribute none.
    """
    cloud0 = bundle.clouds[0]
    idx, valid = cell_indices(cloud0.points, bundle.grid)
    offsets = list(cfg.frame_set.offsets)

    flows = {t: PointFlowSet(time_offset=t, flows=gather_flows(fields[t], idx, valid)) for t in offsets}

    masks = dict(bundle.pseudo_masks) if cfg.use_mask else _all_dynamic_masks(bundle)
    w = cfg.weights
    mc = masked_chamfer(bundle.clouds, masks, flows, with_grad=True)
    if w.lambda_pr > 0:
        pr = rigidity(bundle.pieces, flows, with_grad=True)
    else:
        pr = LossValue(0.0, grad={})
    if w.lambda_tc > 0:
        tc = temporal_consistency(flows, cfg.frame_set, with_grad=True)
    else:
        tc = LossValue(0.0, grad={})
    tot = total(mc, pr, tc, w)

    cell_grads = {}
    for t in offsets:
        g = np.zeros_like(fields[t])
        gp = tot.grad.get(t)
        if gp is not None:
            np.add.at(g, (idx[valid, 0], idx[valid, 1]), gp[valid, :2])
        cell_grads[t] = g
    components = {"total": tot.value, "mc": mc.value, "pr": pr.value, "tc": tc.value}
    return components, cell_grads


def optimize(bundle: SceneBundle, cfg: OptimConfig):
    """Fit one BevMotionField per predicted offset; returns (fields, report).

    Fields start at zero (the static prior); each step scatter-averages
    the per-point flow gradients into cells and descends with a decaying
    learning rate.
    """
    for t in cfg.frame_set.offsets:
        if t not in bundle.clouds:
            raise ValueError(f"missing point cloud for offset {t}")
    if cfg.use_mask:
        for t in sorted(set(cfg.frame_set.offsets) | {0}):
            if t not in bundle.pseudo_masks:
                raise ValueError(f"missing pseudo mask for frame {t}")
    if cfg.weights.lambda_pr > 0 and bundle.pieces is None:
        raise ValueError("missing rigid pieces")

    start = time.perf_counter()
    spec = bundle.grid
    cloud0 = bundle.clouds[0]
    idx, valid = cell_indices(cloud0.points, spec)
    counts = np.zeros((spec.cells_x, spec.cells_y))
    np.add.at(counts, (idx[valid, 0], idx[valid, 1]), 1.0)
    denom = np.maximum(counts, 1.0)[:, :, None]

    fields = {t: np.zeros((spec.cells_x, spec.cells_y, 2)) for t in cfg.frame_set.offsets}
    lr = cfg.learning_rate
    trajectory = []
    initial = None
    converged = False

    for it in range(cfg.max_iters):
        if it > 0 and it % LR_DECAY_EVERY == 0:
            lr *= LR_DECAY
        components, cell_grads = field_loss_and_gradients(bundle, fields, cfg)
        trajectory.append({"iter": it, **components})
        loss = components["total"]
        if initial is None:
            initial = loss
        if initial > 0 and loss > 10.0 * initial:
            report = OptimReport(it + 1, trajectory, _wrap(fields, spec), time.perf_counter() - start, False)
            raise DivergenceError(f"loss diverged: {loss:.6g} > 10x initial {initial:.6g}", report)
        if it >= 10:
            past = trajectory[-11]["total"]
            if abs(past - loss) <= cfg.convergence_tol * max(abs(past), 1e-12):
                converged = True
                break
        for t in fields:
            fields[t] -= lr * cell_grads[t] / denom

    report = OptimReport(
        iterations=len(trajectory),
        trajectory=trajectory,
        fields=_wrap(fields, spec),
        wall_time_s=time.perf_counter() - start,
        converged=converged,
    )
    return report.fields, report


def _wrap(fields: dict, spec) -> dict:
    return {t: BevMotionField(spec=spec, time_offset=t, values=v.copy()) for t, v in fields.items()}
