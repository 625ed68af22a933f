"""Direct optimization of BEV motion fields.

Instead of training a network, the per-cell fields for all predicted
offsets are fitted jointly by gradient descent on the total
self-supervised loss, which shows that the supervision signals alone
recover the true motion.

Every loss term sees a frame-0 point only through the flow of its BEV
cell, so the descent runs in cell space: the fields are (n_occupied, 2)
arrays over the cells that hold frame-0 points, and the losses are
evaluated once per group of points that share a cell (and a rigid piece),
weighted by the group's size. Only the fields handed back are dense.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import BevGridSpec, BevMotionField, FrameSet, PointCloud, PointFlowSet, cell_indices
from .losses import LossWeights, MaskedChamfer, Rigidity, TemporalConsistency
from .masks import DYNAMIC, STATIC, MaskThresholds, StaticDynamicMask, build_mask
from .pieces import PieceParams, RigidPieces, build_pieces
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
        if self.max_iters < 1 or not 0.0 < self.learning_rate < math.inf:
            raise ValueError("need positive iteration count and finite positive learning rate")
        if not 0.0 <= self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and non-negative")


@dataclass
class OptimReport:
    iterations: int
    trajectory: list  # one dict per iteration: iter/total/mc/pr/tc/lr/grad_norm
    final: dict  # total/mc/pr/tc at the returned fields
    fields: dict  # t -> BevMotionField
    wall_time_s: float
    converged: bool
    stop_reason: str  # "tol", "max_iters" or "diverged"


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


@dataclass(frozen=True)
class CellSpace:
    """The objective restated over the occupied cells of frame 0.

    A unit is one pseudo-dynamic frame-0 point (the Chamfer term needs its
    position), or one group of the other frame-0 points that share a cell
    and, when the rigidity term is on, a piece label. Each unit carries its
    group size as its loss multiplicity and reads its flow from one row of
    a padded field: the n_occupied cell rows, then a pinned zero row for
    out-of-grid points. The loss terms are set up once over the units; a
    term whose weight is zero is None.
    """

    spec: BevGridSpec
    cells: tuple  # (ix, iy) arrays of the n_occupied cells
    counts: np.ndarray  # (n_occupied, 2) frame-0 points per cell, per flow component
    rows: np.ndarray  # (U,) padded-field row of each unit
    flat: np.ndarray  # (U, 3) index of each unit's flow in [field.ravel(), 0.0]
    weights: LossWeights
    mc: MaskedChamfer
    pr: Rigidity | None
    tc: TemporalConsistency | None

    def dense(self, compact: np.ndarray) -> np.ndarray:
        out = np.zeros((self.spec.cells_x, self.spec.cells_y, 2))
        out[self.cells] = compact
        return out


def cell_space(bundle: SceneBundle, cfg: OptimConfig) -> CellSpace:
    """Check the bundle against cfg and build the cell-space problem."""
    offsets = cfg.frame_set.offsets
    for t in offsets:
        if t not in bundle.clouds:
            raise ValueError(f"missing point cloud for offset {t}")
    if cfg.use_mask:
        for t in (0, *offsets):
            if t not in bundle.pseudo_masks:
                raise ValueError(f"missing pseudo mask for frame {t}")
            if len(bundle.pseudo_masks[t]) != len(bundle.clouds[t]):
                raise ValueError(f"cloud and mask lengths differ at frame {t}")
    w = cfg.weights
    use_pieces = w.lambda_pr > 0
    if use_pieces and bundle.pieces is None:
        raise ValueError("missing rigid pieces")

    def dynamic(t):
        if cfg.use_mask:
            return bundle.pseudo_masks[t].status == DYNAMIC
        return np.ones(len(bundle.clouds[t]), dtype=bool)

    spec = bundle.grid
    points0 = bundle.clouds[0].points
    n0 = len(points0)
    idx, valid = cell_indices(points0, spec)
    keys, inverse, counts = np.unique(
        idx[valid, 0] * spec.cells_y + idx[valid, 1], return_inverse=True, return_counts=True
    )
    n_occ = keys.size
    row = np.full(n0, n_occ, dtype=np.intp)
    row[valid] = inverse

    if use_pieces:
        if len(bundle.pieces) != n0:
            raise ValueError("pieces and frame 0 cloud lengths differ")
        labels, n_r = bundle.pieces.labels, bundle.pieces.piece_count
    else:
        labels, n_r = np.full(n0, -1, dtype=np.int32), 0
    dyn0 = dynamic(0)
    dyn, rest = np.flatnonzero(dyn0), np.flatnonzero(~dyn0)
    _, first, size = np.unique(
        row[rest] * (n_r + 1) + (labels[rest] + 1), return_index=True, return_counts=True
    )
    members = np.concatenate([dyn, rest[first]])
    m = np.concatenate([np.ones(dyn.size), size.astype(np.float64)])
    status = np.full(members.size, STATIC, dtype=np.uint8)
    status[: dyn.size] = DYNAMIC

    clouds = {0: PointCloud(0, points0[members])}
    masks = {0: StaticDynamicMask(0, status)}
    for t in offsets:
        target = bundle.clouds[t].points[dynamic(t)]
        clouds[t] = PointCloud(t, target)
        masks[t] = StaticDynamicMask(t, np.full(len(target), DYNAMIC, dtype=np.uint8))
    rows = row[members]
    # The planar flow of a unit in a cell is that cell's field row; the
    # vertical flow, and every component out of the grid, reads the 0.0.
    flat = np.where(rows[:, None] < n_occ, 2 * rows[:, None] + np.arange(3), 2 * n_occ)
    flat[:, 2] = 2 * n_occ
    return CellSpace(
        spec=spec,
        cells=(keys // spec.cells_y, keys % spec.cells_y),
        counts=np.repeat(counts.astype(np.float64)[:, None], 2, axis=1),
        rows=rows,
        flat=flat,
        weights=w,
        mc=MaskedChamfer(clouds, masks, offsets, m),
        pr=Rigidity(RigidPieces(0, labels[members], n_r), m) if use_pieces else None,
        tc=TemporalConsistency(cfg.frame_set, m.size, m) if w.lambda_tc > 0 else None,
    )


def field_loss_and_gradients(space: CellSpace, fields: dict):
    """Total loss plus analytic per-cell gradients (sum over cell points).

    fields maps each offset to an (n_occupied, 2) array over the cells of
    space, and the gradients come back in the same form. Out-of-grid
    points carry zero flow and contribute no gradient. The total is the
    weighted sum of the terms that are on; a term that is off reads 0.
    """
    n_occ = space.counts.shape[0]
    flows = {t: PointFlowSet(t, np.take(np.append(f, 0.0), space.flat)) for t, f in fields.items()}

    w = space.weights
    components = {"total": 0.0}
    grads = {}
    for name, lam, term in (
        ("mc", w.lambda_mc, space.mc),
        ("pr", w.lambda_pr, space.pr),
        ("tc", w.lambda_tc, space.tc),
    ):
        if term is None:
            components[name] = 0.0
            continue
        part = term(flows, with_grad=True)
        components[name] = part.value
        components["total"] += lam * part.value
        for t, g in part.grad.items():  # each term hands back fresh arrays
            g *= lam
            if t in grads:
                grads[t] += g
            else:
                grads[t] = g

    cell_grads = {}
    for t in fields:
        g = grads[t]
        cell_grads[t] = np.stack(
            [np.bincount(space.rows, weights=g[:, c], minlength=n_occ + 1)[:n_occ] for c in (0, 1)],
            axis=1,
        )
    return components, cell_grads


def optimize(bundle: SceneBundle, cfg: OptimConfig):
    """Fit one BevMotionField per predicted offset; returns (fields, report).

    Fields start at zero (the static prior); each step divides the summed
    per-point flow gradients of a cell by its point count and descends
    with a decaying learning rate. The report's stop_reason says whether
    the relative loss change fell below cfg.convergence_tol ("tol") or the
    iteration cap was reached ("max_iters"); a non-finite loss or gradient,
    or a loss above 10x the initial one, raises DivergenceError, whose
    report says "diverged". The report's final holds the loss components
    at the fields it returns: after "max_iters" the objective is evaluated
    once more, since the last update follows the last trajectory entry.
    """
    start = time.perf_counter()
    space = cell_space(bundle, cfg)
    n_occ = space.counts.shape[0]
    fields = {t: np.zeros((n_occ, 2)) for t in cfg.frame_set.offsets}
    lr = cfg.learning_rate
    trajectory = []
    initial = None
    stop_reason = "max_iters"

    for it in range(cfg.max_iters):
        if it > 0 and it % LR_DECAY_EVERY == 0:
            lr *= LR_DECAY
        components, cell_grads = field_loss_and_gradients(space, fields)
        grad_norm = math.sqrt(sum(float((g * g).sum()) for g in cell_grads.values()))
        trajectory.append({"iter": it, **components, "lr": lr, "grad_norm": grad_norm})
        loss = components["total"]
        if initial is None:
            initial = loss
        if not (math.isfinite(loss) and math.isfinite(grad_norm)):
            reason = f"loss {loss:.6g} or gradient norm {grad_norm:.6g} is not finite"
        elif initial > 0 and loss > 10.0 * initial:
            reason = f"loss diverged: {loss:.6g} > 10x initial {initial:.6g}"
        else:
            reason = None
        if reason is not None:
            wall = time.perf_counter() - start
            report = OptimReport(
                it + 1, trajectory, components, _wrap(fields, space), wall, False, "diverged"
            )
            raise DivergenceError(reason, report)
        if it >= 10:
            past = trajectory[-11]["total"]
            if abs(past - loss) <= cfg.convergence_tol * max(abs(past), 1e-12):
                stop_reason = "tol"
                break
        for t, g in cell_grads.items():
            g *= lr
            g /= space.counts
            fields[t] -= g
    if stop_reason == "max_iters":  # the last update follows the last entry
        components, _ = field_loss_and_gradients(space, fields)

    report = OptimReport(
        iterations=len(trajectory),
        trajectory=trajectory,
        final=components,
        fields=_wrap(fields, space),
        wall_time_s=time.perf_counter() - start,
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
    )
    return report.fields, report


def _wrap(fields: dict, space: CellSpace) -> dict:
    return {
        t: BevMotionField(spec=space.spec, time_offset=t, values=space.dense(v))
        for t, v in fields.items()
    }
