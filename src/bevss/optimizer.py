"""Direct optimization of BEV motion fields.

Instead of training a network, the per-cell fields for all predicted
offsets are fitted jointly on the total self-supervised loss, which
shows that the supervision signals alone recover the true motion: by
gradient descent, or, for the plain Chamfer objective, by an exact
per-cell solve between pair queries.

Every loss term sees a frame-0 point only through the flow of its BEV
cell, so the descent runs in cell space: the fields are (n_occupied, 2)
arrays over the cells that hold frame-0 points, and the losses are
evaluated once per frame-0 point on the flow of its cell. Only the fields
handed back are dense.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import BevGridSpec, BevMotionField, PointFlowSet, cell_keys
from .losses import LossWeights, MaskedChamfer, Rigidity, TemporalConsistency
from .masks import DYNAMIC, UNKNOWN, MaskThresholds, StaticDynamicMask, build_mask, lift_frame
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
    """How optimize fits the fields, and which objective it fits.

    max_iters caps the descent steps or the solve rounds. learning_rate
    and convergence_tol are read by the descent only: the plain Chamfer
    objective is solved exactly per cell and stops when its pairs repeat.
    """

    max_iters: int = 500
    learning_rate: float = 0.05  # meters per step
    convergence_tol: float = 1e-5  # relative loss change over 10 iterations
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
    trajectory: list  # one dict per iteration or round: iter/total/mc/pr/tc/lr/grad_norm
    final: dict  # total/mc/pr/tc at the returned fields
    fields: dict  # t -> BevMotionField
    wall_time_s: float
    converged: bool
    stop_reason: str  # "tol", "max_iters" or "diverged"
    seeded_cells: int  # cells whose fields started away from zero


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

    Each frame-0 point reads its flow from one row of a padded field: the
    n_occupied cell rows, then a pinned zero row for out-of-grid points.
    The loss terms are set up once on the bundle's frame-0 cloud, masks
    and pieces, one row per point; a term whose weight is zero is None,
    and so is the temporal term of a scene with one offset, whose value
    is then identically 0.
    """

    spec: BevGridSpec
    cells: tuple  # (ix, iy) arrays of the n_occupied cells
    counts: np.ndarray  # (n_occupied, 2) frame-0 points per cell, per flow component
    flat: np.ndarray  # (n0, 3) index of each point's flow in [field.ravel(), 0.0]
    weights: LossWeights
    mc: MaskedChamfer
    pr: Rigidity | None
    tc: TemporalConsistency | None

    def dense(self, compact: np.ndarray) -> np.ndarray:
        out = np.zeros((self.spec.cells_x, self.spec.cells_y, 2))
        out[self.cells] = compact
        return out


def cell_space(bundle: SceneBundle, cfg: OptimConfig) -> CellSpace:
    """Build the cell-space problem of cfg over the offsets of the bundle."""
    offsets = bundle.frame_set.offsets
    if cfg.use_mask:
        masks = bundle.pseudo_masks
    else:  # plain Chamfer: every point of every frame is dynamic
        masks = {t: StaticDynamicMask(t, np.full(len(c), DYNAMIC, np.uint8)) for t, c in bundle.clouds.items()}
    mc = MaskedChamfer(bundle.clouds, masks, offsets)  # checks clouds and masks, before the pieces
    w = cfg.weights
    use_pieces = w.lambda_pr > 0
    if use_pieces or cfg.use_mask:  # the seed of a masked config reads the pieces too
        if bundle.pieces is None:
            raise ValueError("missing rigid pieces")
        if len(bundle.pieces) != len(bundle.clouds[0]):
            raise ValueError("pieces and frame 0 cloud lengths differ")

    spec = bundle.grid
    points0 = bundle.clouds[0].points
    key, valid = cell_keys(points0, spec)
    keys, inverse, counts = np.unique(key[valid], return_inverse=True, return_counts=True)
    n_occ = keys.size
    # The planar flow of a point in a cell is that cell's field row; the
    # vertical flow, and every component out of the grid, reads the 0.0.
    flat = np.full((len(points0), 3), 2 * n_occ, dtype=np.intp)
    flat[valid, :2] = 2 * inverse[:, None] + np.arange(2)
    return CellSpace(
        spec=spec,
        cells=np.unravel_index(keys, (spec.cells_x, spec.cells_y)),
        counts=np.repeat(counts.astype(np.float64)[:, None], 2, axis=1),
        flat=flat,
        weights=w,
        mc=mc,
        pr=Rigidity(bundle.pieces) if use_pieces else None,
        tc=TemporalConsistency(bundle.frame_set) if w.lambda_tc > 0 and len(offsets) > 1 else None,
    )


def _point_flows(space: CellSpace, fields: dict) -> dict:
    """The PointFlowSet of each offset: every frame-0 point reads its cell's row."""
    return {t: PointFlowSet(t, np.take(np.append(f, 0.0), space.flat)) for t, f in fields.items()}


def field_loss_and_gradients(space: CellSpace, fields: dict, pairs: dict | None = None):
    """Total loss plus analytic per-cell gradients (sum over cell points).

    fields maps each offset to an (n_occupied, 2) array over the cells of
    space, and the gradients come back in the same form. Out-of-grid
    points carry zero flow and contribute no gradient. The total is the
    weighted sum of the terms that are on; a term that is off reads 0.
    pairs, from space.mc.pairs, holds the Chamfer pairs fixed; without
    them the Chamfer term takes the pairs at fields.
    """
    n_occ = space.counts.shape[0]
    flows = _point_flows(space, fields)

    w = space.weights
    components = {"total": 0.0}
    grads = {}
    for name, lam, term in (
        ("mc", w.lambda_mc, functools.partial(space.mc, pairs=pairs)),
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

    # The adjoint of the gather above: each point's gradient goes back to
    # the field entries it read; what reached the pinned 0.0 is dropped.
    at = space.flat.ravel()
    cell_grads = {
        t: np.bincount(at, grads[t].ravel(), 2 * n_occ + 1)[: 2 * n_occ].reshape(n_occ, 2)
        for t in fields
    }
    return components, cell_grads


def _group_median(group: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """(n, 2) column-wise medians of the rows of the (m, 2) array x in each
    group 0..n-1; NaN for a group with no row."""
    counts = np.bincount(group, minlength=n)
    start = np.cumsum(counts) - counts
    has = counts > 0
    lo, hi = (start + (counts - 1) // 2)[has], (start + counts // 2)[has]
    out = np.full((n, 2), np.nan)
    for c in range(2):
        s = x[np.lexsort((x[:, c], group)), c]
        out[has, c] = (s[lo] + s[hi]) / 2
    return out


def seed_velocity(bundle: SceneBundle, space: CellSpace) -> np.ndarray:
    """(n_occupied, 2) planar velocity, meters per frame, from which each
    cell of a masked descent starts: the camera flow of frame 0, lifted by
    lift_frame, pooled over rigid pieces and then over cells.

    A piece seeds only when more than half of its classified points are
    pseudo-dynamic; each of those points then takes the median lift of
    the piece's pseudo-dynamic points, leaving out lifts that failed. A
    cell takes the median over its seeded points. Every other cell, and
    so every cell of a point with no piece, starts at 0.
    """
    status = bundle.pseudo_masks[0].status
    labels, n_pieces = bundle.pieces.labels, bundle.pieces.piece_count
    idx, _, f3d = lift_frame(bundle.clouds[0], bundle.frame_flows(0), bundle.cam_pair(0))
    lifted = np.full((len(status), 2), np.nan)
    lifted[idx] = f3d[:, :2]

    seeded = (status == DYNAMIC) & (labels >= 0)
    classified = np.bincount(labels[(status != UNKNOWN) & (labels >= 0)], minlength=n_pieces)
    majority = 2 * np.bincount(labels[seeded], minlength=n_pieces) > classified
    seeded[seeded] = majority[labels[seeded]]
    ok = seeded & np.isfinite(lifted).all(axis=1)
    velocity = _group_median(labels[ok], lifted[ok], n_pieces)[labels[seeded]]

    n_occ = space.counts.shape[0]
    cell = space.flat[seeded, 0] // 2  # n_occ for an out-of-grid point
    ok = np.isfinite(velocity).all(axis=1)  # a piece with no lift seeds nothing
    velocity = _group_median(cell[ok], velocity[ok], n_occ + 1)[:n_occ]
    velocity[np.isnan(velocity)] = 0.0
    return velocity


def optimize(bundle: SceneBundle, cfg: OptimConfig):
    """Fit one BevMotionField per offset of the bundle; returns (fields, report).

    A masked config (cfg.use_mask) starts offset t of each cell at t times
    its seed_velocity: constant velocity, the exact zero of the temporal
    term. The plain config, the LiDAR-only baseline, starts at zero.

    The plain Chamfer objective alone (no mask, no rigidity or temporal
    term, lambda_mc > 0) is solved, not descended. With its pairs held
    fixed it is a sum of squares in which each point reads one cell's
    planar flow, so each round queries the pairs of every offset at the
    current fields, records a trajectory entry with them, and sets each
    occupied cell to its exact minimizer: the mean of b[a2b] - a over its
    in-grid frame-0 points and of b - a[b2a] over the targets paired to
    them, taken as the Newton step f - g / H with H = 2 lambda_mc
    (n_a + n_b) / n_off. This is ICP (Besl and McKay, 1992): the loss
    never rises, and once every offset's pairs repeat the fields are an
    exact fixed point ("tol"). A round takes the full Newton step, so its
    entry records lr 1.0, and its grad_norm is the gradient at the fixed
    pairs.

    Every other config descends: each step divides the summed per-point
    flow gradients of a cell by its point count and moves it by a
    learning rate that decays. The stop is "tol" when the loss changed
    over 10 iterations by at most cfg.convergence_tol times the larger of
    the earlier loss and L0.

    L0 is the objective at zero fields: the first trajectory entry of a
    zero start, evaluated once more before a seeded one. Either way the
    stop is "max_iters" at the cap; a non-finite loss or gradient, or a
    loss above 10x the larger of the initial one and L0, raises
    DivergenceError, whose report says "diverged". The report's final
    holds the loss components at the fields it returns: after
    "max_iters" the objective is evaluated once more, since the last
    update follows the last trajectory entry.
    """
    start = time.perf_counter()
    space = cell_space(bundle, cfg)
    n_occ = space.counts.shape[0]
    fields = {t: np.zeros((n_occ, 2)) for t in bundle.frame_set.offsets}
    seeded_cells = 0
    zero_loss = None  # L0
    if cfg.use_mask:
        velocity = seed_velocity(bundle, space)
        seeded_cells = int(np.count_nonzero(velocity.any(axis=1)))
        if seeded_cells:
            zero_loss = field_loss_and_gradients(space, fields)[0]["total"]
            for t, f in fields.items():
                f += t * velocity  # 0.0 + -0.0 is 0.0: no negative zeros
    # The plain Chamfer alone is solved.
    solve = not cfg.use_mask and space.pr is None and space.tc is None and space.weights.lambda_mc > 0
    lr = 1.0 if solve else cfg.learning_rate
    pairs = None  # the Chamfer pairs of the last solve round
    trajectory = []
    stop_reason = "max_iters"
    reason = None  # why the loss diverged

    for it in range(cfg.max_iters):
        if solve:
            last, pairs = pairs, space.mc.pairs(_point_flows(space, fields))
        elif it > 0 and it % LR_DECAY_EVERY == 0:
            lr *= LR_DECAY
        components, cell_grads = field_loss_and_gradients(space, fields, pairs)
        grad_norm = math.sqrt(sum(float((g * g).sum()) for g in cell_grads.values()))
        trajectory.append({"iter": it, **components, "lr": lr, "grad_norm": grad_norm})
        loss = components["total"]
        if it == 0:
            if zero_loss is None:  # a zero start: L0 is its first entry
                zero_loss = loss
            bound = max(loss, zero_loss)
        if not (math.isfinite(loss) and math.isfinite(grad_norm)):
            reason = f"loss {loss:.6g} or gradient norm {grad_norm:.6g} is not finite"
        elif bound > 0 and loss > 10.0 * bound:
            reason = f"loss diverged: {loss:.6g} > 10x max(initial, L0) {bound:.6g}"
        if reason is not None:
            stop_reason = "diverged"
            break
        if solve:
            if last is not None and all(
                np.array_equal(x, y) for t in pairs for x, y in zip(pairs[t], last[t])
            ):  # the fields already minimize the objective at these pairs
                stop_reason = "tol"
                break
            scale = 2.0 * space.weights.lambda_mc / len(fields)  # H = scale * (n_a + n_b)
            cell = space.flat[space.mc.dyn_idx, 0] // 2  # n_occ for an out-of-grid point
            for t, g in cell_grads.items():
                n = space.counts.copy()  # n_a >= 1 in an occupied cell
                if t in pairs:  # n_b: the targets paired to each cell's points
                    n += np.bincount(cell[pairs[t][1]], minlength=n_occ + 1)[:n_occ, None]
                g /= scale * n
                fields[t] -= g
            continue
        if it >= 10:
            past = trajectory[-11]["total"]
            if abs(past - loss) <= cfg.convergence_tol * max(abs(past), zero_loss):
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
        seeded_cells=seeded_cells,
    )
    if stop_reason == "diverged":
        raise DivergenceError(reason, report)
    return report.fields, report


def _wrap(fields: dict, space: CellSpace) -> dict:
    return {
        t: BevMotionField(spec=space.spec, time_offset=t, values=space.dense(v))
        for t, v in fields.items()
    }
