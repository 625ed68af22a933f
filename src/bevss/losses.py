"""Self-supervised training objectives.

Every loss returns a value and, on request, analytic gradients with
respect to the per-point flows. Nearest-neighbor correspondences are
recomputed per evaluation and held fixed within one gradient computation
(the standard subgradient for piecewise-smooth NN objectives).

The static term of masked_chamfer, rigidity and temporal_consistency
accept optional per-point multiplicities: a point with multiplicity k
counts as k copies of itself, and its gradient is the sum over the
copies. The optimizer uses them to evaluate the objective once per group
of frame-0 points that share a BEV cell, since such points share a flow.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .grid import FrameSet, PointCloud, PointFlowSet
from .masks import DYNAMIC, StaticDynamicMask
from .pieces import RigidPieces


@dataclass(frozen=True)
class LossValue:
    """Scalar loss plus optional gradients, keyed per time offset."""

    value: float
    grad: dict | None = None


@dataclass(frozen=True)
class LossWeights:
    lambda_mc: float = 1.0
    lambda_pr: float = 0.1
    lambda_tc: float = 0.4

    def __post_init__(self):
        if min(self.lambda_mc, self.lambda_pr, self.lambda_tc) < 0:
            raise ValueError("loss weights must be non-negative")


def _multiplicity(multiplicity, n: int) -> np.ndarray:
    m = np.asarray(multiplicity, dtype=np.float64)
    if m.shape != (n,):
        raise ValueError(f"multiplicity shape {m.shape} != ({n},)")
    if not np.all(np.isfinite(m) & (m > 0)):
        raise ValueError("multiplicities must be positive and finite")
    return m


def chamfer_pairs(a: np.ndarray, b: np.ndarray, tree_b: cKDTree | None = None):
    """Nearest-neighbor index maps (a->b, b->a) for the Chamfer terms.

    tree_b, when given, must be a cKDTree built on b; it saves rebuilding
    the tree of a target that stays fixed across calls.
    """
    if tree_b is None:
        tree_b = cKDTree(b)
    _, a_to_b = tree_b.query(a)
    tree_a = cKDTree(a)
    _, b_to_a = tree_a.query(b)
    return a_to_b, b_to_a


def chamfer(a: PointCloud, b: PointCloud, with_grad: bool = False, pairs=None) -> LossValue:
    """Symmetric sum of squared nearest-neighbor distances (sums, not means)."""
    pa, pb = a.points, b.points
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("empty operand")
    if pairs is None:
        pairs = chamfer_pairs(pa, pb)
    a_to_b, b_to_a = pairs
    da = pa - pb[a_to_b]
    db = pb - pa[b_to_a]
    value = float((da * da).sum() + (db * db).sum())
    if not with_grad:
        return LossValue(value)
    ga = 2.0 * da
    np.add.at(ga, b_to_a, -2.0 * db)
    gb = 2.0 * db
    np.add.at(gb, a_to_b, -2.0 * da)
    return LossValue(value, grad={"a": ga, "b": gb})


def masked_chamfer(
    clouds: dict[int, PointCloud],
    masks: dict[int, StaticDynamicMask],
    flows: dict[int, PointFlowSet],
    with_grad: bool = False,
    nn_cache: dict | None = None,
    multiplicity: np.ndarray | None = None,
    trees: dict | None = None,
) -> LossValue:
    """Chamfer on the pseudo-dynamic parts plus a static zero-motion penalty.

    clouds/masks must cover frame 0 and every predicted offset in flows.
    For each offset the dynamic subset of frame 0 is warped and compared
    against the dynamic subset of that frame; pseudo-static frame-0 points
    pay the mean L1 norm of their flow. An empty dynamic set on either
    side skips the Chamfer term for that offset.

    multiplicity weights the frame-0 points of the static term; every
    pseudo-dynamic point must have multiplicity 1. trees maps an offset to
    a cKDTree built on the dynamic subset of that frame.
    """
    if 0 not in clouds or 0 not in masks:
        raise ValueError("frame 0 cloud and mask are required")
    cloud0, mask0 = clouds[0], masks[0]
    if len(cloud0) != len(mask0):
        raise ValueError("frame 0 cloud and mask lengths differ")
    offsets = sorted(flows)
    dyn0 = mask0.status == DYNAMIC
    dyn0_idx = np.nonzero(dyn0)[0]
    stat0_idx = np.nonzero(~dyn0)[0]
    n0 = len(cloud0)
    if multiplicity is None:
        m = m_stat = None
        n_stat = stat0_idx.size
    else:
        m = _multiplicity(multiplicity, n0)[:, None]
        if np.any(m[dyn0_idx] != 1.0):
            raise ValueError("pseudo-dynamic points must have multiplicity 1")
        m_stat = np.take(m, stat0_idx, axis=0)
        n_stat = float(m_stat.sum())

    value = 0.0
    grads: dict[int, np.ndarray] = {}
    for t in offsets:
        fl = flows[t]
        if len(fl) != n0:
            raise ValueError("flow length differs from frame 0 cloud")
        if t not in clouds or t not in masks:
            raise ValueError(f"missing frame data for offset {t}")
        if len(clouds[t]) != len(masks[t]):
            raise ValueError(f"cloud and mask lengths differ at offset {t}")
        g = None
        if with_grad:
            if stat0_idx.size:
                # The static gradient of every point with the dynamic rows
                # zeroed: the numbers of a scatter into the static rows.
                g = (np.sign(fl.flows) if m is None else m * np.sign(fl.flows)) / n_stat
                g[dyn0_idx] = 0.0
            else:
                g = np.zeros((n0, 3))

        target = clouds[t].points[masks[t].status == DYNAMIC]
        if dyn0_idx.size and target.shape[0]:
            warped = cloud0.points[dyn0_idx] + fl.flows[dyn0_idx]
            pairs = nn_cache.get(t) if nn_cache is not None else None
            if pairs is None:
                tree = trees.get(t) if trees is not None else None
                pairs = chamfer_pairs(warped, target, tree)
                if nn_cache is not None:
                    nn_cache[t] = pairs
            cd = chamfer(
                PointCloud(t, warped), PointCloud(t, target), with_grad=with_grad, pairs=pairs
            )
            value += cd.value
            if with_grad:
                g[dyn0_idx] += cd.grad["a"]

        if stat0_idx.size:
            fs = np.take(fl.flows, stat0_idx, axis=0)
            l1 = np.abs(fs) if m_stat is None else m_stat * np.abs(fs)
            value += float(l1.sum()) / n_stat
        if with_grad:
            g /= len(offsets)
            grads[t] = g

    value /= len(offsets)
    if not with_grad:
        return LossValue(value)
    return LossValue(value, grad=grads)


def rigidity(
    pieces: RigidPieces,
    flows: dict[int, PointFlowSet],
    with_grad: bool = False,
    multiplicity: np.ndarray | None = None,
) -> LossValue:
    """Mean absolute deviation of flows about their piece mean, per frame.

    Pieces with no constraint (piece_count 0) yield 0. multiplicity, if
    given, weights each point of pieces.labels.
    """
    if pieces.piece_count == 0:
        if not with_grad:
            return LossValue(0.0)
        return LossValue(0.0, grad={t: np.zeros((len(f), 3)) for t, f in flows.items()})
    labels = pieces.labels
    valid = np.flatnonzero(labels >= 0)
    lab = labels[valid]
    n_r = pieces.piece_count
    if multiplicity is None:
        m = None
        counts = np.bincount(lab, minlength=n_r).astype(np.float64)
    else:
        m = _multiplicity(multiplicity, len(labels))[valid, None]
        counts = np.bincount(lab, weights=m[:, 0], minlength=n_r)
    w = 1.0 / (n_r * counts[lab])  # per-point weight 1/(N_r |R_j|)
    if m is not None:
        w = w * m[:, 0]

    value = 0.0
    grads: dict[int, np.ndarray] = {}
    for t, fl in sorted(flows.items()):
        f = np.take(fl.flows, valid, axis=0)
        fm = f if m is None else m * f
        means = np.zeros((n_r, 3))
        for c in range(3):
            means[:, c] = np.bincount(lab, weights=fm[:, c], minlength=n_r)
        means /= counts[:, None]
        dev = f - np.take(means, lab, axis=0)
        value += float((w[:, None] * np.abs(dev)).sum())
        if with_grad:
            s = np.sign(dev)
            sm = s if m is None else m * s
            piece_s = np.zeros((n_r, 3))
            for c in range(3):
                piece_s[:, c] = np.bincount(lab, weights=sm[:, c], minlength=n_r)
            g_valid = w[:, None] * (s - np.take(piece_s, lab, axis=0) / counts[lab, None])
            g = np.zeros((len(fl), 3))
            g[valid] = g_valid
            g /= len(flows)
            grads[t] = g

    value /= len(flows)
    if not with_grad:
        return LossValue(value)
    return LossValue(value, grad=grads)


def temporal_consistency(
    flows: dict[int, PointFlowSet],
    frame_set: FrameSet,
    with_grad: bool = False,
    multiplicity: np.ndarray | None = None,
) -> LossValue:
    """Mean absolute deviation of per-frame velocities from their mean.

    Displacements are divided by their signed offset, so a backward frame
    contributes a forward velocity and constant-velocity motion is the
    exact zero of the loss. multiplicity, if given, weights each point.
    """
    offsets = sorted(flows)
    if 0 in offsets:
        raise ValueError("offset 0 has no velocity")
    if len(offsets) < 2:
        raise ValueError("temporal consistency needs at least two offsets")
    n = len(flows[offsets[0]])
    n_t = len(offsets)
    vel = np.stack([flows[t].flows / t for t in offsets])  # (T, N, 3)
    vbar = vel.mean(axis=0)
    x = vbar[None] - vel
    if multiplicity is None:
        m = None
        value = float(np.abs(x).sum()) / (n * n_t)
    else:
        m = _multiplicity(multiplicity, n)[:, None]
        n = float(m.sum())
        value = float((m * np.abs(x)).sum()) / (n * n_t)
    if not with_grad:
        return LossValue(value)
    s = np.sign(x)
    s_sum = s.sum(axis=0)  # (N, 3)
    grads = {}
    for k, t in enumerate(offsets):
        g = (s_sum / (n_t * t) - s[k] / t) / (n * n_t)
        grads[t] = g if m is None else m * g
    return LossValue(value, grad=grads)


def smoothness_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """(N, k) indices of each point's k nearest other points."""
    _, nbr = cKDTree(points).query(points, k=k + 1)
    return nbr[:, 1:]  # drop self


def smoothness(
    cloud: PointCloud,
    flows: PointFlowSet,
    k: int = 8,
    with_grad: bool = False,
    neighbors: np.ndarray | None = None,
) -> LossValue:
    """Local smoothness baseline: squared flow differences to k neighbors.

    neighbors, when given, is the (N, k) array from smoothness_neighbors
    and is used as is (held fixed, like chamfer's pairs).
    """
    n = len(cloud)
    if k < 1 or n <= k:
        raise ValueError("need k >= 1 and more points than neighbors")
    if len(flows) != n:
        raise ValueError("cloud and flow lengths differ")
    nbr = smoothness_neighbors(cloud.points, k) if neighbors is None else neighbors
    if nbr.shape != (n, k):
        raise ValueError(f"neighbors shape {nbr.shape} != ({n}, {k})")
    f = flows.flows
    diffs = f[:, None, :] - f[nbr]  # (N, k, 3)
    value = float((diffs * diffs).sum()) / k
    if not with_grad:
        return LossValue(value)
    g = 2.0 * diffs.sum(axis=1) / k
    np.add.at(g, nbr.ravel(), (-2.0 / k) * diffs.reshape(-1, 3))
    return LossValue(value, grad={flows.time_offset: g})


def total(mc: LossValue, pr: LossValue, tc: LossValue, weights: LossWeights) -> LossValue:
    """Weighted sum of the three supervision signals; gradients add linearly."""
    value = weights.lambda_mc * mc.value + weights.lambda_pr * pr.value + weights.lambda_tc * tc.value
    parts = [(weights.lambda_mc, mc), (weights.lambda_pr, pr), (weights.lambda_tc, tc)]
    if all(p.grad is None for _, p in parts):
        return LossValue(value)
    grads: dict[int, np.ndarray] = {}
    for lam, part in parts:
        if part.grad is None:
            continue
        for t, g in part.grad.items():
            if t in grads:
                grads[t] = grads[t] + lam * g
            else:
                grads[t] = lam * g
    return LossValue(value, grad=grads)
