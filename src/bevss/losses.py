"""Self-supervised training objectives.

Every loss returns a value and, on request, analytic gradients with
respect to the per-point flows. Nearest-neighbor correspondences are
those of the flows evaluated and are held fixed within one gradient
computation (the standard subgradient for piecewise-smooth NN
objectives). MaskedChamfer keeps them from call to call and re-queries
only the points whose nearest neighbor may have changed.

The three supervision signals are split into a setup step and an
evaluate step. MaskedChamfer, Rigidity and TemporalConsistency check
their fixed inputs and precompute index sets, weights and target trees
once; calling a term evaluates the one formula of its loss on a flow set.
rigidity and temporal_consistency set a term up and evaluate it once.

A term may weight its points by multiplicities: a point with
multiplicity k counts as k copies of itself, and its gradient is the sum
over the copies. A scalar applies to every point; the default 1.0 counts
each point once. The optimizer uses them to evaluate the objective once
per group of frame-0 points that share a BEV cell, since such points
share a flow.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .grid import FrameSet, PointCloud, PointFlowSet
from .masks import DYNAMIC
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
        # `nan > 0` is False, so a NaN weight would silently switch its term off.
        for name in ("lambda_mc", "lambda_pr", "lambda_tc"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


def _multiplicity(multiplicity, n: int) -> np.ndarray:
    """(n,) checked multiplicities from an (n,) array or a scalar."""
    m = np.asarray(multiplicity, dtype=np.float64)
    if m.shape not in ((), (n,)):
        raise ValueError(f"multiplicity shape {m.shape} != ({n},)")
    if not (np.isfinite(m) & (m > 0)).all():
        raise ValueError("multiplicities must be positive and finite")
    return np.full(n, m)


def _wide(x: np.ndarray) -> np.ndarray:
    """(n, 3) array with each entry of the (n,) array x repeated along its row.

    Per-row weights are kept at the width of the flows they multiply: a
    same-shape product is exact like a broadcast (n, 1) one, and faster.
    """
    return np.repeat(x[:, None], 3, axis=1)


def chamfer_pairs(a: np.ndarray, b: np.ndarray):
    """Nearest-neighbor index maps (a->b, b->a) for the Chamfer terms."""
    _, a_to_b = cKDTree(b).query(a)
    _, b_to_a = cKDTree(a).query(b)
    return a_to_b, b_to_a


def _scatter_add(base: np.ndarray, idx: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """base with the rows of terms added at rows idx, as np.add.at does.

    np.bincount adds its weights in input order, starting from 0.0, so the
    sums are bit-identical to np.add.at, except that an untouched -0.0
    entry of base comes back as +0.0.
    """
    n = len(base)
    at = np.concatenate([np.arange(n), idx])
    cols = [np.concatenate([base[:, c], terms[:, c]]) for c in range(3)]
    return np.stack([np.bincount(at, weights=w, minlength=n) for w in cols], axis=1)


def _chamfer(pa: np.ndarray, pb: np.ndarray, pairs, sides: str = "") -> tuple[float, dict]:
    """Chamfer value of two point arrays at fixed pairs, and its gradient
    with respect to each operand named in sides ("a", "b")."""
    a_to_b, b_to_a = pairs
    da = pa - pb[a_to_b]
    db = pb - pa[b_to_a]
    grad = {}
    if "a" in sides:
        grad["a"] = _scatter_add(2.0 * da, b_to_a, -2.0 * db)
    if "b" in sides:
        grad["b"] = _scatter_add(2.0 * db, a_to_b, -2.0 * da)
    return float((da * da).sum() + (db * db).sum()), grad


def chamfer(a: PointCloud, b: PointCloud, with_grad: bool = False, pairs=None) -> LossValue:
    """Symmetric sum of squared nearest-neighbor distances (sums, not means)."""
    pa, pb = a.points, b.points
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("empty operand")
    if pairs is None:
        pairs = chamfer_pairs(pa, pb)
    value, grad = _chamfer(pa, pb, pairs, "ab" if with_grad else "")
    return LossValue(value, grad=grad if with_grad else None)


TIE = 1e-9  # distance margin (m) under which two neighbors count as tied


def _nearest(tree: cKDTree, x: np.ndarray):
    """(index, first distance, second distance) of each row's nearest points.

    The index is that of a plain k=1 query: on a tie, cKDTree's k=2 query
    may list the tied points in another order, so rows whose two distances
    lie within TIE take their index from a k=1 query.
    """
    d, i = tree.query(x, k=2)
    idx = i[:, 0]
    tie = ~(d[:, 1] - d[:, 0] > TIE)
    if tie.any():
        idx[tie] = tree.query(x[tie])[1]
    return idx, d[:, 0], d[:, 1]


class _CertifiedPairs:
    """Chamfer pairs of a moving cloud against a fixed target, re-queried
    only where a distance bound cannot prove them unchanged.

    a->b: a point that has moved by delta since its last query keeps its
    neighbor j if 2 delta < gap - TIE, gap being the margin of the second
    nearest target point over j at that query (triangle inequality).
    b->a: S sums, over calls, the largest movement of any moving point; a
    target point keeps its neighbor i if |b - a[i]| < e2 - (S - S_anchor)
    - TIE, e2 being its second distance and S_anchor the value of S at its
    last query. The first call, a large jump or a tie fails the tests, so
    the pairs equal chamfer_pairs(a, b) whatever the call history.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.b, self.tree_b = b, cKDTree(b)
        self.prev = a  # the moving points at the previous call
        self.anchor = a.copy()  # each point's position at its last a->b query
        self.a_to_b = np.zeros(len(a), dtype=np.intp)
        self.gap = np.full(len(a), -np.inf)  # -inf: never certified yet
        self.s = 0.0
        self.b_to_a = np.zeros(len(b), dtype=np.intp)
        self.e2 = np.full(len(b), -np.inf)
        self.s_anchor = np.zeros(len(b))

    def __call__(self, a: np.ndarray):
        redo = ~(2.0 * np.linalg.norm(a - self.anchor, axis=1) < self.gap - TIE)
        if redo.any():
            idx, d1, d2 = _nearest(self.tree_b, a[redo])
            self.a_to_b[redo], self.gap[redo], self.anchor[redo] = idx, d2 - d1, a[redo]

        self.s += float(np.linalg.norm(a - self.prev, axis=1).max())
        self.prev = a
        e1 = np.linalg.norm(self.b - a[self.b_to_a], axis=1)
        redo = ~(e1 < self.e2 - (self.s - self.s_anchor) - TIE)
        if redo.any():
            idx, _, e2 = _nearest(cKDTree(a), self.b[redo])
            self.b_to_a[redo], self.e2[redo], self.s_anchor[redo] = idx, e2, self.s
        return self.a_to_b.copy(), self.b_to_a.copy()


class MaskedChamfer:
    """Chamfer on the pseudo-dynamic parts plus a static zero-motion penalty.

    clouds/masks must cover frame 0 and every offset. For each offset the
    dynamic subset of frame 0 is warped and compared against the dynamic
    subset of that frame; pseudo-static frame-0 points pay the mean L1
    norm of their flow. An empty dynamic set on either side skips the
    Chamfer term for that offset. multiplicity weights the frame-0 points
    of the static term; every pseudo-dynamic point must have
    multiplicity 1.
    """

    def __init__(self, clouds: dict, masks: dict, offsets, multiplicity=1.0):
        if 0 not in clouds or 0 not in masks:
            raise ValueError("frame 0 cloud and mask are required")
        cloud0, mask0 = clouds[0], masks[0]
        if len(cloud0) != len(mask0):
            raise ValueError("frame 0 cloud and mask lengths differ")
        self.offsets = tuple(sorted(offsets))
        for t in self.offsets:
            if t not in clouds or t not in masks:
                raise ValueError(f"missing frame data for offset {t}")
            if len(clouds[t]) != len(masks[t]):
                raise ValueError(f"cloud and mask lengths differ at offset {t}")
        dyn0 = mask0.status == DYNAMIC
        self.n0 = len(cloud0)
        self.dyn_idx = np.flatnonzero(dyn0)
        self.stat_idx = np.flatnonzero(~dyn0)
        m = _multiplicity(multiplicity, self.n0)
        if np.any(m[self.dyn_idx] != 1.0):
            raise ValueError("pseudo-dynamic points must have multiplicity 1")
        m_stat = m[self.stat_idx]
        self.n_stat = float(m_stat.sum())
        self.m_stat = _wide(m_stat)
        # The static gradient of a row is sign(f) m / n_stat / n_off, taken
        # densely as sign(f) times this weight, which is 0 on dynamic rows.
        # sign(f) is -1, 0 or 1 and rounding is symmetric, so the product is
        # exact. Without static rows (n_stat 0) the weight is 0 everywhere.
        self.g_stat = np.zeros((self.n0, 3))
        if self.stat_idx.size:
            self.g_stat[self.stat_idx] = self.m_stat / self.n_stat / len(self.offsets)
        self.dyn_points = cloud0.points[self.dyn_idx]
        # One pair state per offset whose Chamfer term is on; it holds the
        # dynamic target points of that offset.
        self.nn = {}
        for t in self.offsets:
            target = clouds[t].points[masks[t].status == DYNAMIC]
            if self.dyn_idx.size and len(target):
                self.nn[t] = _CertifiedPairs(self.dyn_points, target)

    def _warped(self, flows: dict, t: int) -> np.ndarray:
        return self.dyn_points + flows[t].flows[self.dyn_idx]

    def pairs(self, flows: dict) -> dict:
        """Chamfer correspondences at flows, to hold fixed in later calls."""
        return {t: nn(self._warped(flows, t)) for t, nn in self.nn.items()}

    def __call__(self, flows: dict, with_grad: bool = False, pairs: dict | None = None):
        if flows.keys() != set(self.offsets):
            raise ValueError(f"flow offsets {sorted(flows)} != {list(self.offsets)}")
        n_off = len(self.offsets)
        value = 0.0
        grads: dict[int, np.ndarray] = {}
        for t in self.offsets:
            f = flows[t].flows
            if len(f) != self.n0:
                raise ValueError("flow length differs from frame 0 cloud")
            if with_grad:
                g = np.sign(f)
                g *= self.g_stat

            if t in self.nn:
                warped = self._warped(flows, t)
                nn = self.nn[t](warped) if pairs is None else pairs[t]
                cd, cd_grad = _chamfer(warped, self.nn[t].b, nn, "a" if with_grad else "")
                value += cd
                if with_grad:
                    g[self.dyn_idx] = cd_grad["a"] / n_off
            elif with_grad:
                g[self.dyn_idx] = 0.0  # sign(f) * 0 may be -0.0 or NaN there

            if self.stat_idx.size:
                fs = np.abs(np.take(f, self.stat_idx, axis=0))
                fs *= self.m_stat
                value += float(fs.sum()) / self.n_stat
            if with_grad:
                grads[t] = g

        value /= n_off
        if not with_grad:
            return LossValue(value)
        return LossValue(value, grad=grads)


class Rigidity:
    """Mean absolute deviation of flows about their piece mean, per frame.

    Pieces with no constraint (piece_count 0) yield 0. multiplicity
    weights each point of pieces.labels.
    """

    def __init__(self, pieces: RigidPieces, multiplicity=1.0):
        labels = pieces.labels
        self.n_r = pieces.piece_count
        self.valid = np.flatnonzero(labels >= 0)
        self.lab = labels[self.valid]
        m = _multiplicity(multiplicity, len(labels))[self.valid]
        counts = np.bincount(self.lab, weights=m, minlength=self.n_r)
        # Per-point weight m/(N_r |R_j|), with |R_j| counted in copies.
        w = 1.0 / (self.n_r * counts[self.lab]) * m
        self.m, self.counts, self.w = _wide(m), _wide(counts), _wide(w)
        # Piece-and-coordinate bin of each entry of a row-major (V, 3) array.
        self.bins = (3 * self.lab[:, None] + np.arange(3)).ravel()

    def _piece_sums(self, x: np.ndarray) -> np.ndarray:
        """(n_r, 3) sums of the rows of x over each piece."""
        sums = np.bincount(self.bins, weights=x.ravel(), minlength=3 * self.n_r)
        return sums.reshape(self.n_r, 3)

    def __call__(self, flows: dict, with_grad: bool = False) -> LossValue:
        value = 0.0
        grads: dict[int, np.ndarray] = {}
        for t, fl in sorted(flows.items()):
            f = np.take(fl.flows, self.valid, axis=0)
            means = self._piece_sums(self.m * f) / self.counts
            dev = f - np.take(means, self.lab, axis=0)
            value += float((self.w * np.abs(dev)).sum())
            if with_grad:
                s = np.sign(dev)
                # Dividing the piece sums before taking them per point gives
                # the same quotients, computed once per piece.
                s -= np.take(self._piece_sums(self.m * s) / self.counts, self.lab, axis=0)
                s *= self.w
                s /= len(flows)
                g = np.zeros((len(fl), 3))
                g[self.valid] = s
                grads[t] = g

        value /= len(flows)
        if not with_grad:
            return LossValue(value)
        return LossValue(value, grad=grads)


class TemporalConsistency:
    """Mean absolute deviation of per-frame velocities from their mean.

    Evaluates the offsets of frame_set for n points. Displacements are
    divided by their signed offset, so a backward frame contributes a
    forward velocity and constant-velocity motion is the exact zero of the
    loss. multiplicity weights each point.
    """

    def __init__(self, frame_set: FrameSet, n: int, multiplicity=1.0):
        self.offsets = tuple(sorted(frame_set.offsets))
        if len(self.offsets) < 2:
            raise ValueError("temporal consistency needs at least two offsets")
        m = _multiplicity(multiplicity, n)
        self.n = float(m.sum())
        self.m = _wide(m)

    def __call__(self, flows: dict, with_grad: bool = False) -> LossValue:
        if flows.keys() != set(self.offsets):
            raise ValueError(f"flow offsets {sorted(flows)} != frame set {list(self.offsets)}")
        n_t = len(self.offsets)
        x = np.empty((n_t, *flows[self.offsets[0]].flows.shape))  # (T, N, 3)
        for k, t in enumerate(self.offsets):
            np.divide(flows[t].flows, t, out=x[k])  # velocities
        np.subtract(x.mean(axis=0), x, out=x)  # deviations of the mean from each
        a = np.abs(x)
        a *= self.m
        norm = self.n * n_t
        value = float(a.sum()) / norm
        if not with_grad:
            return LossValue(value)
        s = np.sign(x, out=x)
        s_sum = s.sum(axis=0)  # (N, 3)
        grads = {}
        for k, t in enumerate(self.offsets):
            g = s_sum / (n_t * t)
            g -= np.divide(s[k], t, out=s[k])
            g /= norm
            g *= self.m
            grads[t] = g
        return LossValue(value, grad=grads)


def rigidity(
    pieces: RigidPieces, flows: dict[int, PointFlowSet], with_grad: bool = False
) -> LossValue:
    """Rigidity of pieces, evaluated once."""
    return Rigidity(pieces)(flows, with_grad)


def temporal_consistency(
    flows: dict[int, PointFlowSet], frame_set: FrameSet, with_grad: bool = False
) -> LossValue:
    """TemporalConsistency over frame_set.offsets, evaluated once; the keys
    of flows must be those offsets."""
    n = len(next(iter(flows.values()), ()))
    return TemporalConsistency(frame_set, n)(flows, with_grad)


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
