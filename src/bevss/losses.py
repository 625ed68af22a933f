"""Self-supervised training objectives.

Every loss returns a value and, on request, analytic gradients with
respect to the per-point flows. The value path also takes a stack of flow
sets, (..., N, 3) flows with the same leading axes at every offset, and
returns one value per set, each equal bit for bit to that of the set
alone; gradients, and MaskedChamfer's kept pairs, take one set at a time.
Nearest-neighbor correspondences are those of the flows evaluated and are
held fixed within one gradient computation (the standard subgradient for
piecewise-smooth NN objectives). MaskedChamfer keeps them from call to
call and re-queries only the points whose nearest neighbor may have
changed.

The three supervision signals are split into a setup step and an
evaluate step. MaskedChamfer, Rigidity and TemporalConsistency check
their fixed inputs and precompute index sets, weights and target trees
once; calling a term evaluates the one formula of its loss on a flow set.
rigidity and temporal_consistency set a term up and evaluate it once.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .grid import FrameSet, PointCloud, PointFlowSet
from .masks import DYNAMIC
from .pieces import RigidPieces


@dataclass(frozen=True)
class LossValue:
    """Scalar loss plus optional gradients, keyed per time offset.

    value is an array over the leading axes of stacked flows.
    """

    value: float | np.ndarray
    grad: dict | None = None


def _block_sums(x: np.ndarray, block_ndim: int = 2):
    """Sum of each block of the last block_ndim axes of x: a float for a
    single block, else an array over the leading axes.

    Each block is summed as one contiguous run, as x.sum() sums a single
    block, so a block's sum in a stack is bit for bit its sum alone.
    """
    lead = x.shape[: x.ndim - block_ndim]
    s = x.reshape(*lead, -1).sum(-1)
    return s if lead else float(s)


def _single(x: np.ndarray, with_grad: bool) -> None:
    if with_grad and x.ndim > 2:
        raise ValueError("gradients take a single set, not a stack")


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
    with respect to each operand named in sides ("a", "b").

    pa and pb may be stacks, (..., N, 3) and (..., M, 3), when sides is "".
    """
    _single(pa, bool(sides))
    _single(pb, bool(sides))
    a_to_b, b_to_a = pairs
    da = pa - np.take(pb, a_to_b, axis=-2)
    db = pb - np.take(pa, b_to_a, axis=-2)
    grad = {}
    if "a" in sides:
        grad["a"] = _scatter_add(2.0 * da, b_to_a, -2.0 * db)
    if "b" in sides:
        grad["b"] = _scatter_add(2.0 * db, a_to_b, -2.0 * da)
    return _block_sums(da * da) + _block_sums(db * db), grad


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


def _untie(idx: np.ndarray, d1: np.ndarray, d2: np.ndarray, x: np.ndarray, tree):
    """(index, first distance, second distance) of each row of x, from the
    index and the two distances of its nearest points.

    The index is that of a plain k=1 query: on a tie, cKDTree's k=2 query
    may list the tied points in another order, so rows whose two distances
    lie within TIE take their index from a k=1 query on tree(), a tree of
    every candidate point.
    """
    tie = ~(d2 - d1 > TIE)
    if tie.any():
        idx[tie] = tree().query(x[tie])[1]
    return idx, d1, d2


def _nearest(tree: cKDTree, x: np.ndarray):
    """(index, first distance, second distance) of each row's nearest points."""
    d, i = tree.query(x, k=2)
    return _untie(i[:, 0], d[:, 0], d[:, 1], x, lambda: tree)


class _CertifiedPairs:
    """Chamfer pairs of a moving cloud against a fixed target, re-queried
    only where a distance bound cannot prove them unchanged.

    a->b: a point that has moved by delta since its last query keeps its
    neighbor j if 2 delta < gap - TIE, gap being the margin of the second
    nearest target point over j at that query (triangle inequality).
    b->a: S sums, over calls, the largest movement of any moving point; a
    target point keeps its neighbor i if
    |b - a[i]| < min(ef, em - (S - S_anchor)) - TIE, ef and em being its
    distances to the nearest fixed and the nearest moving point other than
    i at its last query, and S_anchor the value of S then. A fixed point
    does not move, so ef is exact and only em pays for the movement. When
    a fixed point starts moving, every target merges the two parts
    (em = min(em, ef), ef = inf) until its next query: S counts that
    point's movement from that call on. Each point is first queried at
    construction and each target at the first call; a large jump or a tie
    fails the tests, so the pairs equal chamfer_pairs(a, b) whatever the
    call history.

    Fixed points: the points that have stayed bit for bit at their
    construction positions at every call so far (a set that only shrinks)
    cost nothing per call. Each was queried against the target once, at
    construction, and a query at the same position gives the same pair, so
    the a->b test, the movement S (a fixed point moves by 0) and
    |b - a[i]| run over the other rows only; |b - a[i]| is kept from the
    last query for a target whose neighbor i is fixed. A b->a re-query
    takes the two nearest fixed points of the target, found for every
    target by one tree query the first time they are needed after the
    fixed set shrank, and the two nearest of the other rows, from a tree
    of those rows alone. The nearest of the four is the nearest of all,
    the others give ef and em, and a tie is broken by a k=1 query on
    cKDTree(a) as before, so the pairs stay exact. The split pays only
    while the fixed points outnumber the others; once they do not, it is
    dropped for good and every call runs the all-rows path, where ef stays
    inf and em is the second distance of a query on cKDTree(a). In the
    synthetic scenes a static point repeats bit for bit in every frame,
    so its flow stays exactly 0; a masked config warps only
    pseudo-dynamic points, which all move.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.b, self.tree_b = b, cKDTree(b)
        self.base = self.prev = a  # construction positions; the points at the previous call
        self.anchor = a.copy()  # each point's position at its last a->b query
        idx, d1, d2 = _nearest(self.tree_b, a)  # every point, at its construction position
        self.a_to_b, self.gap = idx.copy(), d2 - d1
        self.s = 0.0
        self.b_to_a = np.zeros(len(b), dtype=np.intp)
        # Per target, at its last query: distance to the nearest fixed and
        # to the nearest moving point other than b_to_a (em -inf: never
        # certified yet).
        self.ef, self.em = np.full(len(b), np.inf), np.full(len(b), -np.inf)
        self.s_anchor = np.zeros(len(b))
        self.e1 = np.zeros(len(b))  # |b - a[b_to_a]| at the last query
        self.fixed = np.ones(len(a), dtype=bool)  # None once the split is dropped
        self.rows = np.zeros(0, dtype=np.intp)  # the rows that are not fixed, or all
        # Per target: distances to its two nearest fixed points, index of the nearest.
        self.near_f = None

    def _shrink(self, a: np.ndarray):
        """Drop the fixed points that have left their construction position."""
        ne = a != self.base
        left = (ne[:, 0] | ne[:, 1] | ne[:, 2]) & self.fixed  # faster than any(axis=1)
        if left.any():
            self.fixed &= ~left
            self.near_f = None
            # A point that leaves has moved by at most S - S_anchor, which
            # counts it from this call on: bound it with the moving ones.
            np.minimum(self.em, self.ef, out=self.em)
            self.ef[:] = np.inf
            if 2 * np.count_nonzero(self.fixed) > len(self.fixed):
                self.rows = np.flatnonzero(~self.fixed)
            else:  # the split pays only while the fixed points outnumber the others
                self.fixed, self.rows = None, slice(None)

    def _two_nearest(self, a: np.ndarray, x: np.ndarray, redo: np.ndarray):
        """(index, ef, em) of the targets x = b[redo]: the index of
        _nearest(cKDTree(a), x) and the distances to the nearest fixed and
        the nearest moving point other than it, from the two nearest fixed
        points of each target, found once per fixed set, and the two
        nearest of a tree of the other rows. A k=2 query on a tree of one
        point gives an inf second distance."""
        if self.near_f is None:
            f_idx = np.flatnonzero(self.fixed)
            d, i = cKDTree(self.base[f_idx]).query(self.b, k=2)
            self.near_f = d, f_idx[i[:, 0]]
        d, idx = self.near_f[0][redo], self.near_f[1][redo]
        d1, ef, em = d[:, 0], d[:, 1], np.full(len(x), np.inf)
        if len(self.rows):
            dm, im = cKDTree(a[self.rows]).query(x, k=2)
            f = d1 <= dm[:, 0]  # the nearest point is a fixed one
            idx = np.where(f, idx, self.rows[im[:, 0]])
            ef, em = np.where(f, ef, d1), np.where(f, dm[:, 0], dm[:, 1])
            d1 = np.where(f, d1, dm[:, 0])
        idx, _, _ = _untie(idx, d1, np.minimum(ef, em), x, lambda: cKDTree(a))
        return idx, ef, em

    def __call__(self, a: np.ndarray):
        if self.fixed is not None:
            self._shrink(a)
        rows = self.rows
        am = a[rows]
        redo = ~(2.0 * np.linalg.norm(am - self.anchor[rows], axis=1) < self.gap[rows] - TIE)
        if redo.any():
            at = redo if self.fixed is None else rows[redo]
            idx, d1, d2 = _nearest(self.tree_b, am[redo])
            self.a_to_b[at], self.gap[at], self.anchor[at] = idx, d2 - d1, am[redo]

        if len(am):
            self.s += float(np.linalg.norm(am - self.prev[rows], axis=1).max())
        self.prev = a
        if self.fixed is None:
            e1 = np.linalg.norm(self.b - a[self.b_to_a], axis=1)
        else:
            e1 = self.e1
            moved = ~self.fixed[self.b_to_a]  # targets whose neighbor is not fixed
            e1[moved] = np.linalg.norm(self.b[moved] - a[self.b_to_a[moved]], axis=1)
        redo = ~(e1 < np.minimum(self.ef, self.em - (self.s - self.s_anchor)) - TIE)
        if redo.any():
            x = self.b[redo]
            if self.fixed is None:
                idx, _, em = _nearest(cKDTree(a), x)
            else:
                idx, self.ef[redo], em = self._two_nearest(a, x, redo)
                e1[redo] = np.linalg.norm(x - a[idx], axis=1)
            self.b_to_a[redo], self.em[redo], self.s_anchor[redo] = idx, em, self.s
        return self.a_to_b.copy(), self.b_to_a.copy()


class MaskedChamfer:
    """Chamfer on the pseudo-dynamic parts plus a static zero-motion penalty.

    clouds/masks must cover frame 0 and every offset. For each offset the
    dynamic subset of frame 0 is warped and compared against the dynamic
    subset of that frame; pseudo-static frame-0 points pay the mean L1
    norm of their flow. An empty dynamic set on either side skips the
    Chamfer term for that offset.
    """

    def __init__(self, clouds: dict, masks: dict, offsets):
        self.offsets = tuple(sorted(offsets))
        for t in (0, *self.offsets):
            if t not in clouds:
                raise ValueError(f"frame {t} has no point cloud")
            if t not in masks:
                raise ValueError(f"frame {t} has no pseudo mask")
            if len(clouds[t]) != len(masks[t]):
                raise ValueError(f"frame {t}: {len(masks[t])} mask entries for {len(clouds[t])} points")
        dyn0 = masks[0].status == DYNAMIC
        self.n0 = len(clouds[0])
        self.dyn_idx = np.flatnonzero(dyn0)
        self.stat_idx = np.flatnonzero(~dyn0)
        self.n_stat = float(self.stat_idx.size)
        # The static gradient of a row is sign(f) / n_stat / n_off, taken
        # densely as sign(f) times this weight, which is 0 on dynamic rows.
        # sign(f) is -1, 0 or 1 and rounding is symmetric, so the product is
        # exact. Without static rows it is never read.
        self.g_stat = np.zeros((self.n0, 3))
        if self.stat_idx.size:
            self.g_stat[self.stat_idx] = 1.0 / self.n_stat / len(self.offsets)
        self.dyn_points = clouds[0].points[self.dyn_idx]
        # One pair state per offset whose Chamfer term is on; it holds the
        # dynamic target points of that offset.
        self.nn = {}
        for t in self.offsets:
            target = clouds[t].points[masks[t].status == DYNAMIC]
            if self.dyn_idx.size and len(target):
                self.nn[t] = _CertifiedPairs(self.dyn_points, target)

    def _warped(self, flows: dict, t: int) -> np.ndarray:
        return self.dyn_points + np.take(flows[t].flows, self.dyn_idx, axis=-2)

    def pairs(self, flows: dict) -> dict:
        """Chamfer correspondences at flows, to hold fixed in later calls."""
        return {t: nn(self._warped(flows, t)) for t, nn in self.nn.items()}

    def __call__(self, flows: dict, with_grad: bool = False, pairs: dict | None = None):
        """Value (and gradient) at flows; stacked flows need pairs."""
        if flows.keys() != set(self.offsets):
            raise ValueError(f"flow offsets {sorted(flows)} != {list(self.offsets)}")
        n_off = len(self.offsets)
        value = 0.0
        grads: dict[int, np.ndarray] = {}
        for t in self.offsets:
            f = flows[t].flows
            _single(f, with_grad)
            if f.ndim > 2 and pairs is None:
                raise ValueError("stacked flows need the pairs to hold fixed")
            if len(flows[t]) != self.n0:
                raise ValueError("flow length differs from frame 0 cloud")
            # Gradient rows of the dynamic points: the Chamfer gradient, or 0
            # at an offset without target (so a NaN flow there stays out).
            g_dyn = 0.0
            if t in self.nn:
                warped = self._warped(flows, t)
                nn = self.nn[t](warped) if pairs is None else pairs[t]
                cd, cd_grad = _chamfer(warped, self.nn[t].b, nn, "a" if with_grad else "")
                value += cd
                if with_grad:
                    g_dyn = cd_grad["a"] / n_off

            if self.stat_idx.size:
                fs = np.abs(np.take(f, self.stat_idx, axis=-2))
                value += _block_sums(fs) / self.n_stat
                if with_grad:
                    grads[t] = np.sign(f)
                    grads[t] *= self.g_stat
                    grads[t][self.dyn_idx] = g_dyn  # sign(f) * 0 may be -0.0 or NaN there
            elif with_grad:  # every row is dynamic
                grads[t] = g_dyn if t in self.nn else np.zeros_like(f)

        value /= n_off
        if not with_grad:
            return LossValue(value)
        return LossValue(value, grad=grads)


class Rigidity:
    """Mean absolute deviation of flows about their piece mean, per frame.

    Pieces with no constraint (piece_count 0) yield 0. A piece id with no
    points still counts in N_r.
    """

    def __init__(self, pieces: RigidPieces):
        labels = pieces.labels
        self.n_r = pieces.piece_count
        self.valid = np.flatnonzero(labels >= 0)
        self.lab = labels[self.valid]
        counts = np.bincount(self.lab, minlength=self.n_r).astype(np.float64)
        # Per-point weight 1/(N_r |R_j|).
        w = 1.0 / (self.n_r * counts[self.lab])
        # The mean of a piece with no points is never taken: dividing its
        # zero sums by 1 instead of 0 leaves every other quotient as it is.
        self.counts, self.w = _wide(np.maximum(counts, 1.0)), _wide(w)
        # Piece-and-coordinate bin of each entry of a row-major (V, 3) array.
        self.bins = (3 * self.lab[:, None] + np.arange(3)).ravel()

    def _piece_sums(self, x: np.ndarray) -> np.ndarray:
        """(..., n_r, 3) sums of the rows of each (V, 3) block of x over each piece.

        Each block takes its own bins, so its sums are added in the same
        order as those of the block alone.
        """
        lead = x.shape[:-2]
        k, width = math.prod(lead), 3 * self.n_r
        bins = (width * np.arange(k))[:, None] + self.bins
        sums = np.bincount(bins.ravel(), weights=x.ravel(), minlength=k * width)
        return sums.reshape(*lead, self.n_r, 3)

    def __call__(self, flows: dict, with_grad: bool = False) -> LossValue:
        value = 0.0
        grads: dict[int, np.ndarray] = {}
        for t, fl in sorted(flows.items()):
            _single(fl.flows, with_grad)
            f = np.take(fl.flows, self.valid, axis=-2)
            means = self._piece_sums(f) / self.counts
            dev = f - np.take(means, self.lab, axis=-2)
            value += _block_sums(self.w * np.abs(dev))
            if with_grad:
                s = np.sign(dev)
                # Dividing the piece sums before taking them per point gives
                # the same quotients, computed once per piece.
                s -= np.take(self._piece_sums(s) / self.counts, self.lab, axis=0)
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

    Evaluates the offsets of frame_set, averaged over the points of the
    flows it is called with. Displacements are divided by their signed
    offset, so a backward frame contributes a forward velocity and
    constant-velocity motion is the exact zero of the loss.
    """

    def __init__(self, frame_set: FrameSet):
        self.offsets = tuple(sorted(frame_set.offsets))
        if len(self.offsets) < 2:
            raise ValueError("temporal consistency needs at least two offsets")

    def __call__(self, flows: dict, with_grad: bool = False) -> LossValue:
        if flows.keys() != set(self.offsets):
            raise ValueError(f"flow offsets {sorted(flows)} != frame set {list(self.offsets)}")
        n_t = len(self.offsets)
        f0 = flows[self.offsets[0]].flows
        _single(f0, with_grad)
        # (..., T, N, 3): each set's velocities form one contiguous block.
        x = np.empty((*f0.shape[:-2], n_t, *f0.shape[-2:]))
        for k, t in enumerate(self.offsets):
            np.divide(flows[t].flows, t, out=x[..., k, :, :])  # velocities
        np.subtract(x.mean(axis=-3, keepdims=True), x, out=x)  # deviations of the mean from each
        a = np.abs(x)
        norm = float(x.shape[-2]) * n_t
        value = _block_sums(a, 3) / norm
        if not with_grad:
            return LossValue(value)
        s = np.sign(x, out=x)
        s_sum = s.sum(axis=0)  # (N, 3)
        grads = {}
        for k, t in enumerate(self.offsets):
            g = s_sum / (n_t * t)
            g -= np.divide(s[k], t, out=s[k])
            g /= norm
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
    return TemporalConsistency(frame_set)(flows, with_grad)


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
    _single(flows.flows, with_grad)
    n = len(cloud)
    if k < 1 or n <= k:
        raise ValueError("need k >= 1 and more points than neighbors")
    if len(flows) != n:
        raise ValueError("cloud and flow lengths differ")
    nbr = smoothness_neighbors(cloud.points, k) if neighbors is None else neighbors
    if nbr.shape != (n, k):
        raise ValueError(f"neighbors shape {nbr.shape} != ({n}, {k})")
    f = flows.flows
    diffs = f[..., None, :] - f[..., nbr, :]  # (..., N, k, 3)
    value = _block_sums(diffs * diffs, 3) / k
    if not with_grad:
        return LossValue(value)
    g = 2.0 * diffs.sum(axis=1) / k
    np.add.at(g, nbr.ravel(), (-2.0 / k) * diffs.reshape(-1, 3))
    return LossValue(value, grad={flows.time_offset: g})
