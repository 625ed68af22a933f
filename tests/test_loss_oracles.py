"""Bit-identity of the prepared loss terms against reference formulas.

The reference classes below restate MaskedChamfer, Rigidity and
TemporalConsistency in their plainest form: (n, 1) weight columns that
broadcast against (n, 3) flows, a zeroed gradient with the static rows
assigned by index, and a stacked (T, N, 3) velocity array. The terms in
src/ arrange the same arithmetic for speed; their values must be equal
(==) and their gradients np.array_equal to these references.
"""

import numpy as np
import pytest

from bevss.grid import FrameSet, PointCloud, PointFlowSet
from bevss.losses import MaskedChamfer, Rigidity, TemporalConsistency, _chamfer, chamfer_pairs
from bevss.masks import DYNAMIC, STATIC, UNKNOWN, StaticDynamicMask
from bevss.pieces import RigidPieces

OFFSETS = (-1, 1, 2)


def _column(multiplicity, n):
    return np.full(n, np.asarray(multiplicity, dtype=np.float64))[:, None]


class RefMaskedChamfer:
    def __init__(self, clouds, masks, offsets, multiplicity=1.0):
        self.offsets = tuple(sorted(offsets))
        dyn0 = masks[0].status == DYNAMIC
        self.n0 = len(clouds[0])
        self.dyn_idx = np.flatnonzero(dyn0)
        self.stat_idx = np.flatnonzero(~dyn0)
        self.m_stat = np.take(_column(multiplicity, self.n0), self.stat_idx, axis=0)
        self.n_stat = float(self.m_stat.sum())
        self.dyn_points = clouds[0].points[self.dyn_idx]
        self.targets = {}
        for t in self.offsets:
            target = clouds[t].points[masks[t].status == DYNAMIC]
            if self.dyn_idx.size and len(target):
                self.targets[t] = target

    def __call__(self, flows, with_grad=False):
        n_off = len(self.offsets)
        value = 0.0
        grads = {}
        for t in self.offsets:
            f = flows[t].flows
            fs = np.take(f, self.stat_idx, axis=0)
            if with_grad:
                g = np.zeros((self.n0, 3))
                g[self.stat_idx] = self.m_stat * np.sign(fs) / self.n_stat

            if t in self.targets:
                warped = self.dyn_points + f[self.dyn_idx]
                nn = chamfer_pairs(warped, self.targets[t])
                cd, cd_grad = _chamfer(warped, self.targets[t], nn, "a" if with_grad else "")
                value += cd
                if with_grad:
                    g[self.dyn_idx] += cd_grad["a"]

            if self.stat_idx.size:
                value += float((self.m_stat * np.abs(fs)).sum()) / self.n_stat
            if with_grad:
                g /= n_off
                grads[t] = g

        value /= n_off
        return value, grads


class RefRigidity:
    def __init__(self, pieces, multiplicity=1.0):
        labels = pieces.labels
        self.n_r = pieces.piece_count
        self.valid = np.flatnonzero(labels >= 0)
        self.lab = labels[self.valid]
        self.m = np.take(_column(multiplicity, len(labels)), self.valid, axis=0)
        self.counts = np.bincount(self.lab, weights=self.m[:, 0], minlength=self.n_r)
        self.lab_counts = self.counts[self.lab, None]
        self.w = (1.0 / (self.n_r * self.counts[self.lab]) * self.m[:, 0])[:, None]
        self.bins = (3 * self.lab[:, None] + np.arange(3)).ravel()

    def _piece_sums(self, x):
        sums = np.bincount(self.bins, weights=x.ravel(), minlength=3 * self.n_r)
        return sums.reshape(self.n_r, 3)

    def __call__(self, flows, with_grad=False):
        value = 0.0
        grads = {}
        for t, fl in sorted(flows.items()):
            f = np.take(fl.flows, self.valid, axis=0)
            means = self._piece_sums(self.m * f) / self.counts[:, None]
            dev = f - np.take(means, self.lab, axis=0)
            value += float((self.w * np.abs(dev)).sum())
            if with_grad:
                s = np.sign(dev)
                piece_s = np.take(self._piece_sums(self.m * s), self.lab, axis=0)
                g = np.zeros((len(fl), 3))
                g[self.valid] = self.w * (s - piece_s / self.lab_counts)
                g /= len(flows)
                grads[t] = g

        value /= len(flows)
        return value, grads


class RefTemporalConsistency:
    def __init__(self, frame_set, n, multiplicity=1.0):
        self.offsets = tuple(sorted(frame_set.offsets))
        self.m = _column(multiplicity, n)
        self.n = float(self.m.sum())

    def __call__(self, flows, with_grad=False):
        n_t = len(self.offsets)
        vel = np.stack([flows[t].flows / t for t in self.offsets])
        vbar = vel.mean(axis=0)
        x = vbar[None] - vel
        value = float((self.m * np.abs(x)).sum()) / (self.n * n_t)
        if not with_grad:
            return value, {}
        s = np.sign(x)
        s_sum = s.sum(axis=0)
        grads = {}
        for k, t in enumerate(self.offsets):
            grads[t] = self.m * ((s_sum / (n_t * t) - s[k] / t) / (self.n * n_t))
        return value, grads


# --- scenes ----------------------------------------------------------------


def _flows(rng, n, zero_rows=5):
    """Flows per offset with a few exact-zero rows and entries (sign 0)."""
    flows = {t: rng.normal(scale=0.3, size=(n, 3)) for t in OFFSETS}
    for f in flows.values():
        f[rng.choice(n, size=min(zero_rows, n), replace=False)] = 0.0
        f[rng.random((n, 3)) < 0.05] = 0.0
    flows[1][:3] = flows[2][:3] / 2  # constant velocity: zero temporal deviation
    return flows


def _multiplicities(rng, status):
    """Non-integer weights on static rows, 1 on pseudo-dynamic rows."""
    k = rng.uniform(0.5, 7.0, size=len(status))
    k[rng.random(len(status)) < 0.3] = rng.integers(1, 9)
    return np.where(status == DYNAMIC, 1.0, k)


def _chamfer_scene(rng, kind, n=60):
    p = {"mixed": [0.5, 0.35, 0.15], "plain": [0.0, 1.0, 0.0], "static": [0.8, 0.0, 0.2]}[kind]
    status = rng.choice([STATIC, DYNAMIC, UNKNOWN], size=n, p=p).astype(np.uint8)
    clouds = {0: PointCloud(0, rng.normal(size=(n, 3)))}
    masks = {0: StaticDynamicMask(0, status)}
    for t in OFFSETS:
        clouds[t] = PointCloud(t, rng.normal(size=(n + 7, 3)))
        masks[t] = StaticDynamicMask(t, (rng.random(n + 7) < 0.5).astype(np.uint8))
    # Offset -1 has no dynamic target, so its Chamfer term is off.
    masks[-1] = StaticDynamicMask(-1, np.full(n + 7, STATIC, dtype=np.uint8))
    return clouds, masks


def _as_sets(flows):
    return {t: PointFlowSet(t, f.copy()) for t, f in flows.items()}


def _assert_identical(res, ref, with_grad):
    value, grads = ref
    assert res.value == value
    if not with_grad:
        assert res.grad is None
        return
    assert res.grad.keys() == grads.keys()
    for t, g in grads.items():
        assert res.grad[t].shape == g.shape
        assert np.array_equal(res.grad[t], g), f"gradient differs at offset {t}"


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("kind", ["mixed", "plain", "static"])
@pytest.mark.parametrize("with_grad", [False, True], ids=["value", "grad"])
def test_masked_chamfer_matches_reference(kind, weighted, with_grad):
    rng = np.random.default_rng(11)
    clouds, masks = _chamfer_scene(rng, kind)
    m = _multiplicities(rng, masks[0].status) if weighted else 1.0
    term = MaskedChamfer(clouds, masks, OFFSETS, m)
    ref = RefMaskedChamfer(clouds, masks, OFFSETS, m)
    if kind != "mixed":
        assert ref.stat_idx.size == {"plain": 0, "static": 60}[kind]
    n = len(clouds[0])
    # Successive flows, as the optimizer sends them: the term's pair state
    # carries over from call to call.
    for step in range(4):
        flows = _flows(rng, n) if step % 2 == 0 else {t: f * 1.001 for t, f in flows.items()}
        _assert_identical(term(_as_sets(flows), with_grad), ref(_as_sets(flows), with_grad), with_grad)


def test_masked_chamfer_matches_reference_on_nan_flow_without_target():
    # A dynamic row's flow at an offset whose Chamfer term is off enters
    # neither the value nor the gradient, even when it is not finite.
    rng = np.random.default_rng(15)
    clouds, masks = _chamfer_scene(rng, "mixed")
    term, ref = MaskedChamfer(clouds, masks, OFFSETS), RefMaskedChamfer(clouds, masks, OFFSETS)
    flows = _flows(rng, len(clouds[0]))
    flows[-1][ref.dyn_idx[:2]] = np.nan
    _assert_identical(term(_as_sets(flows), True), ref(_as_sets(flows), True), True)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("labels", ["with-unlabeled", "all-labeled", "none-labeled"])
@pytest.mark.parametrize("with_grad", [False, True], ids=["value", "grad"])
def test_rigidity_matches_reference(labels, weighted, with_grad):
    rng = np.random.default_rng(12)
    n, n_r = 70, 5
    lab = {
        "with-unlabeled": rng.integers(-1, n_r, size=n),
        "all-labeled": rng.integers(0, n_r, size=n),
        "none-labeled": np.full(n, -1),
    }[labels].astype(np.int32)
    pieces = RigidPieces(0, lab, 0 if labels == "none-labeled" else n_r)
    m = rng.uniform(0.5, 7.0, size=n) if weighted else 1.0
    term, ref = Rigidity(pieces, m), RefRigidity(pieces, m)
    for _ in range(3):
        flows = _flows(rng, n)
        _assert_identical(term(_as_sets(flows), with_grad), ref(_as_sets(flows), with_grad), with_grad)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("offsets", [OFFSETS, (1, 2), (-2, -1, 1, 2, 3)])
@pytest.mark.parametrize("n", [1, 80])  # one row: a last-bit change shows in the value
@pytest.mark.parametrize("with_grad", [False, True], ids=["value", "grad"])
def test_temporal_consistency_matches_reference(offsets, weighted, n, with_grad):
    rng = np.random.default_rng(13)
    fs = FrameSet(offsets=offsets)
    m = rng.uniform(0.5, 7.0, size=n) if weighted else 1.0
    term, ref = TemporalConsistency(fs, n, m), RefTemporalConsistency(fs, n, m)
    for _ in range(10):
        flows = {t: rng.normal(scale=0.3, size=(n, 3)) for t in offsets}
        flows[offsets[-1]][:4] = 0.0
        _assert_identical(term(_as_sets(flows), with_grad), ref(_as_sets(flows), with_grad), with_grad)


def test_cell_space_terms_match_reference(one_box):
    """The terms as the optimizer sets them up, on a real scene's units."""
    from bevss.optimizer import OptimConfig, cell_space, prepare_supervision

    bundle = prepare_supervision(one_box)
    space = cell_space(bundle, OptimConfig())
    mc, pr, tc = space.mc, space.pr, space.tc
    n = len(space.rows)
    status = np.full(n, STATIC, dtype=np.uint8)
    status[mc.dyn_idx] = DYNAMIC
    m = np.ones(n)
    m[mc.stat_idx] = mc.m_stat[:, 0]
    points0 = np.zeros((n, 3))
    points0[mc.dyn_idx] = mc.dyn_points
    clouds = {0: PointCloud(0, points0)}
    masks = {0: StaticDynamicMask(0, status)}
    for t in OFFSETS:
        target = mc.targets[t].points
        clouds[t] = PointCloud(t, target)
        masks[t] = StaticDynamicMask(t, np.full(len(target), DYNAMIC, dtype=np.uint8))
    labels = np.full(n, -1, dtype=np.int32)
    labels[pr.valid] = pr.lab
    refs = (
        RefMaskedChamfer(clouds, masks, OFFSETS, m),
        RefRigidity(RigidPieces(0, labels, pr.n_r), m),
        RefTemporalConsistency(FrameSet(offsets=OFFSETS), n, m),
    )
    rng = np.random.default_rng(14)
    flows = _flows(rng, n, zero_rows=n // 3)
    for term, ref in zip((mc, pr, tc), refs):
        _assert_identical(term(_as_sets(flows), True), ref(_as_sets(flows), True), True)
