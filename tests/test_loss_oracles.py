"""Bit-identity of the prepared loss terms against reference formulas.

The reference classes below restate MaskedChamfer, Rigidity and
TemporalConsistency in their plainest form: (n, 1) weight columns that
broadcast against (n, 3) flows, a zeroed gradient with the static rows
assigned by index, and a stacked (T, N, 3) velocity array. The terms in
src/ arrange the same arithmetic for speed; their values must be equal
(==) and their gradients np.array_equal to these references.

A term's value path also takes a stack of flow sets (leading axes before
the (N, 3) flows); each value of a stack must equal (==) that of a call
on its set alone.
"""

import numpy as np
import pytest

from bevss.grid import FrameSet, PointCloud, PointFlowSet
from bevss.losses import (
    MaskedChamfer,
    Rigidity,
    TemporalConsistency,
    _chamfer,
    chamfer_pairs,
    smoothness,
    smoothness_neighbors,
)
from bevss.masks import DYNAMIC, STATIC, UNKNOWN, StaticDynamicMask
from bevss.pieces import RigidPieces

OFFSETS = (-1, 1, 2)


class RefMaskedChamfer:
    def __init__(self, clouds, masks, offsets):
        self.offsets = tuple(sorted(offsets))
        dyn0 = masks[0].status == DYNAMIC
        self.n0 = len(clouds[0])
        self.dyn_idx = np.flatnonzero(dyn0)
        self.stat_idx = np.flatnonzero(~dyn0)
        self.n_stat = float(self.stat_idx.size)
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
                g[self.stat_idx] = np.sign(fs) / self.n_stat

            if t in self.targets:
                warped = self.dyn_points + f[self.dyn_idx]
                nn = chamfer_pairs(warped, self.targets[t])
                cd, cd_grad = _chamfer(warped, self.targets[t], nn, "a" if with_grad else "")
                value += cd
                if with_grad:
                    g[self.dyn_idx] += cd_grad["a"]

            if self.stat_idx.size:
                value += float(np.abs(fs).sum()) / self.n_stat
            if with_grad:
                g /= n_off
                grads[t] = g

        value /= n_off
        return value, grads


class RefRigidity:
    def __init__(self, pieces):
        labels = pieces.labels
        self.n_r = pieces.piece_count
        self.valid = np.flatnonzero(labels >= 0)
        self.lab = labels[self.valid]
        self.counts = np.bincount(self.lab, minlength=self.n_r)
        self.lab_counts = self.counts[self.lab, None]
        self.w = (1.0 / (self.n_r * self.counts[self.lab]))[:, None]
        self.bins = (3 * self.lab[:, None] + np.arange(3)).ravel()

    def _piece_sums(self, x):
        sums = np.bincount(self.bins, weights=x.ravel(), minlength=3 * self.n_r)
        return sums.reshape(self.n_r, 3)

    def __call__(self, flows, with_grad=False):
        value = 0.0
        grads = {}
        for t, fl in sorted(flows.items()):
            f = np.take(fl.flows, self.valid, axis=0)
            means = self._piece_sums(f) / self.counts[:, None]
            dev = f - np.take(means, self.lab, axis=0)
            value += float((self.w * np.abs(dev)).sum())
            if with_grad:
                s = np.sign(dev)
                piece_s = np.take(self._piece_sums(s), self.lab, axis=0)
                g = np.zeros((len(fl), 3))
                g[self.valid] = self.w * (s - piece_s / self.lab_counts)
                g /= len(flows)
                grads[t] = g

        value /= len(flows)
        return value, grads


class RefTemporalConsistency:
    def __init__(self, frame_set, n):
        self.offsets = tuple(sorted(frame_set.offsets))
        self.n = float(n)

    def __call__(self, flows, with_grad=False):
        n_t = len(self.offsets)
        vel = np.stack([flows[t].flows / t for t in self.offsets])
        vbar = vel.mean(axis=0)
        x = vbar[None] - vel
        value = float(np.abs(x).sum()) / (self.n * n_t)
        if not with_grad:
            return value, {}
        s = np.sign(x)
        s_sum = s.sum(axis=0)
        grads = {}
        for k, t in enumerate(self.offsets):
            grads[t] = (s_sum / (n_t * t) - s[k] / t) / (self.n * n_t)
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


def _unit_ids(names):
    """Case ids ending in "unit": every row of these terms weighs 1."""
    return [f"{name}-unit" for name in names]


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


@pytest.mark.parametrize("kind", ["mixed", "plain", "static"], ids=_unit_ids(["mixed", "plain", "static"]))
@pytest.mark.parametrize("with_grad", [False, True], ids=["value", "grad"])
def test_masked_chamfer_matches_reference(kind, with_grad):
    rng = np.random.default_rng(11)
    clouds, masks = _chamfer_scene(rng, kind)
    term = MaskedChamfer(clouds, masks, OFFSETS)
    ref = RefMaskedChamfer(clouds, masks, OFFSETS)
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


LABELS = ["with-unlabeled", "all-labeled", "none-labeled", "empty-piece"]


def _pieces(rng, kind, n, n_r):
    """RigidPieces of n points with labels of one kind."""
    lab = {
        "with-unlabeled": rng.integers(-1, n_r, size=n),
        "all-labeled": rng.integers(0, n_r, size=n),
        "none-labeled": np.full(n, -1),
    }
    # Piece id 2 has no points; it still counts in the piece count.
    lab["empty-piece"] = np.where(lab["with-unlabeled"] == 2, 0, lab["with-unlabeled"])
    return RigidPieces(0, lab[kind].astype(np.int32), 0 if kind == "none-labeled" else n_r)


@pytest.mark.parametrize("labels", LABELS, ids=_unit_ids(LABELS))
@pytest.mark.parametrize("with_grad", [False, True], ids=["value", "grad"])
def test_rigidity_matches_reference(labels, with_grad):
    rng = np.random.default_rng(12)
    pieces = _pieces(rng, labels, 70, 5)
    term, ref = Rigidity(pieces), RefRigidity(pieces)
    for _ in range(3):
        flows = _flows(rng, 70)
        # The reference takes the 0/0 mean of an empty piece, which no point reads.
        with np.errstate(invalid="ignore"):
            expected = ref(_as_sets(flows), with_grad)
        _assert_identical(term(_as_sets(flows), with_grad), expected, with_grad)


@pytest.mark.parametrize(
    "offsets", [OFFSETS, (1, 2), (-2, -1, 1, 2, 3)], ids=_unit_ids(["offsets0", "offsets1", "offsets2"])
)
@pytest.mark.parametrize("n", [1, 80])  # one row: a last-bit change shows in the value
@pytest.mark.parametrize("with_grad", [False, True], ids=["value", "grad"])
def test_temporal_consistency_matches_reference(offsets, n, with_grad):
    rng = np.random.default_rng(13)
    fs = FrameSet(offsets=offsets)
    term, ref = TemporalConsistency(fs), RefTemporalConsistency(fs, n)
    for _ in range(10):
        flows = {t: rng.normal(scale=0.3, size=(n, 3)) for t in offsets}
        flows[offsets[-1]][:4] = 0.0
        _assert_identical(term(_as_sets(flows), with_grad), ref(_as_sets(flows), with_grad), with_grad)


def test_cell_space_terms_match_reference(one_box):
    """The terms as the optimizer sets them up: one row per frame-0 point."""
    from bevss.optimizer import OptimConfig, cell_space, prepare_supervision

    bundle = prepare_supervision(one_box)
    space = cell_space(bundle, OptimConfig())
    n = len(bundle.clouds[0])
    assert space.flat.shape == (n, 3)
    refs = (
        RefMaskedChamfer(bundle.clouds, bundle.pseudo_masks, OFFSETS),
        RefRigidity(bundle.pieces),
        RefTemporalConsistency(FrameSet(offsets=OFFSETS), n),
    )
    rng = np.random.default_rng(14)
    flows = _flows(rng, n, zero_rows=n // 3)
    for term, ref in zip((space.mc, space.pr, space.tc), refs):
        _assert_identical(term(_as_sets(flows), True), ref(_as_sets(flows), True), True)


# --- stacks of flow sets ----------------------------------------------------

LEADS = [(6,), (2, 3)]


def _stack(sets, lead):
    """One flow set per offset that stacks its flows from every dict in sets."""
    return {
        t: PointFlowSet(t, np.stack([s[t] for s in sets]).reshape(*lead, *f.shape))
        for t, f in sets[0].items()
    }


def _assert_stack_matches_single_calls(call, sets, lead):
    values = call(_stack(sets, lead)).value
    singles = [call(_as_sets(s)).value for s in sets]
    assert all(type(v) is float for v in singles)
    assert values.shape == lead
    assert np.array_equal(values.ravel(), singles)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("kind", ["mixed", "plain", "static"])
def test_stacked_masked_chamfer_values_equal_single_calls(kind, lead):
    # In every kind offset -1 has no dynamic target; "plain" has no static
    # rows and "static" no dynamic ones.
    rng = np.random.default_rng(16)
    clouds, masks = _chamfer_scene(rng, kind, n=200)
    term = MaskedChamfer(clouds, masks, OFFSETS)
    sets = [_flows(rng, 200) for _ in range(6)]
    pairs = term.pairs(_as_sets(sets[0]))
    _assert_stack_matches_single_calls(lambda flows: term(flows, pairs=pairs), sets, lead)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("labels", LABELS)
def test_stacked_rigidity_values_equal_single_calls(labels, lead):
    rng = np.random.default_rng(17)
    term = Rigidity(_pieces(rng, labels, 70, 5))
    _assert_stack_matches_single_calls(term, [_flows(rng, 70) for _ in range(6)], lead)


@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("offsets", [(-1, 1), OFFSETS, (-2, -1, 1, 2, 3)], ids=["2", "3", "5"])
def test_stacked_temporal_consistency_values_equal_single_calls(offsets, lead):
    rng = np.random.default_rng(18)
    term = TemporalConsistency(FrameSet(offsets=offsets))
    sets = [{t: rng.normal(scale=0.3, size=(80, 3)) for t in offsets} for _ in range(6)]
    _assert_stack_matches_single_calls(term, sets, lead)


@pytest.mark.parametrize("lead", LEADS)
def test_stacked_smoothness_values_equal_single_calls(lead):
    rng = np.random.default_rng(19)
    cloud = PointCloud(0, rng.normal(size=(60, 3)))
    nbr = smoothness_neighbors(cloud.points, 4)
    sets = [{1: rng.normal(size=(60, 3))} for _ in range(6)]

    def call(flows):
        return smoothness(cloud, flows[1], k=4, neighbors=nbr)

    _assert_stack_matches_single_calls(call, sets, lead)


@pytest.mark.parametrize("side", [0, 1])
def test_stacked_chamfer_operand_values_equal_single_calls(side):
    rng = np.random.default_rng(20)
    a, b = rng.normal(size=(50, 3)), rng.normal(size=(40, 3))
    pairs = chamfer_pairs(a, b)
    probes = [x + rng.normal(scale=0.01, size=x.shape) for x in [(a, b)[side]] * 6]

    def value(x):
        return _chamfer(x, b, pairs)[0] if side == 0 else _chamfer(a, x, pairs)[0]

    assert np.array_equal(value(np.stack(probes)), [value(x) for x in probes])


def test_stacked_flows_take_no_gradient():
    rng = np.random.default_rng(21)
    clouds, masks = _chamfer_scene(rng, "mixed")
    flows = _flows(rng, len(clouds[0]))
    stack = _stack([flows, flows], (2,))
    mc = MaskedChamfer(clouds, masks, OFFSETS)
    pairs = mc.pairs(_as_sets(flows))
    cloud = PointCloud(0, rng.normal(size=(len(clouds[0]), 3)))
    calls = [
        lambda: mc(stack, with_grad=True, pairs=pairs),
        lambda: Rigidity(_pieces(rng, "with-unlabeled", len(clouds[0]), 5))(stack, with_grad=True),
        lambda: TemporalConsistency(FrameSet(offsets=OFFSETS))(stack, with_grad=True),
        lambda: smoothness(cloud, stack[1], k=4, with_grad=True),
        lambda: _chamfer(stack[1].flows, cloud.points, chamfer_pairs(flows[1], cloud.points), "a"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not a stack"):
            call()


def test_stacked_masked_chamfer_needs_pairs():
    rng = np.random.default_rng(22)
    clouds, masks = _chamfer_scene(rng, "mixed")
    flows = _flows(rng, len(clouds[0]))
    with pytest.raises(ValueError, match="pairs"):
        MaskedChamfer(clouds, masks, OFFSETS)(_stack([flows, flows], (2,)))
