"""Loss values on hand-computed instances, plus input validation."""

import numpy as np
import pytest

from bevss.grid import FrameSet, PointCloud, PointFlowSet
from bevss.losses import (
    LossWeights,
    MaskedChamfer,
    Rigidity,
    TemporalConsistency,
    chamfer,
    chamfer_pairs,
    rigidity,
    smoothness,
    smoothness_neighbors,
    temporal_consistency,
)
from bevss.masks import DYNAMIC, STATIC, UNKNOWN, StaticDynamicMask
from bevss.pieces import RigidPieces

OFFSETS = (-1, 1, 2)


def flow_sets(arrays):
    return {t: PointFlowSet(t, a) for t, a in arrays.items()}


def masked_chamfer(clouds, masks, flows, with_grad=False):
    """MaskedChamfer over the offsets of flows, set up and evaluated once."""
    return MaskedChamfer(clouds, masks, flows)(flows, with_grad)


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_mc=-0.1)


@pytest.mark.parametrize("field", ["lambda_mc", "lambda_pr", "lambda_tc"])
@pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
def test_weights_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        LossWeights(**{field: value})


def test_chamfer_hand_computed():
    a = PointCloud(0, np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    b = PointCloud(1, np.array([[0.5, 0.0, 0.0]]))
    # a->b: 0.25 + 2.25; b->a: 0.25 (nearest is the first point of a).
    assert chamfer(a, b).value == pytest.approx(2.75)


def test_chamfer_is_symmetric(rng):
    a = PointCloud(0, rng.normal(size=(30, 3)))
    b = PointCloud(1, rng.normal(size=(40, 3)))
    assert chamfer(a, b).value == pytest.approx(chamfer(b, a).value)


def test_chamfer_rejects_empty():
    a = PointCloud(0, np.zeros((0, 3)))
    b = PointCloud(1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        chamfer(a, b)


def test_chamfer_gradient_scatter_matches_add_at(rng):
    # Many rows of each operand share a neighbor, so the scatter adds
    # several terms into one row, in input order, as np.add.at does.
    a, b = rng.normal(size=(30, 3)), rng.normal(size=(12, 3))
    a_to_b = rng.integers(0, 3, size=30)
    b_to_a = rng.integers(0, 4, size=12)
    res = chamfer(PointCloud(0, a), PointCloud(1, b), with_grad=True, pairs=(a_to_b, b_to_a))
    da, db = a - b[a_to_b], b - a[b_to_a]
    ga, gb = 2.0 * da, 2.0 * db
    np.add.at(ga, b_to_a, -2.0 * db)
    np.add.at(gb, a_to_b, -2.0 * da)
    assert np.array_equal(res.grad["a"], ga) and np.array_equal(res.grad["b"], gb)


def test_chamfer_pairs_map_to_nearest(rng):
    a = rng.normal(size=(25, 3))
    b = rng.normal(size=(35, 3))
    a_to_b, b_to_a = chamfer_pairs(a, b)
    d = np.linalg.norm(a[:, None] - b[None], axis=2)
    np.testing.assert_array_equal(a_to_b, d.argmin(axis=1))
    np.testing.assert_array_equal(b_to_a, d.argmin(axis=0))


def test_masked_chamfer_static_penalty_only():
    # All points pseudo-static: the loss reduces to the mean L1 flow norm
    # per offset, averaged over offsets.
    pts = np.zeros((4, 3))
    clouds = {t: PointCloud(t, pts) for t in (0, *OFFSETS)}
    masks = {t: StaticDynamicMask(t, np.full(4, STATIC, dtype=np.uint8)) for t in (0, *OFFSETS)}
    flows = {}
    for t in OFFSETS:
        f = np.zeros((4, 3))
        f[0] = (1.0, 2.0, 0.0)  # L1 norm 3 on one of four points
        flows[t] = f
    res = masked_chamfer(clouds, masks, flow_sets(flows))
    assert res.value == pytest.approx(3.0 / 4.0)


def test_masked_chamfer_unknown_counts_as_static():
    pts = np.zeros((2, 3))
    clouds = {t: PointCloud(t, pts) for t in (0, *OFFSETS)}
    status = np.array([STATIC, UNKNOWN], dtype=np.uint8)
    masks = {t: StaticDynamicMask(t, status) for t in (0, *OFFSETS)}
    flows = {t: np.ones((2, 3)) for t in OFFSETS}
    res = masked_chamfer(clouds, masks, flow_sets(flows))
    assert res.value == pytest.approx(3.0)  # both points pay the static penalty


def test_masked_chamfer_dynamic_term_hand_computed():
    # One dynamic point per frame; warped by the exact displacement the
    # Chamfer term vanishes, and only the static penalty of point 1 stays.
    p0 = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 0.0]])
    clouds = {0: PointCloud(0, p0)}
    masks = {0: StaticDynamicMask(0, np.array([DYNAMIC, STATIC], dtype=np.uint8))}
    flows = {}
    for t in OFFSETS:
        moved = p0.copy()
        moved[0, 0] += t * 1.0
        clouds[t] = PointCloud(t, moved)
        masks[t] = StaticDynamicMask(t, np.array([DYNAMIC, STATIC], dtype=np.uint8))
        f = np.zeros((2, 3))
        f[0, 0] = t * 1.0
        flows[t] = f
    res = masked_chamfer(clouds, masks, flow_sets(flows))
    assert res.value == pytest.approx(0.0, abs=1e-12)

    # Warping 0.1 m short leaves squared distance 0.01 in both directions.
    short = {t: f * 0.9 for t, f in flows.items()}
    res2 = masked_chamfer(clouds, masks, flow_sets(short))
    expected = np.mean([2 * (0.1 * abs(t)) ** 2 for t in OFFSETS])
    assert res2.value == pytest.approx(expected)


def test_masked_chamfer_validation():
    clouds = {0: PointCloud(0, np.zeros((2, 3)))}
    masks = {0: StaticDynamicMask(0, np.zeros(2, dtype=np.uint8))}
    with pytest.raises(ValueError):
        masked_chamfer({}, masks, {})
    with pytest.raises(ValueError):
        masked_chamfer(clouds, masks, {1: PointFlowSet(1, np.zeros((3, 3)))})
    with pytest.raises(ValueError):
        masked_chamfer(clouds, masks, {1: PointFlowSet(1, np.zeros((2, 3)))})
    full_clouds = {**clouds, 1: clouds[0]}
    full_masks = {**masks, 1: StaticDynamicMask(1, np.zeros(2, dtype=np.uint8))}
    with pytest.raises(ValueError, match="flow length"):
        masked_chamfer(full_clouds, full_masks, {1: PointFlowSet(1, np.zeros((3, 3)))})
    with pytest.raises(ValueError, match="flow offsets"):
        MaskedChamfer(full_clouds, full_masks, (1,))({2: PointFlowSet(2, np.zeros((2, 3)))})


def test_rigidity_hand_computed():
    # One piece of two points deviating +/-1 in x from their mean, one
    # singleton piece. Weight 1/(N_r |R_j|) with N_r = 2.
    labels = np.array([0, 0, 1, -1], dtype=np.int32)
    pieces = RigidPieces(0, labels, 2)
    f = np.zeros((4, 3))
    f[0, 0] = 1.0
    f[1, 0] = -1.0
    f[3] = 100.0  # unlabeled: ignored
    flows = {1: PointFlowSet(1, f)}
    # Deviations: piece 0 -> |1| + |-1| at weight 1/(2*2); piece 1 -> 0.
    assert rigidity(pieces, flows).value == pytest.approx(0.5)


def test_rigidity_averages_over_frames():
    labels = np.array([0, 0], dtype=np.int32)
    pieces = RigidPieces(0, labels, 1)
    dev = np.zeros((2, 3))
    dev[0, 1] = 2.0  # mean 1, deviations +/-1 -> sum 2 at weight 1/2
    flows = {1: PointFlowSet(1, dev), 2: PointFlowSet(2, np.zeros((2, 3)))}
    assert rigidity(pieces, flows).value == pytest.approx(0.5)


def test_rigidity_piece_sums_match_per_column_bincount(rng):
    labels = rng.integers(-1, 6, size=60).astype(np.int32)
    term = Rigidity(RigidPieces(0, labels, 6))
    x = rng.normal(size=(term.lab.size, 3))
    ref = np.stack([np.bincount(term.lab, weights=x[:, c], minlength=6) for c in range(3)], axis=1)
    np.testing.assert_array_equal(term._piece_sums(x), ref)


def test_rigidity_empty_pieces_is_zero():
    pieces = RigidPieces(0, np.full(3, -1, dtype=np.int32), 0)
    flows = {1: PointFlowSet(1, np.ones((3, 3)))}
    res = rigidity(pieces, flows, with_grad=True)
    assert res.value == 0.0
    assert np.all(res.grad[1] == 0.0)


def test_temporal_consistency_hand_computed():
    # Velocities per frame: v(-1) = (1,0,0) from flow (-1,0,0); v(1) = (1,0,0);
    # v(2) = (4,0,0) from flow (8,0,0). Mean velocity (2,0,0); |dev| = 1+1+2.
    flows = {
        -1: PointFlowSet(-1, np.array([[-1.0, 0.0, 0.0]])),
        1: PointFlowSet(1, np.array([[1.0, 0.0, 0.0]])),
        2: PointFlowSet(2, np.array([[8.0, 0.0, 0.0]])),
    }
    res = temporal_consistency(flows, FrameSet(offsets=OFFSETS))
    assert res.value == pytest.approx(4.0 / 3.0)


def test_temporal_consistency_validation():
    with pytest.raises(ValueError):
        temporal_consistency({1: PointFlowSet(1, np.zeros((2, 3)))}, FrameSet())
    with pytest.raises(ValueError):
        temporal_consistency(
            {0: PointFlowSet(0, np.zeros((2, 3))), 1: PointFlowSet(1, np.zeros((2, 3)))},
            FrameSet(),
        )
    with pytest.raises(ValueError, match="at least two offsets"):
        temporal_consistency({1: PointFlowSet(1, np.zeros((2, 3)))}, FrameSet(offsets=(1,)))


def test_temporal_consistency_reads_its_frame_set():
    flows = {t: PointFlowSet(t, np.full((2, 3), float(t))) for t in (1, 2)}
    assert temporal_consistency(flows, FrameSet(offsets=(2, 1))).value == 0.0
    with pytest.raises(ValueError, match="frame set"):
        temporal_consistency(flows, FrameSet(offsets=(1, 2, 3)))
    with pytest.raises(ValueError, match="frame set"):
        temporal_consistency(flows, FrameSet(offsets=(-1, 1)))


def test_smoothness_hand_computed():
    # Three collinear points; k=2 makes every other point a neighbor.
    cloud = PointCloud(0, np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
    f = np.zeros((3, 3))
    f[2, 0] = 1.0
    res = smoothness(cloud, PointFlowSet(1, f), k=2)
    # Pairwise squared diffs: (0-0), (0-1), (1-0), (1-0), (0-1), (0-0) -> 4, / k=2.
    assert res.value == pytest.approx(2.0)


def test_smoothness_validation():
    cloud = PointCloud(0, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        smoothness(cloud, PointFlowSet(1, np.zeros((3, 3))), k=3)
    with pytest.raises(ValueError):
        smoothness(cloud, PointFlowSet(1, np.zeros((4, 3))), k=2)


def test_smoothness_with_fixed_neighbors_is_unchanged(rng):
    cloud = PointCloud(0, rng.normal(size=(40, 3)))
    flows = PointFlowSet(1, rng.normal(size=(40, 3)))
    nbr = smoothness_neighbors(cloud.points, 5)
    assert nbr.shape == (40, 5) and not (nbr == np.arange(40)[:, None]).any()
    ref = smoothness(cloud, flows, k=5, with_grad=True)
    res = smoothness(cloud, flows, k=5, with_grad=True, neighbors=nbr)
    assert res.value == ref.value
    np.testing.assert_array_equal(res.grad[1], ref.grad[1])
    with pytest.raises(ValueError):
        smoothness(cloud, flows, k=4, neighbors=nbr)


def test_prebuilt_target_trees_change_nothing(rng):
    # The term's pairs come from its prebuilt target trees.
    clouds, masks, flows = _weighted_scene(rng)
    term = MaskedChamfer(clouds, masks, OFFSETS)
    pairs = term.pairs(flow_sets(flows))
    for t in OFFSETS:
        dyn0 = masks[0].status == DYNAMIC
        warped = clouds[0].points[dyn0] + flows[t][dyn0]
        target = clouds[t].points[masks[t].status == DYNAMIC]
        for ref, res in zip(chamfer_pairs(warped, target), pairs[t]):
            np.testing.assert_array_equal(res, ref)
    ref = masked_chamfer(clouds, masks, flow_sets(flows), with_grad=True)
    _assert_same(term(flow_sets(flows), with_grad=True), ref)


def _assert_same(res, ref):
    assert res.value == ref.value
    assert res.grad.keys() == ref.grad.keys()
    for t in ref.grad:
        np.testing.assert_array_equal(res.grad[t], ref.grad[t])


def test_terms_equal_public_functions_on_successive_flows(rng):
    # Cached setup arrays must survive evaluation: the first flow set,
    # evaluated again after a second one, gives the fresh result.
    clouds, masks, _ = _weighted_scene(rng)
    n = len(clouds[0])
    pieces = RigidPieces(0, rng.integers(-1, 4, size=n).astype(np.int32), 4)
    fs = FrameSet(offsets=OFFSETS)
    terms = [
        (MaskedChamfer(clouds, masks, OFFSETS), lambda f: masked_chamfer(clouds, masks, f, True)),
        (Rigidity(pieces), lambda f: rigidity(pieces, f, True)),
        (TemporalConsistency(fs, n), lambda f: temporal_consistency(f, fs, True)),
    ]
    first = {t: rng.normal(scale=0.3, size=(n, 3)) for t in OFFSETS}
    second = {t: rng.normal(scale=0.3, size=(n, 3)) for t in OFFSETS}
    for term, call in terms:
        for flows in (first, second, first):
            _assert_same(term(flow_sets(flows), with_grad=True), call(flow_sets(flows)))


def test_masked_chamfer_with_its_own_pairs_is_unchanged(rng):
    clouds, masks, flows = _weighted_scene(rng)
    term = MaskedChamfer(clouds, masks, OFFSETS)
    pairs = term.pairs(flow_sets(flows))
    assert set(pairs) == set(OFFSETS)
    assert term(flow_sets(flows), pairs=pairs).value == term(flow_sets(flows)).value
    _assert_same(term(flow_sets(flows), True, pairs), term(flow_sets(flows), True))


# --- certified reuse of the Chamfer pairs between calls -------------------


def _dynamic_term(points0, targets):
    """MaskedChamfer with every point dynamic; targets maps offset -> points."""
    clouds = {0: PointCloud(0, points0), **{t: PointCloud(t, p) for t, p in targets.items()}}
    masks = {t: StaticDynamicMask(t, np.full(len(c), DYNAMIC, dtype=np.uint8)) for t, c in clouds.items()}
    return MaskedChamfer(clouds, masks, tuple(targets))


def _assert_pairs_fresh(term, flows, via_call=False):
    """The term's pairs at flows equal fresh chamfer_pairs. via_call moves
    the term there by a call without pairs, otherwise by pairs()."""
    ref = {t: chamfer_pairs(term.dyn_points + flows[t], term.nn[t].b) for t in flows}
    if via_call:
        _assert_same(term(flow_sets(flows), True), term(flow_sets(flows), True, ref))
    got = term.pairs(flow_sets(flows))
    assert got.keys() == ref.keys()
    for t in ref:
        assert all(np.array_equal(g, r) for g, r in zip(got[t], ref[t]))


def test_certified_pairs_equal_fresh_pairs_after_every_call(rng):
    # Dense enough that small steps change some neighbors.
    n = 300
    term = _dynamic_term(rng.random(size=(n, 3)), {t: rng.random(size=(n, 3)) for t in OFFSETS})
    first = {t: rng.normal(scale=0.05, size=(n, 3)) for t in OFFSETS}
    flows = {t: f.copy() for t, f in first.items()}
    _assert_pairs_fresh(term, flows)
    for i in range(30):  # small steps: most pairs certified, some change
        for t in OFFSETS:
            flows[t] = flows[t] + rng.normal(scale=0.01, size=(n, 3))
        _assert_pairs_fresh(term, flows, via_call=i % 2 == 1)
    jump = {t: f + rng.normal(scale=0.5, size=(n, 3)) for t, f in flows.items()}
    _assert_pairs_fresh(term, jump, via_call=True)
    _assert_pairs_fresh(term, first)  # back to the first flow set


def test_certified_pairs_on_exact_ties():
    # Duplicated target points and coincident warped points on a grid:
    # every distance is exact and many tie, where a k=2 query may list the
    # tied points in another order than a k=1 query returns.
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    target = np.concatenate([grid, grid[::-1]])
    points0 = np.concatenate([grid, grid]) + 0.5
    term = _dynamic_term(points0, {t: target for t in OFFSETS})
    for step in (0.0, 0.25, 0.5, 0.25, 0.0, 0.0):
        shift = np.tile([step, 0.0, -step], (len(points0), 1))
        _assert_pairs_fresh(term, {t: t * shift for t in OFFSETS})


def test_certificates_keep_a_margin_for_rounding(rng):
    # Each case moves a point onto an exact tie by a step for which the
    # certificate's bound holds with equality in exact arithmetic; rounding
    # can make it hold strictly. Of two tied neighbors a fresh query returns
    # the one of lower index, placed where the certificate would not look.
    for _ in range(50):
        m = rng.uniform(0.1, 1.0)
        # a->b: from x0 to m, the midpoint of target points 2m and 0.
        term = _dynamic_term(np.zeros((1, 3)), {1: np.array([[2 * m, 0, 0], [0, 0, 0]])})
        for x in (rng.uniform(0.0, m), m):
            _assert_pairs_fresh(term, {1: np.array([[x, 0.0, 0.0]])})
        # b->a: warped point 0 moves from e to m, tying with warped point 1
        # at -m as seen from the target point at 0.
        term = _dynamic_term(np.zeros((2, 3)), {1: np.zeros((1, 3))})
        for x in (rng.uniform(m, 3.0), m):
            _assert_pairs_fresh(term, {1: np.array([[x, 0.0, 0.0], [-m, 0.0, 0.0]])})


def test_repeated_flows_reuse_every_pair(rng, monkeypatch):
    clouds, masks, flows = _weighted_scene(rng)
    term = MaskedChamfer(clouds, masks, OFFSETS)
    ref = term.pairs(flow_sets(flows))

    def no_query(*args):
        raise AssertionError("a certified pair was queried again")

    monkeypatch.setattr("bevss.losses._nearest", no_query)
    for got in (term.pairs(flow_sets(flows)), term.pairs(flow_sets(flows))):
        for t in ref:
            assert all(np.array_equal(g, r) for g, r in zip(got[t], ref[t]))
    term(flow_sets(flows), with_grad=True)


# --- multiplicities: a point with multiplicity k counts as k copies --------


def _weighted_scene(rng, n=40):
    status = rng.choice([STATIC, DYNAMIC, UNKNOWN], size=n, p=[0.6, 0.3, 0.1]).astype(np.uint8)
    clouds = {0: PointCloud(0, rng.normal(size=(n, 3)))}
    masks = {0: StaticDynamicMask(0, status)}
    for t in OFFSETS:
        clouds[t] = PointCloud(t, rng.normal(size=(n + 5, 3)))
        masks[t] = StaticDynamicMask(t, (rng.random(n + 5) < 0.4).astype(np.uint8))
    flows = {t: rng.normal(scale=0.3, size=(n, 3)) for t in OFFSETS}
    return clouds, masks, flows


def _copies(k):
    """Entry index of every copy when entry i is repeated k[i] times."""
    return np.repeat(np.arange(len(k)), k)


def _assert_weighted_equals_expanded(weighted, expanded, k):
    rep = _copies(k)
    assert weighted.value == pytest.approx(expanded.value, rel=1e-12, abs=1e-15)
    for t, g in weighted.grad.items():
        summed = np.zeros_like(g)
        np.add.at(summed, rep, expanded.grad[t])
        np.testing.assert_allclose(g, summed, rtol=1e-12, atol=1e-15)


def test_masked_chamfer_multiplicity_equals_copies(rng):
    clouds, masks, flows = _weighted_scene(rng)
    status = masks[0].status
    k = np.where(status == DYNAMIC, 1, rng.integers(1, 5, size=len(status)))
    rep = _copies(k)
    weighted = MaskedChamfer(clouds, masks, OFFSETS, k)(flow_sets(flows), with_grad=True)
    clouds_x = {**clouds, 0: PointCloud(0, clouds[0].points[rep])}
    masks_x = {**masks, 0: StaticDynamicMask(0, status[rep])}
    flows_x = {t: f[rep] for t, f in flows.items()}
    expanded = masked_chamfer(clouds_x, masks_x, flow_sets(flows_x), with_grad=True)
    _assert_weighted_equals_expanded(weighted, expanded, k)


def test_rigidity_multiplicity_equals_copies(rng):
    n = 40
    labels = rng.integers(-1, 4, size=n).astype(np.int32)
    k = rng.integers(1, 5, size=n)
    flows = {t: rng.normal(size=(n, 3)) for t in OFFSETS}
    rep = _copies(k)
    weighted = Rigidity(RigidPieces(0, labels, 4), k)(flow_sets(flows), True)
    expanded = rigidity(
        RigidPieces(0, labels[rep], 4), flow_sets({t: f[rep] for t, f in flows.items()}), True
    )
    _assert_weighted_equals_expanded(weighted, expanded, k)


def test_temporal_consistency_multiplicity_equals_copies(rng):
    n = 40
    k = rng.integers(1, 5, size=n)
    flows = {t: rng.normal(size=(n, 3)) for t in OFFSETS}
    rep = _copies(k)
    fs = FrameSet(offsets=OFFSETS)
    weighted = TemporalConsistency(fs, n, k)(flow_sets(flows), True)
    expanded = temporal_consistency(flow_sets({t: f[rep] for t, f in flows.items()}), fs, True)
    _assert_weighted_equals_expanded(weighted, expanded, k)


def test_unit_multiplicities_are_bit_identical(rng):
    clouds, masks, flows = _weighted_scene(rng)
    n = len(clouds[0])
    ones = np.ones(n)
    pieces = RigidPieces(0, rng.integers(-1, 4, size=n).astype(np.int32), 4)
    fs = FrameSet(offsets=OFFSETS)
    losses = [
        (
            lambda: masked_chamfer(clouds, masks, flow_sets(flows), True),
            MaskedChamfer(clouds, masks, OFFSETS, ones),
        ),
        (lambda: rigidity(pieces, flow_sets(flows), True), Rigidity(pieces, ones)),
        (lambda: temporal_consistency(flow_sets(flows), fs, True), TemporalConsistency(fs, n, ones)),
    ]
    for loss, term in losses:
        ref, res = loss(), term(flow_sets(flows), True)
        assert res.value == ref.value
        for t in OFFSETS:
            np.testing.assert_array_equal(res.grad[t], ref.grad[t])


@pytest.mark.parametrize("bad", ["short", "zero", "negative", "nan", "dynamic-two", "scalar-zero"])
def test_multiplicity_validation(rng, bad):
    clouds, masks, flows = _weighted_scene(rng)
    n = len(clouds[0])
    k = np.ones(n)
    if bad == "short":
        k = k[:-1]
    elif bad == "scalar-zero":
        k = 0.0
    elif bad == "dynamic-two":
        k[np.flatnonzero(masks[0].status == DYNAMIC)[0]] = 2.0
    else:
        value = {"zero": 0.0, "negative": -1.0, "nan": np.nan}[bad]
        k[np.flatnonzero(masks[0].status == STATIC)[0]] = value
    with pytest.raises(ValueError, match="multiplicit"):
        MaskedChamfer(clouds, masks, OFFSETS, k)
    if bad != "dynamic-two":
        pieces = RigidPieces(0, np.zeros(n, dtype=np.int32), 1)
        with pytest.raises(ValueError, match="multiplicit"):
            Rigidity(pieces, k)
        with pytest.raises(ValueError, match="multiplicit"):
            TemporalConsistency(FrameSet(), n, k)


def test_gradcheck_builds_each_term_once_per_instance(monkeypatch):
    from bevss import gradcheck

    built = {}
    for cls in (MaskedChamfer, Rigidity, TemporalConsistency):
        init = cls.__init__

        def counting_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] = built.get(_name, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    gradcheck.run_all(seed=0, instances=2)
    assert built == {"MaskedChamfer": 2, "Rigidity": 2, "TemporalConsistency": 2}
