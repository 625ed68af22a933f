"""Direct field optimization: supervision prep, descent, and failure modes."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from bevss import synth
from bevss.grid import BevGridSpec, FrameSet, PointCloud, PointFlowSet, cell_indices
from bevss.losses import (
    LossValue,
    LossWeights,
    MaskedChamfer,
    chamfer_pairs,
    rigidity,
    temporal_consistency,
)
from bevss.masks import DYNAMIC, STATIC, UNKNOWN, StaticDynamicMask
from bevss.optimizer import (
    DivergenceError,
    OptimConfig,
    _group_median,
    cell_space,
    field_loss_and_gradients,
    optimize,
    prepare_supervision,
    seed_velocity,
)
from bevss.pieces import RigidPieces

PLAIN = dict(use_mask=False, weights=LossWeights(lambda_pr=0.0, lambda_tc=0.0))


def gather_flows(values, idx, valid):
    """(N, 3) point flows from a (cells_x, cells_y, 2) values array: each
    valid point takes the planar motion of its cell with zero vertical, the
    others (0, 0, 0)."""
    flows = np.zeros((idx.shape[0], 3), dtype=np.float64)
    flows[valid, :2] = values[idx[valid, 0], idx[valid, 1]]
    return flows


def _point_field_loss_and_gradients(bundle, fields, cfg):
    """Reference objective: every loss per frame-0 point on dense fields,
    gradients scattered into cells point by point."""
    cloud0 = bundle.clouds[0]
    idx, valid = cell_indices(cloud0.points, bundle.grid)
    offsets = list(bundle.frame_set.offsets)
    flows = {t: PointFlowSet(t, gather_flows(fields[t], idx, valid)) for t in offsets}
    if cfg.use_mask:
        masks = dict(bundle.pseudo_masks)
    else:
        masks = {
            t: StaticDynamicMask(t, np.full(len(bundle.clouds[t]), DYNAMIC, dtype=np.uint8))
            for t in (0, *offsets)
        }
    w = cfg.weights
    terms = [("mc", w.lambda_mc, MaskedChamfer(bundle.clouds, masks, offsets)(flows, True))]
    if w.lambda_pr > 0:
        terms.append(("pr", w.lambda_pr, rigidity(bundle.pieces, flows, with_grad=True)))
    if w.lambda_tc > 0:
        tc = temporal_consistency(flows, bundle.frame_set, with_grad=True)
        terms.append(("tc", w.lambda_tc, tc))
    components = {"total": sum(lam * part.value for _, lam, part in terms)}
    components.update({"mc": 0.0, "pr": 0.0, "tc": 0.0})
    components.update((name, part.value) for name, _, part in terms)
    cell_grads = {}
    for t in offsets:
        grad = sum(lam * part.grad[t] for _, lam, part in terms)
        g = np.zeros_like(fields[t])
        np.add.at(g, (idx[valid, 0], idx[valid, 1]), grad[valid, :2])
        cell_grads[t] = g
    return components, cell_grads


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(learning_rate=math.nan),
        dict(learning_rate=math.inf),
        dict(convergence_tol=-1e-5),
        dict(convergence_tol=math.nan),
        dict(convergence_tol=math.inf),
    ],
    ids=["lr-nan", "lr-inf", "tol-negative", "tol-nan", "tol-inf"],
)
def test_config_rejects_non_finite_values(kwargs):
    with pytest.raises(ValueError):
        OptimConfig(**kwargs)


def test_config_accepts_zero_tolerance():
    assert OptimConfig(convergence_tol=0.0).convergence_tol == 0.0


@pytest.fixture(scope="module")
def supervised(one_box):
    return prepare_supervision(one_box)


def test_prepare_supervision_fills_masks_and_pieces(supervised):
    for t in supervised.mask_frames:
        assert t in supervised.pseudo_masks
        assert len(supervised.pseudo_masks[t]) == len(supervised.clouds[t])
    assert supervised.pieces is not None
    assert len(supervised.pieces) == len(supervised.clouds[0])
    assert supervised.pieces.piece_count > 0


def test_prepare_supervision_is_idempotent(supervised):
    masks_before = supervised.pseudo_masks[0]
    pieces_before = supervised.pieces
    prepare_supervision(supervised)
    assert supervised.pseudo_masks[0] is masks_before  # existing labels kept
    assert supervised.pieces is pieces_before


def _dense_loss_and_gradients(space, fields):
    """field_loss_and_gradients on dense fields, with dense gradients."""
    components, grads = field_loss_and_gradients(
        space, {t: f[space.cells] for t, f in fields.items()}
    )
    return components, {t: space.dense(g) for t, g in grads.items()}


def test_gradients_at_zero_point_downhill(supervised):
    cfg = OptimConfig(max_iters=1)
    zeros = {
        t: np.zeros((supervised.grid.cells_x, supervised.grid.cells_y, 2))
        for t in supervised.frame_set.offsets
    }
    space = cell_space(supervised, cfg)
    components, grads = _dense_loss_and_gradients(space, zeros)
    assert components["total"] > 0.0
    lr = 1e-3
    stepped = {t: zeros[t] - lr * grads[t] for t in zeros}
    after, _ = _dense_loss_and_gradients(space, stepped)
    assert after["total"] < components["total"]


def _dense_seed(bundle, cfg):
    """The seed velocity of a masked config as a dense field; 0 for plain."""
    space = cell_space(bundle, cfg)
    if not cfg.use_mask:
        return np.zeros((bundle.grid.cells_x, bundle.grid.cells_y, 2))
    return space.dense(seed_velocity(bundle, space))


def _zero_field_loss(bundle, cfg):
    """L0: the objective at zero fields."""
    space = cell_space(bundle, cfg)
    n_occ = space.counts.shape[0]
    zeros = {t: np.zeros((n_occ, 2)) for t in bundle.frame_set.offsets}
    return field_loss_and_gradients(space, zeros)[0]["total"]


def _random_fields(bundle, offsets, seed):
    rng = np.random.default_rng(seed)
    shape = (bundle.grid.cells_x, bundle.grid.cells_y, 2)
    return {t: rng.normal(scale=0.3, size=shape) for t in offsets}


def _assert_matches_point_oracle(bundle, cfg, seed=0):
    space = cell_space(bundle, cfg)
    for fields in (
        {t: np.zeros((bundle.grid.cells_x, bundle.grid.cells_y, 2)) for t in bundle.frame_set.offsets},
        _random_fields(bundle, bundle.frame_set.offsets, seed),
    ):
        components, grads = _dense_loss_and_gradients(space, fields)
        ref_components, ref_grads = _point_field_loss_and_gradients(bundle, fields, cfg)
        assert components == ref_components
        assert grads.keys() == ref_grads.keys()
        for t, ref in ref_grads.items():
            assert np.array_equal(grads[t], ref), f"gradient differs at offset {t}"


def test_cell_space_matches_point_oracle_one_box_full(supervised):
    _assert_matches_point_oracle(supervised, OptimConfig())


def test_cell_space_matches_point_oracle_two_box_plain(two_box):
    _assert_matches_point_oracle(two_box, OptimConfig(**PLAIN))


def _one_box_with_offsets(offsets):
    """Labeled one-box seed 0, made with offsets other than the default (-1, 1, 2)."""
    spec = dataclasses.replace(synth.preset("one-box", seed=0), frame_set=FrameSet(offsets=offsets))
    return prepare_supervision(synth.generate(spec))


@pytest.fixture(scope="module")
def frame_subset():
    return _one_box_with_offsets((1, 2))


@pytest.fixture(scope="module")
def frame_superset():
    return _one_box_with_offsets((-1, 1, 2, 3))


def test_cell_space_matches_point_oracle_frame_subset(frame_subset):
    _assert_matches_point_oracle(frame_subset, OptimConfig())


def test_cell_space_matches_point_oracle_frame_superset(frame_superset):
    _assert_matches_point_oracle(frame_superset, OptimConfig())


def test_cell_space_matches_point_oracle_out_of_grid_points(supervised):
    # A smaller grid leaves frame-0 points of every kind outside it: they
    # keep zero flow but still count in each loss's normalization.
    bundle = copy.copy(supervised)
    bundle.grid = BevGridSpec(x_min=-12.0, x_max=12.0, y_min=-10.0, y_max=10.0, z_min=-1.0)
    _, valid = cell_indices(bundle.clouds[0].points, bundle.grid)
    out = ~valid
    assert out.sum() > 100 and valid.sum() > 100
    assert (bundle.pseudo_masks[0].status[out] == DYNAMIC).any()
    assert (bundle.pseudo_masks[0].status[out] != DYNAMIC).any()
    assert (bundle.pieces.labels[out] >= 0).any()
    _assert_matches_point_oracle(bundle, OptimConfig(), seed=1)
    _assert_matches_point_oracle(bundle, OptimConfig(**PLAIN), seed=2)


def test_cell_space_assigns_cell_motion(one_box, monkeypatch):
    # The flows the terms see: a point in a moving cell takes its planar
    # motion with zero vertical; a zero cell and an out-of-grid point read 0.
    bundle = copy.copy(one_box)
    points = [[0.1, 0.1, 0.0], [10.0, 10.0, 0.0], [100.0, 0.0, 0.0]]
    bundle.clouds = {**one_box.clouds, 0: PointCloud(0, np.array(points))}
    cfg = OptimConfig(**PLAIN)
    space = cell_space(bundle, cfg)
    values = np.zeros((bundle.grid.cells_x, bundle.grid.cells_y, 2))
    values[128, 128] = (1.5, -0.5)  # the cell of the first point
    seen = []
    evaluate = MaskedChamfer.__call__

    def record(self, flows, with_grad=False, pairs=None):
        seen.append(flows)
        return evaluate(self, flows, with_grad, pairs)

    monkeypatch.setattr(MaskedChamfer, "__call__", record)
    field_loss_and_gradients(space, {t: values[space.cells] for t in bundle.frame_set.offsets})
    assert seen[0].keys() == set(bundle.frame_set.offsets)
    for t, flows in seen[0].items():
        assert flows.time_offset == t
        np.testing.assert_array_equal(flows.flows, [[1.5, -0.5, 0.0], [0.0] * 3, [0.0] * 3])


def test_optimize_reduces_loss_and_reports(supervised):
    fields, report = optimize(supervised, OptimConfig(max_iters=40))
    assert report.iterations <= 40
    assert report.trajectory[-1]["total"] < report.trajectory[0]["total"]
    assert set(fields) == {-1, 1, 2}
    for t, fld in fields.items():
        assert fld.time_offset == t
        assert fld.values.shape == (supervised.grid.cells_x, supervised.grid.cells_y, 2)
    assert report.wall_time_s > 0.0


@pytest.mark.parametrize("config", ["full", "no-mask"])
def test_optimize_matches_point_oracle_descent(supervised, config):
    # A few steps of the per-point descent on dense fields: each cell moves
    # by its summed gradient over its frame-0 point count.
    # The full config starts at t times the seed velocity; the no-mask one,
    # plain Chamfer with the default rigidity and temporal terms, at 0.
    cfg = OptimConfig(max_iters=4, use_mask=config == "full")
    spec = supervised.grid
    idx, valid = cell_indices(supervised.clouds[0].points, spec)
    counts = np.zeros((spec.cells_x, spec.cells_y))
    np.add.at(counts, (idx[valid, 0], idx[valid, 1]), 1.0)
    denom = np.maximum(counts, 1.0)[:, :, None]
    velocity = _dense_seed(supervised, cfg)
    assert velocity.any() == (config == "full")
    ref = {t: np.zeros((spec.cells_x, spec.cells_y, 2)) + t * velocity for t in supervised.frame_set.offsets}
    totals = []
    for _ in range(cfg.max_iters):
        components, grads = _point_field_loss_and_gradients(supervised, ref, cfg)
        totals.append(components["total"])
        for t in ref:
            ref[t] -= cfg.learning_rate * grads[t] / denom
    fields, report = optimize(supervised, cfg)
    assert [e["total"] for e in report.trajectory] == totals
    for t in ref:
        assert np.array_equal(fields[t].values, ref[t]), f"field differs at offset {t}"
    # The last update follows the last entry; final is the loss at the
    # returned fields.
    final, _ = _point_field_loss_and_gradients(supervised, ref, cfg)
    assert report.final == final
    assert report.final["total"] != report.trajectory[-1]["total"]


def test_optimize_matches_point_oracle_icp(two_box):
    # The plain objective, solved point by point: at fresh pairs, each
    # cell takes the mean planar offset b[a2b] - a over its in-grid
    # frame-0 points and b - a[b2a] over the targets paired to them,
    # until every offset's pairs repeat. optimize takes each mean as a
    # Newton step from the gradient, so the fields agree to rounding:
    # here to 1.3e-15 m, and the test allows 1e-12 m.
    cfg = OptimConfig(**PLAIN)
    spec, points0 = two_box.grid, two_box.clouds[0].points
    idx, valid = cell_indices(points0, spec)
    ref = {t: np.zeros((spec.cells_x, spec.cells_y, 2)) for t in two_box.frame_set.offsets}
    last, rounds = None, 0
    while rounds < cfg.max_iters:
        pairs = {}
        for t in ref:
            warped = points0 + gather_flows(ref[t], idx, valid)
            pairs[t] = chamfer_pairs(warped, two_box.clouds[t].points)
        rounds += 1
        if last is not None and all(
            np.array_equal(x, y) for t in ref for x, y in zip(pairs[t], last[t])
        ):
            break
        last = pairs
        for t, (a_to_b, b_to_a) in pairs.items():
            target = two_box.clouds[t].points
            sums = np.zeros((spec.cells_x, spec.cells_y, 2))
            counts = np.zeros((spec.cells_x, spec.cells_y))
            cells = (idx[valid, 0], idx[valid, 1])
            np.add.at(sums, cells, (target[a_to_b] - points0)[valid, :2])
            np.add.at(counts, cells, 1.0)
            paired = valid[b_to_a]  # targets whose pair is an in-grid point
            cells = (idx[b_to_a[paired], 0], idx[b_to_a[paired], 1])
            np.add.at(sums, cells, (target - points0[b_to_a])[paired, :2])
            np.add.at(counts, cells, 1.0)
            ref[t] = sums / np.maximum(counts, 1.0)[:, :, None]
    fields, report = optimize(two_box, cfg)
    assert report.stop_reason == "tol" and report.iterations == rounds < cfg.max_iters
    for t in ref:
        np.testing.assert_allclose(fields[t].values, ref[t], rtol=0.0, atol=1e-12)
    final, _ = _point_field_loss_and_gradients(two_box, ref, cfg)
    assert report.final["total"] == pytest.approx(final["total"], rel=1e-12)


def test_plain_solve_never_raises_the_loss_and_stops_at_a_fixed_point(two_box, monkeypatch):
    queried = []
    query = MaskedChamfer.pairs

    def record(self, flows):
        queried.append(query(self, flows))
        return queried[-1]

    monkeypatch.setattr(MaskedChamfer, "pairs", record)
    cfg = OptimConfig(**PLAIN)
    fields, report = optimize(two_box, cfg)
    totals = [e["total"] for e in report.trajectory]
    # ICP: fresh pairs, then the exact minimizer at them, can only lower
    # the loss (here up to rounding, 1e-12 of it).
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(totals, totals[1:]))
    assert totals[-1] < 0.5 * totals[0]
    assert [e["lr"] for e in report.trajectory] == [1.0] * report.iterations
    assert report.stop_reason == "tol" and report.iterations < cfg.max_iters
    assert report.final == {k: report.trajectory[-1][k] for k in ("total", "mc", "pr", "tc")}
    # The last round's pairs repeat those of the round before, and fresh
    # pairs at the returned fields are the same: a fixed point, where the
    # gradient at those pairs is 0 up to rounding.
    assert len(queried) == report.iterations
    points0 = two_box.clouds[0].points
    idx, valid = cell_indices(points0, two_box.grid)
    for t, fld in fields.items():
        fresh = chamfer_pairs(points0 + gather_flows(fld.values, idx, valid), two_box.clouds[t].points)
        for got, prev, again in zip(queried[-1][t], queried[-2][t], fresh):
            np.testing.assert_array_equal(got, prev)
            np.testing.assert_array_equal(got, again)
    assert report.trajectory[-1]["grad_norm"] <= 1e-9 * report.trajectory[0]["grad_norm"]


def test_zero_objective_returns_zero_fields(two_box):
    # lambda_mc = 0 with no mask and no other term: the objective is
    # identically 0, which the descent, not the solve, handles, with no
    # 0/0 (pytest turns a RuntimeWarning into an error).
    cfg = OptimConfig(use_mask=False, weights=LossWeights(0.0, 0.0, 0.0))
    fields, report = optimize(two_box, cfg)
    assert all(not f.values.any() for f in fields.values())
    assert report.final["total"] == 0.0
    assert all(e["total"] == 0.0 and e["grad_norm"] == 0.0 for e in report.trajectory)


def test_trajectory_records_step_size_and_gradient_norm(supervised):
    cfg = OptimConfig(max_iters=102, convergence_tol=0.0)
    _, report = optimize(supervised, cfg)
    lrs = [entry["lr"] for entry in report.trajectory]
    assert lrs[:100] == [0.05] * 100 and lrs[100:] == [0.025] * 2
    velocity = _dense_seed(supervised, cfg)
    seeded = {t: t * velocity for t in supervised.frame_set.offsets}
    _, grads = _point_field_loss_and_gradients(supervised, seeded, cfg)
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert report.trajectory[0]["grad_norm"] == pytest.approx(norm, rel=1e-12)
    assert all(entry["grad_norm"] > 0.0 for entry in report.trajectory)


def test_stop_reason_max_iters(supervised):
    _, report = optimize(supervised, OptimConfig(max_iters=5))
    assert report.stop_reason == "max_iters"
    assert report.iterations == 5 and not report.converged


def test_stop_reason_tol(supervised):
    _, report = optimize(supervised, OptimConfig(max_iters=50, convergence_tol=0.5))
    assert report.stop_reason == "tol"
    assert 11 <= report.iterations < 50 and report.converged
    past, last = report.trajectory[-11]["total"], report.trajectory[-1]["total"]
    assert abs(past - last) <= 0.5 * max(abs(past), _zero_field_loss(supervised, OptimConfig()))
    assert report.final == {k: report.trajectory[-1][k] for k in ("total", "mc", "pr", "tc")}


def test_optimize_respects_frame_subset(frame_subset):
    fields, _ = optimize(frame_subset, OptimConfig())
    assert set(fields) == {1, 2}


def test_optimize_respects_frame_superset(frame_superset):
    fields, _ = optimize(frame_superset, OptimConfig())
    assert set(fields) == {-1, 1, 2, 3}


def test_optimize_diverges_with_huge_learning_rate(supervised):
    with pytest.raises(DivergenceError) as info:
        optimize(supervised, OptimConfig(max_iters=200, learning_rate=500.0))
    assert info.value.report.iterations >= 1
    assert info.value.report.stop_reason == "diverged"
    assert not info.value.report.converged


def test_optimize_non_finite_loss_raises_divergence(supervised, monkeypatch):
    # NaN compares false with any bound, so only an explicit finiteness
    # check can stop the descent.
    calls = []
    evaluate = MaskedChamfer.__call__

    def nan_on_third(self, flows, with_grad=False, pairs=None):
        calls.append(None)
        res = evaluate(self, flows, with_grad, pairs)
        return LossValue(math.nan if len(calls) == 3 else res.value, res.grad)

    monkeypatch.setattr(MaskedChamfer, "__call__", nan_on_third)
    with pytest.raises(DivergenceError, match="not finite") as info:
        optimize(supervised, OptimConfig(max_iters=20))
    report = info.value.report
    # The seeded run's first call evaluates L0, so the third is iteration 1.
    assert report.stop_reason == "diverged" and report.iterations == 2
    assert math.isnan(report.trajectory[-1]["total"]) and math.isnan(report.final["total"])
    assert all(np.isfinite(f.values).all() for f in report.fields.values())


def test_optimize_requires_supervision(one_box):
    import copy

    bare = copy.copy(one_box)
    bare.pseudo_masks = {}
    bare.pieces = None
    with pytest.raises(ValueError, match="frame 0 has no pseudo mask"):
        optimize(bare, OptimConfig())
    with pytest.raises(ValueError, match="pieces"):
        optimize(bare, OptimConfig(use_mask=False))
    # Without masks and without the rigidity term the plain objective runs.
    cfg = OptimConfig(
        max_iters=2, use_mask=False, weights=LossWeights(lambda_pr=0.0, lambda_tc=0.4)
    )
    fields, _ = optimize(bare, cfg)
    assert set(fields) == {-1, 1, 2}


def test_optimize_requires_all_offset_clouds(supervised):
    bundle = copy.copy(supervised)
    bundle.frame_set = FrameSet(offsets=(1, 5))
    for cfg in (OptimConfig(), OptimConfig(**PLAIN)):
        with pytest.raises(ValueError, match="frame 5 has no point cloud"):
            optimize(bundle, cfg)


def test_optimize_requires_a_mask_for_every_offset(supervised):
    bundle = copy.copy(supervised)
    bundle.pseudo_masks = {t: m for t, m in supervised.pseudo_masks.items() if t != 2}
    with pytest.raises(ValueError, match="frame 2 has no pseudo mask"):
        optimize(bundle, OptimConfig())


def test_optimize_requires_one_mask_entry_per_point(supervised):
    bundle = copy.copy(supervised)
    short = StaticDynamicMask(1, supervised.pseudo_masks[1].status[:-1])
    bundle.pseudo_masks = {**supervised.pseudo_masks, 1: short}
    n = len(supervised.clouds[1])
    with pytest.raises(ValueError, match=f"frame 1: {n - 1} mask entries for {n} points"):
        optimize(bundle, OptimConfig())


# --- the seed of the masked descent ----------------------------------------


def test_group_median_matches_np_median(rng):
    group = rng.integers(0, 7, size=60)
    x = rng.normal(size=(60, 2))
    x[::5] = x[1::5]  # repeated values, as a rigid piece's lifts often are
    med = _group_median(group, x, 9)
    for g in range(9):
        rows = x[group == g]
        if len(rows):
            np.testing.assert_array_equal(med[g], np.median(rows, axis=0))
        else:
            assert np.isnan(med[g]).all()


@pytest.mark.parametrize("preset", ["static", "ego-rotation"])
def test_seed_is_zero_without_moving_actors(preset):
    bundle = prepare_supervision(synth.generate(synth.preset(preset, seed=0)))
    assert not _dense_seed(bundle, OptimConfig()).any()
    _, report = optimize(bundle, OptimConfig())
    assert report.seeded_cells == 0


def test_seed_alone_recovers_one_box_actor_cells(supervised):
    velocity = _dense_seed(supervised, OptimConfig())
    inst = supervised.gt_instances[0]
    idx, valid = cell_indices(supervised.clouds[0].points, supervised.grid)
    actor = tuple(np.unique(idx[(inst == 0) & valid], axis=0).T)
    for t in supervised.frame_set.offsets:
        err = np.linalg.norm(t * velocity[actor] - supervised.gt_fields[t].values[actor], axis=1)
        assert err.max() <= 0.05, f"t={t}: seed error {err.max():.4f} m"
    # Only cells with actor points start away from zero.
    seeded = velocity.any(axis=2)
    assert seeded[actor].all()
    assert seeded.sum() == len(actor[0])


def test_minority_dynamic_piece_seeds_nothing(supervised):
    # Keep one piece's pseudo-dynamic points and mark every other point
    # static: the seed is non-zero only while they are a strict majority
    # of the piece's classified points.
    labels = supervised.pieces.labels
    status = supervised.pseudo_masks[0].status
    dyn = np.bincount(labels[(labels >= 0) & (status == DYNAMIC)])
    piece = int(np.argmax(dyn))
    members = np.flatnonzero((labels == piece) & (status == DYNAMIC))
    classified = int(((labels == piece) & (status != UNKNOWN)).sum())
    space = cell_space(supervised, OptimConfig())
    bundle = copy.copy(supervised)

    def seed_with(n_dynamic):
        new = np.where(status == DYNAMIC, STATIC, status).astype(np.uint8)
        new[members[:n_dynamic]] = DYNAMIC
        bundle.pseudo_masks = {**supervised.pseudo_masks, 0: StaticDynamicMask(0, new)}
        return seed_velocity(bundle, space)

    half = classified // 2
    assert 0 < half < len(members)
    assert not seed_with(half).any()  # exactly half, or fewer, is no majority
    assert seed_with(half + 1).any()


def test_no_pieces_seed_nothing(supervised):
    bundle = copy.copy(supervised)
    n = len(bundle.clouds[0])
    bundle.pieces = RigidPieces(0, np.full(n, -1, dtype=np.int32), 0)
    assert not _dense_seed(bundle, OptimConfig()).any()


def test_plain_trajectory_starts_at_zero_field_objective(supervised):
    cfg = OptimConfig(max_iters=2, **PLAIN)
    _, report = optimize(supervised, cfg)
    assert report.seeded_cells == 0
    assert report.trajectory[0]["total"] == _zero_field_loss(supervised, cfg)


def test_masked_config_requires_pieces(supervised):
    bundle = copy.copy(supervised)
    bundle.pieces = None
    cfg = OptimConfig(weights=LossWeights(lambda_pr=0.0))
    with pytest.raises(ValueError, match="missing rigid pieces"):
        optimize(bundle, cfg)


@pytest.mark.parametrize("seed", range(5))
def test_seeded_one_box_stops_by_tol(seed):
    # A seeded run starts near a loss of 0: without L0 in the stop and
    # divergence tests it raised DivergenceError (seed 1) or ran to the cap.
    bundle = prepare_supervision(synth.generate(synth.preset("one-box", seed=seed)))
    _, report = optimize(bundle, OptimConfig())
    assert report.seeded_cells > 0
    assert report.stop_reason == "tol" and report.iterations < OptimConfig().max_iters
