"""Synthetic scene generation: geometry, oracles, and determinism."""

import numpy as np
import pytest
from scipy import ndimage

from bevss import synth
from bevss.grid import FrameSet, cell_indices
from bevss.projection import EPS_DEPTH, FlowImage, project_many
from bevss.synth import (
    Actor,
    EgoMotion,
    PinholeCamera,
    SceneSpec,
    SurfaceBox,
    camera_matrix,
    generate,
    ground_truth_field,
    preset,
)


def test_preset_names():
    for name in synth.PRESETS:
        assert isinstance(preset(name, seed=1), SceneSpec)
    with pytest.raises(ValueError):
        preset("no-such-scene")


def test_surface_box_validation():
    with pytest.raises(ValueError):
        SurfaceBox(center=(0, 0, 0), size=(1, 1, 1), density=0.0)
    with pytest.raises(ValueError):
        SurfaceBox(center=(0, 0, 0), size=(0, 0, 0), density=1.0)


def test_generation_is_deterministic():
    a = generate(preset("one-box", seed=5))
    b = generate(preset("one-box", seed=5))
    for t in a.mask_frames:
        np.testing.assert_array_equal(a.clouds[t].points, b.clouds[t].points)
    for key in a.flow_images:
        np.testing.assert_array_equal(a.flow_images[key].data, b.flow_images[key].data)
    c = generate(preset("one-box", seed=6))
    assert not np.array_equal(a.clouds[0].points, c.clouds[0].points)


def test_bundle_shapes_are_consistent(one_box):
    n = len(one_box.clouds[0])
    for t in one_box.mask_frames:
        assert len(one_box.clouds[t]) == n
        assert one_box.gt_masks[t].shape == (n,)
        assert one_box.gt_instances[t].shape == (n,)
        assert one_box.visibility[t].shape == (n,)
    assert one_box.actor_velocities.shape == (1, 2)
    assert set(one_box.gt_fields) == set(one_box.frame_set.offsets)
    for k in one_box.camera_ids:
        for t in one_box.mask_frames:
            assert (k, t) in one_box.flow_images
            assert (k, t) in one_box.cameras
            assert (k, t + 1) in one_box.cameras


def test_actor_points_translate_rigidly(one_box):
    inst = one_box.gt_instances[0]
    sel = inst == 0
    v = one_box.actor_velocities[0]
    for t in one_box.frame_set.offsets:
        shift = one_box.clouds[t].points[sel] - one_box.clouds[0].points[sel]
        np.testing.assert_allclose(shift[:, :2], np.broadcast_to(t * v, shift[:, :2].shape), atol=1e-12)
        np.testing.assert_allclose(shift[:, 2], 0.0, atol=1e-12)
        # Background stays put.
        bg = one_box.clouds[t].points[~sel] - one_box.clouds[0].points[~sel]
        np.testing.assert_allclose(bg, 0.0, atol=1e-12)


def test_gt_masks_flag_exactly_the_moving_actor(one_box, static_scene):
    inst = one_box.gt_instances[0]
    np.testing.assert_array_equal(one_box.gt_masks[0].astype(bool), inst == 0)
    assert not static_scene.gt_masks[0].any()


def test_gt_field_matches_actor_velocity_on_actor_cells(one_box):
    inst = one_box.gt_instances[0]
    idx, valid = cell_indices(one_box.clouds[0].points, one_box.grid)
    v = one_box.actor_velocities[0]
    for t in one_box.frame_set.offsets:
        field = one_box.gt_fields[t]
        actor_cells = np.unique(idx[(inst == 0) & valid], axis=0)
        vals = field.values[actor_cells[:, 0], actor_cells[:, 1]]
        np.testing.assert_allclose(vals, np.broadcast_to(t * v, vals.shape))
        # Background-only cells are zero.
        bg_only = np.ones((one_box.grid.cells_x, one_box.grid.cells_y), dtype=bool)
        bg_only[actor_cells[:, 0], actor_cells[:, 1]] = False
        assert np.all(field.values[bg_only] == 0.0)


def test_ground_truth_field_majority_vote_warns(two_box):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ground_truth_field(two_box, 1)  # presets keep actors in disjoint cells


def _loop_ground_truth_field(bundle, t):
    """Per-cell majority loop (the former ground_truth_field): the groups
    sorted by (cell, count), the last group of a cell wins. Returns the
    field values and the number of mixed-cell groups it warns about."""
    inst = bundle.gt_instances[0]
    spec = bundle.grid
    idx, valid = cell_indices(bundle.clouds[0].points, spec)
    values = np.zeros((spec.cells_x, spec.cells_y, 2))
    sel = valid & (inst >= 0)
    cell_key = idx[sel, 0].astype(np.int64) * spec.cells_y + idx[sel, 1]
    n_actors = int(inst[sel].max()) + 1
    uniq, counts = np.unique(cell_key * n_actors + inst[sel], return_counts=True)
    cells = uniq // n_actors
    order = np.lexsort((counts, cells))
    winners = {}
    mixed = 0
    for i in order:
        c = int(cells[i])
        if c in winners:
            mixed += 1
        winners[c] = int(uniq[i] % n_actors)
    for c, a in winners.items():
        values[c // spec.cells_y, c % spec.cells_y] = t * bundle.actor_velocities[a]
    return values, mixed


def test_ground_truth_field_matches_loop_on_mixed_cells_and_ties():
    from types import SimpleNamespace

    from bevss.grid import BevGridSpec, PointCloud

    rng = np.random.default_rng(3)
    n = 300
    points = np.zeros((n, 3))
    points[:, :2] = rng.uniform(0.0, 1.0, size=(n, 2))  # 16 cells of 0.25 m
    points[:5, 0] = 40.0  # out of the grid
    inst = rng.integers(-1, 3, size=n).astype(np.int32)
    # Exact ties: 2 + 2 points of actors 0 and 2, and 1 + 1 of actors 1 and 2.
    tied = np.array([[5.1, 5.1, 0.0]] * 4 + [[6.1, 6.1, 0.0]] * 2)
    points = np.concatenate([points, tied])
    inst = np.concatenate([inst, np.array([0, 2, 2, 0, 1, 2], dtype=np.int32)])
    bundle = SimpleNamespace(
        grid=BevGridSpec(),
        clouds={0: PointCloud(0, points)},
        gt_instances={0: inst},
        actor_velocities=np.array([[1.0, 0.5], [-2.0, 0.25], [0.125, 3.0]]),
    )
    for t in (-1, 1, 2):
        ref, mixed = _loop_ground_truth_field(bundle, t)
        assert mixed > 10
        with pytest.warns(UserWarning, match=f"^{mixed} BEV cells"):
            field = ground_truth_field(bundle, t)
        np.testing.assert_array_equal(field.values, ref)
    # A tie goes to the larger actor id, the last of the stable sort.
    spec = bundle.grid
    idx, _ = cell_indices(tied, spec)
    assert (field.values[idx[0, 0], idx[0, 1]] == 2 * bundle.actor_velocities[2]).all()
    assert (field.values[idx[4, 0], idx[4, 1]] == 2 * bundle.actor_velocities[2]).all()


def test_actor_leaving_grid_raises():
    spec = preset("one-box", seed=0)
    runaway = SceneSpec(
        background=spec.background,
        actors=(Actor(box=spec.actors[0].box, velocity=(20.0, 0.0)),),
        ego=spec.ego,
        cameras=spec.cameras,
        frame_set=spec.frame_set,
        grid=spec.grid,
        seed=0,
    )
    with pytest.raises(ValueError, match="leaves the grid"):
        generate(runaway)


def test_camera_matrix_static_projection():
    cam = PinholeCamera(0, 250.0, 240.0, 120.0, 480, 240, position=(0.0, 0.0, 0.0))
    calibrated_proj = camera_matrix(cam, EgoMotion(), 0)
    from bevss.projection import CalibratedCamera

    calib = CalibratedCamera(0, 0, calibrated_proj, 480, 240)
    uv, w, valid = project_many(np.array([[10.0, 0.0, 0.0]]), calib)
    assert valid[0]
    assert uv[0, 0] == pytest.approx(240.0)
    assert uv[0, 1] == pytest.approx(120.0)
    assert w[0] == pytest.approx(10.0)


def test_camera_matrix_translates_with_ego():
    ego = EgoMotion(velocity=(2.0, 0.0))
    cam = PinholeCamera(0, 250.0, 240.0, 120.0, 480, 240)
    from bevss.projection import CalibratedCamera

    calib1 = CalibratedCamera(0, 1, camera_matrix(cam, ego, 1), 480, 240)
    # At frame 1 the camera sits at world x=2: a point at x=12 projects like
    # a point at x=10 does for the frame-0 camera.
    uv, w, valid = project_many(np.array([[12.0, 0.0, 0.0]]), calib1)
    assert valid[0]
    assert uv[0, 0] == pytest.approx(240.0)
    assert w[0] == pytest.approx(10.0)


def test_flow_images_encode_static_geometry():
    bundle = generate(preset("static", seed=0))
    # Ego moves +0.5 m/frame; on-image flow of world-static points must be
    # nonzero in the forward camera (looming) between frames 0 and 1.
    img = bundle.flow_images[(0, 0)]
    assert float(np.abs(img.data).max()) > 0.1


def test_frame_override_changes_offsets():
    spec = preset("one-box", seed=0)
    spec = SceneSpec(
        background=spec.background,
        actors=spec.actors,
        ego=spec.ego,
        cameras=spec.cameras,
        frame_set=FrameSet(offsets=(1,)),
        grid=spec.grid,
        seed=0,
    )
    bundle = generate(spec)
    assert bundle.mask_frames == [0, 1]
    assert set(bundle.gt_fields) == {1}


def test_noise_is_applied_when_requested():
    noisy = generate(preset("night-noise", seed=0))
    clean = generate(preset("one-box", seed=0))
    key = (0, 0)
    assert not np.array_equal(noisy.flow_images[key].data, clean.flow_images[key].data)


def _edt_flow_image(cam_t, cam_next, pos_t, pos_next):
    """Oracle for synth._flow_image: splat, then always fill the empty
    pixels from the nearest owned pixel by the distance transform."""
    h, w_px = cam_t.height, cam_t.width
    uv_t, w_t, _ = project_many(pos_t, cam_t)
    uv_n, w_n, _ = project_many(pos_next, cam_next)
    u = np.rint(uv_t[:, 0]).astype(np.int64)
    v = np.rint(uv_t[:, 1]).astype(np.int64)
    ok = (w_t > EPS_DEPTH) & (w_n > EPS_DEPTH) & (u >= 0) & (u < w_px) & (v >= 0) & (v < h)
    key = np.where(ok, v * w_px + u, -1)
    data = np.zeros((h, w_px, 2), dtype=np.float32)
    owned = np.zeros(h * w_px, dtype=bool)
    idx = np.nonzero(ok)[0]
    order = idx[np.argsort(w_t[idx], kind="stable")]
    owners = order[np.unique(key[order], return_index=True)[1]]
    if owners.size:
        flat = data.reshape(-1, 2)
        flat[key[owners]] = (uv_n[owners] - uv_t[owners]).astype(np.float32)
        owned[key[owners]] = True
        owned2 = owned.reshape(h, w_px)
        if not owned2.all():
            iy, ix = ndimage.distance_transform_edt(~owned2, return_distances=False, return_indices=True)
            data = flat[iy * w_px + ix]
    return FlowImage(cam_t.camera_id, cam_t.frame_index, 1, data), key, w_t, owners


@pytest.mark.parametrize("seed", [0, 1])
def test_flow_image_matches_distance_transform_oracle(monkeypatch, seed):
    # Every (camera, frame) image of every preset, bit for bit; both fills
    # must run, and a one-valued image must not pay the transform.
    flow_image, edt = synth._flow_image, ndimage.distance_transform_edt
    fills = {"one-valued": 0, "transform": 0}
    edt_calls = []

    def counted_edt(*args, **kwargs):
        edt_calls.append(args)
        return edt(*args, **kwargs)

    def checked(*args):
        before = len(edt_calls)
        got = flow_image(*args)
        transformed = len(edt_calls) > before
        want = _edt_flow_image(*args)
        np.testing.assert_array_equal(got[0].data.view(np.uint32), want[0].data.view(np.uint32))
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(a, b)
        if want[3].size:
            bits = want[0].data.view(np.uint64)
            assert not (transformed and np.all(bits == bits.flat[0]))
            fills["transform" if transformed else "one-valued"] += 1
        return got

    monkeypatch.setattr(ndimage, "distance_transform_edt", counted_edt)
    monkeypatch.setattr(synth, "_flow_image", checked)
    cameras = {name: generate(preset(name, seed=seed)).cameras for name in synth.PRESETS}
    assert fills["one-valued"] > 0 and fills["transform"] > 0
    # The still cameras' one value is (0, 0); one point owning one pixel of
    # a moving camera (static: the ego drives ahead) gives another value.
    point = np.array([[10.0, 1.0 + seed, 0.5]])
    img = checked(cameras["static"][(0, 0)], cameras["static"][(0, 1)], point, point)[0]
    assert np.all(img.data == img.data[0, 0]) and np.any(img.data[0, 0] != 0)
