"""Flow-threshold motion classification and mask bookkeeping."""

import dataclasses

import numpy as np
import pytest

import bevss
from bevss import synth
from bevss.grid import PointCloud
from bevss.masks import (
    DYNAMIC,
    STATIC,
    UNKNOWN,
    MaskThresholds,
    StaticDynamicMask,
    build_mask,
    classify,
)
from bevss.projection import (
    CalibratedCamera,
    FlowImage,
    UnliftableDepthError,
    lift_flow,
    project_many,
)
from bevss.synth import EgoMotion, PinholeCamera, camera_matrix

# --- per-point oracle: the scalar path build_mask vectorizes ----------------


def project(p, cam):
    """Project one point; returns (u, v, w) or None when invalid."""
    uv, w, valid = project_many(np.asarray(p, dtype=np.float64).reshape(1, 3), cam)
    if not valid[0]:
        return None
    return float(uv[0, 0]), float(uv[0, 1]), float(w[0])


def ego_flow(p, cam_t, cam_next):
    """Pixel displacement of a world-static point induced by sensor motion.

    cam_next is the same physical camera at t+dt; its projection matrix
    folds in the ego motion. Returns (du, dv) or None when the point does
    not project validly into both frames.
    """
    a = project(p, cam_t)
    b = project(p, cam_next)
    if a is None or b is None:
        return None
    return b[0] - a[0], b[1] - a[1]


def motion_flow(flow_img, p, cam_t, cam_next):
    """Object-induced 2D flow at p: sampled total flow minus ego flow.

    The flow image is sampled nearest-neighbor at the rounded pixel.
    """
    proj = project(p, cam_t)
    if proj is None:
        return None
    ef = ego_flow(p, cam_t, cam_next)
    if ef is None:
        return None
    u = min(int(round(proj[0])), cam_t.width - 1)
    v = min(int(round(proj[1])), cam_t.height - 1)
    total = flow_img.data[v, u].astype(np.float64)
    return np.array([total[0] - ef[0], total[1] - ef[1]])


def classify_point(f2d, f3d, thr):
    """Threshold rule: static iff |f2d| < tau_2d and |f3d| < tau_3d."""
    m2 = float(np.linalg.norm(np.asarray(f2d, dtype=np.float64)))
    m3 = float(np.linalg.norm(np.asarray(f3d, dtype=np.float64)))
    if m2 < thr.tau_2d and m3 < thr.tau_3d:
        return STATIC
    return DYNAMIC


def oracle_status(p, flow_imgs, cam_pairs, thr):
    """One point's mask status: first camera that sees it, then ground rule."""
    status = UNKNOWN
    for flow_img, (cam_t, cam_next) in zip(flow_imgs, cam_pairs):
        f2d = motion_flow(flow_img, p, cam_t, cam_next)
        if f2d is None:
            continue
        try:
            status = classify_point(f2d, lift_flow(f2d, p, cam_t), thr)
        except UnliftableDepthError:
            status = DYNAMIC
        break
    return STATIC if p[2] < thr.ground_z else status


def make_camera(frame, ego):
    spec = PinholeCamera(camera_id=0, f=250.0, cx=240.0, cy=120.0, width=480, height=240)
    return CalibratedCamera(0, frame, camera_matrix(spec, ego, frame), 480, 240)


def test_threshold_validation():
    with pytest.raises(ValueError):
        MaskThresholds(tau_2d=0.0)
    with pytest.raises(ValueError):
        MaskThresholds(tau_3d=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        # An unchecked NaN tau would make every visible point dynamic.
        ("tau_2d", float("nan")),
        ("tau_3d", float("nan")),
        ("ground_z", float("nan")),
        ("ground_z", float("inf")),
        ("ground_z", float("-inf")),
    ],
)
def test_thresholds_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        MaskThresholds(**{field: value})


def classify_one(f2d, f3d, thr):
    return classify(np.array([f2d], dtype=np.float64), np.array([f3d], dtype=np.float64), thr)[0]


def test_classify_point_requires_both_magnitudes_small():
    thr = MaskThresholds(tau_2d=5.0, tau_3d=1.0)
    assert classify_one((1.0, 1.0), (0.1, 0.1, 0.0), thr) == STATIC
    assert classify_one((6.0, 0.0), (0.1, 0.1, 0.0), thr) == DYNAMIC  # 2D too big
    assert classify_one((1.0, 0.0), (1.5, 0.0, 0.0), thr) == DYNAMIC  # 3D too big
    assert classify_one((1.0, 0.0), (np.nan, np.nan, 0.0), thr) == DYNAMIC  # failed lift


def test_classification_is_strictly_below_threshold():
    thr = MaskThresholds(tau_2d=5.0, tau_3d=1.0)
    assert classify_one((5.0, 0.0), (0.0, 0.0, 0.0), thr) == DYNAMIC  # |f2d| == tau
    assert classify_one((0.0, 0.0), (1.0, 0.0, 0.0), thr) == DYNAMIC  # |f3d| == tau
    assert classify_one((5.0 - 1e-9, 0.0), (1.0 - 1e-9, 0.0, 0.0), thr) == STATIC


def test_mask_validation():
    with pytest.raises(ValueError):
        StaticDynamicMask(0, np.array([0, 1, 3], dtype=np.uint8))
    with pytest.raises(ValueError):
        StaticDynamicMask(0, np.zeros((2, 2), dtype=np.uint8))


def test_build_mask_input_validation(one_box):
    cloud = one_box.clouds[0]
    with pytest.raises(ValueError):
        build_mask(cloud, [], [], MaskThresholds())
    with pytest.raises(ValueError):
        build_mask(cloud, one_box.frame_flows(0), one_box.cam_pair(0)[:1], MaskThresholds())


def test_build_mask_marks_invisible_points_unknown(one_box):
    mask = build_mask(
        one_box.clouds[0], one_box.frame_flows(0), one_box.cam_pair(0), MaskThresholds()
    )
    # Points that project into no camera cannot be classified.
    outside = np.array([[0.0, 0.0, 50.0]])  # far above every camera's field of view
    tall = PointCloud(0, outside)
    m2 = build_mask(tall, one_box.frame_flows(0), one_box.cam_pair(0), MaskThresholds())
    assert m2.status[0] == UNKNOWN
    assert len(mask) == len(one_box.clouds[0])


def test_ground_override_forces_static(one_box):
    thr = MaskThresholds()
    low = PointCloud(0, np.array([[8.0, 0.0, -1.6]]))  # below the ground height
    mask = build_mask(low, one_box.frame_flows(0), one_box.cam_pair(0), thr)
    assert mask.status[0] == STATIC


@pytest.mark.parametrize("stress", [False, True], ids=["one-box", "moving-ego-noisy-overlap"])
def test_build_mask_matches_per_point_oracle(one_box, stress):
    bundle = one_box
    if stress:
        spec = dataclasses.replace(synth.preset("one-box"), ego=EgoMotion(velocity=(0.5, 0.0)))
        bundle = synth.generate(spec)
    cloud = bundle.clouds[0]
    flows, pairs = bundle.frame_flows(0), bundle.cam_pair(0)
    if stress:
        # A moving ego makes the ego-flow subtraction matter. Noisy flow
        # spreads the residuals around tau_2d, so the sampled pixel decides.
        # A second noisy copy of every camera sees the same points, so the
        # first camera that sees a point must decide.
        rng = np.random.default_rng(1)

        def noisy(f):
            data = f.data + rng.normal(0.0, 4.0, f.data.shape).astype(np.float32)
            return FlowImage(f.camera_id, f.frame_index, f.dt, data)

        flows = [noisy(f) for f in flows] + [noisy(f) for f in flows]
        pairs = pairs + pairs
    # Most points lie on the ground; under stress none is forced static, so
    # the flow rule decides every visible point.
    thr = MaskThresholds(ground_z=-10.0) if stress else MaskThresholds()
    pick = np.random.default_rng(0).choice(len(cloud), size=500, replace=False)
    sub = PointCloud(0, cloud.points[pick])
    status = build_mask(sub, flows, pairs, thr).status
    expected = [oracle_status(p, flows, pairs, thr) for p in sub.points]
    np.testing.assert_array_equal(status, expected)
    # The sample must exercise every branch of the rule.
    assert {STATIC, DYNAMIC, UNKNOWN} <= set(status.tolist())


def test_static_point_ego_flow_matches_camera_motion():
    ego = EgoMotion(velocity=(1.0, 0.0))
    cam0 = make_camera(frame=0, ego=ego)
    cam1 = make_camera(frame=1, ego=ego)
    p = (10.0, 1.0, 0.0)
    du, dv = ego_flow(p, cam0, cam1)
    # Approaching a point left of the axis pushes it further left on screen.
    a = project(p, cam0)
    b = project(p, cam1)
    assert du == pytest.approx(b[0] - a[0])
    assert dv == pytest.approx(b[1] - a[1])
    assert du < 0.0


def test_motion_flow_subtracts_ego_component():
    ego = EgoMotion(velocity=(1.0, 0.0))
    cam0 = make_camera(frame=0, ego=ego)
    cam1 = make_camera(frame=1, ego=ego)
    p = (10.0, 1.0, 0.0)
    ef = ego_flow(p, cam0, cam1)
    data = np.zeros((240, 480, 2), dtype=np.float32)
    data[:, :, 0] = ef[0] + 3.0
    data[:, :, 1] = ef[1] - 2.0
    flow_img = FlowImage(0, 0, 1, data)
    residual = motion_flow(flow_img, p, cam0, cam1)
    assert residual == pytest.approx([3.0, -2.0], abs=1e-5)


def test_every_public_name_resolves():
    assert all(hasattr(bevss, name) for name in bevss.__all__)
