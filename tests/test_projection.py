"""Camera projection and the fixed-height flow lift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevss.projection import (
    CalibratedCamera,
    FlowImage,
    UnliftableDepthError,
    first_sightings,
    lift_flow,
    lift_flow_many,
    lift_matrix,
    project_many,
)
from bevss.synth import EgoMotion, PinholeCamera, camera_matrix


def project(p, cam):
    """project_many on one point; returns (u, v, w) or None when invalid."""
    uv, w, valid = project_many(np.asarray(p, dtype=np.float64).reshape(1, 3), cam)
    if not valid[0]:
        return None
    return float(uv[0, 0]), float(uv[0, 1]), float(w[0])


def make_camera(frame=0, ego=EgoMotion(), yaw_deg=0.0, position=(0.0, 0.0, 0.0), f=250.0):
    spec = PinholeCamera(
        camera_id=0, f=f, cx=240.0, cy=120.0, width=480, height=240,
        position=position, yaw_deg=yaw_deg,
    )
    return CalibratedCamera(0, frame, camera_matrix(spec, ego, frame), 480, 240)


def test_point_on_axis_hits_principal_point():
    cam = make_camera()
    u, v, w = project((10.0, 0.0, 0.0), cam)
    assert u == pytest.approx(240.0)
    assert v == pytest.approx(120.0)
    assert w == pytest.approx(10.0)  # depth equals forward distance


def test_projection_geometry():
    cam = make_camera()
    # +y (left) decreases u; +z (up) decreases v (image axes point right/down).
    u_left, v_left, _ = project((10.0, 1.0, 0.0), cam)
    assert u_left < 240.0
    u_up, v_up, _ = project((10.0, 0.0, 1.0), cam)
    assert v_up < 120.0
    assert u_up == pytest.approx(240.0)


def test_invalid_projections():
    cam = make_camera()
    assert project((-5.0, 0.0, 0.0), cam) is None  # behind the camera
    assert project((1.0, 30.0, 0.0), cam) is None  # off the sensor


def test_first_sightings_give_each_point_to_the_first_view_that_sees_it():
    front, back = make_camera(), make_camera(yaw_deg=180.0)
    pts = np.array([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0], [10.0, 1.0, 0.0], [0.0, 30.0, 0.0]])
    # The first view needs both cameras, so it sees no point and is skipped.
    views = [(front, back), (front,), (back,), (front,)]
    got = list(first_sightings(pts, views))
    assert [(k, idx.tolist()) for k, idx, _, _ in got] == [(1, [0, 2]), (2, [1])]
    for k, idx, uvs, (u, v) in got:
        for uv, cam in zip(uvs, views[k]):
            np.testing.assert_array_equal(uv, project_many(pts[idx], cam)[0])
        np.testing.assert_array_equal(u, np.rint(uvs[0][:, 0]).astype(np.int64))
        np.testing.assert_array_equal(v, np.rint(uvs[0][:, 1]).astype(np.int64))


def test_project_many_matches_scalar(rng):
    cam = make_camera(yaw_deg=30.0, position=(0.2, -0.1, 0.1))
    pts = rng.uniform(-20, 20, size=(200, 3))
    uv, w, valid = project_many(pts, cam)
    for i in range(len(pts)):
        single = project(pts[i], cam)
        if single is None:
            assert not valid[i]
        else:
            assert valid[i]
            assert single[0] == pytest.approx(uv[i, 0])
            assert single[1] == pytest.approx(uv[i, 1])
            assert single[2] == pytest.approx(w[i])


def test_camera_center_recovers_mounting_position():
    cam = make_camera(position=(0.5, -0.25, 0.1), yaw_deg=45.0)
    np.testing.assert_allclose(cam.center(), [0.5, -0.25, 0.1], atol=1e-9)


def test_camera_validation():
    with pytest.raises(ValueError):
        CalibratedCamera(0, 0, np.zeros((3, 3)), 480, 240)
    with pytest.raises(ValueError):
        CalibratedCamera(0, 0, np.full((3, 4), np.nan), 480, 240)
    for width, height in ((0, 240), (480, -240)):
        with pytest.raises(ValueError, match="width and height must be at least 1"):
            CalibratedCamera(0, 0, np.eye(3, 4), width, height)
    with pytest.raises(ValueError):
        FlowImage(0, 0, 1, np.zeros((4, 4, 3)))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    yaw=st.floats(min_value=0.0, max_value=360.0),
)
def test_lift_inverts_projection_difference(seed, yaw):
    r = np.random.default_rng(seed)
    cam = make_camera(yaw_deg=yaw, position=tuple(r.uniform(-0.5, 0.5, 3)))
    heading = np.deg2rad(yaw)
    ahead = r.uniform(5.0, 25.0)
    p = np.array(
        [
            cam.center()[0] + ahead * np.cos(heading),
            cam.center()[1] + ahead * np.sin(heading),
            r.uniform(-1.5, 1.0),
        ]
    )
    d = np.array([r.uniform(-2, 2), r.uniform(-2, 2), 0.0])

    def raw_uv(q):
        hom = cam.proj @ np.append(q, 1.0)
        return hom[:2] / hom[2]

    f2d = raw_uv(p + d) - raw_uv(p)
    np.testing.assert_allclose(lift_flow(f2d, p, cam), d, atol=1e-7)


def test_lift_matrix_shape_and_consistency():
    cam = make_camera()
    p = np.array([12.0, 2.0, -0.8])
    m = lift_matrix(cam, [p[2]])[0]
    hom = m @ np.array([p[0], p[1], 1.0])
    uvw = project(p, cam)
    assert hom[0] / hom[2] == pytest.approx(uvw[0])
    assert hom[1] / hom[2] == pytest.approx(uvw[1])


def test_lift_flow_many_matches_scalar_and_flags_failures(rng):
    cam = make_camera(yaw_deg=10.0)
    pts = np.column_stack(
        [rng.uniform(6, 20, 50), rng.uniform(-3, 3, 50), rng.uniform(-1.5, 1.0, 50)]
    )
    f2d = rng.uniform(-20, 20, size=(50, 2))
    batch = lift_flow_many(f2d, pts, cam)
    for i in range(50):
        np.testing.assert_allclose(batch[i], lift_flow(f2d[i], pts[i], cam), atol=1e-9)

    # A singular lift (rank-deficient fixed-height map) must raise in the
    # scalar API and come back NaN in the batched one.
    degenerate = CalibratedCamera(
        0, 0, np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]), 480, 240
    )
    with pytest.raises(UnliftableDepthError):
        lift_flow((1.0, 1.0), (5.0, 0.0, 0.0), degenerate)
    out = lift_flow_many(np.ones((1, 2)), np.array([[5.0, 0.0, 0.0]]), degenerate)
    assert np.all(np.isnan(out[0]))
