"""LiDAR <-> camera geometry.

Covers point-to-pixel projection and lifting a residual 2D flow back to
a planar 3D displacement under the zero-vertical-motion constraint.
"""

from dataclasses import dataclass

import numpy as np

EPS_DEPTH = 1e-3  # behind-camera rejection, meters of depth scale


class UnliftableDepthError(ValueError):
    """The fixed-z lift matrix is singular."""


@dataclass(frozen=True)
class CalibratedCamera:
    """3x4 homogeneous projection from frame-0 ego coordinates to pixels."""

    camera_id: int
    frame_index: int
    proj: np.ndarray  # (3, 4) float64
    width: int
    height: int

    def __post_init__(self):
        m = np.asarray(self.proj, dtype=np.float64).view()
        if m.shape != (3, 4):
            raise ValueError("proj must be 3x4")
        if not np.all(np.isfinite(m)):
            raise ValueError("proj must be finite")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"size {self.width} {self.height}: width and height must be at least 1")
        m.setflags(write=False)
        object.__setattr__(self, "proj", m)

    def center(self) -> np.ndarray:
        """Camera center in ego coordinates: the null direction of proj."""
        return -np.linalg.solve(self.proj[:, :3], self.proj[:, 3])


@dataclass(frozen=True)
class FlowImage:
    """Dense per-pixel 2D flow between images (t, t+dt) of one camera."""

    camera_id: int
    frame_index: int
    dt: int
    data: np.ndarray  # (H, W, 2) float32

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float32).view()
        if d.ndim != 3 or d.shape[2] != 2:
            raise ValueError("flow data must have shape (H, W, 2)")
        if not np.all(np.isfinite(d)):
            raise ValueError("flow data must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)


def project_many(points: np.ndarray, cam: CalibratedCamera):
    """Project (N,3) points; returns (uv (N,2), w (N,), valid (N,)).

    A projection is valid when the depth scale exceeds EPS_DEPTH and the
    pixel lands inside [0, W) x [0, H).
    """
    pts = np.asarray(points, dtype=np.float64)
    hom = pts @ cam.proj[:, :3].T + cam.proj[:, 3]
    w = hom[:, 2]
    safe_w = np.where(np.abs(w) > 1e-300, w, 1.0)
    uv = hom[:, :2] / safe_w[:, None]
    valid = (
        (w > EPS_DEPTH)
        & (uv[:, 0] >= 0.0)
        & (uv[:, 0] < cam.width)
        & (uv[:, 1] >= 0.0)
        & (uv[:, 1] < cam.height)
    )
    return uv, w, valid


def first_sightings(points: np.ndarray, views):
    """The points each view is the first to see, view by view.

    views[k] is a tuple of cameras; it sees a point that every camera of
    the tuple projects validly, and views are tried in order. Yields
    (k, idx, uvs, (u, v)) for each view that sees points no earlier view
    saw: their (M,) indices, their (M,2) pixels in each camera of the
    tuple, and their pixel in the tuple's first camera rounded to the
    (M,) integer columns u and rows v of its image.
    """
    todo = np.ones(len(points), dtype=bool)
    for k, cams in enumerate(views):
        if not np.any(todo):
            break
        idx = np.nonzero(todo)[0]
        pts = points[idx]
        projected = [project_many(pts, cam) for cam in cams]
        valid = np.logical_and.reduce([ok for _, _, ok in projected])
        if not np.any(valid):
            continue
        idx = idx[valid]
        uvs = [uv[valid] for uv, _, _ in projected]
        u = np.minimum(np.rint(uvs[0][:, 0]).astype(np.int64), cams[0].width - 1)
        v = np.minimum(np.rint(uvs[0][:, 1]).astype(np.int64), cams[0].height - 1)
        todo[idx] = False
        yield k, idx, uvs, (u, v)


def lift_matrix(cam: CalibratedCamera, z: np.ndarray) -> np.ndarray:
    """(N,3,3) maps (x, y, 1) -> homogeneous pixel at the fixed heights z (N,).

    Derived from w (u,v,1)^T = T (x,y,z,1)^T with z held constant:
    M(z) = [col0 | col1 | z*col2 + col3].
    """
    t = cam.proj
    z = np.asarray(z, dtype=np.float64)
    m = np.empty((z.shape[0], 3, 3))
    m[:, :, 0] = t[:, 0]
    m[:, :, 1] = t[:, 1]
    m[:, :, 2] = z[:, None] * t[:, 2] + t[:, 3]
    return m


def lift_flow(f2d, p, cam: CalibratedCamera) -> np.ndarray:
    """Lift one residual pixel flow at p: lift_flow_many on a single row.

    Raises UnliftableDepthError where the batched lift returns NaN.
    """
    d = lift_flow_many(
        np.asarray(f2d, dtype=np.float64).reshape(1, 2),
        np.asarray(p, dtype=np.float64).reshape(1, 3),
        cam,
    )[0]
    if np.isnan(d).any():
        raise UnliftableDepthError(f"unliftable point {np.ravel(p).tolist()}")
    return d


def lift_flow_many(f2d: np.ndarray, points: np.ndarray, cam: CalibratedCamera) -> np.ndarray:
    """Lift (N,2) residual pixel flows at (N,3) points to planar displacements.

    The flow endpoint pixel (u', v') = raw projection of p + f2d is
    back-projected at the point's own height, giving (x'-x, y'-y, 0).
    Off-image and behind-camera points still lift. Rows whose lift matrix
    is singular (|det| <= 1e-12) come back as NaN, so callers can treat
    them as unclassifiable.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    t = cam.proj
    m = lift_matrix(cam, pts[:, 2])
    hom = pts @ t[:, :3].T + t[:, 3]
    uv = hom[:, :2] / hom[:, 2:3]
    target = np.concatenate([uv + f2d, np.ones((n, 1))], axis=1)
    out = np.full((n, 3), np.nan)
    dets = np.linalg.det(m)
    ok = np.abs(dets) > 1e-12
    if np.any(ok):
        q = np.linalg.solve(m[ok], target[ok, :, None])[:, :, 0]
        good = np.abs(q[:, 2]) > 1e-300
        xy = np.full((q.shape[0], 2), np.nan)
        xy[good] = q[good, :2] / q[good, 2:3]
        sub = np.full((int(ok.sum()), 3), np.nan)
        sub[:, 0] = xy[:, 0] - pts[ok, 0]
        sub[:, 1] = xy[:, 1] - pts[ok, 1]
        sub[:, 2] = 0.0
        out[ok] = sub
    return out
