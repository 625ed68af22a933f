"""Pseudo static/dynamic mask generation from optical flow.

A point is static when both its residual 2D flow and the lifted 3D flow
fall below thresholds; points below the ground height are forced static;
points visible in no camera stay unknown.
"""

from dataclasses import dataclass

import numpy as np

from .grid import PointCloud
from .projection import CalibratedCamera, FlowImage, lift_flow_many, project_many

STATIC = 0
DYNAMIC = 1
UNKNOWN = 2


@dataclass(frozen=True)
class MaskThresholds:
    tau_2d: float = 5.0  # pixels
    tau_3d: float = 1.0  # meters
    ground_z: float = -1.4  # meters; below this a point is forced static

    def __post_init__(self):
        for name in ("tau_2d", "tau_3d"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not np.isfinite(self.ground_z):
            raise ValueError("ground_z must be finite")


@dataclass(frozen=True)
class StaticDynamicMask:
    frame_index: int
    status: np.ndarray  # (N,) uint8 of STATIC/DYNAMIC/UNKNOWN

    def __post_init__(self):
        s = np.asarray(self.status, dtype=np.uint8)
        if s.ndim != 1:
            raise ValueError("status must be 1-D")
        if not np.all(s <= UNKNOWN):
            raise ValueError("status values must be 0, 1, or 2")
        s.setflags(write=False)
        object.__setattr__(self, "status", s)

    def __len__(self) -> int:
        return self.status.shape[0]


def classify(f2d: np.ndarray, f3d: np.ndarray, thr: MaskThresholds) -> np.ndarray:
    """Threshold rule on (N,2) and (N,3) flows: static iff |f2d| < tau_2d and
    |f3d| < tau_3d. A NaN lift counts as dynamic. Returns (N,) uint8."""
    static = (np.linalg.norm(f2d, axis=1) < thr.tau_2d) & (np.linalg.norm(f3d, axis=1) < thr.tau_3d)
    return np.where(static, STATIC, DYNAMIC).astype(np.uint8)


def build_mask(
    cloud: PointCloud,
    flow_imgs: list[FlowImage],
    cam_pairs: list[tuple[CalibratedCamera, CalibratedCamera]],
    thr: MaskThresholds,
) -> StaticDynamicMask:
    """Classify every point of the cloud from multi-camera optical flow.

    cam_pairs[k] holds the camera that produced flow_imgs[k] at frames t
    and t+dt. Cameras are tried in order; the first valid projection
    supplies the flows. Invisible points stay UNKNOWN.
    """
    if not flow_imgs:
        raise ValueError("empty camera list")
    if len(flow_imgs) != len(cam_pairs):
        raise ValueError("calibration must cover every flow image")

    n = len(cloud)
    status = np.full(n, UNKNOWN, dtype=np.uint8)
    assigned = np.zeros(n, dtype=bool)

    for flow_img, (cam_t, cam_next) in zip(flow_imgs, cam_pairs):
        todo = ~assigned
        if not np.any(todo):
            break
        idx = np.nonzero(todo)[0]
        pts = cloud.points[idx]
        uv, _, valid_t = project_many(pts, cam_t)
        uv_next, _, valid_next = project_many(pts, cam_next)
        valid = valid_t & valid_next
        if not np.any(valid):
            continue
        idx = idx[valid]
        pts = pts[valid]
        uv = uv[valid]
        uv_next = uv_next[valid]

        u = np.minimum(np.rint(uv[:, 0]).astype(np.int64), cam_t.width - 1)
        v = np.minimum(np.rint(uv[:, 1]).astype(np.int64), cam_t.height - 1)
        total = flow_img.data[v, u].astype(np.float64)
        f2d = total - (uv_next - uv)

        status[idx] = classify(f2d, lift_flow_many(f2d, pts, cam_t), thr)
        assigned[idx] = True

    # Ground override: height rule wins over any flow evidence.
    ground = cloud.points[:, 2] < thr.ground_z
    status[ground] = STATIC
    return StaticDynamicMask(frame_index=cloud.frame_index, status=status)
