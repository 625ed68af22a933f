"""Pseudo static/dynamic mask generation from optical flow.

A point is static when both its residual 2D flow and the lifted 3D flow
fall below thresholds; points below the ground height are forced static;
points visible in no camera stay unknown.
"""

from dataclasses import dataclass

import numpy as np

from .grid import PointCloud
from .projection import CalibratedCamera, FlowImage, first_sightings, lift_flow_many

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
        s = np.asarray(self.status, dtype=np.uint8).view()
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


def lift_frame(
    cloud: PointCloud,
    flow_imgs: list[FlowImage],
    cam_pairs: list[tuple[CalibratedCamera, CalibratedCamera]],
):
    """Each point's residual pixel flow and its lifted planar displacement.

    cam_pairs[k] holds the camera that produced flow_imgs[k] at frames t
    and t+dt. Cameras are tried in order; the first valid projection
    supplies the flows. Returns (idx, f2d, f3d): the (M,) indices of the
    points some camera sees, in camera order, their (M,2) residual flows
    and their (M,3) lifts over t -> t+dt, NaN where the lift fails.
    """
    if not flow_imgs:
        raise ValueError("empty camera list")
    if len(flow_imgs) != len(cam_pairs):
        raise ValueError("calibration must cover every flow image")

    parts = [(np.zeros(0, dtype=np.intp), np.zeros((0, 2)), np.zeros((0, 3)))]  # no point seen
    for k, idx, (uv, uv_next), (u, v) in first_sightings(cloud.points, cam_pairs):
        f2d = flow_imgs[k].data[v, u].astype(np.float64) - (uv_next - uv)
        parts.append((idx, f2d, lift_flow_many(f2d, cloud.points[idx], cam_pairs[k][0])))
    return tuple(np.concatenate(part) for part in zip(*parts))


def build_mask(
    cloud: PointCloud,
    flow_imgs: list[FlowImage],
    cam_pairs: list[tuple[CalibratedCamera, CalibratedCamera]],
    thr: MaskThresholds,
) -> StaticDynamicMask:
    """Classify every point of the cloud from multi-camera optical flow.

    The flows are those of lift_frame; points no camera sees stay UNKNOWN.
    """
    idx, f2d, f3d = lift_frame(cloud, flow_imgs, cam_pairs)
    status = np.full(len(cloud), UNKNOWN, dtype=np.uint8)
    status[idx] = classify(f2d, f3d, thr)

    # Ground override: height rule wins over any flow evidence.
    ground = cloud.points[:, 2] < thr.ground_z
    status[ground] = STATIC
    return StaticDynamicMask(frame_index=cloud.frame_index, status=status)
