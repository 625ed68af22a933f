"""The scene bundle: one scene's inputs, calibration, oracles and labels.

Synthetic generation, the file loader and the optimizer all exchange
scenes in this form.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import BevGridSpec, FrameSet
from .pieces import RigidPieces


@dataclass
class SceneBundle:
    """Everything one scene provides: inputs, calibration, and oracles."""

    grid: BevGridSpec
    frame_set: FrameSet
    clouds: dict  # frame -> PointCloud (frames T and 0)
    cameras: dict  # (camera_id, frame) -> CalibratedCamera
    flow_images: dict  # (camera_id, t) -> FlowImage for the pair (t, t+1)
    gt_fields: dict  # t -> BevMotionField
    gt_masks: dict  # frame -> (N,) uint8, 1 = dynamic
    gt_instances: dict  # frame -> (N,) int32, -1 = background
    visibility: dict  # frame -> (N,) bool, visible in at least one camera
    actor_velocities: np.ndarray  # (A, 2) meters per frame
    camera_ids: tuple
    pseudo_masks: dict = field(default_factory=dict)  # frame -> StaticDynamicMask
    pieces: RigidPieces | None = None

    @property
    def mask_frames(self):
        return sorted(set(self.frame_set.offsets) | {0})

    def cam_pair(self, frame: int):
        """Per-camera (camera at frame, camera at frame+1) tuples."""
        return [(self.cameras[(k, frame)], self.cameras[(k, frame + 1)]) for k in self.camera_ids]

    def frame_flows(self, frame: int):
        return [self.flow_images[(k, frame)] for k in self.camera_ids]
