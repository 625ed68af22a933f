"""Self-supervised BEV motion fields from LiDAR point clouds and optical flow."""

from .grid import BevGridSpec, BevMotionField, FrameSet, PointCloud, PointFlowSet
from .losses import LossValue, LossWeights
from .masks import MaskThresholds, StaticDynamicMask
from .pieces import PieceParams, RigidPieces
from .projection import CalibratedCamera, FlowImage

__all__ = [
    "BevGridSpec",
    "BevMotionField",
    "CalibratedCamera",
    "FlowImage",
    "FrameSet",
    "LossValue",
    "LossWeights",
    "MaskThresholds",
    "PieceParams",
    "PointCloud",
    "PointFlowSet",
    "RigidPieces",
    "StaticDynamicMask",
]

__version__ = "0.1.0"
