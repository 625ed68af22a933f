"""BEV grid conventions and the grid <-> point-cloud mapping.

Coordinates are ego coordinates of the current frame (frame 0): x forward,
y left, z up, meters. The BEV grid discretizes the x/y plane; each cell
stores one planar displacement shared by every point inside it.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np


@dataclass(frozen=True)
class BevGridSpec:
    """Extents and resolution of the BEV grid.

    Binning is half-open: a point on the upper x/y boundary is out of
    range, so a 64 m extent at 0.25 m yields exactly 256 cells.
    """

    x_min: float = -32.0
    x_max: float = 32.0
    y_min: float = -32.0
    y_max: float = 32.0
    z_min: float = -3.0
    z_max: float = 2.0
    cell_size: float = 0.25

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("grid extents and cell_size must be finite")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.x_max <= self.x_min or self.y_max <= self.y_min or self.z_max <= self.z_min:
            raise ValueError("empty grid extents")

    @property
    def cells_x(self) -> int:
        return int(round((self.x_max - self.x_min) / self.cell_size))

    @property
    def cells_y(self) -> int:
        return int(round((self.y_max - self.y_min) / self.cell_size))


@dataclass(frozen=True)
class PointCloud:
    """Timestamped point set in frame-0 ego coordinates.

    Point order is stable: masks and piece labels index into it.
    """

    frame_index: int
    points: np.ndarray  # (N, 3) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).view()
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class BevMotionField:
    """Per-cell planar displacement from frame 0 to frame ``time_offset``."""

    spec: BevGridSpec
    time_offset: int
    values: np.ndarray  # (cells_x, cells_y, 2) float64

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).view()
        expect = (self.spec.cells_x, self.spec.cells_y, 2)
        if vals.shape != expect:
            raise ValueError(f"field shape {vals.shape} != {expect}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class PointFlowSet:
    """Per-point 3D displacement aligned with a PointCloud's order.

    Flows derived from a BevMotionField have an exactly zero vertical
    component. A stack of flow sets, (..., N, 3), is one set per index of
    its leading axes; the loss values take it, and its length is N.
    """

    time_offset: int
    flows: np.ndarray  # (N, 3) or (..., N, 3) float64

    def __post_init__(self):
        f = np.asarray(self.flows, dtype=np.float64).view()
        if f.ndim < 2 or f.shape[-1] != 3:
            raise ValueError("flows must have shape (N, 3) or (..., N, 3)")
        f.setflags(write=False)
        object.__setattr__(self, "flows", f)

    def __len__(self) -> int:
        return self.flows.shape[-2]


@dataclass(frozen=True)
class FrameSet:
    """Predicted time offsets (frame counts) and the seconds per frame."""

    offsets: tuple = (-1, 1, 2)
    frame_interval_s: float = 0.5

    def __post_init__(self):
        offs = tuple(int(t) for t in self.offsets)
        if 0 in offs:
            raise ValueError("offset 0 is not a prediction target")
        if len(set(offs)) != len(offs):
            raise ValueError("offsets must be distinct")
        if not 0 < self.frame_interval_s < math.inf:
            raise ValueError("frame_interval_s must be finite and positive")
        object.__setattr__(self, "offsets", offs)


def cell_indices(points: np.ndarray, spec: BevGridSpec):
    """Vectorized binning: returns ((N,2) int cell indices, (N,) valid mask).

    Indices are meaningful only where the mask is True.
    """
    pts = np.asarray(points, dtype=np.float64)
    ix = np.floor((pts[:, 0] - spec.x_min) / spec.cell_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - spec.y_min) / spec.cell_size).astype(np.int64)
    valid = (
        (pts[:, 0] >= spec.x_min)
        & (pts[:, 0] < spec.x_max)
        & (pts[:, 1] >= spec.y_min)
        & (pts[:, 1] < spec.y_max)
        & (pts[:, 2] >= spec.z_min)
        & (pts[:, 2] <= spec.z_max)
    )
    ix = np.clip(ix, 0, spec.cells_x - 1)
    iy = np.clip(iy, 0, spec.cells_y - 1)
    return np.stack([ix, iy], axis=1), valid


def cell_keys(points: np.ndarray, spec: BevGridSpec):
    """cell_indices as (N,) flat keys ix * cells_y + iy, which np.unravel_index inverts."""
    idx, valid = cell_indices(points, spec)
    return np.ravel_multi_index(idx.T, (spec.cells_x, spec.cells_y)), valid
