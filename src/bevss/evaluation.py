"""Speed-bucketed flow-error metrics on non-empty BEV cells."""

from dataclasses import dataclass

import numpy as np

from .grid import BevMotionField, PointCloud, cell_indices

SLOW_SPEED_LIMIT = 5.0  # m/s boundary between slow and fast buckets
BUCKETS = ("static", "slow", "fast")


@dataclass(frozen=True)
class BucketStats:
    mean: float
    median: float
    count: int


@dataclass(frozen=True)
class EvalReport:
    static: BucketStats
    slow: BucketStats
    fast: BucketStats

    def bucket(self, name: str) -> BucketStats:
        return getattr(self, name)


def interpolate_flow(field: BevMotionField, target_offset: float) -> BevMotionField:
    """Linearly rescale a field to another horizon (values times t'/t)."""
    if field.time_offset == 0:
        raise ValueError("cannot interpolate a zero-offset field")
    scale = target_offset / field.time_offset
    return BevMotionField(
        spec=field.spec,
        time_offset=int(round(target_offset)),
        values=field.values * scale,
    )


def evaluate(
    pred: BevMotionField,
    gt: BevMotionField,
    cloud: PointCloud,
    horizon_s: float = 1.0,
) -> EvalReport:
    """Mean/median L2 error per speed bucket over non-empty cells.

    Both fields must already be normalized to the same horizon (1 s by
    convention); speed is the ground-truth displacement magnitude over
    that horizon. The static bucket holds the cells of exactly zero
    ground-truth displacement.
    """
    if pred.spec != gt.spec:
        raise ValueError("prediction and ground truth grids differ")
    if not horizon_s > 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    spec = pred.spec
    idx, valid = cell_indices(cloud.points, spec)
    occupied = np.zeros((spec.cells_x, spec.cells_y), dtype=bool)
    occupied[idx[valid, 0], idx[valid, 1]] = True

    err = np.linalg.norm(pred.values - gt.values, axis=2)[occupied]
    speed = np.linalg.norm(gt.values, axis=2)[occupied] / horizon_s
    is_static = speed == 0.0
    is_slow = ~is_static & (speed <= SLOW_SPEED_LIMIT)
    is_fast = ~is_static & ~is_slow

    stats = {}
    for name, sel in (("static", is_static), ("slow", is_slow), ("fast", is_fast)):
        e = err[sel]
        if e.size:
            stats[name] = BucketStats(float(e.mean()), float(np.median(e)), int(e.size))
        else:
            stats[name] = BucketStats(0.0, 0.0, 0)
    return EvalReport(**stats)
