"""Speed-bucketed evaluation and horizon interpolation."""

import numpy as np
import pytest

from bevss import evaluation
from bevss.grid import BevGridSpec, BevMotionField, PointCloud

SPEC = BevGridSpec()


def field_with(cells):
    values = np.zeros((SPEC.cells_x, SPEC.cells_y, 2))
    for (ix, iy), v in cells.items():
        values[ix, iy] = v
    return BevMotionField(SPEC, 1, values)


def cloud_at_cells(cells):
    pts = [
        [SPEC.x_min + (ix + 0.5) * SPEC.cell_size, SPEC.y_min + (iy + 0.5) * SPEC.cell_size, 0.0]
        for ix, iy in cells
    ]
    return PointCloud(0, np.array(pts))


def test_only_occupied_cells_count():
    gt = field_with({(5, 5): (1.0, 0.0), (9, 9): (1.0, 0.0)})
    pred = field_with({(5, 5): (1.0, 0.0), (9, 9): (7.0, 0.0)})
    cloud = cloud_at_cells([(5, 5)])  # cell (9, 9) holds no points
    report = evaluation.evaluate(pred, gt, cloud)
    assert report.slow.count == 1
    assert report.slow.mean == 0.0


def test_error_is_euclidean_per_cell():
    gt = field_with({(5, 5): (1.0, 1.0)})
    pred = field_with({(5, 5): (4.0, 5.0)})
    report = evaluation.evaluate(pred, gt, cloud_at_cells([(5, 5)]))
    assert report.slow.mean == pytest.approx(5.0)  # 3-4-5 triangle
    assert report.slow.median == pytest.approx(5.0)


def test_bucket_assignment_uses_gt_speed():
    gt = field_with({(1, 1): (0.0, 0.0), (2, 2): (3.0, 0.0), (3, 3): (8.0, 0.0)})
    pred = field_with({})
    report = evaluation.evaluate(pred, gt, cloud_at_cells([(1, 1), (2, 2), (3, 3)]))
    assert report.static.count == 1
    assert report.slow.count == 1
    assert report.fast.count == 1
    assert report.fast.mean == pytest.approx(8.0)
    assert report.bucket("fast") is report.fast


def test_horizon_scales_speed():
    gt = field_with({(1, 1): (4.0, 0.0)})  # 4 m over 0.5 s -> 8 m/s
    pred = field_with({})
    report = evaluation.evaluate(pred, gt, cloud_at_cells([(1, 1)]), horizon_s=0.5)
    assert report.fast.count == 1


@pytest.mark.parametrize("horizon_s", [0.0, -1.0, float("nan")])
def test_non_positive_horizon_rejected(horizon_s):
    gt = field_with({(1, 1): (4.0, 0.0)})
    with pytest.raises(ValueError, match="horizon"):
        evaluation.evaluate(field_with({}), gt, cloud_at_cells([(1, 1)]), horizon_s=horizon_s)


def test_interpolate_flow_scales_values_and_offset():
    field = field_with({(1, 1): (1.0, -2.0)})
    out = evaluation.interpolate_flow(field, 2)
    assert out.time_offset == 2
    np.testing.assert_allclose(out.values[1, 1], [2.0, -4.0])
    back = evaluation.interpolate_flow(BevMotionField(SPEC, -1, field.values), 1)
    np.testing.assert_allclose(back.values[1, 1], [-1.0, 2.0])


def test_interpolate_flow_rejects_zero_offset():
    with pytest.raises(ValueError):
        evaluation.interpolate_flow(BevMotionField(SPEC, 0, np.zeros((256, 256, 2))), 1)


def test_grid_mismatch_rejected():
    other = BevGridSpec(cell_size=0.5)
    a = BevMotionField(SPEC, 1, np.zeros((SPEC.cells_x, SPEC.cells_y, 2)))
    b = BevMotionField(other, 1, np.zeros((other.cells_x, other.cells_y, 2)))
    with pytest.raises(ValueError):
        evaluation.evaluate(a, b, cloud_at_cells([(1, 1)]))


def test_empty_buckets_report_zero():
    gt = field_with({})
    pred = field_with({})
    report = evaluation.evaluate(pred, gt, cloud_at_cells([(1, 1)]))
    assert report.slow == evaluation.BucketStats(0.0, 0.0, 0)
    assert report.fast.count == 0
