"""BEV grid binning and the grid data types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevss.grid import BevGridSpec, BevMotionField, FrameSet, PointCloud, cell_indices, cell_keys

SPEC = BevGridSpec()


def cell_of(p, spec):
    """cell_indices on one point: (ix, iy), or None if out of range."""
    idx, valid = cell_indices(np.asarray(p, dtype=np.float64).reshape(1, 3), spec)
    if not valid[0]:
        return None
    return int(idx[0, 0]), int(idx[0, 1])


def test_default_grid_is_256_by_256():
    assert SPEC.cells_x == 256
    assert SPEC.cells_y == 256


def test_spec_validation():
    with pytest.raises(ValueError):
        BevGridSpec(cell_size=0.0)
    with pytest.raises(ValueError):
        BevGridSpec(x_min=1.0, x_max=-1.0)


@pytest.mark.parametrize("z_min, z_max", [(2.0, -3.0), (0.5, 0.5)])
def test_spec_rejects_empty_z_extent(z_min, z_max):
    # No point would be binned: cell_indices marks every point out of range.
    with pytest.raises(ValueError, match="empty grid extents"):
        BevGridSpec(z_min=z_min, z_max=z_max)


@pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "cell_size"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_values(field, value):
    # NaN fails every comparison, so z_min=nan puts every point out of range;
    # cell_size=inf gives 0 cells, and an infinite extent no cell count.
    with pytest.raises(ValueError, match="finite"):
        BevGridSpec(**{field: value})


coords = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)
heights = st.floats(min_value=-4.0, max_value=3.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(x=coords, y=coords, z=heights)
def test_binning_partitions_the_grid(x, y, z):
    cell = cell_of((x, y, z), SPEC)
    in_xy = SPEC.x_min <= x < SPEC.x_max and SPEC.y_min <= y < SPEC.y_max
    in_z = SPEC.z_min <= z <= SPEC.z_max
    if in_xy and in_z:
        ix, iy = cell
        assert 0 <= ix < SPEC.cells_x and 0 <= iy < SPEC.cells_y
        # The cell's extent contains the point (half-open in x and y, up to
        # one rounding error of the offset subtraction at cell boundaries).
        tol = 1e-12 * max(1.0, abs(x), abs(y))
        assert SPEC.x_min + ix * SPEC.cell_size <= x + tol
        assert x < SPEC.x_min + (ix + 1) * SPEC.cell_size + tol
        assert SPEC.y_min + iy * SPEC.cell_size <= y + tol
        assert y < SPEC.y_min + (iy + 1) * SPEC.cell_size + tol
    else:
        assert cell is None


def test_binning_boundaries():
    assert cell_of((SPEC.x_min, SPEC.y_min, 0.0), SPEC) == (0, 0)
    assert cell_of((SPEC.x_max, 0.0, 0.0), SPEC) is None  # upper x/y bound excluded
    assert cell_of((0.0, SPEC.y_max, 0.0), SPEC) is None
    assert cell_of((0.0, 0.0, SPEC.z_max), SPEC) is not None  # z range is closed
    assert cell_of((0.0, 0.0, SPEC.z_min), SPEC) is not None
    assert cell_of((0.0, 0.0, SPEC.z_max + 1e-9), SPEC) is None


def test_cell_indices_vectorized_matches_scalar(rng):
    pts = rng.uniform(-40, 40, size=(500, 3))
    pts[:, 2] = rng.uniform(-4, 3, size=500)
    idx, valid = cell_indices(pts, SPEC)
    for i in range(len(pts)):
        cell = cell_of(pts[i], SPEC)
        if cell is None:
            assert not valid[i]
        else:
            assert valid[i]
            assert cell == (idx[i, 0], idx[i, 1])


def test_cell_keys_flatten_cell_indices(rng):
    spec = BevGridSpec(x_min=-8.0, x_max=8.0, y_min=-4.0, y_max=6.0, cell_size=0.5)  # 32 x 20
    pts = rng.uniform(-10, 10, size=(500, 3))
    idx, valid = cell_indices(pts, spec)
    keys, keys_valid = cell_keys(pts, spec)
    np.testing.assert_array_equal(keys_valid, valid)
    np.testing.assert_array_equal(keys, idx[:, 0] * spec.cells_y + idx[:, 1])
    ix, iy = np.unravel_index(keys, (spec.cells_x, spec.cells_y))
    np.testing.assert_array_equal(np.stack([ix, iy], axis=1), idx)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(0, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PointCloud(0, np.array([[np.nan, 0.0, 0.0]]))
    cloud = PointCloud(0, np.zeros((4, 3)))
    assert len(cloud) == 4
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0  # stored array is write-protected


def test_frame_set_validation():
    with pytest.raises(ValueError):
        FrameSet(offsets=(0, 1))
    with pytest.raises(ValueError):
        FrameSet(offsets=(1, 1))
    with pytest.raises(ValueError):
        FrameSet(frame_interval_s=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_frame_set_rejects_bad_intervals(value):
    with pytest.raises(ValueError, match="frame_interval_s"):
        FrameSet(frame_interval_s=value)


def test_motion_field_validation():
    with pytest.raises(ValueError):
        BevMotionField(SPEC, 1, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        BevMotionField(SPEC, 1, np.full((SPEC.cells_x, SPEC.cells_y, 2), np.inf))



def _frozen_attributes():
    """One case per data class that freezes an array it holds: the function
    that builds the class from an array and returns that attribute, and an
    array of the type it stores."""
    from bevss.grid import PointFlowSet
    from bevss.masks import StaticDynamicMask
    from bevss.pieces import RigidPieces, Segmentation2D
    from bevss.projection import CalibratedCamera, FlowImage

    small = BevGridSpec(-1.0, 1.0, -1.0, 1.0, cell_size=0.5)
    return [
        pytest.param(lambda a: PointCloud(0, a).points, np.zeros((4, 3)), id="cloud"),
        pytest.param(lambda a: BevMotionField(small, 1, a).values, np.zeros((4, 4, 2)), id="field"),
        pytest.param(lambda a: PointFlowSet(1, a).flows, np.zeros((4, 3)), id="flows"),
        pytest.param(lambda a: PointFlowSet(1, a).flows, np.zeros((2, 4, 3)), id="stacked flows"),
        pytest.param(lambda a: StaticDynamicMask(0, a).status, np.zeros(4, dtype=np.uint8), id="mask"),
        pytest.param(lambda a: CalibratedCamera(0, 0, a, 8, 8).proj, np.eye(3, 4), id="camera"),
        pytest.param(lambda a: FlowImage(0, 0, 1, a).data, np.zeros((2, 3, 2), dtype=np.float32), id="flow image"),
        pytest.param(lambda a: Segmentation2D(0, a).labels, np.zeros((2, 3), dtype=np.int32), id="segmentation"),
        pytest.param(lambda a: RigidPieces(0, a, 1).labels, np.zeros(4, dtype=np.int32), id="pieces"),
    ]


@pytest.mark.parametrize("attribute, array", _frozen_attributes())
def test_frozen_attribute_leaves_the_callers_array_writable(attribute, array):
    held = attribute(array)
    assert np.shares_memory(held, array)  # no copy of an array of the stored type
    assert not held.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held[...] = 1
    array[...] = 1  # the caller's own array stays writable
    assert array.flags.writeable
