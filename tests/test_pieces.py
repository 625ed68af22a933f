"""Superpixel oversegmentation, point labeling, and piece fusion."""

import dataclasses

import numpy as np
import pytest
from scipy import ndimage

from bevss import pieces as pieces_mod
from bevss import synth
from bevss.grid import BevGridSpec, PointCloud, cell_indices
from bevss.pieces import (
    PieceParams,
    RigidPieces,
    Segmentation2D,
    _compact_labels,
    _enforce_connectivity,
    _grid_shape,
    _slic_labels,
    build_pieces,
    fuse_by_height,
    label_points,
    occlusion_filter,
    oversegment,
)
from bevss.projection import CalibratedCamera, FlowImage


def test_params_validation():
    with pytest.raises(ValueError):
        PieceParams(superpixel_count=0)
    with pytest.raises(ValueError):
        PieceParams(delta_d=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta_d", float("nan")),
        ("slic_iters", -3),
        ("compactness", float("nan")),
        ("compactness", -5.0),
        ("compactness", float("inf")),
        ("flow_gain", float("inf")),
        ("flow_gain", float("nan")),
        ("flow_gain", -1.0),
        ("min_piece_points", 0),
    ],
)
def test_params_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        PieceParams(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("slic_iters", 0), ("compactness", 0.0), ("flow_gain", 0.0), ("min_piece_points", 1)],
)
def test_params_accept_boundary_values(field, value):
    assert getattr(PieceParams(**{field: value}), field) == value


def test_rigid_pieces_validation():
    with pytest.raises(ValueError):
        RigidPieces(0, np.array([0, 1, 5], dtype=np.int32), 3)  # label out of range
    pieces = RigidPieces(0, np.array([-1, 0, 1], dtype=np.int32), 2)
    assert len(pieces) == 3


def test_oversegment_labels_are_contiguous_and_cover_image():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(60, 80, 2)).astype(np.float32)
    seg = oversegment(FlowImage(3, 0, 1, data), PieceParams(superpixel_count=24))
    assert seg.camera_id == 3
    assert seg.labels.shape == (60, 80)
    uniq = np.unique(seg.labels)
    np.testing.assert_array_equal(uniq, np.arange(seg.count))  # ids 0..K-1, no gaps
    assert seg.count >= 2


def test_oversegment_is_deterministic():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(40, 40, 2)).astype(np.float32)
    a = oversegment(FlowImage(0, 0, 1, data), PieceParams(superpixel_count=9))
    b = oversegment(FlowImage(0, 0, 1, data), PieceParams(superpixel_count=9))
    np.testing.assert_array_equal(a.labels, b.labels)


def test_oversegment_splits_along_flow_boundaries():
    # Two flow regions with a sharp vertical boundary: no superpixel may
    # straddle it, because the flow distance dominates the spatial term.
    data = np.zeros((40, 60, 2), dtype=np.float32)
    data[:, 30:, 0] = 50.0
    seg = oversegment(FlowImage(0, 0, 1, data), PieceParams(superpixel_count=12))
    left = set(np.unique(seg.labels[:, :30]).tolist())
    right = set(np.unique(seg.labels[:, 30:]).tolist())
    assert not (left & right)


def test_oversegment_rejects_too_many_superpixels():
    data = np.zeros((4, 4, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        oversegment(FlowImage(0, 0, 1, data), PieceParams(superpixel_count=100))


def _loop_oversegment(data: np.ndarray, params: PieceParams) -> np.ndarray:
    """Reference SLIC followed by the reference connectivity pass."""
    return _loop_enforce_connectivity(_loop_slic_labels(data, params))


def _loop_slic_labels(data: np.ndarray, params: PieceParams) -> np.ndarray:
    """Reference SLIC: one window update per center, in ascending order."""
    h, w = data.shape[:2]
    k = params.superpixel_count
    flow = data.astype(np.float64) * params.flow_gain
    ny, nx = _grid_shape(h, w, k)
    s = max(1.0, np.sqrt(h * w / (ny * nx)))
    inv_s2 = (params.compactness / s) ** 2

    cy = (np.arange(ny) + 0.5) * h / ny
    cx = (np.arange(nx) + 0.5) * w / nx
    centers_yx = np.stack(np.meshgrid(cy, cx, indexing="ij"), axis=-1).reshape(-1, 2)
    ci = np.clip(np.rint(centers_yx[:, 0]).astype(int), 0, h - 1)
    cj = np.clip(np.rint(centers_yx[:, 1]).astype(int), 0, w - 1)
    centers_f = flow[ci, cj].copy()

    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    labels = np.zeros((h, w), dtype=np.int32)
    half = int(np.ceil(2 * s))

    for _ in range(params.slic_iters):
        best = np.full((h, w), np.inf)
        labels.fill(-1)
        for c in range(centers_yx.shape[0]):
            y0 = max(0, int(centers_yx[c, 0]) - half)
            y1 = min(h, int(centers_yx[c, 0]) + half + 1)
            x0 = max(0, int(centers_yx[c, 1]) - half)
            x1 = min(w, int(centers_yx[c, 1]) + half + 1)
            df = flow[y0:y1, x0:x1] - centers_f[c]
            dy = yy[y0:y1, x0:x1] - centers_yx[c, 0]
            dx = xx[y0:y1, x0:x1] - centers_yx[c, 1]
            dist = (df * df).sum(axis=2) + inv_s2 * (dy * dy + dx * dx)
            win = best[y0:y1, x0:x1]
            closer = dist < win
            win[closer] = dist[closer]
            labels[y0:y1, x0:x1][closer] = c
        orphan = labels < 0
        if np.any(orphan):
            oy, ox = np.nonzero(orphan)
            d = (oy[:, None] - centers_yx[None, :, 0]) ** 2 + (
                ox[:, None] - centers_yx[None, :, 1]
            ) ** 2
            labels[oy, ox] = np.argmin(d, axis=1)
        for c in range(centers_yx.shape[0]):
            m = labels == c
            if np.any(m):
                centers_yx[c, 0] = yy[m].mean()
                centers_yx[c, 1] = xx[m].mean()
                centers_f[c] = flow[m].reshape(-1, 2).mean(axis=0)
    return labels


def _loop_enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Reference connectivity pass: one full-image labeling per label."""
    out = labels.copy()
    structure = np.ones((3, 3), dtype=bool)
    for lab in np.unique(out):
        comp, ncomp = ndimage.label(out == lab, structure=structure)
        if ncomp <= 1:
            continue
        sizes = ndimage.sum_labels(np.ones_like(comp), comp, range(1, ncomp + 1))
        keep = int(np.argmax(sizes)) + 1
        for frag in range(1, ncomp + 1):
            if frag == keep:
                continue
            mask = comp == frag
            ring = ndimage.binary_dilation(mask, structure=structure) & ~mask
            ring &= out != lab
            if np.any(ring):
                vals, counts = np.unique(out[ring], return_counts=True)
                out[mask] = vals[np.argmax(counts)]
    return _compact_labels(out)


def _normal(shape, seed, scale=1.0):
    return (scale * np.random.default_rng(seed).normal(size=shape)).astype(np.float32)


@pytest.mark.parametrize(
    "data, params",
    [
        pytest.param(_normal((60, 80, 2), 0), PieceParams(superpixel_count=24), id="random"),
        # Flow distance dominates, so pixels on a window's last row or column
        # can still pick its center.
        pytest.param(
            _normal((40, 40, 2), 3, scale=10.0),
            PieceParams(superpixel_count=16),
            id="flow-dominated",
        ),
        # Constant flow: centers on a regular grid tie at every midpoint, and
        # the lowest center index must win.
        pytest.param(
            np.full((30, 40, 2), 1.5, dtype=np.float32), PieceParams(superpixel_count=12), id="ties"
        ),
        # S = 14.1, windows +-29 px around x = 50 and 150: columns 0-20,
        # 80-120 and 180-199 lie in no window and take the orphan path.
        pytest.param(_normal((2, 200, 2), 1), PieceParams(superpixel_count=2), id="orphans"),
        # Four centers, each window wider than the image: all four borders clip.
        pytest.param(_normal((30, 30, 2), 2), PieceParams(superpixel_count=4), id="clipped"),
        pytest.param(
            _normal((10, 12, 2), 4), PieceParams(superpixel_count=4, slic_iters=0), id="no-iters"
        ),
    ],
)
def test_oversegment_matches_loop_oracle(data, params):
    seg = oversegment(FlowImage(0, 0, 1, data), params)
    np.testing.assert_array_equal(seg.labels, _loop_oversegment(data, params))


def test_oversegment_matches_loop_oracle_on_scene_flow(one_box):
    # The actor's flow boundary and the static background of camera 0.
    data = one_box.frame_flows(0)[0].data[100:220, 140:300]
    params = PieceParams(superpixel_count=80)
    seg = oversegment(FlowImage(0, 0, 1, data), params)
    np.testing.assert_array_equal(seg.labels, _loop_oversegment(data, params))


def _full_camera(bundle, camera=0) -> FlowImage:
    # Default params on a whole 240x480 image: 14x29 = 406 centers and
    # 69x69 windows.
    flow = bundle.frame_flows(0)[camera]
    assert flow.data.shape[:2] == (240, 480)
    assert _grid_shape(240, 480, PieceParams().superpixel_count) == (14, 29)
    return flow


def test_oversegment_matches_loop_oracle_on_a_full_camera(one_box):
    flow = _full_camera(one_box)
    seg = oversegment(flow, PieceParams())
    np.testing.assert_array_equal(seg.labels, _loop_oversegment(flow.data, PieceParams()))


@pytest.mark.parametrize("slic_iters", [2, 3, 10])
def test_oversegment_matches_loop_oracle_on_a_camera_that_stops_early(one_box, slic_iters):
    # Camera 1 reaches the fixed point after one pass, so SLIC stops after
    # two; the oracle runs every pass.
    flow = _full_camera(one_box, camera=1)
    params = PieceParams(slic_iters=slic_iters)
    seg = oversegment(flow, params)
    np.testing.assert_array_equal(seg.labels, _loop_oversegment(flow.data, params))


@pytest.mark.parametrize("camera, slic_iters, passes", [(1, 10, 2), (0, 10, 10), (1, 1, 1)])
def test_slic_stops_at_the_fixed_point(one_box, monkeypatch, camera, slic_iters, passes):
    # The fixed-point test calls np.array_equal once at the end of each pass.
    calls = []
    array_equal = np.array_equal

    def counting(*args, **kwargs):
        calls.append(None)
        return array_equal(*args, **kwargs)

    data = _full_camera(one_box, camera).data
    monkeypatch.setattr(np, "array_equal", counting)
    _slic_labels(data, PieceParams(slic_iters=slic_iters))
    monkeypatch.undo()
    assert len(calls) == passes


def test_slic_labels_match_loop_oracle_on_a_full_noisy_camera():
    # Noise makes the flow term dominate near every pixel. The reference
    # connectivity pass would take 40-54 s on this image (~19,000 fragments,
    # each with a full-image dilation), so this compares the labels before
    # it; test_enforce_connectivity_matches_loop_oracle_on_noisy_flow covers
    # that pass on noisy flow.
    flow = _full_camera(synth.generate(synth.preset("night-noise", seed=0)))
    np.testing.assert_array_equal(
        _slic_labels(flow.data, PieceParams()), _loop_slic_labels(flow.data, PieceParams())
    )


@pytest.mark.parametrize("seed", range(4))
def test_enforce_connectivity_matches_loop_oracle(seed):
    # Few labels on a small image: most start split, and merges can join
    # the pieces of a label that is visited later.
    labels = np.random.default_rng(seed).integers(0, 5, size=(24, 24)).astype(np.int32)
    np.testing.assert_array_equal(
        _enforce_connectivity(labels), _loop_enforce_connectivity(labels)
    )


def test_enforce_connectivity_matches_loop_oracle_on_noisy_flow():
    # SLIC on strong flow noise: every label splits into dozens of
    # fragments, some at the image border, and fragments merge into labels
    # that are visited later.
    labels = _slic_labels(_normal((60, 80, 2), 7, scale=5.0), PieceParams(superpixel_count=24))
    structure = np.ones((3, 3), dtype=bool)
    fragments = [ndimage.label(labels == lab, structure=structure)[1] for lab in np.unique(labels)]
    assert min(fragments) > 10 and sum(fragments) > 1000
    np.testing.assert_array_equal(
        _enforce_connectivity(labels), _loop_enforce_connectivity(labels)
    )


def _first_pass_windows(h, w, k):
    """Truncated first-pass centers (rows, cols) with the half-widths of
    their inner (ceil(S)) and full (ceil(2S)) windows."""
    ny, nx = _grid_shape(h, w, k)
    s = max(1.0, np.sqrt(h * w / (ny * nx)))
    iy, ix = np.meshgrid(
        ((np.arange(ny) + 0.5) * h / ny).astype(int),
        ((np.arange(nx) + 0.5) * w / nx).astype(int),
        indexing="ij",
    )
    return iy.ravel(), ix.ravel(), int(np.ceil(s)), int(np.ceil(2 * s))


def _assert_slic_matches_loop_oracle(data, params):
    for slic_iters in (1, params.slic_iters):
        p = dataclasses.replace(params, slic_iters=slic_iters)
        np.testing.assert_array_equal(_slic_labels(data, p), _loop_slic_labels(data, p))


def test_slic_labels_match_loop_oracle_where_a_center_wins_beyond_its_inner_window():
    # Flow dominates, so the first pass gives some pixels to a center more
    # than ceil(S) rows or columns away: the second sweep must find them.
    data = _normal((40, 40, 2), 3, scale=10.0)
    params = PieceParams(superpixel_count=16)
    iy, ix, inner, half = _first_pass_windows(40, 40, 16)
    labels = _slic_labels(data, dataclasses.replace(params, slic_iters=1))
    dy, dx = (np.abs(r - c[labels]) for r, c in zip(np.indices(labels.shape), (iy, ix)))
    assert np.any(np.maximum(dy, dx) > inner) and np.all(np.maximum(dy, dx) <= half)
    _assert_slic_matches_loop_oracle(data, params)


@pytest.mark.parametrize(
    "data",
    [np.full((30, 40, 2), 1.5, dtype=np.float32), _normal((30, 40, 2), 5)],
    ids=["constant", "random"],
)
def test_slic_labels_match_loop_oracle_without_a_spatial_term(data):
    # compactness 0 makes the bound 0, so every pixel stays open. On constant
    # flow every distance is 0: the lowest index among all the windows that
    # cover a pixel must win, not the lowest among the inner ones.
    _assert_slic_matches_loop_oracle(data, PieceParams(superpixel_count=12, compactness=0.0))


def test_slic_labels_match_loop_oracle_between_inner_windows():
    # One row of 4 centers 25 px apart with S = 10: the inner windows
    # (+-10) leave gaps that the full windows (+-20) of two centers cover.
    data = _normal((4, 100, 2), 6, scale=10.0)
    iy, ix, inner, half = _first_pass_windows(4, 100, 4)
    assert iy.size == 4 and (inner, half) == (10, 20)
    gap = np.all(np.abs(np.arange(100)[:, None] - ix) > inner, axis=1)
    assert gap.sum() == 16  # columns 0-1, 23-26, 48-51, 73-76 and 98-99
    _assert_slic_matches_loop_oracle(data, PieceParams(superpixel_count=4))


def _assert_connectivity_matches_loop_oracle(labels):
    out = _enforce_connectivity(labels)
    np.testing.assert_array_equal(out, _loop_enforce_connectivity(labels))
    return out


def test_enforce_connectivity_breaks_a_ring_tie_toward_the_smallest_label():
    # The lone 5 at (3, 4) has four 3s and four 4s around it.
    labels = np.array(
        [
            [5, 5, 5, 1, 1, 1, 1],
            [5, 5, 5, 1, 1, 1, 1],
            [5, 5, 5, 3, 3, 3, 1],
            [1, 1, 1, 3, 5, 4, 1],
            [1, 1, 1, 4, 4, 4, 1],
            [1, 1, 1, 1, 1, 1, 1],
        ],
        dtype=np.int32,
    )
    out = _assert_connectivity_matches_loop_oracle(labels)
    assert out[3, 4] == out[2, 4] != out[4, 4]


def test_enforce_connectivity_merges_a_fragment_on_the_image_border():
    # The 3 in the corner has three ring pixels inside the image (two 1s, one
    # 2) and five outside it, which must not vote.
    labels = np.array(
        [
            [3, 1, 1, 1, 1],
            [2, 1, 1, 1, 1],
            [2, 2, 1, 3, 3],
            [2, 2, 1, 3, 3],
        ],
        dtype=np.int32,
    )
    out = _assert_connectivity_matches_loop_oracle(labels)
    assert out[0, 0] == out[0, 1]


def test_enforce_connectivity_merges_three_fragments_of_one_label():
    # Label 9 keeps its 3x5 block and loses three fragments. The bar at row
    # 2 has six 1s on its ring against three 2s and three 3s; counted once per
    # adjacent bar pixel, the 2s and 3s would have seven votes each.
    labels = np.ones((9, 11), dtype=np.int32)
    labels[6:, 6:] = 9
    labels[1, 2:5] = 2
    labels[2, 2:5] = 9
    labels[3, 2:5] = 3
    labels[0, 8] = 9  # on the top border
    labels[4, 9] = 9
    labels[3, 8:] = 4
    assert ndimage.label(labels == 9, structure=np.ones((3, 3)))[1] == 4
    out = _assert_connectivity_matches_loop_oracle(labels)
    assert out[2, 3] == out[0, 8] == out[4, 9] == out[0, 0]


def test_compact_labels_renumbers_in_ascending_order():
    labels = np.random.default_rng(0).choice([0, 3, 4, 9, 40], size=(6, 7)).astype(np.int32)
    want = np.unique(labels, return_inverse=True)[1].reshape(labels.shape)
    np.testing.assert_array_equal(_compact_labels(labels), want)


def test_segmentation_validation():
    with pytest.raises(ValueError):
        Segmentation2D(0, np.zeros((2, 2, 2), dtype=np.int32))


def _identity_camera():
    # Center at the origin looking along +x: u = 240 - 250 y/x, v = 120 - 250 z/x.
    proj = np.array(
        [
            [240.0, -250.0, 0.0, 0.0],
            [120.0, 0.0, -250.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    return CalibratedCamera(0, 0, proj, 480, 240)


def test_occlusion_filter_drops_deep_points_per_label():
    cam = _identity_camera()
    pts = np.array(
        [
            [5.0, 0.0, 0.0],  # closest member of label 0
            [5.2, 0.0, 0.0],  # within delta_d: kept
            [7.0, 0.0, 0.0],  # 2 m deeper: bleed-through, dropped
            [9.0, 1.0, 0.0],  # label 1, alone: kept
        ]
    )
    labels = np.array([0, 0, 0, 1], dtype=np.int32)
    camera_of_label = np.array([0, 0], dtype=np.int32)
    out = occlusion_filter(PointCloud(0, pts), labels, [cam], 0.5, camera_of_label)
    np.testing.assert_array_equal(out, [0, 0, -1, 1])


def test_occlusion_filter_keeps_unlabeled_points():
    cam = _identity_camera()
    pts = np.array([[5.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
    labels = np.array([-1, -1], dtype=np.int32)
    out = occlusion_filter(PointCloud(0, pts), labels, [cam], 0.5, np.zeros(0, dtype=np.int32))
    np.testing.assert_array_equal(out, [-1, -1])


def test_fuse_by_height_unions_labels_sharing_a_cell():
    spec = BevGridSpec()
    # Labels 0 and 1 share the cell at the origin; label 2 is elsewhere.
    pts = np.array(
        [
            [0.05, 0.05, -1.0],
            [0.05, 0.05, -1.0],
            [0.05, 0.05, -1.0],
            [0.10, 0.10, 0.5],  # same cell, different height, label 1
            [0.10, 0.10, 0.5],
            [0.10, 0.10, 0.5],
            [10.0, 10.0, 0.0],
            [10.0, 10.0, 0.0],
            [10.0, 10.0, 0.0],
        ]
    )
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int32)
    pieces = fuse_by_height(PointCloud(0, pts), labels, spec, min_piece_points=3)
    assert pieces.piece_count == 2
    assert len(set(pieces.labels[:6].tolist())) == 1  # 0 and 1 merged
    assert pieces.labels[6] != pieces.labels[0]


def test_fuse_by_height_drops_small_pieces_and_keeps_order():
    spec = BevGridSpec()
    pts = np.vstack(
        [
            np.tile([1.0, 1.0, 0.0], (6, 1)),
            np.tile([5.0, 5.0, 0.0], (2, 1)),  # below min_piece_points
        ]
    )
    labels = np.array([0] * 6 + [1] * 2, dtype=np.int32)
    pieces = fuse_by_height(PointCloud(0, pts), labels, spec, min_piece_points=5)
    assert pieces.piece_count == 1
    np.testing.assert_array_equal(pieces.labels, [0] * 6 + [-1] * 2)


def test_fuse_by_height_ignores_out_of_grid_points():
    spec = BevGridSpec()
    pts = np.vstack(
        [
            np.tile([1.0, 1.0, 0.0], (5, 1)),
            np.tile([100.0, 100.0, 0.0], (5, 1)),  # outside: no cell, no fusion
        ]
    )
    labels = np.array([0] * 5 + [1] * 5, dtype=np.int32)
    pieces = fuse_by_height(PointCloud(0, pts), labels, spec, min_piece_points=5)
    assert pieces.labels[0] != pieces.labels[5]
    assert pieces.piece_count == 2


def _union_find_fuse_by_height(cloud, labels, spec, min_piece_points=5):
    """The union-find fuse_by_height that the connected-components one
    replaced: same-cell label pairs are unioned, the smaller root wins."""
    n_labels = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
    parent = np.arange(n_labels)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    idx, in_range = cell_indices(cloud.points, spec)
    valid = (labels >= 0) & in_range
    if np.any(valid):
        cell_key = idx[valid, 0].astype(np.int64) * spec.cells_y + idx[valid, 1]
        lab = labels[valid]
        order = np.lexsort((lab, cell_key))
        ck, lb = cell_key[order], lab[order]
        same_cell = ck[1:] == ck[:-1]
        for a, b in zip(lb[:-1][same_cell], lb[1:][same_cell]):
            if a != b:
                union(int(a), int(b))

    fused = np.full(len(cloud), -1, dtype=np.int32)
    has = labels >= 0
    if n_labels:
        roots = np.array([find(i) for i in range(n_labels)])
        fused[has] = roots[labels[has]]
    uniq, counts = np.unique(fused[fused >= 0], return_counts=True)
    keep = uniq[counts >= min_piece_points]
    remap = np.full(n_labels, -1, dtype=np.int32)
    remap[keep] = np.arange(keep.size, dtype=np.int32)
    out = np.full(len(cloud), -1, dtype=np.int32)
    out[has] = remap[fused[has]]
    return out, int(keep.size)


@pytest.mark.parametrize("seed", range(40))
def test_fuse_by_height_matches_union_find_oracle(seed):
    # Points crowd a few cells so labels chain through shared cells; some
    # points fall outside the grid and some label ids never occur.
    r = np.random.default_rng(seed)
    n = int(r.integers(0, 300))
    pts = r.uniform(-1.5, 1.5, size=(n, 3))
    pts[r.random(n) < 0.1, 0] = 100.0
    labels = r.integers(-1, int(r.integers(1, 80)), size=n).astype(np.int32)
    spec = BevGridSpec()
    pieces = fuse_by_height(PointCloud(0, pts), labels, spec, min_piece_points=3)
    want, count = _union_find_fuse_by_height(PointCloud(0, pts), labels, spec, min_piece_points=3)
    assert np.array_equal(pieces.labels, want)
    assert pieces.piece_count == count


def test_fuse_by_height_matches_union_find_oracle_on_scene(one_box):
    cloud, spec, params = one_box.clouds[0], one_box.grid, PieceParams()
    cams = [cam for cam, _ in one_box.cam_pair(0)]
    segs = [oversegment(f, params) for f in one_box.frame_flows(0)]
    labels, camera_of_label = label_points(cloud, segs, cams, params)
    labels = occlusion_filter(cloud, labels, cams, params.delta_d, camera_of_label)
    pieces = fuse_by_height(cloud, labels, spec, params.min_piece_points)
    want, count = _union_find_fuse_by_height(cloud, labels, spec, params.min_piece_points)
    assert np.array_equal(pieces.labels, want)
    assert pieces.piece_count == count
    assert count > 0


def _build_pieces_every_image(cloud, flow_imgs, cams, params, spec):
    """Oracle for build_pieces: oversegment every image, equal or not."""
    segs = [oversegment(f, params) for f in flow_imgs]
    labels, camera_of_label = label_points(cloud, segs, cams, params)
    labels = occlusion_filter(cloud, labels, cams, params.delta_d, camera_of_label)
    return fuse_by_height(cloud, labels, spec, params.min_piece_points)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call is counted; returns the counter."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _check_build_pieces(monkeypatch, cloud, flow_imgs, cams, spec):
    params = PieceParams()
    want = _build_pieces_every_image(cloud, flow_imgs, cams, params, spec)
    calls = _count_calls(monkeypatch, pieces_mod, "oversegment")
    seen = _count_calls(monkeypatch, pieces_mod, "label_points")
    got = build_pieces(cloud, flow_imgs, cams, params, spec)
    assert np.array_equal(got.labels, want.labels)
    assert got.piece_count == want.piece_count
    segs = seen[0][1]
    assert [seg.camera_id for seg in segs] == [f.camera_id for f in flow_imgs]
    distinct = {f.data.tobytes() for f in flow_imgs}
    assert len(calls) == len(distinct)
    return len(calls)


@pytest.mark.parametrize("scene, distinct", [("one_box", 2), ("two_box", 3)])
def test_build_pieces_oversegments_each_distinct_image_once(request, monkeypatch, scene, distinct):
    # Cameras 1-3 of one-box see the same still view at frame 0.
    bundle = request.getfixturevalue(scene)
    cams = [cam for cam, _ in bundle.cam_pair(0)]
    n = _check_build_pieces(monkeypatch, bundle.clouds[0], bundle.frame_flows(0), cams, bundle.grid)
    assert n == distinct


def test_build_pieces_reuses_a_repeated_noisy_image(monkeypatch):
    # The copy has the bits, not the identity, of the first image, and a
    # camera id of its own.
    bundle = synth.generate(synth.preset("night-noise", seed=0))
    flows = bundle.frame_flows(0)[:2]
    cams = [cam for cam, _ in bundle.cam_pair(0)][:2]
    flows.append(FlowImage(9, 0, 1, flows[0].data.copy()))
    cams.append(dataclasses.replace(cams[0], camera_id=9))
    assert _check_build_pieces(monkeypatch, bundle.clouds[0], flows, cams, bundle.grid) == 2
