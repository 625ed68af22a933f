"""Rigid piece generation.

Pipeline: over-segment each flow image into superpixels, project the
segment labels onto the point cloud, drop camera-occluded bleed-through
points, then fuse labels that share a BEV cell into single pieces.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .grid import BevGridSpec, PointCloud, cell_keys
from .projection import CalibratedCamera, FlowImage, project_many


@dataclass(frozen=True)
class PieceParams:
    superpixel_count: int = 400
    compactness: float = 10.0
    flow_gain: float = 4.0  # scales flow channels so boundaries dominate
    slic_iters: int = 10  # most assignment passes; SLIC stops early at its fixed point
    delta_d: float = 0.5  # meters of allowed depth spread within a piece
    min_piece_points: int = 5

    def __post_init__(self):
        if self.superpixel_count < 1:
            raise ValueError("superpixel_count must be >= 1")
        if self.slic_iters < 0:
            raise ValueError("slic_iters must be >= 0")
        for name in ("compactness", "flow_gain"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not self.delta_d > 0:
            raise ValueError("delta_d must be positive")
        if self.min_piece_points < 1:
            raise ValueError("min_piece_points must be >= 1")


@dataclass(frozen=True)
class Segmentation2D:
    camera_id: int
    labels: np.ndarray  # (H, W) int32, contiguous ids 0..K-1

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int32)
        if lab.ndim != 2:
            raise ValueError("labels must be 2-D")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    @property
    def count(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class RigidPieces:
    frame_index: int
    labels: np.ndarray  # (N,) int32, -1 = unassigned
    piece_count: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int32)
        if lab.ndim != 1:
            raise ValueError("labels must be 1-D")
        if lab.size and lab.max() >= self.piece_count:
            raise ValueError("label exceeds piece_count")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.labels.shape[0]


def _grid_shape(h: int, w: int, k: int) -> tuple[int, int]:
    ny = max(1, int(round(np.sqrt(k * h / w)))) if w else 1
    ny = min(ny, h)
    nx = max(1, min(w, int(round(k / ny))))
    return ny, nx


def oversegment(flow_img: FlowImage, params: PieceParams) -> Segmentation2D:
    """SLIC-style clustering of the flow image in (u, v, g*du, g*dv) space.

    Centers start on a regular grid of spacing S. Each iteration gives every
    pixel the center that minimizes the distance among the centers whose
    search window covers it; ties go to the lowest center index. A window
    spans rows and columns within +-ceil(2S) of the truncated center, i.e.
    (2*ceil(2S)+1)^2 pixels clipped at the image border. Pixels outside
    every window take the spatially nearest center. At most
    `params.slic_iters` passes run: the loop stops once a pass leaves the
    centers where they were, since every later pass would repeat it, so the
    labels are those of all `slic_iters` passes bit for bit. Disconnected
    fragments are relabeled to a neighboring superpixel afterwards.
    """
    h, w = flow_img.data.shape[:2]
    if params.superpixel_count > h * w:
        raise ValueError("more superpixels than pixels")
    labels = _enforce_connectivity(_slic_labels(flow_img.data, params))
    return Segmentation2D(camera_id=flow_img.camera_id, labels=labels)


def _slic_labels(data: np.ndarray, params: PieceParams) -> np.ndarray:
    """(H, W) int32 SLIC labels of an (H, W, 2) flow image, before connectivity."""
    h, w = data.shape[:2]
    ny, nx = _grid_shape(h, w, params.superpixel_count)
    s = max(1.0, np.sqrt(h * w / (ny * nx)))
    inv_s2 = (params.compactness / s) ** 2
    half = int(np.ceil(2 * s))
    f0, f1 = (data[..., ch].astype(np.float64) * params.flow_gain for ch in range(2))

    cy = (np.arange(ny) + 0.5) * h / ny
    cx = (np.arange(nx) + 0.5) * w / nx
    centers_yx = np.stack(np.meshgrid(cy, cx, indexing="ij"), axis=-1).reshape(-1, 2)
    n_c = centers_yx.shape[0]
    ci = np.clip(np.rint(centers_yx[:, 0]).astype(int), 0, h - 1)
    cj = np.clip(np.rint(centers_yx[:, 1]).astype(int), 0, w - 1)
    # One row per center: (y, x, f0, f1).
    centers = np.column_stack([centers_yx, f0[ci, cj], f1[ci, cj]])

    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    labels = np.zeros((h, w), dtype=np.int32)
    best = np.empty((h, w))
    for _ in range(params.slic_iters):
        best.fill(np.inf)
        labels.fill(-1)
        # Centers in ascending order, each over its window clipped at the
        # border; a pixel moves only on a strictly smaller distance, so ties go
        # to the lowest center index.
        for c, (yc, xc, fc0, fc1) in enumerate(centers.tolist()):
            rows = slice(max(int(yc) - half, 0), int(yc) + half + 1)
            cols = slice(max(int(xc) - half, 0), int(xc) + half + 1)
            dy = ys[rows] - yc
            dx = xs[cols] - xc
            d0 = f0[rows, cols] - fc0
            d1 = f1[rows, cols] - fc1
            # Keep this expression and operand order: the labels must match the
            # per-center reference loop in tests/test_pieces.py bit for bit.
            dist = (d0 * d0 + d1 * d1) + inv_s2 * ((dy * dy)[:, None] + dx * dx)
            win = best[rows, cols]
            closer = dist < win
            np.copyto(win, dist, where=closer)
            np.copyto(labels[rows, cols], c, where=closer)
        # Orphans outside every window: nearest center by spatial distance.
        orphan = labels < 0
        if np.any(orphan):
            oy, ox = np.nonzero(orphan)
            d = (oy[:, None] - centers[None, :, 0]) ** 2 + (ox[:, None] - centers[None, :, 1]) ** 2
            labels[oy, ox] = np.argmin(d, axis=1)
        # Per-center means; bincount sums in raster order, as a masked mean
        # would, and centers left without pixels keep their position. Each
        # image-sized weight array is freed before the next one is built.
        lab = labels.ravel()
        counts = np.bincount(lab, minlength=n_c)
        has = counts > 0

        def mean(weights):
            return np.bincount(lab, weights, n_c)[has] / counts[has]

        previous = centers.copy()
        centers[has, 0] = mean(np.repeat(ys, w))
        centers[has, 1] = mean(np.tile(xs, h))
        centers[has, 2] = mean(f0.ravel())
        centers[has, 3] = mean(f1.ravel())
        # Fixed point. A pass assigns labels from the centers alone, and the
        # centers come from those labels (empty ones keep theirs). Centers
        # equal to the ones this pass assigned from make the next pass assign
        # the same labels, whose bincounts give the same centers again, so
        # every later pass repeats this one: stopping here returns the labels
        # that all slic_iters passes would. Labels equal to the previous
        # pass's imply equal centers, so this stops no later than that test.
        if np.array_equal(centers, previous):
            break
    return labels


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Keep each label's largest component; merge fragments into a neighbor.

    Labels are visited in ascending order. A merge adds a connected fragment
    next to the receiving label, so a label that starts in one component
    stays so: only the labels split at the start need the merge pass.
    """
    out = labels.copy()
    structure = np.ones((3, 3), dtype=bool)
    split = [
        lab
        for lab, box in enumerate(ndimage.find_objects(labels + 1))
        if box is not None and ndimage.label(labels[box] == lab, structure=structure)[1] > 1
    ]
    for lab in split:
        # Work in the label's current bounding box grown by one pixel: it holds
        # every fragment and its dilation ring, and raster order inside it is
        # the image's, so component numbers and merges match a full-image pass.
        # Earlier merges may have grown the label, so the box is taken anew.
        hit = out == lab
        rows = np.flatnonzero(hit.any(axis=1))
        cols = np.flatnonzero(hit.any(axis=0))
        sub = out[max(rows[0] - 1, 0) : rows[-1] + 2, max(cols[0] - 1, 0) : cols[-1] + 2]
        comp, ncomp = ndimage.label(sub == lab, structure=structure)
        if ncomp <= 1:
            continue
        keep = int(np.argmax(np.bincount(comp.ravel())[1:])) + 1
        for frag, box in enumerate(ndimage.find_objects(comp), start=1):
            if frag == keep:
                continue
            # The fragment's own box grown by one pixel holds its dilation ring.
            grown = tuple(slice(max(b.start - 1, 0), b.stop + 1) for b in box)
            local = sub[grown]
            mask = comp[grown] == frag
            ring = ndimage.binary_dilation(mask, structure=structure) & ~mask
            ring &= local != lab
            if np.any(ring):
                vals, counts = np.unique(local[ring], return_counts=True)
                local[mask] = vals[np.argmax(counts)]
            # A fragment surrounded by its own label keeps it.
    return _compact_labels(out)


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    uniq, inv = np.unique(labels, return_inverse=True)
    return inv.reshape(labels.shape).astype(np.int32)


def label_points(
    cloud: PointCloud,
    segs: list[Segmentation2D],
    cams: list[CalibratedCamera],
    params: PieceParams,
):
    """Give each point the superpixel label under its projected pixel.

    Labels from different cameras are offset to stay globally unique.
    Returns (labels (N,) int32 with -1 for invisible points,
    camera_of_label mapping global label id -> camera index).
    """
    n = len(cloud)
    labels = np.full(n, -1, dtype=np.int32)
    camera_of_label: list[int] = []
    offset = 0
    assigned = np.zeros(n, dtype=bool)
    for cam_idx, (seg, cam) in enumerate(zip(segs, cams)):
        todo = ~assigned
        if np.any(todo):
            idx = np.nonzero(todo)[0]
            uv, _, valid = project_many(cloud.points[idx], cam)
            idx = idx[valid]
            if idx.size:
                u = np.minimum(np.rint(uv[valid, 0]).astype(np.int64), cam.width - 1)
                v = np.minimum(np.rint(uv[valid, 1]).astype(np.int64), cam.height - 1)
                labels[idx] = seg.labels[v, u] + offset
                assigned[idx] = True
        camera_of_label.extend([cam_idx] * seg.count)
        offset += seg.count
    return labels, np.asarray(camera_of_label, dtype=np.int32)


def occlusion_filter(
    cloud: PointCloud,
    labels: np.ndarray,
    cams: list[CalibratedCamera],
    delta_d: float,
    camera_of_label: np.ndarray,
) -> np.ndarray:
    """Drop points much deeper than their piece's closest member.

    LiDAR sees slightly around camera occluders, so background points can
    land inside a foreground superpixel; they sit farther from the camera
    than the real piece surface and get label -1.
    """
    out = labels.copy()
    centers = np.stack([cam.center() for cam in cams])
    valid = labels >= 0
    if not np.any(valid):
        return out
    lab = labels[valid]
    dist = np.linalg.norm(cloud.points[valid] - centers[camera_of_label[lab]], axis=1)
    _, inv, counts = np.unique(lab, return_inverse=True, return_counts=True)
    order = np.argsort(lab, kind="stable")
    d_min = np.minimum.reduceat(dist[order], np.cumsum(counts) - counts)
    drop = dist > d_min[inv] + delta_d
    drop_idx = np.nonzero(valid)[0][drop]
    out[drop_idx] = -1
    return out


def fuse_by_height(
    cloud: PointCloud,
    labels: np.ndarray,
    spec: BevGridSpec,
    min_piece_points: int = 5,
) -> RigidPieces:
    """Union labels that share a BEV cell; compact ids; drop tiny pieces.

    Multi-view cameras see objects in horizontal slices, so one object
    splits into stacked segments that land in the same BEV cells.
    """
    n_labels = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
    fused = np.full(len(cloud), -1, dtype=np.int32)
    has = labels >= 0
    if n_labels:
        # Labels that share a cell are linked; each connected component takes
        # its smallest label as its id.
        key, in_range = cell_keys(cloud.points, spec)
        sel = np.flatnonzero(has & in_range)
        sel = sel[np.lexsort((labels[sel], key[sel]))]  # by cell, then label
        ck, lb = key[sel], labels[sel]
        same_cell = ck[1:] == ck[:-1]
        links = (np.ones(int(same_cell.sum())), (lb[:-1][same_cell], lb[1:][same_cell]))
        n_comp, component = connected_components(coo_matrix(links, shape=(n_labels, n_labels)), directed=False)
        smallest = np.full(n_comp, n_labels)
        np.minimum.at(smallest, component, np.arange(n_labels))
        fused[has] = smallest[component][labels[has]]

    # Compact to 0..N_r-1 and drop undersized pieces.
    uniq, counts = np.unique(fused[fused >= 0], return_counts=True)
    keep = uniq[counts >= min_piece_points]
    remap = np.full(n_labels, -1, dtype=np.int32)
    remap[keep] = np.arange(keep.size, dtype=np.int32)
    out = np.full(len(cloud), -1, dtype=np.int32)
    out[has] = remap[fused[has]]
    return RigidPieces(frame_index=cloud.frame_index, labels=out, piece_count=int(keep.size))


def build_pieces(
    cloud: PointCloud,
    flow_imgs: list[FlowImage],
    cams: list[CalibratedCamera],
    params: PieceParams,
    spec: BevGridSpec,
) -> RigidPieces:
    """Full pipeline: oversegment -> label -> occlusion filter -> fuse."""
    segs = [oversegment(f, params) for f in flow_imgs]
    labels, camera_of_label = label_points(cloud, segs, cams, params)
    labels = occlusion_filter(cloud, labels, cams, params.delta_d, camera_of_label)
    return fuse_by_height(cloud, labels, spec, params.min_piece_points)
