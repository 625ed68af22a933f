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
from .projection import CalibratedCamera, FlowImage, first_sightings


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
        lab = np.asarray(self.labels, dtype=np.int32).view()
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
        lab = np.asarray(self.labels, dtype=np.int32).view()
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
    every window take the spatially nearest center. Each pass sweeps twice.
    The first sweep covers each center's inner window, +-ceil(S). A center
    whose inner window misses a pixel is more than ceil(S) rows or columns
    away, so its distance there is at least (compactness/S)^2 * ceil(S)^2
    (rounding is monotone and the flow term is >= 0). The second sweep
    covers the full windows, but only the pixels whose best distance is not
    below that bound, and breaks ties by the lower center index; so every
    pixel gets the assignment the full windows alone give, bit for bit.
    At most `params.slic_iters` passes run: the loop stops once a pass
    leaves the centers where they were, since every later pass would repeat
    it, so the labels are those of all `slic_iters` passes bit for bit.
    Disconnected fragments are relabeled to a neighboring superpixel
    afterwards.
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

    # A center's inner window spans +-ceil(S). A pixel outside it is more than
    # ceil(S) rows or columns from the center, so that center's distance is
    # >= bound: float rounding is monotone and the flow term is >= 0.
    inner = int(np.ceil(s))
    bound = inv_s2 * inner**2

    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    labels = np.zeros((h, w), dtype=np.int32)
    best = np.empty((h, w))
    for _ in range(params.slic_iters):
        best.fill(np.inf)
        labels.fill(-1)
        rows_of_centers = centers.tolist()
        # First sweep: centers in ascending order, each over its inner window
        # clipped at the border; a pixel moves only on a strictly smaller
        # distance, so ties go to the lowest center index.
        for c, (yc, xc, fc0, fc1) in enumerate(rows_of_centers):
            rows = slice(max(int(yc) - inner, 0), int(yc) + inner + 1)
            cols = slice(max(int(xc) - inner, 0), int(xc) + inner + 1)
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
        # Second sweep over the full windows, only where a center outside its
        # inner window could still win or tie: every other pixel already holds
        # the least (distance, center index) over all windows that cover it.
        is_open = best >= bound
        if is_open.any():
            _sweep_open_pixels(is_open, rows_of_centers, half, inv_s2, f0, f1, best, labels)
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


def _sweep_open_pixels(is_open, rows_of_centers, half, inv_s2, f0, f1, best, labels):
    """Give each pixel where is_open holds the least (distance, center index)
    over the +-half windows that cover it, starting from its pair in best and
    labels, which are updated in place."""
    w = labels.shape[1]
    f0, f1, best, labels = f0.ravel(), f1.ravel(), best.ravel(), labels.ravel()
    for c, (yc, xc, fc0, fc1) in enumerate(rows_of_centers):
        y0, x0 = max(int(yc) - half, 0), max(int(xc) - half, 0)
        win = is_open[y0 : int(yc) + half + 1, x0 : int(xc) + half + 1]
        k = np.flatnonzero(win)
        if not k.size:
            continue
        py, px = np.divmod(k, win.shape[1])
        py += y0
        px += x0
        flat = py * w + px
        dy = py - yc
        dx = px - xc
        d0 = f0[flat] - fc0
        d1 = f1[flat] - fc1
        # The first sweep's distance, element for element.
        dist = (d0 * d0 + d1 * d1) + inv_s2 * (dy * dy + dx * dx)
        held = best[flat]
        closer = (dist < held) | ((dist == held) & (c < labels[flat]))
        flat = flat[closer]
        best[flat] = dist[closer]
        labels[flat] = c


def _enforce_connectivity(labels: np.ndarray) -> np.ndarray:
    """Keep each label's largest component; merge fragments into a neighbor.

    Labels are visited in ascending order. A merge adds a connected fragment
    next to the receiving label, so a label that starts in one component
    stays so: only the labels split at the start need the merge pass. Each
    fragment takes the label most common on its ring (the 8-neighbours outside
    it, each pixel counted once), the smallest on a tie. The fragments of one
    label are never 8-adjacent, so no ring holds a pixel of a sibling and all
    of a label's fragments merge in one step, as one after another would.
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
        # every fragment and its ring, and raster order inside it is the
        # image's, so component numbers and merges match a full-image pass.
        # Earlier merges may have grown the label, so the box is taken anew.
        hit = out == lab
        rows = np.flatnonzero(hit.any(axis=1))
        cols = np.flatnonzero(hit.any(axis=0))
        sub = out[max(rows[0] - 1, 0) : rows[-1] + 2, max(cols[0] - 1, 0) : cols[-1] + 2]
        comp, ncomp = ndimage.label(sub == lab, structure=structure)
        if ncomp <= 1:
            continue
        keep = int(np.argmax(np.bincount(comp.ravel())[1:])) + 1
        merge = (comp > 0) & (comp != keep)
        # Flat indices into sub framed by lab, so a frame pixel is never on a
        # ring. The ring holds no pixel of lab (it would be in the fragment),
        # and is never empty: the fragment cannot fill the box, where the kept
        # component also lies.
        framed = np.pad(sub, 1, constant_values=lab).ravel()
        px = np.flatnonzero(np.pad(merge, 1))
        wp = sub.shape[1] + 2
        shifts = np.array([dy * wp + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx])
        ring = (px[:, None] + shifts).ravel()
        owner = np.repeat(np.pad(comp, 1).ravel()[px].astype(np.int64), shifts.size)
        on_ring = framed[ring] != lab
        # Each (fragment, ring pixel) pair once, then one vote per pair.
        pairs = np.unique(owner[on_ring] * framed.size + ring[on_ring])
        owner, pixel = np.divmod(pairs, framed.size)
        vote = framed[pixel].astype(np.int64)
        low = int(vote.min())
        span = int(vote.max()) - low + 1
        tally, counts = np.unique(owner * span + (vote - low), return_counts=True)
        owner, vote = np.divmod(tally, span)
        # Per fragment, the largest count first; lexsort is stable and the
        # tallies ascend by label, so the smallest label wins a tie.
        order = np.lexsort((-counts, owner))
        owner, vote = owner[order], vote[order]
        first = np.r_[True, owner[1:] != owner[:-1]]
        target = np.full(ncomp + 1, lab, dtype=sub.dtype)
        target[owner[first]] = vote[first] + low
        sub[merge] = target[comp[merge]]
    return _compact_labels(out)


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """Non-negative labels renumbered 0..K-1 in ascending order."""
    rank = np.cumsum(np.bincount(labels.ravel()) > 0) - 1
    return rank[labels].astype(np.int32)


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
    counts = [seg.count for seg in segs]
    offsets = np.cumsum(counts) - counts
    labels = np.full(len(cloud), -1, dtype=np.int32)
    for k, idx, _, (u, v) in first_sightings(cloud.points, [(cam,) for cam in cams]):
        labels[idx] = segs[k].labels[v, u] + offsets[k]
    return labels, np.repeat(np.arange(len(segs), dtype=np.int32), counts)


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
    """Full pipeline: oversegment -> label -> occlusion filter -> fuse.

    The labels of an oversegmentation depend on the flow data alone, so
    each bit-distinct image is oversegmented once per call; an image with
    the bits of an earlier one (cameras that all see the same still view)
    takes that one's labels under its own camera id.
    """
    done = []  # (flow bits, labels) of the images oversegmented so far
    segs = []
    for f in flow_imgs:
        bits = f.data.view(np.uint32)
        labels = next((lab for b, lab in done if np.array_equal(b, bits)), None)
        if labels is None:
            labels = oversegment(f, params).labels
            done.append((bits, labels))
        segs.append(Segmentation2D(camera_id=f.camera_id, labels=labels))
    labels, camera_of_label = label_points(cloud, segs, cams, params)
    labels = occlusion_filter(cloud, labels, cams, params.delta_d, camera_of_label)
    return fuse_by_height(cloud, labels, spec, params.min_piece_points)
