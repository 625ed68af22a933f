"""Synthetic scene generation.

Builds point clouds, per-frame calibration, analytic optical flow, and
ground-truth motion/masks/instances for rigid box scenes with planar ego
motion. Everything is deterministic from the scene seed.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import BevGridSpec, BevMotionField, FrameSet, PointCloud, cell_keys
from .projection import EPS_DEPTH, CalibratedCamera, FlowImage, project_many
from .scene import SceneBundle


@dataclass(frozen=True)
class SurfaceBox:
    """Axis-aligned box sampled on its exposed faces (points per m^2).

    A zero z-extent makes a horizontal patch (single upward face); the
    bottom face of a solid box is never sampled.  A nonzero jitter adds
    uniform surface relief of that amplitude along each face normal.
    """

    center: tuple
    size: tuple
    density: float
    jitter: float = 0.0

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError("density must be positive")
        if min(self.size) < 0 or max(self.size) <= 0:
            raise ValueError("degenerate box size")


@dataclass(frozen=True)
class Actor:
    box: SurfaceBox
    velocity: tuple  # (vx, vy) meters per frame


@dataclass(frozen=True)
class EgoMotion:
    velocity: tuple = (0.0, 0.0)  # meters per frame, world x/y
    yaw_rate_deg: float = 0.0  # degrees per frame


@dataclass(frozen=True)
class PinholeCamera:
    """Pinhole intrinsics plus a planar mounting pose on the ego vehicle."""

    camera_id: int
    f: float
    cx: float
    cy: float
    width: int
    height: int
    position: tuple = (0.0, 0.0, 0.0)  # in ego coordinates
    yaw_deg: float = 0.0  # 0 = looking along ego +x


@dataclass(frozen=True)
class SceneSpec:
    background: tuple
    actors: tuple
    ego: EgoMotion
    cameras: tuple
    frame_set: FrameSet = FrameSet()
    grid: BevGridSpec = BevGridSpec()
    flow_noise_px: float = 0.0
    seed: int = 0


def _rot_z(deg: float) -> np.ndarray:
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def camera_matrix(cam: PinholeCamera, ego: EgoMotion, frame: int) -> np.ndarray:
    """3x4 projection from frame-0 ego (world) coordinates to pixels."""
    yaw = frame * ego.yaw_rate_deg
    e = np.array([frame * ego.velocity[0], frame * ego.velocity[1], 0.0])
    r_world_to_ego = _rot_z(yaw).T
    fwd = np.array([np.cos(np.deg2rad(cam.yaw_deg)), np.sin(np.deg2rad(cam.yaw_deg)), 0.0])
    right = np.array([fwd[1], -fwd[0], 0.0])
    down = np.array([0.0, 0.0, -1.0])
    r_mount = np.stack([right, down, fwd])  # ego -> camera
    c = np.asarray(cam.position, dtype=np.float64)
    r_tot = r_mount @ r_world_to_ego
    t_tot = -r_mount @ (r_world_to_ego @ e + c)
    k = np.array([[cam.f, 0.0, cam.cx], [0.0, cam.f, cam.cy], [0.0, 0.0, 1.0]])
    return k @ np.column_stack([r_tot, t_tot])


def _sample_box(box: SurfaceBox, rng: np.random.Generator) -> np.ndarray:
    """Sample faces a sensor at the origin can see; back faces stay empty."""
    cx, cy, cz = box.center
    sx, sy, sz = box.size
    faces = []
    if sz == 0:
        faces.append(("z", cz, sx * sy))
    else:
        if cz + sz / 2 < 0:  # top face only when below the sensor
            faces.append(("z", cz + sz / 2, sx * sy))
        if cx - sx / 2 > 0:
            faces.append(("x", cx - sx / 2, sy * sz))
        if cx + sx / 2 < 0:
            faces.append(("x", cx + sx / 2, sy * sz))
        if cy - sy / 2 > 0:
            faces.append(("y", cy - sy / 2, sx * sz))
        if cy + sy / 2 < 0:
            faces.append(("y", cy + sy / 2, sx * sz))
        if not faces:  # box straddling the origin: fall back to all sides
            faces = [
                ("x", cx - sx / 2, sy * sz),
                ("x", cx + sx / 2, sy * sz),
                ("y", cy - sy / 2, sx * sz),
                ("y", cy + sy / 2, sx * sz),
            ]
    pts = []
    for axis, coord, area in faces:
        n = max(1, int(round(box.density * area)))
        p = np.empty((n, 3))
        if axis == "z":
            p[:, 0] = rng.uniform(cx - sx / 2, cx + sx / 2, n)
            p[:, 1] = rng.uniform(cy - sy / 2, cy + sy / 2, n)
            p[:, 2] = coord
            normal = 2
        elif axis == "x":
            p[:, 0] = coord
            p[:, 1] = rng.uniform(cy - sy / 2, cy + sy / 2, n)
            p[:, 2] = rng.uniform(cz - sz / 2, cz + sz / 2, n)
            normal = 0
        else:
            p[:, 0] = rng.uniform(cx - sx / 2, cx + sx / 2, n)
            p[:, 1] = coord
            p[:, 2] = rng.uniform(cz - sz / 2, cz + sz / 2, n)
            normal = 1
        if box.jitter > 0:
            p[:, normal] += rng.uniform(-box.jitter, box.jitter, n)
        pts.append(p)
    return np.concatenate(pts)


def _flow_image(
    cam_t: CalibratedCamera,
    cam_next: CalibratedCamera,
    pos_t: np.ndarray,
    pos_next: np.ndarray,
) -> tuple[FlowImage, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic flow by z-buffer splatting of the sampled surface points.

    Returns (flow image, per-point pixel key or -1, per-point depth, the
    owner of each owned pixel: its nearest point, the first one on a
    depth tie).
    Empty pixels inherit the flow of the nearest owned pixel, found by an
    exact Euclidean distance transform. When every owner's flow has the
    bits of the first owner's (a still camera with no mover in view), that
    value is the whole image and the transform is skipped: the fill would
    copy it everywhere. Bits, not values, are compared, since 0.0 == -0.0.
    """
    h, w_px = cam_t.height, cam_t.width
    uv_t, w_t, _ = project_many(pos_t, cam_t)
    uv_n, w_n, _ = project_many(pos_next, cam_next)
    u = np.rint(uv_t[:, 0]).astype(np.int64)
    v = np.rint(uv_t[:, 1]).astype(np.int64)
    ok = (w_t > EPS_DEPTH) & (w_n > EPS_DEPTH) & (u >= 0) & (u < w_px) & (v >= 0) & (v < h)
    key = np.where(ok, v * w_px + u, -1)

    data = np.zeros((h, w_px, 2), dtype=np.float32)
    idx = np.nonzero(ok)[0]
    order = idx[np.argsort(w_t[idx], kind="stable")]
    owners = order[np.unique(key[order], return_index=True)[1]]
    if owners.size:
        flow = (uv_n[owners] - uv_t[owners]).astype(np.float32)
        bits = flow.view(np.uint64)  # one word per owner's (du, dv)
        if np.all(bits == bits[0]):
            data[:] = flow[0]
        else:
            flat = data.reshape(-1, 2)
            flat[key[owners]] = flow
            owned = np.zeros(h * w_px, dtype=bool)
            owned[key[owners]] = True
            owned2 = owned.reshape(h, w_px)
            if not owned2.all():
                iy, ix = ndimage.distance_transform_edt(~owned2, return_distances=False, return_indices=True)
                data = np.take(flat, iy * w_px + ix, axis=0)
    return (
        FlowImage(camera_id=cam_t.camera_id, frame_index=cam_t.frame_index, dt=1, data=data),
        key,
        w_t,
        owners,
    )


def generate(spec: SceneSpec) -> SceneBundle:
    """Build the full bundle for one scene specification."""
    if not spec.cameras:
        raise ValueError("scene needs at least one camera")
    rng = np.random.default_rng(spec.seed)
    frames = sorted(set(spec.frame_set.offsets) | {0})

    chunks = [_sample_box(b, rng) for b in spec.background]
    inst_chunks = [np.full(len(c), -1, dtype=np.int32) for c in chunks]
    for a_idx, actor in enumerate(spec.actors):
        c = _sample_box(actor.box, rng)
        chunks.append(c)
        inst_chunks.append(np.full(len(c), a_idx, dtype=np.int32))
    pts0 = np.concatenate(chunks) if chunks else np.zeros((0, 3))
    inst = np.concatenate(inst_chunks) if inst_chunks else np.zeros(0, dtype=np.int32)
    if pts0.shape[0] == 0:
        raise ValueError("scene has no surfaces")

    vel = np.zeros((max(len(spec.actors), 1), 2))
    for a_idx, actor in enumerate(spec.actors):
        vel[a_idx] = actor.velocity
    for a_idx, actor in enumerate(spec.actors):
        cx, cy, _ = actor.box.center
        sx, sy, _ = actor.box.size
        for t in frames:
            x = cx + t * actor.velocity[0]
            y = cy + t * actor.velocity[1]
            g = spec.grid
            if not (
                g.x_min <= x - sx / 2
                and x + sx / 2 < g.x_max
                and g.y_min <= y - sy / 2
                and y + sy / 2 < g.y_max
            ):
                raise ValueError(f"actor {a_idx} leaves the grid at frame {t}")

    def pos_at(t: int) -> np.ndarray:
        p = pts0.copy()
        actor_pts = inst >= 0
        if np.any(actor_pts):
            p[actor_pts, :2] += t * vel[inst[actor_pts]]
        return p

    cam_frames = sorted(set(frames) | {t + 1 for t in frames})
    cameras = {}
    for cam in spec.cameras:
        for t in cam_frames:
            cameras[(cam.camera_id, t)] = CalibratedCamera(
                camera_id=cam.camera_id,
                frame_index=t,
                proj=camera_matrix(cam, spec.ego, t),
                width=cam.width,
                height=cam.height,
            )

    flow_images = {}
    visibility = {}
    for t in frames:
        pos_t = pos_at(t)
        pos_n = pos_at(t + 1)
        visible = np.zeros(len(pos_t), dtype=bool)
        for cam in spec.cameras:
            img, key, depth, owners = _flow_image(
                cameras[(cam.camera_id, t)], cameras[(cam.camera_id, t + 1)], pos_t, pos_n
            )
            if spec.flow_noise_px > 0:
                noisy = img.data + rng.normal(0.0, spec.flow_noise_px, img.data.shape)
                img = FlowImage(cam.camera_id, t, 1, noisy.astype(np.float32))
            flow_images[(cam.camera_id, t)] = img
            visible |= _camera_visible(key, depth, owners, inst, cam.height * cam.width)
        visibility[t] = visible

    clouds = {}
    gt_masks = {}
    gt_instances = {}
    moving = np.zeros(len(pts0), dtype=bool)
    if len(spec.actors):
        speeds = np.linalg.norm(vel[: len(spec.actors)], axis=1)
        moving = (inst >= 0) & (speeds[np.clip(inst, 0, None)] > 0)
    for t in frames:
        clouds[t] = PointCloud(frame_index=t, points=pos_at(t))
        gt_masks[t] = moving.astype(np.uint8)
        gt_instances[t] = inst.copy()

    bundle = SceneBundle(
        grid=spec.grid,
        frame_set=spec.frame_set,
        clouds=clouds,
        cameras=cameras,
        flow_images=flow_images,
        gt_fields={},
        gt_masks=gt_masks,
        gt_instances=gt_instances,
        visibility=visibility,
        actor_velocities=vel[: max(len(spec.actors), 0)].copy(),
        camera_ids=tuple(c.camera_id for c in spec.cameras),
    )
    for t in spec.frame_set.offsets:
        bundle.gt_fields[t] = ground_truth_field(bundle, t)
    return bundle


def _camera_visible(
    key: np.ndarray, depth: np.ndarray, owners: np.ndarray, inst: np.ndarray, n_px: int
) -> np.ndarray:
    """A point is visible unless another object's point owns its pixel closer.

    key, depth and owners are those _flow_image returns.
    """
    idx = np.nonzero(key >= 0)[0]
    min_depth = np.full(n_px, np.inf)
    owner_inst = np.full(n_px, -2, dtype=np.int64)
    min_depth[key[owners]] = depth[owners]
    owner_inst[key[owners]] = inst[owners]
    occluded = (owner_inst[key[idx]] != inst[idx]) & (depth[idx] > min_depth[key[idx]] + 1e-9)
    visible = np.zeros(len(key), dtype=bool)
    visible[idx] = ~occluded
    return visible


def ground_truth_field(bundle: SceneBundle, t: int) -> BevMotionField:
    """Per-cell true displacement to frame t, from frame-0 actor occupancy.

    Cells with points from several actors take the majority actor (with a
    warning); background-only cells stay zero.
    """
    cloud0 = bundle.clouds[0]
    inst = bundle.gt_instances[0]
    spec = bundle.grid
    key, valid = cell_keys(cloud0.points, spec)
    values = np.zeros((spec.cells_x, spec.cells_y, 2))
    sel = valid & (inst >= 0)
    if np.any(sel):
        actors = inst[sel]
        n_actors = int(actors.max()) + 1
        uniq, counts = np.unique(key[sel] * n_actors + actors, return_counts=True)
        cells = uniq // n_actors
        # Majority actor per cell: the last group of each cell once the
        # groups are sorted by (cell, count).
        order = np.lexsort((counts, cells))
        cells_o = cells[order]
        last = np.append(cells_o[1:] != cells_o[:-1], True)
        mixed = len(order) - int(last.sum())
        if mixed:
            warnings.warn(f"{mixed} BEV cells contain points from multiple actors")
        c, a = cells_o[last], uniq[order[last]] % n_actors
        values[np.unravel_index(c, values.shape[:2])] = t * bundle.actor_velocities[a]
    return BevMotionField(spec=spec, time_offset=t, values=values)


_CAMERA_RIG = tuple(
    PinholeCamera(
        camera_id=i,
        f=250.0,
        cx=240.0,
        cy=120.0,
        width=480,
        height=240,
        position=pos,
        yaw_deg=yaw,
    )
    for i, (pos, yaw) in enumerate(
        [
            ((0.5, 0.0, 0.1), 0.0),
            ((0.0, 0.4, 0.1), 90.0),
            ((0.0, -0.4, 0.1), -90.0),
            ((-0.5, 0.0, 0.1), 180.0),
        ]
    )
)

_BACKGROUND = (
    SurfaceBox(center=(0.0, 0.0, -1.8), size=(60.0, 60.0, 0.0), density=1.5),
    SurfaceBox(center=(18.0, 12.0, -0.3), size=(10.0, 1.5, 3.0), density=6.0),
    SurfaceBox(center=(-15.0, -10.0, -0.3), size=(8.0, 2.0, 3.0), density=6.0),
    SurfaceBox(center=(5.0, -12.0, -0.5), size=(0.5, 0.5, 2.6), density=20.0),
)

_STRUCTURES = _BACKGROUND[1:]


def _ground_patches(density: float, holes: tuple = ()) -> tuple:
    """Ground plane split into patches that skip rectangular holes.

    Each hole (x0, x1, y0, y1) marks a vehicle footprint where the road
    surface produces no returns.  Holes must not overlap in y.
    """
    lo, hi = -30.0, 30.0
    y_edges = sorted({lo, hi, *(h[2] for h in holes), *(h[3] for h in holes)})
    boxes = []
    for y0, y1 in zip(y_edges[:-1], y_edges[1:]):
        cur = lo
        spans = sorted(
            (h[0], h[1]) for h in holes if h[2] <= y0 and y1 <= h[3]
        )
        segments = []
        for x0, x1 in spans:
            segments.append((cur, x0))
            cur = x1
        segments.append((cur, hi))
        for x0, x1 in segments:
            if x1 - x0 > 1e-9 and y1 - y0 > 1e-9:
                boxes.append(
                    SurfaceBox(
                        center=((x0 + x1) / 2, (y0 + y1) / 2, -1.8),
                        size=(x1 - x0, y1 - y0, 0.0),
                        density=density,
                    )
                )
    return tuple(boxes)


_ONE_BOX_HOLE = (6.8, 11.2, -1.3, 1.3)
_TWO_BOX_HOLES = (_ONE_BOX_HOLE, (-1.5, 1.5, -12.3, -5.7))

_ONE_BOX_ACTOR = Actor(
    box=SurfaceBox(center=(9.0, 0.0, -0.4), size=(4.0, 2.0, 1.9), density=40.0, jitter=0.1),
    velocity=(2.6, 0.0),
)

PRESETS = ("one-box", "two-box", "static", "ego-rotation", "night-noise")


def preset(name: str, seed: int = 0) -> SceneSpec:
    """Named standard scenes used by the CLI and the verification suite."""
    base = dict(
        background=_BACKGROUND,
        actors=(),
        ego=EgoMotion(),
        cameras=_CAMERA_RIG,
        frame_set=FrameSet(),
        grid=BevGridSpec(),
        seed=seed,
    )
    if name == "one-box":
        base["actors"] = (_ONE_BOX_ACTOR,)
        base["background"] = _ground_patches(1.5, (_ONE_BOX_HOLE,)) + _STRUCTURES
    elif name == "two-box":
        base["actors"] = (
            Actor(
                box=SurfaceBox(center=(9.0, 0.0, -0.4), size=(4.0, 2.0, 1.9), density=40.0, jitter=0.1),
                velocity=(1.2, 0.0),
            ),
            Actor(
                box=SurfaceBox(center=(0.0, -9.0, -0.4), size=(2.4, 6.0, 1.9), density=40.0, jitter=0.1),
                velocity=(0.4, -2.8),
            ),
        )
        base["background"] = _ground_patches(1.0, _TWO_BOX_HOLES) + (
            SurfaceBox(center=(18.0, 12.0, -0.3), size=(10.0, 1.5, 3.0), density=4.0),
            SurfaceBox(center=(-15.0, -10.0, -0.3), size=(8.0, 2.0, 3.0), density=4.0),
        )
    elif name == "static":
        base["ego"] = EgoMotion(velocity=(0.5, 0.0))
    elif name == "ego-rotation":
        base["ego"] = EgoMotion(yaw_rate_deg=4.0)
    elif name == "night-noise":
        base["actors"] = (_ONE_BOX_ACTOR,)
        base["background"] = _ground_patches(1.5, (_ONE_BOX_HOLE,)) + _STRUCTURES
        base["flow_noise_px"] = 2.0
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")
    return SceneSpec(**base)
