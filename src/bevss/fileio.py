"""Binary formats and the scene manifest.

All binary files are little-endian with a 4-byte magic. The manifest is
line-oriented UTF-8 text (``key: value``; camera blocks are indented) and
is the single entry point the CLI works from.
"""

import os

import numpy as np

from .grid import BevGridSpec, BevMotionField, FrameSet, PointCloud
from .masks import StaticDynamicMask
from .pieces import RigidPieces
from .projection import CalibratedCamera, FlowImage
from .scene import SceneBundle

MAGIC_CLOUD = b"PCB1"
MAGIC_FIELD = b"BEV1"
MAGIC_FLOW = b"FLW1"
MAGIC_MASK = b"MSK1"
MAGIC_PIECES = b"SEG1"


def _fmt(x: float) -> str:
    """Text form of a float in manifests and CLI output: 9 significant digits."""
    return f"{x:.9g}"


class IoError(Exception):
    """Base class for file format failures."""


class NotFoundError(IoError):
    pass


class BadMagicError(IoError):
    pass


class TruncatedError(IoError):
    pass


class InconsistentCountsError(IoError):
    pass


def _read(path: str) -> bytes:
    if not os.path.exists(path):
        raise NotFoundError(path)
    with open(path, "rb") as fh:
        return fh.read()


def _check_magic(buf: bytes, magic: bytes, path: str):
    if len(buf) < 4:
        raise TruncatedError(f"{path}: shorter than the magic")
    if buf[:4] != magic:
        raise BadMagicError(f"{path}: magic {buf[:4]!r} != {magic!r}")


def _take(buf: bytes, offset: int, count: int, dtype, path: str) -> np.ndarray:
    item = np.dtype(dtype).itemsize
    need = offset + count * item
    if len(buf) < need:
        raise TruncatedError(f"{path}: need {need} bytes, have {len(buf)}")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset)


def save_cloud(path: str, cloud: PointCloud):
    with open(path, "wb") as fh:
        fh.write(MAGIC_CLOUD)
        fh.write(np.uint32(len(cloud)).tobytes())
        fh.write(cloud.points.astype("<f4").tobytes())


def load_cloud(path: str, frame_index: int = 0) -> PointCloud:
    buf = _read(path)
    _check_magic(buf, MAGIC_CLOUD, path)
    n = int(_take(buf, 4, 1, "<u4", path)[0])
    if n == 0:
        raise InconsistentCountsError(f"{path}: empty point cloud")
    pts = _take(buf, 8, n * 3, "<f4", path).reshape(n, 3)
    return PointCloud(frame_index=frame_index, points=pts.astype(np.float64))


def save_field(path: str, field: BevMotionField):
    with open(path, "wb") as fh:
        fh.write(MAGIC_FIELD)
        fh.write(np.int32(field.time_offset).tobytes())
        fh.write(np.uint32(field.spec.cells_x).tobytes())
        fh.write(np.uint32(field.spec.cells_y).tobytes())
        fh.write(field.values.astype("<f4").tobytes())


def load_field(path: str, spec: BevGridSpec) -> BevMotionField:
    buf = _read(path)
    _check_magic(buf, MAGIC_FIELD, path)
    t = int(_take(buf, 4, 1, "<i4", path)[0])
    cx = int(_take(buf, 8, 1, "<u4", path)[0])
    cy = int(_take(buf, 12, 1, "<u4", path)[0])
    if cx != spec.cells_x or cy != spec.cells_y:
        raise InconsistentCountsError(f"{path}: field is {cx}x{cy}, grid wants {spec.cells_x}x{spec.cells_y}")
    vals = _take(buf, 16, cx * cy * 2, "<f4", path).reshape(cx, cy, 2)
    return BevMotionField(spec=spec, time_offset=t, values=vals.astype(np.float64))


def save_flow(path: str, flow: FlowImage):
    h, w = flow.data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(MAGIC_FLOW)
        fh.write(np.uint32(h).tobytes())
        fh.write(np.uint32(w).tobytes())
        fh.write(flow.data.astype("<f4").tobytes())


def load_flow(path: str, camera_id: int = 0, frame_index: int = 0, dt: int = 1) -> FlowImage:
    buf = _read(path)
    _check_magic(buf, MAGIC_FLOW, path)
    h = int(_take(buf, 4, 1, "<u4", path)[0])
    w = int(_take(buf, 8, 1, "<u4", path)[0])
    data = _take(buf, 12, h * w * 2, "<f4", path).reshape(h, w, 2)
    return FlowImage(camera_id=camera_id, frame_index=frame_index, dt=dt, data=data)


def save_mask_bytes(path: str, values: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(MAGIC_MASK)
        fh.write(np.uint32(values.shape[0]).tobytes())
        fh.write(values.astype(np.uint8).tobytes())


def load_mask_bytes(path: str) -> np.ndarray:
    buf = _read(path)
    _check_magic(buf, MAGIC_MASK, path)
    n = int(_take(buf, 4, 1, "<u4", path)[0])
    return _take(buf, 8, n, np.uint8, path).copy()


def save_mask(path: str, mask: StaticDynamicMask):
    save_mask_bytes(path, mask.status)


def load_mask(path: str, frame_index: int = 0) -> StaticDynamicMask:
    return StaticDynamicMask(frame_index=frame_index, status=load_mask_bytes(path))


def save_pieces(path: str, pieces: RigidPieces):
    with open(path, "wb") as fh:
        fh.write(MAGIC_PIECES)
        fh.write(np.uint32(len(pieces)).tobytes())
        fh.write(np.int32(pieces.piece_count).tobytes())
        fh.write(pieces.labels.astype("<i4").tobytes())


def load_pieces(path: str, frame_index: int = 0) -> RigidPieces:
    buf = _read(path)
    _check_magic(buf, MAGIC_PIECES, path)
    n = int(_take(buf, 4, 1, "<u4", path)[0])
    n_r = int(_take(buf, 8, 1, "<i4", path)[0])
    labels = _take(buf, 12, n, "<i4", path).astype(np.int32)
    try:
        return RigidPieces(frame_index=frame_index, labels=labels, piece_count=n_r)
    except ValueError as exc:
        raise InconsistentCountsError(f"{path}: {exc}") from exc


# --- scene manifest -------------------------------------------------------

MANIFEST_NAME = "manifest"


def save_scene(bundle: SceneBundle, out_dir: str) -> str:
    """Write every bundle artifact plus the manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("clouds", "flows", "gt", "labels", "cal"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    lines = []
    g = bundle.grid
    lines.append(
        "grid: " + " ".join(_fmt(v) for v in (g.x_min, g.x_max, g.y_min, g.y_max, g.z_min, g.z_max, g.cell_size))
    )
    lines.append("frames: " + ",".join(str(t) for t in bundle.frame_set.offsets))
    lines.append("frame_interval: " + _fmt(bundle.frame_set.frame_interval_s))
    if bundle.actor_velocities.size:
        lines.append("velocities: " + " ".join(_fmt(v) for v in bundle.actor_velocities.ravel()))

    def name(t: int) -> str:
        return f"m{-t}" if t < 0 else str(t)

    for t in bundle.mask_frames:
        rel = f"clouds/frame_{name(t)}.pcb"
        save_cloud(os.path.join(out_dir, rel), bundle.clouds[t])
        lines.append(f"cloud {t}: {rel}")
    for (k, t), flow in sorted(bundle.flow_images.items()):
        rel = f"flows/cam{k}_{name(t)}.flw"
        save_flow(os.path.join(out_dir, rel), flow)
        lines.append(f"flow {k} {t}: {rel}")
    for (k, t), cam in sorted(bundle.cameras.items()):
        lines.append(f"camera {k} {t}:")
        lines.append(f"  size: {cam.width} {cam.height}")
        lines.append("  proj: " + " ".join(repr(float(v)) for v in cam.proj.ravel()))
    for t, fld in sorted(bundle.gt_fields.items()):
        rel = f"gt/field_{name(t)}.bev"
        save_field(os.path.join(out_dir, rel), fld)
        lines.append(f"gt_field {t}: {rel}")
    for t in bundle.mask_frames:
        rel = f"gt/mask_{name(t)}.msk"
        save_mask_bytes(os.path.join(out_dir, rel), bundle.gt_masks[t])
        lines.append(f"gt_mask {t}: {rel}")
        rel = f"gt/inst_{name(t)}.seg"
        n_r = int(bundle.gt_instances[t].max()) + 1 if bundle.gt_instances[t].size else 0
        save_pieces(os.path.join(out_dir, rel), RigidPieces(t, bundle.gt_instances[t], max(n_r, 0)))
        lines.append(f"gt_instances {t}: {rel}")
        rel = f"gt/vis_{name(t)}.msk"
        save_mask_bytes(os.path.join(out_dir, rel), bundle.visibility[t].astype(np.uint8))
        lines.append(f"gt_visible {t}: {rel}")
    for t, mask in sorted(bundle.pseudo_masks.items()):
        rel = f"labels/mask_{name(t)}.msk"
        save_mask(os.path.join(out_dir, rel), mask)
        lines.append(f"mask {t}: {rel}")
    if bundle.pieces is not None:
        rel = "labels/pieces.seg"
        save_pieces(os.path.join(out_dir, rel), bundle.pieces)
        lines.append(f"pieces: {rel}")

    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_scene(manifest_path: str) -> SceneBundle:
    """Load a bundle back from a manifest; validates cross-references."""
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise NotFoundError(manifest_path)
    base = os.path.dirname(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    grid = None
    frames = None
    interval = 0.5
    velocities = np.zeros((0, 2))
    cloud_paths, flow_paths = {}, {}
    gt_field_paths, gt_mask_paths, gt_inst_paths, gt_vis_paths = {}, {}, {}, {}
    mask_paths, pieces_path = {}, None
    cameras = {}
    i = 0
    while i < len(raw_lines):
        lineno = i + 1
        line = raw_lines[i]
        i += 1
        if not line.strip():
            continue
        key, _, value = line.partition(":")
        key_parts = key.split()
        value = value.strip()
        try:
            kind = key_parts[0]
            if kind == "grid":
                v = [float(x) for x in value.split()]
                if len(v) != 7:
                    raise InconsistentCountsError("grid line needs 7 numbers")
                grid = BevGridSpec(*v)
            elif kind == "frames":
                frames = tuple(int(x) for x in value.split(","))
            elif kind == "frame_interval":
                interval = float(value)
            elif kind == "velocities":
                flat = np.array([float(x) for x in value.split()])
                velocities = flat.reshape(-1, 2)
            elif kind == "cloud":
                cloud_paths[int(key_parts[1])] = value
            elif kind == "flow":
                flow_paths[(int(key_parts[1]), int(key_parts[2]))] = value
            elif kind == "camera":
                cam_id, t = int(key_parts[1]), int(key_parts[2])
                size, proj = None, None
                while i < len(raw_lines) and raw_lines[i].startswith("  "):
                    lineno = i + 1
                    sub_key, _, sub_val = raw_lines[i].strip().partition(":")
                    if sub_key == "size":
                        size = tuple(int(x) for x in sub_val.split())
                        if len(size) != 2:
                            raise ValueError("size needs 2 numbers")
                    elif sub_key == "proj":
                        proj = np.array([float(x) for x in sub_val.split()]).reshape(3, 4)
                    i += 1
                if size is None or proj is None:
                    raise InconsistentCountsError(f"camera {cam_id} {t}: incomplete block")
                cameras[(cam_id, t)] = CalibratedCamera(cam_id, t, proj, size[0], size[1])
            elif kind == "gt_field":
                gt_field_paths[int(key_parts[1])] = value
            elif kind == "gt_mask":
                gt_mask_paths[int(key_parts[1])] = value
            elif kind == "gt_instances":
                gt_inst_paths[int(key_parts[1])] = value
            elif kind == "gt_visible":
                gt_vis_paths[int(key_parts[1])] = value
            elif kind == "mask":
                mask_paths[int(key_parts[1])] = value
            elif kind == "pieces":
                pieces_path = value
            else:
                raise InconsistentCountsError(f"unknown manifest key {kind!r}")
        except (ValueError, IndexError) as exc:
            raise InconsistentCountsError(f"{manifest_path}:{lineno}: {exc}") from exc

    if grid is None or frames is None:
        raise InconsistentCountsError("manifest missing grid or frames")
    try:
        frame_set = FrameSet(offsets=frames, frame_interval_s=interval)
    except ValueError as exc:
        raise InconsistentCountsError(f"{manifest_path}: {exc}") from exc

    clouds = {t: load_cloud(os.path.join(base, p), t) for t, p in cloud_paths.items()}
    flow_images = {
        (k, t): load_flow(os.path.join(base, p), camera_id=k, frame_index=t)
        for (k, t), p in flow_paths.items()
    }
    gt_fields = {t: load_field(os.path.join(base, p), grid) for t, p in gt_field_paths.items()}
    gt_masks = {t: load_mask_bytes(os.path.join(base, p)) for t, p in gt_mask_paths.items()}
    gt_inst = {t: load_pieces(os.path.join(base, p), t).labels for t, p in gt_inst_paths.items()}
    visibility = {
        t: load_mask_bytes(os.path.join(base, p)).astype(bool) for t, p in gt_vis_paths.items()
    }
    pseudo = {t: load_mask(os.path.join(base, p), t) for t, p in mask_paths.items()}
    pieces = load_pieces(os.path.join(base, pieces_path)) if pieces_path else None

    for t, cloud in clouds.items():
        for ref in (gt_masks, gt_inst, visibility):
            if t in ref and len(ref[t]) != len(cloud):
                raise InconsistentCountsError(f"frame {t}: per-point arrays disagree with cloud")
        if t in pseudo and len(pseudo[t]) != len(cloud):
            raise InconsistentCountsError(f"frame {t}: pseudo mask disagrees with cloud")
    if pieces is not None and 0 in clouds and len(pieces) != len(clouds[0]):
        raise InconsistentCountsError("pieces disagree with frame-0 cloud")

    camera_ids = tuple(sorted({k for k, _ in cameras}))
    return SceneBundle(
        grid=grid,
        frame_set=frame_set,
        clouds=clouds,
        cameras=cameras,
        flow_images=flow_images,
        gt_fields=gt_fields,
        gt_masks=gt_masks,
        gt_instances=gt_inst,
        visibility=visibility,
        actor_velocities=velocities,
        camera_ids=camera_ids,
        pseudo_masks=pseudo,
        pieces=pieces,
    )
