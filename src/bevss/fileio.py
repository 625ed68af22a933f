"""Binary formats and the scene manifest.

Every binary file is one little-endian record: a 4-byte magic, 4-byte header
words, then one typed payload. The manifest is line-oriented UTF-8 text
(``key: value``; camera blocks are indented) and is the single entry point
the CLI works from. Every loader failure is an ``IoError`` subclass.
"""

import math
import os
import struct
from typing import Callable

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


# magic -> (struct format of the header words, payload dtype, payload shape
# as a function of the header words)
_FORMATS = {
    MAGIC_CLOUD: ("<I", "<f4", lambda n: (n, 3)),
    MAGIC_FIELD: ("<iII", "<f4", lambda t, cx, cy: (cx, cy, 2)),
    MAGIC_FLOW: ("<II", "<f4", lambda h, w: (h, w, 2)),
    MAGIC_MASK: ("<I", "u1", lambda n: (n,)),
    MAGIC_PIECES: ("<Ii", "<i4", lambda n, n_r: (n,)),
}


def _write(path: str, magic: bytes, words: tuple, payload: np.ndarray):
    header, dtype, _ = _FORMATS[magic]
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header, *words))
        fh.write(payload.astype(dtype).tobytes())


def _load(path: str, magic: bytes, build: Callable):
    """Read one record and return ``build(header words, payload)``; a
    ``ValueError`` from ``build`` (the data class rejecting what the file
    holds) becomes an ``InconsistentCountsError`` naming the file."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise NotFoundError(f"{path}: {exc.strerror}") from exc
    if len(buf) >= 4 and buf[:4] != magic:
        raise BadMagicError(f"{path}: magic {buf[:4]!r} != {magic!r}")
    header, dtype, shape_of = _FORMATS[magic]
    start = 4 + struct.calcsize(header)
    if len(buf) < start:
        raise TruncatedError(f"{path}: need {start} bytes, have {len(buf)}")
    words = struct.unpack_from(header, buf, 4)
    shape = shape_of(*words)
    need = start + math.prod(shape) * np.dtype(dtype).itemsize
    if len(buf) < need:
        raise TruncatedError(f"{path}: need {need} bytes, have {len(buf)}")
    if len(buf) > need:
        raise InconsistentCountsError(f"{path}: {len(buf) - need} bytes after the {need}-byte record")
    payload = np.frombuffer(buf, dtype, math.prod(shape), start).reshape(shape)
    try:
        return build(words, payload)
    except ValueError as exc:
        raise InconsistentCountsError(f"{path}: {exc}") from exc


def save_cloud(path: str, cloud: PointCloud):
    _write(path, MAGIC_CLOUD, (len(cloud),), cloud.points)


def load_cloud(path: str, frame_index: int = 0) -> PointCloud:
    cloud = _load(path, MAGIC_CLOUD, lambda words, points: PointCloud(frame_index, points))
    if not len(cloud):
        raise InconsistentCountsError(f"{path}: empty point cloud")
    return cloud


def save_field(path: str, field: BevMotionField):
    _write(path, MAGIC_FIELD, (field.time_offset, field.spec.cells_x, field.spec.cells_y), field.values)


def load_field(path: str, spec: BevGridSpec) -> BevMotionField:
    return _load(path, MAGIC_FIELD, lambda words, values: BevMotionField(spec, words[0], values))


def save_flow(path: str, flow: FlowImage):
    _write(path, MAGIC_FLOW, flow.data.shape[:2], flow.data)


def load_flow(path: str, camera_id: int = 0, frame_index: int = 0, dt: int = 1) -> FlowImage:
    return _load(path, MAGIC_FLOW, lambda words, data: FlowImage(camera_id, frame_index, dt, data))


def save_mask_bytes(path: str, values: np.ndarray):
    _write(path, MAGIC_MASK, (values.shape[0],), values)


def load_mask_bytes(path: str) -> np.ndarray:
    return _load(path, MAGIC_MASK, lambda words, values: values.copy())


def save_mask(path: str, mask: StaticDynamicMask):
    save_mask_bytes(path, mask.status)


def load_mask(path: str, frame_index: int = 0) -> StaticDynamicMask:
    return _load(path, MAGIC_MASK, lambda words, status: StaticDynamicMask(frame_index, status))


def save_pieces(path: str, pieces: RigidPieces):
    _write(path, MAGIC_PIECES, (len(pieces), pieces.piece_count), pieces.labels)


def load_pieces(path: str, frame_index: int = 0) -> RigidPieces:
    return _load(path, MAGIC_PIECES, lambda words, labels: RigidPieces(frame_index, labels, words[1]))


# --- scene manifest -------------------------------------------------------

MANIFEST_NAME = "manifest"


def _tag(t: int) -> str:
    """Frame offset as written in file names: -1 is ``m1``."""
    return f"m{-t}" if t < 0 else str(t)


def field_path(directory: str, t: int) -> str:
    """Path of the BEV field for offset ``t`` in a prediction directory."""
    return os.path.join(directory, f"field_{_tag(t)}.bev")


# Per-frame artifacts in manifest order, one row each: the manifest key (its
# numbers key the bundle dict), the SceneBundle dict, the file (its last {} is
# the frame tag), the writer (path, value) and the reader (path, dict key,
# grid). The rows of one group are written interleaved, frame by frame. The
# writers are the save functions themselves; the readers are lambdas because
# they adapt each loader to the one reader signature.
_ARTIFACTS = (
    (("cloud", "clouds", "clouds/frame_{}.pcb", save_cloud, lambda p, t, g: load_cloud(p, t)),),
    (("flow", "flow_images", "flows/cam{}_{}.flw", save_flow, lambda p, kt, g: load_flow(p, *kt)),),
    (("gt_field", "gt_fields", "gt/field_{}.bev", save_field, lambda p, t, g: load_field(p, g)),),
    (("gt_mask", "gt_masks", "gt/mask_{}.msk", save_mask_bytes, lambda p, t, g: load_mask_bytes(p)),
     ("gt_instances", "gt_instances", "gt/inst_{}.seg",
      lambda p, v: save_pieces(p, RigidPieces(0, v, int(v.max(initial=-1)) + 1)),
      lambda p, t, g: load_pieces(p, t).labels),
     ("gt_visible", "visibility", "gt/vis_{}.msk",
      save_mask_bytes, lambda p, t, g: load_mask_bytes(p).astype(bool))),
    (("mask", "pseudo_masks", "labels/mask_{}.msk", save_mask, lambda p, t, g: load_mask(p, t)),),
)


def save_scene(bundle: SceneBundle, out_dir: str) -> str:
    """Write every bundle artifact plus the manifest; returns manifest path."""
    for sub in ("clouds", "flows", "gt", "labels"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    g = bundle.grid
    extents = (g.x_min, g.x_max, g.y_min, g.y_max, g.z_min, g.z_max, g.cell_size)
    lines = [
        "grid: " + " ".join(_fmt(v) for v in extents),
        "frames: " + ",".join(str(t) for t in bundle.frame_set.offsets),
        "frame_interval: " + _fmt(bundle.frame_set.frame_interval_s),
    ]
    if bundle.actor_velocities.size:
        lines.append("velocities: " + " ".join(_fmt(v) for v in bundle.actor_velocities.ravel()))
    for group in _ARTIFACTS:
        if group[0][0] == "gt_field":  # the camera blocks come before the ground truth
            for (k, t), cam in sorted(bundle.cameras.items()):
                proj = " ".join(repr(float(v)) for v in cam.proj.ravel())
                lines += [f"camera {k} {t}:", f"  size: {cam.width} {cam.height}", f"  proj: {proj}"]
        for key in sorted(getattr(bundle, group[0][1])):
            idx = key if isinstance(key, tuple) else (key,)
            for kind, attr, name, save, _ in group:
                rel = name.format(*idx[:-1], _tag(idx[-1]))
                save(os.path.join(out_dir, rel), getattr(bundle, attr)[key])
                lines.append(f"{kind} {' '.join(map(str, idx))}: {rel}")
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
    with open(manifest_path, encoding="utf-8", errors="replace") as fh:
        raw_lines = fh.read().splitlines()

    rows = {row[0]: row for group in _ARTIFACTS for row in group}
    paths = {kind: {} for kind in rows}
    grid = frames = pieces_path = None
    interval = 0.5
    velocities = np.zeros((0, 2))
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
                    raise ValueError("grid line needs 7 numbers")
                grid = BevGridSpec(*v)
            elif kind == "frames":
                frames = tuple(int(x) for x in value.split(","))
            elif kind == "frame_interval":
                interval = float(value)
            elif kind == "velocities":
                velocities = np.array([float(x) for x in value.split()]).reshape(-1, 2)
            elif kind in rows and len(key_parts) == rows[kind][2].count("{}") + 1:
                idx = tuple(int(x) for x in key_parts[1:])
                paths[kind][idx if len(idx) > 1 else idx[0]] = os.path.join(base, value)
            elif kind == "camera":
                cam_id, t = int(key_parts[1]), int(key_parts[2])
                size, proj, block = None, None, lineno
                while i < len(raw_lines) and raw_lines[i].startswith("  "):
                    lineno = i + 1
                    sub_key, _, sub_val = raw_lines[i].strip().partition(":")
                    if sub_key == "size":
                        size = tuple(int(x) for x in sub_val.split())
                        if len(size) != 2:
                            raise ValueError("size needs 2 numbers")
                    elif sub_key == "proj":
                        proj = np.array([float(x) for x in sub_val.split()]).reshape(3, 4)
                    elif raw_lines[i].strip():  # a blank line is skipped, as outside a block
                        raise ValueError(f"bad camera key {sub_key!r}")
                    i += 1
                lineno = block  # the block as a whole is named by its first line
                if size is None or proj is None:
                    raise ValueError(f"camera {cam_id} {t}: incomplete block")
                cameras[(cam_id, t)] = CalibratedCamera(cam_id, t, proj, size[0], size[1])
            elif kind == "pieces":
                pieces_path = os.path.join(base, value)
            else:
                raise ValueError(f"bad manifest key {key.strip()!r}")
        except (ValueError, IndexError) as exc:
            raise InconsistentCountsError(f"{manifest_path}:{lineno}: {exc}") from exc

    if grid is None or frames is None:
        raise InconsistentCountsError(f"{manifest_path}: no grid or frames line")
    try:
        frame_set = FrameSet(offsets=frames, frame_interval_s=interval)
    except ValueError as exc:
        raise InconsistentCountsError(f"{manifest_path}: {exc}") from exc
    camera_ids = tuple(sorted({k for k, _ in cameras} | {k for k, _ in paths["flow"]}))
    for t in sorted(set(frames) | {0}):
        missing = [f"cloud {t}"] if t not in paths["cloud"] else []
        missing += [f"camera {k} {f}" for k in camera_ids for f in (t, t + 1) if (k, f) not in cameras]
        missing += [f"flow {k} {t}" for k in camera_ids if (k, t) not in paths["flow"]]
        if missing:
            raise InconsistentCountsError(f"{manifest_path}: frame {t} needs {', '.join(missing)}")

    loaded = {
        attr: {k: load(p, k, grid) for k, p in paths[kind].items()}
        for kind, attr, _, _, load in rows.values()
    }
    pieces = load_pieces(pieces_path) if pieces_path else None
    for t, cloud in loaded["clouds"].items():
        for kind in ("gt_mask", "gt_instances", "gt_visible", "mask"):
            if t in paths[kind] and len(loaded[rows[kind][1]][t]) != len(cloud):
                raise InconsistentCountsError(f"{paths[kind][t]}: length differs from cloud {t}")
    if pieces is not None and len(pieces) != len(loaded["clouds"][0]):
        raise InconsistentCountsError(f"{pieces_path}: length differs from cloud 0")
    for (k, t), flow in loaded["flow_images"].items():
        h, w = flow.data.shape[:2]
        for cam in filter(None, (cameras.get((k, t)), cameras.get((k, t + 1)))):
            if (h, w) != (cam.height, cam.width):
                size = f"camera {k} {cam.frame_index} is {cam.width}x{cam.height}"
                raise InconsistentCountsError(f"{paths['flow'][k, t]}: {w}x{h} flow, {size}")
    return SceneBundle(grid, frame_set, cameras=cameras, actor_velocities=velocities,
                       camera_ids=camera_ids, pieces=pieces, **loaded)
