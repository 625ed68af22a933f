"""Binary formats and the scene manifest: round trips and failure modes."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevss import fileio
from bevss.grid import BevGridSpec, BevMotionField, PointCloud
from bevss.masks import StaticDynamicMask
from bevss.pieces import RigidPieces
from bevss.projection import FlowImage

SPEC = BevGridSpec()

f32 = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(f32, min_size=3, max_size=30))
def test_cloud_round_trip_preserves_float32_values(tmp_path_factory, values):
    n = len(values) // 3
    pts = np.array(values[: n * 3], dtype=np.float32).reshape(n, 3).astype(np.float64)
    path = str(tmp_path_factory.mktemp("io") / "c.pcb")
    fileio.save_cloud(path, PointCloud(0, pts))
    loaded = fileio.load_cloud(path, frame_index=0)
    np.testing.assert_array_equal(loaded.points, pts)


def test_cloud_round_trip_is_bit_exact(tmp_path, rng):
    pts = rng.normal(size=(50, 3))
    a = str(tmp_path / "a.pcb")
    b = str(tmp_path / "b.pcb")
    fileio.save_cloud(a, PointCloud(0, pts))
    fileio.save_cloud(b, fileio.load_cloud(a))
    assert open(a, "rb").read() == open(b, "rb").read()


def test_field_round_trip(tmp_path, rng):
    values = rng.normal(size=(SPEC.cells_x, SPEC.cells_y, 2)).astype(np.float32)
    field = BevMotionField(SPEC, -1, values.astype(np.float64))
    path = str(tmp_path / "f.bev")
    fileio.save_field(path, field)
    loaded = fileio.load_field(path, SPEC)
    assert loaded.time_offset == -1
    np.testing.assert_array_equal(loaded.values, field.values)


def test_field_grid_mismatch(tmp_path):
    field = BevMotionField(SPEC, 1, np.zeros((SPEC.cells_x, SPEC.cells_y, 2)))
    path = str(tmp_path / "f.bev")
    fileio.save_field(path, field)
    with pytest.raises(fileio.InconsistentCountsError):
        fileio.load_field(path, BevGridSpec(cell_size=0.5))


def test_flow_round_trip(tmp_path, rng):
    data = rng.normal(size=(24, 48, 2)).astype(np.float32)
    path = str(tmp_path / "x.flw")
    fileio.save_flow(path, FlowImage(2, 1, 1, data))
    loaded = fileio.load_flow(path, camera_id=2, frame_index=1)
    assert loaded.camera_id == 2
    np.testing.assert_array_equal(loaded.data, data)


def test_mask_round_trip(tmp_path):
    status = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    path = str(tmp_path / "m.msk")
    fileio.save_mask(path, StaticDynamicMask(1, status))
    loaded = fileio.load_mask(path, frame_index=1)
    assert loaded.frame_index == 1
    np.testing.assert_array_equal(loaded.status, status)


def test_pieces_round_trip(tmp_path):
    labels = np.array([-1, 0, 2, 1, 2], dtype=np.int32)
    path = str(tmp_path / "p.seg")
    fileio.save_pieces(path, RigidPieces(0, labels, 3))
    loaded = fileio.load_pieces(path)
    assert loaded.piece_count == 3
    np.testing.assert_array_equal(loaded.labels, labels)


def test_missing_file_raises_not_found():
    with pytest.raises(fileio.NotFoundError):
        fileio.load_cloud("/nonexistent/cloud.pcb")
    with pytest.raises(fileio.NotFoundError):
        fileio.load_scene("/nonexistent/manifest")


def test_unreadable_path_raises_not_found(tmp_path):
    with pytest.raises(fileio.NotFoundError):
        fileio.load_cloud(str(tmp_path))  # a directory, not a file


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "bad.pcb")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(fileio.BadMagicError):
        fileio.load_cloud(path)
    with pytest.raises(fileio.BadMagicError):
        fileio.load_field(path, SPEC)


def test_truncated_file_rejected(tmp_path, rng):
    path = str(tmp_path / "c.pcb")
    fileio.save_cloud(path, PointCloud(0, rng.normal(size=(10, 3))))
    blob = open(path, "rb").read()
    short = str(tmp_path / "short.pcb")
    with open(short, "wb") as fh:
        fh.write(blob[:-5])
    with pytest.raises(fileio.TruncatedError):
        fileio.load_cloud(short)
    tiny = str(tmp_path / "tiny.pcb")
    with open(tiny, "wb") as fh:
        fh.write(b"PC")
    with pytest.raises(fileio.TruncatedError):
        fileio.load_cloud(tiny)


def test_empty_cloud_rejected(tmp_path):
    path = str(tmp_path / "e.pcb")
    with open(path, "wb") as fh:
        fh.write(fileio.MAGIC_CLOUD + np.uint32(0).tobytes())
    with pytest.raises(fileio.InconsistentCountsError):
        fileio.load_cloud(path)


def test_scene_round_trip_preserves_everything(tmp_path, one_box):
    out = str(tmp_path / "scene")
    manifest = fileio.save_scene(one_box, out)
    loaded = fileio.load_scene(manifest)
    assert loaded.grid == one_box.grid
    assert loaded.frame_set.offsets == one_box.frame_set.offsets
    assert loaded.frame_set.frame_interval_s == one_box.frame_set.frame_interval_s
    np.testing.assert_allclose(loaded.actor_velocities, one_box.actor_velocities)
    assert set(loaded.clouds) == set(one_box.clouds)
    for t in one_box.mask_frames:
        np.testing.assert_array_equal(
            loaded.clouds[t].points, one_box.clouds[t].points.astype(np.float32)
        )
        np.testing.assert_array_equal(loaded.gt_masks[t], one_box.gt_masks[t])
        np.testing.assert_array_equal(loaded.gt_instances[t], one_box.gt_instances[t])
        np.testing.assert_array_equal(loaded.visibility[t], one_box.visibility[t])
    for key, cam in one_box.cameras.items():
        np.testing.assert_array_equal(loaded.cameras[key].proj, cam.proj)  # exact repr
        assert loaded.cameras[key].width == cam.width
    for key, img in one_box.flow_images.items():
        np.testing.assert_array_equal(loaded.flow_images[key].data, img.data)
    for t, field in one_box.gt_fields.items():
        np.testing.assert_array_equal(
            loaded.gt_fields[t].values, field.values.astype(np.float32)
        )


def test_scene_load_accepts_directory_path(tmp_path, one_box):
    out = str(tmp_path / "scene")
    fileio.save_scene(one_box, out)
    loaded = fileio.load_scene(out)  # directory, not the manifest file
    assert set(loaded.clouds) == set(one_box.clouds)


def test_scene_manifest_cross_checks_lengths(tmp_path, one_box):
    out = str(tmp_path / "scene")
    manifest = fileio.save_scene(one_box, out)
    # Corrupt one per-point file so its length no longer matches the cloud.
    target = os.path.join(out, "gt", "mask_0.msk")
    status = fileio.load_mask_bytes(target)
    fileio.save_mask_bytes(target, status[:-3])
    with pytest.raises(fileio.InconsistentCountsError):
        fileio.load_scene(manifest)


def test_scene_manifest_rejects_unknown_keys(tmp_path, one_box):
    out = str(tmp_path / "scene")
    manifest = fileio.save_scene(one_box, out)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("surprise: 1\n")
    with pytest.raises(fileio.InconsistentCountsError):
        fileio.load_scene(manifest)


def _edit_manifest(out, edit):
    """Apply edit to the manifest's list of lines; returns what edit returns."""
    path = os.path.join(out, fileio.MANIFEST_NAME)
    lines = open(path, encoding="utf-8").read().splitlines()
    where = edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return where


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _edit_manifest_line(prefix, replacement):
    def replace(lines):
        k = _first(lines, prefix)
        lines[k] = replacement
        return rf"manifest:{k + 1}\b"

    return lambda out: _edit_manifest(out, replace)


def _no_grid(out):
    _edit_manifest(out, lambda lines: lines.pop(_first(lines, "grid:")))
    return "manifest: no grid or frames line"


def _camera_without_proj(out):
    def edit(lines):
        k = _first(lines, "  proj:")
        del lines[k]
        return rf"manifest:{k - 1}: camera \d+ -?\d+: incomplete block"  # the block's first line

    return _edit_manifest(out, edit)


def _unknown_camera_key(out):
    def edit(lines):
        k = _first(lines, "  size:")
        lines.insert(k + 1, "  bogus: 1")  # between size: and proj:
        return rf"manifest:{k + 2}: bad camera key 'bogus'"

    return _edit_manifest(out, edit)


def _negative_width(out):
    def edit(lines):
        k = _first(lines, "  size:")
        lines[k] = "  size: -480 240"
        return rf"manifest:{k}: size -480 240: width and height must be at least 1"

    return _edit_manifest(out, edit)


def _flow_smaller_than_its_camera(out):
    flow = FlowImage(0, 0, 1, np.zeros((50, 100, 2), dtype=np.float32))
    fileio.save_flow(os.path.join(out, "flows", "cam0_0.flw"), flow)
    return r"cam0_0\.flw: 100x50 flow, camera 0 0 is 480x240"


def _pieces_shorter_than_cloud(out):
    pieces = RigidPieces(0, np.zeros(3, dtype=np.int32), 1)
    fileio.save_pieces(os.path.join(out, "labels", "pieces.seg"), pieces)
    with open(os.path.join(out, fileio.MANIFEST_NAME), "a", encoding="utf-8") as fh:
        fh.write("pieces: labels/pieces.seg\n")
    return r"pieces\.seg: length differs from cloud 0"


def _label_beyond_piece_count(out):
    path = os.path.join(out, "gt", "inst_0.seg")
    blob = bytearray(open(path, "rb").read())
    blob[8:12] = np.int32(0).tobytes()  # piece_count 0, yet labels reach 0
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    return "inst_0.seg"


def _non_utf8_line(out):
    with open(os.path.join(out, fileio.MANIFEST_NAME), "ab") as fh:
        fh.write(b"\xff\xfe: 1\n")
    return r"manifest:\d+\b"


def _zero_offset(out):
    _edit_manifest_line("frames:", "frames: 0,1,2")(out)
    return "offset 0"


def _nan_interval(out):
    _edit_manifest_line("frame_interval:", "frame_interval: nan")(out)
    return r"manifest: frame_interval_s"


@pytest.mark.parametrize(
    "corrupt",
    [
        _edit_manifest_line("frames:", "frames: -1,x,2"),
        _edit_manifest_line("velocities:", "velocities: 1 2 3"),
        _edit_manifest_line("  proj:", "  proj: " + " ".join(["1.0"] * 11)),
        _edit_manifest_line("cloud 0:", "cloud: clouds/frame_0.pcb"),
        _edit_manifest_line("  size:", "  size: 480"),
        _edit_manifest_line("frame_interval:", ": 0.5"),
        _zero_offset,
        _nan_interval,
        _edit_manifest_line("grid:", "grid: -32 32 -32 32 2 -3 0.25"),
        _label_beyond_piece_count,
        _non_utf8_line,
        _edit_manifest_line("grid:", "grid: -32 32 -32 32 -3 2"),
        _camera_without_proj,
        _no_grid,
        _pieces_shorter_than_cloud,
        _flow_smaller_than_its_camera,
        _negative_width,
        _unknown_camera_key,
    ],
    ids=[
        "frames", "velocities", "proj", "cloud-index", "size", "no-key", "zero-offset", "nan-interval",
        "z-extent", "seg-label", "non-utf8", "grid-count", "no-proj", "no-grid", "pieces-length",
        "flow-size", "negative-size", "camera-key",
    ],
)
def test_malformed_scene_raises_named_io_error(tmp_path, one_box, corrupt):
    out = str(tmp_path / "scene")
    fileio.save_scene(one_box, out)
    where = corrupt(out)
    with pytest.raises(fileio.InconsistentCountsError, match=where):
        fileio.load_scene(out)



def _nan_cloud(path):
    fileio.save_cloud(path, PointCloud(0, np.zeros((4, 3))))
    return 8 + 5 * 4  # the second point's y


def _nan_field(path):
    fileio.save_field(path, BevMotionField(SPEC, 1, np.zeros((SPEC.cells_x, SPEC.cells_y, 2))))
    return 16 + 4 * 1001


def _nan_flow(path):
    fileio.save_flow(path, FlowImage(0, 0, 1, np.zeros((3, 5, 2), dtype=np.float32)))
    return 12 + 4 * 17


def _load_field(path):
    return fileio.load_field(path, SPEC)


@pytest.mark.parametrize(
    "write, load",
    [(_nan_cloud, fileio.load_cloud), (_nan_field, _load_field), (_nan_flow, fileio.load_flow)],
    ids=["pcb", "bev", "flw"],
)
def test_non_finite_value_raises_named_io_error(tmp_path, write, load):
    path = str(tmp_path / "bad.bin")
    offset = write(path)
    blob = bytearray(open(path, "rb").read())
    blob[offset : offset + 4] = np.float32(np.nan).tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(fileio.IoError, match="bad.bin"):
        load(path)


def test_mask_status_above_two_raises_named_io_error(tmp_path):
    path = str(tmp_path / "m.msk")
    fileio.save_mask_bytes(path, np.array([0, 1, 3, 2], dtype=np.uint8))
    np.testing.assert_array_equal(fileio.load_mask_bytes(path), [0, 1, 3, 2])  # raw bytes load
    with pytest.raises(fileio.IoError, match="m.msk"):
        fileio.load_mask(path)


def _drop_manifest_lines(out, prefix, count):
    path = os.path.join(out, fileio.MANIFEST_NAME)
    lines = open(path, encoding="utf-8").read().splitlines()
    k = lines.index(prefix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:k] + lines[k + count :]) + "\n")


@pytest.mark.parametrize(
    "prefix, count, named",
    [
        ("camera 1 3:", 3, "frame 2 needs camera 1 3"),  # the block of frame t + 1
        ("camera 3 -1:", 3, "frame -1 needs camera 3 -1"),
        ("camera 3 -1:", 15, "frame -1 needs camera 3 -1"),  # every block of camera 3
        ("flow 2 0: flows/cam2_0.flw", 1, "frame 0 needs flow 2 0"),
        ("cloud 1: clouds/frame_1.pcb", 1, "frame 1 needs cloud 1"),
    ],
    ids=["camera-next", "camera", "camera-all", "flow", "cloud"],
)
def test_manifest_missing_what_a_frame_needs_raises_named_error(tmp_path, one_box, prefix, count, named):
    out = str(tmp_path / "scene")
    fileio.save_scene(one_box, out)
    _drop_manifest_lines(out, prefix, count)
    with pytest.raises(fileio.InconsistentCountsError, match=named):
        fileio.load_scene(out)


FUZZ_SPEC = BevGridSpec(-1.0, 1.0, -1.0, 1.0, cell_size=0.5)
FUZZ_RECORDS = {
    "pcb": (
        lambda p: fileio.save_cloud(p, PointCloud(0, np.arange(12.0).reshape(4, 3))),
        fileio.load_cloud,
    ),
    "bev": (
        lambda p: fileio.save_field(p, BevMotionField(FUZZ_SPEC, -1, np.ones((4, 4, 2)))),
        lambda p: fileio.load_field(p, FUZZ_SPEC),
    ),
    "flw": (
        lambda p: fileio.save_flow(p, FlowImage(0, 0, 1, np.ones((3, 5, 2), dtype=np.float32))),
        fileio.load_flow,
    ),
    "msk": (lambda p: fileio.save_mask(p, StaticDynamicMask(0, np.array([0, 1, 2, 1]))), fileio.load_mask),
    "seg": (lambda p: fileio.save_pieces(p, RigidPieces(0, np.array([-1, 0, 1, 1]), 2)), fileio.load_pieces),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_records_load_or_raise_io_error(tmp_path_factory, data):
    for ext, (save, load) in FUZZ_RECORDS.items():
        path = str(tmp_path_factory.getbasetemp() / f"fuzz.{ext}")
        save(path)
        blob = bytearray(open(path, "rb").read())
        length = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))), label=f"{ext} length")
        # Overwrite whole 4-byte words after the magic (a bad magic has its
        # own test), so that NaN floats and huge counts come up.
        edits = st.tuples(st.integers(1, len(blob) // 4 - 1), st.binary(min_size=4, max_size=4))
        for word, value in data.draw(st.lists(edits, min_size=1, max_size=3), label=f"{ext} edits"):
            blob[4 * word : 4 * word + 4] = value
        with open(path, "wb") as fh:
            fh.write(bytes(blob[:length]))
        try:
            load(path)
        except fileio.IoError:
            pass


@pytest.mark.parametrize("ext", sorted(FUZZ_RECORDS))
@pytest.mark.parametrize("extra", [1, 12])
def test_bytes_after_the_record_raise_named_error(tmp_path, ext, extra):
    save, load = FUZZ_RECORDS[ext]
    path = str(tmp_path / f"long.{ext}")
    save(path)
    load(path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * extra)
    with pytest.raises(fileio.InconsistentCountsError, match=f"long.{ext}: {extra} bytes after"):
        load(path)


@pytest.mark.parametrize(
    "save, value, expected",
    [
        (fileio.save_cloud, PointCloud(0, np.arange(6.0).reshape(2, 3)),
         b"PCB1" + struct.pack("<I6f", 2, 0, 1, 2, 3, 4, 5)),
        (fileio.save_field, BevMotionField(FUZZ_SPEC, -1, np.full((4, 4, 2), 0.5)),
         b"BEV1" + struct.pack("<iII32f", -1, 4, 4, *[0.5] * 32)),
        (fileio.save_flow, FlowImage(0, 0, 1, np.full((3, 5, 2), 2.0, dtype=np.float32)),
         b"FLW1" + struct.pack("<II30f", 3, 5, *[2.0] * 30)),
        (fileio.save_mask, StaticDynamicMask(0, np.array([0, 1, 2])), b"MSK1" + struct.pack("<I3B", 3, 0, 1, 2)),
        (fileio.save_pieces, RigidPieces(0, np.array([-1, 0, 1]), 4), b"SEG1" + struct.pack("<Ii3i", 3, 4, -1, 0, 1)),
    ],
    ids=["pcb", "bev", "flw", "msk", "seg"],
)
def test_records_have_the_documented_layout(tmp_path, save, value, expected):
    # magic, 4-byte header words, payload: the bytes of each format are fixed
    path = str(tmp_path / "r")
    save(path, value)
    assert open(path, "rb").read() == expected


def test_scene_instance_files_record_max_label_plus_one(tmp_path, one_box):
    out = str(tmp_path / "scene")
    fileio.save_scene(one_box, out)
    for t, tag in ((-1, "m1"), (0, "0"), (1, "1"), (2, "2")):
        pieces = fileio.load_pieces(os.path.join(out, "gt", f"inst_{tag}.seg"))
        assert pieces.piece_count == int(one_box.gt_instances[t].max()) + 1
