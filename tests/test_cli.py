"""Command-line workflow, exercised in-process through cli.main."""

import os
import shutil

import numpy as np
import pytest

from bevss import cli, fileio
from bevss.grid import BevGridSpec
from bevss.losses import LossWeights
from bevss.optimizer import OptimConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A scene written by `synth`, labeled, and optimized briefly."""
    root = tmp_path_factory.mktemp("cli")
    scene = str(root / "scene")
    pred = str(root / "pred")
    assert cli.main(["synth", "--preset", "one-box", "--seed", "0", "--out", scene]) == 0
    assert cli.main(["labels", "--scene", scene]) == 0
    assert cli.main(["optimize", "--scene", scene, "--out", pred, "--iters", "40"]) == 0
    return {"root": root, "scene": scene, "pred": pred}


def test_synth_writes_manifest(workspace, capsys):
    assert os.path.exists(os.path.join(workspace["scene"], "manifest"))
    bundle = fileio.load_scene(workspace["scene"])
    assert set(bundle.clouds) == {-1, 0, 1, 2}


def test_labels_stores_masks_and_pieces(workspace):
    bundle = fileio.load_scene(workspace["scene"])
    assert set(bundle.pseudo_masks) == {-1, 0, 1, 2}
    assert bundle.pieces is not None and bundle.pieces.piece_count > 0


def test_labels_prints_summary(workspace, capsys):
    assert cli.main(["labels", "--scene", workspace["scene"]]) == 0
    out = capsys.readouterr().out
    assert "frame 0:" in out
    assert "pieces:" in out


def test_optimize_writes_fields_and_report(workspace):
    for name in ("field_m1.bev", "field_1.bev", "field_2.bev", "report.txt"):
        assert os.path.exists(os.path.join(workspace["pred"], name))
    report = open(os.path.join(workspace["pred"], "report.txt")).read()
    assert "iterations=" in report
    assert "stop_reason=" in report
    assert "loss_total=" in report
    field = fileio.load_field(os.path.join(workspace["pred"], "field_1.bev"), BevGridSpec())
    assert field.time_offset == 1
    assert float(np.abs(field.values).max()) > 0.0


def test_optimize_prints_stop_reason(workspace, tmp_path, capsys):
    out_dir = str(tmp_path / "pred3")
    argv = ["optimize", "--scene", workspace["scene"], "--out", out_dir, "--iters", "3"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    report = open(os.path.join(out_dir, "report.txt")).read().splitlines()
    assert "stop_reason=max_iters" in printed
    assert "stop_reason=max_iters" in report


def test_optimize_report_loss_matches_loss_command(workspace, capsys):
    # report.txt holds the loss at the saved fields, not one step before.
    # Field files store float32, so the two agree to that precision.
    lines = open(os.path.join(workspace["pred"], "report.txt")).read().splitlines()
    reported = dict(line.split("=") for line in lines)
    assert cli.main(["loss", "--scene", workspace["scene"], "--pred", workspace["pred"]]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    for key in ("total", "mc", "pr", "tc"):
        assert float(reported[f"loss_{key}"]) == pytest.approx(float(printed[key]), rel=1e-6)


def test_optimize_report_records_mask_and_seed(workspace):
    lines = open(os.path.join(workspace["pred"], "report.txt")).read().splitlines()
    reported = dict(line.split("=") for line in lines)
    assert reported["use_mask"] == "true"
    assert int(reported["seeded_cells"]) > 0


def test_loss_no_mask_matches_plain_optimize_report(workspace, tmp_path, capsys):
    out_dir = str(tmp_path / "plain")
    weights = ["--lambda-pr", "0", "--lambda-tc", "0"]
    argv = ["optimize", "--scene", workspace["scene"], "--out", out_dir, "--iters", "5", "--no-mask"]
    assert cli.main(argv + weights) == 0
    capsys.readouterr()
    lines = open(os.path.join(out_dir, "report.txt")).read().splitlines()
    reported = dict(line.split("=") for line in lines)
    assert reported["use_mask"] == "false" and reported["seeded_cells"] == "0"
    argv = ["loss", "--scene", workspace["scene"], "--pred", out_dir]
    assert cli.main(argv + weights + ["--no-mask"]) == 0
    plain = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(reported["loss_total"]) == pytest.approx(float(plain["total"]), rel=1e-6)
    assert cli.main(argv + weights) == 0  # the masked objective differs
    masked = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(masked["total"]) != pytest.approx(float(plain["total"]), rel=1e-3)


def test_loss_prints_all_components(workspace, capsys):
    rc = cli.main(["loss", "--scene", workspace["scene"], "--pred", workspace["pred"]])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("mc:", "pr:", "tc:", "total:"):
        assert key in out


def test_loss_prints_zero_for_a_term_that_is_off(workspace, capsys):
    argv = ["loss", "--scene", workspace["scene"], "--pred", workspace["pred"]]
    assert cli.main(argv + ["--lambda-pr", "0", "--lambda-tc", "0"]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert printed["pr"] == "0" and printed["tc"] == "0"
    assert printed["total"] == printed["mc"] and float(printed["mc"]) > 0.0


_REMOVED = ("--tau2d", "--tau3d", "--ground-z", "--delta-d")


@pytest.mark.parametrize(
    "flag,command", [(f, c) for c in ("optimize", "loss") for f in _REMOVED] + [("--frames", "optimize")]
)
def test_removed_option_is_a_usage_error(workspace, tmp_path, capsys, flag, command):
    # Labels and offsets are chosen by `labels` and `synth`; `loss` and
    # `optimize` read the scene as stored.
    target = ["--out", str(tmp_path / "p")] if command == "optimize" else ["--pred", workspace["pred"]]
    value = "1,2" if flag == "--frames" else "0.01"
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--scene", workspace["scene"], *target, flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "p")


def test_non_finite_weight_is_an_error(workspace, tmp_path, capsys):
    argv = ["optimize", "--scene", workspace["scene"], "--out", str(tmp_path / "p"), "--lambda-pr", "nan"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: lambda_pr ")
    assert not os.path.exists(tmp_path / "p")


@pytest.fixture(scope="module")
def unlabeled(tmp_path_factory):
    """The workspace's scene as `synth` wrote it, before `labels`."""
    scene = str(tmp_path_factory.mktemp("unlabeled") / "scene")
    assert cli.main(["synth", "--preset", "one-box", "--seed", "0", "--out", scene]) == 0
    return scene


def _total(capsys, argv):
    capsys.readouterr()
    assert cli.main(argv) == 0
    return dict(line.split(": ") for line in capsys.readouterr().out.splitlines())["total"]


def test_labels_option_changes_the_loss(workspace, unlabeled, tmp_path, capsys):
    relabeled = str(tmp_path / "relabeled")
    assert cli.main(["labels", "--scene", unlabeled, "--tau2d", "0.01", "--out", relabeled]) == 0
    default = _total(capsys, ["loss", "--scene", workspace["scene"], "--pred", workspace["pred"]])
    assert _total(capsys, ["loss", "--scene", relabeled, "--pred", workspace["pred"]]) != default


def test_optimize_on_an_unlabeled_scene_matches_labels_then_optimize(workspace, unlabeled, tmp_path):
    # An unlabeled scene gets the default labels, as `bevss labels` stores them.
    out = str(tmp_path / "pred")
    assert cli.main(["optimize", "--scene", unlabeled, "--out", out, "--iters", "40"]) == 0
    for t in (-1, 1, 2):
        with open(fileio.field_path(out, t), "rb") as a, open(fileio.field_path(workspace["pred"], t), "rb") as b:
            assert a.read() == b.read()


def test_eval_prints_buckets_and_kv(workspace, capsys):
    rc = cli.main(["eval", "--scene", workspace["scene"], "--pred", workspace["pred"], "--kv"])
    assert rc == 0
    out = capsys.readouterr().out
    for t in (-1, 1, 2):
        assert f"offset {t}:" in out
    for bucket in ("static", "slow", "fast"):
        assert f"  {bucket}: mean " in out
        assert f"eval.1.{bucket}.mean=" in out


def test_eval_on_a_scene_without_a_ground_truth_field(workspace, tmp_path, capsys):
    # Every field is looked up first: no bucket line precedes the error.
    scene = str(tmp_path / "scene")
    shutil.copytree(workspace["scene"], scene)
    manifest = os.path.join(scene, fileio.MANIFEST_NAME)
    lines = open(manifest, encoding="utf-8").read().splitlines()
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(line for line in lines if not line.startswith("gt_field 1:")) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--scene", scene, "--pred", workspace["pred"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the scene has no ground-truth field for offset 1\n"


def test_eval_with_a_missing_prediction_field(workspace, tmp_path, capsys):
    # Every offset is evaluated first: no bucket line of offsets -1 and 1
    # precedes the error about offset 2.
    pred = str(tmp_path / "pred")
    shutil.copytree(workspace["pred"], pred)
    os.remove(fileio.field_path(pred, 2))
    capsys.readouterr()
    assert cli.main(["eval", "--scene", workspace["scene"], "--pred", pred]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "field_2.bev" in captured.err


def _read_ppm_header(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        w, h = fh.readline().split()
        depth = fh.readline().strip()
        body = fh.read()
    return magic, int(w), int(h), depth, body


@pytest.mark.parametrize("what", ["field", "mask", "pieces", "seg2d"])
def test_render_outputs_valid_ppm(workspace, what, capsys):
    out = str(workspace["root"] / f"render_{what}.ppm")
    rc = cli.main(["render", "--scene", workspace["scene"], "--what", what, "--out", out])
    assert rc == 0
    magic, w, h, depth, body = _read_ppm_header(out)
    assert magic == b"P6"
    assert depth == b"255"
    assert len(body) == w * h * 3
    if what == "seg2d":
        assert (w, h) == (480, 240)
    else:
        assert (w, h) == (256, 256)


@pytest.mark.parametrize(
    "labeled,argv,message",
    [
        (True, ["--what", "mask", "--t", "5"], "no point cloud for frame 5"),
        (True, ["--what", "seg2d", "--camera", "7"], "no flow image for camera 7 at frame 1"),
        (True, ["--what", "field", "--t", "3"], "no field for offset 3"),
        (False, ["--what", "mask"], "no pseudo mask for frame 1; run `bevss labels` first"),
        (False, ["--what", "pieces"], "no rigid pieces; run `bevss labels` first"),
    ],
    ids=["mask-frame", "seg2d-camera", "field-offset", "mask-unlabeled", "pieces-unlabeled"],
)
def test_render_error_names_what_is_missing(workspace, unlabeled, tmp_path, capsys, labeled, argv, message):
    scene = workspace["scene"] if labeled else unlabeled
    out = tmp_path / "x.ppm"
    assert cli.main(["render", "--scene", scene, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: the scene has {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_without_instances_is_an_error(capsys, instances):
    assert cli.main(["gradcheck", "--instances", instances]) == 1
    assert capsys.readouterr().err == f"error: instances must be >= 1, got {instances}\n"


def test_gradcheck_subcommand(capsys):
    assert cli.main(["gradcheck", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "max:" in out
    worst = float(out.strip().splitlines()[-1].split()[-1])
    assert worst < 1e-3


@pytest.mark.parametrize("bad", [2e-3, float("inf")])
def test_gradcheck_fails_on_an_error_not_below_the_bound(monkeypatch, capsys, bad):
    errors = {"chamfer": 1e-11, "masked_chamfer": bad, "rigidity": 1e-3, "smoothness": 9e-4}
    monkeypatch.setattr(cli.gradcheck, "run_all", lambda seed, instances: errors)
    assert cli.main(["gradcheck"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: relative error not below 0.001: masked_chamfer, rigidity\n"
    assert "max:" in captured.out


def test_synth_frame_override(tmp_path):
    scene = str(tmp_path / "s")
    assert cli.main(["synth", "--preset", "static", "--frames", "1,2", "--out", scene]) == 0
    bundle = fileio.load_scene(scene)
    assert bundle.frame_set.offsets == (1, 2)


def test_one_offset_scene_runs_end_to_end(tmp_path, capsys):
    # With one offset the temporal term is identically 0, so it is off, as
    # a term of weight 0 is: the default optimize needs no --lambda-tc 0.
    scene, pred = str(tmp_path / "s"), str(tmp_path / "p")
    assert cli.main(["synth", "--preset", "one-box", "--frames", "1", "--out", scene]) == 0
    assert cli.main(["labels", "--scene", scene]) == 0
    assert cli.main(["optimize", "--scene", scene, "--out", pred]) == 0
    assert sorted(os.listdir(pred)) == ["field_1.bev", "report.txt"]
    reported = dict(line.split("=") for line in open(os.path.join(pred, "report.txt")).read().splitlines())
    assert reported["loss_tc"] == "0" and reported["stop_reason"] == "tol"
    capsys.readouterr()
    assert cli.main(["eval", "--scene", scene, "--pred", pred, "--kv"]) == 0
    out = capsys.readouterr().out
    assert "offset 1:" in out and "eval.1.fast.count=" in out and "offset 2:" not in out


def test_commands_after_synth_read_the_offsets_of_the_scene(tmp_path, capsys):
    scene, pred = str(tmp_path / "s"), str(tmp_path / "p")
    assert cli.main(["synth", "--preset", "one-box", "--frames", "1,2", "--out", scene]) == 0
    assert cli.main(["labels", "--scene", scene]) == 0
    assert cli.main(["optimize", "--scene", scene, "--out", pred, "--iters", "3"]) == 0
    assert sorted(os.listdir(pred)) == ["field_1.bev", "field_2.bev", "report.txt"]
    capsys.readouterr()
    assert cli.main(["loss", "--scene", scene, "--pred", pred]) == 0
    assert cli.main(["eval", "--scene", scene, "--pred", pred]) == 0
    out = capsys.readouterr().out
    assert "total: " in out and "offset 1:" in out and "offset 2:" in out and "offset -1:" not in out


def test_errors_exit_with_code_1(capsys):
    assert cli.main(["labels", "--scene", "/nonexistent"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_with_code_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_debug_shows_the_traceback_instead_of_the_error_line(capsys):
    argv = ["labels", "--scene", "/nonexistent"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(fileio.NotFoundError):
        cli.main(["--debug", *argv])
    assert capsys.readouterr().err == ""


class _ClosedPipe:
    """A stdout whose reader has gone: its write or its flush raises."""

    def __init__(self, fd, failing):
        self.fd, self.failing = fd, failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_stdout_ends_the_command_quietly(workspace, tmp_path, monkeypatch, capsys, failing):
    argv = ["eval", "--scene", workspace["scene"], "--pred", workspace["pred"], "--kv"]
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(fd, failing))
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        # What is left to write at exit goes to devnull.
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        with pytest.raises(BrokenPipeError):
            cli.main(["--debug", *argv])
    finally:
        os.close(fd)


@pytest.mark.parametrize("command,output", [("loss", "--pred"), ("optimize", "--out")])
def test_parser_defaults_are_the_config_defaults(command, output):
    args = cli.build_parser().parse_args([command, "--scene", "s", output, "o"])
    assert cli._weights(args) == LossWeights()
    assert not args.no_mask and OptimConfig().use_mask
    if command == "optimize":
        cfg = OptimConfig()
        assert (args.iters, args.lr) == (cfg.max_iters, cfg.learning_rate)
