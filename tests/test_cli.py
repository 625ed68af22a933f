"""Command-line workflow, exercised in-process through cli.main."""

import os

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


@pytest.mark.parametrize("command", ["optimize", "loss"])
@pytest.mark.parametrize("flag", ["--tau2d", "--tau3d", "--ground-z", "--delta-d"])
def test_label_option_on_a_labeled_scene_is_an_error(workspace, tmp_path, capsys, command, flag):
    # The stored masks and pieces would be used as they are, so the option
    # could not take effect.
    target = ["--out", str(tmp_path / "p")] if command == "optimize" else ["--pred", workspace["pred"]]
    argv = [command, "--scene", workspace["scene"], *target, flag, "0.01"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "bevss labels" in err
    assert not os.path.exists(tmp_path / "p")


def test_non_finite_weight_is_an_error(workspace, tmp_path, capsys):
    argv = ["optimize", "--scene", workspace["scene"], "--out", str(tmp_path / "p"), "--lambda-pr", "nan"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: lambda_pr ")
    assert not os.path.exists(tmp_path / "p")


def test_label_option_on_an_unlabeled_scene_sets_the_labels(workspace, tmp_path, capsys):
    scene = str(tmp_path / "unlabeled")
    assert cli.main(["synth", "--preset", "one-box", "--seed", "0", "--out", scene]) == 0
    argv = ["loss", "--scene", scene, "--pred", workspace["pred"]]
    totals = []
    for extra in ([], ["--tau2d", "0.01"]):
        capsys.readouterr()
        assert cli.main(argv + extra) == 0
        totals.append(dict(line.split(": ") for line in capsys.readouterr().out.splitlines())["total"])
    assert totals[0] != totals[1]


def test_eval_prints_buckets_and_kv(workspace, capsys):
    rc = cli.main(["eval", "--scene", workspace["scene"], "--pred", workspace["pred"], "--kv"])
    assert rc == 0
    out = capsys.readouterr().out
    for t in (-1, 1, 2):
        assert f"offset {t}:" in out
    for bucket in ("static", "slow", "fast"):
        assert f"  {bucket}: mean " in out
        assert f"eval.1.{bucket}.mean=" in out


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


def test_gradcheck_subcommand(capsys):
    assert cli.main(["gradcheck", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "max:" in out
    worst = float(out.strip().splitlines()[-1].split()[-1])
    assert worst < 1e-3


def test_synth_frame_override(tmp_path):
    scene = str(tmp_path / "s")
    assert cli.main(["synth", "--preset", "static", "--frames", "1,2", "--out", scene]) == 0
    bundle = fileio.load_scene(scene)
    assert bundle.frame_set.offsets == (1, 2)


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
    if command == "optimize":
        cfg = OptimConfig()
        assert (args.iters, args.lr) == (cfg.max_iters, cfg.learning_rate)
        assert not args.no_mask and cfg.use_mask
