"""The benchmark workloads: one pass of each, with its correctness checks.

A pass counts every stage call and every check it attempts; a stage that
raises ends the pass. The checks reuse the thresholds of the acceptance
gate in tests/test_acceptance.py unchanged.
"""

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from bevss import cli, evaluation, fileio, gradcheck, optimizer, synth
from bevss.grid import cell_indices
from bevss.losses import LossWeights
from bevss.masks import DYNAMIC, UNKNOWN

OFFSETS = (-1, 1, 2)
HORIZON_S = 1.0
MASK_MIN_PRECISION = 0.95
MASK_MIN_RECALL = 0.95
ACTOR_ERR_LIMITS = {1: 0.15, 2: 0.3, -1: 0.15}  # meters, per offset
STATIC_MAG_LIMIT = 0.05
GRAD_REL_TOL = 1e-3
GRADCHECK_NAMES = ("chamfer", "masked_chamfer", "rigidity", "temporal_consistency", "smoothness")


class StageFailed(Exception):
    """A stage raised; the pass stops there."""


class PassLog:
    """What one pass attempted, what failed, and what it produced."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.epe = {}  # bucket -> mean error over OFFSETS at the 1 s horizon
        self.digests = {}  # artifact -> SHA-256 hex digest
        self.iterations = None  # optimizer iterations, for scene workloads

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def stage(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{name}: {exc!r}")
            raise StageFailed(name) from exc


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _field_file(t):
    return f"field_m{-t}.bev" if t < 0 else f"field_{t}.bev"


def _load_outputs(scene, pred):
    bundle = fileio.load_scene(scene)
    fields = {t: fileio.load_field(os.path.join(pred, _field_file(t)), bundle.grid) for t in OFFSETS}
    return bundle, fields


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bevss {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _parse_kv(text):
    """key=value lines of `bevss optimize` and `bevss eval --kv`."""
    kv = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            try:
                kv[key] = float(value)
            except ValueError:
                kv[key] = value
    return kv


def _mean_bucket_epe(log, count_and_mean):
    """Fill log.epe from {(t, bucket): (count, mean)}; a bucket counts only
    when every offset has cells in it."""
    for bucket in ("fast", "slow"):
        pairs = [count_and_mean.get((t, bucket), (0, math.nan)) for t in OFFSETS]
        if all(c > 0 for c, _ in pairs):
            log.epe[bucket] = float(np.mean([m for _, m in pairs]))


def one_box_cli(seed, workdir, tracer):
    """README walkthrough on one-box through bevss.cli.main, full loss."""
    log = PassLog()
    scene, pred = os.path.join(workdir, "scene"), os.path.join(workdir, "pred")
    steps = (
        ("synth", ["synth", "--preset", "one-box", "--seed", str(seed), "--out", scene]),
        ("labels", ["labels", "--scene", scene]),
        ("optimize", ["optimize", "--scene", scene, "--out", pred]),
        ("eval", ["eval", "--scene", scene, "--pred", pred, "--kv"]),
    )
    outputs = {}
    try:
        for step, argv in steps:
            with tracer.span(f"cli.{step}"):
                outputs[step] = log.stage(f"cli.{step}", _run_cli, argv)
        with tracer.paused():
            bundle, fields = log.stage("load outputs", _load_outputs, scene, pred)
    except StageFailed:
        return log

    kv = _parse_kv(outputs["eval"])
    log.iterations = int(_parse_kv(outputs["optimize"]).get("iterations", -1))
    _mean_bucket_epe(
        log,
        {
            (t, b): (kv.get(f"eval.{t}.{b}.count", 0), kv.get(f"eval.{t}.{b}.mean", math.nan))
            for t in OFFSETS
            for b in ("fast", "slow")
        },
    )
    log.check("eval.fast_bucket", math.isfinite(log.epe.get("fast", math.nan)))

    for t in bundle.mask_frames:
        status = bundle.pseudo_masks[t].status
        sel = bundle.visibility[t] & (status != UNKNOWN)
        pred_dyn = status[sel] == DYNAMIC
        gt = bundle.gt_masks[t][sel].astype(bool)
        tp = int((pred_dyn & gt).sum())
        fp = int((pred_dyn & ~gt).sum())
        fn = int((~pred_dyn & gt).sum())
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        log.check(
            f"mask[{t}] precision {precision:.4f} recall {recall:.4f}",
            precision >= MASK_MIN_PRECISION and recall >= MASK_MIN_RECALL,
        )

    inst = bundle.gt_instances[0]
    idx, valid = cell_indices(bundle.clouds[0].points, bundle.grid)
    actor_cells = np.unique(idx[(inst == 0) & valid], axis=0)
    static_cells = np.unique(idx[(inst == -1) & valid], axis=0)
    for t, limit in ACTOR_ERR_LIMITS.items():
        pred_a = fields[t].values[actor_cells[:, 0], actor_cells[:, 1]]
        gt_a = bundle.gt_fields[t].values[actor_cells[:, 0], actor_cells[:, 1]]
        err = float(np.linalg.norm(pred_a - gt_a, axis=1).mean())
        log.check(f"actor[{t}] error {err:.4f} <= {limit}", err <= limit)
        stat = fields[t].values[static_cells[:, 0], static_cells[:, 1]]
        mag = float(np.linalg.norm(stat, axis=1).mean())
        log.check(f"static[{t}] magnitude {mag:.4f} < {STATIC_MAG_LIMIT}", mag < STATIC_MAG_LIMIT)

    log.digests["masks"] = _digest(bundle.pseudo_masks[t].status for t in bundle.mask_frames)
    log.digests["pieces"] = _digest([np.int64(bundle.pieces.piece_count), bundle.pieces.labels])
    log.digests["fields"] = _digest(fields[t].values for t in OFFSETS)
    return log


def two_box_plain(seed, workdir, tracer):
    """two-box through the API with the plain-Chamfer ablation config.

    The relative-change stop is switched off, so every seed runs the full
    max_iters: with it on, the stop fires anywhere from 98 to 500
    iterations depending on the seed, and the pass would time the seed
    rather than the code.
    """
    log = PassLog()
    cfg = optimizer.OptimConfig(
        use_mask=False, weights=LossWeights(lambda_pr=0.0, lambda_tc=0.0), convergence_tol=0.0
    )
    try:
        bundle = log.stage("synth.generate", lambda: synth.generate(synth.preset("two-box", seed=seed)))
        fields, report = log.stage("optimizer.optimize", optimizer.optimize, bundle, cfg)
        log.iterations = report.iterations
        horizon = HORIZON_S / bundle.frame_set.frame_interval_s
        reports = {}
        for t in OFFSETS:
            reports[t] = log.stage(
                f"evaluation.evaluate[{t}]",
                evaluation.evaluate,
                evaluation.interpolate_flow(fields[t], horizon),
                evaluation.interpolate_flow(bundle.gt_fields[t], horizon),
                bundle.clouds[0],
                horizon_s=HORIZON_S,
            )
    except StageFailed:
        return log

    log.check("fields finite", all(np.isfinite(fields[t].values).all() for t in OFFSETS))
    for t, rep in reports.items():
        log.check(f"buckets[{t}] fast and slow non-empty", rep.fast.count > 0 and rep.slow.count > 0)
    _mean_bucket_epe(
        log,
        {(t, b): (rep.bucket(b).count, rep.bucket(b).mean) for t, rep in reports.items() for b in ("fast", "slow")},
    )
    log.digests["fields"] = _digest(fields[t].values for t in OFFSETS)
    return log


def gradcheck_all(seed, workdir, tracer):
    """Finite-difference check of every analytic loss gradient."""
    log = PassLog()
    try:
        errors = log.stage("gradcheck.run_all", gradcheck.run_all, seed=seed, instances=20)
    except StageFailed:
        return log
    log.check("all checks present", set(errors) == set(GRADCHECK_NAMES))
    for name in GRADCHECK_NAMES:
        err = errors.get(name, math.inf)
        log.check(f"{name} relative error {err:.3e} < {GRAD_REL_TOL}", err < GRAD_REL_TOL)
    return log


WORKLOADS = {
    "one-box-cli": one_box_cli,
    "two-box-plain": two_box_plain,
    "gradcheck": gradcheck_all,
}
