"""Spans around the calls into each bevss layer, and the per-layer metrics.

The tracer replaces a public function at the place where its caller looks
it up (a module attribute such as ``optimizer.masked_chamfer``, or an entry
of ``gradcheck.CHECKS``) with a wrapper that records one span per call:
name, start, end, parent span and run id (the pass number). Spans stay in
memory and are written to an ``.npz`` file when the run ends. A target that
no longer exists is reported as missing instead of failing the run.
"""

import contextlib
import importlib
import os
import time
from collections import Counter

import numpy as np
from bevss.masks import DYNAMIC, UNKNOWN

from workloads import GRADCHECK_NAMES


class Tracer:
    """Span recorder; while disabled, spans and wrapped calls cost nothing."""

    def __init__(self):
        self.run = 0
        self.enabled = False
        self.missing = []  # wrap targets that do not exist
        self.broken = set()  # spans whose observer could not read the call
        self.counts = {}  # run -> Counter of per-layer work counts
        self._name_ids = {}
        self._name = []
        self._start = []
        self._end = []
        self._parent = []
        self._runs = []
        self._stack = []
        self._patches = []

    # --- recording ---------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._runs.append(self.run)
        self._end.append(np.nan)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i):
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def count(self, key, value):
        self.counts.setdefault(self.run, Counter())[key] += value

    # --- instrumentation ---------------------------------------------------

    def _wrapper(self, fn, name, observe):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                try:
                    observe(self, args, kwargs, out)
                except Exception:  # a changed signature must not stop the run
                    self.broken.add(name)
            return out

        return traced

    def install(self, targets):
        """Wrap every (module, key, span name, observer) target that exists.

        key is an attribute name, or (dict attribute, item key) for a
        function table such as gradcheck.CHECKS.
        """
        for module, key, name, observe in targets:
            owner = importlib.import_module(module)
            attr = key
            if isinstance(key, tuple):
                owner, attr = getattr(owner, key[0], {}), key[1]
                present = attr in owner
            else:
                present = hasattr(owner, attr)
            if not present:
                self.missing.append(f"{module}.{_label(key)}")
                continue
            if isinstance(owner, dict):
                orig = owner[attr]
                owner[attr] = self._wrapper(orig, name, observe)
            else:
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(orig, name, observe))
            self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # --- analysis ----------------------------------------------------------

    def arrays(self):
        start = np.asarray(self._start, dtype=np.float64)
        end = np.asarray(self._end, dtype=np.float64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": np.asarray(self._name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "run": np.asarray(self._runs, dtype=np.int32),
            "self": dur - child,
        }

    def names(self):
        return sorted(self._name_ids, key=self._name_ids.get)

    def save(self, path):
        arr = self.arrays()
        np.savez(path, names=np.array(self.names()), missing=np.array(self.missing, dtype=str), **arr)

    def run_metrics(self, run, wall_s):
        """Per-layer metrics of one traced pass (run id) lasting wall_s."""
        arr = self.arrays()
        ids = self._name_ids
        sel = arr["run"] == run
        name, start, parent = arr["name"][sel], arr["start"][sel], arr["parent"][sel]
        dur = (arr["end"] - arr["start"])[sel]
        self_t = arr["self"][sel]
        counts = self.counts.get(run, Counter())

        def total(span, values=dur):
            nid = ids.get(span)
            return float(values[name == nid].sum()) if nid is not None else 0.0

        def calls(span):
            nid = ids.get(span)
            return int((name == nid).sum()) if nid is not None else 0

        def ratio(num, den):
            return counts[num] / counts[den] if counts[den] else 0.0

        m = {}
        for fn in ("oversegment", "label_points", "occlusion_filter", "fuse_by_height"):
            m[f"pieces.{fn}_s"] = total(f"pieces.{fn}")
        m["pieces.oversegment_calls"] = calls("pieces.oversegment")
        m["pieces.segments"] = counts["pieces.segments"]
        m["pieces.kept_frac"] = ratio("pieces.kept", "pieces.labelled")
        m["pieces.piece_count"] = counts["pieces.piece_count"]

        m["masks.build_mask_s"] = total("masks.build_mask")
        m["masks.points"] = counts["masks.points"]
        m["masks.dynamic_frac"] = ratio("masks.dynamic0", "masks.classified0")

        flg = "optimizer.field_loss_and_gradients"
        m["optimizer.prepare_supervision_s"] = total("optimizer.prepare_supervision")
        m["optimizer.optimize_s"] = total("optimizer.optimize")
        m["optimizer.iters"] = counts["optimizer.iters"]
        m["optimizer.converged"] = counts["optimizer.converged"]
        gaps = _iteration_gaps(name, start, parent, ids.get(flg))
        m["optimizer.iter_ms_p50"] = float(np.percentile(gaps, 50)) * 1e3 if gaps.size else 0.0
        m["optimizer.iter_ms_p98"] = float(np.percentile(gaps, 98)) * 1e3 if gaps.size else 0.0
        m["optimizer.loss_grad_self_s"] = total(flg, self_t)
        m["optimizer.update_s"] = total("optimizer.optimize") - total(flg) if calls(flg) else 0.0

        m["losses.chamfer_pairs_s"] = total("losses.chamfer_pairs")
        m["losses.chamfer_pairs_calls"] = calls("losses.chamfer_pairs")
        m["losses.chamfer_points"] = counts["losses.chamfer_points"]
        m["losses.masked_chamfer_self_s"] = total("losses.masked_chamfer", self_t)
        for fn in ("rigidity", "temporal_consistency", "smoothness"):
            m[f"losses.{fn}_s"] = total(f"losses.{fn}")
        m["losses.calls"] = sum(calls(n) for n in ids if n.startswith("losses."))

        for check in GRADCHECK_NAMES:
            m[f"gradcheck.{check}_s"] = total(f"gradcheck.{check}")

        m["synth.generate_s"] = total("synth.generate")
        m["synth.points"] = counts["synth.points"]
        m["fileio.save_scene_s"] = total("fileio.save_scene")
        m["fileio.load_scene_s"] = total("fileio.load_scene")
        m["fileio.load_scene_calls"] = calls("fileio.load_scene")
        m["fileio.bytes_written"] = counts["fileio.bytes_written"]
        m["evaluation.evaluate_s"] = total("evaluation.evaluate")
        for step in ("synth", "labels", "optimize", "eval"):
            m[f"cli.{step}_s"] = total(f"cli.{step}")

        m["trace.wall_s"] = wall_s
        m["trace.coverage"] = float(dur[parent == -1].sum()) / wall_s
        return m


def _label(key):
    return f"{key[0]}[{key[1]!r}]" if isinstance(key, tuple) else key


def _iteration_gaps(name, start, parent, nid):
    """Start-to-start spacing of successive spans of nid within one caller."""
    if nid is None:
        return np.zeros(0)
    sel = name == nid
    s, p = start[sel], parent[sel]
    same = p[1:] == p[:-1]
    return np.diff(s)[same]


# --- observers: counts read from the arguments and results of a call -------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _obs_generate(tr, args, kwargs, bundle):
    tr.count("synth.points", len(bundle.clouds[0]))


def _obs_save_scene(tr, args, kwargs, manifest):
    tr.count("fileio.bytes_written", _tree_size(os.path.dirname(manifest)))


def _obs_save_field(tr, args, kwargs, out):
    tr.count("fileio.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _obs_build_mask(tr, args, kwargs, mask):
    cloud = _arg(args, kwargs, 0, "cloud")
    tr.count("masks.points", len(cloud))
    if cloud.frame_index == 0:
        tr.count("masks.dynamic0", int((mask.status == DYNAMIC).sum()))
        tr.count("masks.classified0", int((mask.status != UNKNOWN).sum()))


def _obs_oversegment(tr, args, kwargs, seg):
    tr.count("pieces.segments", seg.count)


def _obs_occlusion_filter(tr, args, kwargs, out):
    tr.count("pieces.labelled", int((_arg(args, kwargs, 1, "labels") >= 0).sum()))
    tr.count("pieces.kept", int((out >= 0).sum()))


def _obs_fuse(tr, args, kwargs, pieces):
    tr.count("pieces.piece_count", pieces.piece_count)


def _obs_optimize(tr, args, kwargs, out):
    report = out[1]
    tr.count("optimizer.iters", report.iterations)
    tr.count("optimizer.converged", int(report.converged))


def _obs_chamfer_pairs(tr, args, kwargs, out):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tr.count("losses.chamfer_points", len(a) + len(b))


def _tree_size(root):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


B = "bevss."
# (module where the caller looks the name up, key, span name, observer)
TARGETS = [
    (B + "synth", "generate", "synth.generate", _obs_generate),
    (B + "fileio", "save_scene", "fileio.save_scene", _obs_save_scene),
    (B + "fileio", "load_scene", "fileio.load_scene", None),
    (B + "fileio", "save_field", "fileio.save_field", _obs_save_field),
    (B + "fileio", "load_field", "fileio.load_field", None),
    (B + "cli", "prepare_supervision", "optimizer.prepare_supervision", None),
    (B + "cli", "optimize", "optimizer.optimize", _obs_optimize),
    (B + "optimizer", "optimize", "optimizer.optimize", _obs_optimize),
    (B + "optimizer", "build_mask", "masks.build_mask", _obs_build_mask),
    (B + "optimizer", "build_pieces", "pieces.build_pieces", None),
    (B + "optimizer", "field_loss_and_gradients", "optimizer.field_loss_and_gradients", None),
    (B + "pieces", "oversegment", "pieces.oversegment", _obs_oversegment),
    (B + "pieces", "label_points", "pieces.label_points", None),
    (B + "pieces", "occlusion_filter", "pieces.occlusion_filter", _obs_occlusion_filter),
    (B + "pieces", "fuse_by_height", "pieces.fuse_by_height", _obs_fuse),
    (B + "losses", "chamfer_pairs", "losses.chamfer_pairs", _obs_chamfer_pairs),
    (B + "losses", "chamfer", "losses.chamfer", None),
    (B + "evaluation", "evaluate", "evaluation.evaluate", None),
    (B + "gradcheck", "run_all", "gradcheck.run_all", None),
    (B + "gradcheck", "chamfer_pairs", "losses.chamfer_pairs", _obs_chamfer_pairs),
]
for _fn in ("masked_chamfer", "rigidity", "temporal_consistency", "total"):
    TARGETS.append((B + "optimizer", _fn, f"losses.{_fn}", None))
for _fn in ("chamfer", "masked_chamfer", "rigidity", "temporal_consistency", "smoothness"):
    TARGETS.append((B + "gradcheck", _fn, f"losses.{_fn}", None))
for _check in GRADCHECK_NAMES:
    TARGETS.append((B + "gradcheck", ("CHECKS", _check), f"gradcheck.{_check}", None))
