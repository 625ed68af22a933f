"""Finite-difference verification of every analytic loss gradient.

Central differences with nearest-neighbor correspondences (Chamfer pairs,
smoothness neighbors) held fixed while a loss is probed. The 6n probes of
an (n, 3) operand (each of its 3n coordinates moved by +step, then each by
-step) are stacked into one (6n, n, 3) array, 0.36 MB at n = 50, and the
loss takes all of them in one call of its value path; the other operands
enter as broadcast views. Each probe's value is that of a call on the
probe alone, bit for bit.
"""

import numpy as np

from .grid import FrameSet, PointCloud, PointFlowSet
from .losses import (
    MaskedChamfer,
    Rigidity,
    TemporalConsistency,
    _chamfer,
    chamfer,
    chamfer_pairs,
    smoothness,
    smoothness_neighbors,
)
from .masks import StaticDynamicMask
from .pieces import RigidPieces

OFFSETS = (-1, 1, 2)


REL_TOL = 1e-3
MAX_ERROR = 1e-3  # a check passes when its error is below this


def _fd_err(fun, x: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Max relative error between central differences and the analytic grad.

    fun maps an array shaped like x, or a stack (..., *x.shape) of such
    arrays, to the loss value of each. Coordinates where the second
    difference reveals a kink of an absolute value inside the probe
    interval are excluded: there the two-sided quotient averages two
    subgradients and cannot resolve the tolerance.
    """
    f0 = fun(x)
    flat = x.ravel()
    m, i = flat.size, np.arange(flat.size)
    probes = np.tile(flat, (2, m, 1))  # (2, m, m): +step rows, then -step rows
    probes[0, i, i] = flat + step
    probes[1, i, i] = flat - step
    fp, fm = fun(probes.reshape(2 * m, *x.shape)).reshape(2, *x.shape)
    fd = (fp - fm) / (2 * step)
    sec = np.abs(fp + fm - 2 * f0)
    scale = max(float(np.abs(fd).max()), float(np.abs(analytic).max()), 1e-8)
    usable = sec <= 2 * step * REL_TOL * scale
    if not usable.any():
        return float("inf")
    return float(np.abs(analytic - fd)[usable].max()) / scale


def check_chamfer(rng: np.random.Generator, n: int = 50, step: float = 1e-4) -> float:
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(n, 3))
    pairs = chamfer_pairs(a, b)
    res = chamfer(PointCloud(0, a), PointCloud(1, b), with_grad=True, pairs=pairs)
    return max(
        _fd_err(lambda x: _chamfer(x, b, pairs)[0], a, res.grad["a"], step),
        _fd_err(lambda x: _chamfer(a, x, pairs)[0], b, res.grad["b"], step),
    )


def _check_term(term, flows: dict, step: float, fixed_pairs: bool = False) -> float:
    """Max error of a prepared term's gradient over every offset of flows.

    flows maps each offset to an (n, 3) array; fixed_pairs holds a
    MaskedChamfer's pairs at those flows fixed.
    """
    sets = {t: PointFlowSet(t, f) for t, f in flows.items()}
    kwargs = {"pairs": term.pairs(sets)} if fixed_pairs else {}
    res = term(sets, with_grad=True, **kwargs)

    def probe(t, x):
        stack = {s: PointFlowSet(s, np.broadcast_to(f, x.shape)) for s, f in flows.items()}
        stack[t] = PointFlowSet(t, x)
        return term(stack, **kwargs).value

    return max(
        _fd_err(lambda x, t=t: probe(t, x), f, res.grad[t], step) for t, f in flows.items()
    )


def check_masked_chamfer(rng: np.random.Generator, n: int = 50, step: float = 1e-4) -> float:
    clouds = {t: PointCloud(t, rng.normal(size=(n, 3))) for t in (0, *OFFSETS)}
    masks = {
        t: StaticDynamicMask(t, (rng.random(n) < 0.6).astype(np.uint8)) for t in (0, *OFFSETS)
    }
    flows = {t: rng.normal(scale=0.3, size=(n, 3)) for t in OFFSETS}
    return _check_term(MaskedChamfer(clouds, masks, OFFSETS), flows, step, fixed_pairs=True)


def check_rigidity(rng: np.random.Generator, n: int = 50, step: float = 1e-4) -> float:
    labels = rng.integers(-1, 5, size=n).astype(np.int32)
    term = Rigidity(RigidPieces(0, labels, int(labels.max()) + 1))
    return _check_term(term, {t: rng.normal(size=(n, 3)) for t in OFFSETS}, step)


def check_temporal(rng: np.random.Generator, n: int = 50, step: float = 1e-4) -> float:
    term = TemporalConsistency(FrameSet(offsets=OFFSETS))
    return _check_term(term, {t: rng.normal(size=(n, 3)) for t in OFFSETS}, step)


def check_smoothness(rng: np.random.Generator, n: int = 50, step: float = 1e-4) -> float:
    cloud = PointCloud(0, rng.normal(size=(n, 3)))
    flows = rng.normal(size=(n, 3))
    nbr = smoothness_neighbors(cloud.points, 4)
    res = smoothness(cloud, PointFlowSet(1, flows), k=4, with_grad=True, neighbors=nbr)
    return _fd_err(
        lambda x: smoothness(cloud, PointFlowSet(1, x), k=4, neighbors=nbr).value,
        flows,
        res.grad[1],
        step,
    )


CHECKS = {
    "chamfer": check_chamfer,
    "masked_chamfer": check_masked_chamfer,
    "rigidity": check_rigidity,
    "temporal_consistency": check_temporal,
    "smoothness": check_smoothness,
}


def run_all(seed: int = 0, instances: int = 20, n: int = 50, step: float = 1e-4) -> dict:
    """Max relative error per loss over the requested random instances.

    n is the number of points per instance (at least 5, one more than
    the smoothness neighbors) and step the finite-difference step. Each
    probed operand's probe stack is (6n, n, 3) floats: memory O(n^2),
    0.36 MB at n = 50.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    out = {}
    for name, fn in CHECKS.items():
        rng = np.random.default_rng(seed)
        out[name] = max(fn(rng, n=n, step=step) for _ in range(instances))
    return out
