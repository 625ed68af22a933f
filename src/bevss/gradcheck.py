"""Finite-difference verification of every analytic loss gradient.

Central differences with nearest-neighbor correspondences (Chamfer pairs,
smoothness neighbors) held fixed while a loss is probed.
"""

import numpy as np

from .grid import FrameSet, PointCloud, PointFlowSet
from .losses import (
    MaskedChamfer,
    Rigidity,
    TemporalConsistency,
    chamfer,
    chamfer_pairs,
    smoothness,
    smoothness_neighbors,
)
from .masks import StaticDynamicMask
from .pieces import RigidPieces

OFFSETS = (-1, 1, 2)


REL_TOL = 1e-3


def _fd_err(fun, x: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Max relative error between central differences and the analytic grad.

    Coordinates where the second difference reveals a kink of an absolute
    value inside the probe interval are excluded: there the two-sided
    quotient averages two subgradients and cannot resolve the tolerance.
    """
    f0 = fun()
    fd = np.zeros_like(x)
    sec = np.zeros_like(x)
    flat, fdf, secf = x.ravel(), fd.ravel(), sec.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = fun()
        flat[i] = orig - step
        fm = fun()
        flat[i] = orig
        fdf[i] = (fp - fm) / (2 * step)
        secf[i] = abs(fp + fm - 2 * f0)
    scale = max(float(np.abs(fd).max()), float(np.abs(analytic).max()), 1e-8)
    usable = sec <= 2 * step * REL_TOL * scale
    if not usable.any():
        return float("inf")
    return float(np.abs(analytic - fd)[usable].max()) / scale


def check_chamfer(rng: np.random.Generator, n: int = 50, step: float = 1e-4) -> float:
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(n, 3))
    pairs = chamfer_pairs(a, b)

    def loss():
        return chamfer(PointCloud(0, a.copy()), PointCloud(1, b.copy()), pairs=pairs).value

    res = chamfer(PointCloud(0, a.copy()), PointCloud(1, b.copy()), with_grad=True, pairs=pairs)
    return max(_fd_err(loss, a, res.grad["a"], step), _fd_err(loss, b, res.grad["b"], step))


def _check_term(term, flows: dict, step: float, fixed_pairs: bool = False) -> float:
    """Max error of a prepared term's gradient over every offset of flows.

    flows maps each offset to an (n, 3) array that is probed in place;
    fixed_pairs holds a MaskedChamfer's pairs at those flows fixed.
    """

    def wrap():
        return {t: PointFlowSet(t, f.copy()) for t, f in flows.items()}

    kwargs = {"pairs": term.pairs(wrap())} if fixed_pairs else {}
    res = term(wrap(), with_grad=True, **kwargs)
    return max(
        _fd_err(lambda: term(wrap(), **kwargs).value, f, res.grad[t], step)
        for t, f in flows.items()
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
    res = smoothness(cloud, PointFlowSet(1, flows.copy()), k=4, with_grad=True, neighbors=nbr)
    return _fd_err(
        lambda: smoothness(cloud, PointFlowSet(1, flows.copy()), k=4, neighbors=nbr).value,
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
    """Max relative error per loss over the requested random instances."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    out = {}
    for name, fn in CHECKS.items():
        rng = np.random.default_rng(seed)
        out[name] = max(fn(rng, n=n, step=step) for _ in range(instances))
    return out
