"""The finite-difference gradient check against its per-coordinate form."""

import numpy as np
import pytest

from bevss import gradcheck


def _loop_fd_err(fun, x, analytic, step):
    """gradcheck._fd_err probing one coordinate at a time, two calls each.

    fun gets its own copy of x at each call, so nothing it keeps changes with x.
    """
    x = x.copy()
    f0 = fun(x.copy())
    fd = np.zeros_like(x)
    sec = np.zeros_like(x)
    flat, fdf, secf = x.ravel(), fd.ravel(), sec.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = fun(x.copy())
        flat[i] = orig - step
        fm = fun(x.copy())
        flat[i] = orig
        fdf[i] = (fp - fm) / (2 * step)
        secf[i] = abs(fp + fm - 2 * f0)
    scale = max(float(np.abs(fd).max()), float(np.abs(analytic).max()), 1e-8)
    usable = sec <= 2 * step * gradcheck.REL_TOL * scale
    if not usable.any():
        return float("inf")
    return float(np.abs(analytic - fd)[usable].max()) / scale


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_probes_give_the_per_coordinate_errors(seed, monkeypatch):
    errors = gradcheck.run_all(seed=seed, instances=3)
    monkeypatch.setattr(gradcheck, "_fd_err", _loop_fd_err)
    assert errors == gradcheck.run_all(seed=seed, instances=3)


@pytest.mark.parametrize("n", [4, 0, -1])
def test_run_all_rejects_too_few_points(n):
    with pytest.raises(ValueError, match=f"n must be >= 5, got {n}"):
        gradcheck.run_all(instances=1, n=n)


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
def test_run_all_rejects_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(ValueError, match="step must be finite and > 0"):
        gradcheck.run_all(instances=1, step=step)
