"""Regularized weighted average (consensus point) over an empirical measure.

Weights are exp(-alpha * E(x)).  Both operations shift costs by the sample
minimum before exponentiating, which keeps the denominator >= 1 and makes the
computation overflow-free for arbitrarily large alpha; the shift cancels
exactly in the weighted average, so the result is mathematically identical to
the unshifted formula.
"""

from __future__ import annotations

import numpy as np


def costs_of(points, obj) -> np.ndarray:
    """``obj`` on every point of an ``(..., n, dim)`` cloud, shaped ``(..., n)``:
    the one place that knows objectives map an ``(n, dim)`` batch row by row.
    """
    pts = np.asarray(points)
    vals = obj(pts.reshape(-1, pts.shape[-1]))
    return np.asarray(vals, dtype=np.float64).reshape(pts.shape[:-1])


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2:
        raise ValueError(f"points must be an (..., n, dim) array, "
                         f"got shape {pts.shape}")
    if pts.shape[-2] < 1:
        raise ValueError("measure must contain at least one point")
    return pts


def consensus_point(points, obj, alpha: float, costs=None) -> np.ndarray:
    """Softmax-weighted average of ``points`` with weights exp(-alpha E).

    ``obj`` is a batch-callable cost (an ``Objective`` or any map from
    ``(n, dim)`` to ``(n,)``).  A stack of clouds ``(..., n, dim)`` gives one
    point per cloud with the bits of a call on that cloud alone.  A caller
    that already holds ``costs_of(points, obj)`` passes it as ``costs``.  The
    result is clamped into the coordinatewise hull of the points, so
    convex-hull membership holds exactly instead of up to a rounding ulp.
    """
    pts = _as_points(points)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    vals = costs_of(pts, obj) if costs is None else costs
    weights = np.exp(-alpha * (vals - vals.min(axis=-1, keepdims=True)))
    avg = (weights[..., None] * pts).sum(axis=-2) / weights.sum(axis=-1)[..., None]
    return np.clip(avg, pts.min(axis=-2), pts.max(axis=-2))


def laplace_value(points, obj, alpha: float) -> float:
    """-(1/alpha) log( mean_i exp(-alpha E(x_i)) ), max-shift stabilized.

    Decreases toward min_i E(x_i) as alpha grows (Laplace asymptotics of the
    exponential average).
    """
    pts = _as_points(points)
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    vals = costs_of(pts, obj)
    low = vals.min(axis=-1)
    weights = np.exp(-alpha * (vals - low[..., None]))
    return low - np.log(np.mean(weights, axis=-1)) / alpha
