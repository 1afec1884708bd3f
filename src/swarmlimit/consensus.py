"""Regularized weighted average (consensus point) over an empirical measure.

Weights are exp(-alpha * E(x)).  Both operations shift costs by the sample
minimum before exponentiating, which keeps the denominator >= 1 and makes the
computation overflow-free for arbitrarily large alpha; the shift cancels
exactly in the weighted average, so the result is mathematically identical to
the unshifted formula.
"""

from __future__ import annotations

import numpy as np


def _costs(points: np.ndarray, obj) -> np.ndarray:
    vals = obj(points)
    return np.asarray(vals, dtype=np.float64)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, dim) array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("measure must contain at least one point")
    return pts


def consensus_point(points, obj, alpha: float, costs=None) -> np.ndarray:
    """Softmax-weighted average of ``points`` with weights exp(-alpha E).

    ``obj`` is a batch-callable cost (an ``Objective`` or any map from
    ``(n, dim)`` to ``(n,)``).  A caller that already holds ``obj(points)``
    passes it as ``costs`` and the objective is not evaluated again.  The
    result is clamped into the coordinatewise hull of the points, so
    convex-hull membership holds exactly instead of up to a rounding ulp.
    """
    pts = _as_points(points)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    vals = _costs(pts, obj) if costs is None else costs
    weights = np.exp(-alpha * (vals - vals.min()))
    avg = (weights[:, None] * pts).sum(axis=0) / weights.sum()
    return np.clip(avg, pts.min(axis=0), pts.max(axis=0))


def laplace_value(points, obj, alpha: float) -> float:
    """-(1/alpha) log( mean_i exp(-alpha E(x_i)) ), max-shift stabilized.

    Decreases toward min_i E(x_i) as alpha grows (Laplace asymptotics of the
    exponential average).
    """
    pts = _as_points(points)
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    vals = _costs(pts, obj)
    low = vals.min()
    return float(low - np.log(np.mean(np.exp(-alpha * (vals - low)))) / alpha)
