"""Regularized weighted average (consensus point) over an empirical measure.

Weights are exp(-alpha * E(x)), from the costs that ``costs_of`` returns: an
objective meets a cloud only there.  Both operations shift costs by the sample
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


def consensus_point(points, costs, alpha: float) -> np.ndarray:
    """Softmax-weighted average of ``points`` with weights exp(-alpha E).

    ``costs`` holds E at every point, shaped ``points.shape[:-1]``, as
    ``costs_of`` returns it.  A stack of clouds ``(..., n, dim)`` gives one
    point per cloud with the bits of a call on that cloud alone.  The
    result is clamped into the coordinatewise hull of the points, so
    convex-hull membership holds exactly instead of up to a rounding ulp.

    The hull bounds and the weighted sum share the contiguous
    ``(..., dim, n)`` coordinate rows.  The bounds reduce them first.  A
    zero bound is taken from the ``(..., n, dim)`` points instead: which
    of ``0.0`` and ``-0.0`` a reduction returns depends on its order, and
    ``np.clip`` returns a bound that equals the average.  Where the rows
    are a copy of C-ordered points (``dim >= 2`` and ``n >= 2``), the
    weighted products are written into them and summed over the particles
    in index order, ``s[i] = s[i - 1] + w[i] x[i]``, by ``np.add.accumulate``.
    That is the order in which the strided ``(w * x).sum(axis=-2)`` over a
    C-ordered product runs.  Otherwise, where the rows are the points
    themselves, uncopied, or the points have another layout, the sum is
    that strided ``.sum(axis=-2)`` in the order NumPy picks from the
    layout: pairwise over the particles at ``dim == 1``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2:
        raise ValueError(f"points must be an (..., n, dim) array, "
                         f"got shape {pts.shape}")
    if pts.shape[-2] < 1:
        raise ValueError("measure must contain at least one point")
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    vals = np.asarray(costs, dtype=np.float64)
    if vals.shape != pts.shape[:-1]:
        raise ValueError(f"costs must have shape {pts.shape[:-1]}, "
                         f"got {vals.shape}")
    weights = np.exp(-alpha * (vals - vals.min(axis=-1, keepdims=True)))
    rows = np.ascontiguousarray(pts.swapaxes(-1, -2))
    lo, hi = rows.min(axis=-1), rows.max(axis=-1)
    if np.count_nonzero(lo) + np.count_nonzero(hi) < 2 * lo.size:
        lo, hi = pts.min(axis=-2), pts.max(axis=-2)
    if pts.flags.c_contiguous and not np.may_share_memory(rows, pts):
        np.multiply(rows, weights[..., None, :], out=rows)
        total = np.add.accumulate(rows, axis=-1)[..., -1]
    else:
        total = (weights[..., None] * pts).sum(axis=-2)
    avg = total / weights.sum(axis=-1)[..., None]
    return np.clip(avg, lo, hi)


def laplace_value(costs, alpha: float) -> float:
    """-(1/alpha) log( mean_i exp(-alpha E(x_i)) ), max-shift stabilized.

    ``costs`` holds the ``E(x_i)`` of an ``(..., n)`` stack of measures, one
    value per measure.  Decreases toward min_i E(x_i) as alpha grows (Laplace
    asymptotics of the exponential average).
    """
    vals = np.asarray(costs, dtype=np.float64)
    if vals.ndim < 1 or vals.shape[-1] < 1:
        raise ValueError("measure must contain at least one point")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    low = vals.min(axis=-1)
    weights = np.exp(-alpha * (vals - low[..., None]))
    return low - np.log(np.mean(weights, axis=-1)) / alpha
