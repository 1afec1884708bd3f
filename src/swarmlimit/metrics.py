"""Distributional and moment diagnostics for comparing particle clouds.

The three pair metrics (``wasserstein2_1d``, ``kl_histogram``,
``paired_msq_gap``) share one shape rule.  ``b`` is one reference cloud and
``a`` is either one cloud of ``b``'s shape or a stack ``(K, *b.shape)`` of
them; ``kl_histogram`` alone lets the particle count of ``a`` differ from
that of ``b``.  One cloud gives a float and a stack a ``(K,)`` array whose
entry ``k`` has the bits of the call on ``a[k]`` alone.  The 1-d metrics take
a cloud as ``(n,)`` or as an ``(n, 1)`` column, the paired gap as
``(n, dim)`` or as ``(n,)`` for ``dim = 1``.  The rule goes by shape only, so
an ``(n, 1)`` ``a`` against an ``(n,)`` ``b`` is a stack of n one-point
clouds.

``kl_histogram`` bins both clouds on ``bins`` equal-width bins over their
joint range, with the edges ``np.linspace(lo, hi, bins + 1)``.  Every bin is
closed on the left and open on the right, except the last, which is closed
on both ends: the counts ``np.histogram`` gives on that range.  The counts
are read off the sorted samples with ``np.searchsorted``.
"""

from __future__ import annotations

import math

import numpy as np

KL_SMOOTHING = 1e-10


def _pair(a, b, flat: bool, same_n: bool = True):
    """``(a, b, stacked)`` as float arrays under the module's shape rule.

    ``flat`` metrics get ``(..., n)`` samples, the others ``(..., n, dim)``
    clouds; ``same_n`` requires ``a``'s particle count to be ``b``'s.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    form = "(n,) or (n, 1)" if flat else "(n,) or (n, dim)"
    if xb.ndim not in (1, 2) or xb.shape[0] < 1 or (flat and xb.shape[1:] not in ((), (1,))):
        raise ValueError(f"b must be one {form} cloud with n >= 1, got shape {xb.shape}")
    stacked = xa.ndim == xb.ndim + 1
    cloud = xa.shape[stacked:]
    if (len(cloud) != xb.ndim or cloud[1:] != xb.shape[1:] or cloud[0] < 1
            or (same_n and cloud[0] != xb.shape[0])):
        like = "b's shape" if same_n else "b's shape up to the particle count"
        raise ValueError(f"a must be one cloud of {like} {xb.shape} or a stack "
                         f"(K, *cloud) of them, got shape {xa.shape}")
    if flat and xb.ndim == 2:
        xa, xb = xa[..., 0], xb[:, 0]
    elif not flat and xb.ndim == 1:
        xa, xb = xa[..., None], xb[:, None]
    return xa, xb, stacked


def wasserstein2_1d(a, b):
    """Exact W2 between equal-size 1-d samples via order statistics.

    Sorting both samples realizes the optimal coupling in one dimension, so
    W2 = sqrt( mean_i (a_(i) - b_(i))^2 ).
    """
    xa, xb, stacked = _pair(a, b, flat=True)
    diff = np.sort(xa, axis=-1) - np.sort(xb)
    w2 = np.sqrt(np.mean(diff * diff, axis=-1))
    return w2 if stacked else float(w2)


def paired_msq_gap(a, b):
    """Mean squared Euclidean distance between index-matched particles."""
    xa, xb, stacked = _pair(a, b, flat=False)
    diff = xa - xb
    gap = np.mean(np.einsum("...ij,...ij->...i", diff, diff), axis=-1)
    return gap if stacked else float(gap)


def default_bins(n: int) -> int:
    return max(2, math.ceil(math.sqrt(n)))


def _bin_counts(sorted_x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts per bin of a sorted sample inside ``[edges[0], edges[-1]]``."""
    idx = np.searchsorted(sorted_x, edges)
    idx[-1] = sorted_x.size  # the top bin is closed
    return np.diff(idx)


def kl_histogram(a, b, bins: int):
    """KL divergence between histogram densities on shared equal-width bins.

    Bins span the union range of both samples; masses get additive smoothing
    ``KL_SMOOTHING`` and renormalization so empty bins stay finite.  A fully
    degenerate range (all points identical in both clouds) puts both clouds
    in the top bin and so gives 0.
    """
    xa, xb, stacked = _pair(a, b, flat=True, same_n=False)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    sa = np.sort(xa, axis=-1).reshape(-1, xa.shape[-1])
    sb = np.sort(xb)
    lo = np.minimum(sa[:, 0], sb[0])
    hi = np.maximum(sa[:, -1], sb[-1])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("kl_histogram needs finite samples")
    pa = np.empty((len(sa), bins), dtype=np.intp)
    qb = np.empty_like(pa)
    for k, s in enumerate(sa):
        edges = np.linspace(lo[k], hi[k], bins + 1)
        pa[k] = _bin_counts(s, edges)
        qb[k] = _bin_counts(sb, edges)
    p = pa / pa.sum(axis=-1, keepdims=True) + KL_SMOOTHING
    q = qb / qb.sum(axis=-1, keepdims=True) + KL_SMOOTHING
    p /= p.sum(axis=-1, keepdims=True)
    q /= q.sum(axis=-1, keepdims=True)
    kl = np.sum(p * np.log(p / q), axis=-1)
    return kl if stacked else float(kl[0])


def empirical_moments(a) -> tuple[float, float]:
    """(mean |x|^2, mean |x|^4) of an ``(n, dim)`` cloud."""
    x, _, _ = _pair(a, a, flat=False)
    sq = np.einsum("ij,ij->i", x, x)
    return float(np.mean(sq)), float(np.mean(sq * sq))
