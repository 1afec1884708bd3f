"""Distributional and moment diagnostics for comparing particle clouds.

The three pair metrics (``wasserstein2_1d``, ``kl_histogram``,
``paired_msq_gap``) share one shape rule.  ``b`` is the reference: one cloud,
or a batch ``(R, n, dim)`` of R clouds.  ``a`` has ``b``'s shape, and its
cloud ``r`` is compared with ``b``'s cloud ``r``, or is a stack
``(K, *b.shape)`` of K such sets; ``kl_histogram`` alone lets the particle
count of ``a`` differ from that of ``b``.  The result holds one value per
compared pair of clouds, shaped by the stack and batch axes: ``(K, R)``,
``(K,)`` or ``(R,)``, and a float for a single pair.  Each value has the bits
of the call on that pair alone.  A lone cloud is ``(n,)`` or ``(n, 1)`` for
the 1-d metrics, and ``(n, dim)`` or, for ``dim = 1``, ``(n,)`` for the
paired gap; a cloud in a batch always has its ``dim`` axis.  The rule goes
by shape only, so an ``(n, 1)`` ``a`` against an ``(n,)`` ``b`` is a stack of
n one-point clouds.

``kl_histogram`` bins both clouds of a pair on ``bins`` equal-width bins
over their joint range, with the edges ``np.linspace(lo, hi, bins + 1)``,
made for all pairs by one call, and by a second one for the pairs whose
nonzero range is too small for a nonzero step.  Every bin is closed on the
left and open on the right, except the last, which is closed on both ends:
the counts ``np.histogram`` gives on that range.  The counts are read off the sorted
samples with ``np.searchsorted``, one call per cloud over the edges of every
pair it belongs to: a reference cloud of a stack of K is searched once, not K
times.  Both clouds' insertion points fill one array, which one ``np.diff``
turns into counts and one normalisation into the smoothed masses.

Both 1-d metrics work on sorted samples.  ``_w2_and_kl_sorted`` gives the
pair ``(wasserstein2_1d, kl_histogram)`` of equal-size samples that a caller
has sorted itself, with the bits of the two calls: the kernel a coupled pass
runs on its window of steps.  Means along the particle axis are
``np.add.reduce(...) / n``, the arithmetic of ``np.mean``.
Squared norms are ``objectives._square_norm``'s, with the bits of
``np.einsum``.
"""

from __future__ import annotations

import math

import numpy as np

from .objectives import _square_norm

KL_SMOOTHING = 1e-10


def _pair(a, b, flat: bool, same_n: bool = True):
    """``(a, b)`` as float arrays under the module's shape rule.

    ``flat`` metrics get ``(..., n)`` samples, the others ``(..., n, dim)``
    clouds, with the stack and batch axes in front; ``same_n`` requires
    ``a``'s particle count to be ``b``'s.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    form = "(n,) or (n, 1)" if flat else "(n,) or (n, dim)"
    particles = max(0, xb.ndim - 2)  # the axis of n in b
    if (xb.ndim not in (1, 2, 3) or xb.shape[particles] < 1
            or (flat and xb.shape[particles + 1:] not in ((), (1,)))):
        raise ValueError(f"b must be one {form} cloud or a batch (R, n, dim) of "
                         f"them, with n >= 1, got shape {xb.shape}")
    stacked = xa.ndim == xb.ndim + 1
    cloud, ref = list(xa.shape[stacked:]), list(xb.shape)
    if not same_n and len(cloud) == len(ref) and cloud[particles] >= 1:
        cloud[particles] = ref[particles]
    if cloud != ref:
        like = "b's shape" if same_n else "b's shape up to the particle count"
        raise ValueError(f"a must be one cloud of {like} {xb.shape} or a stack "
                         f"(K, *b.shape) of them, got shape {xa.shape}")
    if flat and xb.ndim >= 2:
        xa, xb = xa[..., 0], xb[..., 0]
    elif not flat and xb.ndim == 1:
        xa, xb = xa[..., None], xb[:, None]
    return xa, xb


def _result(values):
    """One entry per pair of clouds; a float for a single pair."""
    return float(values) if np.ndim(values) == 0 else values


def _mean(values):
    """Mean along the last axis: ``np.mean``'s arithmetic without its wrapper."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def _msq(xa, xb):
    """Mean squared difference of every pair of equal-size samples along the
    last axis."""
    sq = xa - xb
    sq *= sq
    return _mean(sq)


def wasserstein2_1d(a, b):
    """Exact W2 between equal-size 1-d samples via order statistics.

    Sorting both samples realizes the optimal coupling in one dimension, so
    W2 = sqrt( mean_i (a_(i) - b_(i))^2 ).
    """
    xa, xb = _pair(a, b, flat=True)
    return _result(np.sqrt(_msq(np.sort(xa, axis=-1), np.sort(xb, axis=-1))))


def paired_msq_gap(a, b):
    """Mean squared Euclidean distance between index-matched particles."""
    xa, xb = _pair(a, b, flat=False)
    return _result(_mean(_square_norm(xa - xb)))


def default_bins(n: int) -> int:
    return max(2, math.ceil(math.sqrt(n)))


def _bin_counts(sorted_x: np.ndarray, edges: np.ndarray, idx: np.ndarray) -> None:
    """Fill the contiguous ``idx``, shaped like ``edges``, with the insertion
    point of every pair's edges into its sorted sample along the last axis of
    ``sorted_x``, and the top one with the sample size (the top bin is
    closed), so that ``np.diff`` gives the counts per bin.

    ``sorted_x`` broadcasts against the leading axes of ``edges``; each of its
    samples is searched once, for the edges of every pair it belongs to.
    """
    n = sorted_x.shape[-1]
    samples = sorted_x.reshape(-1, n)
    rows = edges.reshape(-1, len(samples), edges.shape[-1])
    out = idx.reshape(rows.shape)
    for j, sample in enumerate(samples):
        # the method skips np.searchsorted's Python wrapper, about half of
        # a call's time at 1000 samples and 33 edges
        out[:, j] = sample.searchsorted(rows[:, j])
    out[..., -1] = n


def _kl_sorted(sa, sb, bins: int):
    """Histogram KL of every pair of sorted samples along the last axis."""
    lo = np.minimum(sa[..., 0], sb[..., 0])
    hi = np.maximum(sa[..., -1], sb[..., -1])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("kl_histogram needs finite samples")
    # one linspace for all pairs switches its formula for every pair when one
    # step is 0, so a pair whose step is 0 bins on [0, 1]: a degenerate one
    # keeps those edges and gives 0, and one whose nonzero range is below
    # bins times the smallest subnormal gets its own edges from a second call
    flat = lo == hi
    zero_step = (hi - lo) / bins == 0.0
    edges = np.linspace(np.where(zero_step, 0.0, lo),
                        np.where(zero_step, 1.0, hi), bins + 1, axis=-1)
    tiny = zero_step & ~flat
    if tiny.any():
        edges[tiny] = np.linspace(lo[tiny], hi[tiny], bins + 1, axis=-1)
    idx = np.empty((2,) + edges.shape, dtype=np.intp)
    _bin_counts(sa, edges, idx[0])
    _bin_counts(sb, edges, idx[1])
    counts = np.diff(idx, axis=-1)
    # the smoothed masses of both samples, p = mass[0] and q = mass[1]; a
    # pair's counts sum to its sample size, except for a degenerate pair on
    # [0, 1], whose KL is 0 whatever its masses
    sizes = np.reshape([sa.shape[-1], sb.shape[-1]], (2,) + (1,) * edges.ndim)
    mass = counts / sizes + KL_SMOOTHING
    mass /= np.add.reduce(mass, axis=-1, keepdims=True)
    p, q = mass
    return np.where(flat, 0.0, np.add.reduce(p * np.log(p / q), axis=-1))


def _check_bins(bins) -> None:
    if not isinstance(bins, (int, np.integer)):
        raise ValueError(f"bins must be an integer, got {bins!r}")
    if bins < 2:
        raise ValueError("bins must be >= 2")


def kl_histogram(a, b, bins: int):
    """KL divergence between histogram densities on shared equal-width bins.

    Bins span the union range of both samples; masses get additive smoothing
    ``KL_SMOOTHING`` and renormalization so empty bins stay finite.  A fully
    degenerate range (all points identical in both clouds) gives 0.
    """
    xa, xb = _pair(a, b, flat=True, same_n=False)
    _check_bins(bins)
    return _result(_kl_sorted(np.sort(xa, axis=-1), np.sort(xb, axis=-1), bins))


def _w2_and_kl_sorted(sa, sb, bins: int):
    """``(wasserstein2_1d, kl_histogram)`` of every pair of equal-size
    ``(..., n)`` samples already sorted along the last axis, unchecked, each
    value with the bits of its own call on the unsorted samples."""
    return _result(np.sqrt(_msq(sa, sb))), _result(_kl_sorted(sa, sb, bins))


def empirical_moments(a) -> tuple[float, float]:
    """(mean |x|^2, mean |x|^4) of one ``(n,)`` or ``(n, dim)`` cloud."""
    if np.ndim(a) not in (1, 2):
        raise ValueError("empirical_moments takes one (n,) or (n, dim) cloud, "
                         f"got shape {np.shape(a)}")
    x, _ = _pair(a, a, flat=False)
    sq = _square_norm(x)
    return float(np.mean(sq)), float(np.mean(sq * sq))
