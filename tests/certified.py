"""Certified constants of the shipped benchmark costs, for the invariant tests.

The zero-inertia limit theorem assumes a bounded cost that satisfies the
weighted Lipschitz bound

    |E(x) - E(y)| <= L (|x| + |y|) |x - y|.

The tests check both on each cost's test box: the minimizer-centered cube of
half-width 3, which matches the uniform initialization range of the
experiments.  Every shipped cost has its exact minimum 0 at the minimizer, so
its bound gap is its upper envelope.

It also keeps the oracles that library code must equal bit for bit:
``kl_histogram_oracle``, the ``np.histogram`` form of the histogram KL,
``consensus_oracle``, the strided-sum form of the consensus point,
``KERNEL_ORACLES``, the textbook NumPy forms of the three benchmark costs,
and ``step_oracle``, the broadcast form of one step.  ``alpha0_gap_factors``
is an exact reference rather than a bit oracle: the coupled gap of the
noise-free dynamics at ``alpha = 0``.
"""

import math

import numpy as np

from swarmlimit.consensus import costs_of
from swarmlimit.metrics import KL_SMOOTHING

BOX_HALF_WIDTH = 3.0

_MAX_EXP_ARG = math.log(np.finfo(np.float64).max)

# relative headroom added to analytic Lipschitz constants whose supremum is
# attained: the float-evaluated ratio can land an ulp above the exact bound
_ROUNDING_PAD = 1.0 + 1e-9

# Recorded Ackley constants by dimension, on the unshifted box.  Each is twice
# the sampled maximum of |E(x) - E(y)| / ((|x| + |y|) |x - y|) over 2e6
# uniform pairs from the box (numpy default_rng, seed 0xACC1E).  The margin is
# deliberately large: the conical minimum at the origin makes the ratio
# unbounded as both points approach it, so any finite constant certifies the
# inequality only statistically, on boxed samples.
ACKLEY_LIPSCHITZ = {
    1: 2024.361634365619,
    2: 110.07679055412079,
    3: 16.34554657165518,
}


def box_of(obj) -> np.ndarray:
    """The test box as a (2, dim) array whose rows are (low, high)."""
    return np.stack([obj.minimizer - BOX_HALF_WIDTH, obj.minimizer + BOX_HALF_WIDTH])


def upper_bound(obj) -> float:
    """Closed-form upper envelope of the cost on its test box."""
    if obj.name == "ackley":
        # per-term maxima on the box: |x - x*| <= 3 sqrt(d) and cos-mean >= -1,
        # giving a dimension-independent envelope
        return 20.0 + np.e - 20.0 * math.exp(-0.6) - math.exp(-1.0)
    if obj.name == "sphere":
        return BOX_HALF_WIDTH**2 * obj.dim
    if obj.name == "rastrigin":
        # per-coordinate envelope: z^2 <= 9, -10 cos <= 10, +10
        return 29.0 * obj.dim
    raise KeyError(f"no certified upper bound for {obj.name!r}")


def lipschitz_l(obj) -> float:
    """Weighted-Lipschitz constant of an unshifted cost on its test box."""
    if np.any(obj.minimizer):
        raise ValueError("the constants are certified for unshifted costs only")
    if obj.name == "ackley":
        return ACKLEY_LIPSCHITZ[obj.dim]
    if obj.name == "sphere":
        # ||x|^2 - |y|^2| = (|x| + |y|) ||x| - |y|| <= (|x| + |y|) |x - y|,
        # with equality for aligned pairs
        return 1.0 * _ROUNDING_PAD
    if obj.name == "rastrigin":
        # the quadratic part gives 1; the cosine part gives 20 pi^2 via
        # |cos a - cos b| <= |a + b| |a - b| / 2 applied coordinatewise;
        # near-origin pairs approach the bound
        return (1.0 + 20.0 * np.pi**2) * _ROUNDING_PAD
    raise KeyError(f"no certified Lipschitz constant for {obj.name!r}")


def c_alpha(bound_gap: float, alpha: float) -> float:
    """exp(alpha * bound_gap), the consensus-weight ratio cap."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    arg = alpha * bound_gap
    if arg > _MAX_EXP_ARG:
        raise OverflowError(
            f"alpha * bound gap = {arg:.6g} exceeds the float64 exponent range"
        )
    return math.exp(arg)


def kl_histogram_oracle(a, b, bins: int) -> float:
    """Histogram KL of two 1-d samples with ``np.histogram`` doing the counts."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 0.0
    pa, _ = np.histogram(a, bins=bins, range=(lo, hi))
    qb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    p = pa / pa.sum() + KL_SMOOTHING
    q = qb / qb.sum() + KL_SMOOTHING
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def consensus_oracle(points, costs, alpha):
    """The consensus point of an ``(..., n, dim)`` cloud with costs ``costs``
    as the weighted product summed over the strided particle axis, divided
    by the weight sum, then clamped into the hull of the points."""
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(costs, dtype=np.float64)
    weights = np.exp(-alpha * (vals - vals.min(axis=-1, keepdims=True)))
    avg = (weights[..., None] * pts).sum(axis=-2) / weights.sum(axis=-1)[..., None]
    rows = np.ascontiguousarray(pts.swapaxes(-1, -2))
    lo, hi = rows.min(axis=-1), rows.max(axis=-1)
    if np.count_nonzero(lo) + np.count_nonzero(hi) < 2 * lo.size:
        lo, hi = pts.min(axis=-2), pts.max(axis=-2)
    return np.clip(avg, lo, hi)


def ackley_oracle(x, x_star):
    inv_sqrt_d = 1.0 / np.sqrt(x_star.size)
    z = x - x_star
    r = np.sqrt(np.einsum("ij,ij->i", z, z))
    c = np.mean(np.cos(2.0 * np.pi * z), axis=1)
    return -20.0 * np.exp(-0.2 * inv_sqrt_d * r) - np.exp(c) + np.e + 20.0


def sphere_oracle(x, x_star):
    z = x - x_star
    return np.einsum("ij,ij->i", z, z)


def rastrigin_oracle(x, x_star):
    z = x - x_star
    return np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=1)


# the costs on an (n, dim) batch ``x`` with minimizer ``x_star``, by name
KERNEL_ORACLES = {
    "ackley": ackley_oracle,
    "sphere": sphere_oracle,
    "rastrigin": rastrigin_oracle,
}


def step_oracle(state, p, obj, theta, cons):
    """The new ``(x, v, y)`` of ``_step(state, p, obj, theta, cons)`` in the
    broadcast form, every operation allocating its result: ``Xa - X``
    broadcasts each consensus point over the rows of its cloud, and the
    local bests' tanh weight over the coordinates of each particle."""
    sqrt_dt = math.sqrt(p.dt)
    to_global = cons.point[..., None, :] - state.x
    if state.y is None:
        terms = [(p.lam * p.dt, to_global, None),
                 (p.sigma * sqrt_dt, to_global, theta[0])]
    else:
        mem = p.memory
        to_local = state.y - state.x
        terms = [(mem.lam1 * p.dt, to_local, None),
                 (mem.lam2 * p.dt, to_global, None),
                 (mem.sigma1 * sqrt_dt, to_local, theta[0]),
                 (mem.sigma2 * sqrt_dt, to_global, theta[1])]
    if state.v is None:
        denom, acc = 1.0, state.x
    else:
        denom = state.m + (1.0 - state.m) * p.dt
        acc = (state.m / denom) * state.v
    for coef, vec, noise in terms:
        term = (coef / denom) * vec
        if noise is not None:
            term = term * noise
        acc = acc + term
    x_new, v_new = (acc, None) if state.v is None else (state.x + p.dt * acc, acc)
    y_new = None
    if state.y is not None:
        gap = costs_of(x_new, obj) - cons.costs
        pull = (mem.nu * p.dt) * (x_new - state.y)
        y_new = state.y + pull * np.tanh(mem.beta * gap)[..., None]
    return x_new, v_new, y_new


def alpha0_gap_factors(m: float, lam: float, dt: float, n_steps: int) -> np.ndarray:
    """The paired mean-square gap between PSO(m) and CBO at steps ``0, ...,
    n_steps`` of the noise-free schemes at ``alpha = 0``, per unit of the
    initial cloud's population variance.

    At ``alpha = 0`` every consensus weight is 1, so the consensus is the
    cloud's mean; with ``sigma = 0`` both schemes keep that mean, and a
    particle's offsets from it, ``Z`` for CBO and ``W`` for PSO with its
    velocity ``V``, follow ``s' = A s`` for ``s = (Z, W, V)`` and ``D = m +
    (1 - m) dt``: ``Z' = (1 - lam dt) Z``, ``V' = (m V - lam dt W) / D`` and
    ``W' = W + dt V'``.  Both start from the same offsets at rest, so
    ``M_0 = [[1, 1, 0], [1, 1, 0], [0, 0, 0]]`` and ``M_n = A M_{n-1} A^T``,
    and the gap's factor ``c_n`` is the ``W - Z`` entry of ``M_n``: ``M_WW
    - 2 M_WZ + M_ZZ``.  Each coordinate follows the same recursion, so in
    ``d`` dimensions the gap is ``c_n`` times the variance summed over the
    coordinates.
    """
    denom = m + (1.0 - m) * dt
    a = np.array([[1.0 - lam * dt, 0.0, 0.0],
                  [0.0, 1.0 - lam * dt * dt / denom, m * dt / denom],
                  [0.0, -lam * dt / denom, m / denom]])
    moments = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    w_minus_z = np.array([-1.0, 1.0, 0.0])
    factors = np.empty(n_steps + 1)
    for n in range(n_steps + 1):
        factors[n] = w_minus_z @ moments @ w_minus_z
        moments = a @ moments @ a.T
    return factors
