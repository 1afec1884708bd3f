"""Certified constants of the shipped benchmark costs, for the invariant tests.

The zero-inertia limit theorem assumes a bounded cost that satisfies the
weighted Lipschitz bound

    |E(x) - E(y)| <= L (|x| + |y|) |x - y|.

The tests check both on each cost's test box: the minimizer-centered cube of
half-width 3, which matches the uniform initialization range of the
experiments.  Every shipped cost has its exact minimum 0 at the minimizer, so
its bound gap is its upper envelope.
"""

import math

import numpy as np

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
