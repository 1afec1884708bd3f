"""Benchmark cost functions with certified bound and Lipschitz metadata.

Each objective carries the data the invariant checks need: a lower bound
(its exact minimum), a certified upper bound on the declared test box, and a
weighted-Lipschitz constant ``L`` such that

    |E(x) - E(y)| <= L (|x| + |y|) |x - y|

holds on sampled pairs from the box.  Bounds are closed-form envelopes where
available; the Ackley ``L`` is a margined numerical estimate recorded in
``_certified.py`` (see that module for how the numbers were produced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._certified import WEIGHTED_LIPSCHITZ

# test boxes are the minimizer-centered cube with this half-width, matching
# the uniform initialization range of the experiments
BOX_HALF_WIDTH = 3.0

_MAX_EXP_ARG = math.log(np.finfo(np.float64).max)

# relative headroom added to analytic Lipschitz constants whose supremum is
# attained: the float-evaluated ratio can land an ulp above the exact bound
_ROUNDING_PAD = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class Objective:
    """Immutable cost function plus the metadata certified on ``test_box``.

    ``eval`` maps an ``(n, dim)`` batch to an ``(n,)`` cost array; calling the
    objective accepts a single ``(dim,)`` point as well.  Instances hold no
    mutable state and are safe to share across workers.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    minimizer: np.ndarray
    lower_bound: float
    upper_bound: float
    lipschitz_l: float
    test_box: np.ndarray  # (2, dim): rows are (low, high)

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return float(self.eval(x[None, :])[0])
        return self.eval(x)

    @property
    def bound_gap(self) -> float:
        return self.upper_bound - self.lower_bound


def c_alpha(obj: Objective, alpha: float) -> float:
    """exp(alpha * (upper_bound - lower_bound)), the consensus-weight ratio cap."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    arg = alpha * obj.bound_gap
    if arg > _MAX_EXP_ARG:
        raise OverflowError(
            f"alpha * bound gap = {arg:.6g} exceeds the float64 exponent range"
        )
    return math.exp(arg)


def _prepare_shift(dim: int, shift) -> np.ndarray:
    if shift is None:
        return np.zeros(dim)
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.shape != (dim,):
        raise ValueError(f"shift must have shape ({dim},), got {shift.shape}")
    if not np.all(np.isfinite(shift)):
        raise ValueError(f"shift must be finite, got {tuple(shift.tolist())}")
    return shift


def _centered_box(shift: np.ndarray) -> np.ndarray:
    return np.stack([shift - BOX_HALF_WIDTH, shift + BOX_HALF_WIDTH])


def _lookup_lipschitz(name: str, dim: int, shift: np.ndarray,
                      eval_fn: Callable, box: np.ndarray) -> float:
    if not np.any(shift):
        recorded = WEIGHTED_LIPSCHITZ.get((name, dim))
        if recorded is not None:
            return recorded
    return estimate_weighted_lipschitz(eval_fn, box)


def ackley(dim: int, shift=None) -> Objective:
    """Ackley benchmark, minimum 0 at ``shift``.

    E(x) = -20 exp(-0.2 |x - x*| / sqrt(d))
           - exp(mean_k cos(2 pi (x_k - x*_k))) + e + 20
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    x_star = _prepare_shift(dim, shift)
    inv_sqrt_d = 1.0 / np.sqrt(dim)

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = x - x_star
        r = np.sqrt(np.einsum("ij,ij->i", z, z))
        c = np.mean(np.cos(2.0 * np.pi * z), axis=1)
        return -20.0 * np.exp(-0.2 * inv_sqrt_d * r) - np.exp(c) + np.e + 20.0

    box = _centered_box(x_star)
    # per-term maxima on the box: |x - x*| <= 3 sqrt(d) and cos-mean >= -1,
    # giving a dimension-independent certified envelope
    upper = 20.0 + np.e - 20.0 * math.exp(-0.6) - math.exp(-1.0)
    return Objective(
        name="ackley",
        dim=dim,
        eval=evaluate,
        minimizer=x_star,
        lower_bound=0.0,
        upper_bound=upper,
        lipschitz_l=_lookup_lipschitz("ackley", dim, x_star, evaluate, box),
        test_box=box,
    )


def sphere(dim: int, shift=None) -> Objective:
    """Squared-distance benchmark |x - x*|^2, minimum 0 at ``shift``."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    x_star = _prepare_shift(dim, shift)

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = x - x_star
        return np.einsum("ij,ij->i", z, z)

    box = _centered_box(x_star)
    if np.any(x_star):
        lipschitz = estimate_weighted_lipschitz(evaluate, box)
    else:
        # ||x|^2 - |y|^2| = (|x| + |y|) ||x| - |y|| <= (|x| + |y|) |x - y|,
        # with equality for aligned pairs
        lipschitz = 1.0 * _ROUNDING_PAD
    return Objective(
        name="sphere",
        dim=dim,
        eval=evaluate,
        minimizer=x_star,
        lower_bound=0.0,
        upper_bound=BOX_HALF_WIDTH**2 * dim,
        lipschitz_l=lipschitz,
        test_box=box,
    )


def rastrigin(dim: int, shift=None) -> Objective:
    """Rastrigin benchmark sum_k [z_k^2 - 10 cos(2 pi z_k) + 10], z = x - x*."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    x_star = _prepare_shift(dim, shift)

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = x - x_star
        return np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=1)

    box = _centered_box(x_star)
    if np.any(x_star):
        lipschitz = estimate_weighted_lipschitz(evaluate, box)
    else:
        # quadratic part gives 1; the cosine part gives 20 pi^2 via
        # |cos a - cos b| <= |a + b| |a - b| / 2 applied coordinatewise;
        # near-origin pairs approach the bound
        lipschitz = (1.0 + 20.0 * np.pi**2) * _ROUNDING_PAD
    return Objective(
        name="rastrigin",
        dim=dim,
        eval=evaluate,
        minimizer=x_star,
        lower_bound=0.0,
        # per-coordinate envelope: z^2 <= 9, -10 cos <= 10, +10
        upper_bound=29.0 * dim,
        lipschitz_l=lipschitz,
        test_box=box,
    )


_REGISTRY = {"ackley": ackley, "sphere": sphere, "rastrigin": rastrigin}


def make_objective(name: str, dim: int, shift=None) -> Objective:
    """Build a benchmark objective by name (CLI/config entry point)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown objective {name!r} (known: {known})") from None
    return factory(dim, shift)


def estimate_weighted_lipschitz(eval_fn: Callable, box: np.ndarray,
                                n_pairs: int = 200_000, seed: int = 0x5EED,
                                margin: float = 2.0) -> float:
    """Margined sampled maximum of |E(x)-E(y)| / ((|x|+|y|) |x-y|) on a box.

    Used at build time to record constants and as the fallback for shifted or
    uncommon-dimension objectives.  The ratio has a heavy upper tail whenever
    the cost has a conical minimum near the origin, hence the generous margin.
    """
    low, high = box[0], box[1]
    dim = low.shape[0]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(low, high, (n_pairs // 10, dim))
        y = rng.uniform(low, high, (n_pairs // 10, dim))
        num = np.abs(eval_fn(x) - eval_fn(y))
        den = (np.linalg.norm(x, axis=1) + np.linalg.norm(y, axis=1)) \
            * np.linalg.norm(x - y, axis=1)
        ok = den > 0
        if np.any(ok):
            worst = max(worst, float(np.max(num[ok] / den[ok])))
    return margin * worst
